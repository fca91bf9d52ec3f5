"""Tests of the benchmark itself: negative controls for every checker, and
the tracer's patching and self-time arithmetic.

    python3 -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speedref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from flopwall import cli, hypergeom, ktheory, numkernel, wallcross  # noqa: E402
from flopwall.flopgeom import random_config  # noqa: E402


def counted_failures(op) -> int:
    """Failures the benchmark loop records for one operation."""
    loop = run.Loop(workload=None, state=None)
    loop.run_op(op)
    return len(loop.failures)


def emitted(report) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit(report, fmt="json")
    return out.getvalue()


# ----------------------------------------------------------------------
# negative controls: one deliberately wrong input per workload
# ----------------------------------------------------------------------

def test_verify_checker_counts_a_failed_case():
    report = cli.run_suite(workloads.run_config(cli, 0), "geometry")
    good = emitted(report)
    assert workloads.check_report(good, good) == []

    cases = [dict(c) for c in report.cases]
    cases[3]["status"] = "fail"
    bad = emitted(dataclasses.replace(report, cases=cases))
    problems = workloads.check_report(bad, None)
    assert len(problems) == 1 and cases[3]["case"] in problems[0]
    assert counted_failures(lambda: workloads.check_report(bad, None)) == 1
    # a pass that differs from the first one is a failure too
    assert counted_failures(lambda: workloads.check_report(bad, good)) == 1


def test_draws_singular_for_the_gamma_class_are_skipped():
    # seed 210 draws x_0 - z_1 = -2: Gamma(1 + w/z) has a pole at z = 2
    with pytest.raises(numkernel.PoleError):
        wallcross.PsiContext.create(workloads.run_config(cli, 210).flop_config(), "plus", z=-2.0)
    rc, skipped = workloads.regular_run_config(cli, wallcross, 210)
    assert skipped == 1 and rc.seed == 210 + workloads.VERIFY_SEED_STRIDE
    assert workloads.regular_run_config(cli, wallcross, 0)[1] == 0


def test_scan_checker_counts_a_perturbed_reference():
    state = workloads.WallScan().setup(0)
    inst, w, l = next(p for p in state.points if abs(p[1].real) > 0.5)
    value = hypergeom.barnes_integrate(w, inst.config, l, tol=workloads.SCAN_TOL)
    reference = inst.reference(w, l)
    assert workloads.check_scan(value, reference) == []

    perturbed = reference * (1.0 + 1e-6)
    assert len(workloads.check_scan(value, perturbed)) == 1
    assert counted_failures(lambda: workloads.check_scan(value, perturbed)) == 1


def test_sweep_checker_counts_a_wrong_fm_coefficient():
    cfg = random_config(3, 1, seed="0:0:3:1")
    closed = ktheory.fm_generator_formula(cfg, (0,))
    exact = ktheory.fm_transform_generator_exact(cfg, (0,))
    assert workloads.check_fm_exact(closed, exact) == []

    dp, chi = next(iter(closed.restrictions.items()))
    vec, coeff = next(iter(chi.terms.items()))
    wrong = ktheory.VirtualCharacter(chi.nvars, {**chi.terms, vec: coeff + 1})
    bad = ktheory.LocalizedKClass("plus", {**closed.restrictions, dp: wrong})
    assert len(workloads.check_fm_exact(bad, exact)) == 1
    assert counted_failures(lambda: workloads.check_fm_exact(bad, exact)) == 1


def test_tolerance_checkers_reject_values_outside_tolerance():
    want = {(0,): 1.0 + 1.0j}
    assert workloads.check_close("x", {(0,): want[(0,)] * (1 + 1e-11)}, want, 1e-10) == []
    assert len(workloads.check_close("x", {(0,): want[(0,)] * (1 + 1e-9)}, want, 1e-10)) == 1
    assert workloads.check_residual("ode", 1e-11, 1e-10) == []
    assert len(workloads.check_residual("ode", float("nan"), 1e-10)) == 1


def test_a_raising_operation_is_counted_as_failed():
    def op():
        raise numkernel.PoleError("boom")

    assert counted_failures(op) == 1


def test_every_sweep_check_passes_on_a_generic_instance():
    state = workloads.InstanceSweep().setup(0)
    assert workloads.InstanceSweep.op(state, 3, 2, "0:0:3:2") == []


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def test_self_times_add_up_to_the_outer_span():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "b:inner", record=True)
    hot = tracer.wrap(lambda: None, "c:hot", record=False)

    def body():
        inner()
        hot()

    tracer.wrap(body, "a:outer", record=True)()
    # clock reads: outer 0, inner 1-2, hot 3-4, outer 5
    assert tracer.stats["b:inner"] == [1, 1.0]
    assert tracer.stats["c:hot"] == [1, 1.0]
    assert tracer.stats["a:outer"] == [1, 3.0]
    assert sum(t["self_s"] for t in tracer.layer_totals().values()) == 5.0
    (inner_id, inner_parent, *_), (outer_id, outer_parent, *_) = tracer.spans
    assert inner_parent == outer_id and outer_parent == -1
    assert len(tracer.spans) == 2  # the aggregated call records no span


def test_install_patches_every_binding_and_uninstall_restores():
    originals = (numkernel.log_gamma, hypergeom.log_gamma, wallcross.gamma,
                 numkernel.MultiPoly.__mul__, cli.collect_cases)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (numkernel, hypergeom):
            assert mod.log_gamma.__wrapped_key__ == "numkernel.gamma:log_gamma"
        assert wallcross.gamma.__wrapped_key__ == "numkernel.gamma:gamma"
        assert cli.collect_cases.__wrapped_key__ == "suites:collect_cases"

        cfg = random_config(2, 1, seed=0)
        hypergeom.barnes_integrand(-0.5 + 1j, -1.0 + 1j, cfg, 0)
        assert tracer.calls("hypergeom.barnes:barnes_integrand") == 1
        assert tracer.calls("numkernel.gamma:log_gamma") == 6  # 2n + 2
        assert tracer.calls("flopgeom:FlopConfig.complex_weights") == 1

        x = numkernel.MultiPoly.variable(2, 0)
        x * x
        assert tracer.calls("numkernel.multipoly:MultiPoly.__mul__") == 1
    finally:
        tracer.uninstall()
    assert (numkernel.log_gamma, hypergeom.log_gamma, wallcross.gamma,
            numkernel.MultiPoly.__mul__, cli.collect_cases) == originals


# ----------------------------------------------------------------------
# speed reference
# ----------------------------------------------------------------------

def test_speedref_removes_ticks_and_scales_to_the_nominal_speed():
    ref = speedref.SpeedRef()
    # ticks at 1.0 and 2.0 s inside the interval, one at 9.0 s far outside it
    ref.starts = [1.0, 2.0, 9.0]
    ref.units = [2 * speedref.NOMINAL_S, 2 * speedref.NOMINAL_S, 100.0]
    assert ref.handler_s(0.5, 3.0) == 4 * speedref.NOMINAL_S
    assert ref.raw(0.5, 3.0) == pytest.approx(2.5 - 4 * speedref.NOMINAL_S)
    # the machine ran the unit at half the nominal speed: the time is halved
    assert ref.normalized(0.5, 3.0) == pytest.approx(ref.raw(0.5, 3.0) / 2)
    with pytest.raises(RuntimeError):
        ref.unit_s(20.0, 21.0)


def test_speedref_ticks_while_started_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    ref = speedref.SpeedRef()
    ref.start()
    try:
        end = time.perf_counter() + 4 * speedref.INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        ref.stop()
    assert len(ref.units) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == before


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------

def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wall-scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "wall-scan", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
