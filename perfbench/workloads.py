"""The benchmark's workloads and the checkers that judge every operation.

A workload builds its state once (``setup``) and then yields operations
pass by pass (``pass_ops``).  An operation is a zero-argument callable that
does one unit of user work through flopwall's public API and returns the
list of problems its checker found; an empty list means the result is
correct.  The checkers are plain functions of the computed values, so the
benchmark's tests can feed them a deliberately wrong value.

flopwall is imported inside ``setup`` and never at module level: the
harness re-imports the package while timing set-up, and the operations
must use the modules that import produced.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass

# Tolerances the checks are judged against.  They are the engine's own
# pinned tolerances (suites.DEFAULT_TOLS) copied here, so that a change to
# the engine cannot loosen the benchmark's checks.
CONTINUATION_TOL = 1e-8  # Barnes value against the series reference
FM_FORMULA_TOL = 1e-12  # fm_transform against the closed formula's Chern values
FM_DIAGRAM_TOL = 1e-10  # transfer matrix / uh_apply against the FM Chern values
ODE_TOL = 1e-10  # recurrence residual of the order-40 series

VERIFY_SEED_STRIDE = 1_000_003

SCAN_TOL = 1e-10  # absolute accuracy asked of barnes_integrate, as in scripts/wall_scan.py
SCAN_ORDER = 80  # order of the reference series, as in scripts/wall_scan.py
SCAN_STRIP_MARGIN = 0.05  # distance from the strip edge, as in scripts/wall_scan.py
# Instances per n in {2, 3}.  The cost of a Barnes integral depends on the
# weights, so several instances per run keep one seed's draw from setting the
# figure; instance j uses the RunConfig seed  seed + SCAN_SEED_STRIDE * j.
SCAN_INSTANCES = 8
SCAN_SEED_STRIDE = 100_003
SWEEP_ODE_ORDER = 40
SWEEP_GRID = tuple((n, r) for n in range(2, 6) for r in range(1, n))


def run_config(cli, seed: int, **extra):
    """The seeded run config: RunConfig with weights {"seed": seed}."""
    return cli.RunConfig.from_json_dict({"seed": seed, "weights": {"seed": seed}, **extra})


def regular_run_config(cli, wallcross, seed: int):
    """The first seeded RunConfig whose Gamma class is finite at every z_eval.

    A draw with a tangent weight w such that 1 + w/z or 1 - w/z is a pole of
    Gamma at an evaluation point z lies outside the domain of the
    integral-structure checks: the engine raises PoleError and reports those
    cases as errors (seeds 210, 1891 and 2667 of the first 3000 do this).
    PsiContext.create is the engine's own test for it, at z and at the
    rotated -z.  Draw k uses the RunConfig seed  seed + VERIFY_SEED_STRIDE * k.
    Returns the config and the number of draws skipped.
    """
    from flopwall.numkernel import PoleError

    for skipped in itertools.count():
        rc = run_config(cli, seed + VERIFY_SEED_STRIDE * skipped)
        cfg = rc.flop_config()
        try:
            for z in rc.z_eval:
                for side in ("plus", "minus"):
                    wallcross.PsiContext.create(cfg, side, z=z)
                    wallcross.PsiContext.create(cfg, side, z=-z)
        except PoleError:
            continue
        return rc, skipped


# ----------------------------------------------------------------------
# Checkers
# ----------------------------------------------------------------------

def check_report(payload: str, reference: str | None) -> list:
    """Every case of a verify report passed, and the report is reproducible.

    ``reference`` is the JSON of an earlier pass with the same seed; the
    payloads carry no timings, so they must agree byte for byte.
    """
    problems = []
    cases = json.loads(payload)["cases"]
    if not cases:
        problems.append("report has no cases")
    for case in cases:
        if case["status"] != "pass":
            problems.append(f"{case['suite']}/{case['case']}: status {case['status']}")
    if reference is not None and payload != reference:
        problems.append("report JSON differs from the first pass with the same seed")
    return problems


def check_scan(value: complex, reference: complex | None, tol: float = CONTINUATION_TOL) -> list:
    """A Barnes value is finite and within ``tol`` (relative) of its series reference."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return [f"non-finite Barnes value {value!r}"]
    if reference is None:
        return []
    rel = abs(value - reference) / abs(reference)
    if not rel <= tol:
        return [f"relative error {rel:.3e} against the series reference exceeds {tol:g}"]
    return []


def check_fm_exact(closed, exact) -> list:
    """The closed FM formula equals the localized transform, restriction by restriction."""
    return [
        f"FM restriction at {dp} differs from the exact transform"
        for dp, chi in closed.restrictions.items()
        if exact.restrictions[dp] != chi
    ]


def check_close(what: str, got: dict, want: dict, tol: float, floor: float = 0.0) -> list:
    """Entrywise |got - want| / max(floor, |want|) <= tol over the keys of ``want``."""
    problems = []
    for key, w in want.items():
        rel = abs(got[key] - w) / max(floor, abs(w))
        if not rel <= tol:
            problems.append(f"{what} at {key}: relative error {rel:.3e} exceeds {tol:g}")
    return problems


def check_residual(what: str, residual: float, tol: float) -> list:
    return [] if residual <= tol else [f"{what}: residual {residual:.3e} exceeds {tol:g}"]


# ----------------------------------------------------------------------
# verify-all
# ----------------------------------------------------------------------

@dataclass
class VerifyState:
    cli: object
    rc: object
    skipped_draws: int
    reference: str | None = None


class VerifyAll:
    """``cli.run_suite(rc, "all")`` on the seeded RunConfig, emitted as JSON."""

    name = "verify-all"
    min_ops = 2  # the reproducibility check needs a second pass
    calibration_ops = 1

    def setup(self, seed: int) -> VerifyState:
        from flopwall import cli, wallcross

        rc, skipped = regular_run_config(cli, wallcross, seed)
        return VerifyState(cli=cli, rc=rc, skipped_draws=skipped)

    @staticmethod
    def record(state: VerifyState) -> dict:
        return {"run_config_seed": state.rc.seed, "skipped_draws": state.skipped_draws}

    def pass_ops(self, state: VerifyState, index: int) -> list:
        return [lambda: self.op(state)]

    @staticmethod
    def op(state: VerifyState) -> list:
        report = state.cli.run_suite(state.rc, "all")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            state.cli.emit(report, fmt="json")
        payload = out.getvalue()
        problems = check_report(payload, state.reference)
        if state.reference is None:
            state.reference = payload
        return problems


# ----------------------------------------------------------------------
# wall-scan
# ----------------------------------------------------------------------

@dataclass
class ScanInstance:
    config: object
    plus: list  # plus series per fixed point
    minus: list  # minus series per fixed point
    transfer: list  # transfer[l][k] = coeff_C(config, (k,), (l,))

    def reference(self, w: complex, l: int) -> complex | None:
        """The convergent series at w: plus before the wall, transferred minus past it."""
        if w.real < -0.5:
            return self.plus[l].eval(w)
        if w.real > 0.5:
            return sum(t * m.eval(-w) for t, m in zip(self.transfer[l], self.minus))
        return None  # no series converges fast enough near Re w = 0


@dataclass
class ScanState:
    hypergeom: object
    points: list  # (instance, w, l)
    seed: int


class WallScan:
    """One ``barnes_integrate`` per point of the standard path, r = 1, n in {2, 3}.

    A pass visits every point of every instance once, in a seeded shuffled
    order; about 150 points per instance lie inside the convergence strip.
    """

    name = "wall-scan"
    min_ops = 100  # p90 then has at least ten samples beyond it
    calibration_ops = 30

    def setup(self, seed: int) -> ScanState:
        from flopwall import cli, hypergeom, wallcross

        points = []
        for n in (2, 3):
            for j in range(SCAN_INSTANCES):
                cfg = run_config(cli, seed + SCAN_SEED_STRIDE * j, n=n, r=1).flop_config()
                inst = ScanInstance(
                    config=cfg,
                    plus=[hypergeom.h_series(cfg, "plus", (l,), SCAN_ORDER) for l in range(n)],
                    minus=[hypergeom.h_series(cfg, "minus", (k,), SCAN_ORDER) for k in range(n)],
                    transfer=[[wallcross.coeff_C(cfg, (k,), (l,)) for k in range(n)]
                              for l in range(n)],
                )
                for w in hypergeom.PathSpec.standard(cfg).points:
                    margin = min(w.imag - (n - 2) * math.pi, n * math.pi - w.imag)
                    if margin < SCAN_STRIP_MARGIN:
                        continue  # outside the contour's convergence strip
                    points.extend((inst, w, l) for l in range(n))
        return ScanState(hypergeom=hypergeom, points=points, seed=seed)

    def pass_ops(self, state: ScanState, index: int) -> list:
        # a shuffled pass, so a run that stops mid-pass still samples every instance
        order = list(state.points)
        random.Random(f"{state.seed}:scan:{index}").shuffle(order)
        return [lambda p=p: self.op(state, *p) for p in order]

    @staticmethod
    def record(state: ScanState) -> dict:
        return {"points_per_pass": len(state.points),
                "points_with_reference": sum(abs(w.real) > 0.5 for _, w, _ in state.points)}

    @staticmethod
    def op(state: ScanState, inst: ScanInstance, w: complex, l: int) -> list:
        value = state.hypergeom.barnes_integrate(w, inst.config, l, tol=SCAN_TOL)
        return check_scan(value, inst.reference(w, l))


# ----------------------------------------------------------------------
# instance-sweep
# ----------------------------------------------------------------------

@dataclass
class SweepState:
    fg: object  # flopwall.flopgeom
    hg: object  # flopwall.hypergeom
    kt: object  # flopwall.ktheory
    wc: object  # flopwall.wallcross
    seed: int


class InstanceSweep:
    """A fresh seeded instance per operation over every (n, r) with r < n <= 5.

    Runnable with ``--workload instance-sweep`` but not listed in
    BENCHMARK.json; perfbench/README.md says why.
    """

    name = "instance-sweep"
    min_ops = len(SWEEP_GRID)  # every (n, r) at least once
    calibration_ops = len(SWEEP_GRID)

    def setup(self, seed: int) -> SweepState:
        from flopwall import flopgeom, hypergeom, ktheory, wallcross

        return SweepState(fg=flopgeom, hg=hypergeom, kt=ktheory, wc=wallcross, seed=seed)

    @staticmethod
    def record(state: SweepState) -> dict:
        return {}

    def pass_ops(self, state: SweepState, index: int) -> list:
        grid = list(SWEEP_GRID)
        random.Random(f"{state.seed}:sweep:{index}").shuffle(grid)
        return [lambda n=n, r=r: self.op(state, n, r, f"{state.seed}:{index}:{n}:{r}")
                for n, r in grid]

    @staticmethod
    def op(state: SweepState, n: int, r: int, instance_seed: str) -> list:
        fg, hg, kt, wc = state.fg, state.hg, state.kt, state.wc
        cfg = fg.random_config(n, r, seed=instance_seed)
        problems = []
        for side in ("plus", "minus"):
            if not fg.check_relations(cfg, side).ok:
                problems.append(f"check_relations failed on the {side} side")
        problems += check_tangent_weights(fg, cfg)

        deltas = fg.fixed_point_deltas(cfg)
        matrix = wc.transition_matrix(cfg, kind="C")
        for dm in deltas:
            e = kt.generator_e(cfg, dm)
            closed = kt.fm_generator_formula(cfg, dm)
            problems += check_fm_exact(closed, kt.fm_transform_generator_exact(cfg, dm))
            ch_fm = kt.chern_character(cfg, closed)
            problems += check_close("fm_transform", kt.fm_transform(cfg, e), ch_fm,
                                    FM_FORMULA_TOL, floor=1.0)
            ch_e = kt.chern_character(cfg, e)
            image = wc.uh_apply(cfg, wc.LocalizedCohClass("minus", ch_e))
            problems += check_close("uh_apply", image.values, ch_fm, FM_DIAGRAM_TOL)
            via_matrix = {
                dp: sum(matrix.entries[i][j] * ch_e[row] for i, row in enumerate(matrix.rows))
                for j, dp in enumerate(matrix.cols)
            }
            problems += check_close("transition_matrix", via_matrix, ch_fm, FM_DIAGRAM_TOL)

        if r == 1:
            for side in ("plus", "minus"):
                for l in range(n):
                    series = hg.h_series(cfg, side, (l,), SWEEP_ODE_ORDER)
                    problems += check_residual(f"ode {side} ({l},)",
                                               hg.ode_check(cfg, series, side), ODE_TOL)
        else:
            for dp in deltas:
                for k in range(r):
                    series = hg.f_factor_series(cfg, dp, k, SWEEP_ODE_ORDER)
                    problems += check_residual(f"ode factor {dp}[{k}]",
                                               hg.ode_check(cfg, series, "plus"), ODE_TOL)
        return problems


def check_tangent_weights(fg, cfg) -> list:
    """2rn - r^2 nonzero weights per fixed point; the flop involution swaps the sides."""
    problems = []
    flipped = cfg.flipped()
    minus_all, plus_flipped_all = [], []
    for delta in fg.fixed_point_deltas(cfg):
        for side in ("plus", "minus"):
            tw = fg.tangent_weights(cfg, fg.FixedPointLabel(side, delta))
            if len(tw) != cfg.dim or any(w == 0 for w in tw):
                problems.append(f"bad tangent weights at {side} {delta}")
            if side == "minus":
                minus_all.extend(tw)
        plus_flipped_all.extend(fg.tangent_weights(flipped, fg.FixedPointLabel("plus", delta)))
    if sorted(minus_all) != sorted(plus_flipped_all):
        problems.append("flop involution does not exchange the tangent weights")
    return problems


WORKLOADS = {wl.name: wl for wl in (VerifyAll(), WallScan(), InstanceSweep())}
