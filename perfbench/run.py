#!/usr/bin/env python3
"""Benchmark of the flopwall verification engine.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 50 --trace 0

Run from the root of a flopwall checkout; the package is imported from its
``src`` directory, never from an installed copy.  One process, one thread,
closed loop: each operation starts when the previous one has returned, and
every operation's result is checked (see workloads.py).

``--trace 0`` measures the end-to-end metrics with the package untouched.
Their times are normalized to a nominal machine speed by a reference unit
timed throughout the run (speedref.py); the raw wall-clock figures are in
the record line.
``--trace 1`` times a calibration slice untraced, installs the per-layer
wrappers (tracing.py), and reports per-layer counts and self times per
operation; the spans go to ``.bench_build/perfbench/``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
record of the machine, the run and the figures under the names perfbench/
README.md uses.
"""

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

import speedref
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPS = 9

# Layers reported by the traced run, each as <layer>.calls and <layer>.self_s.
LAYERS = (
    "numkernel.gamma",
    "numkernel.multipoly",
    "flopgeom",
    "ktheory",
    "wallcross.coeff",
    "wallcross.antisym",
    "wallcross.psi",
    "hypergeom.series",
    "hypergeom.barnes",
    "hypergeom.continuation",
    "suites",
    "cli",
    "harness",
)
MUL_KEYS = ("MultiPoly.__mul__", "MultiPoly.__rmul__", "MultiPoly.mul_truncated")


def load_flopwall() -> None:
    """(Re-)import flopwall from the checkout, dropping any loaded copy first."""
    for name in [m for m in sys.modules if m == "flopwall" or m.startswith("flopwall.")]:
        del sys.modules[name]
    cli = importlib.import_module("flopwall.cli")
    if Path(cli.__file__).resolve().parent != SRC / "flopwall":
        raise RuntimeError(f"flopwall imported from {cli.__file__}, not from {SRC}")


def measure_setup(workload, seed: int):
    """SETUP_REPS times: import flopwall, then build the workload state.

    numpy and scipy are imported once beforehand, and one untimed import
    writes the bytecode caches of a fresh checkout, so each interval is the
    package's own import plus the workload's construction work.  Returns
    the (start, end) clock readings of the repetitions and the last state.
    """
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401

    load_flopwall()
    intervals = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        load_flopwall()
        state = workload.setup(seed)
        intervals.append((t0, time.perf_counter()))
    return intervals, state


class Loop:
    """Closed-loop runner: pass after pass until the time is up."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.samples: list = []  # seconds per operation
        self.intervals: list = []  # (start, end) clock readings per operation
        self.failures: list = []  # problem lists of the failed operations
        self.elapsed = 0.0

    def run_op(self, op) -> None:
        t0 = time.perf_counter()
        try:
            problems = op()
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.intervals.append((t0, t1))
        if problems:
            self.failures.append(problems)

    def operations(self):
        """The workload's operations, pass after pass, without end."""
        for index in itertools.count():
            yield from self.workload.pass_ops(self.state, index)

    def run(self, seconds: float, wrap=None) -> None:
        """Run operations for ``seconds``, and at least the workload's minimum."""
        start = time.perf_counter()
        for done, op in enumerate(self.operations()):
            if done >= self.workload.min_ops and time.perf_counter() - start >= seconds:
                break
            self.run_op(wrap(op) if wrap else op)
        self.elapsed = time.perf_counter() - start


def end_to_end(loop: Loop, setup: list, measure) -> dict:
    """The end-to-end metrics, with every interval timed by ``measure(t0, t1)``.

    Throughput is operations per second of operation time; the harness's
    few microseconds between operations are left out.
    """
    ops = [measure(t0, t1) for t0, t1 in loop.intervals]
    ms = [s * 1000.0 for s in ops]
    return {
        "latency_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
        # "inclusive" keeps p90 within the samples; verify-all has only 7 or 8
        "latency_ms.p90": {"value": statistics.quantiles(ms, n=10, method="inclusive")[-1],
                           "unit": "ms"},
        "throughput": {"value": len(ops) / sum(ops), "unit": "1/s"},
        "setup_s": {"value": statistics.median(measure(t0, t1) for t0, t1 in setup),
                    "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def per_layer(tracer: tracing.Tracer, ops: int, elapsed: float, overhead: float) -> dict:
    totals = tracer.layer_totals()
    out = {}
    for layer in LAYERS:
        tot = totals.get(layer, {"calls": 0, "self_s": 0.0})
        out[f"{layer}.calls"] = {"value": tot["calls"] / ops, "unit": "calls/op"}
        out[f"{layer}.self_s"] = {"value": tot["self_s"] / ops, "unit": "s/op"}
    integrals = tracer.calls("hypergeom.barnes:barnes_integrate")
    evals = tracer.calls("hypergeom.barnes:barnes_integrand")
    out["hypergeom.barnes.calls"]["value"] = integrals / ops  # integrals, not integrand nodes
    out["hypergeom.barnes.evals_per_call"] = {
        "value": evals / integrals if integrals else 0.0, "unit": "evals/call"}
    out["numkernel.multipoly.mul_calls"] = {
        "value": sum(tracer.calls(f"numkernel.multipoly:{k}") for k in MUL_KEYS) / ops,
        "unit": "calls/op"}
    out["flopgeom.complex_weights.calls"] = {
        "value": tracer.calls("flopgeom:FlopConfig.complex_weights") / ops, "unit": "calls/op"}
    out["cli.emit_s"] = {"value": tracer.self_s("cli:emit") / ops, "unit": "s/op"}
    traced_s = sum(t["self_s"] for t in totals.values())
    out["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    out["trace.unattributed_frac"] = {"value": 1.0 - traced_s / elapsed, "unit": "ratio"}
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def named_figures(name: str, metrics: dict) -> dict:
    """The end-to-end figures under the names README.md gives them per workload."""
    p50 = metrics["latency_ms.p50"]["value"]
    rate = metrics["throughput"]["value"]
    if name == "verify-all":
        return {"verify_s": p50 / 1000.0}
    if name == "wall-scan":
        return {"scan_point_ms.p50": p50,
                "scan_point_ms.p90": metrics["latency_ms.p90"]["value"],
                "scan_points_per_s": rate}
    return {"sweep_instances_per_s": rate}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Single-threaded by design: keep numpy's BLAS from starting a thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (SRC / "flopwall" / "__init__.py").is_file():
        print(f"error: no flopwall source under {SRC}; run from a flopwall checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    ref = speedref.SpeedRef()
    if not args.trace:
        ref.start()
    try:
        setup, state = measure_setup(workload, args.seed)
        loop = Loop(workload, state)
        if not args.trace:
            loop.run(args.seconds)
    finally:
        ref.stop()
    setup_s = statistics.median(ref.raw(t0, t1) for t0, t1 in setup)

    if args.trace:
        calibration = workload.calibration_ops
        for op in itertools.islice(loop.operations(), calibration):
            loop.run_op(op)
        untraced_s = sum(loop.samples)
        tracer = tracing.Tracer()
        tracer.install()
        loop.run(args.seconds, wrap=lambda op: tracer.wrap(op, "harness:op", record=True))
        traced_ops = len(loop.samples) - calibration
        # the traced loop starts with the same operations as the calibration slice
        overhead = sum(loop.samples[calibration:2 * calibration]) / untraced_s - 1.0
        metrics = per_layer(tracer, traced_ops, loop.elapsed, overhead)
        SPAN_DIR.mkdir(parents=True, exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        extra = {"traced_ops": traced_ops, "calibration_ops": calibration,
                 "spans": len(tracer.spans), "span_file": str(span_file.relative_to(ROOT))}
    else:
        metrics = end_to_end(loop, setup, ref.normalized)
        raw = end_to_end(loop, setup, ref.raw)
        extra = named_figures(args.workload, metrics)
        extra["peak_rss_mb"] = metrics["peak_rss_mb"]["value"]
        extra["wall_clock"] = {k: v["value"] for k, v in raw.items() if v["unit"] != "MB"}
        extra["speedref"] = {"nominal_ms": speedref.NOMINAL_S * 1e3,
                             "ticks": len(ref.units),
                             "unit_ms.p50": statistics.median(ref.units) * 1e3,
                             "unit_ms.min": min(ref.units) * 1e3,
                             "unit_ms.max": max(ref.units) * 1e3}

    attempted, failed = len(loop.samples), len(loop.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": attempted,
        "fail_frac": failed / attempted,
        "setup_s": setup_s,
        "python_threads": threading.active_count(),
        **machine_record(),
        **workload.record(state),
        **extra,
        "failures": loop.failures[:5],
    }
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
