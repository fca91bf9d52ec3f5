"""Per-layer tracing of flopwall, installed from outside the package.

``install`` wraps the public functions of each layer module and a few
methods of its value classes.  A function imported by name into another
module (``from .numkernel import log_gamma`` in ``hypergeom``, ``wallcross``
...) is a separate binding, so every flopwall module namespace that holds
the original object gets the wrapper, not just the defining module.
Nothing is patched unless ``install`` is called, so the untraced path runs
the package exactly as shipped.

Each wrapped call is a span: it pushes a frame on a stack, and on exit its
duration is added to the parent frame's child time.  A span's self time is
its duration minus the time covered by its child spans, so the self times
of all spans add up to the duration of the outermost ones.  Spans are kept
in memory as ``(id, parent_id, name, start, end)`` tuples and written out
once at the end.  Functions that run once per Gamma evaluation or per
quadrature node (``AGGREGATED``) take part in the self-time arithmetic but
only add to a per-function count and time; recording each of them would
cost millions of tuples per run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time

# Layer of every wrapped name, by defining module.  Public functions not
# listed here go to the module's own layer; a listed name that no longer
# exists is skipped, so a refactor that removes it leaves the trace working.
SUBLAYERS = {
    "numkernel": {
        "log_gamma": "numkernel.gamma",
        "gamma": "numkernel.gamma",
        "recip_gamma": "numkernel.gamma",
    },
    "hypergeom": {
        "barnes_integrate": "hypergeom.barnes",
        "barnes_integrand": "hypergeom.barnes",
        "verify_continuation_r1": "hypergeom.continuation",
        "central_charge": "hypergeom.continuation",
        "central_charge_plus_continued": "hypergeom.continuation",
        "i_restriction_continued": "hypergeom.continuation",
        "PathSpec.standard": "hypergeom.continuation",
    },
    "wallcross": {
        "coeff_C": "wallcross.coeff",
        "coeff_CK": "wallcross.coeff",
        "coeff_CH": "wallcross.coeff",
        "transition_matrix": "wallcross.coeff",
        "uh_apply": "wallcross.coeff",
        "uh_matrix_numeric": "wallcross.coeff",
        "basis_class": "wallcross.coeff",
        "antisym_lhs_poly": "wallcross.antisym",
        "antisym_rhs_poly": "wallcross.antisym",
        "antisym_identity_check": "wallcross.antisym",
    },
}

# Default layer of a module's remaining public functions.
MODULE_LAYER = {
    "numkernel": "numkernel.multipoly",
    "flopgeom": "flopgeom",
    "ktheory": "ktheory",
    "wallcross": "wallcross.psi",
    "hypergeom": "hypergeom.series",
    "suites": "suites",
    "cli": "cli",
}

# Scalar helpers called from inside every Gamma evaluation; their time stays
# with the caller instead of doubling the wrapper cost per kernel call.
UNWRAPPED = {"is_nonpositive_integer", "sin_over_2i"}

# Methods wrapped on their class, by defining module.
METHODS = {
    "numkernel": {
        "MultiPoly": ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                      "__rmul__", "__pow__", "mul_truncated", "evaluate", "graded_part",
                      "truncate"),
    },
    "flopgeom": {"FlopConfig": ("complex_weights", "flipped")},
    "hypergeom": {
        "OffsetSeries": ("eval",),
        "MultiOffsetSeries": ("eval", "specialize"),
        "PathSpec": ("standard",),
    },
    "wallcross": {"PsiContext": ("create", "rotated")},
}

AGGREGATED = {
    "numkernel.gamma",
    "numkernel.multipoly",
    "hypergeom.barnes:barnes_integrand",
    "flopgeom:FlopConfig.complex_weights",
    "flopgeom:weight_complex",
    "flopgeom:weight_value",
}


class Tracer:
    """Span stack, per-function counters and the recorded spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list = []  # open frames: [child seconds, id of nearest recorded span]
        self.stats: dict = {}  # "layer:function" -> [calls, self seconds]
        self.spans: list = []
        self._ids = itertools.count()
        self._restore: list = []

    def wrap(self, fn, key: str, record: bool):
        """Return ``fn`` wrapped in a span named ``key`` ("layer:function")."""
        stat = self.stats.setdefault(key, [0, 0.0])
        stack, spans, clock, ids = self.stack, self.spans, self.clock, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            sid = next(ids) if record else parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if record:
                    spans.append((sid, parent, key, t0, t1))

        traced.__wrapped_key__ = key
        return traced

    def _key(self, module: str, name: str) -> str:
        layer = SUBLAYERS.get(module, {}).get(name, MODULE_LAYER[module])
        return f"{layer}:{name}"

    def _make(self, fn, key: str):
        layer = key.split(":", 1)[0]
        return self.wrap(fn, key, record=key not in AGGREGATED and layer not in AGGREGATED)

    def install(self, package: str = "flopwall") -> None:
        """Wrap every layer of ``package`` as currently loaded in sys.modules."""
        modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in sys.modules.items()
            if (name == package or name.startswith(package + ".")) and mod is not None
        }
        missing = sorted(set(MODULE_LAYER) - set(modules))
        if missing:
            raise RuntimeError(f"layer modules not loaded: {missing}")

        wrappers: dict = {}  # id(original) -> (original, wrapper)
        for short in MODULE_LAYER:
            mod = modules[short]
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in UNWRAPPED):
                    fn = self._tracing_thunks(obj) if name == "collect_cases" else obj
                    wrappers[id(obj)] = (obj, self._make(fn, self._key(short, name)))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name, None)
                if cls is None:
                    continue
                for meth in methods:
                    raw = cls.__dict__.get(meth)
                    if raw is None:
                        continue
                    key = self._key(short, f"{cls_name}.{meth}")
                    if isinstance(raw, classmethod):
                        new = classmethod(self._make(raw.__func__, key))
                    else:
                        new = self._make(raw, key)
                    setattr(cls, meth, new)
                    self._restore.append((cls, meth, raw))

        # rebind the wrapper under every name that holds the original
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._restore.append((mod, name, obj))

    def _tracing_thunks(self, collect):
        """collect_cases whose case thunks run as spans of the suites layer."""

        @functools.wraps(collect)
        def collect_traced(*args, **kwargs):
            specs = collect(*args, **kwargs)
            for spec in specs:
                spec.thunk = self.wrap(spec.thunk, f"suites:case.{spec.name}", record=True)
            return specs

        return collect_traced

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    # -- results --------------------------------------------------------
    def layer_totals(self) -> dict:
        """layer -> {"calls": n, "self_s": seconds}, summed over its functions."""
        out: dict = {}
        for key, (calls, self_s) in self.stats.items():
            layer = key.split(":", 1)[0]
            tot = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            tot["calls"] += calls
            tot["self_s"] += self_s
        return out

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0, 0.0))[0]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0))[1]

    def write(self, path) -> None:
        """Spans as JSON lines, then one line per function with its totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, key, t0, t1 in self.spans:
                fh.write(f'{{"id":{sid},"parent":{parent},"name":{json.dumps(key)},'
                         f'"start":{t0!r},"end":{t1!r}}}\n')
            for key, (calls, self_s) in sorted(self.stats.items()):
                fh.write(json.dumps({"function": key, "calls": calls, "self_s": self_s}) + "\n")
