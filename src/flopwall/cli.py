"""Batch verification CLI: config ingestion, suite orchestration, reporting.

Exit codes: 0 every executed check passed, 1 at least one check failed,
2 configuration or I/O error (argparse usage errors also exit 2).

Reports are reproducible byte for byte for a fixed (seed, config, version):
JSON is emitted with sorted keys and fixed 17-significant-digit float
formatting, and per-case timings are left out unless explicitly requested.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .flopgeom import ConfigError, FlopConfig, enumerate_fixed_points, random_config
from .hypergeom import (
    MIN_BARNES_TOL,
    NonConvergenceError,
    barnes_integrate,
    central_charge,
    h_series,
)
from .numkernel import PoleError
from .ktheory import fm_generator_formula, fm_transform, generator_e, unit_class
from .suites import DEFAULT_TOLS, SuiteEnv, collect_cases, default_config
from .wallcross import PsiContext, transition_matrix

SUITE_CHOICES = (
    "identities",
    "geometry",
    "ktheory",
    "wallcross",
    "continuation",
    "central-charge",
    "all",
)


# ----------------------------------------------------------------------
# Run configuration
# ----------------------------------------------------------------------

_CONFIG_KEYS = ("n", "r", "seed", "order", "weights", "z_eval", "tol")
_WEIGHTS_KEYS = ("x", "z", "seed", "scale")


def _reject_unknown(what: str, data: dict, known) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} {sorted(unknown)}")


def _finite_complex(re_part, im_part) -> complex:
    value = complex(re_part, im_part)
    if not cmath.isfinite(value):
        raise ConfigError(f"non-finite complex value {value!r}")
    return value


def _check_order(order: int) -> None:
    if order < 0:
        raise ConfigError(f"series order must be non-negative, got {order}")


@dataclass
class RunConfig:
    """Instance data plus suite knobs, JSON-loadable.

    Weights are given either explicitly (decimal or "p/q" strings) or as
    {"seed", "scale"} for random rational generation, never both; the seed
    is recorded in every report.
    """

    n: int = 2
    r: int = 1
    x: tuple | None = None
    z: tuple | None = None
    seed: int = 0
    weight_scale: Fraction = Fraction(1, 10)
    random_weights: bool = False
    z_eval: tuple = (2.0 + 0j, 3.0 + 1j)
    order: int = 80
    tols: dict = field(default_factory=dict)

    def flop_config(self) -> FlopConfig:
        if self.random_weights:
            return random_config(self.n, self.r, seed=self.seed, scale=self.weight_scale)
        if self.x is not None and self.z is not None:
            return FlopConfig(self.n, self.r, self.x, self.z)
        return default_config(self.n, self.r)

    def suite_env(self) -> SuiteEnv:
        return SuiteEnv(
            seed=self.seed,
            order=self.order,
            z_values=tuple(self.z_eval),
            tols=dict(self.tols),
            base_config=self.flop_config(),
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        """Parse a run config; an unknown key at any level is a ConfigError."""
        try:
            if not isinstance(data, dict):
                raise ConfigError("a run configuration is a JSON object")
            _reject_unknown("keys", data, _CONFIG_KEYS)
            kwargs: dict = {}
            for key in ("n", "r", "seed", "order"):
                if key in data:
                    kwargs[key] = int(data[key])
            _check_order(kwargs.get("order", 0))
            weights = data.get("weights", {})
            _reject_unknown("weights keys", weights, _WEIGHTS_KEYS)
            if "x" in weights or "z" in weights:
                beside = sorted({"seed", "scale"} & set(weights))
                if beside:
                    raise ConfigError(f"weights {beside} cannot be given beside explicit x/z")
                kwargs["x"] = tuple(Fraction(str(v)) for v in weights["x"])
                kwargs["z"] = tuple(Fraction(str(v)) for v in weights["z"])
            elif weights:
                kwargs["random_weights"] = True
                if "seed" in weights:
                    kwargs["seed"] = int(weights["seed"])
                if "scale" in weights:
                    kwargs["weight_scale"] = Fraction(str(weights["scale"]))
            if "z_eval" in data:
                vals = data["z_eval"]
                if vals and isinstance(vals[0], (int, float)):
                    vals = [vals]
                kwargs["z_eval"] = tuple(_finite_complex(a, b) for a, b in vals)
            if "tol" in data:
                _reject_unknown("tolerance keys", data["tol"], DEFAULT_TOLS)
                kwargs["tols"] = {k: float(v) for k, v in data["tol"].items()}
            return cls(**kwargs)
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad run configuration: {exc}") from exc

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def echo(self) -> dict:
        cfg = self.flop_config()
        return {
            "n": cfg.n,
            "r": cfg.r,
            "x": [str(v) for v in cfg.x],
            "z": [str(v) for v in cfg.z],
            "z_eval": [[zz.real, zz.imag] for zz in self.z_eval],
            "order": self.order,
            "tol": {k: self.tols.get(k, DEFAULT_TOLS[k]) for k in sorted(DEFAULT_TOLS)},
        }


@dataclass
class Report:
    version: str
    seed: int
    config: dict
    cases: list  # dicts with suite/case/params/status/max_rel_err/runtime_ms

    @property
    def exit_status(self) -> int:
        return 0 if all(c["status"] == "pass" for c in self.cases) else 1

    def to_json_dict(self, include_timings: bool = False) -> dict:
        cases = []
        for c in self.cases:
            c = dict(c)
            if not include_timings:
                c["runtime_ms"] = None
            cases.append(c)
        return {
            "version": self.version,
            "seed": self.seed,
            "config": self.config,
            "cases": cases,
        }


def run_suite(run_config: RunConfig, suite: str) -> Report:
    """Execute one suite (or "all"), its cases in declaration order."""
    env = run_config.suite_env()
    specs = collect_cases(env, suite)

    def execute(spec):
        start = time.perf_counter()
        try:
            status, err = spec.thunk()
        except Exception as exc:  # checks report failures, they do not raise
            status, err = "error", None
            spec.params = dict(spec.params, error=f"{type(exc).__name__}: {exc}")
        elapsed = (time.perf_counter() - start) * 1000.0
        return {
            "suite": spec.suite,
            "case": spec.name,
            "params": spec.params,
            "status": status,
            "max_rel_err": err if err is None else float(err),
            "runtime_ms": elapsed,
        }

    cases = [execute(spec) for spec in specs]
    return Report(version=__version__, seed=run_config.seed, config=run_config.echo(), cases=cases)


# ----------------------------------------------------------------------
# Stable serialization
# ----------------------------------------------------------------------

def _stable_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return "null"
        return format(obj, ".17g")
    if isinstance(obj, complex):
        return _stable_json([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_stable_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{json.dumps(str(k))}:{_stable_json(v)}" for k, v in items) + "}"
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit(report: Report, fmt: str = "json", destination=None, include_timings: bool = False) -> None:
    """Serialize a report as json, csv, or text; destination path or stdout."""
    if fmt == "json":
        payload = _stable_json(report.to_json_dict(include_timings)) + "\n"
    elif fmt == "csv":
        lines = ["suite,case,params,status,max_rel_err,runtime_ms"]
        for c in report.cases:
            err = "" if c["max_rel_err"] is None else format(c["max_rel_err"], ".17g")
            ms = format(c["runtime_ms"], ".3f") if include_timings else ""
            params = _stable_json(c["params"]).replace('"', '""')
            lines.append(f'{c["suite"]},{c["case"]},"{params}",{c["status"]},{err},{ms}')
        payload = "\n".join(lines) + "\n"
    elif fmt == "text":
        by_suite: dict = {}
        for c in report.cases:
            by_suite.setdefault(c["suite"], []).append(c)
        lines = []
        for suite, cases in by_suite.items():
            for c in cases:
                err = "" if c["max_rel_err"] is None else f"  max_rel_err={c['max_rel_err']:.3e}"
                lines.append(f"[{c['status'].upper():>5}] {suite}/{c['case']}{err}")
            passed = sum(1 for c in cases if c["status"] == "pass")
            lines.append(f"suite {suite}: {passed}/{len(cases)} passed")
        payload = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if destination in (None, "-"):
        sys.stdout.write(payload)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(payload)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _load_run_config(args) -> RunConfig:
    return RunConfig.from_file(args.config) if args.config else RunConfig()


def _parse_delta(text: str, n: int) -> tuple:
    try:
        indices = tuple(sorted(int(t) for t in text.split(",")))
    except ValueError as exc:
        raise ConfigError(f"bad --delta {text!r}") from exc
    if any(not 1 <= i <= n for i in indices) or len(set(indices)) != len(indices):
        raise ConfigError(f"--delta must be distinct indices in 1..{n}")
    return tuple(i - 1 for i in indices)


def _parse_complex(text: str) -> complex:
    try:
        re_part, im_part = (float(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad complex value {text!r}, expected RE,IM") from exc
    return _finite_complex(re_part, im_part)


def _char_json(chi) -> list:
    return [[c] + list(vec) for vec, c in sorted(chi.terms.items())]


def cmd_verify(args) -> int:
    rc = _load_run_config(args)
    report = run_suite(rc, args.suite)
    emit(report, fmt=args.format, destination=args.out, include_timings=args.timings)
    return report.exit_status


def cmd_fixed_points(args) -> int:
    rc = _load_run_config(args)
    cfg = rc.flop_config()
    sides = ("plus", "minus") if args.side == "both" else (args.side,)
    out = {}
    for side in sides:
        out[side] = [[i + 1 for i in lab.delta] for lab in enumerate_fixed_points(cfg, side)]
    sys.stdout.write(_stable_json(out) + "\n")
    return 0


def cmd_fm(args) -> int:
    rc = _load_run_config(args)
    cfg = rc.flop_config()
    dm = _parse_delta(args.delta, cfg.n)
    if len(dm) != cfg.r:
        raise ConfigError(f"--delta needs exactly r={cfg.r} indices")
    closed = fm_generator_formula(cfg, dm)
    numeric = fm_transform(cfg, generator_e(cfg, dm))
    out = {
        "delta_minus": [i + 1 for i in dm],
        "restrictions": {
            "+".join(str(i + 1) for i in dp): {
                "character": _char_json(chi),
                "value": numeric[dp],
            }
            for dp, chi in closed.restrictions.items()
        },
    }
    sys.stdout.write(_stable_json(out) + "\n")
    return 0


def cmd_uh_matrix(args) -> int:
    rc = _load_run_config(args)
    cfg = rc.flop_config()
    mat = transition_matrix(cfg, kind=args.kind)
    payload = _stable_json(mat.to_json_dict()) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_series(args) -> int:
    rc = _load_run_config(args)
    cfg = rc.flop_config()
    delta = _parse_delta(args.delta, cfg.n)
    if len(delta) != cfg.r:
        raise ConfigError(f"--delta needs exactly r={cfg.r} indices")
    _check_order(args.order)
    series = h_series(cfg, args.side, delta, args.order)
    if hasattr(series, "specialize"):
        series = series.specialize()
    sys.stdout.write(_stable_json(series.to_json_dict()) + "\n")
    return 0


def cmd_barnes(args) -> int:
    rc = _load_run_config(args)
    cfg = rc.flop_config()
    if cfg.r != 1:
        raise ConfigError("barnes evaluation needs r = 1")
    if not MIN_BARNES_TOL <= args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and at least {MIN_BARNES_TOL}, got {args.tol}")
    w = _parse_complex(args.w)
    delta = _parse_delta(args.delta, cfg.n) if args.delta else (0,)
    value = barnes_integrate(w, cfg, delta[0], tol=args.tol)
    sys.stdout.write(_stable_json({"w": w, "delta": [delta[0] + 1], "value": value}) + "\n")
    return 0


def cmd_charge(args) -> int:
    rc = _load_run_config(args)
    cfg = rc.flop_config()
    w = _parse_complex(args.w)
    z = _parse_complex(args.z)
    ctx = PsiContext.create(cfg, args.side, z=z)
    spec = args.klass
    if spec == "1":
        E = unit_class(cfg, args.side)
    elif spec.startswith("e:"):
        dm = _parse_delta(spec[2:], cfg.n)
        if args.side == "minus":
            E = generator_e(cfg, dm)
        else:
            E = fm_generator_formula(cfg, dm)
    else:
        raise ConfigError(f"bad --class {spec!r}; use '1' or 'e:i,j,...'")
    value = central_charge(cfg, args.side, E, w, ctx, order=rc.order)
    sys.stdout.write(
        _stable_json({"class": spec, "side": args.side, "w": w, "z": z, "value": value}) + "\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flopwall",
        description="verification engine for torus-equivariant Grassmann-flop wall crossing",
    )
    parser.add_argument("--version", action="version", version=f"flopwall {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITE_CHOICES, default="all")
    p.add_argument("--config", help="run-config JSON file")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--timings", action="store_true", help="include per-case runtimes")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fixed-points", help="list torus-fixed points")
    p.add_argument("--config")
    p.add_argument("--side", choices=("plus", "minus", "both"), default="both")
    p.set_defaults(fn=cmd_fixed_points)

    p = sub.add_parser("fm", help="Fourier-Mukai transform of a generator class")
    p.add_argument("--delta", required=True, help="comma-separated 1-based indices")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_fm)

    p = sub.add_parser("uh-matrix", help="transfer coefficient matrix")
    p.add_argument("--config")
    p.add_argument("--kind", choices=("C", "CK", "CH"), default="C")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_uh_matrix)

    p = sub.add_parser("series", help="fixed-point hypergeometric series")
    p.add_argument("--side", choices=("plus", "minus"), required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("barnes", help="Mellin-Barnes continuation value")
    p.add_argument("--w", required=True, help="log q as RE,IM")
    p.add_argument("--delta", help="plus fixed point (default 1)")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_barnes)

    p = sub.add_parser("charge", help="quasimap central charge")
    p.add_argument("--class", dest="klass", required=True, help="'1' or 'e:i,j,...'")
    p.add_argument("--w", required=True, help="log q as RE,IM")
    p.add_argument("--z", default="2,0", help="z as RE,IM")
    p.add_argument("--side", choices=("plus", "minus"), default="minus")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_charge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, PoleError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
