"""Verification suites.

Each check is a function of the config of its grid point (n, r), plus any
per-point arguments; ``_at`` and ``_grid`` make it one case spec (name,
params, thunk) per point.  A thunk looks the config up when it runs, runs
the check and returns (status, max_rel_err).  Each suite function returns
its case specs, and reports list the cases in declaration order.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from itertools import permutations
from typing import Callable

import numpy as np

from .flopgeom import FlopConfig, check_relations, fixed_point_deltas, random_config
from .hypergeom import (
    Q_INSIDE,
    Q_OUTSIDE,
    NonConvergenceError,
    barnes_integrate,
    central_charge,
    central_charge_plus_continued,
    delta_hat_apply,
    f_factor_series,
    h_series,
    i_function,
    i_function_factored,
    ode_check,
    series_product,
    verify_continuation_r1,
)
from .ktheory import (
    chern_character,
    chi_z_pairing,
    euler_characteristic,
    fm_generator_formula,
    fm_transform,
    fm_transform_generator_exact,
    generator_e,
    unit_class,
)
from .numkernel import TWO_PI_I, sin_over_2i, worst_error
from .wallcross import (
    PsiContext,
    antisym_identity_check,
    coeff_C,
    pairing,
    psi_apply,
    psi_on_coh,
    transition_matrix,
    u_apply,
    uh_apply,
    LocalizedCohClass,
)

# the pinned tolerance of each numerical check, by name; echoed in every report
DEFAULT_TOLS = {
    "collapse": 1e-10,
    "fm_diagram": 1e-10,
    "fm_formula": 1e-12,
    "chi_invariance": 1e-10,
    "integral_pairing": 1e-8,
    "continuation": 1e-8,
    "structure": 1e-12,
    "ode": 1e-10,
    "itoh": 1e-10,
    "central_charge": 1e-6,
    "symplectic": 1e-8,
}

# order of the reference I-series: the continuation checks, `charge` and the scripts
SERIES_ORDER = 80

# weights reused for the fixed (r, n) grids of the acceptance criteria
_DEFAULT_X = ("31/100", "-17/100", "23/100", "-41/100", "7/100")
_DEFAULT_Z = ("3/25", "47/100", "-29/100", "53/100", "-11/100")


def default_config(n: int = 2, r: int = 1) -> FlopConfig:
    if n <= len(_DEFAULT_X):
        return FlopConfig(
            n,
            r,
            tuple(Fraction(v) for v in _DEFAULT_X[:n]),
            tuple(Fraction(v) for v in _DEFAULT_Z[:n]),
        )
    return random_config(n, r, seed=10_000 + 100 * n + r)


@dataclass
class SuiteEnv:
    """Everything a suite needs: the seed, the evaluation points and the configs."""

    seed: int = 0
    z_values: tuple = (2.0 + 0j, 3.0 + 1j)
    base_config: FlopConfig | None = None
    # one config per fixed grid point, so its weight table is built once per run
    _grid_configs: dict = field(default_factory=dict, init=False, repr=False)

    def config_for(self, n: int, r: int) -> FlopConfig:
        if self.base_config is not None and (self.base_config.n, self.base_config.r) == (n, r):
            return self.base_config
        if (n, r) not in self._grid_configs:
            self._grid_configs[n, r] = default_config(n, r)
        return self._grid_configs[n, r]

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}:{tag}")


@dataclass
class CaseSpec:
    suite: str
    name: str
    params: dict
    thunk: Callable  # () -> tuple[str, float | None]


def _bool_case(ok: bool, err: float | None = None):
    return ("pass" if ok else "fail"), err


def _err_case(err: float, tol: float):
    return ("pass" if err < tol else "fail"), err


def _at(env: SuiteEnv, suite: str, name: str, params: dict, check: Callable, n: int, r: int, *args):
    """The case that runs ``check(config, *args)`` on the config of grid
    point (n, r), looked up when the case runs, not when it is collected."""
    return CaseSpec(suite, name, params, lambda: check(env.config_for(n, r), *args))


def _grid(env: SuiteEnv, suite: str, stem: str, check: Callable, points) -> list:
    """One case ``{stem}-n{n}-r{r}`` of ``check`` per (r, n) of ``points``."""
    return [_at(env, suite, f"{stem}-n{n}-r{r}", {"n": n, "r": r}, check, n, r) for r, n in points]


# ----------------------------------------------------------------------
# identities
# ----------------------------------------------------------------------

def identities_suite(env: SuiteEnv) -> list:
    def antisym(r):
        rep = antisym_identity_check(r, samples=20, seed=env.seed)
        return _bool_case(rep.ok, 0.0 if rep.ok else None)

    return [CaseSpec("identities", f"antisym-r{r}", {"r": r, "samples": 20, "symbolic": r <= 4},
                     partial(antisym, r)) for r in range(1, 7)]


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------

_RELATION_GRID = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 5))


def geometry_suite(env: SuiteEnv) -> list:
    def relations(cfg, side):
        rep = check_relations(cfg, side)
        return _bool_case(rep.ok, 0.0 if rep.ok else None)

    def tangent(cfg):
        table = cfg.fixed_point_table
        deltas = fixed_point_deltas(cfg)
        for d in deltas:
            minus, plus = table["minus", d].nums, table["plus", d].nums
            if len(minus) != cfg.dim or len(plus) != cfg.dim or 0 in minus:
                return _bool_case(False)
        # flop involution x -> -z, z -> -x takes each minus point to the plus
        # point of the same delta on the flip, weight for weight; the flip's
        # weights have the same denominators, so the same common one
        flipped = cfg.flipped().fixed_point_table
        return _bool_case(all(table["minus", d].den == flipped["plus", d].den
                              and Counter(table["minus", d].nums) == Counter(flipped["plus", d].nums)
                              for d in deltas), 0.0)

    at = partial(_at, env, "geometry")
    return ([at(f"relations-n{n}-r{r}-{side}", {"n": n, "r": r, "side": side}, relations, n, r, side)
             for r, n in _RELATION_GRID for side in ("plus", "minus")]
            + _grid(env, "geometry", "tangent-weights", tangent, _RELATION_GRID))


# ----------------------------------------------------------------------
# ktheory
# ----------------------------------------------------------------------

_FM_GRID = ((1, 2), (1, 3), (2, 3), (2, 4))


def _random_generator_combo(cfg: FlopConfig, rng: random.Random):
    deltas = fixed_point_deltas(cfg)
    combo = None
    coeffs = []
    for dm in deltas:
        c = rng.randint(-3, 3)
        coeffs.append(c)
        term = generator_e(cfg, dm).scaled(c)
        combo = term if combo is None else combo + term
    if all(c == 0 for c in coeffs):
        combo = combo + generator_e(cfg, deltas[0])
    return combo


def _localization_bound(cfg: FlopConfig, vec: dict, side: str, scale: complex) -> float:
    """sum_d |vec_d / wedge(N_d)|: the triangle bound of
    ``euler_characteristic(cfg, vec, side, scale)``, term by term."""
    return sum(abs(euler_characteristic(cfg, {d: v}, side, scale)) for d, v in vec.items())


def ktheory_suite(env: SuiteEnv) -> list:
    def fm_formula(cfg):
        worst = 0.0
        for dm in fixed_point_deltas(cfg):
            closed = fm_generator_formula(cfg, dm)
            exact = fm_transform_generator_exact(cfg, dm)
            for dp, chi in closed.restrictions.items():
                if exact.restrictions[dp] != chi:
                    return _bool_case(False)
            numeric = fm_transform(cfg, generator_e(cfg, dm))
            ch_closed = chern_character(cfg, closed)
            for dp in numeric:
                scale = max(1.0, abs(ch_closed[dp]))
                worst = worst_error(worst, abs(numeric[dp] - ch_closed[dp]) / scale)
        return _err_case(worst, DEFAULT_TOLS["fm_formula"])

    def generator_vanishing(cfg):
        for dm in fixed_point_deltas(cfg):
            e = generator_e(cfg, dm)
            for d0, chi in e.restrictions.items():
                if d0 != dm and not chi.is_zero():
                    return _bool_case(False)
                if d0 == dm and chi.is_zero():
                    return _bool_case(False)
        return _bool_case(True, 0.0)

    def fm_invertible(cfg):
        deltas = fixed_point_deltas(cfg)
        chs = [chern_character(cfg, fm_generator_formula(cfg, dm)) for dm in deltas]
        mat = np.array([[ch[dp] for dp in deltas] for ch in chs])
        svals = np.linalg.svd(mat, compute_uv=False)
        ratio = svals[-1] / svals[0]
        return _bool_case(ratio > 1e-10, ratio)

    def chi_invariance(cfg):
        rng = env.rng(f"chi:{cfg.n}:{cfg.r}")
        worst = 0.0
        for _ in range(5):
            A = _random_generator_combo(cfg, rng)
            B = _random_generator_combo(cfg, rng)
            chi_m = euler_characteristic(cfg, chern_character(cfg, A), "minus")
            chi_p = euler_characteristic(cfg, fm_transform(cfg, A), "plus")
            worst = worst_error(worst, abs(chi_m - chi_p) / max(1.0, abs(chi_m)))
            for z in env.z_values:
                s = TWO_PI_I / z
                ca, cb = chern_character(cfg, A, -s), chern_character(cfg, B, s)
                lhs = chi_z_pairing(cfg, ca, cb, "minus", z)
                fa = fm_transform(cfg, A, -s)
                fb = fm_transform(cfg, B, s)
                plus = {dp: fa[dp] * fb[dp] for dp in fa}
                rhs = euler_characteristic(cfg, plus, "plus", s)
                # normalize by the larger triangle bound of the two
                # localization sums: at disjoint support the pairing is
                # exactly 0 and the plus-side terms cancel
                bound = max(_localization_bound(cfg, {d: ca[d] * cb[d] for d in ca}, "minus", s),
                            _localization_bound(cfg, plus, "plus", s), 1e-30)
                worst = worst_error(worst, abs(lhs - rhs) / bound)
        return _err_case(worst, DEFAULT_TOLS["chi_invariance"])

    return (_grid(env, "ktheory", "fm-formula", fm_formula, _FM_GRID)
            + _grid(env, "ktheory", "generator-vanishing", generator_vanishing, _FM_GRID)
            + _grid(env, "ktheory", "fm-invertible", fm_invertible, _FM_GRID)
            + _grid(env, "ktheory", "chi-invariance", chi_invariance, ((1, 2), (2, 3))))


# ----------------------------------------------------------------------
# wallcross
# ----------------------------------------------------------------------

_COLLAPSE_GRID = ((2, 3), (2, 4), (3, 5))


def _triangle_bound(cfg: FlopConfig, a: LocalizedCohClass, b: LocalizedCohClass) -> float:
    """sum_d |a|_d b|_d / e(N_d)|: the triangle bound of ``pairing(cfg, a, b)``."""
    table = cfg.fixed_point_table
    bound = 0.0
    for d in fixed_point_deltas(cfg):
        bound += abs(a.values[d] * b.values[d] / table[a.side, d].euler_value)
    return bound


def wallcross_suite(env: SuiteEnv) -> list:
    def sr_collapse(cfg):
        C = transition_matrix(cfg, "C")
        CH = transition_matrix(cfg, "CH")
        ch_row = dict(zip(CH.rows, CH.entries))
        worst = 0.0
        for dm, c_row in zip(C.rows, C.entries):
            for col, want in enumerate(c_row):
                terms = [ch_row[perm][col] for perm in permutations(dm)]
                # the orbit sum can cancel hugely at unlucky draws; the
                # triangle bound is the honest accuracy scale then
                scale = max(abs(want), sum(abs(t) for t in terms) * 1e-2)
                worst = worst_error(worst, abs(sum(terms) - want) / scale)
        return _err_case(worst, DEFAULT_TOLS["collapse"])

    def fm_diagram(cfg):
        worst = 0.0
        for dm in fixed_point_deltas(cfg):
            ch_e = chern_character(cfg, generator_e(cfg, dm))
            ch_fm = chern_character(cfg, fm_generator_formula(cfg, dm))
            image = uh_apply(cfg, LocalizedCohClass("minus", ch_e))
            for dp, want in ch_fm.items():
                worst = worst_error(worst, abs(image.values[dp] - want) / abs(want))
        return _err_case(worst, DEFAULT_TOLS["fm_diagram"])

    def c_specialization():
        worst = 0.0
        for n in (2, 3):
            cfg = env.config_for(n, 1)
            xs, zs = cfg.complex_weights()
            for l in range(n):
                for k in range(n):
                    want = cmath.exp((n - 1) * (xs[l] - zs[k]) / 2.0)
                    for i in range(n):
                        if i != k:
                            want *= sin_over_2i(xs[l] - zs[i]) / sin_over_2i(zs[k] - zs[i])
                    got = coeff_C(cfg, (k,), (l,))
                    worst = worst_error(worst, abs(got - want) / abs(want))
        return _err_case(worst, 1e-13)

    def integral_pairing(cfg, z):
        """<psi(C) at e^{-i pi} z, psi(D) at z> = (2 pi)^dim chi_z(C, D) on
        both sides, for the unit class and one class per fixed point.

        A blind spot: at each fixed point the pairing multiplies
        Gamma(1 + w/z) from one image with Gamma(1 - w/z) from the other,
        so it reads only the product Gamma(1 + a) Gamma(1 - a).  With
        Gamma(1 - w/z) in place of Gamma(1 + w/z) in psi it still passes,
        at every (n, r): the swap is a symmetry of this check, not a defect
        it can see.  The monodromy of the central charges about the wall
        point depends on Gamma-hat and not on its dual alone, so a check of
        which classes it leaves single-valued would see the swap; no case
        runs it yet.
        """
        s = TWO_PI_I / z
        worst = 0.0
        for side in ("plus", "minus"):
            ctx = PsiContext.create(cfg, side, z=z)
            rot = ctx.rotated()
            one = unit_class(cfg, side)
            deltas = fixed_point_deltas(cfg)
            probes = [one]
            if side == "minus":
                probes += [generator_e(cfg, dm) for dm in deltas]
            else:
                probes += [fm_generator_formula(cfg, dm) for dm in deltas]
            images = [(psi_apply(rot, E), psi_apply(ctx, E)) for E in probes]
            chars = [(chern_character(cfg, E, -s), chern_character(cfg, E, s)) for E in probes]
            for (pc, _), (cc, _) in zip(images, chars):
                for (_, pd), (_, cd) in zip(images, chars):
                    lhs = pairing(cfg, pc, pd)
                    rhs = (2.0 * math.pi) ** cfg.dim * chi_z_pairing(cfg, cc, cd, side, z)
                    # normalize by the triangle bound of the localization
                    # sum: the honest scale even when the total cancels
                    bound = _triangle_bound(cfg, pc, pd)
                    worst = worst_error(worst, abs(lhs - rhs) / max(bound, abs(rhs), 1e-30))
        return _err_case(worst, DEFAULT_TOLS["integral_pairing"])

    def symplectic(cfg):
        z = env.z_values[0]
        ctxm = PsiContext.create(cfg, "minus", z=z)
        ctxp = PsiContext.create(cfg, "plus", z=z)
        rotm, rotp = ctxm.rotated(), ctxp.rotated()
        rng = env.rng("symplectic")
        worst = 0.0
        for _ in range(10):
            C = _random_generator_combo(cfg, rng)
            D = _random_generator_combo(cfg, rng)
            f_rot = psi_apply(rotm, C)
            g = psi_apply(ctxm, D)
            uf, ug = u_apply(rotp, rotm, f_rot), u_apply(ctxp, ctxm, g)
            lhs = pairing(cfg, uf, ug)
            rhs = pairing(cfg, f_rot, g)
            # normalize by the larger triangle bound of the two localization
            # sums: the pairing itself may legitimately cancel to ~0
            scale = max(_triangle_bound(cfg, uf, ug), _triangle_bound(cfg, f_rot, g), 1e-30)
            worst = worst_error(worst, abs(lhs - rhs) / scale)
        return _err_case(worst, DEFAULT_TOLS["symplectic"])

    def u_nonsingular(cfg):
        z = env.z_values[0]
        ctxm = PsiContext.create(cfg, "minus", z=z)
        ctxp = PsiContext.create(cfg, "plus", z=z)
        # the matrix of U on the fixed-point basis, one row per minus delta
        deltas = fixed_point_deltas(cfg)
        rows = []
        for dm in deltas:
            basis = LocalizedCohClass("minus", {d: 1.0 + 0j if d == dm else 0j for d in deltas})
            rows.append([u_apply(ctxp, ctxm, basis).values[dp] for dp in deltas])
        svals = np.linalg.svd(np.array(rows), compute_uv=False)
        ratio = svals[-1] / svals[0]
        return _bool_case(ratio > 1e-10, ratio)

    at = partial(_at, env, "wallcross")
    return (_grid(env, "wallcross", "sr-collapse", sr_collapse, _COLLAPSE_GRID)
            + _grid(env, "wallcross", "fm-diagram", fm_diagram, _FM_GRID)
            + [CaseSpec("wallcross", "c-r1-specialization", {"n": [2, 3], "r": 1}, c_specialization)]
            + [at(f"integral-pairing-z{z.real:g}{z.imag:+g}i", {"n": 2, "r": 1, "z": [z.real, z.imag]},
                  integral_pairing, 2, 1, z) for z in env.z_values]
            + [at("symplectic-pairing", {"n": 2, "r": 1, "pairs": 10}, symplectic, 2, 1),
               at("u-nonsingular", {"n": 2, "r": 1}, u_nonsingular, 2, 1)])


# ----------------------------------------------------------------------
# continuation
# ----------------------------------------------------------------------

def continuation_suite(env: SuiteEnv) -> list:
    def wall_crossing(cfg):
        rep = verify_continuation_r1(cfg, tol=DEFAULT_TOLS["continuation"], order=SERIES_ORDER)
        return _err_case(rep.max_err, DEFAULT_TOLS["continuation"])

    def guard(cfg):
        bad_w = math.log(3.0) + 1j * (cfg.n - cfg.r + 1) * math.pi
        try:
            barnes_integrate(bad_w, cfg, 0)
        except NonConvergenceError:
            return _bool_case(True, None)
        return _bool_case(False, None)

    def structure(cfg):
        worst = 0.0
        for dp in fixed_point_deltas(cfg):
            K = h_series(cfg, "plus", dp, 10)
            factors = [f_factor_series(cfg, dp, k, 10) for k in range(cfg.r)]
            assembled = delta_hat_apply(series_product(factors))
            if K.coeffs.keys() != assembled.coeffs.keys():
                return _bool_case(False)
            for es, c in K.coeffs.items():
                worst = worst_error(worst, abs(c - assembled.coeffs[es]))
        return _err_case(worst, DEFAULT_TOLS["structure"])

    def ode():
        worst = 0.0
        for n in (2, 3):
            cfg = env.config_for(n, 1)
            for side in ("plus", "minus"):
                for l in range(n):
                    worst = worst_error(worst, ode_check(cfg, h_series(cfg, side, (l,), 40), side))
        cfg = env.config_for(3, 2)
        for dp in fixed_point_deltas(cfg):
            for k in range(cfg.r):
                worst = worst_error(worst, ode_check(cfg, f_factor_series(cfg, dp, k, 40), "plus"))
        return _err_case(worst, DEFAULT_TOLS["ode"])

    def ode_sensitivity(cfg):
        s = h_series(cfg, "plus", (0,), 40)
        coeffs = dict(s.coeffs)
        coeffs[5,] *= 1.0 + 1e-3
        res = ode_check(cfg, replace(s, coeffs=coeffs), "plus")
        return _bool_case(res > 1e-4, res)

    # the I-series direct and through its integral-structure factors, on
    # both sides at every fixed point and z
    def itoh(cfg, z_values, order):
        worst = 0.0
        for z in z_values:
            for side in ("plus", "minus"):
                ctx = PsiContext.create(cfg, side, z=z)
                for d in fixed_point_deltas(cfg):
                    direct = i_function(cfg, side, d, order, ctx)
                    assembled = i_function_factored(cfg, side, d, order, ctx)
                    for e in direct.coeffs:
                        scale = max(1.0, abs(direct.coeffs[e]))
                        worst = worst_error(worst, abs(direct.coeffs[e] - assembled.coeffs[e]) / scale)
                    if abs(direct.offset - assembled.offset) > 1e-13:
                        return _bool_case(False)
        return _err_case(worst, DEFAULT_TOLS["itoh"])

    def i_symmetry(cfg):
        ctx = PsiContext.create(cfg, "plus", z=env.z_values[0])
        worst = 0.0
        for d in fixed_point_deltas(cfg):
            a = i_function(cfg, "plus", d, 8, ctx)
            b = i_function(cfg, "plus", tuple(reversed(d)), 8, ctx)
            for e in a.coeffs:
                worst = worst_error(worst, abs(a.coeffs[e] - b.coeffs[e]) / max(1.0, abs(a.coeffs[e])))
        return _err_case(worst, 1e-12)

    at = partial(_at, env, "continuation")
    return ([at(f"wall-crossing-n{n}-r1", {"n": n, "r": 1, "order": SERIES_ORDER, "q": [Q_INSIDE, Q_OUTSIDE]},
                wall_crossing, n, 1) for n in (2, 3)]
            + [at("pole-line-guard", {"n": 2, "r": 1}, guard, 2, 1),
               at("factor-structure-n3-r2", {"n": 3, "r": 2, "order": 10}, structure, 3, 2),
               CaseSpec("continuation", "ode-residuals", {"order": 40}, ode),
               at("ode-sensitivity-control", {"bump": 1e-3}, ode_sensitivity, 2, 1)]
            + [at(f"i-factorization-n{n}-r{r}", {"n": n, "r": r, "order": order}, itoh, n, r, z_values, order)
               for n, r, z_values, order in ((2, 1, env.z_values, 20), (3, 2, env.z_values[:1], 8))]
            + [at("i-reordering-symmetry", {"n": 3, "r": 2}, i_symmetry, 3, 2)])


# ----------------------------------------------------------------------
# central charge
# ----------------------------------------------------------------------

def central_charge_suite(env: SuiteEnv) -> list:
    def linearity(cfg):
        z = env.z_values[0]
        ctx = PsiContext.create(cfg, "minus", z=z)
        w = -1.5 + 1j * math.pi
        deltas = fixed_point_deltas(cfg)
        A = generator_e(cfg, deltas[0])
        B = generator_e(cfg, deltas[1])
        za, zb, zab = central_charge(cfg, [psi_apply(ctx, E) for E in (A, B, A + B)], w, ctx, order=60)
        err = abs(zab - za - zb) / max(abs(za) + abs(zb), 1e-30)
        return _err_case(err, 1e-12)

    def continuation(cfg):
        z = env.z_values[0]
        ctxm = PsiContext.create(cfg, "minus", z=z)
        ctxp = PsiContext.create(cfg, "plus", z=z)
        w = math.log(3.0) + 1j * math.pi * (cfg.n - cfg.r)
        # the structure sheaf, whose plus image is its numeric FM transform,
        # and a generator, whose plus image is its closed FM formula
        Em = unit_class(cfg, "minus")
        minus_images = [psi_apply(ctxm, Em), psi_apply(ctxm, generator_e(cfg, (0,)))]
        plus_images = [psi_on_coh(ctxp, LocalizedCohClass("plus", fm_transform(cfg, Em, ctxp.ch_scale))),
                       psi_apply(ctxp, fm_generator_formula(cfg, (0,)))]
        z_minus = central_charge(cfg, minus_images, -w, ctxm, order=SERIES_ORDER)
        z_plus = central_charge_plus_continued(cfg, plus_images, w, ctxp)
        worst = worst_error(*(abs(zp - zm) / max(abs(zm), 1e-30) for zm, zp in zip(z_minus, z_plus)))
        return _err_case(worst, DEFAULT_TOLS["central_charge"])

    def leading_behaviour(cfg):
        z = env.z_values[0]
        ctx = PsiContext.create(cfg, "plus", z=z)
        rot = ctx.rotated()
        w = -30.0 + 1j * math.pi
        psi_e = psi_apply(ctx, fm_generator_formula(cfg, (0,)))
        full, = central_charge(cfg, [psi_e], w, ctx, order=40)
        i_lead = {d: i_function(cfg, "plus", d, 0, rot).eval(w) for d in fixed_point_deltas(cfg)}
        lead = pairing(cfg, LocalizedCohClass("plus", i_lead), psi_e)
        err = abs(full - lead) / max(abs(full), 1e-30)
        return _err_case(err, 1e-8)

    at = partial(_at, env, "central-charge")
    return [at("linearity", {"n": 2, "r": 1}, linearity, 2, 1),
            at("fm-continuation", {"n": 2, "r": 1, "q": 3.0}, continuation, 2, 1),
            at("leading-asymptotics", {"n": 2, "r": 1, "w": -30.0}, leading_behaviour, 2, 1)]


# the suites by name, in the order in which "all" runs them
SUITES = {
    "identities": identities_suite,
    "geometry": geometry_suite,
    "ktheory": ktheory_suite,
    "wallcross": wallcross_suite,
    "continuation": continuation_suite,
    "central-charge": central_charge_suite,
}


def collect_cases(env: SuiteEnv, suite: str) -> list:
    if suite == "all":
        return [case for make in SUITES.values() for case in make(env)]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return SUITES[suite](env)
