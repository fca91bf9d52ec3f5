"""Series construction, the recurrence annihilator, Mellin-Barnes
continuation, I-series factorization, and central charges."""

import cmath
import math
import re
from dataclasses import replace
from fractions import Fraction
from itertools import product as iter_product
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flopwall import cli, hypergeom, suites, wallcross
from flopwall.flopgeom import FlopConfig, fixed_point_deltas, random_config
from flopwall.hypergeom import (
    NonConvergenceError,
    OffsetSeries,
    PathError,
    PathSpec,
    barnes_integrand,
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
from flopwall.ktheory import (
    fm_generator_formula,
    fm_transform,
    generator_e,
    unit_class,
)
from flopwall.numkernel import (
    TWO_PI_I,
    NonFiniteError,
    PoleError,
    gamma,
    log_gamma,
    recip_gamma,
    sin_over_2i,
)
from flopwall.suites import SuiteEnv, collect_cases, default_config
from flopwall.wallcross import (
    LocalizedCohClass,
    PsiContext,
    coeff_C,
    gamma_class,
    psi_apply,
    psi_on_coh,
)


# ----------------------------------------------------------------------
# series containers
# ----------------------------------------------------------------------

def test_offset_series_eval_uses_log_q():
    s = OffsetSeries(offsets=(0.25j,), coeffs={(0,): 1.0 + 0j, (1,): 0.5 + 0j}, order=1)
    w = -0.7 + 0.3j
    want = cmath.exp(w * 0.25j) + 0.5 * cmath.exp(w * (0.25j + 1))
    assert abs(s.eval(w) - want) < 1e-15
    # different log-q branches are genuinely different evaluation points
    assert abs(s.eval(w) - s.eval(w + TWO_PI_I)) > 1e-6


def test_multi_series_specialize():
    # a series holds the compositions of total degree <= order, here 2
    ms = OffsetSeries(
        offsets=(0.1j, 0.2j),
        coeffs={(0, 0): 1 + 0j, (0, 1): 3 + 0j, (0, 2): 5 + 0j, (1, 0): 2 + 0j,
                (1, 1): 4 + 0j, (2, 0): 6 + 0j},
        order=2,
        prefactor=2.0 + 0j,
    )
    s = ms.specialize()
    assert abs(s.offset - 0.3j) < 1e-16
    # degree e sums the compositions of e, in the order of the keys
    assert list(s.coeffs.items()) == [((0,), 1 + 0j), ((1,), 5 + 0j), ((2,), 15 + 0j)]
    assert s.prefactor == 2.0 + 0j
    # eval puts every variable at the same log q and sums the stored terms
    w = -0.4 + 1.1j
    want = sum(c * cmath.exp(w * (0.3j + sum(es))) for es, c in ms.coeffs.items())
    assert abs(ms.eval(w) - 2.0 * want) < 1e-14


def test_delta_hat_monomial_action():
    ms = OffsetSeries(offsets=(0.3j, -0.1j), coeffs={(2, 5): 1.0 + 0j}, order=5)
    out = delta_hat_apply(ms)
    want = (0.3j + 2) - (-0.1j + 5)
    assert abs(out.coeffs[(2, 5)] - want) < 1e-15


def test_delta_hat_r1_identity():
    ms = OffsetSeries(offsets=(0.3j,), coeffs={(0,): 1.5 + 0j, (3,): -2j}, order=3)
    out = delta_hat_apply(ms)
    assert out.coeffs == ms.coeffs


# ----------------------------------------------------------------------
# series coefficients against a high-precision oracle
# ----------------------------------------------------------------------

def _rgamma_ref(s: complex) -> complex:
    mpmath.mp.dps = 40
    v = mpmath.rgamma(mpmath.mpc(s.real, s.imag))
    return complex(float(v.real), float(v.imag))


def test_h_series_leading_coefficient_r1(cfg21):
    xs, zs = cfg21.complex_weights()
    u = 1.0 / TWO_PI_I
    for l in range(2):
        s = h_series(cfg21, "plus", (l,), 4)
        want = 1.0 + 0j
        for j in range(2):
            want *= _rgamma_ref(1 + (xs[l] - xs[j]) * u)
            want *= _rgamma_ref(1 + (zs[j] - xs[l]) * u)
        assert abs(s.coefficient(0) - want) < 1e-14
        assert s.prefactor == 1.0 + 0j


def test_h_series_support_nonnegative(cfg21):
    s = h_series(cfg21, "plus", (0,), 6)
    assert min(s.coeffs) == (0,)
    assert s.coefficient(-1) == 0j


def test_h_series_coefficient_oracle_mpmath(cfg31):
    # a deeper coefficient, fully recomputed at 40 digits
    xs, zs = cfg31.complex_weights()
    u = 1.0 / TWO_PI_I
    s = h_series(cfg31, "minus", (2,), 6)
    for d in (1, 4):
        want = 1.0 + 0j
        for j in range(3):
            want *= _rgamma_ref(1 + (zs[2] - xs[j]) * u - d)
            want *= _rgamma_ref(1 + (zs[j] - zs[2]) * u + d)
        assert abs(s.coefficient(d) - want) < 1e-14 * max(1.0, abs(want))


def test_f_factor_reduces_to_h_series_at_r1(cfg21):
    f = f_factor_series(cfg21, (0,), 0, 8)
    h = h_series(cfg21, "plus", (0,), 8)
    assert f.coeffs.keys() == h.coeffs.keys()
    for e, c in f.coeffs.items():
        assert abs(c - h.coeffs[e]) < 1e-15


@pytest.mark.parametrize("which,delta", [("cfg21", (0, 1)), ("cfg21", ()),
                                          ("cfg32", (0,)), ("cfg32", (0, 1, 2))])
def test_series_reject_a_delta_of_the_wrong_length(request, which, delta):
    # a long delta would give a finite, plausible value and a short one a
    # bare IndexError; both are a ValueError
    cfg = request.getfixturevalue(which)
    for side in ("plus", "minus"):
        with pytest.raises(ValueError, match=f"exactly r = {cfg.r} indices"):
            h_series(cfg, side, delta, 4)
    with pytest.raises(ValueError, match=f"exactly r = {cfg.r} indices"):
        f_factor_series(cfg, delta, 0, 4)


def test_plus_series_is_antisymmetrized_factor_product(cfg32):
    for dp in fixed_point_deltas(cfg32):
        K = h_series(cfg32, "plus", dp, 10)
        factors = [f_factor_series(cfg32, dp, k, 10) for k in range(2)]
        assembled = delta_hat_apply(series_product(factors))
        for es, c in K.coeffs.items():
            assert abs(c - assembled.coeffs[es]) < 1e-12


def test_factor_structure_check_fails_on_a_wrong_assembly():
    # negative controls of the factor-structure-n3-r2 case: on its instance
    # the comparison must exceed the case's 1e-12 tolerance when the
    # antisymmetrizer is left out or the two factor slots are swapped
    cfg = default_config(3, 2)

    def worst(assemble):
        out = 0.0
        for dp in fixed_point_deltas(cfg):
            K = h_series(cfg, "plus", dp, 10)
            got = assemble([f_factor_series(cfg, dp, k, 10) for k in range(cfg.r)])
            out = max(out, max(abs(c - got.coeffs[es]) for es, c in K.coeffs.items()))
        return out

    assert worst(lambda fs: delta_hat_apply(series_product(fs))) < 1e-12
    assert worst(series_product) > 1e-12
    assert worst(lambda fs: delta_hat_apply(series_product(fs[::-1]))) > 1e-12


@pytest.mark.parametrize("n,r", [(2, 1), (3, 2), (4, 3)])
def test_series_hold_the_compositions_up_to_the_order(n, r):
    # total degree <= order, lexicographic: the keys the specialization sums
    cfg = default_config(n, r)
    d = fixed_point_deltas(cfg)[0]
    order = 6
    want = [es for es in iter_product(range(order + 1), repeat=r) if sum(es) <= order]
    for side in ("plus", "minus"):
        assert list(h_series(cfg, side, d, order).coeffs) == want
    product = series_product([f_factor_series(cfg, d, k, order) for k in range(r)])
    assert list(product.coeffs) == want


def test_factor_structure_case_fails_when_the_key_sets_differ(monkeypatch):
    # a term the series lacks, even a zero one, fails the case
    def case_status():
        env = SuiteEnv()
        case, = [c for c in collect_cases(env, "continuation") if c.name == "factor-structure-n3-r2"]
        return case.thunk()[0]

    assert case_status() == "pass"

    def with_an_extra_key(factors):
        out = series_product(factors)
        return replace(out, coeffs={**out.coeffs, (out.order, 1): 0j})

    monkeypatch.setattr(suites, "series_product", with_an_extra_key)
    assert case_status() == "fail"


# ----------------------------------------------------------------------
# minus side against hand-written minus formulas
# ----------------------------------------------------------------------

# The library builds the minus side as the plus side on config.flipped().
# These references are the minus branches as they were written out by hand
# before that, in the weights x, z of the unflipped instance.

def _h_series_minus_reference(config, delta, order, weight_scale=1.0):
    xs, zs = config.complex_weights()
    u = weight_scale / TWO_PI_I
    n, r = config.n, config.r
    d = tuple(delta)
    prefactor = complex(math.pi ** (r * (r - 1) // 2))
    for i in range(r):
        for k in range(i + 1, r):
            prefactor /= sin_over_2i(weight_scale * (zs[d[i]] - zs[d[k]]))
    coeffs = {}
    for es in iter_product(range(order + 1), repeat=r):
        if sum(es) > order:
            continue
        c = complex((-1.0) ** (((r - 1) * sum(es)) % 2))
        for k in range(r):
            for i in range(k):
                c *= (zs[d[i]] - zs[d[k]]) * u + (es[k] - es[i])
            for j in range(n):
                c *= recip_gamma(1 + (zs[d[k]] - xs[j]) * u - es[k])
                c *= recip_gamma(1 + (zs[j] - zs[d[k]]) * u + es[k])
        coeffs[es] = c
    offsets = tuple(-zs[i] * u for i in d)
    return offsets, coeffs, prefactor


def _i_function_minus_reference(config, delta, order, ctx):
    """Offset, coefficients, and per coefficient the sum of |terms| added into it."""
    xs, zs = config.complex_weights()
    zv = ctx.z
    n, r = config.n, config.r
    d = tuple(delta)
    coeffs, bound = {}, {}
    for es in iter_product(range(order + 1), repeat=r):
        if sum(es) > order:
            continue
        c = 1.0 + 0j
        for k in range(r):
            e = es[k]
            for i in range(n):
                for hh in range(1, e + 1):
                    c /= zs[i] - zs[d[k]] + hh * zv
            for j in range(n):
                for hh in range(-e + 1, 1):
                    c *= zs[d[k]] - xs[j] + hh * zv
        for k in range(r):
            for i in range(k):
                A = zs[d[k]] - zs[d[i]]
                m = es[i] - es[k]
                c *= (-1.0) ** (m % 2) * (A + m * zv) / A
        tot = sum(es)
        coeffs[tot] = coeffs.get(tot, 0j) + c
        bound[tot] = bound.get(tot, 0.0) + abs(c)
    return sum(-zs[i] for i in d) * ctx.inv_z, coeffs, bound


_MINUS_GRID = ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3))
_MINUS_ORDER = {1: 20, 2: 8, 3: 4}


def _minus_grid_configs(n, r):
    return [default_config(n, r)] + [random_config(n, r, seed=s) for s in range(3)]


@pytest.mark.parametrize("n,r", _MINUS_GRID)
def test_minus_h_series_matches_reference(n, r):
    # the flipped plus series carries (-1)^{r(r-1)/2} on the prefactor and
    # on every coefficient; h_series folds it back, signs must agree.  At
    # weight scale pi i the unit u = 1/2 is real, and a pair factor
    # (z_i - z_k) u + e_k - e_i with e_i = e_k cancels unless the integer
    # part is formed first; added left to right it lost three digits
    order = _MINUS_ORDER[r]
    for cfg, scale in iter_product(_minus_grid_configs(n, r), (1.0, math.pi * 1j)):
        for d in fixed_point_deltas(cfg):
            offsets, coeffs, prefactor = _h_series_minus_reference(cfg, d, order, scale)
            got = h_series(cfg, "minus", d, order, weight_scale=scale)
            assert got.offsets == offsets
            assert abs(got.prefactor - prefactor) <= 1e-14 * abs(prefactor)
            assert got.coeffs.keys() == coeffs.keys()
            for es, want in coeffs.items():
                assert abs(got.coeffs[es] - want) <= 1e-14 * abs(want), (cfg, scale, d, es)


@pytest.mark.parametrize("n,r", _MINUS_GRID)
def test_minus_i_function_matches_reference(n, r):
    # for r > 1 a coefficient sums the terms of every composition of its
    # degree and may cancel; the sum of |terms| is then the accuracy scale
    order = _MINUS_ORDER[r]
    for cfg in _minus_grid_configs(n, r):
        for z in (2.0 + 0j, 3.0 + 1j):
            ctx = PsiContext.create(cfg, "minus", z=z)
            for c in (ctx, ctx.rotated()):
                for d in fixed_point_deltas(cfg):
                    offset, coeffs, bound = _i_function_minus_reference(cfg, d, order, c)
                    got = i_function(cfg, "minus", d, order, c)
                    assert got.offset == offset
                    assert got.coeffs.keys() == {(e,) for e in coeffs}
                    for e, want in coeffs.items():
                        assert abs(got.coefficient(e) - want) <= 1e-14 * bound[e], (cfg, d, e)


# ----------------------------------------------------------------------
# series coefficients from one recip_gamma call
# ----------------------------------------------------------------------

# The series read their 1/Gamma factors from one recip_gamma call.  These
# references are the loops that made one scalar call per factor and
# coefficient before that; values, key order and errors must be theirs.

def _h_series_scalar(config, side, delta, order, weight_scale=1.0):
    r = config.r
    if side == "minus":
        series = _h_series_scalar(config.flipped(), "plus", delta, order, weight_scale)
        if r * (r - 1) // 2 % 2 == 0:
            return series
        return replace(series, prefactor=-series.prefactor,
                       coeffs={e: -c for e, c in series.coeffs.items()})
    xs, zs = config.complex_weights()
    u = complex(weight_scale) / TWO_PI_I
    n = config.n
    d = tuple(delta)
    prefactor = complex(math.pi ** (r * (r - 1) // 2))
    for i in range(r):
        for k in range(i + 1, r):
            den = sin_over_2i(complex(weight_scale) * (xs[d[i]] - xs[d[k]]))
            if den == 0:
                raise PoleError("prefactor sine vanishes; degenerate restriction")
            prefactor /= den
    coeffs = {}
    for es in iter_product(range(order + 1), repeat=r):
        if sum(es) > order:
            continue
        c = complex((-1.0) ** (((r - 1) * sum(es)) % 2))
        for k in range(r):
            for i in range(k):
                c *= (xs[d[i]] - xs[d[k]]) * u + (es[i] - es[k])
            for j in range(n):
                c *= recip_gamma(1 + (xs[d[k]] - xs[j]) * u + es[k])
                c *= recip_gamma(1 + (zs[j] - xs[d[k]]) * u - es[k])
        coeffs[es] = c
    return OffsetSeries(tuple(xs[i] * u for i in d), coeffs, order, prefactor)


def _f_factor_series_scalar(config, delta, k, order, weight_scale=1.0):
    xs, zs = config.complex_weights()
    u = complex(weight_scale) / TWO_PI_I
    n, r = config.n, config.r
    d = tuple(delta)[k]
    coeffs = {}
    for e in range(order + 1):
        c = complex((-1.0) ** (((r - 1) * e) % 2))
        for j in range(n):
            c *= recip_gamma(1 + (xs[d] - xs[j]) * u + e)
            c *= recip_gamma(1 + (zs[j] - xs[d]) * u - e)
        coeffs[e,] = c
    return OffsetSeries((xs[d] * u,), coeffs, order)


def _series_outcome(build, *args):
    """Every term in key order and the metadata, or the error raised."""
    try:
        s = build(*args)
    except (NonFiniteError, PoleError) as error:
        return type(error), str(error)
    return list(s.coeffs.items()), s.offsets, s.prefactor, s.order


_SCALES = (1.0, 2.0, 3.0 + 1.0j, 1.0j, -1.0)


@settings(max_examples=30, deadline=None)
@example(seed=0, n=5, r=4, pick=0, side="minus", scale=3.0 + 1.0j, order=5)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 5), r=st.integers(1, 4),
       pick=st.integers(0, 9), side=st.sampled_from(["plus", "minus"]),
       scale=st.sampled_from(_SCALES), order=st.integers(0, 12))
def test_series_from_one_kernel_call_equal_the_scalar_loops(seed, n, r, pick, side, scale,
                                                             order):
    # equal floats in the same key order, or the same error, on h_series
    # at either side and on f_factor_series at every slot
    assume(r < n)
    cfg = random_config(n, r, seed=seed)
    deltas = fixed_point_deltas(cfg)
    d = deltas[pick % len(deltas)]
    want = _series_outcome(_h_series_scalar, cfg, side, d, order, scale)
    assert _series_outcome(h_series, cfg, side, d, order, scale) == want
    for k in range(r):
        want = _series_outcome(_f_factor_series_scalar, cfg, d, k, order, scale)
        assert _series_outcome(f_factor_series, cfg, d, k, order, scale) == want


def test_series_table_shifted_by_one_exponent_is_seen(cfg32, monkeypatch):
    # negative control for the identity test: the 1/Gamma rows of exponent
    # e + 1 read in place of those of e must change the series
    table = hypergeom._recip_table

    def shifted(*args):
        return [rows[1:] + rows[-1:] for rows in table(*args)]

    monkeypatch.setattr(hypergeom, "_recip_table", shifted)
    d = (0, 1)
    assert (_series_outcome(h_series, cfg32, "plus", d, 4)
            != _series_outcome(_h_series_scalar, cfg32, "plus", d, 4))
    assert (_series_outcome(f_factor_series, cfg32, d, 1, 4)
            != _series_outcome(_f_factor_series_scalar, cfg32, d, 1, 4))


@pytest.mark.parametrize("n, r, order", [(2, 1, 200), (3, 2, 175)])
def test_series_errors_past_the_overflow_order_are_the_scalar_ones(n, r, order):
    # 1/Gamma overflows past e ~ 171; the error names the first overflowing
    # value in the scalar loop's order, which is not the k-major order at
    # r = 2: slot 1 reaches e = 171 before slot 0 does
    cfg = default_config(n, r)
    outcomes = []
    for d in fixed_point_deltas(cfg):
        for side in ("plus", "minus"):
            got = _series_outcome(h_series, cfg, side, d, order)
            assert got == _series_outcome(_h_series_scalar, cfg, side, d, order)
            outcomes.append(got)
        for k in range(r):
            got = _series_outcome(f_factor_series, cfg, d, k, order)
            assert got == _series_outcome(_f_factor_series_scalar, cfg, d, k, order)
            outcomes.append(got)
    assert all(o[0] is NonFiniteError for o in outcomes)
    if r == 2:
        assert _series_outcome(h_series, cfg, "plus", (0, 1), order) == (
            NonFiniteError, "non-finite kernel value (inf-infj)")
        assert _series_outcome(f_factor_series, cfg, (0, 1), 0, order) == (
            NonFiniteError, "non-finite kernel value (inf+infj)")


# Seeded instances for the bit-for-bit checks of the hoisted bases, each with
# the orders its series are built at: 80 at r <= 2, with 200 past the 1/Gamma
# overflow at r = 1, and 10 at r = 3.
_HOIST_GRID = [(2, 1, (80, 200)), (3, 1, (80, 200)), (3, 2, (80,)), (4, 2, (80,)),
               (4, 3, (10,))]
# 1, and 2 pi i / z for z = 3 + i and z = 2, as i_function_factored builds it
_HOIST_SCALES = (1.0, TWO_PI_I / (3.0 + 1j), TWO_PI_I / 2.0)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n, r, orders", _HOIST_GRID)
def test_series_equal_the_per_argument_loops_on_seeded_instances(n, r, orders, seed):
    # the bases 1 + (x_dk - x_j) u and 1 + (z_j - x_dk) u are computed once
    # per (k, j); each coefficient, or the error raised, is the loop's that
    # computes every 1/Gamma argument afresh
    cfg = random_config(n, r, seed=seed)
    deltas = fixed_point_deltas(cfg)
    for order in orders:
        for scale in _HOIST_SCALES:
            for d in deltas[:2]:
                for side in ("plus", "minus"):
                    want = _series_outcome(_h_series_scalar, cfg, side, d, order, scale)
                    assert _series_outcome(h_series, cfg, side, d, order, scale) == want
                for k in range(r):
                    want = _series_outcome(_f_factor_series_scalar, cfg, d, k, order, scale)
                    assert _series_outcome(f_factor_series, cfg, d, k, order, scale) == want


def test_series_with_one_base_moved_by_one_ulp_are_seen(cfg32, monkeypatch):
    # negative control: the 1/Gamma row of one base 1 + (z_j - x_d0) u,
    # moved by one ulp, must change the series
    table = hypergeom._recip_table

    def moved(config, d, order, u):
        rows = [[list(row) for row in slot] for slot in table(config, d, order, u)]
        xs, zs = config.complex_weights()
        j = next(j for j in range(config.n) if j != d[0])
        base = 1 + (zs[j] - xs[d[0]]) * u
        base = complex(math.nextafter(base.real, math.inf), base.imag)
        for e, row in enumerate(rows[0]):
            row[2 * j + 1] = recip_gamma(base - e)
        return rows

    monkeypatch.setattr(hypergeom, "_recip_table", moved)
    d = (0, 1)
    assert (_series_outcome(h_series, cfg32, "plus", d, 80)
            != _series_outcome(_h_series_scalar, cfg32, "plus", d, 80))
    assert (_series_outcome(f_factor_series, cfg32, d, 0, 80)
            != _series_outcome(_f_factor_series_scalar, cfg32, d, 0, 80))


def _i_function_per_factor(config, side, delta, order, ctx, moved=False):
    """``i_function`` as it was before z_j - x_dk, x_dk - x_j and the pair
    differences were computed once: each factor is its own sum.  With
    ``moved`` the first slot's first z_j - x_dk is one ulp larger, the
    negative control."""
    if side == "minus":
        return _i_function_per_factor(config.flipped(), "plus", delta, order, ctx, moved)
    xs, zs = config.complex_weights()
    zv = ctx.z
    n, r = config.n, config.r
    d = tuple(delta)
    offset = sum(xs[i] for i in d) * ctx.inv_z
    slots = []
    for dk in d:
        v = 1.0 + 0j
        values = [v]
        for e in range(1, order + 1):
            hh = 1 - e
            for j in range(n):
                if moved and dk == d[0] and j == 0:
                    num = zs[j] - xs[dk]
                    v *= complex(math.nextafter(num.real, math.inf), num.imag) + hh * zv
                else:
                    v *= zs[j] - xs[dk] + hh * zv
                v /= xs[dk] - xs[j] + e * zv
            values.append(v)
        slots.append(values)
    coeffs = {}
    for es in iter_product(range(order + 1), repeat=r):
        if sum(es) > order:
            continue
        c = 1.0 + 0j
        for k in range(r):
            c *= slots[k][es[k]]
        for k in range(r):
            for i in range(k):
                A = xs[d[k]] - xs[d[i]]
                m = es[k] - es[i]
                c *= (-1.0) ** (m % 2) * (A + m * zv) / A
        tot = sum(es)
        if not cmath.isfinite(c):
            raise NonFiniteError(f"I-series coefficient at delta = {d}, degree e = {tot} is {c!r}")
        coeffs[tot,] = coeffs.get((tot,), 0j) + c
    return OffsetSeries(offsets=(offset,), coeffs=coeffs, order=order)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n, r, orders", _HOIST_GRID)
def test_i_function_equals_the_per_factor_loop_on_seeded_instances(n, r, orders, seed):
    # at z = 1e-8 the coefficients overflow: the same NonFiniteError
    cfg = random_config(n, r, seed=seed)
    deltas = fixed_point_deltas(cfg)
    raised = []
    for z in (3.0 + 1j, 2.0, 0.05j, 1e-8):
        for side in ("plus", "minus"):
            try:
                ctx = PsiContext.create(cfg, side, z)
            except PoleError:
                continue
            for c in (ctx, ctx.rotated()):
                for d in deltas[:2]:
                    want = _series_outcome(_i_function_per_factor, cfg, side, d, orders[0], c)
                    assert _series_outcome(i_function, cfg, side, d, orders[0], c) == want
                    raised.append(want[0] is NonFiniteError)
    assert not all(raised)
    assert any(raised) == (r <= 2)


def test_i_function_with_one_difference_moved_by_one_ulp_is_seen(cfg31):
    ctx = PsiContext.create(cfg31, "plus", 3.0 + 1j)
    for d in fixed_point_deltas(cfg31):
        got = i_function(cfg31, "plus", d, 80, ctx)
        assert got == _i_function_per_factor(cfg31, "plus", d, 80, ctx)
        assert got != _i_function_per_factor(cfg31, "plus", d, 80, ctx, moved=True)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_series_make_one_recip_gamma_call(cfg32, side, monkeypatch):
    # each (slot index, e) row of 2n = 6 1/Gamma values is evaluated once per
    # instance and weight unit, in one call per series that lacks rows;
    # n = 3, r = 2
    sizes = []

    def counted(s):
        sizes.append(np.size(s))
        return recip_gamma(s)

    monkeypatch.setattr(hypergeom, "recip_gamma", counted)
    plus = cfg32.flipped() if side == "minus" else cfg32  # where the rows are held
    h_series(cfg32, side, (0, 2), 7)
    assert sizes == [6 * 2 * 8]
    # held slots make no call, at the same order or a lower one, nor does
    # the factor series of a held slot
    sizes.clear()
    h_series(cfg32, side, (0, 2), 7)
    h_series(cfg32, side, (0, 2), 3)
    f_factor_series(plus, (0, 2), 1, 7)
    assert sizes == []
    # a new slot evaluates its own rows only, and a higher order the
    # missing exponents only: e = 8, ..., 10 of both slots
    h_series(cfg32, side, (0, 1), 7)
    h_series(cfg32, side, (0, 2), 10)
    assert sizes == [6 * 8, 6 * 2 * 3]
    # another weight unit has rows of its own
    f_factor_series(plus, (0, 2), 1, 7, weight_scale=2.0)
    assert sizes[2:] == [6 * 8]
    # and a series read from held rows is the one a new instance builds
    twin = FlopConfig(cfg32.n, cfg32.r, cfg32.x, cfg32.z)
    for d in fixed_point_deltas(cfg32):
        assert _series_outcome(h_series, cfg32, side, d, 10) == _series_outcome(h_series, twin, side, d, 10)


@pytest.mark.parametrize("n, r", [(2, 1), (3, 2)])
def test_series_past_the_overflow_raise_the_same_error_with_rows_held(n, r):
    # an order-200 series lacks its rows past e = 80 on an instance that
    # holds the order-80 rows: the call on them raises, and the error is
    # still the one of the first argument the series meets, as on a new
    # instance and in the scalar loop
    held, fresh = default_config(n, r), default_config(n, r)
    for d in fixed_point_deltas(held):
        for side in ("plus", "minus"):
            h_series(held, side, d, 80)
    for d in fixed_point_deltas(held):
        for side in ("plus", "minus"):
            got = _series_outcome(h_series, held, side, d, 200)
            assert got[0] is NonFiniteError
            assert got == _series_outcome(h_series, fresh, side, d, 200)
            assert got == _series_outcome(_h_series_scalar, fresh, side, d, 200)
        for k in range(r):
            got = _series_outcome(f_factor_series, held, d, k, 200)
            assert got[0] is NonFiniteError
            assert got == _series_outcome(_f_factor_series_scalar, fresh, d, k, 200)


# ----------------------------------------------------------------------
# recurrence annihilator
# ----------------------------------------------------------------------

def test_ode_residuals_r1(cfg21, cfg31):
    for cfg in (cfg21, cfg31):
        for side in ("plus", "minus"):
            for l in range(cfg.n):
                res = ode_check(cfg, h_series(cfg, side, (l,), 40), side)
                assert res < 1e-10


def test_ode_residuals_f_factors(cfg32):
    for dp in fixed_point_deltas(cfg32):
        for k in range(2):
            res = ode_check(cfg32, f_factor_series(cfg32, dp, k, 40), "plus")
            assert res < 1e-10


def test_ode_residuals_f_factors_near_gamma_poles():
    # this instance evaluates 1/Gamma at -38 + 2.9e-5i, next to a zero; a
    # 1/Gamma three digits short of full relative accuracy there pushed the
    # residual to 1.2e-10
    cfg = random_config(3, 2, seed="0:1:3:2")
    for dp in fixed_point_deltas(cfg):
        for k in range(2):
            assert ode_check(cfg, f_factor_series(cfg, dp, k, 40), "plus") < 1e-11


def test_one_variable_readers_reject_a_two_variable_series(cfg32):
    s = h_series(cfg32, "plus", (0, 1), 4)
    for side in ("plus", "minus"):
        with pytest.raises(ValueError, match="one-variable"):
            ode_check(cfg32, s, side)
    with pytest.raises(ValueError, match="one-variable"):
        s.to_json_dict()
    with pytest.raises(ValueError, match="2 exponents"):
        s.coefficient(1)
    assert s.coefficient(1, 2) == s.coeffs[1, 2]


def test_ode_detects_perturbation(cfg21):
    s = h_series(cfg21, "plus", (0,), 40)
    coeffs = dict(s.coeffs)
    coeffs[7,] *= 1.0 + 1e-3
    assert ode_check(cfg21, replace(s, coeffs=coeffs), "plus") > 1e-4


def test_ode_couples_adjacent_indices_only(cfg21):
    # perturbing c_{e0} must leave residuals at e < e0 untouched
    s = h_series(cfg21, "plus", (0,), 20)
    coeffs = dict(s.coeffs)
    e0 = 12
    coeffs[e0,] *= 1.0 + 1e-3

    def residuals(series):
        out = []
        for e in range(series.order + 1):
            trimmed = replace(
                series, coeffs={k: v for k, v in series.coeffs.items() if k[0] <= e}, order=e
            )
            out.append(ode_check(cfg21, trimmed, "plus"))
        return out

    base = residuals(s)
    bumped = residuals(replace(s, coeffs=coeffs))
    for e in range(e0):
        assert abs(base[e] - bumped[e]) < 1e-14


def _ode_check_scalar(config, series, side):
    """``ode_check`` as a loop over the exponents, one residual at a time,
    each product a Python complex product."""
    if side == "minus":
        return _ode_check_scalar(config.flipped(), series, "plus")
    x_roots, z_roots, sign = hypergeom._ode_operator(config)

    def prod(roots, theta):
        out = 1.0 + 0j
        for root in roots:
            out *= theta - root
        return out

    a = series.offset
    worst = 0.0
    for e in range(series.order + 1):
        lhs = series.coefficient(e) * prod(x_roots, a + e)
        rhs = sign * series.coefficient(e - 1) * prod(z_roots, a + e - 1) if e > 0 else 0j
        denom = max(abs(lhs), abs(rhs), 1e-300)
        worst = hypergeom.worst_error(worst, abs(lhs - rhs) / denom)
    return worst


_ODE_GRID = [(n, r) for n in range(2, 6) for r in range(1, min(n, 4))]


@pytest.mark.parametrize("n, r", _ODE_GRID)
def test_ode_check_equals_the_scalar_loop(n, r):
    # on both sides, for the r = 1 series and every factor series, and with
    # one coefficient perturbed so that the residual is large
    checked = 0
    for seed in (0, 1):
        cfg = random_config(n, r, seed=seed)
        for side in ("plus", "minus"):
            plus = cfg.flipped() if side == "minus" else cfg
            series = [f_factor_series(plus, d, k, 40)
                      for d in fixed_point_deltas(plus) for k in range(r)]
            if r == 1:
                series += [h_series(cfg, side, (l,), 40) for l in range(n)]
            for s in series:
                bumped = replace(s, coeffs={**s.coeffs, (7,): s.coeffs[7,] * (1.0 + 1e-3)})
                for t in (s, bumped):
                    got = ode_check(cfg, t, side)
                    assert got == _ode_check_scalar(cfg, t, side)
                    checked += 1
                assert got > 1e-4
    assert checked >= 2 * 2 * 2 * n


def test_ode_check_of_a_nan_coefficient_is_nan(cfg21):
    s = h_series(cfg21, "plus", (0,), 20)
    for e in (0, 7, 20):
        nan = replace(s, coeffs={**s.coeffs, (e,): complex(math.nan, 0.0)})
        assert math.isnan(ode_check(cfg21, nan, "plus"))
        assert math.isnan(_ode_check_scalar(cfg21, nan, "plus"))


# ----------------------------------------------------------------------
# path and contour
# ----------------------------------------------------------------------

def test_path_standard_shape(cfg21):
    p = PathSpec.standard(cfg21)
    assert p.points[0].real < -4
    assert p.points[-1].real > 4
    heights = [pt.imag for pt in p.points if abs(pt.real) < 0.5]
    assert all(abs(h - math.pi) < 1e-9 for h in heights)


def test_path_rejects_pole_line(cfg21):
    h_bad = (cfg21.n - cfg21.r + 1) * math.pi
    with pytest.raises(PathError):
        PathSpec(points=(complex(0.0, h_bad),), wall_height=(cfg21.n - cfg21.r) * math.pi)


def test_integrand_decays_along_contour(cfg21):
    w = math.log(0.5) + 1j * math.pi
    mid = abs(barnes_integrand(complex(-0.5, 0.0), w, cfg21, 0))
    far = abs(barnes_integrand(complex(-0.5, 25.0), w, cfg21, 0))
    assert far < 1e-20 * mid


def _circle_residue(fn, center: complex, radius: float = 1e-2, points: int = 256) -> complex:
    # independent oracle: trapezoid quadrature around a small circle
    total = 0j
    for k in range(points):
        theta = 2.0 * math.pi * k / points
        s = center + radius * cmath.exp(1j * theta)
        total += fn(s) * radius * cmath.exp(1j * theta)
    return total / points


def test_residue_at_integer_reproduces_series_term(cfg21):
    w = math.log(0.4) + 1j * math.pi
    xs, zs = cfg21.complex_weights()
    prefactor = 1.0 + 0j
    for i in range(2):
        prefactor *= -1j * cmath.sinh((xs[0] - zs[i]) / 2.0)
    prefactor /= math.pi ** 2
    series = h_series(cfg21, "plus", (0,), 6)
    for e in (0, 2):
        res = _circle_residue(lambda s: barnes_integrand(s, w, cfg21, 0), complex(e))
        got = prefactor * res
        want = series.coefficient(e) * cmath.exp(w * (series.offset + e))
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_residue_at_shifted_pole_reproduces_transfer_term(cfg21):
    # closing on the other side: the d = 0 residue of the k-th family carries
    # exactly the transfer coefficient times the minus-series leading term
    w = math.log(3.0) + 1j * math.pi
    xs, zs = cfg21.complex_weights()
    u = 1.0 / TWO_PI_I
    l = 0
    prefactor = 1.0 + 0j
    for i in range(2):
        prefactor *= -1j * cmath.sinh((xs[l] - zs[i]) / 2.0)
    prefactor /= math.pi ** 2
    for k in range(2):
        center = -(xs[l] - zs[k]) * u
        res = _circle_residue(lambda s: barnes_integrand(s, w, cfg21, l), center, radius=5e-3)
        got = -prefactor * res
        minus = h_series(cfg21, "minus", (k,), 2)
        want = coeff_C(cfg21, (k,), (l,)) * minus.coefficient(0) * cmath.exp(
            -w * minus.offset
        )
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_barnes_matches_series_inside(cfg21):
    w = math.log(0.3) + 1j * math.pi
    for l in range(2):
        series_val = h_series(cfg21, "plus", (l,), 80).eval(w)
        got = barnes_integrate(w, cfg21, l, tol=1e-12)
        assert abs(got - series_val) <= 1e-8 * abs(series_val)


def test_barnes_matches_transfer_past_wall(cfg21):
    w = math.log(3.0) + 1j * math.pi
    for l in range(2):
        want = sum(
            coeff_C(cfg21, (k,), (l,)) * h_series(cfg21, "minus", (k,), 80).eval(-w)
            for k in range(2)
        )
        got = barnes_integrate(w, cfg21, l, tol=1e-12)
        assert abs(got - want) <= 1e-8 * abs(want)


def test_barnes_guard_on_pole_line(cfg21):
    bad = math.log(3.0) + 1j * (cfg21.n - cfg21.r + 1) * math.pi
    with pytest.raises(NonConvergenceError):
        barnes_integrate(bad, cfg21, 0)
    with pytest.raises(ValueError):
        barnes_integrate(math.log(0.3) + 1j * math.pi, cfg21, 0, tol=1e-15)


def _barnes_oracle(config, l, ws, weight_scale, breakpoints=(0,), maxdegree=5, line=True):
    """30-digit mpmath.quad over the whole line Re s = -1/2, one value per w.

    Adds the residues of the poles right of the line and multiplies by the
    sine prefactor, all recomputed in mpmath.  The w-independent part of
    the integrand is cached per node, so the values for several w share
    their Gamma evaluations.  The line is split at the heights
    ``breakpoints``, and each piece gets tanh-sinh up to ``maxdegree``.
    With ``line`` false the line integral is left out: the values are the
    residues' part alone, -prefactor * sum of residues.
    """
    with mpmath.workdps(30):
        n, r = config.n, config.r
        x = [mpmath.mpf(v.numerator) / v.denominator for v in config.x]
        z = [mpmath.mpf(v.numerator) / v.denominator for v in config.z]
        scale = mpmath.mpc(weight_scale)
        u = scale / (2j * mpmath.pi)
        us = [(x[l] - zi) * u for zi in z]
        vs = [(x[l] - xj) * u for xj in x]
        shift = 1j * mpmath.pi * (n - r)

        def gammas(s, skip=None):
            out = 1
            for i, ui in enumerate(us):
                if i != skip:
                    out *= mpmath.gamma(ui + s)
            for vj in vs:
                out *= mpmath.rgamma(1 + vj + s)
            return out

        cache = {}

        def kernel(t):
            if t not in cache:
                s = mpmath.mpc(-0.5, t)
                cache[t] = mpmath.pi / mpmath.sin(mpmath.pi * s) * gammas(s) * mpmath.exp(-shift * s)
            return cache[t]

        prefactor = mpmath.fprod(mpmath.sin(scale * (x[l] - zi) / 2j) for zi in z) / mpmath.pi ** n
        out = []
        for w in ws:
            w = mpmath.mpc(w)
            integral = 0
            if line:
                # at the default split, degree 5 of tanh-sinh already estimates
                # its error near 1e-30 for the shipped configs
                integral, err = mpmath.quad(
                    lambda t: kernel(t) * mpmath.exp(w * (mpmath.mpc(-0.5, t) + x[l] * u)),
                    [-mpmath.inf, *breakpoints, mpmath.inf], maxdegree=maxdegree, error=True,
                )
                assert err < 1e-20
            residues = 0
            for k in range(n):
                for d in range(100):
                    s0 = -us[k] - d
                    if s0.real <= -0.5:
                        break
                    residues += (mpmath.pi / mpmath.sin(mpmath.pi * s0) * gammas(s0, skip=k)
                                 * mpmath.exp(w * (s0 + x[l] * u) - shift * s0)
                                 * (-1) ** d / mpmath.factorial(d))
            out.append(complex(prefactor * (-integral / (2 * mpmath.pi) - residues)))
        return out


@pytest.mark.parametrize("n", [2, 3])
def test_barnes_matches_mpmath_contour_oracle(n):
    # before the wall, on it and past it
    cfg = default_config(n, 1)
    ws = [complex(re, (n - 1) * math.pi) for re in (-1.0, 0.0, 1.0)]
    tol = 1e-10
    for l in range(n):
        for w, want in zip(ws, _barnes_oracle(cfg, l, ws, 1.0)):
            got = barnes_integrate(w, cfg, l, tol=tol)
            assert abs(got - want) <= tol, (l, w)


def _rounding_and_budget(error: NonConvergenceError) -> tuple[float, float]:
    """The rounding estimate and its budget, as a trapezoidal NonConvergenceError states them."""
    found = re.search(r"rounding of the terms (\S+) against budget (\S+)$", str(error))
    return float(found[1]), float(found[2])


def _spy_nodes(monkeypatch):
    """Record every node array that ``barnes_integrate`` passes to the integrand."""
    calls = []

    def spy(s, *args, **kwargs):
        calls.append(np.array(s))
        return barnes_integrand(s, *args, **kwargs)

    monkeypatch.setattr(hypergeom, "barnes_integrand", spy)
    return calls


def test_barnes_height_from_the_ladder(cfg21, monkeypatch):
    # the first integrand call holds the whole ladder T_k = 4 * 1.2^k <= 200
    # at +-T_k; the quadrature then stops at the lowest rung from which the
    # tail bound, recomputed here from those values, is below tol / 10 on
    # every rung up to the top
    calls = _spy_nodes(monkeypatch)
    tol = 1e-10
    ladder = 4.0 * 1.2 ** np.arange(22)
    assert ladder[-1] <= 200.0 < ladder[-1] * 1.2
    heights = []
    for w in (complex(-3.0, math.pi), complex(0.0, 0.3), complex(2.0, 1.9 * math.pi)):
        calls.clear()
        barnes_integrate(w, cfg21, 0, tol=tol)
        np.testing.assert_allclose(calls[0], -0.5 + 1j * np.concatenate([ladder, -ladder]))
        f = np.abs(barnes_integrand(calls[0], w, cfg21, 0))
        m_up, m_down = hypergeom._decay_margins(cfg21, w)
        prefactor = abs(hypergeom._mb_prefactor(cfg21, 0))
        bound = (f[:22] / m_up + f[22:] / m_down) * 10.0 * prefactor / (2.0 * math.pi)
        passes = bound < tol / 10.0
        k = next(k for k in range(22) if passes[k:].all())
        # the line's first call holds its nodes t = j / 16 in [-T, T]
        assert np.max(np.abs(calls[1].imag)) == math.floor(16.0 * ladder[k]) / 16.0
        heights.append(ladder[k])
    # mid-strip the bound asks for less than the old floor T = 20, near
    # the strip's edge for more
    assert heights[0] < 20.0 < heights[1]
    # where |integrand| rises past a passing rung, as |t|^p exp(-m |t|)
    # does for p > 0, T is above every failing one: bounds that pass at
    # T_0 and T_1, fail from T_2 to T_17 and pass from T_18 = 106.5 on
    tail_bounds = hypergeom._tail_bounds

    def rising(integrand, margins, scale):
        heights, _ = tail_bounds(integrand, margins, scale)
        failing = (np.arange(heights.size) >= 2) & (np.arange(heights.size) < 18)
        return heights, np.where(failing, 1.0, 0.0)

    monkeypatch.setattr(hypergeom, "_tail_bounds", rising)
    calls.clear()
    barnes_integrate(complex(-3.0, math.pi), cfg21, 0, tol=tol)
    assert np.max(np.abs(calls[1].imag)) == math.floor(16.0 * ladder[18]) / 16.0 > 100.0


def test_barnes_no_rung_meets_bound_raises(cfg21):
    # 0.06 above the strip's lower edge the integrand decays like
    # exp(-0.06 t): no rung up to the top one, 184.02, meets the bound, and
    # the error reports the bound at the top rung; 0.3 above the edge a
    # rung meets it
    with pytest.raises(NonConvergenceError, match=r"tail bound 8\.999e-11 not met by T = 184\.02$"):
        barnes_integrate(complex(-1.0, 0.06), cfg21, 0, tol=1e-10)
    assert barnes_integrate(complex(-1.0, 0.3), cfg21, 0, tol=1e-10) is not None


def _log_integrand_parts(config, l, t):
    """log of the integrand at s = -1/2 + i t, as (w-free part, s + a_l).

    The integrand at w is exp(part + w (s + a_l)); kept in log space,
    because the w-free part alone overflows at large |t|.
    """
    n, r = config.n, config.r
    a_l, us, vs = hypergeom._mb_data(config, l)
    s = -0.5 + 1j * t
    acc = log_gamma(s) + log_gamma(1.0 - s) - 1j * math.pi * (n - r) * s
    for ui in us:
        acc += log_gamma(ui + s)
    for vj in vs:
        acc -= log_gamma(1.0 + vj + s)
    return acc, s + a_l


def _tail_check(config, l, ws, tol):
    """Per w: the ladder, its tail bounds, and the tails they bound, over tol / 10.

    The tail beyond +-T of |integrand| |prefactor| / (2 pi) is summed with
    step 1/64 out to |t| = 260, and with step 1/8 from there to |t| = 520,
    where even at the margin 0.05 it has fallen by exp(-16) from the top
    rung.
    """
    step = 1.0 / 64
    t = step * np.arange(-260 * 64, 260 * 64 + 1)
    mid = 260 * 64
    far = 260.0 + np.arange(1, 260 * 8 + 1) / 8.0
    far = np.concatenate([far, -far])
    part, shifted = _log_integrand_parts(config, l, t)
    far_part, far_shifted = _log_integrand_parts(config, l, far)
    prefactor = abs(hypergeom._mb_prefactor(config, l))
    out = []
    for w in ws:
        mod = np.exp((part + w * shifted).real) * step * prefactor / (2.0 * math.pi)
        beyond = np.exp((far_part + w * far_shifted).real).sum() / 8.0 * prefactor / (2.0 * math.pi)
        if w == ws[0]:
            want = np.abs(barnes_integrand(-0.5 + 1j * t[mid::640], w, config, l))
            np.testing.assert_allclose(mod[mid::640], want * step * prefactor / (2.0 * math.pi),
                                       rtol=1e-10)
        above = np.cumsum(mod[::-1])[::-1]  # above[k]: nodes k and beyond
        below = np.cumsum(mod)              # below[k]: nodes k and before
        heights, bounds = hypergeom._tail_bounds(
            lambda tt: barnes_integrand(-0.5 + 1j * tt, w, config, l),
            hypergeom._decay_margins(config, w), prefactor)
        k = np.floor(heights / step).astype(int)
        tails = (above[mid + k + 1] + below[mid - k - 1] + beyond) / (tol / 10.0)
        out.append((heights, bounds, tails))
    return out


def _strip_points(cfg):
    """The standard path's points 0.05 or more inside the convergence strip."""
    h = (cfg.n - cfg.r) * math.pi
    return [w for w in PathSpec.standard(cfg).points
            if min(w.imag - (h - math.pi), (h + math.pi) - w.imag) >= 0.05]


def test_barnes_tail_bound_holds_at_every_rung_it_may_stop_at():
    # at every ladder rung from which the tail bound is below tol / 10 on
    # every higher rung, the tail it bounds must be below tol / 10 too;
    # every third standard path point inside the strip of seeded configs
    # with n = 2, 3 and 4, and w at 0.06 and 0.1 from either edge of the
    # strip, where the integrand decays slowest
    tol = 1e-10
    cases = []
    for n, seed in iter_product((2, 3, 4), (0, 1)):
        run = cli.RunConfig.from_json_dict({"seed": seed, "weights": {"seed": seed}, "n": n, "r": 1})
        cfg = run.flop_config()
        points = _strip_points(cfg)[::3]
        edges = [complex(re_w, im) for re_w in (-3.0, 0.0, 3.0) for m in (0.06, 0.1)
                 for im in ((n - 2) * math.pi + m, n * math.pi - m)]
        cases += [(cfg, l, points + edges) for l in range(n)]
    worst = worst_loose = 0.0
    rungs = 0
    near = {"lower": 0, "upper": 0}  # rungs checked within 0.1 of each edge, at n = 4
    for cfg, l, points in cases:
        for w, (heights, bounds, tails) in zip(points, _tail_check(cfg, l, points, tol)):
            m_up, m_down = hypergeom._decay_margins(cfg, w)
            for k in range(len(heights)):
                if (bounds[k:] < tol / 10.0).all():
                    worst = max(worst, tails[k])
                    rungs += 1
                    if cfg.n == 4 and min(m_up, m_down) <= 0.1:
                        near["lower" if m_up < m_down else "upper"] += 1
                if (bounds[k:] / 100.0 < tol / 10.0).all():
                    worst_loose = max(worst_loose, tails[k])
    assert rungs > 1000 and min(near.values()) > 100
    assert worst <= 1.0
    # negative control: a bound a hundred times smaller fails the same check
    assert worst_loose > 1.0


def _cluster_control():
    # a wall-scan instance whose correction poles s = -u_0 and s = -u_2
    # lie 0.0056 apart with residues near +-6.7e4 that cancel to ~1.5e3;
    # the third correction pole, -u_1, is 0.26 away from them
    cfg = FlopConfig(3, 1, (Fraction(2, 25), Fraction(47, 10), Fraction(8, 145)),
                     (Fraction(4, 25), Fraction(-3, 2), Fraction(1, 8)))
    return cfg, 1, complex(-3.0, 2.0 * math.pi)


def test_barnes_pole_cluster_matches_oracle():
    # summed pole by pole the pair is off by 1.9e-9; as one circle integral
    # it meets the absolute tolerance
    cfg, l, w = _cluster_control()
    tol = 1e-10
    want, = _barnes_oracle(cfg, l, [w], 1.0, breakpoints=(-60, -20, -5, 0, 5, 20, 60),
                           maxdegree=7)
    assert abs(barnes_integrate(w, cfg, l, tol=tol) - want) <= tol


def test_pole_cluster_circle_isolates_the_pair():
    cfg, l, w = _cluster_control()
    _, us, _ = hypergeom._mb_data(cfg, l)
    poles = [(k, 0, -us[k]) for k in range(3)]
    pair = [poles[0], poles[2]]
    clusters = hypergeom._pole_clusters(poles, hypergeom._CLUSTER_GAP)
    assert sorted(map(sorted, clusters), key=len) == [[poles[1]], pair]
    center, radius = hypergeom._enclosing_circle(pair, us)
    assert max(abs(center + us[0]), abs(center + us[2])) < radius / 2.0
    # -u_1 is the nearest singularity outside the pair: the radius is half
    # the distance to it
    assert math.isclose(abs(center + us[1]), 2.0 * radius)

    def f(s):
        return barnes_integrand(s, w, cfg, l)

    quad_tol = 1e-12
    pair_sum = hypergeom._circle_sum(f, center, radius, quad_tol)
    # the pair's residues from small circles around each pole, independently
    separate = sum(_circle_residue(f, -us[k], radius=1e-3, points=64) for k in (0, 2))
    assert abs(pair_sum - separate) <= 1e-8 * abs(separate)
    # negative control: radius 0.3 also encloses -u_1 and picks up its residue
    third = _circle_residue(f, -us[1], radius=1e-2, points=64)
    wide = hypergeom._circle_sum(f, center, 0.3, quad_tol)
    assert abs(wide - pair_sum - third) <= 1e-8 * abs(third)
    assert abs(wide - pair_sum) > 1e3 * abs(separate) * 1e-8


def _relative_units(got, want) -> float:
    """Largest relative difference, in rounding units."""
    return max(abs(g - v) / abs(v) for g, v in zip(got, want)) / hypergeom._EPS


def test_barnes_residues_of_a_pair_straddling_zero_match_mpmath(monkeypatch):
    # the seed-0 wall-scan instance at n = 2, l = 0: x_0 lies near both z_k,
    # so the poles -u_0 and -u_1 sit ~0.008 either side of the integer pole
    # s = 0, at +-0.008i.  No circle isolates a cluster that straddles an
    # integer, so barnes_integrate sums the pair's residues one by one.  With
    # the line sum replaced by 0 it returns -prefactor * (their sum)
    cfg = FlopConfig(2, 1, (Fraction(-1, 490), Fraction(1, 10)),
                     (Fraction(-17, 330), Fraction(3, 65)))
    l = 0
    ws = _strip_points(cfg)
    sums = []
    monkeypatch.setattr(hypergeom, "_halving_trapezoid", lambda *args: sums.append(args) or 0.0)
    _, us, _ = hypergeom._mb_data(cfg, l)
    pair = [(k, 0, -us[k]) for k in range(2)]
    assert hypergeom._pole_clusters(pair, hypergeom._CLUSTER_GAP) == [pair[::-1]]
    assert max(abs(p[2]) for p in pair) < 0.03
    assert hypergeom._enclosing_circle(pair, us) is None
    got = [barnes_integrate(w, cfg, l, tol=1e-10) for w in ws]
    want = _barnes_oracle(cfg, l, ws, 1.0, line=False)
    assert len(sums) == len(ws)  # the line's sum only: no circle
    # the two residues do not cancel: their part of the value has modulus
    # ~1, as each has ~0.5.  Each is a product of 2n + 3 rounded factors,
    # so 64 rounding units of that modulus bound its error, the budget
    # barnes_integrate allows a residue before it sums a cluster on a
    # circle instead
    assert _relative_units(got, want) <= 64.0
    # negative control: moving z_0 by 1e-11 moves -u_0 by ~1.6e-12 and
    # fails the same bound
    moved = FlopConfig(2, 1, cfg.x, (cfg.z[0] + Fraction(1, 10 ** 11), cfg.z[1]))
    assert _relative_units(got, _barnes_oracle(moved, l, ws, 1.0, line=False)) > 64.0


def test_barnes_line_sum_beyond_rounding_budget_raises():
    # a wall-scan instance with three correction poles within 0.03 of one
    # another near s = 0.8i: the line's terms reach 1.4e4 in modulus and
    # cancel to ~1e2, so successive trapezoidal sums keep differing by
    # ~1e-12 from rounding alone.  At tol 1e-10 that is above
    # tol / (20 |prefactor|) = 7e-13, and 16 rounding units of the terms,
    # scaled to the result, exceed tol / 20: no value may be returned
    cfg = FlopConfig(3, 1, (Fraction(5), Fraction(-3, 65), Fraction(-1, 33)),
                     (Fraction(19, 320), Fraction(13, 420), Fraction(-21, 205)))
    w = complex(-4.384615384615385, 3.383253626942854)
    with pytest.raises(NonConvergenceError, match="trapezoidal") as raised:
        barnes_integrate(w, cfg, 0, tol=1e-10)
    # the message tells a rounding-limited failure from a truncation one
    rounding, budget = _rounding_and_budget(raised.value)
    assert rounding > budget
    want = h_series(cfg, "plus", (0,), 80).eval(w)
    assert abs(barnes_integrate(w, cfg, 0, tol=1e-9) - want) <= 1e-9


def test_halving_trapezoid_accepts_rounding_only_within_budget():
    # terms 1e3 cos(theta) with relative noise of one rounding unit: the
    # sums settle near 0 at the noise, which no halving removes.  Below
    # the target they never agree; at the rounding of their terms they
    # agree only where that rounding is within the budget
    noise = np.random.default_rng(0)

    def terms(step, odd):
        k = _circle_indices(step, odd)
        noisy = 1.0 + hypergeom._EPS * noise.standard_normal(k.size)
        return k, 1e3 * np.cos(step * k) * noisy

    floor = 16.0 * hypergeom._EPS * 4e3  # 16 rounding units of sum |terms| = 4e3
    start, min_step = 2.0 * math.pi / 64, 2.0 * math.pi / 1024
    got = hypergeom._halving_trapezoid(terms, start, start, min_step, 1e-20, 2.0 * floor)
    assert abs(got) <= floor
    with pytest.raises(NonConvergenceError, match="trapezoidal"):
        hypergeom._halving_trapezoid(terms, start, start, min_step, 1e-20, floor / 2.0)


def _circle_indices(step, odd):
    """The indices k of the nodes k step on the circle: all of them, or the odd ones."""
    return np.arange(int(odd), round(2.0 * math.pi / step), 1 + odd)


def _geometric_terms(rho):
    """Trapezoidal terms of the mean of 1 / (1 - rho e^{i theta}) over the circle.

    The rule with N nodes sums to 1 / (1 - rho^N) exactly, so its error
    rho^N / (1 - rho^N) squares at every halving of the step.  Returns
    ``terms`` for ``_halving_trapezoid`` and the list of node counts it
    was asked for.
    """
    sizes = []

    def terms(step, odd):
        k = _circle_indices(step, odd)
        sizes.append(k.size)
        return k, 1.0 / (1.0 - rho * np.exp(1j * step * k)) / (2.0 * math.pi)

    return terms, sizes


def test_halving_trapezoid_extrapolates_after_two_halvings():
    # rho = 1/2 from 8 nodes: the first halving differs by ~rho^8 = 4e-3,
    # the second by ~rho^16 = 1.5e-5, both above the target 1e-6.  Their
    # extrapolation err^2 / prev ~ rho^24 = 6e-8 is below it, so the sum
    # at 32 nodes, off by rho^32 = 2e-10, is returned without a third
    # halving.  A rule that extrapolated from a single difference would
    # return the sum at 16 nodes, off by 1.5e-5.  With the first lattice
    # at the start step every halving is one call, so the node total is
    # the node count of the last rule
    start, min_step = 2.0 * math.pi / 8, 2.0 * math.pi / 1024
    terms, sizes = _geometric_terms(0.5)
    got = hypergeom._halving_trapezoid(terms, start, start, min_step, 1e-6, 1e-6)
    assert sum(sizes) == 32
    assert abs(got - 1.0) <= 1e-9
    # negative control: with the rounding of the terms (~1e-15) beyond the
    # budget the extrapolation is off, and the sums must agree below the
    # target by themselves, one halving later
    terms, sizes = _geometric_terms(0.5)
    got = hypergeom._halving_trapezoid(terms, start, start, min_step, 1e-6, 1e-16)
    assert sum(sizes) == 64
    assert abs(got - 1.0) <= 1e-15


def _line_terms(T):
    """Trapezoidal terms of 1 / (1 + t^2) at the nodes k h in [-T, T].

    The ends of the interval cut the integrand where it is not small, so
    the sums change at first order in h with the nodes that fall inside:
    on a lattice whose first index is odd, levels told apart by array
    position instead of by k would move them far beyond rounding.  Returns
    ``terms`` for ``_halving_trapezoid`` and the list of node counts it
    was asked for.
    """
    sizes = []

    def terms(h, odd):
        k = np.arange(math.ceil(-T / h), math.floor(T / h) + 1)
        if odd:
            k = k[k % 2 == 1]
        sizes.append(k.size)
        return k, 1.0 / (1.0 + (h * k) ** 2)

    return terms, sizes


@pytest.mark.parametrize("make_terms, start, target, nodes", [
    (lambda: _geometric_terms(0.5), 2.0 * math.pi / 8, 1e-6, 32),
    (lambda: _geometric_terms(0.9), 2.0 * math.pi / 8, 1e-12, 512),
    (lambda: _line_terms(3.1), 0.5, 3e-3, 99),
    (lambda: _line_terms(3.1), 0.5, 1e-4, 3175),
], ids=["circle-inside", "circle-past", "line-inside", "line-past"])
def test_halving_trapezoid_sums_do_not_depend_on_the_lattice(make_terms, start, target, nodes):
    # with the first call at the start step (one call per level) or on the
    # lattice of step start / 8: the sums are the same floats, whether they
    # stop inside the lattice or halve past it.  The circle's lattice
    # starts at k = 0, the line's at k = -49 on [-3.1, 3.1]
    terms, sizes = make_terms()
    got = hypergeom._halving_trapezoid(terms, start, start, 2.0 ** -12, target, target)
    assert sum(sizes) == nodes
    terms, lattice_sizes = make_terms()
    on_lattice = hypergeom._halving_trapezoid(terms, start, start / 8.0, 2.0 ** -12,
                                              target, target)
    assert sum(lattice_sizes) == max(lattice_sizes[0], nodes)
    assert on_lattice == got


def _final_line_step(calls) -> float:
    # after the ladder's call, the line calls are the ones on Re s = -1/2;
    # the finest step is the least spacing of all their nodes together
    line = np.concatenate([c.imag for c in calls[1:] if (c.real == -0.5).all()])
    return float(np.diff(np.unique(line)).min())


def _wall_scan_point():
    # the seed-0 wall-scan instance at n = 2, l = 0, past the wall
    cfg = FlopConfig(2, 1, (Fraction(-1, 490), Fraction(1, 10)),
                     (Fraction(-17, 330), Fraction(3, 65)))
    return cfg, complex(1.1538461538461533, math.pi)


def test_barnes_wall_scan_point_stops_at_h_one_sixteenth(monkeypatch):
    # Two sums agree below the target only after the halving to h = 1/32, at
    # 351 nodes (44 on the ladder); extrapolating from the halvings to 1/8
    # and 1/16 certifies the sum at 1/16 with 197 nodes, and its value
    # stays within 1e-12 of the one at 1/32.  The sums at h = 1/2 to 1/16
    # come from one call: two in all, the ladder and the line's lattice.
    # Both calls take the three rows that hold no weight from their tables
    # and make 2n - 1 = 3 log_gamma calls, on the ladder's 44 nodes and on
    # the lattice's 153; the residues of the two correction poles then make
    # one more, on the n + 1 = 3 Gamma arguments of each
    cfg, w = _wall_scan_point()
    hypergeom._ladder_rows()  # the tables exist before the count
    hypergeom._lattice_rows(np.arange(-1, 2))
    calls = _spy_nodes(monkeypatch)
    gamma_calls = []  # (the integrand calls so far, the size) of each log_gamma call

    def counted(s):
        gamma_calls.append((len(calls), np.size(s)))
        return log_gamma(s)

    monkeypatch.setattr(hypergeom, "log_gamma", counted)
    got = barnes_integrate(w, cfg, 0, tol=1e-10)
    assert _final_line_step(calls) == 1.0 / 16.0
    assert len(calls) == 2
    assert sum(c.size for c in calls) == 197
    assert gamma_calls == [(1, 44)] * 3 + [(2, 153)] * 3 + [(2, 6)]
    assert abs(got - (0.9991257800749854 + 0.009858076292952305j)) <= 1e-12
    want = sum(coeff_C(cfg, (k,), (0,)) * h_series(cfg, "minus", (k,), 80).eval(-w)
               for k in range(2))
    assert abs(got - want) <= 1e-10


def test_barnes_rounding_limited_point_is_never_extrapolated(monkeypatch):
    # negative control: the seed-0 wall-scan point whose line sums plateau
    # at ~1e-12 from rounding.  16 rounding units of its terms (3.5e-11)
    # exceed the budget 2 pi quad_tol (3.8e-12), so the extrapolation never
    # certifies a sum there; it keeps halving down to h = 1/128, where two
    # sums agree below the target, with 27435 nodes.  Certified at h = 1/32
    # instead, the value would move by 3.8e-12
    cfg = FlopConfig(3, 1, (Fraction(2, 25), Fraction(47, 10), Fraction(8, 145)),
                     (Fraction(4, 25), Fraction(-3, 2), Fraction(1, 8)))
    w = complex(-4.384615384615385, 3.383253626942854)
    calls = _spy_nodes(monkeypatch)
    got = barnes_integrate(w, cfg, 1, tol=1e-10)
    assert _final_line_step(calls) == 1.0 / 128.0
    assert sum(c.size for c in calls) == 27435
    assert abs(got - (-98.3783572757193 - 46.098278840261436j)) <= 1e-12


def _per_level_trapezoid(terms, step, lattice_step, min_step, target, budget):
    """``_halving_trapezoid`` without its lattice: one ``terms`` call per level."""
    _, values = terms(step, False)
    total, size = step * np.add.reduce(values), step * np.add.reduce(np.abs(values))
    prev = None
    while True:
        _, values = terms(0.5 * step, True)
        refined = 0.5 * (total + step * np.add.reduce(values))
        size = 0.5 * (size + step * np.add.reduce(np.abs(values)))
        step *= 0.5
        err = abs(refined - total)
        rounding = 16.0 * hypergeom._EPS * size
        extrapolated = prev is not None and err * err < target * prev
        if err < target or (err < rounding or extrapolated) and rounding <= budget:
            return refined
        if step <= min_step:
            raise NonConvergenceError(
                f"trapezoidal sums still differ by {err:.3e} at step {step:g}; "
                f"rounding of the terms {rounding:.3e} against budget {budget:.3e}"
            )
        total, prev = refined, err


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 4), l=st.integers(0, 3),
       points=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-0.98, 0.98)),
                       min_size=4, max_size=4))
def test_barnes_integrate_equals_the_per_level_sums(seed, n, l, points):
    # the line's sums at h = 1/2 to 1/16 and the circles' at 64 and 128
    # nodes come from one call on the finest lattice; the value must be
    # the one that one call per level gives, to the bit, or both raise the
    # same error.  Random generic weights, four w across the strip
    assume(l < n)
    cfg = random_config(n, 1, seed)
    ws = [complex(re_w, (n - 1 + height) * math.pi) for re_w, height in points]
    got = [_barnes_outcome(w, cfg, l) for w in ws]
    with mock.patch.object(hypergeom, "_halving_trapezoid", _per_level_trapezoid):
        assert got == [_barnes_outcome(w, cfg, l) for w in ws]


@pytest.mark.parametrize("w", [complex(math.inf, math.pi), complex(math.nan, math.pi),
                               complex(1.0, math.nan)])
def test_barnes_non_finite_w_raises_before_any_node(w, monkeypatch):
    calls = _spy_nodes(monkeypatch)
    with pytest.raises(NonFiniteError, match="non-finite w"):
        barnes_integrate(w, default_config(2, 1), 0)
    assert calls == []


def _integrand_with_every_row(s, w, config, l, rows=None):
    """``barnes_integrand`` that ignores ``rows``: all 2n + 2 log_gamma calls."""
    return barnes_integrand(s, w, config, l)


def _barnes_outcome(w, cfg, l):
    try:
        return barnes_integrate(w, cfg, l, tol=1e-10)
    except (NonConvergenceError, NonFiniteError, PoleError) as error:
        return type(error), str(error)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 4), l=st.integers(0, 3),
       size=st.sampled_from([Fraction(1, 10), Fraction(1, 2)]),
       points=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-0.98, 0.98)),
                       min_size=3, max_size=3))
def test_barnes_lattice_rows_from_the_table_equal_every_row_computed(seed, n, l, size, points):
    # the ladder and lattice calls take log Gamma(s) + log Gamma(1 - s) and
    # log Gamma(1 + s) from their process-wide tables; the value must be the
    # one the integrand gives with all 2n + 2 rows computed, to the bit, or
    # both raise the same error
    assume(l < n)
    cfg = random_config(n, 1, seed, scale=size)
    ws = [complex(re_w, (n - 1 + height) * math.pi) for re_w, height in points]
    got = [_barnes_outcome(w, cfg, l) for w in ws]
    with mock.patch.object(hypergeom, "barnes_integrand", _integrand_with_every_row):
        assert got == [_barnes_outcome(w, cfg, l) for w in ws]


def test_line_rows_are_log_gamma_at_their_nodes_and_never_change(monkeypatch):
    # the table is built on the first line sum, for |t| <= 200, by the
    # integrand's own log_gamma calls on the same nodes; later line sums at
    # other configs, w and fixed points leave it as it is
    monkeypatch.setattr(hypergeom, "_line_rows", None)
    barnes_integrate(complex(-1.0, math.pi), default_config(2, 1), 0)
    pair, own = hypergeom._line_rows
    s = -0.5 + 1j * (np.arange(-3200, 3201) / 16.0)
    np.testing.assert_array_equal(pair, log_gamma(s) + log_gamma(1.0 - s))
    np.testing.assert_array_equal(own, log_gamma(1.0 + s))
    assert not pair.flags.writeable and not own.flags.writeable
    before = pair.tobytes(), own.tobytes()
    for n in (2, 3, 4):
        cfg = random_config(n, 1, seed=n)
        for l in range(n):
            for re_w in (-2.0, 0.5):
                _barnes_outcome(complex(re_w, (n - 1) * math.pi), cfg, l)
    assert tuple(a.tobytes() for a in hypergeom._line_rows) == before


def test_barnes_rows_shifted_by_one_node_are_seen(monkeypatch):
    # negative control for the identity test: rows taken one lattice node
    # off move the value of the seed-0 wall-scan point far past tol
    cfg, w = _wall_scan_point()
    want = barnes_integrate(w, cfg, 0, tol=1e-10)
    rows = hypergeom._lattice_rows

    def shifted(k):
        return rows(k + 1)

    monkeypatch.setattr(hypergeom, "_lattice_rows", shifted)
    assert abs(barnes_integrate(w, cfg, 0, tol=1e-10) - want) > 1e3 * 1e-10


def test_ladder_rows_are_log_gamma_at_their_nodes_and_never_change(monkeypatch):
    # the ladder's table is built on the first call, for the rungs up to
    # 200, by the integrand's own log_gamma calls on the same nodes; later
    # calls at other configs, w and fixed points leave it as it is
    monkeypatch.setattr(hypergeom, "_ladder", None)
    barnes_integrate(complex(-1.0, math.pi), default_config(2, 1), 0)
    t, (pair, own) = hypergeom._ladder
    heights = [4.0]
    while heights[-1] * 1.2 <= 200.0:
        heights.append(heights[-1] * 1.2)
    assert t.tolist() == heights + [-T for T in heights]
    s = -0.5 + 1j * t
    np.testing.assert_array_equal(pair, log_gamma(s) + log_gamma(1.0 - s))
    np.testing.assert_array_equal(own, log_gamma(1.0 + s))
    assert not (t.flags.writeable or pair.flags.writeable or own.flags.writeable)
    before = t.tobytes(), pair.tobytes(), own.tobytes()
    for n in (2, 3, 4):
        cfg = random_config(n, 1, seed=n)
        for l in range(n):
            for re_w in (-2.0, 0.5):
                _barnes_outcome(complex(re_w, (n - 1) * math.pi), cfg, l)
    t_now, (pair_now, own_now) = hypergeom._ladder
    assert (t_now.tobytes(), pair_now.tobytes(), own_now.tobytes()) == before


def test_barnes_ladder_rows_off_by_one_rung_are_seen(monkeypatch):
    # negative control for the identity test: each rung's rows taken from
    # the rung above or below.  0.3 above the strip's lower edge the seed-0
    # wall-scan instance cuts its line at T = 51.4; rows from the rung above
    # make |integrand| at +-T_k read far smaller, cut it at 24.8 and move
    # the value by ~9e-11, and rows from the rung below fail the tail bound
    # up to the top rung
    cfg, _ = _wall_scan_point()
    w = complex(-3.0, 0.3)
    calls = _spy_nodes(monkeypatch)
    want = barnes_integrate(w, cfg, 0, tol=1e-10)
    assert np.abs(calls[1].imag).max() == 51.3125
    rows = hypergeom._ladder_rows

    def rung_off(step):
        def shifted():
            t, (pair, own) = rows()
            rungs = t.size // 2
            off = np.clip(np.arange(rungs) + step, 0, rungs - 1)
            return t, (pair[np.r_[off, off + rungs]], own[np.r_[off, off + rungs]])
        return shifted

    monkeypatch.setattr(hypergeom, "_ladder_rows", rung_off(1))
    calls.clear()
    got = barnes_integrate(w, cfg, 0, tol=1e-10)
    assert np.abs(calls[1].imag).max() == 24.75
    assert abs(got - want) > 1e-11
    monkeypatch.setattr(hypergeom, "_ladder_rows", rung_off(-1))
    with pytest.raises(NonConvergenceError, match="not met by T = 184"):
        barnes_integrate(w, cfg, 0, tol=1e-10)


def _scalar_residues(w, config, a_l, us, vs):
    """``hypergeom._residues`` with one scalar kernel call per factor and pole."""
    n, r = config.n, config.r
    residues = {}
    for k, uk in enumerate(us):
        d = 0
        while (s0 := -uk - d).real > -0.5:
            val = gamma(s0) * gamma(1.0 - s0)
            val *= cmath.exp(w * (s0 + a_l) - 1j * math.pi * (n - r) * s0)
            val *= (-1.0) ** (d % 2) / math.factorial(d)
            for i in range(n):
                if i != k:
                    val *= gamma(us[i] + s0)
            for vj in vs:
                val *= recip_gamma(1.0 + vj + s0)
            residues[k, d, s0] = val
            d += 1
    return residues


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 4), l=st.integers(0, 3),
       points=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-0.98, 0.98)),
                       min_size=2, max_size=2))
def test_barnes_residues_from_one_call_per_kernel_equal_the_scalar_ones(seed, n, l, points):
    # the correction residues take every Gamma value from one log_gamma
    # call and every 1/Gamma value from one recip_gamma call; the value must
    # be the one that a scalar call per factor and pole gives, to the bit,
    # or both raise the same error
    assume(l < n)
    cfg = random_config(n, 1, seed)
    ws = [complex(re_w, (n - 1 + height) * math.pi) for re_w, height in points]
    got = [_barnes_outcome(w, cfg, l) for w in ws]
    with mock.patch.object(hypergeom, "_residues", _scalar_residues):
        assert got == [_barnes_outcome(w, cfg, l) for w in ws]


def _residues_outcome(residues, w, config):
    """The residues at fixed point 0 with the real unit u = 1, u_i = x_0 - z_i
    and v_j = x_0 - x_j, or the (type, message) of their error."""
    xs, zs = config.complex_weights()
    try:
        return residues(w, config, xs[0], [xs[0] - zi for zi in zs], [xs[0] - xj for xj in xs])
    except (NonFiniteError, PoleError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("x, z, error, message", [
    # u = 1 gives u_i = x_0 - z_i: u_1 - u_0 = -1 puts the pole of
    # Gamma(u_1 + s) at the first pole s = -u_0 = 3/10
    (("0", "1/10"), ("3/10", "13/10"), PoleError, "log_gamma pole at s = (-1+0j)"),
    # the same at the second pole, past the first one's four clean factors
    (("0", "1/10", "1/5"), ("-2/5", "3/10", "13/10"), PoleError,
     "log_gamma pole at s = (-1+0j)"),
    # u_1 - u_0 = 200: the residue at s = 3/10 holds Gamma(200), which
    # overflows, though 1/Gamma(1 + v_1 + s) = 1/Gamma(200.3) nearly cancels it
    (("0", "-199"), ("3/10", "-1997/10"), NonFiniteError, "Gamma overflows at s = (200+0j)"),
])
def test_barnes_residue_errors_are_the_scalar_ones(x, z, error, message):
    # at weight scale 1 the poles sit on the imaginary axis, where no such
    # fault occurs, so the kernels get the real unit of a crafted input
    cfg = FlopConfig(len(x), 1, tuple(map(Fraction, x)), tuple(map(Fraction, z)))
    for re_w in (-2.0, 2.0):
        w = complex(re_w, (cfg.n - 1) * math.pi)
        want = _residues_outcome(hypergeom._residues, w, cfg)
        assert want == (error, message)
        assert _residues_outcome(_scalar_residues, w, cfg) == want


def test_barnes_oracle_catches_a_sum_certified_after_one_halving(monkeypatch):
    # negative control for the mpmath oracle test: a rule that returns the
    # sum after its first halving, as an extrapolation from a single
    # difference would, misses the oracle by far more than tol on the
    # default n = 2 instance
    def one_halving(terms, step, lattice_step, min_step, target, budget):
        _, values = terms(step, False)
        _, added = terms(0.5 * step, True)
        return 0.5 * step * (np.add.reduce(values) + np.add.reduce(added))

    cfg = default_config(2, 1)
    ws = [complex(re, math.pi) for re in (-1.0, 0.0, 1.0)]
    want = _barnes_oracle(cfg, 0, ws, 1.0)
    monkeypatch.setattr(hypergeom, "_halving_trapezoid", one_halving)
    worst = max(abs(barnes_integrate(w, cfg, 0, tol=1e-10) - v) for w, v in zip(ws, want))
    assert worst > 1e3 * 1e-10


def test_barnes_integrand_zero_on_a_node():
    # v_0 = (x_1 - x_0) u = -i / 2 pi, so 1/Gamma(1 + v_0 + s) vanishes at
    # the node s = -1 - v_0, a unit left of the line
    cfg = FlopConfig(2, 1, (Fraction(0), Fraction(1)), (Fraction(3, 10), Fraction(-1, 5)))
    _, _, vs = hypergeom._mb_data(cfg, 1)
    zero = -1.0 - vs[0]
    w = complex(0.5, math.pi)
    values = barnes_integrand(np.array([zero, -0.5 + 0.5j]), w, cfg, 1)
    assert values[0] == 0 and values[1] != 0
    # an array with no node at Re s <= -1 has no zero of 1/Gamma and skips
    # the zero mask; beside a zero its nodes have the same values
    nodes = np.array([zero, 0.25 + 0.5j, 0.5 - 1.0j])
    masked = barnes_integrand(nodes, w, cfg, 1)
    assert masked[0] == 0
    np.testing.assert_array_equal(masked[1:], barnes_integrand(nodes[1:], w, cfg, 1))
    # rows passed for the nodes are masked with them, to the same values
    rows = log_gamma(nodes) + log_gamma(1.0 - nodes), log_gamma(1.0 + nodes)
    np.testing.assert_array_equal(barnes_integrand(nodes, w, cfg, 1, rows=rows), masked)


def test_barnes_integrand_of_no_nodes_is_empty():
    cfg = default_config(3, 1)
    for shape in [(0,), (0, 3), (2, 0)]:
        got = barnes_integrand(np.zeros(shape, dtype=complex), complex(-1.0, 2.0 * math.pi), cfg, 0)
        assert got.shape == shape and got.dtype == complex


def test_barnes_integrand_pole_at_a_zero_raises():
    # v_l = 0, so 1/Gamma(1 + s) vanishes at s = -1, where Gamma(s) has a
    # pole: the product Gamma(s) / Gamma(1 + s) = 1/s is finite there, and
    # the integrand raises instead of returning 0
    cfg = FlopConfig(2, 1, (Fraction(0), Fraction(1)), (Fraction(3, 10), Fraction(-1, 5)))
    w = complex(0.5, math.pi)
    for s in (-1.0, np.array([-0.5 + 0.5j, -1.0])):
        with pytest.raises(PoleError):
            barnes_integrand(s, w, cfg, 0)
    assert barnes_integrand(-1.0 + 1e-3, w, cfg, 0) != 0


def _integrand_oracle(config, l, w, nodes, shift=0.0):
    """30-digit mpmath integrand at ``nodes``, and the log-space size of each value.

    The size is the sum of the moduli of the terms whose sum is exponentiated:
    every log Gamma, w (s + a_l) and i pi (n - r) s.  ``shift`` moves the
    argument of the first numerator factor Gamma(u_0 + s).
    """
    with mpmath.workdps(30):
        n, r = config.n, config.r
        x = [mpmath.mpf(v.numerator) / v.denominator for v in config.x]
        z = [mpmath.mpf(v.numerator) / v.denominator for v in config.z]
        u = 1 / (2j * mpmath.pi)
        us = [(x[l] - zi) * u for zi in z]
        vs = [(x[l] - xj) * u for xj in x]
        us[0] += shift
        w = mpmath.mpc(w)
        want, size = [], []
        for s in map(mpmath.mpc, nodes):
            logs = [mpmath.loggamma(s), mpmath.loggamma(1 - s),
                    *(mpmath.loggamma(ui + s) for ui in us),
                    *(-mpmath.loggamma(1 + vj + s) for vj in vs),
                    w * (s + x[l] * u), -1j * mpmath.pi * (n - r) * s]
            want.append(complex(mpmath.exp(mpmath.fsum(logs))))
            size.append(float(mpmath.fsum(abs(v) for v in logs)))
        return np.array(want), np.array(size)


def _integrand_errors(config, l, w, nodes, shift=0.0):
    # each log Gamma value carries an absolute error of a few rounding units
    # of its modulus, and so does the rounded argument it is taken at; after
    # exponentiation that is a relative error of a few eps times the summed
    # moduli of the log terms, which grows like |t| log |t| along the line
    got = barnes_integrand(nodes, w, config, l)
    want, size = _integrand_oracle(config, l, w, nodes, shift)
    assert np.abs(want).min() > 1e-300  # no value near underflow
    return np.abs(got - want) / (hypergeom._EPS * size * np.abs(want))


def test_barnes_integrand_matches_mpmath_at_line_ladder_and_circle_nodes():
    # line nodes up to |t| = 200, the truncation ladder's rungs at +-T_k,
    # and the nodes of a pole cluster's circle; n = 2, 3, 4.  The worst
    # error seen is 2.0 eps times the log-space size; 8 leaves room for
    # another scipy build
    heights, _ = hypergeom._tail_bounds(np.ones_like, (1.0, 1.0), 1.0)
    t = np.concatenate([np.linspace(-200.0, 200.0, 17), [0.25, -1.5], heights, -heights])
    line = -0.5 + 1j * t
    worst = 0.0
    for n in (2, 3, 4):
        cfg = default_config(n, 1)
        w = complex(-1.0, (n - 1) * math.pi)
        for l in (0, n - 1):
            worst = max(worst, _integrand_errors(cfg, l, w, line).max())
    cfg, l, w = _cluster_control()
    _, us, _ = hypergeom._mb_data(cfg, l)
    center, radius = hypergeom._enclosing_circle([(0, 0, -us[0]), (2, 0, -us[2])], us)
    circle = center + radius * np.exp(2j * math.pi * np.arange(128) / 128)
    worst = max(worst, _integrand_errors(cfg, l, w, circle).max())
    assert worst <= 8.0
    # negative control: moving the argument of one factor by 1e-12 is seen
    # on most line nodes
    shifted = _integrand_errors(default_config(3, 1), 0, complex(-1.0, 2.0 * math.pi),
                                line, shift=1e-12)
    assert (shifted > 8.0).mean() > 0.5


@pytest.mark.parametrize("offset", [0.0, 5e-13])
def test_barnes_integrand_pole_in_one_factor_raises(offset):
    # a node where u_0 + s is -1, or within POLE_TOL of it, among other
    # nodes: of the 2n + 2 = 8 Gamma factors only Gamma(u_0 + s) has a pole
    # there, and the pole check of its log_gamma call sees it
    cfg = default_config(3, 1)
    w = complex(-1.0, 2.0 * math.pi)
    _, us, vs = hypergeom._mb_data(cfg, 0)
    bad = -1.0 + offset - us[0]
    assert min(abs(1.0 + vj + bad - round((1.0 + vj + bad).real)) for vj in vs) > 1e-3
    nodes = np.array([-0.5 + 1j, bad, -0.5 - 2j])
    with pytest.raises(PoleError):
        barnes_integrand(nodes, w, cfg, 0)
    assert np.isfinite(barnes_integrand(nodes[[0, 2]], w, cfg, 0)).all()


def test_verify_continuation_report(cfg21):
    rep = verify_continuation_r1(cfg21, tol=1e-8, order=80)
    assert rep.max_err < 1e-8
    assert set(rep.inside_err) == {(0,), (1,)}
    assert rep.coeff_err < 1e-8


def _wall_crossing_statuses():
    return {c.name: c.thunk()[0] for c in collect_cases(SuiteEnv(), "continuation")
            if c.name.startswith("wall-crossing-")}


@pytest.mark.parametrize("n", [2, 3])
def test_verify_continuation_makes_2n_barnes_calls(n, monkeypatch):
    # one inside and one past-wall value per fixed point; the coefficient
    # check reads the ODE, so a sampled fit left in place shows here
    calls = []
    barnes = hypergeom.barnes_integrate
    monkeypatch.setattr(hypergeom, "barnes_integrate", lambda *a, **kw: calls.append(a[0]) or barnes(*a, **kw))
    rep = verify_continuation_r1(default_config(n, 1))
    assert len(calls) == 2 * n
    assert rep.max_err < 1e-8


def test_a_stepper_with_the_wrong_sign_fails_the_wall_crossing_cases(monkeypatch):
    assert _wall_crossing_statuses() == {"wall-crossing-n2-r1": "pass", "wall-crossing-n3-r1": "pass"}
    operator = hypergeom._ode_operator

    def flipped_sign(*a):
        x_roots, z_roots, sign = operator(*a)
        return x_roots, z_roots, -sign

    monkeypatch.setattr(hypergeom, "_ode_operator", flipped_sign)
    assert _wall_crossing_statuses() == {"wall-crossing-n2-r1": "fail", "wall-crossing-n3-r1": "fail"}


def test_one_perturbed_transfer_coefficient_fails_the_wall_crossing_cases(monkeypatch):
    transfer = hypergeom.transition_matrix

    def perturbed(config, kind, scale=1.0):
        mat = transfer(config, kind, scale)
        rows = [list(row) for row in mat.entries]
        rows[0][1] *= 1.0 + 1e-6
        return replace(mat, entries=tuple(map(tuple, rows)))

    monkeypatch.setattr(hypergeom, "transition_matrix", perturbed)
    assert _wall_crossing_statuses() == {"wall-crossing-n2-r1": "fail", "wall-crossing-n3-r1": "fail"}
    # the connection matrix sees it on its own, not only the past-wall values
    for n in (2, 3):
        assert verify_continuation_r1(default_config(n, 1)).coeff_err > 5e-7


def _odefun_transfer(cfg, w_from, w_to, dps, weight_scale):
    """The transfer matrix of the ODE of ``ode_transfer`` at ``weight_scale``
    by mpmath.odefun, at ``dps`` digits, along w = w_from + t for real t from
    0 to w_to - w_from.

    One system carries the n unit jets, the n-th derivative of each from
    (1 - E) f^(n) = -sum_{m<n} (p_m - E q_m) f^(m), E = c e^w, with P and Q
    expanded from their roots at the working precision.
    """
    n = cfg.n
    with mpmath.workdps(dps):
        x_roots, z_roots, sign = hypergeom._ode_operator(cfg, weight_scale)

        def monic(roots):
            coeffs = [mpmath.mpc(1)]
            for root in roots:
                coeffs = [mpmath.mpc(0)] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] -= mpmath.mpc(root) * coeffs[i + 1]
            return coeffs

        p, q = monic(x_roots), monic(z_roots)
        w0 = mpmath.mpc(w_from)

        def rhs(t, y):
            E = sign * mpmath.exp(w0 + t)
            out = []
            for col in range(n):
                f = y[col * n:(col + 1) * n]
                out += f[1:] + [-sum((p[m] - E * q[m]) * f[m] for m in range(n)) / (1 - E)]
            return out

        solution = mpmath.odefun(rhs, 0, [mpmath.mpc(m == col) for col in range(n) for m in range(n)])
        end = solution(mpmath.mpf(w_to.real) - mpmath.mpf(w_from.real))
        return np.array([[complex(end[col * n + m]) for col in range(n)] for m in range(n)])


@pytest.mark.parametrize("n,dps", [(2, 30), (3, 20)])
def test_ode_transfer_matches_mpmath_odefun(n, dps):
    # three steps, each with a dropped tail below eps times the estimated
    # size of its solutions and rounding in sums of up to 42 terms: 1e-14
    # relative to the largest entry is about 45 eps (measured: 9.7e-17 at
    # n = 2 and 8.4e-17 at n = 3 at scale 1).  At scale 1 and at a rotated
    # Chern scale of the central charges, z = 2 at n = 2 and z = 3 + i at
    # n = 3; the steps and their order depend on the singular points
    # alone, which no scale moves
    cfg = default_config(n, 1)
    # the path of verify_continuation_r1, from |q| = 0.3 to 3 at height (n - 1) pi
    w_in, w_out = (math.log(q) + 1j * (n - 1) * math.pi for q in (0.3, 3.0))
    for z in (None, {2: 2.0, 3: 3.0 + 1.0j}[n]):
        scale = 1.0 if z is None else PsiContext.create(cfg, "plus", z=z).rotated().ch_scale
        got = hypergeom.ode_transfer(cfg, w_in, w_out, scale)
        want = _odefun_transfer(cfg, w_in, w_out, dps, scale)
        assert np.abs(got.matrix - want).max() <= 1e-14 * np.abs(want).max(), z
        assert (got.steps, got.terms) == (3, {2: 36, 3: 41}[n])
        assert 0.0 < got.tail < 1e-15


def test_ode_transfer_rejects_a_segment_through_a_singular_point():
    cfg = default_config(2, 1)
    # e^w = c = 1 at w = 2 pi i, on the pole line above the wall height pi
    with pytest.raises(PathError, match="singular point"):
        hypergeom.ode_transfer(cfg, -1.0 + 2j * math.pi, 1.0 + 2j * math.pi)
    with pytest.raises(ValueError, match="not horizontal"):
        hypergeom.ode_transfer(cfg, -1.0 + 1j * math.pi, 1.0)


# ----------------------------------------------------------------------
# I-series
# ----------------------------------------------------------------------

def test_i_function_leading_term_plus(cfg21, cfg32):
    for cfg in (cfg21, cfg32):
        ctx = PsiContext.create(cfg, "plus", z=2.0 + 0j)
        for d in fixed_point_deltas(cfg):
            s = i_function(cfg, "plus", d, 4, ctx)
            assert abs(s.coefficient(0) - 1.0) < 1e-15


@pytest.mark.parametrize("z", [2.0 + 0j, 3.0 + 1j])
def test_i_function_direct_vs_factored_r1(cfg21, z):
    for side in ("plus", "minus"):
        ctx = PsiContext.create(cfg21, side, z=z)
        for d in fixed_point_deltas(cfg21):
            direct = i_function(cfg21, side, d, 20, ctx)
            assembled = i_function_factored(cfg21, side, d, 20, ctx)
            assert abs(direct.offset - assembled.offset) < 1e-13
            for e in range(21):
                diff = abs(direct.coefficient(e) - assembled.coefficient(e))
                assert diff <= 1e-10 * max(1.0, abs(direct.coefficient(e)))


def test_i_function_direct_vs_factored_r2(cfg32):
    ctx = PsiContext.create(cfg32, "plus", z=2.0 + 0j)
    for d in fixed_point_deltas(cfg32):
        direct = i_function(cfg32, "plus", d, 8, ctx)
        assembled = i_function_factored(cfg32, "plus", d, 8, ctx)
        for e in range(9):
            diff = abs(direct.coefficient(e) - assembled.coefficient(e))
            assert diff <= 1e-10 * max(1.0, abs(direct.coefficient(e)))


def test_i_function_reordering_symmetry(cfg32):
    ctx = PsiContext.create(cfg32, "plus", z=2.0 + 0j)
    a = i_function(cfg32, "plus", (0, 2), 8, ctx)
    b = i_function(cfg32, "plus", (2, 0), 8, ctx)
    for e in range(9):
        assert abs(a.coefficient(e) - b.coefficient(e)) < 1e-12 * max(1.0, abs(a.coefficient(e)))


def _i_function_oracle(config, side, delta, order, z, shift=0):
    """35-digit coefficients of the I-series restriction, and per degree the
    sum of |terms| added into it.

    Each side from its own formula at the exact weights, with the numerator
    and the denominator of every slot carried as separate running products
    (no float exponent range to stay inside).  ``shift`` moves h to h + shift
    in the numerator factors, for a negative control.
    """
    with mpmath.workdps(35):
        x = [mpmath.mpf(v.numerator) / v.denominator for v in config.x]
        zw = [mpmath.mpf(v.numerator) / v.denominator for v in config.z]
        zv = mpmath.mpc(z)
        if side == "plus":
            own = [x[i] for i in delta]
            num = [[zj - xd for zj in zw] for xd in own]
            den = [[xd - xj for xj in x] for xd in own]
        else:
            own = [zw[i] for i in delta]
            num = [[zd - xj for xj in x] for zd in own]
            den = [[zi - zd for zi in zw] for zd in own]
        slots = []
        for k in range(len(delta)):
            top, bottom, values = mpmath.mpc(1), mpmath.mpc(1), [mpmath.mpc(1)]
            for e in range(1, order + 1):
                for a in num[k]:
                    top *= a + (1 - e + shift) * zv
                for b in den[k]:
                    bottom *= b + e * zv
                values.append(top / bottom)
            slots.append(values)
        coeffs, bound = {}, {}
        for es in iter_product(range(order + 1), repeat=len(delta)):
            tot = sum(es)
            if tot > order:
                continue
            c = mpmath.fprod(slots[k][e] for k, e in enumerate(es))
            for k in range(len(delta)):
                for i in range(k):
                    A = own[k] - own[i]
                    m = es[k] - es[i] if side == "plus" else es[i] - es[k]
                    c *= (-1) ** (m % 2) * (A + m * zv) / A
            coeffs[tot] = coeffs.get(tot, 0) + c
            bound[tot] = bound.get(tot, 0) + abs(c)
        return coeffs, bound


def _i_function_oracle_error(config, side, order, ctx, shift=0):
    """Worst |got - want| / sum |terms| over every delta and degree."""
    worst = 0.0
    for d in fixed_point_deltas(config):
        coeffs, bound = _i_function_oracle(config, side, d, order, ctx.z, shift)
        got = i_function(config, side, d, order, ctx)
        assert got.coeffs.keys() == {(e,) for e in coeffs}
        for e, want in coeffs.items():
            err = abs(mpmath.mpc(got.coefficient(e)) - want) / bound[e]
            worst = max(worst, float(err))
    return worst


@pytest.mark.parametrize("z", [2.0 + 0j, 3.0 + 1j])
@pytest.mark.parametrize("fixture, order", [("cfg21", 80), ("cfg31", 80), ("cfg32", 12)])
def test_i_function_matches_the_mpmath_oracle(fixture, order, z, request):
    # order 80 reaches the degrees 60 to 80 whose product once overflowed
    # at z = 3 + i on the rotated context
    cfg = request.getfixturevalue(fixture)
    for side in ("plus", "minus"):
        ctx = PsiContext.create(cfg, side, z=z)
        for c in (ctx, ctx.rotated()):
            assert _i_function_oracle_error(cfg, side, order, c) <= 1e-13, (side, c.z)


def test_i_function_oracle_sees_a_shifted_numerator(cfg21):
    # negative control: h -> h + 1 in the numerator factors must not pass
    ctx = PsiContext.create(cfg21, "plus", z=3.0 + 1j).rotated()
    assert _i_function_oracle_error(cfg21, "plus", 12, ctx, shift=1) > 1e-3
    assert _i_function_oracle_error(cfg21, "plus", 12, ctx) <= 1e-13


def test_i_function_raises_on_a_coefficient_that_is_not_finite():
    # z_0 - x_0 = -2e308 overflows, so the degree-1 coefficient is not
    # finite; the context is built directly, since create() converts that
    # tangent weight to a float and overflows first
    big = Fraction(10 ** 308)
    cfg = FlopConfig(2, 1, (big, Fraction(0)), (-big, Fraction(1)))
    ctx = PsiContext(config=cfg, side="plus", log_z=math.log(2.0))
    with pytest.raises(NonFiniteError, match=re.escape(
            "I-series coefficient at delta = (0,), degree e = 1")):
        i_function(cfg, "plus", (0,), 4, ctx)


def _continued_i_vector(config, w, ctx):
    """The continued I-vector of ``central_charge_plus_continued`` at order
    80, one entry per plus fixed point, read through its pairing with e(N_d)
    times the point class at d."""
    deltas = fixed_point_deltas(config)
    table = config.fixed_point_table
    images = [LocalizedCohClass("plus", {d: table["plus", d].euler_value if d == dp else 0j
                                         for d in deltas}) for dp in deltas]
    return central_charge_plus_continued(config, images, w, ctx, order=80)


def test_continued_i_vector_agrees_inside(cfg21):
    # inside the wall the continued I-vector equals the I-series, at a w
    # other than the start log Q_INSIDE of its ODE segment
    ctx = PsiContext.create(cfg21, "plus", z=2.0 + 0j)
    w = math.log(0.6) + 1j * math.pi
    got = _continued_i_vector(cfg21, w, ctx)
    for l in range(2):
        series = i_function(cfg21, "plus", (l,), 80, ctx.rotated()).eval(w)
        assert abs(got[l] - series) <= 1e-12 * abs(series)


@pytest.mark.parametrize("n", [2, 3])
def test_continued_i_restrictions_match_the_contour_oracle(n):
    # the I-restriction at l is gamma_class times the plus series at the
    # rotated Chern scale, continued along the ODE at that scale; the
    # series' contour integral at that scale, in mpmath, is an independent
    # reference before the wall, on it and past it.  At z = 2 the scale
    # makes the weight unit real, which moves the pole families off the
    # imaginary axis and towards the line
    cfg = default_config(n, 1)
    ws = [complex(re, (n - 1) * math.pi) for re in (-1.0, 0.0, 1.0)]
    transfer = hypergeom.ode_transfer
    for z in (2.0, 3.0 + 1.0j):
        ctx = PsiContext.create(cfg, "plus", z=z)
        rot = ctx.rotated()
        gammas = [gamma_class(cfg, "plus", (l,), rot.inv_z) for l in range(n)]
        want = [[g * v for g, v in zip(gammas, values)]
                for values in zip(*(_barnes_oracle(cfg, l, ws, rot.ch_scale) for l in range(n)))]

        def error():
            return max(abs(g - v) / abs(gam) for w, row in zip(ws, want)
                       for g, v, gam in zip(_continued_i_vector(cfg, w, ctx), row, gammas))

        assert error() <= 1e-10, z
        # negative control: the ODE at scale 1 instead of the series' scale
        with mock.patch.object(hypergeom, "ode_transfer",
                               lambda config, w_from, w_to, scale: transfer(config, w_from, w_to)):
            assert error() > 1e-4, z


def test_continued_charges_outside_the_strip_or_at_r_above_one_raise(cfg21, cfg32):
    ctx = PsiContext.create(cfg21, "plus", z=2.0)
    images = [psi_apply(ctx, unit_class(cfg21, "plus"))]
    # the strip 0 < Im w < 2 pi, 0.05 or more from its edges, as for Barnes
    for w in (complex(1.0, 2.0 * math.pi), complex(-1.0, 0.04), complex(1.0, 2.0 * math.pi - 0.04)):
        with pytest.raises(NonConvergenceError, match="outside the convergence strip"):
            central_charge_plus_continued(cfg21, images, w, ctx, order=80)
    with pytest.raises(NonFiniteError, match="non-finite w"):
        central_charge_plus_continued(cfg21, images, complex(math.nan, math.pi), ctx, order=80)
    # 0.05 to 0.1 from an edge, past Re w = 0, the segment runs within 0.1
    # of the singular point e^w = 1 at w = 0
    with pytest.raises(PathError, match="singular point"):
        central_charge_plus_continued(cfg21, images, complex(1.0, 0.07), ctx, order=80)
    ctx32 = PsiContext.create(cfg32, "plus", z=2.0)
    with pytest.raises(ValueError, match="needs r = 1"):
        central_charge_plus_continued(cfg32, [psi_apply(ctx32, unit_class(cfg32, "plus"))],
                                      complex(1.0, math.pi), ctx32, order=80)


# ----------------------------------------------------------------------
# central charge
# ----------------------------------------------------------------------

def test_central_charge_linear(cfg21):
    ctx = PsiContext.create(cfg21, "minus", z=2.0 + 0j)
    w = -1.2 + 1j * math.pi
    A = generator_e(cfg21, (0,))
    B = generator_e(cfg21, (1,))
    za, = central_charge(cfg21, [psi_apply(ctx, A)], w, ctx, order=40)
    zb, = central_charge(cfg21, [psi_apply(ctx, B)], w, ctx, order=40)
    zab, = central_charge(cfg21, [psi_apply(ctx, A + B)], w, ctx, order=40)
    assert abs(zab - za - zb) <= 1e-12 * max(1.0, abs(zab))


def test_central_charge_continuation(cfg21):
    z = 2.0 + 0j
    ctxm = PsiContext.create(cfg21, "minus", z=z)
    ctxp = PsiContext.create(cfg21, "plus", z=z)
    w = math.log(3.0) + 1j * math.pi
    for kind in ("one", "gen"):
        if kind == "one":
            Em = unit_class(cfg21, "minus")
            psi_p = psi_on_coh(ctxp, LocalizedCohClass("plus", fm_transform(cfg21, Em, ctxp.ch_scale)))
        else:
            Em = generator_e(cfg21, (0,))
            psi_p = psi_apply(ctxp, fm_generator_formula(cfg21, (0,)))
        z_minus, = central_charge(cfg21, [psi_apply(ctxm, Em)], -w, ctxm, order=80)
        z_plus, = central_charge_plus_continued(cfg21, [psi_p], w, ctxp, order=80)
        assert abs(z_plus - z_minus) <= 1e-6 * abs(z_minus)


def _calls_on(monkeypatch, name, config):
    """The arguments of each call of ``hypergeom.<name>`` on ``config``
    itself, its first or second argument; the minus side's call on the
    flip is not one.  Argument 2 is the fixed point of ``i_function``."""
    calls = []
    fn = getattr(hypergeom, name)

    def counted(*args, **kw):
        if any(a is config for a in args[:2]):
            calls.append(args)
        return fn(*args, **kw)

    monkeypatch.setattr(hypergeom, name, counted)
    return calls


@pytest.mark.parametrize("z", [2.0 + 0j, 3.0 + 1j])
def test_three_charges_from_one_i_vector_equal_the_single_ones(cfg21, z, monkeypatch):
    # the I-vector does not depend on the class: three images paired with
    # one vector give the charges of three calls with one image each, from
    # one i_function per fixed point, or past the wall one ODE transfer for
    # the whole vector and no Barnes integral
    deltas = fixed_point_deltas(cfg21)
    series = _calls_on(monkeypatch, "i_function", cfg21)
    barnes = _calls_on(monkeypatch, "barnes_integrate", cfg21)
    transfers = _calls_on(monkeypatch, "ode_transfer", cfg21)

    ctxm = PsiContext.create(cfg21, "minus", z=z)
    A, B = (generator_e(cfg21, d) for d in deltas)
    images = [psi_apply(ctxm, E) for E in (A, B, A + B)]
    w = -1.2 + 1j * math.pi
    charges = central_charge(cfg21, images, w, ctxm, order=60)
    assert [call[2] for call in series] == deltas
    assert charges == [central_charge(cfg21, [im], w, ctxm, order=60)[0] for im in images]

    ctxp = PsiContext.create(cfg21, "plus", z=z)
    images = [psi_apply(ctxp, fm_generator_formula(cfg21, d)) for d in deltas]
    images.append(psi_apply(ctxp, unit_class(cfg21, "plus")))
    w = math.log(3.0) + 1j * math.pi
    charges = central_charge_plus_continued(cfg21, images, w, ctxp, order=80)
    assert len(transfers) == 1 and barnes == []
    assert charges == [central_charge_plus_continued(cfg21, [im], w, ctxp, order=80)[0]
                       for im in images]


def test_charge_cases_build_one_i_vector(monkeypatch):
    # fm-continuation pairs two classes with one continued I-vector: one
    # ODE transfer, not one per class, and no Barnes integral; linearity
    # pairs three classes with one I-series per fixed point
    env = SuiteEnv()
    cfg = env.config_for(2, 1)
    cases = {c.name: c for c in collect_cases(env, "central-charge")}
    barnes = _calls_on(monkeypatch, "barnes_integrate", cfg)
    transfers = _calls_on(monkeypatch, "ode_transfer", cfg)
    assert cases["fm-continuation"].thunk()[0] == "pass"
    assert len(transfers) == 1 and barnes == []
    series = _calls_on(monkeypatch, "i_function", cfg)
    assert cases["linearity"].thunk()[0] == "pass"
    assert [call[2] for call in series] == fixed_point_deltas(cfg)


def test_a_dropped_gamma_class_fails_fm_continuation(monkeypatch):
    case, = [c for c in collect_cases(SuiteEnv(), "central-charge") if c.name == "fm-continuation"]
    assert case.thunk()[0] == "pass"
    monkeypatch.setattr(hypergeom, "gamma_class", lambda *args: 1.0 + 0j)
    assert case.thunk()[0] == "fail"


def test_one_default_verify_op_makes_eleven_barnes_calls(monkeypatch):
    # 2n per wall-crossing case, at n = 2 and 3, and one for the pole-line
    # guard; the central charges continue along the ODE
    calls = []
    barnes = hypergeom.barnes_integrate

    def counted(*args, **kw):
        calls.append(args)
        return barnes(*args, **kw)

    monkeypatch.setattr(hypergeom, "barnes_integrate", counted)
    monkeypatch.setattr(suites, "barnes_integrate", counted)
    report = cli.run_suite(cli.RunConfig(), "all")
    assert {c["status"] for c in report.cases} == {"pass"}
    assert len(calls) == 2 * 2 + 2 * 3 + 1
