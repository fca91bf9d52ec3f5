"""Series construction, the recurrence annihilator, Mellin-Barnes
continuation, I-series factorization, and central charges."""

import cmath
import math
from fractions import Fraction
from itertools import product as iter_product

import mpmath
import pytest

from flopwall.flopgeom import FlopConfig, fixed_point_deltas, random_config
from flopwall.hypergeom import (
    MultiOffsetSeries,
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
    i_restriction_continued,
    ode_check,
    series_product,
    verify_continuation_r1,
)
from flopwall.ktheory import (
    chern_character,
    fm_generator_formula,
    fm_transform,
    generator_e,
    unit_class,
)
from flopwall.numkernel import TWO_PI_I, recip_gamma, sin_over_2i
from flopwall.suites import default_config
from flopwall.wallcross import PsiContext, coeff_C


# ----------------------------------------------------------------------
# series containers
# ----------------------------------------------------------------------

def test_offset_series_eval_uses_log_q():
    s = OffsetSeries(offset=0.25j, coeffs={0: 1.0 + 0j, 1: 0.5 + 0j}, order=1)
    w = -0.7 + 0.3j
    want = cmath.exp(w * 0.25j) + 0.5 * cmath.exp(w * (0.25j + 1))
    assert abs(s.eval(w) - want) < 1e-15
    # different log-q branches are genuinely different evaluation points
    assert abs(s.eval(w) - s.eval(w + TWO_PI_I)) > 1e-6


def test_multi_series_specialize():
    ms = MultiOffsetSeries(
        offsets=(0.1j, 0.2j),
        coeffs={(0, 0): 1 + 0j, (1, 0): 2 + 0j, (0, 1): 3 + 0j, (1, 1): 4 + 0j},
        order=1,
        prefactor=2.0 + 0j,
    )
    s = ms.specialize()
    assert abs(s.offset - 0.3j) < 1e-16
    assert s.coeffs[1] == 5 + 0j
    assert s.prefactor == 2.0 + 0j
    w = (-0.4 + 1.1j, -0.4 + 1.1j)
    assert abs(ms.eval(w) - s.eval(w[0])) < 1e-14


def test_delta_hat_monomial_action():
    ms = MultiOffsetSeries(offsets=(0.3j, -0.1j), coeffs={(2, 5): 1.0 + 0j}, order=5)
    out = delta_hat_apply(ms)
    want = (0.3j + 2) - (-0.1j + 5)
    assert abs(out.coeffs[(2, 5)] - want) < 1e-15


def test_delta_hat_r1_identity():
    ms = MultiOffsetSeries(offsets=(0.3j,), coeffs={(0,): 1.5 + 0j, (3,): -2j}, order=3)
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
    assert min(s.coeffs) == 0
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


def test_plus_series_is_antisymmetrized_factor_product(cfg32):
    for dp in fixed_point_deltas(cfg32):
        K = h_series(cfg32, "plus", dp, 10)
        factors = [f_factor_series(cfg32, dp, k, 10) for k in range(2)]
        assembled = delta_hat_apply(series_product(factors))
        for es, c in K.coeffs.items():
            assert abs(c - assembled.coeffs[es]) < 1e-12


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
            if r == 1:
                got_offsets = (got.offset,)
                got_coeffs = {(e,): c for e, c in got.coeffs.items()}
            else:
                got_offsets, got_coeffs = got.offsets, got.coeffs
            assert got_offsets == offsets
            assert abs(got.prefactor - prefactor) <= 1e-14 * abs(prefactor)
            assert got_coeffs.keys() == coeffs.keys()
            for es, want in coeffs.items():
                assert abs(got_coeffs[es] - want) <= 1e-14 * abs(want), (cfg, scale, d, es)


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
                    assert got.coeffs.keys() == coeffs.keys()
                    for e, want in coeffs.items():
                        assert abs(got.coeffs[e] - want) <= 1e-14 * bound[e], (cfg, d, e)


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


def test_ode_detects_perturbation(cfg21):
    s = h_series(cfg21, "plus", (0,), 40)
    coeffs = dict(s.coeffs)
    coeffs[7] *= 1.0 + 1e-3
    bad = OffsetSeries(offset=s.offset, coeffs=coeffs, order=s.order, prefactor=s.prefactor)
    assert ode_check(cfg21, bad, "plus") > 1e-4


def test_ode_couples_adjacent_indices_only(cfg21):
    # perturbing c_{e0} must leave residuals at e < e0 untouched
    s = h_series(cfg21, "plus", (0,), 20)
    coeffs = dict(s.coeffs)
    e0 = 12
    coeffs[e0] *= 1.0 + 1e-3

    def residuals(series):
        out = []
        for e in range(series.order + 1):
            trimmed = OffsetSeries(
                offset=series.offset,
                coeffs={k: v for k, v in series.coeffs.items() if k <= e},
                order=e,
                prefactor=series.prefactor,
            )
            out.append(ode_check(cfg21, trimmed, "plus"))
        return out

    base = residuals(s)
    bumped = residuals(
        OffsetSeries(offset=s.offset, coeffs=coeffs, order=s.order, prefactor=s.prefactor)
    )
    for e in range(e0):
        assert abs(base[e] - bumped[e]) < 1e-14


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


def _barnes_oracle(config, l, ws, weight_scale):
    """30-digit mpmath.quad over the whole line Re s = -1/2, one value per w.

    Adds the residues of the poles right of the line and multiplies by the
    sine prefactor, all recomputed in mpmath.  The w-independent part of
    the integrand is cached per node, so the values for several w share
    their Gamma evaluations.
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
            # degree 5 of tanh-sinh already estimates its error near 1e-30 here
            line, err = mpmath.quad(
                lambda t: kernel(t) * mpmath.exp(w * (mpmath.mpc(-0.5, t) + x[l] * u)),
                [-mpmath.inf, 0, mpmath.inf], maxdegree=5, error=True,
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
            out.append(complex(prefactor * (-line / (2 * mpmath.pi) - residues)))
        return out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("unit", ["one", "rotated-ch-z2"])
def test_barnes_matches_mpmath_contour_oracle(n, unit):
    # before the wall, on it and past it; the rotated Chern scale at z = 2
    # makes the weight unit real, which moves the pole families off the
    # integers and towards the line
    cfg = default_config(n, 1)
    scale = 1.0 if unit == "one" else PsiContext.create(cfg, "plus", z=2.0).rotated().ch_scale
    ws = [complex(re, (n - 1) * math.pi) for re in (-1.0, 0.0, 1.0)]
    tol = 1e-10
    for l in range(n):
        for w, want in zip(ws, _barnes_oracle(cfg, l, ws, scale)):
            got = barnes_integrate(w, cfg, l, tol=tol, weight_scale=scale)
            assert abs(got - want) <= tol, (l, w)


def test_barnes_pole_near_line_raises():
    # negative control: with u = -1/2 (weight scale -pi i, the rotated
    # Chern scale at z = 2) and x_0 - z_0 = -1 + 2e-7 the d = 0 pole of
    # family 0 sits 1e-7 right of the line, past the contour-touch check;
    # no step down to 2^-12 resolves it, so no value may be returned
    cfg = FlopConfig(2, 1, (Fraction(0), Fraction(3, 10)),
                     (Fraction(1) - Fraction(2, 10**7), Fraction(-1, 5)))
    with pytest.raises(NonConvergenceError, match="trapezoidal"):
        barnes_integrate(0.5 + 1j * math.pi, cfg, 0, tol=1e-10, weight_scale=-math.pi * 1j)


@pytest.mark.parametrize("offset", [0, 2, -2])
def test_barnes_pole_on_line_raises_touches(offset):
    # weight scale 6 pi - pi i gives u = -1/2 - 3i, so with
    # x_0 - z_0 = -1 + offset * 1e-10 the d = 0 pole of family 0 sits at
    # height -3, on the line or 1e-10 either side of it; the touch check
    # must raise before any halving of the trapezoidal step
    cfg = FlopConfig(2, 1, (Fraction(0), Fraction(3, 10)),
                     (Fraction(1) - Fraction(offset, 10**10), Fraction(-1, 5)))
    with pytest.raises(NonConvergenceError, match="touches"):
        barnes_integrate(0.5 + 1j * math.pi, cfg, 0, tol=1e-10,
                         weight_scale=6 * math.pi - math.pi * 1j)


def test_verify_continuation_report(cfg21):
    rep = verify_continuation_r1(cfg21, tol=1e-8, order=80)
    assert rep.ok(1e-8)
    assert set(rep.inside_err) == {(0,), (1,)}
    assert rep.coeff_err < 1e-8


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


def test_i_restriction_continued_agrees_inside(cfg21):
    # inside the wall the continued restriction equals the assembled series
    z = 2.0 + 0j
    ctx = PsiContext.create(cfg21, "plus", z=z).rotated()
    w = math.log(0.3) + 1j * math.pi
    for l in range(2):
        series = i_function(cfg21, "plus", (l,), 80, ctx).eval(w)
        cont = i_restriction_continued(cfg21, l, w, ctx)
        assert abs(cont - series) <= 1e-9 * abs(series)


# ----------------------------------------------------------------------
# central charge
# ----------------------------------------------------------------------

def test_central_charge_linear(cfg21):
    ctx = PsiContext.create(cfg21, "minus", z=2.0 + 0j)
    w = -1.2 + 1j * math.pi
    A = generator_e(cfg21, (0,))
    B = generator_e(cfg21, (1,))
    za = central_charge(cfg21, "minus", A, w, ctx, order=40)
    zb = central_charge(cfg21, "minus", B, w, ctx, order=40)
    zab = central_charge(cfg21, "minus", A + B, w, ctx, order=40)
    assert abs(zab - za - zb) <= 1e-12 * max(1.0, abs(zab))


def test_central_charge_continuation(cfg21):
    z = 2.0 + 0j
    ctxm = PsiContext.create(cfg21, "minus", z=z)
    ctxp = PsiContext.create(cfg21, "plus", z=z)
    w = math.log(3.0) + 1j * math.pi
    for kind in ("one", "gen"):
        if kind == "one":
            Em = unit_class(cfg21, "minus")
            Ep = fm_transform(cfg21, chern_character(cfg21, Em, ctxp.ch_scale), ctxp.ch_scale)
        else:
            Em = generator_e(cfg21, (0,))
            Ep = fm_generator_formula(cfg21, (0,))
        z_minus = central_charge(cfg21, "minus", Em, -w, ctxm, order=80)
        z_plus = central_charge_plus_continued(cfg21, Ep, w, ctxp)
        assert abs(z_plus - z_minus) <= 1e-6 * abs(z_minus)
