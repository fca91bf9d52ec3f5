"""Gamma-kernel contracts and exact polynomial arithmetic."""

import cmath
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flopwall.numkernel import (
    MultiPoly,
    NonFiniteError,
    PoleError,
    gamma,
    log_gamma,
    recip_gamma,
    series_inverse,
    sin_over_2i,
)

finite_floats = st.floats(min_value=-30, max_value=30, allow_nan=False)


def test_log_gamma_classical_values():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14
    assert abs(log_gamma(4.0) - math.log(6.0)) < 1e-14


@pytest.mark.parametrize("s", [0.0, -1.0, -3.0, -2.0 + 1e-13 * 1j, -5.0 + 5e-13])
def test_log_gamma_pole_error(s):
    with pytest.raises(PoleError):
        log_gamma(s)


def _ordinary_nodes():
    return -0.5 + 1j * np.linspace(-20.0, 20.0, 81)


@pytest.mark.parametrize("k", [0, 3, 40])
@pytest.mark.parametrize("d", [5e-13, 5e-13j])
def test_log_gamma_array_pole_error(k, d):
    nodes = _ordinary_nodes()
    with pytest.raises(PoleError):
        log_gamma(np.insert(nodes, 40, -k + d))
    # just outside the pole window the same array evaluates
    out = log_gamma(np.insert(nodes, 40, -k + 4 * d))
    assert out.shape == (82,) and np.isfinite(out).all()


@pytest.mark.parametrize("kernel", [log_gamma, gamma, recip_gamma])
@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, complex(1.0, math.inf)])
def test_non_finite_argument_raises_non_finite_error(kernel, s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            kernel(s)


@pytest.mark.parametrize("kernel", [log_gamma, recip_gamma])
def test_non_finite_array_element_raises_non_finite_error(kernel):
    nodes = _ordinary_nodes()
    nodes[17] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            kernel(nodes)


def test_overflowing_value_raises_non_finite_error():
    # finite arguments whose Gamma or 1/Gamma exceeds the float range
    with pytest.raises(NonFiniteError):
        gamma(200.0)
    with pytest.raises(NonFiniteError):
        recip_gamma(-200.5)


def test_recip_gamma_zeros_and_unit():
    assert recip_gamma(0.0) == 0j
    assert recip_gamma(-3.0) == 0j
    assert abs(recip_gamma(1.0) - 1.0) < 1e-14
    assert abs(recip_gamma(0.5) - 1.0 / math.sqrt(math.pi)) < 1e-14


def test_sin_over_2i_values():
    assert sin_over_2i(0.0) == 0j
    # direct complex-sine evaluation is the independent oracle
    want = cmath.sin(2.0 / 2j)
    got = sin_over_2i(2.0)
    assert abs(got - want) < 1e-15
    assert abs(got - (-1j * math.sinh(1.0))) < 1e-15


@given(finite_floats, finite_floats)
def test_sin_over_2i_odd(re, im):
    a = complex(re, im)
    assert abs(sin_over_2i(-a) + sin_over_2i(a)) <= 1e-12 * max(1.0, abs(sin_over_2i(a)))


@given(st.floats(min_value=0.5, max_value=60), st.floats(min_value=-60, max_value=60))
@settings(max_examples=200)
def test_gamma_recurrence(re, im):
    s = complex(re, im)
    lhs = cmath.exp(log_gamma(s + 1))
    rhs = s * cmath.exp(log_gamma(s))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@given(st.floats(min_value=-40, max_value=40), st.floats(min_value=-40, max_value=40))
@settings(max_examples=200)
def test_recip_times_gamma(re, im):
    s = complex(re, im)
    if abs(im) < 1e-3 and abs(re - round(re)) < 1e-3 and round(re) <= 0:
        return  # too close to a pole for the identity to be well-conditioned
    val = recip_gamma(s) * cmath.exp(log_gamma(s))
    assert abs(val - 1.0) <= 1e-12


@given(st.floats(min_value=-20, max_value=20), st.floats(min_value=0.05, max_value=20))
@settings(max_examples=200)
def test_reflection_identity(re, im):
    # random s safely off the real integers
    s = complex(re, im)
    val = cmath.exp(log_gamma(s)) * cmath.exp(log_gamma(1 - s)) * cmath.sin(math.pi * s) / math.pi
    assert abs(val - 1.0) <= 1e-11


def _loggamma_ref(s: complex) -> complex:
    mpmath.mp.dps = 40
    v = mpmath.loggamma(mpmath.mpc(s.real, s.imag))
    return complex(float(v.real), float(v.imag))


def test_log_gamma_accuracy_contract():
    # relative error <= 1e-13 against a 40-digit oracle across |s| <= 100
    pts = []
    for re in (-97.3, -51.2, -13.7, -2.3, -0.7, 0.6, 1.5, 3.2, 17.9, 64.1, 99.2):
        for im in (-88.0, -31.5, -7.1, -0.9, 0.4, 1.1, 12.3, 45.6, 93.4):
            s = complex(re, im)
            if abs(s) <= 100:
                pts.append(s)
    worst = 0.0
    for s in pts:
        ref = _loggamma_ref(s)
        err = abs(log_gamma(s) - ref)
        scale = max(abs(ref), 1.0)
        worst = max(worst, err / scale)
    assert worst <= 1e-13


def test_log_gamma_principal_branch_matches_oracle():
    # imaginary parts agree (no stray 2 pi windings) off the cut
    for s in (complex(-5.2, 0.3), complex(-5.2, -0.3), complex(-49.5, 22.0), complex(-0.3, -41.0)):
        ref = _loggamma_ref(s)
        assert abs(log_gamma(s) - ref) < 1e-11 * max(1.0, abs(ref))


def _rgamma_ref(s: complex) -> complex:
    mpmath.mp.dps = 40
    return complex(mpmath.rgamma(mpmath.mpc(s.real, s.imag)))


def test_recip_gamma_next_to_a_far_pole():
    s = complex(-38.0, 2.9e-5)
    ref = _rgamma_ref(s)
    assert abs(recip_gamma(s) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_recip_gamma_near_poles_matches_oracle(eps):
    # s = -k + d with d = +-eps, +-i eps: next to the zero at -k, 1/Gamma is
    # about k! |d| and must keep its full relative accuracy
    worst = 0.0
    for k in range(61):
        for d in (eps, -eps, 1j * eps, -1j * eps):
            s = -k + d
            ref = _rgamma_ref(s)
            worst = max(worst, abs(recip_gamma(s) - ref) / abs(ref))
    assert worst <= 2e-13


def test_recip_gamma_inside_the_pole_window():
    # within 1e-12 of -k, where log_gamma raises, 1/Gamma is about k! |s + k|:
    # far from 0, and only the exact integers are zeros
    for s, size in ((complex(-20.0, 0.0) + 5e-13, 1.2e6), (complex(-38.0, 5e-13), 2.6e32)):
        ref = _rgamma_ref(s)
        assert abs(abs(ref) / size - 1.0) < 0.05
        assert abs(recip_gamma(s) - ref) <= 1e-13 * abs(ref)
    worst = 0.0
    for k in range(41):
        assert recip_gamma(float(-k)) == 0j
        for eps in (1e-13, 5e-13):
            for d in (eps, -eps, 1j * eps, -1j * eps):
                s = -k + d
                ref = _rgamma_ref(s)
                worst = max(worst, abs(recip_gamma(s) - ref) / abs(ref))
    assert worst <= 1e-13


def test_log_gamma_branch_left_half_plane():
    # principal branch across the left half-plane: no stray 2 pi i
    rng = random.Random(5)
    pts = [complex(rng.uniform(-60.0, 0.4), rng.uniform(-3.0, 3.0)) for _ in range(300)]
    # far from the real axis Gamma underflows; its log stays finite
    pts += [complex(-0.5, 300.0), complex(-3.2, -900.0)]
    for s in pts:
        ref = _loggamma_ref(s)
        assert abs(log_gamma(s) - ref) <= 1e-13 * max(1.0, abs(ref))


# ----------------------------------------------------------------------
# MultiPoly
# ----------------------------------------------------------------------

def test_poly_cancellation_and_difference_of_squares():
    x1 = MultiPoly.variable(2, 0)
    z1 = MultiPoly.variable(2, 1)
    assert (x1 + (-x1)).is_zero()
    assert (x1 - z1) * (x1 + z1) == x1 * x1 - z1 * z1


def test_poly_operators_add_sub_mul():
    p = MultiPoly.variable(1, 0)
    q = MultiPoly.constant(1, Fraction(2, 3))
    assert p + q == MultiPoly(1, {(1,): 1, (0,): Fraction(2, 3)})
    assert p - q == MultiPoly(1, {(1,): 1, (0,): Fraction(-2, 3)})
    assert q - p == -(p - q)
    assert p * q == MultiPoly(1, {(1,): Fraction(2, 3)})
    with pytest.raises(ValueError):
        p + MultiPoly.variable(2, 0)


def test_s2_antisymmetrized_product_expansion():
    # sum over the two permutations of prod_{l} prod_{j != sigma(l)} (x_j - z_l)
    nv = 4
    x = [MultiPoly.variable(nv, i) for i in range(2)]
    z = [MultiPoly.variable(nv, 2 + i) for i in range(2)]
    rhs = (x[1] - z[0]) * (x[0] - z[1]) - (x[0] - z[0]) * (x[1] - z[1])
    assert rhs == (z[1] - z[0]) * (x[0] - x[1])


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
# int coefficients take the integer fast path; mixing them with non-integral
# Fractions exercises the int/Fraction boundary in every ring operation
small_coeffs = st.one_of(st.integers(-5, 5), small_fracs)


def _poly_from(values: dict, nv: int) -> MultiPoly:
    return MultiPoly(nv, values)


poly_strategy = st.builds(
    _poly_from,
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        small_coeffs,
        max_size=5,
    ),
    st.just(2),
)


@given(poly_strategy, poly_strategy, poly_strategy)
@settings(max_examples=100)
def test_poly_ring_axioms(p, q, s):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + s == p + (q + s)
    assert (p * q) * s == p * (q * s)
    assert p * (q + s) == p * q + p * s
    assert (p - q) + q == p
    assert p.mul_truncated(q, 3) == (p * q).truncate(3)
    for c in (p * q - s).terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@given(poly_strategy, st.lists(small_fracs, min_size=2, max_size=2))
@settings(max_examples=50)
def test_poly_evaluation_is_ring_hom(p, vals):
    q = p * p + p
    assert q.evaluate(vals) == p.evaluate(vals) * p.evaluate(vals) + p.evaluate(vals)


def test_series_inverse():
    one = MultiPoly.constant(2, 1)
    p = one - MultiPoly.variable(2, 0) * 2 + MultiPoly.variable(2, 1)
    inv = series_inverse(p, 6)
    assert p.mul_truncated(inv, 6) == one
    with pytest.raises(ValueError):
        series_inverse(MultiPoly.variable(2, 0), 3)


def test_poly_integral_fraction_coefficients_are_ints():
    built = MultiPoly(2, {(1, 0): Fraction(3), (0, 2): Fraction(-6, 2)})
    x, z = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    arith = x * 3 - z * z * 3
    assert built == arith
    assert hash(built) == hash(arith)
    assert hash(MultiPoly(2, {(1, 1): Fraction(1, 2)}) * 2) == hash(x * z)
    # coefficients compare equal to their Fractions
    assert arith.coefficient((1, 0)) == Fraction(3)
    assert arith.coefficient((0, 2)) == Fraction(-3)
    assert arith.coefficient((1, 1)) == Fraction(0)
    half = x * Fraction(1, 2)
    assert half.coefficient((1, 0)) == Fraction(1, 2)
    assert (half + half).coefficient((1, 0)) == 1


def test_series_inverse_nonintegral_constant_is_exact():
    one = MultiPoly.constant(1, 1)
    x = MultiPoly.variable(1, 0)
    p = x + Fraction(2, 3)
    inv = series_inverse(p, 8)
    assert p.mul_truncated(inv, 8) == one
    for k in range(9):
        assert inv.coefficient((k,)) == Fraction(3, 2) * Fraction(-3, 2) ** k
