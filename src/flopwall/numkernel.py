"""Exact rational/polynomial arithmetic and complex special-function kernels.

Rational values are plain ``fractions.Fraction``; everything transcendental
goes through the complex kernels below.  All functions are pure.  The Gamma
kernels work on complex scalars; ``log_gamma`` also takes a node array.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.special import loggamma as _loggamma_array

TWO_PI_I = 2j * math.pi

POLE_TOL = 1e-12


class PoleError(ValueError):
    """Evaluation requested at (or within tolerance of) a pole."""


class NonFiniteError(ArithmeticError):
    """A kernel produced a non-finite value instead of signalling an error."""


def _check_finite(v: complex) -> complex:
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise NonFiniteError(f"non-finite kernel value {v!r}")
    return v


# Lanczos approximation, g = 7, 9 coefficients.  Relative accuracy of the
# resulting Gamma values is a few ulp over the right half-plane, which is
# what the 1e-13 contract on |s| <= 100 needs.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_TWO = math.log(2.0)
_PI_I = 1j * math.pi


def is_nonpositive_integer(s: complex, tol: float = POLE_TOL) -> bool:
    s = complex(s)
    if abs(s.imag) > tol:
        return False
    k = round(s.real)
    return k <= 0 and abs(s.real - k) <= tol


def _log_gamma_right(s: complex) -> complex:
    # Re(s) >= 0.5; principal branch, every log here stays principal because
    # both t and the Lanczos series live in the right half-plane.
    acc = _LANCZOS_C[0]
    for k, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (s - 1.0 + k)
    t = s - 0.5 + _LANCZOS_G
    return (s - 0.5) * cmath.log(t) - t + _HALF_LOG_TWO_PI + cmath.log(acc)


def _one_minus_exp_near_zero(z: complex) -> complex:
    # 1 - exp(z) without the cancellation of the plain subtraction, for
    # Re z <= 0: with a = Re z, b = Im z, the real part is the sum of the
    # non-negative terms 2 exp(a) sin^2(b/2) and -expm1(a).
    a, b = z.real, z.imag
    e = math.exp(a)
    sh, ch = math.sin(0.5 * b), math.cos(0.5 * b)
    return complex(2.0 * e * sh * sh - math.expm1(a), -2.0 * e * sh * ch)


def _log_sin_pi(s: complex) -> complex:
    # log sin(pi s) = +-i pi (1/2 - s) - log 2 + log(1 - exp(+-2 pi i s)),
    # upper signs for Im s >= 0 so that |exp(...)| <= 1.  The winding term
    # is explicit, so the reflection formula below yields the principal
    # branch of log Gamma.  The exponential is taken at f = s - round(Re s),
    # which leaves it unchanged but drops the rounding error of 2 pi k; where
    # 1 - exp(...) is small (s near an integer) it is formed without
    # cancellation.
    f = s - round(s.real)
    if s.imag >= 0.0:
        z = TWO_PI_I * f
        head = _PI_I * (0.5 - s)
    else:
        z = -TWO_PI_I * f
        head = _PI_I * (s - 0.5)
    d = 1.0 - cmath.exp(z)
    if abs(d) < 0.5:
        d = _one_minus_exp_near_zero(z)
    return head - _LOG_TWO + cmath.log(d)


def log_gamma(s):
    """Principal branch of log Gamma.

    ``s`` is a complex scalar or an ndarray; an array is evaluated
    elementwise by ``scipy.special.loggamma``, also the principal branch.
    Raises PoleError when ``s``, or any element of it, is within 1e-12 of a
    non-positive integer.
    """
    if isinstance(s, np.ndarray):
        return _log_gamma_nodes(s)
    s = complex(s)
    if is_nonpositive_integer(s):
        raise PoleError(f"log_gamma pole at s = {s!r}")
    if s.real >= 0.5:
        return _check_finite(_log_gamma_right(s))
    refl = math.log(math.pi) - _log_sin_pi(s) - _log_gamma_right(1.0 - s)
    return _check_finite(refl)


def _log_gamma_nodes(s: np.ndarray) -> np.ndarray:
    s = s.astype(complex, copy=False)
    near = np.abs(s.imag) <= POLE_TOL
    if near.any():
        re = s.real[near]
        k = np.round(re)
        if np.any((k <= 0) & (np.abs(re - k) <= POLE_TOL)):
            raise PoleError("log_gamma pole among the array elements")
    out = _loggamma_array(s)
    if not np.isfinite(out).all():
        raise NonFiniteError("non-finite log_gamma value among the array elements")
    return out


def gamma(s: complex) -> complex:
    """Gamma function via ``exp(log_gamma)``; raises PoleError at poles."""
    return _check_finite(cmath.exp(log_gamma(s)))


def recip_gamma(s: complex) -> complex:
    """1/Gamma, entire; exactly 0 only at the non-positive integers.

    Within 1e-12 of a non-positive integer -k, where log_gamma raises, the
    reflection formula is evaluated directly: with f = s + k (exact in
    floating point), 1/Gamma(s) = (-1)^k sin(pi f) Gamma(1 - s) / pi.  Its
    size there is about k! |f|, far from 0 once k is large.
    """
    s = complex(s)
    if is_nonpositive_integer(s):
        k = -round(s.real)
        f = s + k
        if f == 0:
            return 0j
        val = cmath.exp(log_gamma(1.0 - s) + cmath.log(cmath.sin(math.pi * f) / math.pi))
        return _check_finite(-val if k % 2 else val)
    return _check_finite(cmath.exp(-log_gamma(s)))


def sin_over_2i(a: complex) -> complex:
    """sin(a/(2i)) evaluated through the hyperbolic form -i*sinh(a/2)."""
    return _check_finite(-1j * cmath.sinh(complex(a) / 2.0))


# ----------------------------------------------------------------------
# Exact multivariate polynomials
# ----------------------------------------------------------------------

Exponent = tuple  # tuple[int, ...]


def _graded_lex_key(exp: Exponent):
    return (sum(exp), tuple(-e for e in exp))


class MultiPoly:
    """Multivariate polynomial with exact rational coefficients.

    Terms are a map from exponent tuples to nonzero coefficients; graded
    lexicographic order is used wherever terms are listed, so equal
    polynomials compare equal structurally.  A coefficient with
    denominator 1 is stored as an ``int`` and any other as a ``Fraction``;
    the two compare and hash equal, so the choice is invisible to callers
    and integer-coefficient arithmetic never builds a Fraction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = int(nvars)
        clean: dict = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for {self.nvars} variables")
            coeff = Fraction(coeff)
            if coeff:
                clean[exp] = coeff.numerator if coeff.denominator == 1 else coeff
        self.terms = clean

    @classmethod
    def _from_terms(cls, nvars: int, terms: dict) -> "MultiPoly":
        # Result of a ring operation: exponents are already valid tuples and
        # coefficients int or Fraction, so only zeros and integral Fractions
        # need attention.
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = {
            e: (c if type(c) is int or c.denominator != 1 else c.numerator)
            for e, c in terms.items()
            if c
        }
        return out

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): 1})

    # -- ring operations -------------------------------------------------
    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return MultiPoly.constant(self.nvars, other)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        get = terms.get
        for exp, coeff in other.terms.items():
            terms[exp] = get(exp, 0) + coeff
        return MultiPoly._from_terms(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_terms(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        get = terms.get
        for exp, coeff in other.terms.items():
            terms[exp] = get(exp, 0) - coeff
        return MultiPoly._from_terms(self.nvars, terms)

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        terms: dict = {}
        get = terms.get
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                exp = tuple(map(operator.add, e1, e2))
                terms[exp] = get(exp, 0) + c1 * c2
        return MultiPoly._from_terms(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return self.terms == MultiPoly.constant(self.nvars, other).terms

    def __hash__(self):
        return hash((self.nvars, tuple(self.sorted_terms())))

    # -- queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exp: Sequence[int]) -> int | Fraction:
        """Coefficient of the monomial ``exp``: an int or a Fraction."""
        return self.terms.get(tuple(int(e) for e in exp), 0)

    def graded_part(self, l: int) -> "MultiPoly":
        return MultiPoly._from_terms(self.nvars, {e: c for e, c in self.terms.items() if sum(e) == l})

    def truncate(self, maxdeg: int) -> "MultiPoly":
        return MultiPoly._from_terms(self.nvars, {e: c for e, c in self.terms.items() if sum(e) <= maxdeg})

    def mul_truncated(self, other: "MultiPoly", maxdeg: int) -> "MultiPoly":
        other = self._coerce(other)
        terms: dict = {}
        get = terms.get
        right = [(e2, c2, sum(e2)) for e2, c2 in other.terms.items()]
        for e1, c1 in self.terms.items():
            room = maxdeg - sum(e1)
            for e2, c2, d2 in right:
                if d2 <= room:
                    exp = tuple(map(operator.add, e1, e2))
                    terms[exp] = get(exp, 0) + c1 * c2
        return MultiPoly._from_terms(self.nvars, terms)

    def evaluate(self, values: Sequence) -> Fraction:
        if len(values) != self.nvars:
            raise ValueError("value count mismatch")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exp):
                term *= v ** e
            total += term
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _graded_lex_key(t[0]))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exp, coeff in self.sorted_terms():
            mono = "*".join(f"v{i}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


def series_inverse(p: MultiPoly, maxdeg: int) -> MultiPoly:
    """Multiplicative inverse of p as a power series truncated at maxdeg.

    Requires a nonzero constant term.
    """
    c0 = p.coefficient((0,) * p.nvars)
    if not c0:
        raise ValueError("series inverse needs a nonzero constant term")
    # 1/p = (1/c0) * sum_k (1 - p/c0)^k
    one = MultiPoly.constant(p.nvars, 1)
    u = (one - p * (Fraction(1) / c0)).truncate(maxdeg)
    inv = one
    power = one
    for _ in range(maxdeg):
        power = power.mul_truncated(u, maxdeg)
        if power.is_zero():
            break
        inv = inv + power
    return inv * (Fraction(1) / c0)
