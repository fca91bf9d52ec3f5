"""Exact rational/polynomial arithmetic and complex special-function kernels.

Rational values are plain ``fractions.Fraction``; everything transcendental
goes through the complex kernels below.  All functions are pure.  The Gamma
kernels take a complex scalar or an ndarray and treat both alike: values
come from ``scipy.special`` (``loggamma``, the principal branch, and
``rgamma``), a non-finite argument or value raises NonFiniteError, and
``log_gamma`` raises PoleError within POLE_TOL of a non-positive integer.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.special import loggamma as _loggamma
from scipy.special import rgamma as _rgamma

TWO_PI_I = 2j * math.pi

POLE_TOL = 1e-12


class PoleError(ValueError):
    """Evaluation requested at (or within tolerance of) a pole."""


class NonFiniteError(ArithmeticError):
    """A kernel met a non-finite argument or produced a non-finite value."""


def _as_complex(v):
    """A complex ndarray for an array of at least one dimension, else a ``complex``."""
    if isinstance(v, np.ndarray) and v.ndim:
        return v.astype(complex, copy=False)
    return complex(v)


def _finite(v):
    """``_as_complex(v)``; NonFiniteError unless all of it is finite."""
    v = _as_complex(v)
    if isinstance(v, np.ndarray):
        if not np.isfinite(v).all():
            raise NonFiniteError("non-finite kernel value among the array elements")
    elif not cmath.isfinite(v):
        raise NonFiniteError(f"non-finite kernel value {v!r}")
    return v


def is_nonpositive_integer(s, tol: float = POLE_TOL) -> bool:
    """Whether ``s``, or any element of an ndarray ``s``, is within ``tol``
    of a non-positive integer; a non-finite value never is.  Of an array,
    only the elements within ``tol`` of the real axis are rounded."""
    if isinstance(s, np.ndarray):
        return any(is_nonpositive_integer(v, tol) for v in s[np.abs(s.imag) <= tol])
    s = complex(s)
    if not (abs(s.imag) <= tol and math.isfinite(s.real)):
        return False
    k = round(s.real)
    return k <= 0 and abs(s.real - k) <= tol


def log_gamma(s):
    """Principal branch of log Gamma, elementwise for an ndarray ``s``.

    Returns a ``complex`` for a scalar and an ndarray for an ndarray.
    Raises PoleError when ``s``, or any element of it, is within POLE_TOL
    of a non-positive integer, and NonFiniteError on a non-finite argument
    or value.
    """
    s = _as_complex(s)
    if is_nonpositive_integer(s):
        where = f"s = {s!r}" if isinstance(s, complex) else "an element of s"
        raise PoleError(f"log_gamma pole at {where}")
    # scipy's loggamma is non-finite at every non-finite argument
    return _finite(_loggamma(s))


def gamma(s: complex) -> complex:
    """Gamma function via ``exp(log_gamma)``; raises PoleError at poles."""
    lg = log_gamma(s)
    try:
        return _finite(cmath.exp(lg))
    except OverflowError:
        raise NonFiniteError(f"Gamma overflows at s = {s!r}") from None


def recip_gamma(s):
    """1/Gamma, entire; exactly 0 only at the non-positive integers.

    ``scipy.special.rgamma`` stays accurate next to the zeros, also within
    POLE_TOL of them, where ``log_gamma`` raises.  Scalar or ndarray, as
    for ``log_gamma``; raises NonFiniteError on a non-finite argument or
    value.
    """
    return _finite(_rgamma(_finite(s)))


def sin_over_2i(a: complex) -> complex:
    """sin(a/(2i)) evaluated through the hyperbolic form -i*sinh(a/2)."""
    return _finite(-1j * cmath.sinh(complex(a) / 2.0))


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
