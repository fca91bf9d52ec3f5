"""Complex special-function kernels, the worst-error accumulator, a table
filled on first use, and exact multivariate polynomials.

Rational values are plain ``fractions.Fraction``; everything transcendental
goes through the complex kernels below.  All functions are pure.  The Gamma
kernels take a complex scalar or an ndarray and treat both alike: values
come from ``scipy.special`` (``loggamma``, the principal branch, and
``rgamma``), a non-finite argument or value raises NonFiniteError, and
``log_gamma`` raises PoleError within POLE_TOL of a non-positive integer.
``worst_error`` is the one maximum every check accumulates its errors in;
a non-finite error makes it NaN, which fails every tolerance.
``MultiPoly`` is the integer polynomial ring of the symbolic
antisymmetric-identity check: it adds, subtracts, multiplies and compares
polynomials, and holds no power-series layer.  Its monomial keys are packed
integers, FIELD = 16 bits per variable, so a monomial product is one
integer addition; a product whose total-degree bound would no longer fit a
field raises ValueError instead of carrying into the next variable.
"""

from __future__ import annotations

import cmath
import math
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
        # the reduction itself, not ndarray.all and its Python wrapper: this
        # runs once per Gamma factor and node array of the Barnes integrand
        if not np.logical_and.reduce(np.isfinite(v), axis=None):
            raise NonFiniteError("non-finite kernel value among the array elements")
    elif not cmath.isfinite(v):
        raise NonFiniteError(f"non-finite kernel value {v!r}")
    return v


def is_nonpositive_integer(s) -> bool:
    """Whether ``s``, or any element of an ndarray ``s``, is within POLE_TOL
    of a non-positive integer; a non-finite value never is.  Of an array,
    only the elements within POLE_TOL of the real axis are rounded."""
    if isinstance(s, np.ndarray):
        near = s[np.abs(s.imag) <= POLE_TOL]
        return near.size > 0 and any(is_nonpositive_integer(v) for v in near)
    s = complex(s)
    if not (abs(s.imag) <= POLE_TOL and math.isfinite(s.real)):
        return False
    k = round(s.real)
    return k <= 0 and abs(s.real - k) <= POLE_TOL


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
    """sin(a/(2i)) evaluated through the hyperbolic form -i*sinh(a/2).

    Raises NonFiniteError on a non-finite argument or value, also where
    sinh overflows.
    """
    try:
        return _finite(-1j * cmath.sinh(complex(a) / 2.0))
    except OverflowError:
        raise NonFiniteError(f"sin(a/2i) overflows at a = {a!r}") from None


def worst_error(*terms: float) -> float:
    """The largest of the error ``terms`` and 0.0, or NaN as soon as a term
    is not finite.

    ``max(worst, nan)`` is ``worst``, so an error accumulated by ``max``
    hides a NaN term and the comparison against its tolerance passes.
    Accumulate as ``worst = worst_error(worst, err)``: a NaN, once in, stays,
    and ``NaN < tol`` is false.
    """
    worst = 0.0
    for t in terms:
        if not math.isfinite(t):
            return math.nan
        worst = max(worst, t)
    return worst


class _Lazy(dict):
    """Key tuple -> ``fn(*key)``, computed on first use."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(*key)
        return value


# ----------------------------------------------------------------------
# Exact multivariate polynomials
# ----------------------------------------------------------------------

def _exact_int(v) -> int:
    """``v`` as an ``int``; ValueError unless it is an exact integer."""
    try:
        i = int(v)
    except OverflowError:  # an infinite float
        i = None
    if i is None or i != v:
        raise ValueError(f"not an exact integer: {v!r}")
    return i


FIELD = 16
"""Bits per variable in a packed monomial key (see ``MultiPoly``)."""


def _pack(exp, nvars: int) -> int:
    """The key of the exponent tuple ``exp``; ValueError unless it has
    ``nvars`` entries, none negative, of total degree below 2**FIELD."""
    exp = tuple(int(e) for e in exp)
    if len(exp) != nvars or any(e < 0 for e in exp):
        raise ValueError(f"bad exponent {exp} for {nvars} variables")
    if sum(exp) >> FIELD:
        raise ValueError(f"exponent {exp} has a total degree beyond a {FIELD}-bit field")
    return sum(e << (i * FIELD) for i, e in enumerate(exp))


def _unpack(key: int, nvars: int) -> tuple:
    mask = (1 << FIELD) - 1
    return tuple(key >> (i * FIELD) & mask for i in range(nvars))


def _graded_lex_key(exp: tuple):
    return (sum(exp), tuple(-e for e in exp))


class MultiPoly:
    """Multivariate polynomial with integer coefficients.

    Terms map packed monomial keys to nonzero ``int`` coefficients: variable
    i's exponent is the FIELD-bit field at offset i*FIELD of one ``int``
    (Monagan and Pearce, CASC 2007), so a monomial product is a key sum.
    The constructor and ``coefficient`` take exponent tuples; ``sorted_terms``
    and ``repr`` unpack them, in graded lexicographic order.  A monomial has
    one key, so equal polynomials have equal ``terms``; ``{}`` is zero.

    ``degree_bound`` bounds the total degree of the terms: the largest in the
    constructor, the sum of the operands' bounds for a product and their
    maximum for a sum or difference.  No exponent exceeds it, so while it
    stays below 2**FIELD no field carries into the next; a product whose
    bound would reach 2**FIELD raises ValueError before any key is added.

    Coefficients are exact integers (an integral ``Fraction`` too; anything
    else raises ValueError).  Both operands of an operation are polynomials
    in the same variables: there are no scalar operands.
    """

    __slots__ = ("nvars", "terms", "degree_bound")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = int(nvars)
        clean: dict = {}
        degree = 0
        for exp, coeff in (terms or {}).items():
            key = _pack(exp, self.nvars)
            coeff = _exact_int(coeff)
            if coeff:
                clean[key] = coeff
                degree = max(degree, sum(int(e) for e in exp))
        self.terms = clean
        self.degree_bound = degree

    @classmethod
    def _from_terms(cls, nvars: int, terms: dict, degree_bound: int) -> "MultiPoly":
        # Result of a ring operation: packed keys and nonzero int
        # coefficients, so nothing is validated.
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        out.degree_bound = degree_bound
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
    def _check(self, other) -> None:
        if not isinstance(other, MultiPoly):
            raise TypeError(f"MultiPoly operand expected, got {type(other).__name__}")
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        get = terms.get
        for key, coeff in other.terms.items():
            c = get(key, 0) + coeff
            if c:
                terms[key] = c
            else:  # coeff != 0, so the key was there
                del terms[key]
        return MultiPoly._from_terms(self.nvars, terms, max(self.degree_bound, other.degree_bound))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        get = terms.get
        for key, coeff in other.terms.items():
            c = get(key, 0) - coeff
            if c:
                terms[key] = c
            else:  # coeff != 0, so the key was there
                del terms[key]
        return MultiPoly._from_terms(self.nvars, terms, max(self.degree_bound, other.degree_bound))

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        degree = self.degree_bound + other.degree_bound
        if degree >> FIELD:
            raise ValueError(f"product degree bound {degree} does not fit a {FIELD}-bit exponent field")
        terms: dict = {}
        get = terms.get
        right = list(other.terms.items())
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                key = k1 + k2
                terms[key] = get(key, 0) + c1 * c2
        if 0 in terms.values():  # a scan in C; most products cancel nothing
            terms = {k: c for k, c in terms.items() if c}
        return MultiPoly._from_terms(self.nvars, terms, degree)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    # -- queries ----------------------------------------------------------
    def coefficient(self, exp: Sequence[int]) -> int:
        """Coefficient of the monomial ``exp``; 0 for an exponent tuple that
        is no monomial of this ring."""
        try:
            key = _pack(exp, self.nvars)
        except ValueError:
            return 0
        return self.terms.get(key, 0)

    def sorted_terms(self):
        """``(exponent tuple, coefficient)`` pairs in graded lexicographic order."""
        terms = [(_unpack(key, self.nvars), coeff) for key, coeff in self.terms.items()]
        return sorted(terms, key=lambda t: _graded_lex_key(t[0]))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exp, coeff in self.sorted_terms():
            mono = "*".join(f"v{i}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"
