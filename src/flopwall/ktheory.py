"""Equivariant K-theory in fixed-point restriction coordinates.

Classes are stored through their restrictions at the isolated torus-fixed
points, each restriction a finite integer combination of torus characters
(a virtual character).  The Fourier-Mukai transfer through the common
resolution is computed by localization; for the generator basis the
transfer simplifies exactly by multiset cancellation of binomial factors
and is cross-checked against the closed product formula.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .flopgeom import (
    DegenerateWeightError,
    FixedPointLabel,
    FlopConfig,
    WeightVector,
    _vsub,
    _xvec,
    _zvec,
    fixed_point_deltas,
    tangent_weight_vectors,
    weight_complex,
)
from .numkernel import TWO_PI_I


class VirtualCharacter:
    """Finite integer combination of torus characters on (C^*)^{2n}.

    Keys are weight vectors in Z^{2n} (first n entries pair with x, last n
    with z); values are integer multiplicities.  Always kept in canonical
    merged form with no zero coefficients, so equality is structural.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping | None = None):
        self.nvars = int(nvars)
        clean: dict = {}
        for vec, c in (terms or {}).items():
            vec = tuple(int(v) for v in vec)
            if len(vec) != self.nvars:
                raise ValueError("weight vector length mismatch")
            c = int(c)
            if c:
                clean[vec] = clean.get(vec, 0) + c
        self.terms = {v: c for v, c in clean.items() if c}

    @classmethod
    def unit(cls, nvars: int) -> "VirtualCharacter":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def line(cls, vec: WeightVector) -> "VirtualCharacter":
        return cls(len(vec), {tuple(vec): 1})

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        terms = dict(self.terms)
        for v, c in other.terms.items():
            terms[v] = terms.get(v, 0) + c
        return VirtualCharacter(self.nvars, terms)

    def __neg__(self) -> "VirtualCharacter":
        return VirtualCharacter(self.nvars, {v: -c for v, c in self.terms.items()})

    def __sub__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return self + (-other)

    def __mul__(self, other) -> "VirtualCharacter":
        if isinstance(other, int):
            return VirtualCharacter(self.nvars, {v: other * c for v, c in self.terms.items()})
        terms: dict = {}
        for v1, c1 in self.terms.items():
            for v2, c2 in other.terms.items():
                v = tuple(a + b for a, b in zip(v1, v2))
                terms[v] = terms.get(v, 0) + c1 * c2
        return VirtualCharacter(self.nvars, terms)

    __rmul__ = __mul__

    def dual(self) -> "VirtualCharacter":
        return VirtualCharacter(self.nvars, {tuple(-a for a in v): c for v, c in self.terms.items()})

    def rank(self) -> int:
        return sum(self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, VirtualCharacter) and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def evaluate(self, xs: Sequence[complex], zs: Sequence[complex], scale: complex = 1.0) -> complex:
        """Chern-character value: sum of c * exp(scale * <w, (x, z)>)."""
        total = 0j
        for vec, c in self.terms.items():
            total += c * cmath.exp(scale * weight_complex(xs, zs, vec))
        return total

    def __repr__(self):
        if not self.terms:
            return "VirtualCharacter(0)"
        return f"VirtualCharacter({len(self.terms)} terms, rank {self.rank()})"


def binomial_product(nvars: int, vectors) -> VirtualCharacter:
    """prod (1 - e^w) over the weight vectors, repeats included; 1 if empty."""
    one = VirtualCharacter.unit(nvars)
    out = one
    for vec in vectors:
        out = out * (one - VirtualCharacter.line(vec))
    return out


@dataclass(frozen=True)
class LocalizedKClass:
    """K-class stored as one virtual character per fixed point of one side.

    ``factor_vectors``, when present, records that the restriction at each
    point is the product of (1 - e^w) over the listed weight vectors.  It
    is purely a numerical-evaluation hint: expanding the product and
    summing exponentials cancels catastrophically when the product is
    tiny, while the factored form keeps full relative accuracy.  Linear
    combinations drop the hint.
    """

    side: str
    restrictions: Mapping  # delta tuple -> VirtualCharacter
    factor_vectors: Mapping | None = None  # delta tuple -> tuple of weight vectors

    def __add__(self, other: "LocalizedKClass") -> "LocalizedKClass":
        if other.side != self.side:
            raise ValueError("cannot add classes on different sides")
        return LocalizedKClass(
            self.side,
            {d: self.restrictions[d] + other.restrictions[d] for d in self.restrictions},
        )

    def scaled(self, k: int) -> "LocalizedKClass":
        return LocalizedKClass(self.side, {d: k * v for d, v in self.restrictions.items()})


def _binomial_class(config: FlopConfig, side: str, vectors_at: dict) -> LocalizedKClass:
    """Class restricting at each delta to the binomial product over vectors_at[delta]."""
    return LocalizedKClass(
        side,
        {d: binomial_product(2 * config.n, vecs) for d, vecs in vectors_at.items()},
        vectors_at,
    )


def unit_class(config: FlopConfig, side: str) -> LocalizedKClass:
    return _binomial_class(config, side, {d: () for d in fixed_point_deltas(config)})


def generator_e(config: FlopConfig, delta_minus) -> LocalizedKClass:
    """The minus-side spanning class attached to delta_minus.

    Its restriction at delta0 is the product over i in delta0 and j outside
    delta_minus of (1 - e^{z_i - z_j}); the expansion collapses to the zero
    character at every delta0 != delta_minus because a factor with zero
    exponent appears.
    """
    n = config.n
    rest = [j for j in range(n) if j not in delta_minus]
    return _binomial_class(config, "minus", {
        d0: tuple(_vsub(_zvec(i, n), _zvec(j, n)) for i in d0 for j in rest)
        for d0 in fixed_point_deltas(config)
    })


def fm_generator_formula(config: FlopConfig, delta_minus) -> LocalizedKClass:
    """Closed product formula for the transform of a generator.

    Restriction at delta_plus: prod over i in delta_plus, j outside
    delta_minus of (1 - e^{x_i - z_j}).
    """
    n = config.n
    rest = [j for j in range(n) if j not in delta_minus]
    return _binomial_class(config, "plus", {
        dp: tuple(_vsub(_xvec(i, n), _zvec(j, n)) for i in dp for j in rest)
        for dp in fixed_point_deltas(config)
    })


def tilde_tangent_weight_vectors(config: FlopConfig, delta_minus, delta_plus) -> list:
    """Tangent weights of the common resolution at the pair (dm, dp).

    Blocks: {z_j - z_d : j not in dm, d in dm}, {z_d - x_e : d in dm, e in dp},
    {x_e - x_k : k not in dp, e in dp}; 2rn - r^2 in total.
    """
    n = config.n
    dm, dp = tuple(delta_minus), tuple(delta_plus)
    out = []
    for d in dm:
        for j in range(n):
            if j not in dm:
                out.append(_vsub(_zvec(j, n), _zvec(d, n)))
    for d in dm:
        for e in dp:
            out.append(_vsub(_zvec(d, n), _xvec(e, n)))
    for e in dp:
        for k in range(n):
            if k not in dp:
                out.append(_vsub(_xvec(e, n), _xvec(k, n)))
    return out


def _wedge_dual_value(xs, zs, vectors, scale: complex) -> complex:
    """prod (1 - e^{-scale * w}) over the weight vectors."""
    total = 1.0 + 0j
    for vec in vectors:
        w = weight_complex(xs, zs, vec)
        total *= 1.0 - cmath.exp(-scale * w)
    return total


def chern_character(config: FlopConfig, A: LocalizedKClass, scale: complex = 1.0) -> dict:
    """Restriction vector of the Chern character at exponent scale ``scale``.

    scale = 1 is the plain equivariant Chern character; scale = 2 pi i / z
    is the rescaled variant entering the Gamma-integral structure.  When
    the class carries its binomial factorization the product form is used,
    which stays fully accurate even where the expanded exponential sum
    cancels to something tiny.
    """
    xs, zs = config.complex_weights()
    if A.factor_vectors is not None:
        return {d: _wedge_dual_value(xs, zs, A.factor_vectors[d], -scale) for d in A.restrictions}
    return {d: chi.evaluate(xs, zs, scale) for d, chi in A.restrictions.items()}


def fm_transform(config: FlopConfig, data, scale: complex = 1.0) -> dict:
    """Fourier-Mukai transfer by localization, in restriction coordinates.

    Input is a minus-side class (or a ready-made dict of numeric minus-side
    restriction values at exponent scale ``scale``); output is the dict of
    plus-side restriction values at the same scale:

        FM(A)|_dp = sum_dm A|_dm * wedge(N_dp) / wedge(N_(dm,dp))

    with wedge(N) the product of (1 - e^{-scale*w}) over tangent weights.
    """
    if isinstance(data, LocalizedKClass):
        if data.side != "minus":
            raise ValueError("fm_transform expects a minus-side class")
        vec = chern_character(config, data, scale)
    else:
        vec = dict(data)
    xs, zs = config.complex_weights()
    deltas = fixed_point_deltas(config)
    out = {}
    for dp in deltas:
        plus_wedge = _wedge_dual_value(
            xs, zs, tangent_weight_vectors(config, FixedPointLabel("plus", dp)), scale
        )
        total = 0j
        for dm in deltas:
            tilde = _wedge_dual_value(xs, zs, tilde_tangent_weight_vectors(config, dm, dp), scale)
            if tilde == 0:
                raise DegenerateWeightError("vanishing localization denominator")
            total += vec[dm] * plus_wedge / tilde
        out[dp] = total
    return out


def fm_transform_generator_exact(config: FlopConfig, delta_minus) -> LocalizedKClass:
    """Exact transform of a generator via binomial-multiset cancellation.

    The localization quotient wedge(N_dp)/wedge(N_(dm,dp)) times the
    generator's own restriction is a ratio of products of binomials
    (1 - e^w); for the generator basis the denominator multiset cancels
    entirely into the numerator, leaving an exact virtual character.
    """
    n = config.n
    dm = tuple(delta_minus)
    vectors_at = {}
    for dp in fixed_point_deltas(config):
        num: Counter = Counter()
        den: Counter = Counter()
        # generator restriction at dm: factors (1 - e^{z_i - z_j})
        for i in dm:
            for j in range(n):
                if j not in dm:
                    num[_vsub(_zvec(i, n), _zvec(j, n))] += 1
        # wedge(N_dp): factors (1 - e^{-w})
        for vec in tangent_weight_vectors(config, FixedPointLabel("plus", dp)):
            num[tuple(-a for a in vec)] += 1
        for vec in tilde_tangent_weight_vectors(config, dm, dp):
            den[tuple(-a for a in vec)] += 1
        num.subtract(den)
        if any(c < 0 for c in num.values()):
            raise ArithmeticError("binomial cancellation failed; not a generator transfer")
        vectors_at[dp] = tuple(sorted(num.elements()))
    return _binomial_class(config, "plus", vectors_at)


def euler_characteristic(config: FlopConfig, data, side: str | None = None, scale: complex = 1.0) -> complex:
    """K-theoretic localization sum: sum_d value(d) / wedge(N_d).

    ``data`` may be a LocalizedKClass or a dict of numeric restriction
    values at exponent scale ``scale`` (then ``side`` is required).
    """
    if isinstance(data, LocalizedKClass):
        side = data.side
        xs, zs = config.complex_weights()
        vec = {d: chi.evaluate(xs, zs, scale) for d, chi in data.restrictions.items()}
    else:
        if side is None:
            raise ValueError("side is required for numeric restriction data")
        vec = data
        xs, zs = config.complex_weights()
    total = 0j
    for d, val in vec.items():
        wedge = _wedge_dual_value(
            xs, zs, tangent_weight_vectors(config, FixedPointLabel(side, d)), scale
        )
        if wedge == 0:
            raise DegenerateWeightError("vanishing localization denominator")
        total += val / wedge
    return total


def chi_z_pairing(config: FlopConfig, C: LocalizedKClass, D: LocalizedKClass, z: complex) -> complex:
    """Modified Euler pairing: chi(C^dual (x) D) with weights scaled by 2 pi i / z.

    The scaling applies throughout, to the restrictions and to the
    localization denominators.  The Chern character is multiplicative and
    dualizing flips the exponent sign, so the pairing evaluates the two
    arguments separately (keeping any factored form) instead of expanding
    the product character.
    """
    if C.side != D.side:
        raise ValueError("chi_z_pairing needs classes on the same side")
    if z == 0:
        raise ValueError("z must be nonzero")
    scale = TWO_PI_I / z
    c_vals = chern_character(config, C, -scale)
    d_vals = chern_character(config, D, scale)
    xs, zs = config.complex_weights()
    total = 0j
    for d in c_vals:
        wedge = _wedge_dual_value(
            xs, zs, tangent_weight_vectors(config, FixedPointLabel(C.side, d)), scale
        )
        if wedge == 0:
            raise DegenerateWeightError("vanishing localization denominator")
        total += c_vals[d] * d_vals[d] / wedge
    return total
