"""Equivariant K-theory in fixed-point restriction coordinates.

Classes are stored through their restrictions at the isolated torus-fixed
points, each restriction a finite integer combination of torus characters
(a virtual character).  The Fourier-Mukai transfer through the common
resolution is computed by localization; for the generator basis the
transfer simplifies exactly by multiset cancellation of binomial factors
and is cross-checked against the closed product formula.

A torus weight is an index pair (p, q), the weight w_p - w_q over
w = x + z (index i < n for x_i, n + j for z_j), as in ``flopgeom``.  The
keys of a ``VirtualCharacter`` are the one place where a weight is an
integer vector in Z^{2n}; ``binomial_product`` turns pairs into them.
"""

from __future__ import annotations

import cmath
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .flopgeom import (
    DegenerateWeightError,
    FlopConfig,
    fixed_point_deltas,
    tangent_weight_pairs,
)
from .numkernel import TWO_PI_I, _Lazy, _exact_int


class VirtualCharacter:
    """Finite integer combination of torus characters on (C^*)^{2n}.

    Keys are weight vectors in Z^{2n} (first n entries pair with x, last n
    with z); values are integer multiplicities.  Always kept in canonical
    merged form with no zero coefficients, so equality is structural.  The
    constructor raises ValueError on an entry that is not an exact integer;
    the arithmetic, whose terms are canonical already, does not re-check
    them (``_canonical``).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping | None = None):
        self.nvars = int(nvars)
        clean: dict = {}
        for vec, c in (terms or {}).items():
            vec = tuple(_exact_int(v) for v in vec)
            if len(vec) != self.nvars:
                raise ValueError("weight vector length mismatch")
            c = _exact_int(c)
            if c:
                clean[vec] = clean.get(vec, 0) + c
        self.terms = {v: c for v, c in clean.items() if c}

    @classmethod
    def _canonical(cls, nvars: int, terms: dict) -> "VirtualCharacter":
        """From int-tuple keys of length nvars and int values, as the
        arithmetic below makes them: only the zero terms are dropped, and
        the insertion order, which ``evaluate`` sums in, is kept."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = {v: c for v, c in terms.items() if c}
        return out

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        if other.nvars != self.nvars:
            raise ValueError("weight vector length mismatch")
        terms = dict(self.terms)
        for v, c in other.terms.items():
            terms[v] = terms.get(v, 0) + c
        return VirtualCharacter._canonical(self.nvars, terms)

    def __mul__(self, k: int) -> "VirtualCharacter":
        if not isinstance(k, int):
            return NotImplemented
        return VirtualCharacter._canonical(self.nvars, {v: k * c for v, c in self.terms.items()})

    __rmul__ = __mul__

    def rank(self) -> int:
        return sum(self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, VirtualCharacter) and self.terms == other.terms

    def evaluate(self, xs: Sequence[complex], zs: Sequence[complex], scale: complex = 1.0) -> complex:
        """Chern-character value: sum of c * exp(scale * <w, (x, z)>), each
        dot product summed over x_0, z_0, x_1, z_1, ... in turn."""
        n = len(xs)
        total = 0j
        for vec, c in self.terms.items():
            w = 0j
            for i in range(n):
                if vec[i]:
                    w += vec[i] * xs[i]
                if vec[n + i]:
                    w += vec[n + i] * zs[i]
            total += c * cmath.exp(scale * w)
        return total

    def __repr__(self):
        if not self.terms:
            return "VirtualCharacter(0)"
        return f"VirtualCharacter({len(self.terms)} terms, rank {self.rank()})"


def binomial_product(n: int, pairs) -> VirtualCharacter:
    """prod (1 - e^{w_p - w_q}) over the index pairs, repeats included; 1 if empty.

    The character of 2n variables, keyed by weight vectors in Z^{2n}.  Each
    factor is one pass over the terms so far: a term c e^v gives c e^v and
    then -c e^{v + e_p - e_q}, and the terms that cancel are dropped, so
    the terms come out in the order of the expanded character product,
    which ``evaluate`` sums in.  ValueError on an index outside 0..2n - 1;
    a pair (p, p) makes the product zero.
    """
    nvars = 2 * n
    indices = range(nvars)
    terms = {(0,) * nvars: 1}
    for p, q in pairs:
        if p not in indices or q not in indices:
            raise ValueError(f"weight index pair {(p, q)} outside 0..{nvars - 1}")
        out: dict = {}
        for v, c in terms.items():
            out[v] = out.get(v, 0) + c
            vw = list(v)
            vw[p] += 1
            vw[q] -= 1
            vw = tuple(vw)
            out[vw] = out.get(vw, 0) - c
        terms = {v: c for v, c in out.items() if c}
    return VirtualCharacter._canonical(nvars, terms)


@dataclass(frozen=True)
class LocalizedKClass:
    """K-class stored as one virtual character per fixed point of one side.

    ``factor_pairs``, when present, records that the restriction at each
    point is the product of (1 - e^w) over the listed weight pairs.  It
    is purely a numerical-evaluation hint: expanding the product and
    summing exponentials cancels catastrophically when the product is
    tiny, while the factored form keeps full relative accuracy.  Linear
    combinations drop the hint.
    """

    side: str
    restrictions: Mapping  # delta tuple -> VirtualCharacter
    factor_pairs: Mapping | None = None  # delta tuple -> tuple of weight pairs

    def __add__(self, other: "LocalizedKClass") -> "LocalizedKClass":
        if other.side != self.side:
            raise ValueError("cannot add classes on different sides")
        return LocalizedKClass(
            self.side,
            {d: self.restrictions[d] + other.restrictions[d] for d in self.restrictions},
        )

    def scaled(self, k: int) -> "LocalizedKClass":
        return LocalizedKClass(self.side, {d: k * v for d, v in self.restrictions.items()})


def _binomial_class(config: FlopConfig, side: str, pairs_at: dict) -> LocalizedKClass:
    """Class restricting at each delta to the binomial product over pairs_at[delta]."""
    return LocalizedKClass(
        side,
        {d: binomial_product(config.n, pairs) for d, pairs in pairs_at.items()},
        pairs_at,
    )


def unit_class(config: FlopConfig, side: str) -> LocalizedKClass:
    return _binomial_class(config, side, {d: () for d in fixed_point_deltas(config)})


def _generator_pairs(n: int, delta0, delta_minus) -> tuple:
    """The weights z_i - z_j, i in delta0 and j outside delta_minus."""
    rest = [j for j in range(n) if j not in delta_minus]
    return tuple((n + i, n + j) for i in delta0 for j in rest)


def _held_class(config: FlopConfig, build, delta_minus) -> LocalizedKClass:
    """``build(config, delta_minus)``, built on first use and held for the
    config's lifetime in its ``__dict__`` entry ``_classes``, keyed by
    (build, delta_minus as a tuple).

    Every caller shares the held class: none mutates one, since ``scaled``
    and ``__add__`` build new classes.  A class refers to nothing that
    refers back to the config, so holding it makes no reference cycle.
    """
    memo = config.__dict__.setdefault("_classes", {})
    key = build, tuple(delta_minus)
    A = memo.get(key)
    if A is None:
        A = memo[key] = build(config, key[1])
    return A


def _generator_e(config: FlopConfig, delta_minus: tuple) -> LocalizedKClass:
    return _binomial_class(config, "minus", {
        d0: _generator_pairs(config.n, d0, delta_minus) for d0 in fixed_point_deltas(config)
    })


def generator_e(config: FlopConfig, delta_minus) -> LocalizedKClass:
    """The minus-side spanning class attached to delta_minus, held on the
    config (``_held_class``).

    Its restriction at delta0 is the product over i in delta0 and j outside
    delta_minus of (1 - e^{z_i - z_j}); the expansion collapses to the zero
    character at every delta0 != delta_minus because a factor with zero
    exponent appears.
    """
    return _held_class(config, _generator_e, delta_minus)


def _fm_generator_formula(config: FlopConfig, delta_minus: tuple) -> LocalizedKClass:
    n = config.n
    rest = [j for j in range(n) if j not in delta_minus]
    return _binomial_class(config, "plus", {
        dp: tuple((i, n + j) for i in dp for j in rest)
        for dp in fixed_point_deltas(config)
    })


def fm_generator_formula(config: FlopConfig, delta_minus) -> LocalizedKClass:
    """Closed product formula for the transform of a generator, held on the
    config (``_held_class``).

    Restriction at delta_plus: prod over i in delta_plus, j outside
    delta_minus of (1 - e^{x_i - z_j}).
    """
    return _held_class(config, _fm_generator_formula, delta_minus)


def tilde_tangent_weight_pairs(config: FlopConfig, delta_minus, delta_plus) -> list:
    """Tangent weights of the common resolution at the pair (dm, dp), as
    index pairs.

    Blocks: {z_j - z_d : j not in dm, d in dm}, {z_d - x_e : d in dm, e in dp},
    {x_e - x_k : k not in dp, e in dp}; 2rn - r^2 in total.
    """
    n = config.n
    dm, dp = tuple(delta_minus), tuple(delta_plus)
    return ([(n + j, n + d) for d in dm for j in range(n) if j not in dm]
            + [(n + d, e) for d in dm for e in dp]
            + [(e, k) for e in dp for k in range(n) if k not in dp])


def _wedge_dual_value(ws, pairs, scale: complex) -> complex:
    """prod (1 - e^{-scale * (w_p - w_q)}) over the index pairs, ws = xs + zs."""
    total = 1.0 + 0j
    for p, q in pairs:
        total *= 1.0 - cmath.exp(-scale * (ws[p] - ws[q]))
    return total


def _wedges(config: FlopConfig, scale: complex) -> _Lazy:
    """The localization denominators of one (config, scale), each built on
    first use and held for the config's lifetime in its ``__dict__`` entry
    ``_wedges``, keyed by scale.

    Key (side, delta) gives wedge(N_delta) over the fixed point's tangent
    weights; key (delta_minus, delta_plus) gives wedge(N_(dm,dp)) over the
    common resolution's.  Each is ``_wedge_dual_value`` at ``scale``.
    The table reaches the config through a weak reference, for the reason
    ``FlopConfig.flipped`` gives.
    """
    memo = config.__dict__.setdefault("_wedges", {})
    wedges = memo.get(scale)
    if wedges is None:
        xs, zs = config.complex_weights()
        ws = xs + zs
        owner = weakref.ref(config)

        def wedge(a, b) -> complex:
            if isinstance(a, str):
                pairs = tangent_weight_pairs(owner(), a, b)
            else:
                pairs = tilde_tangent_weight_pairs(owner(), a, b)
            return _wedge_dual_value(ws, pairs, scale)

        wedges = memo[scale] = _Lazy(wedge)
    return wedges


def chern_character(config: FlopConfig, A: LocalizedKClass, scale: complex = 1.0) -> dict:
    """Restriction vector of the Chern character at exponent scale ``scale``.

    scale = 1 is the plain equivariant Chern character; scale = 2 pi i / z
    is the rescaled variant entering the Gamma-integral structure.  When
    the class carries its binomial factorization the product form is used,
    which stays fully accurate even where the expanded exponential sum
    cancels to something tiny.
    """
    xs, zs = config.complex_weights()
    if A.factor_pairs is not None:
        ws = xs + zs
        return {d: _wedge_dual_value(ws, A.factor_pairs[d], -scale) for d in A.restrictions}
    return {d: chi.evaluate(xs, zs, scale) for d, chi in A.restrictions.items()}


def fm_transform(config: FlopConfig, A: LocalizedKClass, scale: complex = 1.0) -> dict:
    """Fourier-Mukai transfer by localization, in restriction coordinates.

    Input is a minus-side class; output is the dict of plus-side
    restriction values at exponent scale ``scale``:

        FM(A)|_dp = sum_dm ch(A)|_dm * wedge(N_dp) / wedge(N_(dm,dp))

    with ch(A) its ``chern_character`` at ``scale`` and wedge(N) the
    product of (1 - e^{-scale*w}) over tangent weights.
    """
    if A.side != "minus":
        raise ValueError("fm_transform expects a minus-side class")
    vec = chern_character(config, A, scale)
    wedges = _wedges(config, scale)
    deltas = fixed_point_deltas(config)
    out = {}
    for dp in deltas:
        plus_wedge = wedges["plus", dp]
        total = 0j
        for dm in deltas:
            tilde = wedges[dm, dp]
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
    entirely into the numerator, leaving an exact virtual character.  The
    multisets hold index pairs; the dual weight -w of (p, q) is (q, p).
    """
    dm = tuple(delta_minus)
    # generator restriction at dm: factors (1 - e^{z_i - z_j})
    generator = _generator_pairs(config.n, dm, dm)
    pairs_at = {}
    for dp in fixed_point_deltas(config):
        num = Counter(generator)
        # wedge(N_dp) over wedge(N_(dm,dp)): factors (1 - e^{-w})
        num.update((q, p) for p, q in tangent_weight_pairs(config, "plus", dp))
        num.subtract((q, p) for p, q in tilde_tangent_weight_pairs(config, dm, dp))
        if any(c < 0 for c in num.values()):
            raise ArithmeticError("binomial cancellation failed; not a generator transfer")
        pairs_at[dp] = tuple(sorted(num.elements()))
    return _binomial_class(config, "plus", pairs_at)


def euler_characteristic(config: FlopConfig, vec: dict, side: str, scale: complex = 1.0) -> complex:
    """K-theoretic localization sum: sum_d vec[d] / wedge(N_d).

    ``vec`` holds numeric restriction values at ``side``'s fixed points, at
    exponent scale ``scale``; for a class they are its ``chern_character``.
    It is the one such sum: ``chi_z_pairing`` sums through it.
    """
    wedges = _wedges(config, scale)
    total = 0j
    for d, val in vec.items():
        wedge = wedges[side, d]
        if wedge == 0:
            raise DegenerateWeightError("vanishing localization denominator")
        total += val / wedge
    return total


def chi_z_pairing(config: FlopConfig, ch_c: dict, ch_d: dict, side: str, z: complex) -> complex:
    """Modified Euler pairing: chi(C^dual (x) D) with weights scaled by 2 pi i / z.

    ``ch_c`` is ``chern_character(config, C, -2 pi i / z)`` and ``ch_d`` is
    ``chern_character(config, D, 2 pi i / z)``, both classes on ``side``:
    the Chern character is multiplicative and dualizing flips the exponent
    sign, so the pairing takes the two arguments' characters separately
    (each keeping any factored form) instead of expanding the product
    character, and a caller pairing a class many times builds its
    characters once.  The scaling applies throughout, to the restrictions
    and to the localization denominators.
    """
    return euler_characteristic(config, {d: ch_c[d] * ch_d[d] for d in ch_c}, side, TWO_PI_I / z)
