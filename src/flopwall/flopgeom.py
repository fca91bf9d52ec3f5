"""Fixed-point geometry of a Grassmann-flop instance over a point.

An instance is the pair of GIT quotients of Hom(F, C^r) x Hom(C^r, E) by
GL_r for the two determinant characters, where E and F are sums of n
equivariant line bundles.  The torus (C^*)^{2n} scales the summands; we
store the weights x_i = c1(L_i^dual) and z_i = c1(M_i^dual) exactly as
rationals.  Fixed points on either quotient are isolated and labelled by
size-r subsets of {1..n} (0-based tuples in code).

Weight conventions.  With R the rank-r tautological class, the tangent
class of either quotient is F^dual (x) R^dual + R (x) E - End(R), and its
restriction at a fixed point gives:

    minus side, delta:  {z_j - z_d : j not in delta, d in delta}
                        u {z_d - x_j : d in delta, all j}
    plus side,  delta:  {x_d - x_j : j not in delta, d in delta}
                        u {z_j - x_d : d in delta, all j}

The two sides are exchanged by the flop involution x -> -z, z -> -x.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product
from typing import Literal, Sequence

from .numkernel import MultiPoly, series_inverse

Side = Literal["plus", "minus"]

SIDES = ("plus", "minus")

#: Weight vectors are integer tuples of length 2n: the first n entries pair
#: with the x weights, the last n with the z weights.
WeightVector = tuple


class ConfigError(ValueError):
    """Invalid or non-generic instance data."""


class DegenerateWeightError(ConfigError):
    """A localization weight vanished; the configuration is not generic."""


def _check_side(side: str) -> str:
    if side not in SIDES:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    return side


@dataclass(frozen=True)
class FlopConfig:
    """Instance data: n, r and the 2n equivariant weights, exact.

    Genericity (no vanishing pairwise difference x_i - x_j, z_i - z_j for
    i != j, nor any x_i - z_j) is enforced eagerly; every localization
    denominator in the engine is a product of such differences.

    The instance also holds its weight table: the complex view of x and z,
    built here, and per side and fixed point the exact tangent weights and
    their Euler class, built on first use (``fixed_point_table``).
    """

    n: int
    r: int
    x: tuple
    z: tuple

    def __post_init__(self):
        if not (0 < self.r < self.n):
            raise ConfigError(f"need 0 < r < n, got r={self.r}, n={self.n}")
        x = tuple(Fraction(v) for v in self.x)
        z = tuple(Fraction(v) for v in self.z)
        if len(x) != self.n or len(z) != self.n:
            raise ConfigError("weight lists must both have length n")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        for i in range(self.n):
            for j in range(self.n):
                if i != j and x[i] == x[j]:
                    raise DegenerateWeightError(f"x[{i}] == x[{j}]")
                if i != j and z[i] == z[j]:
                    raise DegenerateWeightError(f"z[{i}] == z[{j}]")
                if x[i] == z[j]:
                    raise DegenerateWeightError(f"x[{i}] == z[{j}]")
        object.__setattr__(self, "_complex", (tuple(map(complex, x)), tuple(map(complex, z))))

    @property
    def dim(self) -> int:
        """Complex dimension of either GIT quotient: 2rn - r^2."""
        return 2 * self.r * self.n - self.r * self.r

    def complex_weights(self, scale: complex = 1.0) -> tuple[tuple, tuple]:
        """Floating view (x, z) with every weight multiplied by ``scale``."""
        if scale == 1:
            return self._complex
        s = complex(scale)
        return tuple(s * v for v in self._complex[0]), tuple(s * v for v in self._complex[1])

    @cached_property
    def fixed_point_table(self) -> dict:
        """(side, delta) -> (exact tangent weights, their product e(N))."""
        table = {}
        for side in SIDES:
            for delta in fixed_point_deltas(self):
                label = FixedPointLabel(side, delta)
                vectors = tangent_weight_vectors(self, label)
                weights = tuple(weight_value(self, vec) for vec in vectors)
                if 0 in weights:
                    raise DegenerateWeightError(f"zero tangent weight at {label}")
                euler = Fraction(1)
                for w in weights:
                    euler *= w
                table[side, delta] = (weights, euler)
        return table

    def flipped(self) -> "FlopConfig":
        """The flop involution x -> -z, z -> -x (exchanges the two sides).

        Built on the first call and held, with this instance as its flip.
        """
        flip = self.__dict__.get("_flip")
        if flip is None:
            flip = FlopConfig(self.n, self.r, tuple(-v for v in self.z), tuple(-v for v in self.x))
            object.__setattr__(flip, "_flip", self)
            object.__setattr__(self, "_flip", flip)
        return flip


def random_config(n: int, r: int, seed: int, scale=Fraction(1, 10)) -> FlopConfig:
    """Draw generic rational weights p/q, p in [-50, 50], q in [1, 50].

    Rejection-sampled until generic; the scale factor (default 1/10) keeps
    series arguments small.  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    scale = Fraction(scale)
    while True:
        vals = [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) * scale for _ in range(2 * n)]
        try:
            return FlopConfig(n, r, tuple(vals[:n]), tuple(vals[n:]))
        except ConfigError:
            continue


@dataclass(frozen=True, order=True)
class FixedPointLabel:
    """A torus-fixed point: a side and a strictly increasing r-tuple (0-based)."""

    side: str
    delta: tuple

    def __post_init__(self):
        _check_side(self.side)
        delta = tuple(int(i) for i in self.delta)
        if any(b <= a for a, b in zip(delta, delta[1:])):
            raise ValueError(f"delta must be strictly increasing, got {delta}")
        if delta and delta[0] < 0:
            raise ValueError("negative index")
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True, order=True)
class AbelianLabel:
    """Fixed point of the associated abelian quotient: any function tuple."""

    side: str
    f: tuple

    def __post_init__(self):
        _check_side(self.side)
        object.__setattr__(self, "f", tuple(int(i) for i in self.f))


def enumerate_fixed_points(config: FlopConfig, side: str) -> list[FixedPointLabel]:
    """All C(n, r) labels on the given side, lexicographic."""
    _check_side(side)
    return [FixedPointLabel(side, d) for d in combinations(range(config.n), config.r)]


def fixed_point_deltas(config: FlopConfig) -> list[tuple]:
    return list(combinations(range(config.n), config.r))


def enumerate_abelian(config: FlopConfig, side: str, injective_only: bool = False) -> list[AbelianLabel]:
    """All n^r functions {1..r} -> {1..n}, or the n!/(n-r)! injective ones."""
    _check_side(side)
    if injective_only:
        return [AbelianLabel(side, f) for f in permutations(range(config.n), config.r)]
    return [AbelianLabel(side, f) for f in product(range(config.n), repeat=config.r)]


def restrict_chern_roots(config: FlopConfig, label: FixedPointLabel) -> list:
    """Restrictions of the dual-tautological Chern roots y_i at the fixed point.

    Minus side: y_i = -z_{delta_i}; plus side: y_i = -x_{delta_i}, ordered
    by the increasing order of delta.
    """
    if label.side == "minus":
        return [-config.z[d] for d in label.delta]
    return [-config.x[d] for d in label.delta]


def _xvec(i: int, n: int) -> WeightVector:
    v = [0] * (2 * n)
    v[i] = 1
    return tuple(v)


def _zvec(j: int, n: int) -> WeightVector:
    v = [0] * (2 * n)
    v[n + j] = 1
    return tuple(v)


def _vsub(a: WeightVector, b: WeightVector) -> WeightVector:
    return tuple(p - q for p, q in zip(a, b))


def tangent_weight_vectors(config: FlopConfig, label: FixedPointLabel) -> list:
    """Tangent weights at the fixed point as integer vectors in Z^{2n}."""
    n = config.n
    delta = label.delta
    rest = [j for j in range(n) if j not in delta]
    out = []
    if label.side == "minus":
        for d in delta:
            for j in rest:
                out.append(_vsub(_zvec(j, n), _zvec(d, n)))
        for d in delta:
            for j in range(n):
                out.append(_vsub(_zvec(d, n), _xvec(j, n)))
    else:
        for d in delta:
            for j in rest:
                out.append(_vsub(_xvec(d, n), _xvec(j, n)))
        for d in delta:
            for j in range(n):
                out.append(_vsub(_zvec(j, n), _xvec(d, n)))
    return out


def weight_value(config: FlopConfig, vec: WeightVector) -> Fraction:
    n = config.n
    total = Fraction(0)
    for i in range(n):
        if vec[i]:
            total += vec[i] * config.x[i]
        if vec[n + i]:
            total += vec[n + i] * config.z[i]
    return total


def weight_complex(xs: Sequence[complex], zs: Sequence[complex], vec: WeightVector) -> complex:
    n = len(xs)
    total = 0j
    for i in range(n):
        if vec[i]:
            total += vec[i] * xs[i]
        if vec[n + i]:
            total += vec[n + i] * zs[i]
    return total


def tangent_weights(config: FlopConfig, label: FixedPointLabel) -> tuple:
    """Exact tangent weights (2rn - r^2 of them), from the instance's table."""
    return config.fixed_point_table[label.side, label.delta][0]


def euler_class_normal(config: FlopConfig, label: FixedPointLabel) -> Fraction:
    """Product of the tangent weights (fixed points are isolated, N = T)."""
    return config.fixed_point_table[label.side, label.delta][1]


# ----------------------------------------------------------------------
# Cohomology relation checks
# ----------------------------------------------------------------------

@dataclass
class RelationReport:
    """Pass/fail of the graded relation parts per (fixed point, degree l)."""

    side: str
    cases: dict

    @property
    def ok(self) -> bool:
        return all(self.cases.values())

    def failures(self):
        return [k for k, v in self.cases.items() if not v]


def check_relations(config: FlopConfig, side: str) -> RelationReport:
    """Restriction-wise vanishing of the quotient-ring relations.

    At a fixed point delta the presentation's generating ratio, with the
    Chern roots y_j substituted by their restrictions, telescopes to a
    polynomial of degree n - r in the remaining weight variables; the
    checker expands the ratio exactly as a series to degree n and requires
    every graded part of degree l > n - r to vanish identically.  The
    degree-(n - r) part itself is not required to vanish and is not
    flagged.
    """
    _check_side(side)
    n, r = config.n, config.r
    one = MultiPoly.constant(n, 1)
    cases: dict = {}
    for delta in fixed_point_deltas(config):
        if side == "plus":
            # prod_i (1 - v_i) / prod_{j in delta} (1 - v_j), v_i the x variables
            num = one
            for i in range(n):
                num = num * (one - MultiPoly.variable(n, i))
            den = one
            for d in delta:
                den = den * (one - MultiPoly.variable(n, d))
        else:
            # prod_i (1 + v_i) / prod_{j in delta} (1 + v_j), v_i the z variables
            num = one
            for i in range(n):
                num = num * (one + MultiPoly.variable(n, i))
            den = one
            for d in delta:
                den = den * (one + MultiPoly.variable(n, d))
        ratio = num.mul_truncated(series_inverse(den, n), n)
        for l in range(n - r + 1, n + 1):
            cases[(delta, l)] = ratio.graded_part(l).is_zero()
    return RelationReport(side=side, cases=cases)
