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

Every such weight is an index pair (p, q): the weight w_p - w_q over
w = x + z, index i < n for x_i and n + j for z_j (``tangent_weight_pairs``).
A fixed point is its delta tuple (``fixed_point_deltas``), with
``FixedPointLabel`` adding the side for ``tangent_weights`` and
``restrict_chern_roots``.  The instance holds each fixed point's weights as
integers over one common denominator (``FlopConfig.fixed_point_table``,
``TangentWeights``).
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Literal

Side = Literal["plus", "minus"]

SIDES = ("plus", "minus")


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
    built here, and per side and fixed point the tangent weights as
    integers over one denominator and their Euler class, built on first
    use (``fixed_point_table``).
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
        object.__setattr__(self, "_complex", (_complex_view("x", x), _complex_view("z", z)))

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
        """(side, delta) -> ``TangentWeights``: the tangent weights at the
        fixed point as integer numerators over one denominator.

        Every weight is w_p - w_q over w = x + z (``tangent_weight_pairs``).
        With w = num / den over the lcm den of the denominators, the weight
        is (num[p] - num[q]) / den, and the Euler class e(N) is the product
        of these integer differences over den ** dim.  No Fraction is built:
        a reader compares, sums or multiplies the integers, or reads the
        entry's float view.
        """
        xz = self.x + self.z
        den = math.lcm(*(w.denominator for w in xz))
        num = [w.numerator * (den // w.denominator) for w in xz]
        table = {}
        for side in SIDES:
            for delta in fixed_point_deltas(self):
                pairs = tangent_weight_pairs(self, side, delta)
                nums = tuple(num[p] - num[q] for p, q in pairs)
                if 0 in nums:
                    raise DegenerateWeightError(f"zero tangent weight at {side} {delta}")
                table[side, delta] = TangentWeights(nums, den, math.prod(nums))
        return table

    def flipped(self) -> "FlopConfig":
        """The flop involution x -> -z, z -> -x (exchanges the two sides).

        Built on the first call and held, with this instance as its flip.
        The flip holds this instance through a weak reference: a strong one
        would make a reference cycle, which only the cyclic collector frees,
        so every dropped config would keep its tables until it ran.
        """
        flip = self.__dict__.get("_flip")
        if isinstance(flip, weakref.ref):
            flip = flip()
        if flip is None:
            flip = FlopConfig(self.n, self.r, tuple(-v for v in self.z), tuple(-v for v in self.x))
            object.__setattr__(flip, "_flip", weakref.ref(self))
            object.__setattr__(self, "_flip", flip)
        return flip


@dataclass(frozen=True)
class TangentWeights:
    """The tangent weights at one fixed point, w_t = nums[t] / den, exactly.

    ``den`` is the instance's common denominator, shared by every entry of
    its ``fixed_point_table``, and ``euler`` is the integer product of
    ``nums``: e(N) = euler / den ** len(nums).  The float views are built on
    first use.  Integer true division rounds correctly, so each is
    ``complex(Fraction)`` of the exact value, bit for bit; OverflowError
    where it does not fit a float.
    """

    nums: tuple
    den: int
    euler: int

    @cached_property
    def values(self) -> tuple:
        """complex(w_t) per weight, in the order of ``nums``."""
        return tuple(complex(num / self.den) for num in self.nums)

    @cached_property
    def euler_value(self) -> complex:
        """complex(e(N))."""
        return complex(self.euler / self.den ** len(self.nums))


def _complex_view(name: str, weights: tuple) -> tuple:
    """The weights as complex numbers; ConfigError naming one that does not fit a float."""
    out = []
    for i, v in enumerate(weights):
        try:
            out.append(complex(v))
        except OverflowError:
            size = math.log10(abs(v.numerator)) - math.log10(v.denominator)
            raise ConfigError(f"weight {name}[{i}] (|w| ~ 10^{size:.1f}) does not fit a float") from None
    return tuple(out)


def random_config(n: int, r: int, seed: int, scale=Fraction(1, 10)) -> FlopConfig:
    """Draw generic rational weights p/q, p in [-50, 50], q in [1, 50].

    Rejection-sampled until generic; the scale factor (default 1/10) keeps
    series arguments small.  Deterministic for a fixed seed.  Only a
    degenerate draw is retried: any other ConfigError, such as r outside
    0 < r < n, no draw can mend, so it is raised.
    """
    rng = random.Random(seed)
    scale = Fraction(scale)
    if scale == 0:
        raise ConfigError("weight scale 0 makes every draw degenerate")
    while True:
        vals = [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) * scale for _ in range(2 * n)]
        try:
            return FlopConfig(n, r, tuple(vals[:n]), tuple(vals[n:]))
        except DegenerateWeightError:
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


def fixed_point_deltas(config: FlopConfig) -> list[tuple]:
    """All C(n, r) fixed points of either side as increasing r-tuples, lexicographic."""
    return list(combinations(range(config.n), config.r))


def restrict_chern_roots(config: FlopConfig, label: FixedPointLabel) -> list:
    """Restrictions of the dual-tautological Chern roots y_i at the fixed point.

    Minus side: y_i = -z_{delta_i}; plus side: y_i = -x_{delta_i}, ordered
    by the increasing order of delta.
    """
    if label.side == "minus":
        return [-config.z[d] for d in label.delta]
    return [-config.x[d] for d in label.delta]


def tangent_weight_pairs(config: FlopConfig, side: str, delta: tuple) -> list:
    """Tangent weights at the fixed point ``delta`` (an increasing tuple) of
    ``side`` as index pairs (p, q): the weight is w_p - w_q over w = x + z
    (index i < n is x_i, index n + j is z_j)."""
    n = config.n
    rest = [j for j in range(n) if j not in delta]
    if _check_side(side) == "minus":
        return ([(n + j, n + d) for d in delta for j in rest]
                + [(n + d, j) for d in delta for j in range(n)])
    return ([(d, j) for d in delta for j in rest]
            + [(n + j, d) for d in delta for j in range(n)])


def tangent_weights(config: FlopConfig, label: FixedPointLabel) -> tuple:
    """Exact tangent weights (2rn - r^2 of them) as Fractions, from the
    instance's table."""
    weights = config.fixed_point_table[label.side, label.delta]
    return tuple(Fraction(num, weights.den) for num in weights.nums)


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


def check_relations(config: FlopConfig, side: str) -> RelationReport:
    """Restriction-wise vanishing of the quotient-ring relations.

    At a fixed point delta, with y the restricted Chern roots
    (``restrict_chern_roots``) and w the side's weights (x on the plus
    side, z on the minus side), prod_j (1 + w_j t) / prod_i (1 - y_i t) is
    a polynomial of degree n - r in t, since each y_i = -w_{delta_i}
    cancels one numerator factor.  The ratio is expanded exactly to degree
    n, and each coefficient of degree n - r + 1, ..., n must vanish; degree
    n - r is not flagged.  A root off -w_{delta_i}, such as the other
    side's, leaves a factor uncancelled and, at generic weights, those
    coefficients nonzero.

    The expansion runs on integers.  With every w and y an integer W, Y
    over one denominator D, coefficient k times D^k obeys the same two
    recurrences in W and Y, and is zero exactly when the coefficient is.
    D is the lcm of the weights' denominators and, at each fixed point,
    of its roots' denominators too, so a root over another denominator is
    expanded exactly as well.
    """
    _check_side(side)
    n, r = config.n, config.r
    ws = config.x if side == "plus" else config.z
    den = math.lcm(*(w.denominator for w in ws))
    # coefficient k of prod_j (1 + w_j t) times den^k, degree n
    numerator = [1] + [0] * n
    for w in ws:
        w = w.numerator * (den // w.denominator)
        for k in range(n, 0, -1):
            numerator[k] += w * numerator[k - 1]
    cases: dict = {}
    for delta in fixed_point_deltas(config):
        roots = restrict_chern_roots(config, FixedPointLabel(side, delta))
        d = math.lcm(den, *(y.denominator for y in roots))
        coeffs = [c * (d // den) ** k for k, c in enumerate(numerator)]
        # divided by each 1 - y t, as a series to degree n
        for y in roots:
            y = y.numerator * (d // y.denominator)
            for k in range(1, n + 1):
                coeffs[k] += y * coeffs[k - 1]
        for l in range(n - r + 1, n + 1):
            cases[(delta, l)] = coeffs[l] == 0
    return RelationReport(side=side, cases=cases)
