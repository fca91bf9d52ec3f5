"""Truncated hypergeometric series at the fixed points and their analytic
continuation across the wall by the Mellin-Barnes method.

A fixed-point series is one type, ``OffsetSeries``, in r >= 1 variables
with complex offsets a_k.  All q-dependence flows through w = log q: every
variable is evaluated at the same w, as sum_es c_es exp(w sum_k (a_k + e_k)),
so q^{...} never needs a branch choice.  A series takes all its 1/Gamma
values from one ``recip_gamma`` call, since each depends on a slot and its
exponent only (``_recip_table``).  Continuation paths live in the w-plane
and cross the wall at height (n - r) pi, the midline of the strip on which
the vertical-contour integral converges.

Contour bookkeeping.  The series equals a contour integral of a ratio of
Gamma factors around the nonnegative integers.  We trade that contour for
the vertical line Re s = -1/2; with small real weights the d = 0 members
of the left pole families sit on the imaginary axis, i.e. on the wrong
side of the line, so the line integral is corrected by the residues of
every non-integer pole with Re s > -1/2.  The corrected value reproduces
the series for Re w < 0 and its continuation past the wall for Re w > 0.
Nearly coincident correction poles, whose residues can cancel to many
digits, are summed together as one circle integral (``barnes_integrate``).
The integrand is summed in log space, one ``numkernel.log_gamma`` call per
Gamma factor and node array (``barnes_integrand``).  Each trapezoidal sum
halves its step until it settles; its first levels come from one node
array, the finest lattice among them, whose slices give the coarser sums
bit for bit (``_halving_trapezoid``).  On the truncation ladder and on the
line's lattice the three Gamma factors that hold no weight come from
process-wide tables (``_ladder_rows``, ``_lattice_rows``).  The correction
residues take all their Gamma values from one ``log_gamma`` call and all
their 1/Gamma values from one ``recip_gamma`` call (``_residues``).

Every one-variable series also solves the hypergeometric ODE that
``ode_check`` states, so its continuation is a product of Taylor step
matrices along the path (``ode_transfer``), and the transfer coefficients
at r = 1 are that ODE's connection matrix (``verify_continuation_r1``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from itertools import product as iter_product
from typing import NamedTuple

import numpy as np

from .flopgeom import FlopConfig, fixed_point_deltas
from .numkernel import (
    POLE_TOL,
    NonFiniteError,
    PoleError,
    TWO_PI_I,
    is_nonpositive_integer,
    log_gamma,
    recip_gamma,
    sin_over_2i,
    worst_error,
)
from .wallcross import (
    LocalizedCohClass,
    PsiContext,
    gamma_class,
    pairing,
    transition_matrix,
)


class NonConvergenceError(ArithmeticError):
    """The contour-integral tail bound cannot be met."""


class PathError(ValueError):
    """A continuation path runs too close to the pole lines."""


# ----------------------------------------------------------------------
# Series container
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OffsetSeries:
    """Truncated series in r >= 1 variables, one complex offset per variable:

        prefactor * sum_es c_es prod_k q_k^{a_k + e_k},

    with ``coeffs`` keyed by exponent tuples es, (e,) for one variable, and
    ``order`` the truncation of the total degree e_1 + ... + e_r: the
    constructors here store every es with total degree <= order and no
    other.  ``prefactor`` is scalar
    metadata multiplying the whole series (kept separate so
    abelian/non-abelian bookkeeping can split it off).
    """

    offsets: tuple
    coeffs: dict  # tuple[int, ...] -> complex
    order: int
    prefactor: complex = 1.0 + 0j

    def eval(self, w: complex) -> complex:
        """Value with every variable at log q = w, never a bare q.

        Every stored term is summed, in the order of ``coeffs``, which the
        constructors here fill by increasing exponent.  NonFiniteError
        where a power of q overflows.
        """
        a = sum(self.offsets)
        exp = cmath.exp
        total = 0j
        try:
            for es, c in self.coeffs.items():
                total += c * exp(w * sum(es, a))  # a + e_1 + ... + e_r
        except OverflowError:
            raise NonFiniteError(f"a power of q overflows at w = {w!r}") from None
        return total * self.prefactor

    def specialize(self) -> "OffsetSeries":
        """One-variable series at q_1 = ... = q_r = q: offsets add, indices
        collapse, and the coefficient of degree e sums the stored
        compositions of e, in the order of ``coeffs``.
        """
        coeffs: dict = {}
        for es, c in self.coeffs.items():
            tot = sum(es)
            coeffs[tot,] = coeffs.get((tot,), 0j) + c
        return OffsetSeries((sum(self.offsets),), coeffs, self.order, self.prefactor)

    @property
    def offset(self) -> complex:
        """The offset of a one-variable series; ValueError for more variables."""
        if len(self.offsets) != 1:
            raise ValueError(f"expected a one-variable series, got {len(self.offsets)} variables")
        return self.offsets[0]

    def coefficient(self, *es: int) -> complex:
        """c_es, one exponent per variable; 0 outside the support."""
        if len(es) != len(self.offsets):
            raise ValueError(f"expected {len(self.offsets)} exponents, got {len(es)}")
        return self.coeffs.get(es, 0j)

    def to_json_dict(self) -> dict:
        """The one-variable form: offset, prefactor, order and [e, re, im] rows."""
        offset = self.offset
        return {
            "offset": [offset.real, offset.imag],
            "prefactor": [self.prefactor.real, self.prefactor.imag],
            "order": self.order,
            "coeffs": [[e, c.real, c.imag] for (e,), c in sorted(self.coeffs.items())],
        }


def series_product(factors) -> OffsetSeries:
    """Outer product of series: offsets and exponent tuples concatenate.

    Its order is the least of the factors', and only the terms of total
    degree up to it are kept.
    """
    factors = list(factors)
    order = min(f.order for f in factors)
    prefactor = 1.0 + 0j
    for f in factors:
        prefactor *= f.prefactor
    coeffs: dict = {}
    for terms in iter_product(*(f.coeffs.items() for f in factors)):
        es = sum((e for e, _ in terms), ())
        if sum(es) > order:
            continue
        c = 1.0 + 0j
        for _, ce in terms:
            c *= ce
        coeffs[es] = c
    return OffsetSeries(
        offsets=sum((f.offsets for f in factors), ()),
        coeffs=coeffs,
        order=order,
        prefactor=prefactor,
    )


def delta_hat_apply(series: OffsetSeries) -> OffsetSeries:
    """Antisymmetrizing differential operator prod_k prod_{i<k} (-d_k + d_i).

    Each logarithmic derivative d_k acts on q_k^{a_k+e_k} by multiplication
    with a_k + e_k; r = 1 is the identity (empty product).
    """
    r = len(series.offsets)
    coeffs = {}
    for es, c in series.coeffs.items():
        factor = 1.0 + 0j
        for k in range(r):
            for i in range(k):
                factor *= (series.offsets[i] + es[i]) - (series.offsets[k] + es[k])
        coeffs[es] = c * factor
    return replace(series, coeffs=coeffs)


# ----------------------------------------------------------------------
# The hypergeometric series at a fixed point (curve class zero)
# ----------------------------------------------------------------------

def _u(weight_scale: complex) -> complex:
    # exponent unit: weights enter Gamma arguments divided by 2 pi i
    return complex(weight_scale) / TWO_PI_I


def _compositions_up_to(r: int, order: int) -> list:
    """Every r-tuple of non-negative integers with sum <= order, lexicographic."""
    if r == 1:
        return [(e,) for e in range(order + 1)]
    return [(e,) + rest for e in range(order + 1) for rest in _compositions_up_to(r - 1, order - e)]


def _recip_table(config: FlopConfig, d: tuple, order: int, u: complex) -> list:
    """The 1/Gamma factors of every slot k of d and exponent e <= order.

    ``table[k][e]`` lists, for j = 0, ..., n - 1 in turn,
    1/Gamma(1 + (x_{d_k} - x_j) u + e) and 1/Gamma(1 + (z_j - x_{d_k}) u - e).
    They depend on (k, e) only, so every coefficient of the series reads
    its factors here, and all of them come from one ``recip_gamma`` call.
    The arguments go to it in the order in which a loop over the
    compositions of total degree <= order, in lexicographic order
    (``_compositions_up_to``), first meets them, every slot at e = 0 and
    then slots r - 1 down to 0 at e = 1, ..., order, so an error is the one
    the scalar call at the first argument that loop rejects would raise
    (``_kernel_values``).  An argument is its base 1 + (x_{d_k} - x_j) u or
    1 + (z_j - x_{d_k}) u, computed once per (k, j), plus or minus e: the
    same floats as the sum written out, which adds e last.
    """
    n = config.n
    visits, args = _recip_args(config, d, order, u)
    values = _kernel_values(recip_gamma, args)
    table = [[None] * (order + 1) for _ in d]
    for i, (k, e) in enumerate(visits):
        table[k][e] = values[2 * n * i:2 * n * (i + 1)]
    return table


def _recip_args(config: FlopConfig, d: tuple, order: int, u: complex) -> tuple:
    """(visits, args) of ``_recip_table``: the (k, e) in the order the
    series meets them, and per visit its 2n 1/Gamma arguments."""
    xs, zs = config.complex_weights()
    n, es = config.n, range(order + 1)
    visits = ([(k, e) for e in es[:1] for k in range(len(d))]
              + [(k, e) for k in reversed(range(len(d))) for e in es[1:]])
    bases = [[(1 + (xs[dk] - xs[j]) * u, 1 + (zs[j] - xs[dk]) * u) for j in range(n)] for dk in d]
    return visits, [a for k, e in visits for up, down in bases[k] for a in (up + e, down - e)]


def recip_overflow(config: FlopConfig, side: str, delta, order: int) -> tuple | None:
    """The first (slot, e) whose 1/Gamma factors in ``h_series(config, side,
    delta, order)`` are not all finite, in the order the series meets them
    (``_recip_table``), or None if every factor is finite.

    Slot k is the k-th index of delta.  1/Gamma(1 + b - e) outgrows a float
    once e passes ~171, so an order past that fails; this names where.
    """
    if side == "minus":
        config = config.flipped()
    visits, args = _recip_args(config, _delta_of(config, delta), order, _u(1.0))
    for i, a in enumerate(args):
        try:
            recip_gamma(a)
        except NonFiniteError:
            return visits[i // (2 * config.n)]
    return None


def _delta_of(config: FlopConfig, delta) -> tuple:
    """``delta`` as a tuple; ValueError unless it holds exactly r indices."""
    d = tuple(delta)
    if len(d) != config.r:
        raise ValueError(f"delta {d} needs exactly r = {config.r} indices")
    return d


def f_factor_series(config: FlopConfig, delta, k: int, order: int,
                    weight_scale: complex = 1.0) -> OffsetSeries:
    """Single-variable factor of the plus-side series at slot k of delta.

    Each coefficient is a finite product of reciprocal-Gamma values, all
    from one ``recip_gamma`` call (``_recip_table``); the alternating phase
    (-1)^{(r-1)e} keeps the product-of-factors form compatible with the
    antisymmetrized full series.  ValueError unless ``delta`` holds
    exactly r indices.
    """
    xs, _ = config.complex_weights()
    u = _u(weight_scale)
    d = _delta_of(config, delta)[k]
    table, = _recip_table(config, (d,), order, u)
    coeffs = {}
    for e in range(order + 1):
        c = complex((-1.0) ** (((config.r - 1) * e) % 2))
        for v in table[e]:
            c *= v
        coeffs[e,] = c
    return OffsetSeries(offsets=(xs[d] * u,), coeffs=coeffs, order=order)


def h_series(config: FlopConfig, side: str, delta, order: int,
             weight_scale: complex = 1.0) -> OffsetSeries:
    """Fixed-point restriction of the wall-crossing series, curve class zero.

    A series in r variables, one per slot of delta, truncated at total
    degree ``order``.  The sine prefactor pi^{r(r-1)/2} / prod_{i<k} sin((..)/2i)
    is carried as metadata, not folded into the coefficients, so the stored
    coefficients are those of the Gamma-product form.  Support is e >= 0 in
    every variable.  The 2n r (order + 1) distinct 1/Gamma factors come from
    one ``recip_gamma`` call (``_recip_table``), and each coefficient
    multiplies its sign, its pair factors and its 1/Gamma factors slot by
    slot in a fixed order.

    ValueError unless ``delta`` holds exactly r indices.

    The minus side is the plus side on ``config.flipped()`` with the
    prefactor and every coefficient multiplied by (-1)^{r(r-1)/2}.  The
    involution negates each of the r(r-1)/2 pair differences, in the sines
    of the prefactor and in the Vandermonde factors of every coefficient;
    the fold restores the minus-side convention, with pair factors
    (z_i - z_k) u + e_k - e_i and sin((z_i - z_k)/2i).  The two signs
    cancel in the value of the series.
    """
    r = config.r
    d = _delta_of(config, delta)
    if side == "minus":
        series = h_series(config.flipped(), "plus", d, order, weight_scale)
        if r * (r - 1) // 2 % 2 == 0:
            return series
        return replace(series, prefactor=-series.prefactor,
                       coeffs={e: -c for e, c in series.coeffs.items()})
    if side != "plus":
        raise ValueError(f"bad side {side!r}")
    xs, zs = config.complex_weights()
    u = _u(weight_scale)
    offsets = tuple(xs[i] * u for i in d)

    prefactor = complex(math.pi ** (r * (r - 1) // 2))
    for i in range(r):
        for k in range(i + 1, r):
            den = sin_over_2i(complex(weight_scale) * (xs[d[i]] - xs[d[k]]))
            if den == 0:
                raise PoleError("prefactor sine vanishes; degenerate restriction")
            prefactor /= den

    table = _recip_table(config, d, order, u)
    pair = [[(xs[d[i]] - xs[d[k]]) * u for i in range(k)] for k in range(r)]
    coeffs: dict = {}
    for es in _compositions_up_to(r, order):
        c = complex((-1.0) ** (((r - 1) * sum(es)) % 2))
        for k in range(r):
            for i in range(k):
                c *= pair[k][i] + (es[i] - es[k])
            for v in table[k][es[k]]:
                c *= v
        coeffs[es] = c
    return OffsetSeries(offsets=offsets, coeffs=coeffs, order=order, prefactor=prefactor)


def _ode_operator(config: FlopConfig, weight_scale: complex = 1.0) -> tuple:
    """The plus-side hypergeometric operator P(theta) - c e^w Q(theta),
    theta = d/dw: the roots x_j u of P, the roots z_j u of Q and the sign
    c = (-1)^{n-r+1}, u the weight unit."""
    xs, zs = config.complex_weights()
    u = _u(weight_scale)
    return [x * u for x in xs], [z * u for z in zs], (-1.0) ** ((config.n - config.r + 1) % 2)


def ode_check(config: FlopConfig, series: OffsetSeries, side: str,
              weight_scale: complex = 1.0) -> float:
    """Maximum relative residual of the hypergeometric recurrence.

    ``series`` has one variable: an ``h_series`` at r = 1 or an
    ``f_factor_series``; a series in more variables raises ValueError.
    The annihilating operator, in the logarithmic derivative theta, is
        prod_j (theta - x_j u) - q (-1)^{n-r+1} prod_j (theta - z_j u)
    on the plus side, with u the weight unit (``_ode_operator``); the minus
    side is the plus side on ``config.flipped()``.  At coefficient level it
    couples index e to e - 1 only, so the residual at each e is directly
    computable from two adjacent coefficients.
    """
    if side == "minus":
        return ode_check(config.flipped(), series, "plus", weight_scale)
    if side != "plus":
        raise ValueError(f"bad side {side!r}")
    x_roots, z_roots, sign = _ode_operator(config, weight_scale)

    def prod(roots, theta):
        out = 1.0 + 0j
        for root in roots:
            out *= theta - root
        return out

    a = series.offset
    worst = 0.0
    tiny = 1e-300
    for e in range(series.order + 1):
        lhs = series.coefficient(e) * prod(x_roots, a + e)
        rhs = sign * series.coefficient(e - 1) * prod(z_roots, a + e - 1) if e > 0 else 0j
        denom = max(abs(lhs), abs(rhs), tiny)
        worst = worst_error(worst, abs(lhs - rhs) / denom)
    return worst


# ----------------------------------------------------------------------
# Continuation path
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PathSpec:
    """Piecewise-linear continuation path in the w = log q plane.

    Runs from Re w << 0 to Re w >> 0 and crosses the wall at height
    (n - r) pi; construction rejects paths that come within _PATH_MARGIN of
    the pole lines Im w = (n - r + 1) pi + 2 pi Z while |Re w| <= 1.
    """

    points: tuple
    wall_height: float

    def __post_init__(self):
        for p in self.points:
            if abs(p.real) <= 1.0:
                if _pole_line_distance(p.imag, self.wall_height) < _PATH_MARGIN:
                    raise PathError(f"path point {p} within {_PATH_MARGIN} of a pole line")

    @classmethod
    def standard(cls, config: FlopConfig) -> "PathSpec":
        """Three legs of 13 equal steps through w = -6, -3 + i h, 3 + i h and
        6, h the wall height: 40 points."""
        h = (config.n - config.r) * math.pi
        knots = [complex(-6.0, 0.0), complex(-3.0, h), complex(3.0, h), complex(6.0, 0.0)]
        pts = [a + (b - a) * (t / 13) for a, b in zip(knots, knots[1:]) for t in range(13)]
        return cls(points=(*pts, knots[-1]), wall_height=h)


# least distance from a continuation path, or a segment of the ODE's Taylor
# continuation, to the pole lines or the singular points on them
_PATH_MARGIN = 0.1


def _pole_line_distance(im_w: float, wall_height: float) -> float:
    # pole lines sit one pi above/below the wall height, repeating mod 2 pi
    ref = wall_height + math.pi
    k = round((im_w - ref) / (2.0 * math.pi))
    return abs(im_w - (ref + 2.0 * math.pi * k))


# ----------------------------------------------------------------------
# Taylor continuation of the hypergeometric ODE
# ----------------------------------------------------------------------

# the Cauchy circle of a Taylor step has this fraction of the distance d from
# the path to the nearest singular point as its radius rho ...
_CAUCHY_FRACTION = 0.75

# ... and a step covers at most this fraction of rho
_STEP_RATIO = 1.0 / 3.0


class OdeTransfer(NamedTuple):
    """The transfer matrix of the hypergeometric ODE along a segment, and
    the Taylor scheme that built it (``ode_transfer``).

    ``matrix`` maps the jet (f, f', ..., f^(n-1)) of a solution at the
    start of the segment to its jet at the end.  It is the product of
    ``steps`` Taylor step matrices of ``terms`` + 1 coefficients each, and
    ``tail`` estimates the modulus of the Taylor terms dropped from any
    entry of a step matrix.
    """

    matrix: np.ndarray
    steps: int
    terms: int
    tail: float


def _taylor_terms(kappa: float, rho: float, n: int) -> tuple[int, float]:
    """The least N >= n with tau_N <= _EPS, and tau_N.

    tau_N = max(1, rho^(1-n)) * sum_{k>N} k^(n-1) kappa^(k-n+1) bounds the
    dropped terms of every derivative of order m < n relative to B (see
    ``ode_transfer``).  The ratio of its successive terms is at most
    kappa ((N+2)/(N+1))^(n-1) < 1, so the first term over one minus that
    ratio bounds the sum.
    """
    scale = max(1.0, rho ** (1 - n))
    N = n
    while True:
        first = scale * (N + 1) ** (n - 1) * kappa ** (N + 2 - n)
        tau = first / (1.0 - kappa * ((N + 2) / (N + 1)) ** (n - 1))
        if tau <= _EPS:
            return N, tau
        N += 1


def ode_transfer(config: FlopConfig, w_from: complex, w_to: complex) -> OdeTransfer:
    """Transfer matrix of the plus-side operator P(theta) f = c e^w Q(theta) f
    along the horizontal segment from ``w_from`` to ``w_to``, at weight scale 1.

    The operator is the one ``ode_check`` states (``_ode_operator``), with
    theta = d/dw, P = prod_j (theta - x_j u), Q = prod_j (theta - z_j u) and
    c = (-1)^{n-r+1}; the minus series, as functions of -w, solve it too.
    P and Q are monic, so its only finite singular points are the zeros of
    1 - c e^w, on the pole lines Im w = (n - r + 1) pi + 2 pi Z at Re w = 0,
    whatever the weights and the weight scale.  A segment at the wall height
    (n - r) pi keeps a distance d >= pi from them; PathError if d < _PATH_MARGIN.

    Taylor step.  About a point w0 of the segment, with E = c e^{w0}, a
    solution f(w0 + t) = sum_k a_k t^k has, at t^k,
        (1 - E) (k+1)_n a_{k+n} = -sum_{m<n} (p_m - E q_m) (k+1)_m a_{k+m}
                                  + E sum_{j<k} g_j / (k - j)!,
    with p_m, q_m the coefficients of P and Q, (k+1)_m the rising factorial
    and g_j = sum_{m<=n} q_m (j+1)_m a_{j+m} the coefficients of Q(theta) f,
    since e^{w0 + t} Q(theta) f has the coefficients E sum_{j<=k} g_j / (k-j)!.
    The recurrence is linear in the jet (f, ..., f^(n-1)) at w0, so each
    step's matrix comes from the n unit jets, and the steps share one pass
    of the recurrence, a column per step and unit jet; the transfer matrix
    is the product of the step matrices.

    Error control (van der Hoeven, "Fast evaluation of holonomic functions",
    TCS 210, 1999; Mezzarobba and Salvy, "Effective bounds for P-recursive
    sequences", JSC 45, 2010).  The coefficients of the operator are
    analytic off the singular points, so every solution is analytic on the
    disc |t| < d about w0, and Cauchy's estimate on the circle |t| = rho,
    rho = 3 d / 4, gives |a_k| <= B rho^-k with B the maximum of |f| there.
    With kappa = |h| / rho, the terms k > N dropped from f^(m)(w0 + h),
    m < n, then sum to at most B rho^-m sum_{k>N} k^m kappa^(k-m), which is
    at most B tau_N (``_taylor_terms``).  So the segment is cut into the
    fewest equal steps with kappa <= 1/3, and N is the least order with
    tau_N below the machine epsilon: on the continuation path of
    ``verify_continuation_r1``, 3 steps of 37 (n = 2) or 42 (n = 3)
    coefficients.  B is not known; its estimate max_k |a_k| rho^k from the
    coefficients computed, times tau_N, is recorded as ``tail``, the
    largest over the steps and the unit jets.
    """
    if w_from.imag != w_to.imag:
        raise ValueError(f"the segment from {w_from} to {w_to} is not horizontal")
    n = config.n
    x_roots, z_roots, sign = _ode_operator(config)
    lo, hi = sorted((w_from.real, w_to.real))
    gap = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    d = math.hypot(gap, _pole_line_distance(w_from.imag, (n - config.r) * math.pi))
    if d < _PATH_MARGIN:
        raise PathError(f"the segment from {w_from} to {w_to} passes within {d:.3g} "
                        f"of a singular point of the ODE")
    rho = _CAUCHY_FRACTION * d
    steps = max(1, math.ceil(abs(w_to - w_from) / (_STEP_RATIO * rho)))
    h = (w_to - w_from) / steps
    N, tau = _taylor_terms(abs(h) / rho, rho, n)

    # p_m, q_m for m = 0 ... n, and for k = 0 ... N - n the rising factorials
    # (k+1)_m, m = 0 ... n
    p = np.poly(x_roots)[::-1]
    q = np.poly(z_roots)[::-1]
    ks = np.arange(N - n + 1)
    rising = np.cumprod(np.column_stack([np.ones(ks.size)] + [ks + m for m in range(1, n + 1)]),
                        axis=1)
    p_low, q_low = rising[:, :n] * p[:n], rising[:, :n] * q[:n]
    inv_fact = 1.0 / np.array([math.factorial(k) for k in range(N + 1)], dtype=float)
    # the jet at t = h of sum_k a_k t^k: row m holds k! / (k - m)! h^(k - m)
    falling = np.array([[math.perm(k, m) for k in range(N + 1)] for m in range(n)], dtype=float)
    at_h = falling * h ** np.maximum(np.arange(N + 1) - np.arange(n)[:, None], 0)

    # the coefficients of the n unit jets at every step's start, one column
    # per (step, jet), all from one pass of the recurrence: column i n + m
    # starts at a_m = 1/m! and has E = E_i
    E = np.repeat(sign * np.exp(w_from + h * np.arange(steps)), n)
    lead = 1.0 / np.outer(rising[:, n], 1.0 - E)
    a = np.zeros((N + 1, steps * n), dtype=complex)
    a[:n] = np.tile(np.diag(inv_fact[:n]), steps)
    g = np.empty((N - n + 1, steps * n), dtype=complex)
    for k in range(N - n + 1):
        known = a[k:k + n]
        q_part = q_low[k] @ known
        a[k + n] = (E * (inv_fact[k:0:-1] @ g[:k] + q_part) - p_low[k] @ known) * lead[k]
        g[k] = q_part + rising[k, n] * a[k + n]
    tail = float((np.abs(a) * (rho ** np.arange(N + 1))[:, None]).max()) * tau
    jets = np.eye(n, dtype=complex)
    for step in np.split(at_h @ a, steps, axis=1):
        jets = step @ jets
    return OdeTransfer(matrix=jets, steps=steps, terms=N, tail=tail)


# ----------------------------------------------------------------------
# Mellin-Barnes continuation (r = 1)
# ----------------------------------------------------------------------

def _mb_data(config: FlopConfig, l: int, weight_scale: complex):
    xs, zs = config.complex_weights()
    u = _u(weight_scale)
    n = config.n
    a_l = xs[l] * u
    us = [(xs[l] - zs[i]) * u for i in range(n)]
    vs = [(xs[l] - xs[j]) * u for j in range(n)]
    return a_l, us, vs


def barnes_integrand(s, w: complex, config: FlopConfig, l: int,
                     weight_scale: complex = 1.0, rows=None):
    """Integrand of the vertical-contour representation at plus fixed point l.

    Gamma(s) Gamma(1-s) e^{w(s + x_l u)} e^{-i pi (n-r) s}
      prod_i Gamma((x_l - z_i) u + s) / prod_j Gamma(1 + (x_l - x_j) u + s),

    u the weight unit.  The scalar prefactor
    prod_i sin(scale (x_l - z_i) / 2i) / pi^n is carried by the caller.
    Exponentials of w keep q^{...} branch-unambiguous.  ``s`` is a complex
    scalar or an array of nodes; the result has its shape.  Where
    1 + (x_l - x_j) u + s is within POLE_TOL of a non-positive integer the
    value is 0, a zero of 1/Gamma, and no Gamma factor is evaluated there,
    unless a numerator factor has a pole at the same node: there the
    product has a finite limit that is not evaluated, and PoleError is
    raised as at any other pole of a Gamma factor.

    The sum is taken in log space, one ``log_gamma`` call per Gamma factor
    and node array, 2n + 2 in all.  Three factors hold no weight, since
    v_l = (x_l - x_l) u = 0: Gamma(s), Gamma(1 - s) and Gamma(1 + s).  A
    caller that has their rows at the nodes ``s`` passes them as ``rows``,
    the pair (log Gamma(s) + log Gamma(1 - s), log Gamma(1 + s)) of 1-d
    arrays along a 1-d ``s``; they enter the sum where their calls would,
    so the values are the same floats, and 2n - 1 calls remain.
    """
    n, r = config.n, config.r
    a_l, us, vs = _mb_data(config, l, weight_scale)
    shape = np.shape(s)
    s = np.asarray(s, dtype=complex).ravel()
    live = None
    # zeros of the 1/Gamma factors, where 1 + v_j + s is within POLE_TOL of
    # a non-positive integer; none when every Re(1 + v_j + s) exceeds that,
    # or when there is no node at all
    if s.size and 1.0 + min(v.real for v in vs) + s.real.min() <= POLE_TOL:
        arg = np.add.outer(vs, s) + 1.0
        k = np.round(arg.real)
        live = ~((k <= 0) & (np.abs(arg - k) <= POLE_TOL)).any(axis=0)
        zeros = s[~live]
        if any(is_nonpositive_integer(a) for a in (zeros, 1.0 - zeros, *(ui + zeros for ui in us))):
            raise PoleError("a Gamma factor of the integrand has a pole at a zero of 1/Gamma")
        s = s[live]
        if rows is not None:
            rows = [row[live] for row in rows]
    # log-space evaluation tolerates large |Im s| without overflow; the
    # branch of each log_gamma term is irrelevant once the sum is exponentiated
    pair, own = rows if rows is not None else (log_gamma(s) + log_gamma(1.0 - s), None)
    acc = pair + (w * (s + a_l) - 1j * math.pi * (n - r) * s)
    for ui in us:
        acc += log_gamma(ui + s)
    for j, vj in enumerate(vs):
        acc -= log_gamma(1.0 + vj + s) if own is None or j != l else own
    if live is None:
        return np.exp(acc).reshape(shape)
    out = np.zeros(live.shape, dtype=complex)
    out[live] = np.exp(acc)
    return out.reshape(shape)


def _decay_margins(config: FlopConfig, w: complex) -> tuple[float, float]:
    nr = (config.n - config.r) * math.pi
    m_up = w.imag - (nr - math.pi)
    m_down = (nr + math.pi) - w.imag
    return m_up, m_down


def _mb_prefactor(config: FlopConfig, l: int, weight_scale: complex) -> complex:
    """prod_i sin(scale (x_l - z_i) / 2i) / pi^n, the scalar the integral carries."""
    xs, zs = config.complex_weights()
    prefactor = 1.0 + 0j
    for zi in zs:
        prefactor *= sin_over_2i(complex(weight_scale) * (xs[l] - zi))
    return prefactor / math.pi ** config.n


def _tail_bounds(integrand, margins: tuple[float, float],
                 scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Truncation heights T_k = 4 * 1.2^k <= _T_MAX and the tail bound at each.

    The bound at T is (|f(T)| / m_up + |f(-T)| / m_down) * 10 * scale / (2 pi):
    the tail of an integrand that decays like exp(-m |t|) beyond +-T, with
    a factor 10 to spare.  The heights come from the ladder's table
    (``_ladder_rows``), and all of them from one call ``integrand(t)`` on
    the heights t = T_k followed by t = -T_k.
    """
    t, _ = _ladder_rows()
    f = np.abs(integrand(t))
    rungs = t.size // 2
    m_up, m_down = margins
    bounds = f[:rungs] / m_up + f[rungs:] / m_down
    return t[:rungs], bounds * 10.0 * scale / (2.0 * math.pi)


def _halving_trapezoid(terms, step: float, lattice_step: float, min_step: float,
                       target: float, budget: float) -> complex:
    """Trapezoidal sum with step ``step``, the step halved until it settles.

    ``terms(h, odd)`` gives the integer indices k and the terms at the nodes
    k h of the rule with step h: all of them, or with ``odd`` only the odd
    k, those that halving the step to h adds, so each halving reuses the
    previous sum.  The levels down to ``lattice_step`` (``step`` over a
    power of two) come from one call on its lattice, whose indices k must
    be consecutive: the rule with step h = 2^j lattice_step has the nodes
    k = 0 mod 2^j there, and its halving adds k = 2^(j-1) mod 2^j, so each
    level is a slice of the lattice's terms, every 2^j-th or 2^(j+1)-th
    from the first k in its class.  Levels are told apart by k, not by the
    lattice's first position; each is summed in increasing k, as one call
    per level would sum it, and its nodes k h are the same floats, so the
    sums do not depend on the lattice.  Below it each halving is one call.

    Two successive sums agree when they differ by less than ``target``,
    or, where the rounding of their terms is larger than that, by less
    than 16 rounding units of ``size``, the sum of the moduli of the
    terms, provided that rounding is itself within ``budget``.

    The error of the rule with step h on a strip of analyticity falls like
    E(h) ~ exp(-2 pi a / h), so after two halvings the last two differences
    err ~ E(h) and prev ~ E(2h) extrapolate the error of the refined sum:
    E(h/2) ~ err^2 / prev, an overestimate by a factor exp(pi a / h).  The
    refined sum is also returned when that extrapolation is below
    ``target`` and the rounding of the terms is within ``budget``, which
    saves the last halving.  NonConvergenceError if the step reaches
    ``min_step`` first; an unsettled sum is never returned.
    """
    k, lattice = terms(lattice_step, False)
    first = int(k[0])

    def level(h, odd):
        # the terms of the rule with step h, or only those its halving adds:
        # the lattice's k = 0 mod stride, or k = stride mod 2 stride
        if h < lattice_step:
            return terms(h, True)[1]
        stride = round(h / lattice_step)
        residue, every = (stride, 2 * stride) if odd else (0, stride)
        return lattice[(residue - first) % every::every]

    values = level(step, False)
    total, size = step * np.add.reduce(values), step * np.add.reduce(np.abs(values))
    prev = None
    while True:
        values = level(0.5 * step, True)
        refined = 0.5 * (total + step * np.add.reduce(values))
        size = 0.5 * (size + step * np.add.reduce(np.abs(values)))
        step *= 0.5
        err = abs(refined - total)
        rounding = 16.0 * _EPS * size
        if err < target or err < rounding <= budget:
            return refined
        if prev is not None and err * err < target * prev and rounding <= budget:
            return refined
        if step <= min_step:
            raise NonConvergenceError(
                f"trapezoidal sums still differ by {err:.3e} at step {step:g}; "
                f"rounding of the terms {rounding:.3e} against budget {budget:.3e}"
            )
        total, prev = refined, err


def _circle_sum(f, center: complex, radius: float, quad_tol: float) -> complex:
    """Sum of the residues of f inside the circle |s - center| = radius.

    Trapezoidal rule in the angle, from 64 nodes doubled until the sums
    settle to within ``quad_tol`` (``_halving_trapezoid``), at most up to
    _MAX_CIRCLE_NODES nodes; the sums on 64 and 128 nodes come from one
    call of ``f`` on 128 nodes, which is where most circle sums settle.
    The sum enters the result times the prefactor alone, so its rounding
    budget is ``quad_tol`` as well: sums that differ by more never count
    as agreed.
    """
    def terms(step, odd):
        k = np.arange(int(odd), round(2.0 * math.pi / step), 1 + odd)
        arc = radius * np.exp(1j * step * k)
        return k, f(center + arc) * arc / (2.0 * math.pi)

    return _halving_trapezoid(terms, 2.0 * math.pi / 64, 2.0 * math.pi / 128,
                              2.0 * math.pi / _MAX_CIRCLE_NODES, quad_tol, quad_tol)


def _enclosing_circle(cluster, us):
    """Centre and radius of a circle that isolates ``cluster``, or None.

    The centre c is the mean of the cluster's poles and the radius is D/2,
    D the distance from c to the line Re s = -1/2 and to the nearest
    singularity outside the cluster: the integers and the poles -u_k - d,
    d >= 0.  None unless every pole of the cluster lies within D/4 of c, so
    that poles inside and singularities outside are both at least a factor
    2 away from the circle; a cluster that straddles an integer, say, has
    no such circle.
    """
    members = {(k, d) for k, d, _ in cluster}
    center = sum(s0 for _, _, s0 in cluster) / len(cluster)
    m = math.floor(center.real)
    dist = min(center.real + 0.5, abs(center - m), abs(center - m - 1))
    for k, uk in enumerate(us):
        d0 = max(0, math.floor(-uk.real - center.real))
        for d in (d0, d0 + 1):
            if (k, d) not in members:
                dist = min(dist, abs(center + uk + d))
    if max(abs(s0 - center) for _, _, s0 in cluster) > dist / 4.0:
        return None
    return center, dist / 2.0


def _pole_clusters(poles, gap: float) -> list:
    """Group (k, d, s0) poles into clusters chained by distances below ``gap``."""
    clusters: list = []
    for p in poles:
        near = [c for c in clusters if any(abs(p[2] - q[2]) < gap for q in c)]
        clusters = [c for c in clusters if c not in near]
        clusters.append([p] + [q for c in near for q in c])
    return clusters


# truncation heights tried for the line integral: T_k = 4 * 1.2^k <= _T_MAX
_LADDER_START = 4.0
_LADDER_RATIO = 1.2
_T_MAX = 200.0

# smallest trapezoidal step before the line integral counts as unconverged
_MIN_STEP = 2.0 ** -12

# finest step of the line's first integrand call, which holds the sums at
# h = 1/2 to 1/16.  The pole 1/s of Gamma(s) / Gamma(1 + s) sits 1/2 from
# the line, so the strip of analyticity has half-width a <= 1/2 and the
# error falls no faster than exp(-pi / h): almost every line sum runs to
# h = 1/16
_LINE_LATTICE_STEP = 2.0 ** -4

# largest lattice index |k| of a line node t = k / 16 <= _T_MAX
_K_MAX = round(_T_MAX / _LINE_LATTICE_STEP)

# (log Gamma(s) + log Gamma(1 - s), log Gamma(1 + s)) on the line's lattice
# s = -1/2 + i k / 16, |k| <= _K_MAX: the rows of the integrand that hold no
# weight (``_lattice_rows``); none until the first line sum
_line_rows = None

# (t, (log Gamma(s) + log Gamma(1 - s), log Gamma(1 + s))) at the ladder's
# nodes s = -1/2 + i t, t = T_k then t = -T_k for every rung T_k <= _T_MAX
# (``_ladder_rows``); none until the first ladder
_ladder = None

# correction poles closer than this are summed as one circle integral
_CLUSTER_GAP = 0.1

# most trapezoidal nodes on a circle around a pole cluster
_MAX_CIRCLE_NODES = 2 ** 10

# unit roundoff of the floats the integrand is summed in
_EPS = float(np.finfo(float).eps)

# smallest accuracy target barnes_integrate accepts
MIN_BARNES_TOL = 1e-12


def _lattice_rows(k: np.ndarray):
    """The node-only rows of ``barnes_integrand`` at the line's lattice
    nodes s = -1/2 + i k / 16, for the consecutive indices ``k``.

    Gamma(s), Gamma(1 - s) and Gamma(1 + v_l + s) = Gamma(1 + s) depend on
    the node alone, so one process-wide table holds their rows for every
    line sum, whatever its w, config, l, weight scale or tolerance.  It is
    built on the first call, by the ``log_gamma`` calls the integrand makes
    on the same floats, for |t| up to _T_MAX, the top of every line.  Its
    arrays are read-only, and the tuple is replaced whole, so two threads
    that build it at once agree.
    """
    global _line_rows
    if _line_rows is None:
        s = -0.5 + 1j * (_LINE_LATTICE_STEP * np.arange(-_K_MAX, _K_MAX + 1))
        pair, own = log_gamma(s) + log_gamma(1.0 - s), log_gamma(1.0 + s)
        pair.flags.writeable = own.flags.writeable = False
        _line_rows = pair, own
    pair, own = _line_rows
    window = slice(k[0] + _K_MAX, k[-1] + _K_MAX + 1)
    return pair[window], own[window]


def _ladder_rows():
    """The ladder's heights t = T_k then t = -T_k, T_k = 4 * 1.2^k <= _T_MAX,
    and the node-only rows of ``barnes_integrand`` at s = -1/2 + i t.

    As on the lattice (``_lattice_rows``), log Gamma(s) + log Gamma(1 - s)
    and log Gamma(1 + s) come from one process-wide table that no
    argument of a line sum keys.  It is built on the first call, by the
    ``log_gamma`` calls the integrand makes on the same floats.  Its arrays
    are read-only, and the tuple is replaced whole.
    """
    global _ladder
    if _ladder is None:
        heights, T = [], _LADDER_START
        while T <= _T_MAX:
            heights.append(T)
            T *= _LADDER_RATIO
        t = np.array(heights + [-h for h in heights])
        s = -0.5 + 1j * t
        pair, own = log_gamma(s) + log_gamma(1.0 - s), log_gamma(1.0 + s)
        t.flags.writeable = pair.flags.writeable = own.flags.writeable = False
        _ladder = t, (pair, own)
    return _ladder


def _kernel_values(kernel, args: list) -> list:
    """``kernel`` at each of ``args``, from one array call, as complexes.

    Where the array call raises PoleError or NonFiniteError, the scalar
    call at the first argument the kernel rejects raises instead, with the
    message that names that argument or its value.
    """
    try:
        return kernel(np.array(args, dtype=complex)).tolist()
    except (PoleError, NonFiniteError):
        for s in args:
            kernel(s)
        raise


def _residues(w: complex, config: FlopConfig, a_l: complex, us, vs) -> dict:
    """Residues of the integrand at its poles s0 = -u_k - d, d >= 0, with
    Re s0 > -1/2, keyed (k, d, s0).

    Each residue is the product, in this order, of Gamma(s0) Gamma(1 - s0),
    e^{w (s0 + a_l) - i pi (n - r) s0}, (-1)^d / d!, Gamma(u_i + s0) for
    i != k and 1/Gamma(1 + v_j + s0) for every j.  Each kernel makes one
    call over every pole: ``log_gamma`` on the Gamma arguments, each value
    taken as ``numkernel.gamma`` takes it, by ``cmath.exp`` of its log, and
    ``recip_gamma`` on the 1/Gamma arguments.  The errors are the scalar
    kernels': PoleError or NonFiniteError at the first argument a kernel
    rejects (``_kernel_values``), and NonFiniteError naming the argument
    where a Gamma value overflows.  The kernels' errors are raised before
    any overflow, which only a call with faults at two poles can tell.
    """
    n, r = config.n, config.r
    poles = []
    for k, uk in enumerate(us):
        d = 0
        while (s0 := -uk - d).real > -0.5:
            poles.append((k, d, s0))
            d += 1
    args = [a for k, _, s0 in poles
            for a in (s0, 1.0 - s0, *(us[i] + s0 for i in range(n) if i != k))]
    logs = _kernel_values(log_gamma, args)
    recips = iter(_kernel_values(recip_gamma, [1.0 + vj + s0 for *_, s0 in poles for vj in vs]))

    def exp_logs():
        for lg, s in zip(logs, args):
            try:
                yield cmath.exp(lg)
            except OverflowError:
                raise NonFiniteError(f"Gamma overflows at s = {s!r}") from None

    gammas = exp_logs()
    residues = {}
    for k, d, s0 in poles:
        val = next(gammas) * next(gammas)
        val *= cmath.exp(w * (s0 + a_l) - 1j * math.pi * (n - r) * s0)
        val *= (-1.0) ** (d % 2) / math.factorial(d)
        for _ in range(n - 1):
            val *= next(gammas)
        for _ in range(n):
            val *= next(recips)
        residues[k, d, s0] = val
    return residues


def barnes_integrate(w: complex, config: FlopConfig, l: int, tol: float = 1e-10,
                     weight_scale: complex = 1.0) -> complex:
    """Mellin-Barnes value of the plus-side series at log q = w.

    Returns the analytic continuation of the prefactored series: equal to
    the convergent series for Re w < 0 and to its continuation past the
    wall for Re w > 0, for w inside the strip of height 2 pi centred at
    (n - r) pi.  Computed as the vertical line integral at Re s = -1/2,
    corrected by the residues of the non-integer poles lying right of the
    line, and scaled by the sine prefactor.  ``tol`` is the absolute
    accuracy target.

    The line is truncated at the lowest height of the ladder
    T_k = 4 * 1.2^k <= 200 from which an analytic exponential tail bound
    is below tol/10 on every higher rung; one integrand call at +-T_k gives
    the bound on every rung, and NonConvergenceError is raised if the top
    rung fails it.  That call takes the rows of Gamma(s), Gamma(1 - s) and
    Gamma(1 + s), which hold no weight, from a table of the ladder that
    every call shares (``_ladder_rows``) and makes 2n - 1 ``log_gamma``
    calls.  The line integral over [-T, T] is the trapezoidal rule
    at nodes t = k h, which converges geometrically because the integrand
    is analytic in a strip around the line.  Starting from h = 1/2 the
    step is halved, reusing the previous nodes, until two successive sums
    differ by less than tol / (20 |prefactor|); that takes at least one
    halving.  The sums at h = 1/2 to 1/16 come from one integrand call on
    the nodes t = k / 16, where almost every line sum settles; each
    halving past it is one more call.  That call too takes the three rows
    from a table, on the lattice (``_lattice_rows``), and makes 2n - 1
    ``log_gamma`` calls instead of 2n + 2; both tables give the values of
    those calls to the bit.  Where the terms are large and cancel, sums
    that differ only by the rounding of their terms also agree, provided
    that rounding, scaled to the result, is within tol/20.
    From the second halving on, a sum is also accepted when the geometric
    extrapolation err^2 / prev of the last two differences is below
    tol / (20 |prefactor|) and that rounding is within its budget, which
    saves the last halving (``_halving_trapezoid``).  If h reaches 2^-12
    first (a pole family close to the line narrows the strip, or the
    rounding exceeds that budget), NonConvergenceError is raised; an
    unconverged sum is never returned.
    A pole family within 1e-9 of the line raises it before any node is
    evaluated, and a non-finite w or weight scale raises NonFiniteError.

    The residues at the correction poles come from one ``log_gamma`` and
    one ``recip_gamma`` call over all of them (``_residues``), and each is
    formed as one scalar call per factor would form it, to the bit.
    Correction poles closer than _CLUSTER_GAP to one another form a
    cluster, whose residues can be large and nearly cancel.  Where their
    rounding could reach tol / (20 |prefactor|), the cluster is summed as
    one circle integral of the integrand instead (``_circle_sum`` on the
    circle of ``_enclosing_circle``), which raises NonConvergenceError if
    its sums do not settle; a cluster that no such circle isolates keeps
    its separate residues.
    """
    if not MIN_BARNES_TOL <= tol < math.inf:
        raise ValueError(f"tol {tol!r} is below supported accuracy or not finite")
    n, r = config.n, config.r
    if not (0 <= l < n):
        raise ValueError("fixed point index out of range")
    if not cmath.isfinite(w):
        raise NonFiniteError(f"non-finite w = {w!r}")
    # a finite scale keeps v_l = (x_l - x_l) u at 0, as _lattice_rows needs
    if not cmath.isfinite(complex(weight_scale)):
        raise NonFiniteError(f"non-finite weight scale {weight_scale!r}")
    margins = _decay_margins(config, w)
    if min(margins) < 5e-2:
        raise NonConvergenceError(
            f"w = {w} is outside the convergence strip around height {(n - r)}*pi"
        )
    a_l, us, vs = _mb_data(config, l, weight_scale)
    # a pole family on the line leaves the trapezoidal rule no strip of
    # analyticity; its member nearest the line has d = round(1/2 - Re u_k)
    for uk in us:
        d = round(0.5 - uk.real)
        if d >= 0 and abs(uk.real + d - 0.5) < 1e-9:
            raise NonConvergenceError("pole family touches the contour line")

    prefactor = _mb_prefactor(config, l, weight_scale)
    scale_ref = max(abs(prefactor), 1e-300)

    def integrand(s, rows=None):
        return barnes_integrand(s, w, config, l, weight_scale, rows=rows)

    def on_line(t, rows=None):
        return integrand(-0.5 + 1j * t, rows)

    def ladder(t):
        # the ladder's nodes, with the node-only rows from their table
        return on_line(t, _ladder_rows()[1])

    heights, bounds = _tail_bounds(ladder, margins, scale_ref)
    # the bound assumes exp(-m |t|) decay beyond T; a rung that passes below
    # one that fails may sit before a rise of |t|^p exp(-m |t|), so T is the
    # lowest rung from which every higher rung passes too
    failed = np.flatnonzero(bounds >= tol / 10.0)
    if failed.size and failed[-1] == len(heights) - 1:
        raise NonConvergenceError(
            f"tail bound {bounds[-1]:.3e} not met by T = {heights[-1]:g}"
        )
    T = heights[failed[-1] + 1 if failed.size else 0]

    def line_terms(h, odd):
        # the nodes k h in [-T, T], every k or only the odd ones; the call on
        # the lattice takes the node-only rows from their table
        first = math.ceil(-T / h)
        k = np.arange(first | 1 if odd else first, math.floor(T / h) + 1, 1 + odd)
        rows = _lattice_rows(k) if h == _LINE_LATTICE_STEP and not odd else None
        return k, on_line(h * k, rows)

    # the result carries the sum times |prefactor| / (2 pi): a rounding
    # below 2 pi quad_tol stays within tol / 20 of it
    quad_tol = tol / (20.0 * scale_ref)
    line_integral = _halving_trapezoid(line_terms, 0.5, _LINE_LATTICE_STEP, _MIN_STEP,
                                       quad_tol, 2.0 * math.pi * quad_tol) / (2.0 * math.pi)

    # residues of poles strictly between the line and the integers >= 0
    residues = _residues(w, config, a_l, us, vs)
    correction = 0j
    for cluster in _pole_clusters(list(residues), _CLUSTER_GAP):
        values = [residues[p] for p in cluster]
        # a residue comes with a rounding error of up to ~20 eps of its size;
        # where that can reach quad_tol, nearly coincident poles are summed
        # on a circle instead, so that their large residues never cancel
        if len(cluster) > 1 and 64.0 * _EPS * sum(map(abs, values)) >= quad_tol:
            circle = _enclosing_circle(cluster, us)
            if circle:
                correction += _circle_sum(integrand, *circle, quad_tol)
                continue
        correction += sum(values)

    return prefactor * (-line_integral - correction)


@dataclass
class ContinuationReport:
    """Per-fixed-point relative errors of the r = 1 wall-crossing check.

    ``inside_err`` and ``outside_err`` compare the Barnes value at each plus
    fixed point with the series before and past the wall, and ``coeff_err``
    compares the ODE's connection matrix C_ode with the transfer matrix C,
    entry by entry.  ``ode`` is the Taylor transfer of the ODE that gave
    C_ode, with its step count, order and tail estimate.
    """

    inside_err: dict
    outside_err: dict
    coeff_err: float
    ode: OdeTransfer

    @property
    def max_err(self) -> float:
        return worst_error(*self.inside_err.values(), *self.outside_err.values(), self.coeff_err)


def _series_jet(series: OffsetSeries, w: complex, n: int, sign: int = 1) -> np.ndarray:
    """(f, f', ..., f^(n-1)) at w of f(v) = series(sign v), for a
    one-variable series, every stored term summed."""
    es, cs = zip(*((e, c) for (e,), c in series.coeffs.items()))
    exps = sign * (series.offset + np.array(es))
    terms = np.array(cs) * np.exp(w * exps)
    return series.prefactor * (exps ** np.arange(n)[:, None] @ terms)


# |q| of the two points of the r = 1 wall-crossing check, inside the wall
# and past it
Q_INSIDE = 0.3
Q_OUTSIDE = 3.0


def verify_continuation_r1(config: FlopConfig, tol: float = 1e-8, order: int = 80) -> ContinuationReport:
    """Wall crossing at r = 1: series inside the wall, transferred series past it.

    At each plus fixed point l the Mellin-Barnes value is compared against
    the plus series at |q| = Q_INSIDE and against the coefficient-weighted
    sum of minus series at |q| = Q_OUTSIDE (under q_+ = 1/q_-), both on the
    path height (n - 1) pi: 2n ``barnes_integrate`` calls in all.

    The transfer coefficients are checked a second way, as the connection
    matrix of the hypergeometric ODE that both series solve:
    C_ode = S_out^-1 M S_in, with M the ODE's transfer matrix from w_in to
    w_out (``ode_transfer``), S_in the jets of the plus series at w_in and
    S_out the jets of w -> h^-_k(-w) at w_out, one column per fixed point.
    Its Taylor steps keep every dropped tail below the machine epsilon times
    the size of the solutions on their Cauchy circles, of radius 3/4 of the
    distance (>= pi) to the singular points e^w = c.  C_ode is compared
    with ``transition_matrix(config, "C")`` entry by entry.
    """
    if config.r != 1:
        raise ValueError("verify_continuation_r1 needs r = 1")
    n = config.n
    h = (n - 1) * math.pi
    w_in = math.log(Q_INSIDE) + 1j * h
    w_out = math.log(Q_OUTSIDE) + 1j * h

    minus = [h_series(config, "minus", (k,), order) for k in range(n)]
    plus = [h_series(config, "plus", (l,), order) for l in range(n)]
    coeffs = transition_matrix(config, "C").entries  # coeffs[k][l] = C((k,), (l,))
    inside_err = {}
    outside_err = {}
    for l in range(n):
        s_in = plus[l].eval(w_in)
        b_in = barnes_integrate(w_in, config, l, tol=max(1e-12, tol * abs(s_in) / 10.0))
        inside_err[(l,)] = abs(b_in - s_in) / abs(s_in)

        target = sum(coeffs[k][l] * minus[k].eval(-w_out) for k in range(n))
        b_out = barnes_integrate(w_out, config, l, tol=max(1e-12, tol * abs(target) / 10.0))
        outside_err[(l,)] = abs(b_out - target) / abs(target)

    ode = ode_transfer(config, w_in, w_out)
    jets_in = np.column_stack([_series_jet(f, w_in, n) for f in plus])
    jets_out = np.column_stack([_series_jet(f, w_out, n, sign=-1) for f in minus])
    c_ode = np.linalg.solve(jets_out, ode.matrix @ jets_in)
    worst = 0.0
    for k in range(n):
        for l in range(n):
            worst = worst_error(worst, abs(c_ode[k, l] - coeffs[k][l]) / abs(coeffs[k][l]))
    return ContinuationReport(inside_err=inside_err, outside_err=outside_err, coeff_err=worst, ode=ode)


# ----------------------------------------------------------------------
# I-series (restrictions) and central charges
# ----------------------------------------------------------------------

def i_function(config: FlopConfig, side: str, delta, order: int,
               ctx: PsiContext) -> OffsetSeries:
    """Fixed-point restriction of the I-series, direct closed form.

    The infinite Gamma-ratio products of the hypergeometric factor are
    reduced to the finite telescoped products they denote (curve class
    zero), all r chamber variables specialized to a single q: a
    one-variable series whose coefficient of degree e sums the compositions
    of e.  The leading coefficient on the plus side is exactly 1.  The
    minus side is the plus side on ``config.flipped()``; only ``ctx.z`` is
    read from the context.

    Slot k at degree e holds the telescoped product
    prod_j prod_{h=-e+1}^{0} (z_j - x_dk + h z) / prod_j prod_{h=1}^{e} (x_dk - x_j + h z),
    built from degree e - 1 by one numerator and one denominator factor per
    j, interleaved, so the running value stays near the size of the
    coefficient.  A composition multiplies its r slot values and its pair
    factors; one whose value is not finite raises NonFiniteError naming
    delta and its degree e.
    """
    if side == "minus":
        return i_function(config.flipped(), "plus", delta, order, ctx)
    if side != "plus":
        raise ValueError(f"bad side {side!r}")
    xs, zs = config.complex_weights()
    zv = ctx.z
    n, r = config.n, config.r
    d = tuple(delta)

    offset = sum(xs[i] for i in d) * ctx.inv_z
    slots = []
    for dk in d:
        diffs = [(zs[j] - xs[dk], xs[dk] - xs[j]) for j in range(n)]
        v = 1.0 + 0j
        values = [v]
        for e in range(1, order + 1):
            hh = 1 - e
            for num, den in diffs:
                v *= num + hh * zv
                v /= den + e * zv
            values.append(v)
        slots.append(values)
    pair = [[xs[d[k]] - xs[d[i]] for i in range(k)] for k in range(r)]
    coeffs: dict = {}
    for es in _compositions_up_to(r, order):
        c = 1.0 + 0j
        for k in range(r):
            c *= slots[k][es[k]]
        # paired root-factor telescoping: (-1)^m (A + m z)/A per pair i < k
        for k in range(r):
            for i in range(k):
                A = pair[k][i]
                m = es[k] - es[i]
                c *= (-1.0) ** (m % 2) * (A + m * zv) / A
        tot = sum(es)
        if not cmath.isfinite(c):
            raise NonFiniteError(f"I-series coefficient at delta = {d}, degree e = {tot} is {c!r}")
        coeffs[tot,] = coeffs.get((tot,), 0j) + c
    return OffsetSeries(offsets=(offset,), coeffs=coeffs, order=order)


def i_function_factored(config: FlopConfig, side: str, delta, order: int,
                        ctx: PsiContext) -> OffsetSeries:
    """I-series restriction assembled through the integral-structure factors.

    Independent pipeline: the Gamma-class of the tangent weights, evaluated
    at weights divided by z, multiplies the specialized Gamma-product
    series built at weight scale 2 pi i / z (sine prefactor folded in).
    Must agree with the direct form coefficientwise.
    """
    hs = h_series(config, side, delta, order, weight_scale=ctx.ch_scale).specialize()
    scale = gamma_class(config, side, delta, ctx.inv_z) * hs.prefactor
    return OffsetSeries(
        offsets=hs.offsets,
        coeffs={e: scale * c for e, c in hs.coeffs.items()},
        order=order,
    )


def central_charge(config: FlopConfig, psi_images: list, w: complex,
                   ctx: PsiContext, order: int = 60) -> list:
    """Z(E) for each psi image: the I-series at the rotated argument paired
    with psi(E).

    Z(E) = sum_d I|_d(e^{-i pi} z)(w) * psi(E)(z)|_d / e(N_d), on the side
    of ``ctx``; each of ``psi_images`` is the image of a class E in ``ctx``
    (``psi_apply`` or ``psi_on_coh``).  The I-vector does not depend on E,
    so it is summed once, one ``i_function`` per fixed point, and paired
    with every image in turn; ValueError (``pairing``) for an image on the
    other side.  The I-series converges for |q| < 1 only, since
    e^w = (-1)^{n-r+1} are the singular points of its ODE:
    NonConvergenceError unless Re w < 0.
    """
    if not w.real < 0:
        raise NonConvergenceError(f"the I-series diverges at w = {w!r}; it needs Re w < 0")
    rot = ctx.rotated()
    i_vec = LocalizedCohClass(ctx.side, {d: i_function(config, ctx.side, d, order, rot).eval(w)
                                         for d in fixed_point_deltas(config)})
    return [pairing(config, i_vec, psi_e) for psi_e in psi_images]


def i_restriction_continued(config: FlopConfig, l: int, w: complex, ctx: PsiContext) -> complex:
    """Continuation of the plus-side I restriction past the wall (r = 1),
    its Barnes integral to the absolute accuracy 1e-11."""
    if config.r != 1:
        raise ValueError("continued I restriction implemented for r = 1")
    gam = gamma_class(config, "plus", (l,), ctx.inv_z)
    return gam * barnes_integrate(w, config, l, tol=1e-11, weight_scale=ctx.ch_scale)


def central_charge_plus_continued(config: FlopConfig, psi_images: list, w: complex,
                                  ctx: PsiContext) -> list:
    """Plus-side central charges with the I-series continued past the wall:
    one continued I-vector, n Barnes integrals, paired with each of
    ``psi_images``, the psi images of plus classes in ``ctx``."""
    rot = ctx.rotated()
    i_vec = LocalizedCohClass("plus", {(l,): i_restriction_continued(config, l, w, rot)
                                       for (l,) in fixed_point_deltas(config)})
    return [pairing(config, i_vec, psi_e) for psi_e in psi_images]
