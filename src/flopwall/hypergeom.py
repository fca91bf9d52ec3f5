"""Truncated hypergeometric series at the fixed points and their analytic
continuation across the wall by the Mellin-Barnes method.

All q-dependence flows through w = log q: a series with complex offset a is
evaluated as sum_e c_e exp(w (a + e)), so q^{a+e} never needs a branch
choice.  Continuation paths live in the w-plane and cross the wall at
height (n - r) pi, the midline of the strip on which the vertical-contour
integral converges.

Contour bookkeeping.  The series equals a contour integral of a ratio of
Gamma factors around the nonnegative integers.  We trade that contour for
the vertical line Re s = -1/2; with small real weights the d = 0 members
of the left pole families sit on the imaginary axis, i.e. on the wrong
side of the line, so the line integral is corrected by the residues of
every non-integer pole with Re s > -1/2.  The corrected value reproduces
the series for Re w < 0 and its continuation past the wall for Re w > 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from itertools import product as iter_product

import numpy as np

from .flopgeom import FixedPointLabel, FlopConfig, euler_class_normal, fixed_point_deltas
from .ktheory import LocalizedKClass
from .numkernel import (
    PoleError,
    TWO_PI_I,
    gamma,
    log_gamma,
    recip_gamma,
    sin_over_2i,
)
from .wallcross import LocalizedCohClass, PsiContext, coeff_C, gamma_class, psi_apply, psi_on_coh


class NonConvergenceError(ArithmeticError):
    """The contour-integral tail bound cannot be met."""


class PathError(ValueError):
    """A continuation path runs too close to the pole lines."""


# ----------------------------------------------------------------------
# Series containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OffsetSeries:
    """Truncated series sum_e c_e q^{a+e} with complex offset a.

    ``prefactor`` is scalar metadata multiplying the whole series (kept
    separate so abelian/non-abelian bookkeeping can split it off);
    evaluation takes w = log q, never a bare q.
    """

    offset: complex
    coeffs: dict  # int -> complex
    order: int
    prefactor: complex = 1.0 + 0j

    def eval(self, w: complex, with_prefactor: bool = True) -> complex:
        total = 0j
        for e in sorted(self.coeffs):
            total += self.coeffs[e] * cmath.exp(w * (self.offset + e))
        return total * (self.prefactor if with_prefactor else 1.0)

    def coefficient(self, e: int) -> complex:
        return self.coeffs.get(e, 0j)

    def to_json_dict(self) -> dict:
        return {
            "offset": [self.offset.real, self.offset.imag],
            "prefactor": [self.prefactor.real, self.prefactor.imag],
            "order": self.order,
            "coeffs": [[e, self.coeffs[e].real, self.coeffs[e].imag] for e in sorted(self.coeffs)],
        }


@dataclass(frozen=True)
class MultiOffsetSeries:
    """Truncated series in r variables, one complex offset per variable."""

    offsets: tuple
    coeffs: dict  # tuple[int, ...] -> complex
    order: int    # per-variable truncation
    prefactor: complex = 1.0 + 0j

    @property
    def nvars(self) -> int:
        return len(self.offsets)

    def eval(self, ws, with_prefactor: bool = True) -> complex:
        ws = tuple(ws)
        if len(ws) != self.nvars:
            raise ValueError("need one log-q value per variable")
        total = 0j
        for es in sorted(self.coeffs):
            term = self.coeffs[es]
            for w, a, e in zip(ws, self.offsets, es):
                term *= cmath.exp(w * (a + e))
            total += term
        return total * (self.prefactor if with_prefactor else 1.0)

    def specialize(self) -> OffsetSeries:
        """Set every variable to the same q; offsets add, indices collapse."""
        coeffs: dict = {}
        for es, c in self.coeffs.items():
            tot = sum(es)
            coeffs[tot] = coeffs.get(tot, 0j) + c
        return OffsetSeries(
            offset=sum(self.offsets),
            coeffs=coeffs,
            order=self.order,
            prefactor=self.prefactor,
        )


def series_product(factors) -> MultiOffsetSeries:
    """Outer product of single-variable series into one multi-variable series."""
    factors = list(factors)
    offsets = tuple(f.offset for f in factors)
    order = min(f.order for f in factors)
    prefactor = 1.0 + 0j
    for f in factors:
        prefactor *= f.prefactor
    coeffs: dict = {}
    for es in iter_product(*(sorted(f.coeffs) for f in factors)):
        c = 1.0 + 0j
        for f, e in zip(factors, es):
            c *= f.coeffs[e]
        coeffs[es] = c
    return MultiOffsetSeries(offsets=offsets, coeffs=coeffs, order=order, prefactor=prefactor)


def delta_hat_apply(series: MultiOffsetSeries) -> MultiOffsetSeries:
    """Antisymmetrizing differential operator prod_k prod_{i<k} (-d_k + d_i).

    Each logarithmic derivative d_k acts on q_k^{a_k+e_k} by multiplication
    with a_k + e_k; r = 1 is the identity (empty product).
    """
    r = series.nvars
    coeffs = {}
    for es, c in series.coeffs.items():
        factor = 1.0 + 0j
        for k in range(r):
            for i in range(k):
                factor *= (series.offsets[i] + es[i]) - (series.offsets[k] + es[k])
        coeffs[es] = c * factor
    return MultiOffsetSeries(
        offsets=series.offsets, coeffs=coeffs, order=series.order, prefactor=series.prefactor
    )


# ----------------------------------------------------------------------
# The hypergeometric series at a fixed point (curve class zero)
# ----------------------------------------------------------------------

def _u(weight_scale: complex) -> complex:
    # exponent unit: weights enter Gamma arguments divided by 2 pi i
    return complex(weight_scale) / TWO_PI_I


def f_factor_series(config: FlopConfig, delta, k: int, order: int,
                    weight_scale: complex = 1.0) -> OffsetSeries:
    """Single-variable factor of the plus-side series at slot k of delta.

    Each coefficient is a finite product of reciprocal-Gamma values; the
    alternating phase (-1)^{(r-1)e} keeps the product-of-factors form
    compatible with the antisymmetrized full series.
    """
    xs, zs = config.complex_weights()
    u = _u(weight_scale)
    n, r = config.n, config.r
    d = tuple(delta)[k]
    coeffs = {}
    for e in range(order + 1):
        c = complex((-1.0) ** (((r - 1) * e) % 2))
        for j in range(n):
            c *= recip_gamma(1 + (xs[d] - xs[j]) * u + e)
            c *= recip_gamma(1 + (zs[j] - xs[d]) * u - e)
        coeffs[e] = c
    return OffsetSeries(offset=xs[d] * u, coeffs=coeffs, order=order)


def h_series(config: FlopConfig, side: str, delta, order: int,
             weight_scale: complex = 1.0):
    """Fixed-point restriction of the wall-crossing series, curve class zero.

    Returns an OffsetSeries for r = 1, a MultiOffsetSeries for r > 1.  The
    sine prefactor pi^{r(r-1)/2} / prod_{i<k} sin((..)/2i) is carried as
    metadata, not folded into the coefficients, so the stored coefficients
    are those of the Gamma-product form.  Support is e >= 0 in every
    variable.

    The minus side is the plus side on ``config.flipped()`` with the
    prefactor and every coefficient multiplied by (-1)^{r(r-1)/2}.  The
    involution negates each of the r(r-1)/2 pair differences, in the sines
    of the prefactor and in the Vandermonde factors of every coefficient;
    the fold restores the minus-side convention, with pair factors
    (z_i - z_k) u + e_k - e_i and sin((z_i - z_k)/2i).  The two signs
    cancel in the value of the series.
    """
    r = config.r
    if side == "minus":
        series = h_series(config.flipped(), "plus", delta, order, weight_scale)
        if r * (r - 1) // 2 % 2 == 0:
            return series
        return replace(series, prefactor=-series.prefactor,
                       coeffs={e: -c for e, c in series.coeffs.items()})
    if side != "plus":
        raise ValueError(f"bad side {side!r}")
    xs, zs = config.complex_weights()
    u = _u(weight_scale)
    n = config.n
    d = tuple(delta)
    offsets = tuple(xs[i] * u for i in d)

    prefactor = complex(math.pi ** (r * (r - 1) // 2))
    for i in range(r):
        for k in range(i + 1, r):
            den = sin_over_2i(complex(weight_scale) * (xs[d[i]] - xs[d[k]]))
            if den == 0:
                raise PoleError("prefactor sine vanishes; degenerate restriction")
            prefactor /= den

    coeffs: dict = {}
    for es in iter_product(range(order + 1), repeat=r):
        c = complex((-1.0) ** (((r - 1) * sum(es)) % 2))
        for k in range(r):
            for i in range(k):
                c *= (xs[d[i]] - xs[d[k]]) * u + (es[i] - es[k])
            for j in range(n):
                c *= recip_gamma(1 + (xs[d[k]] - xs[j]) * u + es[k])
                c *= recip_gamma(1 + (zs[j] - xs[d[k]]) * u - es[k])
        coeffs[es] = c

    if r == 1:
        return OffsetSeries(
            offset=offsets[0],
            coeffs={es[0]: c for es, c in coeffs.items()},
            order=order,
            prefactor=prefactor,
        )
    return MultiOffsetSeries(offsets=offsets, coeffs=coeffs, order=order, prefactor=prefactor)


def ode_check(config: FlopConfig, series: OffsetSeries, side: str,
              weight_scale: complex = 1.0) -> float:
    """Maximum relative residual of the hypergeometric recurrence.

    The annihilating operator, in the logarithmic derivative theta, is
        prod_j (theta - x_j u) - q (-1)^{n-r+1} prod_j (theta - z_j u)
    on the plus side, with u the weight unit; the minus side is the plus
    side on ``config.flipped()``.  At coefficient level it couples index e
    to e - 1 only, so the residual at each e is directly computable from
    two adjacent coefficients.
    """
    if side == "minus":
        return ode_check(config.flipped(), series, "plus", weight_scale)
    if side != "plus":
        raise ValueError(f"bad side {side!r}")
    xs, zs = config.complex_weights()
    u = _u(weight_scale)
    sign = (-1.0) ** ((config.n - config.r + 1) % 2)

    def prod(weights, theta):
        out = 1.0 + 0j
        for wgt in weights:
            out *= theta - wgt * u
        return out

    a = series.offset
    worst = 0.0
    tiny = 1e-300
    for e in range(series.order + 1):
        lhs = series.coefficient(e) * prod(xs, a + e)
        rhs = sign * series.coefficient(e - 1) * prod(zs, a + e - 1) if e > 0 else 0j
        denom = max(abs(lhs), abs(rhs), tiny)
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


# ----------------------------------------------------------------------
# Continuation path
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PathSpec:
    """Piecewise-linear continuation path in the w = log q plane.

    Runs from Re w << 0 to Re w >> 0 and crosses the wall at height
    (n - r) pi; construction rejects paths that come within ``margin`` of
    the pole lines Im w = (n - r + 1) pi + 2 pi Z while |Re w| <= 1.
    """

    points: tuple
    wall_height: float
    margin: float = 0.1

    def __post_init__(self):
        for p in self.points:
            if abs(p.real) <= 1.0:
                if _pole_line_distance(p.imag, self.wall_height) < self.margin:
                    raise PathError(f"path point {p} within {self.margin} of a pole line")

    @classmethod
    def standard(cls, config: FlopConfig, re_span: float = 6.0, samples: int = 41) -> "PathSpec":
        h = (config.n - config.r) * math.pi
        knots = [
            complex(-re_span, 0.0),
            complex(-re_span / 2.0, h),
            complex(re_span / 2.0, h),
            complex(re_span, 0.0),
        ]
        pts = []
        per_leg = max(2, samples // (len(knots) - 1))
        for a, b in zip(knots, knots[1:]):
            for t in range(per_leg):
                pts.append(a + (b - a) * (t / per_leg))
        pts.append(knots[-1])
        return cls(points=tuple(pts), wall_height=h)


def _pole_line_distance(im_w: float, wall_height: float) -> float:
    # pole lines sit one pi above/below the wall height, repeating mod 2 pi
    ref = wall_height + math.pi
    k = round((im_w - ref) / (2.0 * math.pi))
    return abs(im_w - (ref + 2.0 * math.pi * k))


# ----------------------------------------------------------------------
# Mellin-Barnes continuation (r = 1 form, also used per factor for r > 1)
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
                     weight_scale: complex = 1.0):
    """Integrand of the vertical-contour representation at plus fixed point l.

    Gamma(s) Gamma(1-s) e^{w(s + x_l u)} e^{-i pi (n-r) s}
      prod_i Gamma((x_l - z_i) u + s) / prod_j Gamma(1 + (x_l - x_j) u + s),

    u the weight unit.  The scalar prefactor
    prod_i sin(scale (x_l - z_i) / 2i) / pi^n is carried by the caller.
    Exponentials of w keep q^{...} branch-unambiguous.  ``s`` is a complex
    scalar or an array of nodes; the result has its shape.
    """
    n, r = config.n, config.r
    a_l, us, vs = _mb_data(config, l, weight_scale)
    shape = np.shape(s)
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    # log-space evaluation tolerates large |Im s| without overflow; the
    # branch of each log_gamma term is irrelevant once the sum is exponentiated
    acc = log_gamma(s) + log_gamma(1.0 - s)
    acc += w * (s + a_l) - 1j * math.pi * (n - r) * s
    for ui in us:
        acc += log_gamma(ui + s)
    for vj in vs:
        acc -= log_gamma(1.0 + vj + s)
    return np.exp(acc).reshape(shape)


def _decay_margins(config: FlopConfig, w: complex) -> tuple[float, float]:
    nr = (config.n - config.r) * math.pi
    m_up = w.imag - (nr - math.pi)
    m_down = (nr + math.pi) - w.imag
    return m_up, m_down


# smallest trapezoidal step before the line integral counts as unconverged
_MIN_STEP = 2.0 ** -12

# smallest accuracy target barnes_integrate accepts
MIN_BARNES_TOL = 1e-12


def barnes_integrate(w: complex, config: FlopConfig, l: int, tol: float = 1e-10,
                     weight_scale: complex = 1.0, t_max: float = 200.0) -> complex:
    """Mellin-Barnes value of the plus-side series at log q = w.

    Returns the analytic continuation of the prefactored series: equal to
    the convergent series for Re w < 0 and to its continuation past the
    wall for Re w > 0, for w inside the strip of height 2 pi centred at
    (n - r) pi.  Computed as the vertical line integral at Re s = -1/2,
    corrected by the residues of the non-integer poles lying right of the
    line, and scaled by the sine prefactor.  ``tol`` is the absolute
    accuracy target; the truncation height T is raised until an analytic
    exponential tail bound drops below tol/10, and NonConvergenceError is
    raised if that fails for T <= t_max.

    The line integral over [-T, T] is the trapezoidal rule at nodes
    t = k h, which converges geometrically because the integrand is
    analytic in a strip around the line.  Starting from h = 1/2 the step is
    halved, reusing the previous nodes, until two successive sums differ by
    less than tol / (20 |prefactor|); that takes at least one halving.  If
    h reaches 2^-12 first (a pole family close to the line narrows the
    strip), NonConvergenceError is raised; an unconverged sum is never
    returned.  A pole family within 1e-9 of the line raises it before any
    node is evaluated.
    """
    if not MIN_BARNES_TOL <= tol < math.inf:
        raise ValueError(f"tol {tol!r} is below supported accuracy or not finite")
    n, r = config.n, config.r
    if not (0 <= l < n):
        raise ValueError("fixed point index out of range")
    m_up, m_down = _decay_margins(config, w)
    if min(m_up, m_down) < 5e-2:
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

    xs, zs = config.complex_weights()
    prefactor = 1.0 + 0j
    for i in range(n):
        prefactor *= sin_over_2i(complex(weight_scale) * (xs[l] - zs[i]))
    prefactor /= math.pi ** n
    scale_ref = max(abs(prefactor), 1e-300)

    def integrand(t):
        return barnes_integrand(-0.5 + 1j * t, w, config, l, weight_scale)

    # truncation height with an exponential tail bound
    T = 20.0
    while True:
        top, bottom = abs(integrand(np.array([T, -T])))
        bound = top / m_up + bottom / m_down
        bound *= 10.0 * scale_ref / (2.0 * math.pi)
        if bound < tol / 10.0:
            break
        T *= 1.5
        if T > t_max:
            raise NonConvergenceError(f"tail bound {bound:.3e} not met by T = {t_max}")

    quad_tol = tol / (20.0 * scale_ref)
    h = 0.5
    kmax = math.floor(T / h)
    total = h * np.sum(integrand(h * np.arange(-kmax, kmax + 1)))
    while True:
        # step h/2 adds the odd multiples of h/2 in [-T, T]
        kmax = math.floor(T / h - 0.5)
        odd = h * (np.arange(-kmax - 1, kmax + 1) + 0.5)
        refined = 0.5 * (total + h * np.sum(integrand(odd)))
        h *= 0.5
        err = abs(refined - total)
        if err < quad_tol:
            break
        if h <= _MIN_STEP:
            raise NonConvergenceError(
                f"trapezoidal sums still differ by {err:.3e} at step {h:g}"
            )
        total = refined
    line_integral = refined / (2.0 * math.pi)

    # residues of poles strictly between the line and the integers >= 0
    correction = 0j
    for k in range(n):
        d = 0
        while True:
            s0 = -us[k] - d
            if s0.real <= -0.5:
                break
            val = gamma(s0) * gamma(1.0 - s0)
            val *= cmath.exp(w * (s0 + a_l) - 1j * math.pi * (n - r) * s0)
            val *= (-1.0) ** (d % 2) / math.factorial(d)
            for i in range(n):
                if i != k:
                    val *= gamma(us[i] + s0)
            for vj in vs:
                val *= recip_gamma(1.0 + vj + s0)
            correction += val
            d += 1

    return prefactor * (-line_integral - correction)


@dataclass
class ContinuationReport:
    """Per-fixed-point relative errors of the r = 1 wall-crossing check."""

    config: FlopConfig
    inside_err: dict
    outside_err: dict
    coeff_err: float

    @property
    def max_err(self) -> float:
        vals = list(self.inside_err.values()) + list(self.outside_err.values())
        return max(vals + [self.coeff_err])

    def ok(self, tol: float) -> bool:
        return self.max_err < tol


def verify_continuation_r1(config: FlopConfig, tol: float = 1e-8, order: int = 80,
                           q_inside: float = 0.3, q_outside: float = 3.0) -> ContinuationReport:
    """Wall crossing at r = 1: series inside the wall, transferred series past it.

    At each plus fixed point l the Mellin-Barnes value is compared against
    the plus series at |q| = q_inside and against the coefficient-weighted
    sum of minus series at |q| = q_outside (under q_+ = 1/q_-), both on the
    path height (n - 1) pi.  The transfer coefficients are additionally
    re-extracted from the past-wall values by a least-squares solve at
    n + 2 sample points and compared entrywise.
    """
    if config.r != 1:
        raise ValueError("verify_continuation_r1 needs r = 1")
    n = config.n
    h = (n - 1) * math.pi
    w_in = math.log(q_inside) + 1j * h
    w_out = math.log(q_outside) + 1j * h

    minus = [h_series(config, "minus", (k,), order) for k in range(n)]
    inside_err = {}
    outside_err = {}
    for l in range(n):
        plus = h_series(config, "plus", (l,), order)
        s_in = plus.eval(w_in)
        b_in = barnes_integrate(w_in, config, l, tol=max(1e-12, tol * abs(s_in) / 10.0))
        inside_err[(l,)] = abs(b_in - s_in) / abs(s_in)

        target = sum(
            coeff_C(config, (k,), (l,)) * minus[k].eval(-w_out) for k in range(n)
        )
        b_out = barnes_integrate(w_out, config, l, tol=max(1e-12, tol * abs(target) / 10.0))
        outside_err[(l,)] = abs(b_out - target) / abs(target)

    # re-extract the transfer coefficients from past-wall samples
    sample_ws = [math.log(q_outside + 0.4 * m) + 1j * h for m in range(n + 2)]
    worst = 0.0
    for l in range(n):
        A = np.array([[minus[k].eval(-wm) for k in range(n)] for wm in sample_ws])
        b = np.array([barnes_integrate(wm, config, l, tol=1e-12) for wm in sample_ws])
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        for k in range(n):
            want = coeff_C(config, (k,), (l,))
            worst = max(worst, abs(sol[k] - want) / abs(want))
    return ContinuationReport(
        config=config, inside_err=inside_err, outside_err=outside_err, coeff_err=worst
    )


# ----------------------------------------------------------------------
# I-series (restrictions) and central charges
# ----------------------------------------------------------------------

def _compositions_up_to(r: int, order: int):
    return (es for es in iter_product(range(order + 1), repeat=r) if sum(es) <= order)


def i_function(config: FlopConfig, side: str, delta, order: int,
               ctx: PsiContext) -> OffsetSeries:
    """Fixed-point restriction of the I-series, direct closed form.

    The infinite Gamma-ratio products of the hypergeometric factor are
    reduced to the finite telescoped products they denote (curve class
    zero), all r chamber variables specialized to a single q.  The leading
    coefficient on the plus side is exactly 1.  The minus side is the plus
    side on ``config.flipped()``; only ``ctx.z`` is read from the context.
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
    coeffs: dict = {}
    for es in _compositions_up_to(r, order):
        c = 1.0 + 0j
        for k in range(r):
            e = es[k]
            # prod_i prod_{h=-e+1}^{0} (z_i - x_dk + h z) / prod_j prod_{h=1}^{e} (x_dk - x_j + h z)
            for i in range(n):
                for hh in range(-e + 1, 1):
                    c *= zs[i] - xs[d[k]] + hh * zv
            for j in range(n):
                for hh in range(1, e + 1):
                    c /= xs[d[k]] - xs[j] + hh * zv
        # paired root-factor telescoping: (-1)^m (A + m z)/A per pair i < k
        for k in range(r):
            for i in range(k):
                A = xs[d[k]] - xs[d[i]]
                m = es[k] - es[i]
                c *= (-1.0) ** (m % 2) * (A + m * zv) / A
        tot = sum(es)
        coeffs[tot] = coeffs.get(tot, 0j) + c
    return OffsetSeries(offset=offset, coeffs=coeffs, order=order)


def i_function_factored(config: FlopConfig, side: str, delta, order: int,
                        ctx: PsiContext) -> OffsetSeries:
    """I-series restriction assembled through the integral-structure factors.

    Independent pipeline: the Gamma-class of the tangent weights, evaluated
    at weights divided by z, multiplies the specialized Gamma-product
    series built at weight scale 2 pi i / z (sine prefactor folded in).
    Must agree with the direct form coefficientwise.
    """
    hs = h_series(config, side, delta, order, weight_scale=ctx.ch_scale)
    if isinstance(hs, MultiOffsetSeries):
        hs = hs.specialize()
    scale = gamma_class(config, side, delta, ctx.inv_z) * hs.prefactor
    return OffsetSeries(
        offset=hs.offset,
        coeffs={e: scale * c for e, c in hs.coeffs.items()},
        order=order,
    )


def _psi_of(config: FlopConfig, side: str, E, ctx: PsiContext) -> LocalizedCohClass:
    if isinstance(E, LocalizedKClass):
        return psi_apply(ctx, E)
    # numeric restriction values already at the context's Chern scale
    return psi_on_coh(ctx, LocalizedCohClass(side, dict(E)))


def central_charge(config: FlopConfig, side: str, E, w: complex,
                   ctx: PsiContext, order: int = 60) -> complex:
    """Pairing of the I-series at the rotated argument with the psi-image of E.

    Z(E) = sum_d I|_d(e^{-i pi} z)(w) * psi(E)(z)|_d / e(N_d); ``E`` is a
    K-class or a dict of its Chern values at scale 2 pi i / z.
    """
    rot = ctx.rotated()
    psi_e = _psi_of(config, side, E, ctx)
    total = 0j
    for d in fixed_point_deltas(config):
        i_val = i_function(config, side, d, order, rot).eval(w)
        eN = complex(euler_class_normal(config, FixedPointLabel(side, d)))
        total += i_val * psi_e.values[d] / eN
    return total


def i_restriction_continued(config: FlopConfig, l: int, w: complex,
                            ctx: PsiContext, tol: float = 1e-11) -> complex:
    """Continuation of the plus-side I restriction past the wall (r = 1)."""
    if config.r != 1:
        raise ValueError("continued I restriction implemented for r = 1")
    gam = gamma_class(config, "plus", (l,), ctx.inv_z)
    return gam * barnes_integrate(w, config, l, tol=tol, weight_scale=ctx.ch_scale)


def central_charge_plus_continued(config: FlopConfig, E, w: complex,
                                  ctx: PsiContext, tol: float = 1e-11) -> complex:
    """Plus-side central charge with the I-series continued past the wall."""
    rot = ctx.rotated()
    psi_e = _psi_of(config, "plus", E, ctx)
    total = 0j
    for (l,) in fixed_point_deltas(config):
        i_val = i_restriction_continued(config, l, w, rot, tol=tol)
        eN = complex(euler_class_normal(config, FixedPointLabel("plus", (l,))))
        total += i_val * psi_e.values[(l,)] / eN
    return total
