"""Wall-crossing transfer: coefficient matrices, U_H, the Gamma-integral
structure map psi, pairings, and the induced symplectic map U.

Everything acts in restriction coordinates: a cohomology class on one side
is the vector of its values at that side's fixed points.  Expanding a class
in the fixed-point basis [pt_d]/e(N_d) shows that the transfer map acts on
restriction vectors simply as (U_H b)|_dp = sum_dm C(dm, dp) * b|_dm.
The coefficients C, CK and CH all come from one kernel per (config,
scale), which computes each exponential, sine and sine ratio it needs
once and multiplies them for all entries at once, as arrays whose products
are the interpreter's; each matrix is built once per (config, kind, scale)
and held on the config, as is each fixed point's Gamma class.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product

import numpy as np

from .flopgeom import FlopConfig, fixed_point_deltas
from .ktheory import LocalizedKClass, chern_character
from .numkernel import (
    MultiPoly,
    NonFiniteError,
    PoleError,
    TWO_PI_I,
    _Lazy,
    _complex_product,
    gamma,
    is_nonpositive_integer,
    sin_over_2i,
)


# ----------------------------------------------------------------------
# Transfer coefficients
# ----------------------------------------------------------------------

def _coeff_kernel(config: FlopConfig, scale: complex):
    """Transfer coefficients of one (config, scale), as a builder
    ``build(kind, rows, cols)`` of the matrix of entries (row, col).

    A row is a minus-side tuple (an increasing delta for 'C', any function
    tuple f for 'CK', an injective one for 'CH') and a column an increasing
    plus-side delta, paired slot by slot:

    C  = prod_i exp((n-r)(x_{dp_i} - z_{dm_i})/2) *
         prod_{j not in dm} sin((x_{dp_i} - z_j)/2i) / sin((z_{dm_i} - z_j)/2i)
    CK = the same with the sine product over j != f_i, defined for
         non-injective f as well
    CH = CK * prod_{i<k} sin((z_{f_i} - z_{f_k})/2i) / sin((x_{dp_i} - x_{dp_k})/2i),
         which vanishes on a repeated index; summed over the S_r-orbit of an
         increasing delta it recovers C

    at weights multiplied by ``scale``.  An entry multiplies from 1, slot by
    slot, the exponential and then the sine ratios by increasing j, and for
    'CH' then the pair quotients, i < k lexicographically.  Every sine is
    one of sin((w_p - w_q)/2i) over w = (x, z), kept in one table keyed by
    (p, q).  A factor is keyed (a, b, j, q): (a, b, n, n) the exponential of
    x_a and z_b, (a, b, j, n) their ratio at j, and (a, b, j, q) the pair
    quotient of x_a, x_b and z_j, z_q.  The builder computes each key its
    entries meet once as a Python scalar (``factor``) and multiplies the
    factors of all entries at once (``_complex_product``), so each entry is
    the float of the loop written out.
    """
    n, r = config.n, config.r
    xs, zs = config.complex_weights(scale)
    ws = xs + zs
    sin = _Lazy(lambda p, q: sin_over_2i(ws[p] - ws[q]))
    shape = (n, n, n + 1, n + 1)

    def factor(a, b, j, q):
        if q < n:
            return sin[n + j, n + q] / sin[a, b]
        if j < n:
            return sin[a, n + j] / sin[n + b, n + j]
        return cmath.exp((n - r) * (xs[a] - zs[b]) / 2.0)

    def build(kind: str, rows, cols) -> tuple:
        # at slot i of entry (row, col), a = dp_i and b the row's i-th index
        a, b = np.array(cols)[None], np.array(rows)[:, None]
        if kind == "C":
            js = np.array([[n] + [j for j in range(n) if j not in row] for row in rows])[:, None, None]
        else:
            js = np.array([[n] + [j for j in range(n) if j != i] for i in range(n)])[b]
        keys = np.ravel_multi_index((a[..., None], b[..., None], js, n), shape)
        keys = keys.reshape(len(rows), len(cols), -1)
        if kind == "CH":
            i, k = np.triu_indices(r, 1)
            pairs = np.ravel_multi_index((a[..., i], a[..., k], b[..., i], b[..., k]), shape)
            keys = np.concatenate([keys, pairs], axis=-1)
        table = np.zeros(math.prod(shape), dtype=complex)
        table[keys] = 1.0
        need = np.flatnonzero(table)
        table[need] = [factor(*key) for key in zip(*(v.tolist() for v in np.unravel_index(need, shape)))]
        out = np.ones(keys.shape[:2], dtype=complex)
        for column in table[keys].transpose(2, 0, 1):
            out = _complex_product(out, column)
        return tuple(map(tuple, out.tolist()))

    return build


@dataclass(frozen=True)
class TransitionMatrix:
    """Coefficient matrix, rows on the minus side, columns the plus fixed points.

    kind 'C' uses increasing subsets as rows; 'CK' all function tuples;
    'CH' the ordered injective tuples.
    """

    kind: str
    rows: tuple
    cols: tuple
    entries: tuple  # row-major tuple of tuples of complex

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rows": [list(rw) for rw in self.rows],
            "cols": [list(cl) for cl in self.cols],
            "entries": [[[v.real, v.imag] for v in row] for row in self.entries],
        }


def transition_matrix(config: FlopConfig, kind: str, scale: complex = 1.0) -> TransitionMatrix:
    """The transfer matrix of one (config, kind, scale), built on first use
    and held for the config's lifetime in its ``__dict__`` entry
    ``_transfer``, keyed by (kind, scale).  Its entries are tuples, so every
    caller can share it."""
    memo = config.__dict__.setdefault("_transfer", {})
    mat = memo.get((kind, scale))
    if mat is None:
        cols = tuple(fixed_point_deltas(config))
        if kind == "C":
            rows = cols
        elif kind == "CK":
            rows = tuple(product(range(config.n), repeat=config.r))
        elif kind == "CH":
            rows = tuple(permutations(range(config.n), config.r))
        else:
            raise ValueError(f"unknown kind {kind!r}")
        entries = _coeff_kernel(config, scale)(kind, rows, cols)
        mat = memo[kind, scale] = TransitionMatrix(kind=kind, rows=rows, cols=cols, entries=entries)
    return mat


def coeff_C(config: FlopConfig, delta_minus, delta_plus) -> complex:
    """One entry of the 'C' transfer matrix at scale 1, read from the matrix
    held on the config (``transition_matrix``).  Both labels are increasing
    deltas; ValueError on any other."""
    mat = transition_matrix(config, "C")
    return mat.entries[mat.rows.index(tuple(delta_minus))][mat.cols.index(tuple(delta_plus))]


# ----------------------------------------------------------------------
# Cohomology restriction vectors and U_H
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LocalizedCohClass:
    """Cohomology class as its restriction values at one side's fixed points."""

    side: str
    values: dict  # delta tuple -> complex


def uh_apply(config: FlopConfig, beta: LocalizedCohClass, scale: complex = 1.0) -> LocalizedCohClass:
    """Transfer map in restriction coordinates: (U_H b)|_dp = sum C(dm,dp) b|_dm."""
    if beta.side != "minus":
        raise ValueError("uh_apply expects a minus-side class")
    mat = transition_matrix(config, "C", scale)
    values = {}
    for c, dp in enumerate(mat.cols):
        values[dp] = sum(row[c] * beta.values[dm] for dm, row in zip(mat.rows, mat.entries))
    return LocalizedCohClass("plus", values)


# ----------------------------------------------------------------------
# Antisymmetric product identity
# ----------------------------------------------------------------------

def _antisym_q_entry(xs, zs, l: int, j: int, one):
    """Q_{l,j} = prod_{j' != j} (x_{j'} - z_l), starting the product at ``one``."""
    out = one
    for jp, x in enumerate(xs):
        if jp != j:
            out = out * (x - zs[l])
    return out


@functools.cache
def _laplace_plan(r: int) -> tuple:
    """The Laplace expansion of an r x r determinant along its rows, as
    ``(mask, row, terms)`` per non-empty column mask, in increasing order.

    The minor on mask m uses rows r - popcount(m), ..., r - 1 and the
    columns in m; it expands along its first row, ``row``, with one term
    ``(j, m without j, sign)`` per column j of m, the signs alternating
    from +1.  Every sub-mask is smaller than its mask, so in this order it
    is expanded first.
    """
    plan = []
    for mask in range(1, 1 << r):
        cols = [j for j in range(r) if mask >> j & 1]
        terms = tuple((j, mask ^ (1 << j), 1 - 2 * (k & 1)) for k, j in enumerate(cols))
        plan.append((mask, r - len(cols), terms))
    return tuple(plan)


def _antisym_sides(xs, zs, one):
    """Both sides of the identity at ``xs``, ``zs`` in a commutative ring
    whose unit is ``one``: ``MultiPoly`` variables, integers or Fractions.

    The left side is prod_{l<i} (z_i - z_l)(x_l - x_i), the product of the
    two Vandermonde products V(z) = prod_{l<i} (z_i - z_l) and
    V(x) = prod_{l<i} (x_l - x_i), each built alone.  The right side,
    sum_sigma sgn(sigma) prod_l prod_{j != sigma(l)} (x_j - z_l), is by the
    Leibniz formula the determinant of Q_{l,j} = prod_{j' != j} (x_{j'} - z_l)
    (``_antisym_q_entry``).  It is expanded along rows by the plan
    ``_laplace_plan(r)``, built once per r: the minor on a column mask uses
    the last popcount rows, so the mask alone keys it and 2^r minors replace
    the r! permutation terms.  The tests keep the r! sum as an independent
    oracle.
    """
    r = len(xs)
    vz = vx = one
    for i in range(r):
        for l in range(i):
            vz = vz * (zs[i] - zs[l])
            vx = vx * (xs[l] - xs[i])
    q = [[_antisym_q_entry(xs, zs, l, j, one) for j in range(r)] for l in range(r)]
    minors = [one] * (1 << r)
    for mask, row, terms in _laplace_plan(r):
        qrow = q[row]
        det = None
        for j, sub, sign in terms:
            term = qrow[j] * minors[sub]
            det = term if det is None else det + term if sign > 0 else det - term
        minors[mask] = det
    return vz * vx, minors[-1]


@dataclass
class AntisymReport:
    r: int
    symbolic_checked: bool
    symbolic_ok: bool
    samples_ok: bool
    monomial_ok: bool

    @property
    def ok(self) -> bool:
        return (self.symbolic_ok or not self.symbolic_checked) and self.samples_ok and self.monomial_ok


def antisym_identity_check(r: int, samples: int = 20, seed: int = 0) -> AntisymReport:
    """Exact verification of the bi-antisymmetric product identity.

    Full symbolic expansion for r <= 4 (including the leading-monomial
    coefficient (-1)^{r(r-1)/2} of prod (z_i x_i)^{i-1}); exact equality at
    ``samples`` random rational points for any r.  Both checks evaluate the
    right-hand side as the determinant det Q (see ``_antisym_sides``), not
    as the r! permutation sum, which the tests keep as an oracle.
    ValueError for r < 1 or samples < 1: such a check would check nothing.
    """
    if r < 1:
        raise ValueError(f"antisym_identity_check needs r >= 1, got r={r}")
    if samples < 1:
        raise ValueError(f"antisym_identity_check needs samples >= 1, got samples={samples}")
    symbolic_checked = r <= 4
    symbolic_ok = True
    monomial_ok = True
    if symbolic_checked:
        nv = 2 * r
        lhs, rhs = _antisym_sides([MultiPoly.variable(nv, i) for i in range(r)],
                                  [MultiPoly.variable(nv, r + i) for i in range(r)],
                                  MultiPoly.constant(nv, 1))
        symbolic_ok = lhs == rhs
        exp = tuple(range(r)) + tuple(range(r))  # x_i^(i-1), z_i^(i-1)
        want = (-1) ** (r * (r - 1) // 2)
        monomial_ok = lhs.coefficient(exp) == want and rhs.coefficient(exp) == want
    rng = random.Random(seed)
    samples_ok = True
    for _ in range(samples):
        # x_0, ..., x_{r-1}, then z_0, ..., z_{r-1}, each p/q in lowest terms
        # (q > 0), kept as the integer pair (p, q)
        coords = []
        for _ in range(2 * r):
            p, q = rng.randrange(-60, 61), rng.randrange(1, 41)
            g = math.gcd(p, q)
            coords.append((p // g, q // g))
        # Both sides are homogeneous of degree r(r-1), so at the point scaled
        # by the common denominator D each is D^{r(r-1)} != 0 times its value
        # at the rational point: the integer point decides the same equality.
        den = math.lcm(*(q for _, q in coords))
        ints = [p * (den // q) for p, q in coords]
        lhs, rhs = _antisym_sides(ints[:r], ints[r:], 1)
        if lhs != rhs:
            samples_ok = False
            break
    return AntisymReport(
        r=r,
        symbolic_checked=symbolic_checked,
        symbolic_ok=symbolic_ok,
        samples_ok=samples_ok,
        monomial_ok=monomial_ok,
    )


# ----------------------------------------------------------------------
# Gamma-integral structure map
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PsiContext:
    """Fixed side and fixed branch of log z.

    All z-dependence downstream is taken through log_z, so rotating the
    argument by e^{-i pi} is just log_z - i pi with no branch ambiguity.
    """

    config: FlopConfig
    side: str
    log_z: complex

    @cached_property
    def diag(self) -> dict:
        """psi's diagonal factor per fixed point of this context, filled by
        ``psi_diag_factor`` on first use and held on the instance."""
        return {}

    @classmethod
    def create(cls, config: FlopConfig, side: str, z: complex) -> "PsiContext":
        """The context of ``z`` on the principal branch of log z.

        ValueError at z = 0 (from ``cmath.log``), NonFiniteError where 1/z
        or a tangent weight does not fit a float, and PoleError where
        1 + w/z sits on a Gamma pole for a tangent weight w.
        """
        ctx = cls(config=config, side=side, log_z=cmath.log(z))
        try:
            inv_z = ctx.inv_z
        except OverflowError:
            raise NonFiniteError(f"1/z does not fit a float at z = {z!r}") from None
        for d in fixed_point_deltas(config):
            weights = config.fixed_point_table[side, d]
            for t, num in enumerate(weights.nums):
                try:
                    wc = complex(num / weights.den)
                except OverflowError:
                    w = Fraction(num, weights.den)
                    size = math.log10(abs(w.numerator)) - math.log10(w.denominator)
                    raise NonFiniteError(
                        f"tangent weight {t} at {side} {d} (|w| ~ 10^{size:.1f}) is not a finite float"
                    ) from None
                if is_nonpositive_integer(1.0 + wc * inv_z):
                    raise PoleError(f"1 + w/z hits a Gamma pole for w = {Fraction(num, weights.den)}")
        return ctx

    @property
    def z(self) -> complex:
        return cmath.exp(self.log_z)

    @property
    def inv_z(self) -> complex:
        return cmath.exp(-self.log_z)

    @property
    def ch_scale(self) -> complex:
        """Exponent scale 2 pi i / z for the Chern-character factor."""
        return TWO_PI_I * self.inv_z

    def rotated(self) -> "PsiContext":
        """Context for the argument e^{-i pi} z on the same branch."""
        return PsiContext(config=self.config, side=self.side, log_z=self.log_z - 1j * math.pi)


def gamma_class(config: FlopConfig, side: str, delta, inv_z: complex) -> complex:
    """prod_t Gamma(1 + w_t / z) over the tangent weights at the fixed point,
    read from the float view of the config's table, multiplied in turn from
    1; the instance holds it per (side, delta, inv_z)."""
    key = side, tuple(delta), inv_z
    held = config.__dict__.setdefault("_gamma_class", {})
    if key not in held:
        weights = config.fixed_point_table[side, key[1]].values
        held[key] = math.prod((gamma(1.0 + w * inv_z) for w in weights), start=1.0 + 0j)
    return held[key]


def psi_diag_factor(ctx: PsiContext, delta) -> complex:
    """Per-fixed-point diagonal factor of psi, held in ``ctx.diag``.

    z^{dim/2} * exp((sum_t w_t / z) log z) * prod_t Gamma(1 + w_t / z),
    over the tangent weights at the fixed point; their sum is the integer
    sum of the numerators over the common denominator, rounded once.
    Raises NonFiniteError where an exponential factor overflows.
    """
    delta = tuple(delta)
    out = ctx.diag.get(delta)
    if out is None:
        weights = ctx.config.fixed_point_table[ctx.side, delta]
        try:
            out = cmath.exp(ctx.config.dim / 2.0 * ctx.log_z)
            out *= cmath.exp(complex(sum(weights.nums) / weights.den) * ctx.inv_z * ctx.log_z)
        except OverflowError:
            raise NonFiniteError(f"psi factor overflows at log z = {ctx.log_z!r}") from None
        out = ctx.diag[delta] = out * gamma_class(ctx.config, ctx.side, delta, ctx.inv_z)
    return out


def psi_on_coh(ctx: PsiContext, beta: LocalizedCohClass) -> LocalizedCohClass:
    """Diagonal action of psi on a restriction vector (scaling already absorbed)."""
    if beta.side != ctx.side:
        raise ValueError("side mismatch")
    return LocalizedCohClass(
        ctx.side, {d: psi_diag_factor(ctx, d) * v for d, v in beta.values.items()}
    )


def psi_inverse(ctx: PsiContext, beta: LocalizedCohClass) -> LocalizedCohClass:
    if beta.side != ctx.side:
        raise ValueError("side mismatch")
    return LocalizedCohClass(
        ctx.side, {d: v / psi_diag_factor(ctx, d) for d, v in beta.values.items()}
    )


def psi_apply(ctx: PsiContext, A: LocalizedKClass) -> LocalizedCohClass:
    """Gamma-integral structure map on a K-class.

    psi_apply = diagonal factor times the Chern character at scale
    2 pi i / z, per fixed point.
    """
    if A.side != ctx.side:
        raise ValueError("side mismatch")
    ch = chern_character(ctx.config, A, ctx.ch_scale)
    return LocalizedCohClass(ctx.side, {d: psi_diag_factor(ctx, d) * ch[d] for d in ch})


def pairing(config: FlopConfig, a: LocalizedCohClass, b: LocalizedCohClass) -> complex:
    """Localization pairing: sum_d a|_d * b|_d / e(N_d), each e(N_d) the
    float view of the exact Euler class in the config's table.

    It is the one cohomological localization sum: the central charges pair
    their one I-vector with each psi image through it.
    """
    if a.side != b.side:
        raise ValueError("pairing needs classes on the same side")
    table = config.fixed_point_table
    total = 0j
    for d in a.values:
        total += a.values[d] * b.values[d] / table[a.side, d].euler_value
    return total


def u_apply(ctx_plus: PsiContext, ctx_minus: PsiContext, beta: LocalizedCohClass) -> LocalizedCohClass:
    """The symplectic transfer U = psi_plus . U_H . psi_minus^{-1}.

    Both contexts must carry the same log z.  The middle transfer acts at
    the 2 pi i / z - scaled weights: conjugating by psi's degree operators
    substitutes lambda -> 2 pi i lambda / z into any function of the
    weights, the transfer coefficients included.
    """
    if ctx_plus.side != "plus" or ctx_minus.side != "minus":
        raise ValueError("contexts must be (plus, minus)")
    if abs(ctx_plus.log_z - ctx_minus.log_z) > 1e-14:
        raise ValueError("contexts must share the same log z")
    if ctx_plus.config is not ctx_minus.config and ctx_plus.config != ctx_minus.config:
        raise ValueError("contexts must share the configuration")
    stripped = psi_inverse(ctx_minus, beta)
    moved = uh_apply(ctx_minus.config, stripped, scale=ctx_minus.ch_scale)
    return psi_on_coh(ctx_plus, moved)
