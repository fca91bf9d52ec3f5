"""Transfer coefficients, the antisymmetric identity, psi, and U."""

import cmath
import gc
import math
import random
import re
import weakref
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flopwall.flopgeom import FlopConfig, fixed_point_deltas, random_config
from flopwall.ktheory import (
    chern_character,
    chi_z_pairing,
    euler_characteristic,
    fm_generator_formula,
    fm_transform,
    generator_e,
    unit_class,
)
from flopwall.numkernel import TWO_PI_I, MultiPoly, NonFiniteError, PoleError, sin_over_2i
from flopwall import numkernel, suites, wallcross
from flopwall.suites import SuiteEnv, collect_cases, default_config
from flopwall.wallcross import (
    LocalizedCohClass,
    PsiContext,
    _antisym_sides,
    antisym_identity_check,
    coeff_C,
    pairing,
    psi_apply,
    psi_inverse,
    psi_on_coh,
    transition_matrix,
    u_apply,
    uh_apply,
)

F = Fraction


def test_coeff_c_collapses_when_weights_align():
    # x_{dp_i} - z_{dm_i} = eps: every factor tends to 1 as eps -> 0
    eps = F(1, 10**6)
    cfg = FlopConfig(2, 1, (F(3, 10) + eps, F(7, 10)), (F(3, 10), F(9, 10)))
    val = coeff_C(cfg, (0,), (0,))
    assert abs(val - 1.0) < 1e-4


def test_coeff_c_r1_matches_projective_bundle_form(cfg31):
    # r = 1 specialization: exponent n - 1 and sines over the complement
    xs, zs = cfg31.complex_weights()
    n = cfg31.n
    for l in range(n):
        for k in range(n):
            want = cmath.exp((n - 1) * (xs[l] - zs[k]) / 2.0)
            for i in range(n):
                if i != k:
                    want *= sin_over_2i(xs[l] - zs[i]) / sin_over_2i(zs[k] - zs[i])
            assert abs(coeff_C(cfg31, (k,), (l,)) - want) < 1e-14 * abs(want)


def test_coeff_c_equals_character_ratio(cfg21):
    # derived: C is the fixed-point ratio of the transformed and original
    # generator characters
    xs, zs = cfg21.complex_weights()
    for k in range(2):
        for l in range(2):
            num = 1.0 + 0j
            den = 1.0 + 0j
            for j in range(2):
                if j != k:
                    num *= 1.0 - cmath.exp(xs[l] - zs[j])
                    den *= 1.0 - cmath.exp(zs[k] - zs[j])
            want = num / den
            assert abs(coeff_C(cfg21, (k,), (l,)) - want) < 1e-14


def test_ck_ch_reduce_to_c_at_r1(cfg31):
    C = transition_matrix(cfg31, "C")
    for kind in ("CK", "CH"):
        M = transition_matrix(cfg31, kind)
        assert M.rows == C.rows and M.entries == C.entries


def test_ch_vanishes_on_repeats(cfg32):
    # the CH matrix has injective rows only, so ask the kernel directly
    val = wallcross._coeff_kernel(cfg32, 1.0)("CH", (1, 1), (0, 1))
    assert abs(val) < 1e-15


def test_coeff_c_invariant_under_simultaneous_reordering(cfg42):
    # the matrix holds increasing labels only, so ask the kernel directly
    entry = wallcross._coeff_kernel(cfg42, 1.0)
    dm, dp = (0, 2), (1, 3)
    base = coeff_C(cfg42, dm, dp)
    for perm in permutations(range(2)):
        pm = tuple(dm[p] for p in perm)
        pp = tuple(dp[p] for p in perm)
        assert abs(entry("C", pm, pp) - base) < 1e-14 * abs(base)


@pytest.mark.parametrize("r,n", [(2, 3), (2, 4), (3, 5)])
def test_sr_collapse(r, n):
    cfg = random_config(n, r, seed=21)
    C = transition_matrix(cfg, "C")
    CH = transition_matrix(cfg, "CH")
    ch_row = dict(zip(CH.rows, CH.entries))
    for dm, c_row in zip(C.rows, C.entries):
        for col, want in enumerate(c_row):
            total = sum(ch_row[f][col] for f in permutations(dm))
            assert abs(total - want) <= 1e-10 * abs(want)


# Reference loops, one per kind, written out separately as the kernel's
# oracle: every entry of the kernel must be the same float.

def _ref_C(config, dm, dp, scale):
    xs, zs = config.complex_weights(scale)
    n, r = config.n, config.r
    out = 1.0 + 0j
    for a, b in zip(dp, dm):
        out *= cmath.exp((n - r) * (xs[a] - zs[b]) / 2.0)
        for j in range(n):
            if j not in dm:
                out *= sin_over_2i(xs[a] - zs[j]) / sin_over_2i(zs[b] - zs[j])
    return out


def _ref_CK(config, f, dp, scale):
    xs, zs = config.complex_weights(scale)
    n, r = config.n, config.r
    out = 1.0 + 0j
    for a, b in zip(dp, f):
        out *= cmath.exp((n - r) * (xs[a] - zs[b]) / 2.0)
        for j in range(n):
            if j != b:
                out *= sin_over_2i(xs[a] - zs[j]) / sin_over_2i(zs[b] - zs[j])
    return out


def _ref_CH(config, f, dp, scale):
    xs, zs = config.complex_weights(scale)
    out = _ref_CK(config, f, dp, scale)
    for i in range(config.r):
        for k in range(i + 1, config.r):
            out *= sin_over_2i(zs[f[i]] - zs[f[k]]) / sin_over_2i(xs[dp[i]] - xs[dp[k]])
    return out


_REFS = {"C": _ref_C, "CK": _ref_CK, "CH": _ref_CH}


@st.composite
def _configs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    r = draw(st.integers(min_value=1, max_value=n - 1))
    return random_config(n, r, seed=draw(st.integers(min_value=0, max_value=10**6)))


@given(_configs(), st.sampled_from([1.0, 2.0, 3.0 + 1j, TWO_PI_I / 2.0, TWO_PI_I / (3.0 + 1j)]))
@settings(max_examples=30, deadline=None)
def test_transition_matrix_entries_equal_the_reference_loops(cfg, scale):
    for kind, ref in _REFS.items():
        M = transition_matrix(cfg, kind, scale)
        for rw, row in zip(M.rows, M.entries):
            for cl, val in zip(M.cols, row):
                assert val == ref(cfg, rw, cl, scale), (kind, rw, cl)
                if kind == "C" and scale == 1.0:
                    assert coeff_C(cfg, rw, cl) == val


def _per_entry_kernel(config, scale, wrong_j=False):
    """The kernel as it was before its sine ratios were held: every entry
    divides each ratio afresh from the pair-keyed sine table.  With
    ``wrong_j`` an entry's first ratio reads its numerator sine at the
    next j, the negative control."""
    n, r = config.n, config.r
    xs, zs = config.complex_weights(scale)
    ws = xs + zs
    ex = numkernel._Lazy(lambda a, b: cmath.exp((n - r) * (xs[a] - zs[b]) / 2.0))
    sin = numkernel._Lazy(lambda p, q: sin_over_2i(ws[p] - ws[q]))

    def entry(kind, row, col):
        out = 1.0 + 0j
        shift = int(wrong_j)
        for a, b in zip(col, row):
            out *= ex[a, b]
            skip = row if kind == "C" else (b,)
            for j in range(n):
                if j not in skip:
                    out *= sin[a, n + (j + shift) % n] / sin[n + b, n + j]
                    shift = 0
        if kind == "CH":
            for i in range(r):
                for k in range(i + 1, r):
                    out *= sin[n + row[i], n + row[k]] / sin[col[i], col[k]]
        return out

    return entry


_GRID = [(n, r) for n in range(2, 6) for r in range(1, n)]


@pytest.mark.parametrize("n,r", _GRID)
def test_transition_matrix_entries_equal_the_per_entry_kernel(n, r):
    # every entry, of every kind and at every scale, is the same float as
    # the per-entry kernel gives; the wrong-j control differs from it
    for scale in (1.0, 2j, 0.3 + 1j):
        cfg = random_config(n, r, seed=10 * n + r)
        for kind in ("C", "CK", "CH"):
            M = transition_matrix(cfg, kind, scale)
            want = _per_entry_kernel(cfg, scale)
            mutant = _per_entry_kernel(cfg, scale, wrong_j=True)
            got = [v for row in M.entries for v in row]
            assert got == [want(kind, rw, cl) for rw in M.rows for cl in M.cols], (kind, scale)
            assert got != [mutant(kind, rw, cl) for rw in M.rows for cl in M.cols], (kind, scale)


def _count_calls(monkeypatch, module, name):
    calls = [0]
    fn = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (4, 1), (5, 1), (4, 2), (5, 3), (5, 4)])
def test_coeff_c_computes_r_exponentials_and_2r_n_minus_r_sines(monkeypatch, n, r):
    # one entry of a new kernel computes only what it needs
    cfg = random_config(n, r, seed=5)
    sines = _count_calls(monkeypatch, wallcross, "sin_over_2i")
    exps = _count_calls(monkeypatch, cmath, "exp")
    dm, dp = tuple(range(r)), tuple(range(n - r, n))
    wallcross._coeff_kernel(cfg, 1.0)("C", dm, dp)
    assert sines[0] == 2 * r * (n - r)
    assert exps[0] == r
    # coeff_C reads every entry from the one matrix held on the config: a
    # call per entry (n^2 at r = 1) builds one kernel
    kernels = _count_calls(monkeypatch, wallcross, "_coeff_kernel")
    deltas = fixed_point_deltas(cfg)
    got = [[coeff_C(cfg, rw, cl) for cl in deltas] for rw in deltas]
    assert kernels[0] == 1
    assert tuple(map(tuple, got)) == transition_matrix(cfg, "C").entries


@pytest.mark.parametrize("kind", ["C", "CK", "CH"])
def test_transition_matrix_computes_each_sine_once(monkeypatch, kind):
    cfg = random_config(5, 3, seed=5)
    sines = _count_calls(monkeypatch, wallcross, "sin_over_2i")
    transition_matrix(cfg, kind)
    assert 0 < sines[0] <= 3 * cfg.n ** 2


def _mutant_kernel(kind_for):
    """A kernel that answers each kind with the reference loop of ``kind_for[kind]``."""
    def kernel(config, scale):
        return lambda kind, row, col: _REFS[kind_for.get(kind, kind)](config, row, col, scale)
    return kernel


def _statuses(prefix):
    return {c.name: c.thunk()[0] for c in collect_cases(SuiteEnv(), "wallcross")
            if c.name.startswith(prefix)}


def test_reference_kernel_passes_the_wallcross_cases(monkeypatch):
    monkeypatch.setattr(wallcross, "_coeff_kernel", _mutant_kernel({}))
    for prefix in ("sr-collapse-", "fm-diagram-", "c-r1-specialization"):
        statuses = _statuses(prefix)
        assert statuses and set(statuses.values()) == {"pass"}, statuses


def test_dropping_the_ch_pair_ratio_fails_every_collapse_case(monkeypatch):
    monkeypatch.setattr(wallcross, "_coeff_kernel", _mutant_kernel({"CH": "CK"}))
    statuses = _statuses("sr-collapse-")
    assert len(statuses) == 3 and set(statuses.values()) == {"fail"}, statuses


def test_ck_skip_rule_for_c_fails_collapse_and_fm_diagram(monkeypatch):
    monkeypatch.setattr(wallcross, "_coeff_kernel", _mutant_kernel({"C": "CK"}))
    collapse = _statuses("sr-collapse-")
    assert len(collapse) == 3 and set(collapse.values()) == {"fail"}, collapse
    # at r = 1, j not in dm and j != dm_1 are the same rule, so only the
    # r >= 2 diagrams can see the mutation
    diagram = _statuses("fm-diagram-")
    assert diagram == {"fm-diagram-n2-r1": "pass", "fm-diagram-n3-r1": "pass",
                       "fm-diagram-n3-r2": "fail", "fm-diagram-n4-r2": "fail"}, diagram


def test_transition_matrix_shapes(cfg32):
    C = transition_matrix(cfg32, "C")
    assert len(C.rows) == 3 and len(C.cols) == 3
    CK = transition_matrix(cfg32, "CK")
    assert len(CK.rows) == 9
    CH = transition_matrix(cfg32, "CH")
    assert len(CH.rows) == 6
    d = C.to_json_dict()
    assert set(d) == {"kind", "rows", "cols", "entries"}
    assert d["entries"][0][0] == [C.entries[0][0].real, C.entries[0][0].imag]


def test_uh_apply_basis_and_linearity(cfg21):
    deltas = fixed_point_deltas(cfg21)
    b0 = uh_apply(cfg21, LocalizedCohClass("minus", {deltas[0]: 1.0 + 0j, deltas[1]: 0j}))
    for dp in deltas:
        assert abs(b0.values[dp] - coeff_C(cfg21, deltas[0], dp)) < 1e-15
    b1 = uh_apply(cfg21, LocalizedCohClass("minus", {deltas[0]: 0j, deltas[1]: 1.0 + 0j}))
    both = uh_apply(cfg21, LocalizedCohClass("minus", {deltas[0]: 1.0 + 0j, deltas[1]: 2.0 + 0j}))
    for dp in deltas:
        assert abs(both.values[dp] - b0.values[dp] - 2.0 * b1.values[dp]) < 1e-14


@pytest.mark.parametrize("fixture", ["cfg21", "cfg31", "cfg32", "cfg42"])
def test_uh_ch_commutes_with_fm(fixture, request):
    cfg = request.getfixturevalue(fixture)
    worst = 0.0
    for dm in fixed_point_deltas(cfg):
        ch_e = chern_character(cfg, generator_e(cfg, dm))
        want = chern_character(cfg, fm_generator_formula(cfg, dm))
        got = uh_apply(cfg, LocalizedCohClass("minus", ch_e))
        for dp in want:
            worst = max(worst, abs(got.values[dp] - want[dp]) / abs(want[dp]))
    assert worst < 1e-10


# ----------------------------------------------------------------------
# antisymmetric identity
# ----------------------------------------------------------------------

def _symbolic_sides(r):
    """Both sides of the identity in MultiPoly variables x_1..x_r, z_1..z_r."""
    nv = 2 * r
    x = [MultiPoly.variable(nv, i) for i in range(r)]
    z = [MultiPoly.variable(nv, r + i) for i in range(r)]
    return _antisym_sides(x, z, MultiPoly.constant(nv, 1))


def test_antisym_r1_trivial():
    rep = antisym_identity_check(1, samples=5, seed=0)
    assert rep.ok
    lhs, rhs = _symbolic_sides(1)
    assert lhs == rhs == MultiPoly.constant(2, 1)


def test_antisym_r2_expansion_matches_hand_oracle():
    # hand expansion of the two-permutation sum
    lhs, rhs = _symbolic_sides(2)
    assert lhs == rhs
    # (z_2 - z_1)(x_1 - x_2): check two representative coefficients
    assert rhs.coefficient((1, 0, 0, 1)) == 1     # x_1 z_2
    assert rhs.coefficient((0, 1, 1, 0)) == 1     # x_2 z_1
    assert rhs.coefficient((1, 0, 1, 0)) == -1    # x_1 z_1
    assert rhs.coefficient((0, 1, 0, 1)) == -1    # x_2 z_2


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_antisym_symbolic(r):
    rep = antisym_identity_check(r, samples=3, seed=1)
    assert rep.symbolic_checked and rep.symbolic_ok and rep.monomial_ok


@pytest.mark.parametrize("r", [5, 6])
def test_antisym_sampled(r):
    rep = antisym_identity_check(r, samples=20, seed=2)
    assert rep.samples_ok


def test_antisym_leading_monomial_sign():
    for r in (2, 3, 4):
        lhs, _ = _symbolic_sides(r)
        exp = tuple(range(r)) + tuple(range(r))
        assert lhs.coefficient(exp) == (-1) ** (r * (r - 1) // 2)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_antisym_random_points_r3(seed):
    rep = antisym_identity_check(3, samples=4, seed=seed)
    assert rep.samples_ok


# The right-hand side as defined, a signed sum over all r! permutations: the
# independent oracle for its determinant form.  Ring operations only, so it
# runs on MultiPoly variables as on numbers.

def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _leibniz_rhs(xs, zs, one):
    r = len(xs)
    out = one - one
    for perm in permutations(range(r)):
        term = one
        for l in range(r):
            for j in range(r):
                if j != perm[l]:
                    term = term * (xs[j] - zs[l])
        out = out + term if _perm_sign(perm) > 0 else out - term
    return out


def _random_point(rng, r):
    """A rational point drawn as antisym_identity_check draws its samples."""
    xs = [F(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(r)]
    zs = [F(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(r)]
    return xs, zs


def _cleared(xs, zs):
    """The point times the lcm D of its denominators, as ints, and D."""
    den = math.lcm(*(v.denominator for v in xs + zs))
    return [int(v * den) for v in xs], [int(v * den) for v in zs], den


def _sample_points(monkeypatch, r, seed):
    """The integer points ``antisym_identity_check(r, seed=seed)`` evaluates."""
    points = []
    sides = wallcross._antisym_sides

    def record(xs, zs, one):
        if not isinstance(one, int):
            return sides(xs, zs, one)
        points.append((list(xs), list(zs)))
        return one, one  # equal sides, so every sample is drawn

    monkeypatch.setattr(wallcross, "_antisym_sides", record)
    assert antisym_identity_check(r, seed=seed).ok
    monkeypatch.undo()
    return points


def _unreduced_points(rng, r):
    """Negative control: the draws scaled by the lcm of their raw
    denominators, not of the denominators in lowest terms."""
    draws = [(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(2 * r)]
    den = math.lcm(*(q for _, q in draws))
    ints = [p * (den // q) for p, q in draws]
    return ints[:r], ints[r:]


@pytest.mark.parametrize("r", range(1, 11))
def test_antisym_samples_are_the_fraction_route_points(monkeypatch, r):
    # the integer pairs in lowest terms give the points the Fraction draws
    # cleared by their common denominator gave, 20 per seed
    for seed in range(20):
        got = _sample_points(monkeypatch, r, seed)
        rng = random.Random(seed)
        want = [list(_cleared(*_random_point(rng, r))[:2]) for _ in range(20)]
        assert [list(p) for p in got] == want
        rng = random.Random(seed)
        assert [list(p) for p in got] != [list(_unreduced_points(rng, r)) for _ in range(20)]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_antisym_determinant_matches_leibniz_symbolic(r):
    nv = 2 * r
    x = [MultiPoly.variable(nv, i) for i in range(r)]
    z = [MultiPoly.variable(nv, r + i) for i in range(r)]
    assert _symbolic_sides(r)[1] == _leibniz_rhs(x, z, MultiPoly.constant(nv, 1))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_antisym_determinant_matches_leibniz_sampled(r):
    rng = random.Random(100 + r)
    for _ in range(4):
        xs, zs, _ = _cleared(*_random_point(rng, r))
        assert _antisym_sides(xs, zs, 1)[1] == _leibniz_rhs(xs, zs, 1)


def _grown_product_sides(xs, zs, one):
    """The sides as evaluated before the per-r plan, kept as their oracle:
    the left side one growing product of its r(r - 1) linear factors, the
    determinant by the same row expansion, its column bits read per mask."""
    r = len(xs)
    lhs = one
    for i in range(r):
        for l in range(i):
            lhs = lhs * (zs[i] - zs[l]) * (xs[l] - xs[i])
    q = [[wallcross._antisym_q_entry(xs, zs, l, j, one) for j in range(r)] for l in range(r)]
    minors = {0: one}
    for mask in range(1, 1 << r):
        row = r - bin(mask).count("1")
        det = one - one
        sign = 1
        for j in range(r):
            if mask >> j & 1:
                term = q[row][j] * minors[mask ^ (1 << j)]
                det = det + term if sign > 0 else det - term
                sign = -sign
        minors[mask] = det
    return lhs, minors[(1 << r) - 1]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_antisym_symbolic_sides_equal_the_grown_product_expansion(r):
    nv = 2 * r
    x = [MultiPoly.variable(nv, i) for i in range(r)]
    z = [MultiPoly.variable(nv, r + i) for i in range(r)]
    got = _symbolic_sides(r)
    assert got == _grown_product_sides(x, z, MultiPoly.constant(nv, 1))
    assert all(type(side) is MultiPoly for side in got)


@pytest.mark.parametrize("r", range(1, 9))
def test_antisym_integer_sides_equal_the_leibniz_sum(r):
    rng = random.Random(500 + r)
    for _ in range(2):
        xs, zs, _ = _cleared(*_random_point(rng, r))
        want = _leibniz_rhs(xs, zs, 1)
        assert _antisym_sides(xs, zs, 1) == (want, want)
        assert want != 0


@pytest.mark.parametrize("r", range(1, 11))
def test_laplace_plan_visits_every_mask_once(r):
    plan = wallcross._laplace_plan(r)
    assert [mask for mask, _, _ in plan] == list(range(1, 1 << r))
    for mask, row, terms in plan:
        cols = [j for j in range(r) if mask >> j & 1]
        assert row == r - len(cols)
        # one term per column of the mask, its sub-mask without that
        # column, the signs alternating from +1
        assert terms == tuple((j, mask - (1 << j), (-1) ** k) for k, j in enumerate(cols))
    assert wallcross._laplace_plan(r) is plan  # built once per r


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_antisym_determinant_degenerate_points(r):
    # x_1 = z_0 zeroes Q_{0,0}; z_0 = z_1 makes two rows of Q equal and
    # x_0 = x_1 two columns
    rng = random.Random(200 + r)
    xs, zs = _random_point(rng, r)
    xs[1] = zs[0]
    zero_entry = _cleared(xs, zs)[:2]
    xs, zs = _random_point(rng, r)
    rows = _cleared(xs, [zs[0], zs[0]] + zs[2:])[:2]
    xs, zs = _random_point(rng, r)
    cols = _cleared([xs[0], xs[0]] + xs[2:], zs)[:2]
    for xs, zs in (zero_entry, rows, cols):
        lhs, rhs = _antisym_sides(xs, zs, 1)
        assert rhs == _leibniz_rhs(xs, zs, 1) == lhs
    assert _antisym_sides(*rows, 1)[1] == 0 and _antisym_sides(*cols, 1)[1] == 0
    assert _antisym_sides(*zero_entry, 1)[1] != 0


@pytest.mark.parametrize("r", [8, 10])
def test_antisym_determinant_sampled_large_r(r):
    rng = random.Random(300 + r)
    for _ in range(3):
        xs, zs, _ = _cleared(*_random_point(rng, r))
        lhs, rhs = _antisym_sides(xs, zs, 1)
        assert lhs == rhs != 0


@pytest.mark.parametrize("r", [2, 3, 4, 6])
def test_antisym_perturbed_rhs_differs(r):
    # negative control: moving one z in the right-hand side alone breaks it
    rng = random.Random(400 + r)
    xs, zs, _ = _cleared(*_random_point(rng, r))
    bumped = zs[:-1] + [zs[-1] + 1]
    assert _antisym_sides(xs, bumped, 1)[1] != _antisym_sides(xs, zs, 1)[0]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_antisym_determinant_sign_control(r):
    # negative control: a determinant with the wrong overall sign must fail
    lhs, rhs = _symbolic_sides(r)
    assert rhs != MultiPoly(2 * r) - lhs


def test_antisym_check_raises_with_two_bit_exponent_fields(monkeypatch):
    # negative control of the packed keys: at 2 bits per variable the r = 3
    # expansion (degree 6) no longer fits a field, and the product raises
    # instead of carrying into the next variable's field
    monkeypatch.setattr(numkernel, "FIELD", 2)
    assert antisym_identity_check(2, samples=3).ok  # degree 2 still fits
    with pytest.raises(ValueError, match="degree bound"):
        antisym_identity_check(3)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_antisym_check_fails_with_one_wrong_factor_of_q(monkeypatch, r):
    # negative control: Q_{0,0} takes x_1 + z_0 for its factor x_1 - z_0
    def q_entry(xs, zs, l, j, one):
        out = one
        for jp, x in enumerate(xs):
            if jp != j:
                out = out * (x + zs[l] if (l, j, jp) == (0, 0, 1) else x - zs[l])
        return out

    monkeypatch.setattr(wallcross, "_antisym_q_entry", q_entry)
    rep = antisym_identity_check(r, samples=20, seed=0)
    assert not rep.ok and not rep.samples_ok
    assert rep.symbolic_checked == (r <= 4)
    if r <= 4:
        assert not rep.symbolic_ok


@pytest.mark.parametrize("r,samples,named", [(6, 0, "samples=0"), (5, -3, "samples=-3"),
                                             (0, 20, "r=0"), (-2, 20, "r=-2")])
def test_antisym_check_rejects_an_empty_check(r, samples, named):
    # r = 6 with no sample would pass with a wrong factor of Q; r < 1 has
    # no identity to check
    with pytest.raises(ValueError, match=rf"\b{named}$"):
        antisym_identity_check(r, samples=samples)


def test_antisym_cases_check_twenty_samples_per_r(monkeypatch):
    calls = []
    check = suites.antisym_identity_check

    def record(r, samples, seed):
        calls.append((r, samples, seed))
        return check(r, samples=samples, seed=seed)

    monkeypatch.setattr(suites, "antisym_identity_check", record)
    cases = [c for c in collect_cases(SuiteEnv(seed=3), "identities") if c.name.startswith("antisym-")]
    assert [case.thunk()[0] for case in cases] == ["pass"] * 6
    assert calls == [(r, 20, 3) for r in range(1, 7)]
    assert [case.params for case in cases] == [
        {"r": r, "samples": 20, "symbolic": r <= 4} for r in range(1, 7)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_antisym_samples_are_the_seeded_points_cleared_of_denominators(monkeypatch, r):
    # the sampled check evaluates the seeded rational points times the lcm D
    # of their denominators; each side is homogeneous of degree r(r-1), so
    # there it is D^{r(r-1)} times its value at the rational point
    seen = []

    def record(xs, zs, one):
        if one == 1:
            seen.append((xs, zs))
        return _antisym_sides(xs, zs, one)

    monkeypatch.setattr(wallcross, "_antisym_sides", record)
    for seed in (0, 5):
        seen.clear()
        assert antisym_identity_check(r, samples=4, seed=seed).ok
        rng = random.Random(seed)
        assert len(seen) == 4
        for xs, zs in seen:
            rational = _random_point(rng, r)
            assert _cleared(*rational)[:2] == (xs, zs)
            den = _cleared(*rational)[2]
            for at_int, at_rational in zip(_antisym_sides(xs, zs, 1),
                                           _antisym_sides(*rational, F(1))):
                assert type(at_int) is int
                assert at_int == den ** (r * (r - 1)) * at_rational


# ----------------------------------------------------------------------
# psi / pairing / U
# ----------------------------------------------------------------------

def test_psi_context_pole_rejected(cfg21):
    # choose z so that 1 + w/z = 0 for the weight w = z_2 - z_1
    w = complex(cfg21.z[1] - cfg21.z[0])
    with pytest.raises(PoleError):
        PsiContext.create(cfg21, "minus", z=-w)


def test_psi_zero_and_factorization(cfg21):
    ctx = PsiContext.create(cfg21, "minus", z=2.0 + 0j)
    nothing = psi_apply(ctx, unit_class(cfg21, "minus").scaled(0))
    assert all(v == 0 for v in nothing.values.values())
    gen = generator_e(cfg21, (0,))
    direct = psi_apply(ctx, gen)
    ch_part = LocalizedCohClass("minus", chern_character(cfg21, gen, ctx.ch_scale))
    assembled = psi_on_coh(ctx, ch_part)
    for d in direct.values:
        assert abs(direct.values[d] - assembled.values[d]) < 1e-13 * max(1.0, abs(direct.values[d]))
    inv = psi_inverse(ctx, direct)
    for d in inv.values:
        assert abs(inv.values[d] - ch_part.values[d]) < 1e-13 * max(1.0, abs(ch_part.values[d]))


def test_pairing_symmetric_and_unit(cfg21):
    a = LocalizedCohClass("minus", {(0,): 1.3 + 0.2j, (1,): 0j})
    b = LocalizedCohClass("minus", {(0,): 0.4 - 2j, (1,): 1.0 + 0j})
    assert abs(pairing(cfg21, a, b) - pairing(cfg21, b, a)) < 1e-15
    ones = LocalizedCohClass("minus", {d: 1.0 + 0j for d in fixed_point_deltas(cfg21)})
    from flopwall.flopgeom import FixedPointLabel, tangent_weights

    want = sum(
        1.0 / complex(math.prod(tangent_weights(cfg21, FixedPointLabel("minus", d))))
        for d in fixed_point_deltas(cfg21)
    )
    assert abs(pairing(cfg21, ones, ones) - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("z", [2.0 + 0j, 3.0 + 1j])
def test_integral_pairing_identity(cfg21, z):
    dim = cfg21.dim
    for side in ("plus", "minus"):
        ctx = PsiContext.create(cfg21, side, z=z)
        rot = ctx.rotated()
        if side == "minus":
            C = unit_class(cfg21, side)
            D = generator_e(cfg21, (0,))
        else:
            C = unit_class(cfg21, side)
            D = fm_generator_formula(cfg21, (0,))
        lhs = pairing(cfg21, psi_apply(rot, C), psi_apply(ctx, D))
        s = TWO_PI_I / z
        ch_c, ch_d = chern_character(cfg21, C, -s), chern_character(cfg21, D, s)
        rhs = (2.0 * math.pi) ** dim * chi_z_pairing(cfg21, ch_c, ch_d, side, z)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


@pytest.mark.parametrize("fixture", ["cfg21", "cfg32"])
@pytest.mark.parametrize("z", [2.0 + 0j, 3.0 + 1j])
def test_u_intertwines_fm(fixture, z, request):
    cfg = request.getfixturevalue(fixture)
    ctxm = PsiContext.create(cfg, "minus", z=z)
    ctxp = PsiContext.create(cfg, "plus", z=z)
    for dm in fixed_point_deltas(cfg):
        gen = generator_e(cfg, dm)
        lhs = u_apply(ctxp, ctxm, psi_apply(ctxm, gen))
        rhs = psi_apply(ctxp, fm_generator_formula(cfg, dm))
        for d in rhs.values:
            assert abs(lhs.values[d] - rhs.values[d]) <= 1e-9 * max(1.0, abs(rhs.values[d]))


def test_u_preserves_pairing(cfg21):
    z = 2.0 + 0j
    ctxm = PsiContext.create(cfg21, "minus", z=z)
    ctxp = PsiContext.create(cfg21, "plus", z=z)
    rotm, rotp = ctxm.rotated(), ctxp.rotated()
    rng = random.Random(3)
    for _ in range(10):
        coeffs = [rng.randint(-3, 3) for _ in range(2)]
        C = generator_e(cfg21, (0,)).scaled(coeffs[0]) + generator_e(cfg21, (1,)).scaled(coeffs[1])
        C = C + unit_class(cfg21, "minus")
        D = generator_e(cfg21, (0,)).scaled(rng.randint(-3, 3)) + unit_class(cfg21, "minus")
        f_rot = psi_apply(rotm, C)
        g = psi_apply(ctxm, D)
        lhs = pairing(cfg21, u_apply(rotp, rotm, f_rot), u_apply(ctxp, ctxm, g))
        rhs = pairing(cfg21, f_rot, g)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def _u_matrix_by_basis_classes(ctx_plus, ctx_minus):
    """The matrix as u_apply gives it on each basis class, one per row."""
    deltas = fixed_point_deltas(ctx_minus.config)
    rows = []
    for dm in deltas:
        basis = LocalizedCohClass("minus", {d: (1.0 + 0j if d == dm else 0j) for d in deltas})
        image = u_apply(ctx_plus, ctx_minus, basis)
        rows.append([image.values[dp] for dp in deltas])
    return rows


def test_u_matrix_nonsingular(cfg21):
    ctxm = PsiContext.create(cfg21, "minus", z=2.0 + 0j)
    ctxp = PsiContext.create(cfg21, "plus", z=2.0 + 0j)
    mat = np.array(_u_matrix_by_basis_classes(ctxp, ctxm))
    svals = np.linalg.svd(mat, compute_uv=False)
    assert svals[-1] / svals[0] > 1e-10


def test_u_requires_matching_branch(cfg21):
    ctxm = PsiContext.create(cfg21, "minus", z=2.0 + 0j)
    ctxp = PsiContext.create(cfg21, "plus", z=2.0 + 0j).rotated()
    with pytest.raises(ValueError):
        u_apply(ctxp, ctxm, LocalizedCohClass("minus", {(0,): 1.0 + 0j, (1,): 0j}))


def test_u_matrix_builds_each_gamma_class_once_per_context(cfg32, monkeypatch):
    sides = []
    gamma_class = wallcross.gamma_class

    def counted(config, side, delta, inv_z):
        sides.append(side)
        return gamma_class(config, side, delta, inv_z)

    monkeypatch.setattr(wallcross, "gamma_class", counted)
    ctxm = PsiContext.create(cfg32, "minus", z=2.0 + 0j)
    ctxp = PsiContext.create(cfg32, "plus", z=2.0 + 0j)
    rows = _u_matrix_by_basis_classes(ctxp, ctxm)
    k = len(fixed_point_deltas(cfg32))
    assert len(rows) == k
    # each u_apply reads psi's diagonal at every fixed point of both
    # contexts; the parent computed it k times over, k^2 calls per side
    assert 0 < sides.count("minus") <= k and 0 < sides.count("plus") <= k
    assert len(sides) == sides.count("minus") + sides.count("plus")
    # a new context starts with an empty memo
    assert PsiContext.create(cfg32, "minus", z=2.0 + 0j).diag == {}
    assert ctxm.rotated().diag == {}


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
@pytest.mark.parametrize("z", [2.0 + 0j, 3.0 + 1j, -2.0 + 0j])
def test_u_matrix_is_u_apply_on_the_basis_from_one_transfer_matrix(n, r, z, monkeypatch):
    # entry (dm, dp) is psi_plus(dp) * C(dm, dp) / psi_minus(dm), C at the
    # 2 pi i / z - scaled weights, and every row reads one held matrix
    kernels = _count_calls(monkeypatch, wallcross, "_coeff_kernel")
    for cfg in (default_config(n, r), random_config(n, r, seed=1)):
        ctxm = PsiContext.create(cfg, "minus", z=z)
        ctxp = PsiContext.create(cfg, "plus", z=z)
        kernels[0] = 0
        got = _u_matrix_by_basis_classes(ctxp, ctxm)
        assert kernels[0] == 1
        mat = transition_matrix(cfg, "C", ctxm.ch_scale)
        want = [[wallcross.psi_diag_factor(ctxp, dp) * (c * (1 / wallcross.psi_diag_factor(ctxm, dm)))
                 for dp, c in zip(mat.cols, row)] for dm, row in zip(mat.rows, mat.entries)]
        assert got == want


_PSI_CASES = {"integral-pairing-z2+0i", "integral-pairing-z3+1i", "symplectic-pairing", "fm-continuation"}


def _psi_case_statuses():
    env = SuiteEnv()
    return {c.name: c.thunk()[0] for suite in ("wallcross", "central-charge")
            for c in collect_cases(env, suite) if c.name in _PSI_CASES}


def test_integral_pairing_builds_each_psi_image_once_per_side(monkeypatch):
    # per side, one image of each probe (the unit class and one class per
    # fixed point) in the rotated context and one in the context itself
    calls = []
    apply = suites.psi_apply
    monkeypatch.setattr(suites, "psi_apply", lambda ctx, A: calls.append(ctx) or apply(ctx, A))
    cases = [c for c in collect_cases(SuiteEnv(), "wallcross") if c.name.startswith("integral-pairing-")]
    assert len(cases) == 2
    probes = 1 + len(fixed_point_deltas(default_config(2, 1)))
    for case in cases:
        calls.clear()
        assert case.thunk()[0] == "pass"
        assert len(calls) == 2 * 2 * probes


def test_one_psi_memo_shared_across_contexts_fails_the_integral_structure_cases(monkeypatch):
    assert _psi_case_statuses() == dict.fromkeys(_PSI_CASES, "pass")
    shared: dict = {}
    create, rotated = PsiContext.create.__func__, PsiContext.rotated

    def share(ctx):
        object.__setattr__(ctx, "diag", shared)
        return ctx

    monkeypatch.setattr(PsiContext, "create", classmethod(lambda cls, *a, **kw: share(create(cls, *a, **kw))))
    monkeypatch.setattr(PsiContext, "rotated", lambda self: share(rotated(self)))
    assert _psi_case_statuses() == dict.fromkeys(_PSI_CASES, "fail")


def test_psi_context_rejects_a_weight_beyond_the_float_range():
    cfg = FlopConfig(2, 1, (F(10) ** 308, F(0)), (-F(10) ** 308, F(1)))
    # z_0 - x_0 = -2e308 overflows complex(); it used to escape as OverflowError
    with pytest.raises(NonFiniteError, match=r"tangent weight 1 at minus \(0,\)"):
        PsiContext.create(cfg, "minus", z=2.0)


@pytest.mark.parametrize("x1, z1, error, message", [
    # minus (0,): t = 0 is z_1 - z_0 = -2, a pole at z = 2, before the overflow at t = 1
    (F(0), -F(10) ** 308 - 2, PoleError, "1 + w/z hits a Gamma pole for w = -2"),
    # t = 2 is z_0 - x_1 = -2, after the overflow at t = 1
    (-F(10) ** 308 + 2, F(1), NonFiniteError, "tangent weight 1 at minus (0,) (|w| ~ 10^308.3)"),
])
def test_psi_context_checks_the_weights_in_order(x1, z1, error, message):
    # the float view of the table fails as a whole; the error is still the
    # one of the first weight, in order, that is a pole or does not fit
    cfg = FlopConfig(2, 1, (F(10) ** 308, x1), (-F(10) ** 308, z1))
    with pytest.raises(error, match=re.escape(message)):
        PsiContext.create(cfg, "minus", z=2.0)


def test_uh_apply_reads_one_transfer_matrix_per_config_and_scale(monkeypatch):
    kernels = []
    coeff_kernel = wallcross._coeff_kernel
    monkeypatch.setattr(wallcross, "_coeff_kernel", lambda *a: kernels.append(a[1]) or coeff_kernel(*a))
    cfg = default_config(3, 2)
    s = TWO_PI_I / (3.0 + 1j)
    deltas = fixed_point_deltas(cfg)
    for scale in (1.0, s, 1.0, s):
        for dm in deltas:
            basis = LocalizedCohClass("minus", {d: (1.0 + 0j if d == dm else 0j) for d in deltas})
            uh_apply(cfg, basis, scale)
    assert kernels == [1.0, s]
    assert transition_matrix(cfg, "C", s) is transition_matrix(cfg, "C", s)
    assert transition_matrix(cfg, "CH", s) is not transition_matrix(cfg, "C", s)
    assert kernels == [1.0, s, s]
    # an equal config is another instance, with its own matrices
    twin = default_config(3, 2)
    assert twin == cfg and transition_matrix(twin, "C", s) is not transition_matrix(cfg, "C", s)
    assert transition_matrix(twin, "C", s) == transition_matrix(cfg, "C", s)


def test_fm_diagram_builds_its_transfer_matrix_once(monkeypatch):
    # the case moves one class per minus fixed point through U_H at scale 1
    kernels = []
    coeff_kernel = wallcross._coeff_kernel
    monkeypatch.setattr(wallcross, "_coeff_kernel", lambda *a: kernels.append(a[1]) or coeff_kernel(*a))
    cases = [c for c in collect_cases(SuiteEnv(), "wallcross") if c.name.startswith("fm-diagram-")]
    assert len(cases) == 4
    for case in cases:
        kernels.clear()
        assert case.thunk()[0] == "pass"
        assert kernels == [1.0]


def test_a_transfer_memo_keyed_without_the_scale_fails_the_symplectic_case(monkeypatch):
    # symplectic-pairing moves classes through U at the scales 2 pi i / z and
    # -2 pi i / z of one config: a memo that ignores the scale reuses the
    # first one's C for the second
    def status():
        return next(c.thunk()[0] for c in collect_cases(SuiteEnv(), "wallcross")
                    if c.name == "symplectic-pairing")

    assert status() == "pass"
    transfer = wallcross.transition_matrix

    def kind_only(config, kind, scale=1.0):
        memo = config.__dict__.setdefault("_unscaled_transfer", {})
        if kind not in memo:
            memo[kind] = transfer(config, kind, scale)
        return memo[kind]

    monkeypatch.setattr(wallcross, "transition_matrix", kind_only)
    assert status() == "fail"


def test_a_dropped_config_is_freed_without_the_cyclic_collector():
    # the config, its flip and the tables held on them (weights, wedges,
    # transfer matrices and generator classes) form no reference cycle, so refcounting frees them
    # when the last reference goes, not the next run of the cyclic collector
    cfg = random_config(3, 2, seed=4)
    flip = cfg.flipped()
    assert flip.flipped() is cfg
    s = TWO_PI_I / 2.0
    one = unit_class(cfg, "minus")
    euler_characteristic(cfg, chern_character(cfg, one, s), "minus", s)
    fm_transform(cfg, one, s)
    transition_matrix(cfg, "C", s)
    transition_matrix(flip, "CH")
    generator_e(cfg, (0, 2))
    fm_generator_formula(flip, (1, 2))
    assert flip.fixed_point_table and "_wedges" in cfg.__dict__
    assert "_classes" in cfg.__dict__ and "_classes" in flip.__dict__
    refs = [weakref.ref(cfg), weakref.ref(flip)]
    gc.disable()
    try:
        del cfg, flip, one
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
    # a flip that outlives its config builds an equal one on demand
    flip = default_config(3, 2).flipped()
    again = flip.flipped()
    assert again == default_config(3, 2) and again.flipped() is flip
