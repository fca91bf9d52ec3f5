"""Virtual characters, the Fourier-Mukai transfer, and Euler pairings."""

import cmath
import math
import random
from collections import Counter
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flopwall.cli import RunConfig, run_suite
from flopwall.flopgeom import (
    SIDES,
    fixed_point_deltas,
    random_config,
    tangent_weight_pairs,
)
from flopwall.ktheory import (
    LocalizedKClass,
    VirtualCharacter,
    binomial_product,
    chern_character,
    chi_z_pairing,
    euler_characteristic,
    fm_generator_formula,
    fm_transform,
    fm_transform_generator_exact,
    generator_e,
    tilde_tangent_weight_pairs,
    unit_class,
    _wedge_dual_value,
)
from flopwall import ktheory
from flopwall.numkernel import TWO_PI_I
from flopwall.suites import SuiteEnv, collect_cases


def _char(terms):
    return VirtualCharacter(4, terms)


# The 2n-vector form of a weight that the index pairs replaced, kept as the
# oracle of the pair form: e_p - e_q in Z^{2n}, its value summed over
# x_0, z_0, x_1, z_1, ... in turn, and the common resolution's weights.

def _weight_vector(p, q, n):
    v = [0] * (2 * n)
    v[p] = 1
    v[q] -= 1
    return tuple(v)


def _weight_complex(xs, zs, vec):
    n = len(xs)
    total = 0j
    for i in range(n):
        if vec[i]:
            total += vec[i] * xs[i]
        if vec[n + i]:
            total += vec[n + i] * zs[i]
    return total


def _tilde_tangent_weight_vectors(cfg, dm, dp):
    n = cfg.n
    out = []
    for d in dm:
        for j in range(n):
            if j not in dm:
                out.append(_weight_vector(n + j, n + d, n))
    for d in dm:
        for e in dp:
            out.append(_weight_vector(n + d, e, n))
    for e in dp:
        for k in range(n):
            if k not in dp:
                out.append(_weight_vector(e, k, n))
    return out


def _vectors(pairs, n):
    return [_weight_vector(p, q, n) for p, q in pairs]


def _binomial_of_vectors(nvars, vectors):
    """The terms of prod (1 - e^w) over weight vectors, one pass per factor."""
    terms = {(0,) * nvars: 1}
    for vec in vectors:
        out = {}
        for v, c in terms.items():
            out[v] = out.get(v, 0) + c
            vw = tuple(map(add, v, vec))
            out[vw] = out.get(vw, 0) - c
        terms = {v: c for v, c in out.items() if c}
    return list(terms.items())


def _wedge_of_vectors(xs, zs, vectors, scale):
    total = 1.0 + 0j
    for vec in vectors:
        total *= 1.0 - cmath.exp(-scale * _weight_complex(xs, zs, vec))
    return total


def _fm_exact_vectors(cfg, dm):
    """The multiset cancellation of ``fm_transform_generator_exact`` on
    weight vectors: dp -> the sorted vectors of the closed product."""
    n = cfg.n
    rest = [j for j in range(n) if j not in dm]
    generator = [_weight_vector(n + i, n + j, n) for i in dm for j in rest]
    out = {}
    for dp in fixed_point_deltas(cfg):
        num = Counter(generator)
        den = Counter()
        for vec in _vectors(tangent_weight_pairs(cfg, "plus", dp), n):
            num[tuple(-a for a in vec)] += 1
        for vec in _tilde_tangent_weight_vectors(cfg, dm, dp):
            den[tuple(-a for a in vec)] += 1
        num.subtract(den)
        assert all(c >= 0 for c in num.values())
        out[dp] = sorted(num.elements())
    return out


def test_binomial_product_small_cases():
    # n = 2: indices 0, 1 are x_0, x_1 and 2, 3 are z_0, z_1
    a, b = (0, 3), (1, 2)  # x_0 - z_1 and x_1 - z_0
    w1, w2 = (1, 0, 0, -1), (0, 1, -1, 0)
    w12 = tuple(u + v for u, v in zip(w1, w2))
    zero = (0, 0, 0, 0)
    assert binomial_product(2, ()) == _char({zero: 1})
    assert binomial_product(2, [a]) == _char({zero: 1, w1: -1})
    assert binomial_product(2, [a, b]) == _char({zero: 1, w1: -1, w2: -1, w12: 1})
    # a repeated pair is a repeated factor: (1 - e^w)^2
    assert binomial_product(2, [a, a]) == _char({zero: 1, w1: -2, tuple(2 * u for u in w1): 1})
    # a pair (p, p) is the factor 1 - e^0 = 0
    assert binomial_product(2, [a, (2, 2), b]).is_zero()


@pytest.mark.parametrize("terms", [
    {(0, 0): Fraction(1, 2)},  # was the zero character
    {(0, 0): 1.5},  # was multiplicity 1
    {(0.5, 0): 1},  # was the weight (0, 0)
    {(0, 0): math.inf},  # was an OverflowError
])
def test_virtual_character_rejects_a_non_integral_entry(terms):
    with pytest.raises(ValueError, match="not an exact integer"):
        VirtualCharacter(2, terms)


def test_virtual_character_takes_integral_entries_of_any_type():
    want = VirtualCharacter(2, {(1, -1): 2})
    assert VirtualCharacter(2, {(Fraction(2, 2), -1.0): Fraction(4, 2)}) == want
    assert list(VirtualCharacter(2, {(1.0, -1): 2.0}).terms.items()) == [((1, -1), 2)]


def test_virtual_character_arithmetic_rejects_another_length():
    two, three = VirtualCharacter(2, {(0, 0): 1}), VirtualCharacter(3, {(0, 0, 0): 1})
    for op in (lambda: two + three, lambda: three + two):
        with pytest.raises(ValueError, match="weight vector length mismatch"):
            op()


@pytest.mark.parametrize("vectors", [
    [(0, 3), (0, 4)],  # an index past 2n - 1
    [(0, 3), (-1, 2)],  # a negative index, which would wrap round to z_1
    [(1, 1), (4, 0)],  # after a zero factor, still checked
])
def test_binomial_product_rejects_a_bad_vector(vectors):
    # each factor is an index pair, and each index names one of the 2n weights
    with pytest.raises(ValueError, match=r"outside 0\.\.3"):
        binomial_product(2, vectors)


# The arithmetic builds its results without re-validating its canonical
# terms.  These references take the same steps through the validating
# constructor; the terms must come out equal and in the same order, which
# is the order ``evaluate`` sums them in.

def _add_reference(a, b):
    terms = dict(a.terms)
    for v, c in b.terms.items():
        terms[v] = terms.get(v, 0) + c
    return VirtualCharacter(a.nvars, terms)


def _mul_reference(a, b):
    if isinstance(b, int):
        return VirtualCharacter(a.nvars, {v: b * c for v, c in a.terms.items()})
    terms = {}
    for v1, c1 in a.terms.items():
        for v2, c2 in b.terms.items():
            v = tuple(x + y for x, y in zip(v1, v2))
            terms[v] = terms.get(v, 0) + c1 * c2
    return VirtualCharacter(a.nvars, terms)


def _binomial_reference(nvars, vectors):
    """The repeated character product (1 - e^{w_1}) (1 - e^{w_2}) ..."""
    one = VirtualCharacter(nvars, {(0,) * nvars: 1})
    out = one
    for vec in vectors:
        out = _mul_reference(out, _add_reference(one, VirtualCharacter(nvars, {vec: -1})))
    return out


def _items(chi):
    return chi.nvars, list(chi.terms.items())


_keys = st.tuples(*[st.integers(-1, 1)] * 4)
_characters = st.dictionaries(_keys, st.integers(-3, 3), max_size=6).map(
    lambda terms: VirtualCharacter(4, terms))


@settings(max_examples=60, deadline=None)
@given(a=_characters, b=_characters, k=st.integers(-2, 2))
def test_virtual_character_arithmetic_equals_the_validated_reference(a, b, k):
    assert _items(a + b) == _items(_add_reference(a, b))
    assert _items(a * k) == _items(k * a) == _items(_mul_reference(a, k))


# draws from a pool of three pairs, so factors repeat; a pair (p, p) and
# both orders of a pair are in the pool's range
_factor_lists = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                         max_size=3).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=6))


@settings(max_examples=150, deadline=None)
@given(pairs=_factor_lists, zero_at=st.none() | st.integers(0, 6))
def test_binomial_product_equals_the_repeated_product(pairs, zero_at):
    if zero_at is not None:
        pairs = pairs[:zero_at] + [(1, 1)] + pairs[zero_at:]
    got = binomial_product(2, pairs)
    want = _binomial_reference(4, _vectors(pairs, 2))
    assert got == want
    assert _items(got) == _items(want)


def test_binomial_product_keeps_the_order_of_the_repeated_product():
    # with a = x_0 - x_1, b = x_1 - z_0 and c = a + b = x_0 - z_0, the
    # factor 1 - e^c cancels the e^c term of (1 - e^a)(1 - e^b), and a
    # second 1 - e^b makes it again from e^a; a pass that kept the dead key
    # would sum e^c before e^{2b} instead of right after e^a
    a, b, c = (0, 1), (1, 2), (0, 2)
    pairs = [a, b, c, b]
    got = _items(binomial_product(2, pairs))
    assert got == _items(_binomial_reference(4, _vectors(pairs, 2)))
    keys = [v for v, _ in got[1]]
    assert keys.index(_weight_vector(*c, 2)) == keys.index(_weight_vector(*a, 2)) + 1
    assert keys.index(_weight_vector(*c, 2)) > keys.index((0, 2, -2, 0))  # e^{2b}


def test_generator_restrictions_exact(cfg21):
    gen = generator_e(cfg21, (0,))
    # at its own point: 1 - e^{z_1 - z_2}
    want = VirtualCharacter(4, {(0, 0, 0, 0): 1, (0, 0, 1, -1): -1})
    assert gen.restrictions[(0,)] == want
    # vanishes exactly at the other fixed point
    assert gen.restrictions[(1,)].is_zero()


def test_generator_vanishing_everywhere_else(cfg32):
    for dm in fixed_point_deltas(cfg32):
        gen = generator_e(cfg32, dm)
        for d0, chi in gen.restrictions.items():
            if d0 == dm:
                assert not chi.is_zero()
            else:
                assert chi.is_zero()


def _tilde_tangent_weights(cfg, dm, dp):
    xz = cfg.x + cfg.z
    return [xz[p] - xz[q] for p, q in tilde_tangent_weight_pairs(cfg, dm, dp)]


def test_tilde_tangent_weights(cfg21, cfg32):
    x, z = cfg21.x, cfg21.z
    got = _tilde_tangent_weights(cfg21, (0,), (1,))
    assert sorted(got) == sorted([z[1] - z[0], z[0] - x[1], x[1] - x[0]])
    for dm in fixed_point_deltas(cfg32):
        for dp in fixed_point_deltas(cfg32):
            tw = _tilde_tangent_weights(cfg32, dm, dp)
            assert len(tw) == cfg32.dim
            assert all(w != 0 for w in tw)


def test_fm_closed_formula_r1(cfg21):
    x, z = cfg21.x, cfg21.z
    closed = fm_generator_formula(cfg21, (0,))
    for l in range(2):
        line = tuple((1 if i == l else 0) for i in range(2)) + (0, -1)
        want = VirtualCharacter(4, {(0, 0, 0, 0): 1, line: -1})
        assert closed.restrictions[(l,)] == want


def test_fm_exact_equals_closed(cfg21, cfg31, cfg32, cfg42):
    for cfg in (cfg21, cfg31, cfg32, cfg42):
        for dm in fixed_point_deltas(cfg):
            exact = fm_transform_generator_exact(cfg, dm)
            closed = fm_generator_formula(cfg, dm)
            assert exact.restrictions == closed.restrictions


def test_fm_localization_matches_closed_numerically(cfg32):
    # the closed product formula is the oracle for the kernel localization sum
    worst = 0.0
    for dm in fixed_point_deltas(cfg32):
        got = fm_transform(cfg32, generator_e(cfg32, dm))
        want = chern_character(cfg32, fm_generator_formula(cfg32, dm))
        for dp in got:
            worst = max(worst, abs(got[dp] - want[dp]) / max(1.0, abs(want[dp])))
    assert worst < 1e-12


def test_fm_zero_and_linearity(cfg21):
    zero = fm_transform(cfg21, unit_class(cfg21, "minus").scaled(0))
    assert all(abs(v) == 0 for v in zero.values())
    a = generator_e(cfg21, (0,))
    b = generator_e(cfg21, (1,))
    lin = fm_transform(cfg21, a + b.scaled(3))
    fa = fm_transform(cfg21, a)
    fb = fm_transform(cfg21, b)
    for dp in lin:
        assert abs(lin[dp] - fa[dp] - 3 * fb[dp]) < 1e-13


def test_chern_character_basics(cfg21):
    ones = chern_character(cfg21, unit_class(cfg21, "plus"))
    assert all(abs(v - 1.0) < 1e-15 for v in ones.values())
    gen = generator_e(cfg21, (0,))
    xs, zs = cfg21.complex_weights()
    got = chern_character(cfg21, gen)[(0,)]
    want = 1.0 - cmath.exp(zs[0] - zs[1])
    assert abs(got - want) < 1e-15
    # scale 0 collapses each character to its rank
    ranks = chern_character(cfg21, gen, scale=0.0)
    assert abs(ranks[(0,)] - gen.restrictions[(0,)].rank()) < 1e-15


def _random_combo(cfg, rng):
    out = None
    for dm in fixed_point_deltas(cfg):
        term = generator_e(cfg, dm).scaled(rng.randint(-3, 3))
        out = term if out is None else out + term
    return out + unit_class(cfg, "minus")


@pytest.mark.parametrize("fixture", ["cfg21", "cfg31", "cfg32"])
def test_euler_characteristic_fm_invariance(fixture, request):
    cfg = request.getfixturevalue(fixture)
    rng = random.Random(4)
    for _ in range(4):
        A = _random_combo(cfg, rng)
        chi_m = euler_characteristic(cfg, chern_character(cfg, A), "minus")
        chi_p = euler_characteristic(cfg, fm_transform(cfg, A), "plus")
        assert abs(chi_m - chi_p) <= 1e-10 * max(1.0, abs(chi_m))


def test_euler_characteristic_linear(cfg21):
    a = generator_e(cfg21, (0,))
    b = unit_class(cfg21, "minus")
    def chi(A):
        return euler_characteristic(cfg21, chern_character(cfg21, A), "minus")

    assert abs(chi(a + b) - chi(a) - chi(b)) < 1e-12


def test_chi_z_at_2pi_i_reduces_to_plain_chi(cfg21):
    C = unit_class(cfg21, "minus")
    D = generator_e(cfg21, (0,))
    got = chi_z_pairing(cfg21, chern_character(cfg21, C, -1.0), chern_character(cfg21, D, 1.0), "minus", TWO_PI_I)
    def dual(char):
        return VirtualCharacter(char.nvars, {tuple(-a for a in v): c for v, c in char.terms.items()})

    prod = LocalizedKClass(
        "minus", {d: _mul_reference(dual(C.restrictions[d]), D.restrictions[d])
                  for d in C.restrictions}
    )
    want = euler_characteristic(cfg21, chern_character(cfg21, prod), "minus")
    assert abs(got - want) < 1e-12


def test_chi_z_unit_pairing_unwound(cfg21):
    z = 2.0 + 0j
    one = unit_class(cfg21, "minus")
    s = TWO_PI_I / z
    got = chi_z_pairing(cfg21, chern_character(cfg21, one, -s), chern_character(cfg21, one, s), "minus", z)
    xs, zs = cfg21.complex_weights()
    want = 0j
    for d in fixed_point_deltas(cfg21):
        pairs = tangent_weight_pairs(cfg21, "minus", d)
        want += 1.0 / _wedge_dual_value(xs + zs, pairs, TWO_PI_I / z)
    assert abs(got - want) < 1e-13


@pytest.mark.parametrize("z", [2.0 + 0j, 3.0 + 1j])
def test_chi_z_fm_invariance(cfg21, z):
    rng = random.Random(9)
    s = TWO_PI_I / z
    for _ in range(4):
        C = _random_combo(cfg21, rng)
        D = _random_combo(cfg21, rng)
        lhs = chi_z_pairing(cfg21, chern_character(cfg21, C, -s), chern_character(cfg21, D, s), "minus", z)
        fc = fm_transform(cfg21, C, -s)
        fd = fm_transform(cfg21, D, s)
        xs, zs = cfg21.complex_weights()
        rhs = 0j
        for dp in fc:
            pairs = tangent_weight_pairs(cfg21, "plus", dp)
            rhs += fc[dp] * fd[dp] / _wedge_dual_value(xs + zs, pairs, s)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_factored_and_expanded_chern_agree(cfg32):
    gen = generator_e(cfg32, (0, 1))
    assert gen.factor_pairs is not None
    stripped = LocalizedKClass(gen.side, gen.restrictions)  # expansion path
    xs, zs = cfg32.complex_weights()
    a = chern_character(cfg32, gen)
    b = chern_character(cfg32, stripped)
    for d in a:
        assert abs(a[d] - b[d]) < 1e-13 * max(1.0, abs(a[d]))


def test_chern_conditioning_on_near_cancelling_products():
    # random rational draws can make prod (1 - e^{x-z}) tiny; the factored
    # evaluation must keep full relative accuracy there (the expanded
    # exponential sum loses ~7 digits on this instance)
    cfg = random_config(4, 2, seed=41)
    worst = 0.0
    for dm in fixed_point_deltas(cfg):
        want = chern_character(cfg, fm_generator_formula(cfg, dm))
        got = fm_transform(cfg, generator_e(cfg, dm))
        for dp in want:
            worst = max(worst, abs(got[dp] - want[dp]) / abs(want[dp]))
    assert worst < 1e-10


def test_fm_restriction_matrix_nonsingular(cfg32):
    import numpy as np

    deltas = fixed_point_deltas(cfg32)
    mat = np.array(
        [[chern_character(cfg32, fm_generator_formula(cfg32, dm))[dp] for dp in deltas]
         for dm in deltas]
    )
    svals = np.linalg.svd(mat, compute_uv=False)
    assert svals[-1] / svals[0] > 1e-10


def _ref_fm_transform(cfg, vec, scale):
    """``fm_transform`` on numeric restriction values as the per-call
    formula: every wedge rebuilt from its weight pairs."""
    xs, zs = cfg.complex_weights()
    deltas = fixed_point_deltas(cfg)
    out = {}
    for dp in deltas:
        plus_wedge = _wedge_dual_value(
            xs + zs, tangent_weight_pairs(cfg, "plus", dp), scale)
        total = 0j
        for dm in deltas:
            tilde = _wedge_dual_value(xs + zs, tilde_tangent_weight_pairs(cfg, dm, dp), scale)
            total += vec[dm] * plus_wedge / tilde
        out[dp] = total
    return out


def _ref_euler_characteristic(cfg, vec, side, scale):
    xs, zs = cfg.complex_weights()
    total = 0j
    for d, val in vec.items():
        total += val / _wedge_dual_value(
            xs + zs, tangent_weight_pairs(cfg, side, d), scale)
    return total


@pytest.mark.parametrize("z", [2.0 + 0j, 3.0 + 1j])
def test_wedges_held_per_scale_equal_the_per_call_formula(cfg32, z):
    s = TWO_PI_I / z
    A = generator_e(cfg32, (0, 2)).scaled(2) + unit_class(cfg32, "minus")
    # interleaved, so that each scale meets the tables the others filled
    for scale in (1.0, s, -s, 1.0, -s, s, s, 1.0):
        ch = chern_character(cfg32, A, scale)
        image = fm_transform(cfg32, A, scale)
        assert image == _ref_fm_transform(cfg32, ch, scale)
        assert euler_characteristic(cfg32, ch, "minus", scale) == _ref_euler_characteristic(
            cfg32, ch, "minus", scale)
        assert euler_characteristic(cfg32, image, "plus", scale) == _ref_euler_characteristic(
            cfg32, image, "plus", scale)


def test_second_fm_transform_reads_its_denominators_from_the_instance(cfg32, monkeypatch):
    calls = []
    wedge = ktheory._wedge_dual_value
    monkeypatch.setattr(ktheory, "_wedge_dual_value", lambda *a: calls.append(a) or wedge(*a))
    s = TWO_PI_I / 2.0
    A = generator_e(cfg32, (0, 1))
    k = len(fixed_point_deltas(cfg32))
    first = fm_transform(cfg32, A, s)
    # A's factored Chern values, then wedge(N_dp) and wedge(N_(dm,dp))
    assert len(calls) == k + k + k * k
    calls.clear()
    assert fm_transform(cfg32, A, s) == first
    assert len(calls) == k  # A's Chern values only
    calls.clear()
    fm_transform(cfg32, A, -s)  # another scale builds its own
    assert len(calls) == k + k + k * k


_WEDGE_CASES = {"chi-invariance-n2-r1", "chi-invariance-n3-r2",
                "integral-pairing-z2+0i", "integral-pairing-z3+1i"}


def _wedge_case_statuses():
    env = SuiteEnv()
    return {c.name: c.thunk()[0] for suite in ("ktheory", "wallcross")
            for c in collect_cases(env, suite) if c.name in _WEDGE_CASES}


def test_a_wedge_memo_keyed_without_the_scale_fails_the_pairing_cases(monkeypatch):
    assert _wedge_case_statuses() == dict.fromkeys(_WEDGE_CASES, "pass")
    wedges = ktheory._wedges

    def first_scale_only(config, scale):
        memo = config.__dict__.setdefault("_unscaled_wedges", {})
        if not memo:
            memo[None] = wedges(config, scale)
        return memo[None]

    monkeypatch.setattr(ktheory, "_wedges", first_scale_only)
    assert _wedge_case_statuses() == dict.fromkeys(_WEDGE_CASES, "fail")


def test_chi_invariance_n3_r2_passes_on_seeded_instances():
    # at several seeds the third draw's A and B have disjoint support, so
    # chi_z(A, B) is exactly 0 while the plus-side sum cancels terms up to
    # ~1e15; the case normalizes by the localization sums' triangle bounds
    failed = {}
    for seed in range(20):
        env = SuiteEnv(seed=0, base_config=random_config(3, 2, seed))
        case = next(c for c in collect_cases(env, "ktheory") if c.name == "chi-invariance-n3-r2")
        status, err = case.thunk()
        if status != "pass":
            failed[seed] = err
    assert failed == {}


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n - 1))),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([2.0 + 0j, 3.0 + 1j]),
)
def test_pair_form_equals_the_vector_form(nr, seed, z):
    # every wedge, factored Chern value and character of the pair form is
    # == to the one the 2n-vector form gave, at the scales 1 and +-2 pi i / z
    n, r = nr
    cfg = random_config(n, r, seed=seed)
    xs, zs = cfg.complex_weights()
    deltas = fixed_point_deltas(cfg)
    classes = [unit_class(cfg, "minus"), unit_class(cfg, "plus")]
    for dm in deltas:
        exact = fm_transform_generator_exact(cfg, dm)
        for dp, vectors in _fm_exact_vectors(cfg, dm).items():
            assert sorted(_vectors(exact.factor_pairs[dp], n)) == vectors
        classes += [generator_e(cfg, dm), fm_generator_formula(cfg, dm), exact]
    for A in classes:
        for d, chi in A.restrictions.items():
            assert list(chi.terms.items()) == _binomial_of_vectors(2 * n, _vectors(A.factor_pairs[d], n))
    for scale in (1.0, TWO_PI_I / z, -TWO_PI_I / z):
        wedges = ktheory._wedges(cfg, scale)
        for side in SIDES:
            for d in deltas:
                pairs = tangent_weight_pairs(cfg, side, d)
                assert wedges[side, d] == _wedge_of_vectors(xs, zs, _vectors(pairs, n), scale)
        for dm in deltas:
            for dp in deltas:
                want = _wedge_of_vectors(xs, zs, _tilde_tangent_weight_vectors(cfg, dm, dp), scale)
                assert wedges[dm, dp] == want
        for A in classes:
            assert chern_character(cfg, A, scale) == {
                d: _wedge_of_vectors(xs, zs, _vectors(A.factor_pairs[d], n), -scale)
                for d in A.restrictions}


@pytest.mark.parametrize("build", [generator_e, fm_generator_formula])
def test_a_repeated_generator_call_returns_the_held_class(cfg32, build):
    A = build(cfg32, (0, 2))
    assert build(cfg32, [0, 2]) is A
    assert build(cfg32, (1, 2)) is not A
    # another instance of the same weights holds its own, equal class
    twin = type(cfg32)(cfg32.n, cfg32.r, cfg32.x, cfg32.z)
    assert build(twin, (0, 2)) is not A and build(twin, (0, 2)) == A
    # sums and multiples are new classes, so the held one stays as built
    unit = unit_class(cfg32, A.side)
    before = dict(A.restrictions)
    assert (A + unit) is not A and A.scaled(3) is not A
    assert A.restrictions == before and build(cfg32, (0, 2)) is A


def test_one_verify_run_builds_each_generator_class_once(monkeypatch):
    # verify-all asks for generator_e 140 times and for fm_generator_formula
    # 48 times, on 14 distinct (config, delta) each; every class is built
    # once, on its first use
    calls = {}
    for name in ("_generator_e", "_fm_generator_formula"):
        build, seen = getattr(ktheory, name), calls.setdefault(name, [])

        def counted(config, delta_minus, build=build, seen=seen):
            seen.append((config, delta_minus))  # holds the config, so its id stays its own
            return build(config, delta_minus)

        monkeypatch.setattr(ktheory, name, counted)
    report = run_suite(RunConfig(), "all")
    assert {c["status"] for c in report.cases} == {"pass"}
    for name, seen in calls.items():
        assert len(seen) == len({(id(c), d) for c, d in seen}) == 14, name


def _ktheory_statuses():
    return {c["case"]: c["status"] for c in run_suite(RunConfig(), "ktheory").cases}


def test_one_reversed_tilde_pair_fails_every_fm_formula_case(monkeypatch):
    def fm_formula(statuses):
        return {k: v for k, v in statuses.items() if k.startswith("fm-formula-")}

    assert set(fm_formula(_ktheory_statuses()).values()) == {"pass"}
    pairs = ktheory.tilde_tangent_weight_pairs

    def reversed_first_pair(config, dm, dp):
        # one pair at one (dm, dp): z_j - z_d becomes z_d - z_j
        out = pairs(config, dm, dp)
        if dm == dp == tuple(range(config.r)):
            p, q = out[0]
            out[0] = (q, p)
        return out

    monkeypatch.setattr(ktheory, "tilde_tangent_weight_pairs", reversed_first_pair)
    got = fm_formula(_ktheory_statuses())
    assert len(got) == 4 and "pass" not in got.values(), got


def test_one_reversed_generator_pair_fails_its_cases(monkeypatch):
    def by_grid(statuses):
        grid = {}
        for case, status in statuses.items():
            for prefix in ("fm-formula-", "generator-vanishing-"):
                if case.startswith(prefix):
                    grid.setdefault(case[len(prefix):], []).append(status)
        return grid

    before = by_grid(_ktheory_statuses())
    assert len(before) == 4 and all(s == ["pass", "pass"] for s in before.values())
    pairs = ktheory._generator_pairs

    def reversed_first_pair(n, delta0, delta_minus):
        # one pair of the generator at its own fixed point: z_i - z_j
        # becomes z_j - z_i; elsewhere its zero factor keeps it zero
        out = pairs(n, delta0, delta_minus)
        if tuple(delta0) == tuple(delta_minus):
            (p, q), *rest = out
            out = ((q, p), *rest)
        return out

    monkeypatch.setattr(ktheory, "_generator_pairs", reversed_first_pair)
    after = by_grid(_ktheory_statuses())
    assert after.keys() == before.keys()
    assert all(s != ["pass", "pass"] for s in after.values()), after
