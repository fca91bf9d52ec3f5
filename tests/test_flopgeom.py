"""Fixed-point combinatorics, tangent weights, and relation checks."""

import math
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flopwall import flopgeom
from flopwall.cli import RunConfig, run_suite
from flopwall.flopgeom import (
    ConfigError,
    DegenerateWeightError,
    FixedPointLabel,
    FlopConfig,
    check_relations,
    fixed_point_deltas,
    random_config,
    restrict_chern_roots,
    tangent_weights,
)
from flopwall.suites import SuiteEnv, collect_cases, default_config
from flopwall.wallcross import transition_matrix

F = Fraction


def test_enumeration_examples(cfg21, cfg32):
    assert fixed_point_deltas(cfg21) == [(0,), (1,)]
    assert fixed_point_deltas(cfg32) == [(0, 1), (0, 2), (1, 2)]
    cfg52 = random_config(5, 2, seed=3)
    assert len(fixed_point_deltas(cfg52)) == 10


def test_abelian_enumeration(cfg21, cfg32):
    # the fixed points of the abelian quotient are the rows of CK: every
    # function tuple; CH keeps the injective ones
    assert transition_matrix(cfg21, "CK").rows == ((0,), (1,))
    assert transition_matrix(cfg32, "CK").rows == tuple((i, j) for i in range(3) for j in range(3))
    assert transition_matrix(cfg32, "CH").rows == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def test_label_validation():
    with pytest.raises(ValueError):
        FixedPointLabel("plus", (2, 1))
    with pytest.raises(ValueError):
        FixedPointLabel("north", (0,))


def test_chern_root_restrictions(cfg21, cfg32):
    lab = FixedPointLabel("minus", (1,))
    assert restrict_chern_roots(cfg21, lab) == [-cfg21.z[1]]
    lab = FixedPointLabel("plus", (0, 2))
    assert restrict_chern_roots(cfg32, lab) == [-cfg32.x[0], -cfg32.x[2]]
    for d in [(0, 1), (1, 2)]:
        assert len(restrict_chern_roots(cfg32, FixedPointLabel("plus", d))) == cfg32.r


def test_tangent_weights_minus_oracle(cfg21):
    # derived by expanding the tangent class at the fixed point z_1-dual
    x, z = cfg21.x, cfg21.z
    got = tangent_weights(cfg21, FixedPointLabel("minus", (0,)))
    assert sorted(got) == sorted([z[1] - z[0], z[0] - x[0], z[0] - x[1]])


def test_tangent_weights_plus_oracle(cfg21):
    # the same expansion on the plus side: Grassmannian block x_d - x_j,
    # fiber block z_j - x_d
    x, z = cfg21.x, cfg21.z
    got = tangent_weights(cfg21, FixedPointLabel("plus", (1,)))
    assert sorted(got) == sorted([x[1] - x[0], z[0] - x[1], z[1] - x[1]])


def test_tangent_weight_cardinality(cfg32):
    for side in ("plus", "minus"):
        for d in fixed_point_deltas(cfg32):
            assert len(tangent_weights(cfg32, FixedPointLabel(side, d))) == 8  # 2*2*3 - 4


def _euler(cfg, side, delta):
    """The exact Euler class e(N) read from the table's integer form."""
    weights = cfg.fixed_point_table[side, delta]
    return F(weights.euler, weights.den ** len(weights.nums))


def test_euler_class_example(cfg21):
    x, z = cfg21.x, cfg21.z
    got = _euler(cfg21, "minus", (0,))
    assert got == (z[1] - z[0]) * (z[0] - x[0]) * (z[0] - x[1])
    # exchanging the two fixed points swaps z_1 and z_2 in the result
    swapped = _euler(cfg21, "minus", (1,))
    assert swapped == (z[0] - z[1]) * (z[1] - x[0]) * (z[1] - x[1])


def test_geometry_bundle(cfg32):
    lab = FixedPointLabel("plus", (0, 1))
    tw = tangent_weights(cfg32, lab)
    assert len(tw) == cfg32.dim
    euler = F(1)
    for w in tw:
        euler *= w
    assert _euler(cfg32, "plus", (0, 1)) == euler != 0
    assert len(restrict_chern_roots(cfg32, lab)) == cfg32.r


def test_genericity_rejected():
    with pytest.raises(DegenerateWeightError):
        FlopConfig(2, 1, (F(1), F(1)), (F(2), F(3)))
    with pytest.raises(DegenerateWeightError):
        FlopConfig(2, 1, (F(1), F(2)), (F(1), F(3)))
    with pytest.raises(ConfigError):
        FlopConfig(2, 2, (F(1), F(2)), (F(3), F(4)))


def test_random_config_deterministic():
    a = random_config(3, 2, seed=11)
    b = random_config(3, 2, seed=11)
    assert a == b
    assert random_config(3, 2, seed=12) != a


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("r,n", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)])
def test_flop_involution_exchanges_sides(r, n, seed):
    cfg = random_config(n, r, seed=seed)
    for d in fixed_point_deltas(cfg):
        assert Counter(tangent_weights(cfg, FixedPointLabel("minus", d))) == Counter(
            tangent_weights(cfg.flipped(), FixedPointLabel("plus", d))), d


def _pooled_match(cfg):
    """Every fixed point's minus weights, pooled, against the flip's plus weights."""
    minus_all = []
    plus_flipped_all = []
    for d in fixed_point_deltas(cfg):
        minus_all.extend(tangent_weights(cfg, FixedPointLabel("minus", d)))
        plus_flipped_all.extend(tangent_weights(cfg.flipped(), FixedPointLabel("plus", d)))
    return sorted(minus_all) == sorted(plus_flipped_all)


@pytest.mark.parametrize("r,n", [(1, 2), (1, 3), (2, 4)])
def test_tangent_weight_case_sees_a_weight_moved_between_fixed_points(r, n):
    # one weight swapped between two minus points keeps the pooled multiset,
    # so only the per-point comparison of the case sees it
    cfg = FlopConfig(n, r, default_config(n, r).x, default_config(n, r).z)
    da, db = (0,) + tuple(range(2, r + 1)), tuple(range(1, r + 1))
    table = dict(cfg.fixed_point_table)
    a, b = table["minus", da].nums, table["minus", db].nums
    assert a[0] != b[0]
    table["minus", da] = replace(table["minus", da], nums=(b[0],) + a[1:])
    table["minus", db] = replace(table["minus", db], nums=(a[0],) + b[1:])
    cfg.__dict__["fixed_point_table"] = table

    def status(config):
        case, = [c for c in collect_cases(SuiteEnv(base_config=config), "geometry")
                 if c.name == f"tangent-weights-n{n}-r{r}"]
        return case.thunk()[0]

    assert _pooled_match(cfg)
    assert status(cfg) == "fail"
    assert status(default_config(n, r)) == "pass"


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_tangent_count_and_euler_nonzero(seed):
    cfg = random_config(3, 2, seed=seed)
    for side in ("plus", "minus"):
        for d in fixed_point_deltas(cfg):
            lab = FixedPointLabel(side, d)
            tw = tangent_weights(cfg, lab)
            assert len(tw) == cfg.dim
            assert _euler(cfg, side, d) != 0


_RELATION_GRID = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)]


@pytest.mark.parametrize("r,n", _RELATION_GRID)
def test_relations_pass(r, n):
    for seed in range(10):
        cfg = random_config(n, r, seed=seed)
        for side in ("plus", "minus"):
            report = check_relations(cfg, side)
            assert report.ok, (seed, side, report.cases)
            # the degree n - r part is allowed to be nonzero and is never flagged
            assert sorted(report.cases) == [
                (d, l) for d in fixed_point_deltas(cfg)
                for l in range(n - r + 1, n + 1)
            ]


def test_relations_telescoping_example(cfg21):
    # plus side, delta = {1}: y_1 = -x_1, so the ratio
    # (1 + x_1 t)(1 + x_2 t) / (1 + x_1 t) telescopes to 1 + x_2 t and its
    # degree-2 coefficient vanishes
    report = check_relations(cfg21, "plus")
    assert report.cases[((0,), 2)]


def _relations_fail_on_both_sides(monkeypatch, roots):
    """Every grid instance fails ``check_relations`` on both sides with
    ``roots(config, label)`` in place of ``restrict_chern_roots``."""
    monkeypatch.setattr(flopgeom, "restrict_chern_roots", roots)
    for r, n in _RELATION_GRID:
        cfg = random_config(n, r, seed=7)
        for side in ("plus", "minus"):
            assert not check_relations(cfg, side).ok, (r, n, side)


def test_relations_fail_with_a_perturbed_root(monkeypatch):
    def perturbed(config, label):
        y = restrict_chern_roots(config, label)
        y[0] += F(1, 1000)
        return y

    _relations_fail_on_both_sides(monkeypatch, perturbed)


def test_relations_fail_with_the_other_sides_roots(monkeypatch):
    def other_side(config, label):
        other = "minus" if label.side == "plus" else "plus"
        return restrict_chern_roots(config, FixedPointLabel(other, label.delta))

    _relations_fail_on_both_sides(monkeypatch, other_side)


def _fraction_relations(config, side):
    """The Fraction expansion the integer one replaced, kept as its oracle:
    ``check_relations(config, side).cases``, expanded at the Fraction
    weights and the roots ``flopgeom.restrict_chern_roots`` gives."""
    n, r = config.n, config.r
    numerator = [F(1)] + [F(0)] * n
    for w in config.x if side == "plus" else config.z:
        for k in range(n, 0, -1):
            numerator[k] += w * numerator[k - 1]
    cases = {}
    for delta in fixed_point_deltas(config):
        coeffs = list(numerator)
        for y in flopgeom.restrict_chern_roots(config, FixedPointLabel(side, delta)):
            for k in range(1, n + 1):
                coeffs[k] += y * coeffs[k - 1]
        for l in range(n - r + 1, n + 1):
            cases[(delta, l)] = coeffs[l] == 0
    return cases


def _integer_relations_match_the_fraction_oracle(seeds):
    for r, n in _RELATION_GRID:
        for seed in seeds:
            cfg = random_config(n, r, seed=seed)
            for side in ("plus", "minus"):
                assert check_relations(cfg, side).cases == _fraction_relations(cfg, side), (r, n, seed, side)


def test_integer_relations_equal_the_fraction_expansion():
    _integer_relations_match_the_fraction_oracle(range(10))


def test_integer_relations_equal_the_fraction_expansion_with_off_denominator_roots(monkeypatch):
    # roots over a denominator the weights do not share, or the other
    # side's roots: every coefficient above n - r is expanded over the lcm
    # and the per-entry verdicts, false ones included, are the oracle's
    def roots(config, label):
        y = restrict_chern_roots(config, label)
        if label.delta[0] == 0:
            y[0] += F(1, 1000)
        elif label.delta[-1] == config.n - 1:
            y[-1] = -y[-1]
        return y

    monkeypatch.setattr(flopgeom, "restrict_chern_roots", roots)
    _integer_relations_match_the_fraction_oracle(range(3))
    cfg = random_config(3, 1, seed=0)
    assert set(check_relations(cfg, "plus").cases.values()) == {True, False}


def _fraction_ops_inside(monkeypatch, code, run):
    """Fraction +, - and * calls made while a frame of ``code`` is on the
    stack during ``run()``, and the number of frames of ``code`` entered."""
    seen = {"ops": 0, "calls": 0}

    def counted(op):
        def wrapper(a, b):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code is code:
                    seen["ops"] += 1
                    break
                frame = frame.f_back
            return op(a, b)
        return wrapper

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(F, name, counted(getattr(F, name)))

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen["calls"] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        monkeypatch.undo()
    return seen["ops"], seen["calls"]


def test_relation_cases_make_no_fraction_arithmetic(monkeypatch):
    def run():
        cases = run_suite(RunConfig(), "all").cases
        relations = [c["status"] for c in cases if c["case"].startswith("relations-")]
        assert relations == ["pass"] * 2 * len(_RELATION_GRID)

    ops, calls = _fraction_ops_inside(monkeypatch, check_relations.__code__, run)
    assert (ops, calls) == (0, 2 * len(_RELATION_GRID))


def test_the_fraction_guard_sees_the_fraction_expansion(monkeypatch):
    # negative control: the relation cases on the Fraction oracle do
    # Fraction arithmetic, and the guard counts it
    from flopwall import suites

    def fraction_check(config, side):
        return flopgeom.RelationReport(side, _fraction_relations(config, side))

    def run():
        monkeypatch.setattr(suites, "check_relations", fraction_check)
        assert all(c["status"] == "pass" for c in run_suite(RunConfig(), "geometry").cases)

    ops, calls = _fraction_ops_inside(monkeypatch, _fraction_relations.__code__, run)
    assert calls == 2 * len(_RELATION_GRID) and ops > 0


def _ref_fixed_point_table(cfg):
    """The Fraction-sum table the integer-numerator builder replaced, kept
    as its oracle: each weight is the sum of its integer vector against
    (x, z), and the Euler class their running product."""
    n = cfg.n
    xz = cfg.x + cfg.z

    def vec(p, q):
        v = [0] * (2 * n)
        v[p] = 1
        v[q] -= 1
        return v

    table = {}
    for side in ("plus", "minus"):
        for delta in fixed_point_deltas(cfg):
            rest = [j for j in range(n) if j not in delta]
            if side == "minus":
                vectors = ([vec(n + j, n + d) for d in delta for j in rest]
                           + [vec(n + d, j) for d in delta for j in range(n)])
            else:
                vectors = ([vec(d, j) for d in delta for j in rest]
                           + [vec(n + j, d) for d in delta for j in range(n)])
            weights = tuple(sum(c * w for c, w in zip(v, xz) if c) for v in vectors)
            euler = F(1)
            for w in weights:
                euler *= w
            table[side, delta] = (weights, euler)
    return table


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n - 1))),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([F(1, 10), F(1), F(7, 3)]),
)
@settings(max_examples=60, deadline=None)
def test_fixed_point_table_equals_the_fraction_sum_oracle(nr, seed, scale):
    n, r = nr
    cfg = random_config(n, r, seed=seed, scale=scale)
    want = _ref_fixed_point_table(cfg)
    got = cfg.fixed_point_table
    assert got.keys() == want.keys()
    den = math.lcm(*(w.denominator for w in cfg.x + cfg.z))
    for key, (weights, euler) in want.items():
        entry = got[key]
        assert entry.den == den
        assert all(type(num) is int for num in entry.nums) and type(entry.euler) is int
        # exact: each weight and the Euler class against the Fraction sums
        assert tuple(F(num, entry.den) for num in entry.nums) == weights
        assert F(entry.euler, entry.den ** len(entry.nums)) == euler
        # the float views are complex(Fraction), bit for bit
        assert [_bits(v) for v in entry.values] == [_bits(complex(w)) for w in weights]
        assert _bits(entry.euler_value) == _bits(complex(euler))


def _bits(v: complex) -> tuple:
    return v.real.hex(), v.imag.hex()


def test_tangent_weight_cases_fail_with_a_reversed_minus_pair(monkeypatch):
    # The flipped config builds its own table: were its plus side derived
    # from the original's minus side, this reversal would carry over to it
    # and the involution check would pass on wrong weights.
    def cases():
        report = run_suite(RunConfig(), "geometry")
        return {c["case"]: c["status"] for c in report.cases if c["case"].startswith("tangent-weights-")}

    assert set(cases().values()) == {"pass"}
    pairs = flopgeom.tangent_weight_pairs

    def reversed_first_minus_pair(config, side, delta):
        # one pair at one fixed point: reversing the first pair at every
        # minus point swaps z_j - z_d and z_d - z_j at n = 2 and keeps the
        # multiset the check compares
        out = pairs(config, side, delta)
        if side == "minus" and delta == tuple(range(config.r)):
            p, q = out[0]
            out[0] = (q, p)
        return out

    monkeypatch.setattr(flopgeom, "tangent_weight_pairs", reversed_first_minus_pair)
    got = cases()
    assert len(got) == len(_RELATION_GRID)
    assert set(got.values()) == {"fail"}
