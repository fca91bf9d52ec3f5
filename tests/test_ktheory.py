"""Virtual characters, the Fourier-Mukai transfer, and Euler pairings."""

import cmath
import math
import random

import pytest

from flopwall.flopgeom import (
    FixedPointLabel,
    enumerate_fixed_points,
    fixed_point_deltas,
    random_config,
    tangent_weight_vectors,
    weight_value,
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
    tilde_tangent_weight_vectors,
    unit_class,
    _wedge_dual_value,
)
from flopwall.numkernel import TWO_PI_I


def test_binomial_product_small_cases():
    one = VirtualCharacter.unit(4)
    w1 = (1, 0, 0, -1)
    w2 = (0, 1, -1, 0)
    assert binomial_product(4, ()) == one
    assert binomial_product(4, [w1]) == one - VirtualCharacter.line(w1)
    want = (
        one
        - VirtualCharacter.line(w1)
        - VirtualCharacter.line(w2)
        + VirtualCharacter.line(tuple(a + b for a, b in zip(w1, w2)))
    )
    assert binomial_product(4, [w1, w2]) == want
    # a repeated vector is a repeated factor: (1 - e^w)^2
    twice = one - 2 * VirtualCharacter.line(w1) + VirtualCharacter.line(tuple(2 * a for a in w1))
    assert binomial_product(4, [w1, w1]) == twice


def test_generator_restrictions_exact(cfg21):
    gen = generator_e(cfg21, (0,))
    # at its own point: 1 - e^{z_1 - z_2}
    want = VirtualCharacter.unit(4) - VirtualCharacter.line((0, 0, 1, -1))
    assert gen.restrictions[(0,)] == want
    # vanishes exactly at the other fixed point
    assert gen.restrictions[(1,)].is_zero()


def test_generator_vanishing_everywhere_else(cfg32):
    for lab in enumerate_fixed_points(cfg32, "minus"):
        gen = generator_e(cfg32, lab.delta)
        for d0, chi in gen.restrictions.items():
            if d0 == lab.delta:
                assert not chi.is_zero()
            else:
                assert chi.is_zero()


def _tilde_tangent_weights(cfg, dm, dp):
    return [weight_value(cfg, vec) for vec in tilde_tangent_weight_vectors(cfg, dm, dp)]


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
        want = VirtualCharacter.unit(4) - VirtualCharacter.line(
            tuple((1 if i == l else 0) for i in range(2)) + (0, -1)
        )
        assert closed.restrictions[(l,)] == want


def test_fm_exact_equals_closed(cfg21, cfg31, cfg32, cfg42):
    for cfg in (cfg21, cfg31, cfg32, cfg42):
        for lab in enumerate_fixed_points(cfg, "minus"):
            exact = fm_transform_generator_exact(cfg, lab.delta)
            closed = fm_generator_formula(cfg, lab.delta)
            assert exact.restrictions == closed.restrictions


def test_fm_localization_matches_closed_numerically(cfg32):
    # the closed product formula is the oracle for the kernel localization sum
    worst = 0.0
    for lab in enumerate_fixed_points(cfg32, "minus"):
        got = fm_transform(cfg32, generator_e(cfg32, lab.delta))
        want = chern_character(cfg32, fm_generator_formula(cfg32, lab.delta))
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
        chi_m = euler_characteristic(cfg, A)
        chi_p = euler_characteristic(cfg, fm_transform(cfg, A), side="plus")
        assert abs(chi_m - chi_p) <= 1e-10 * max(1.0, abs(chi_m))


def test_euler_characteristic_linear(cfg21):
    a = generator_e(cfg21, (0,))
    b = unit_class(cfg21, "minus")
    total = euler_characteristic(cfg21, a + b)
    assert abs(total - euler_characteristic(cfg21, a) - euler_characteristic(cfg21, b)) < 1e-12


def test_chi_z_at_2pi_i_reduces_to_plain_chi(cfg21):
    C = unit_class(cfg21, "minus")
    D = generator_e(cfg21, (0,))
    got = chi_z_pairing(cfg21, C, D, TWO_PI_I)
    prod = LocalizedKClass(
        "minus", {d: C.restrictions[d].dual() * D.restrictions[d] for d in C.restrictions}
    )
    want = euler_characteristic(cfg21, prod)
    assert abs(got - want) < 1e-12


def test_chi_z_unit_pairing_unwound(cfg21):
    z = 2.0 + 0j
    one = unit_class(cfg21, "minus")
    got = chi_z_pairing(cfg21, one, one, z)
    xs, zs = cfg21.complex_weights()
    want = 0j
    for d in fixed_point_deltas(cfg21):
        vecs = tangent_weight_vectors(cfg21, FixedPointLabel("minus", d))
        want += 1.0 / _wedge_dual_value(xs, zs, vecs, TWO_PI_I / z)
    assert abs(got - want) < 1e-13


@pytest.mark.parametrize("z", [2.0 + 0j, 3.0 + 1j])
def test_chi_z_fm_invariance(cfg21, z):
    rng = random.Random(9)
    s = TWO_PI_I / z
    for _ in range(4):
        C = _random_combo(cfg21, rng)
        D = _random_combo(cfg21, rng)
        lhs = chi_z_pairing(cfg21, C, D, z)
        fc = fm_transform(cfg21, chern_character(cfg21, C, -s), -s)
        fd = fm_transform(cfg21, D, s)
        xs, zs = cfg21.complex_weights()
        rhs = 0j
        for dp in fc:
            vecs = tangent_weight_vectors(cfg21, FixedPointLabel("plus", dp))
            rhs += fc[dp] * fd[dp] / _wedge_dual_value(xs, zs, vecs, s)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_factored_and_expanded_chern_agree(cfg32):
    gen = generator_e(cfg32, (0, 1))
    assert gen.factor_vectors is not None
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
    for lab in enumerate_fixed_points(cfg, "minus"):
        want = chern_character(cfg, fm_generator_formula(cfg, lab.delta))
        got = fm_transform(cfg, generator_e(cfg, lab.delta))
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
