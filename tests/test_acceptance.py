"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every criterion here is also runnable through the CLI:
    flopwall verify --suite <identities|geometry|ktheory|wallcross|continuation|central-charge>
"""

import math
import random
from itertools import permutations

import numpy as np

from flopwall.flopgeom import (
    FixedPointLabel,
    check_relations,
    fixed_point_deltas,
    random_config,
    tangent_weight_pairs,
    tangent_weights,
)
from flopwall.hypergeom import (
    delta_hat_apply,
    f_factor_series,
    h_series,
    i_function,
    i_function_factored,
    ode_check,
    series_product,
    verify_continuation_r1,
    central_charge,
    central_charge_plus_continued,
)
from flopwall.ktheory import (
    _wedge_dual_value,
    chern_character,
    chi_z_pairing,
    euler_characteristic,
    fm_generator_formula,
    fm_transform,
    fm_transform_generator_exact,
    generator_e,
    unit_class,
)
from flopwall.numkernel import TWO_PI_I
from flopwall.suites import default_config
from flopwall.wallcross import (
    LocalizedCohClass,
    PsiContext,
    antisym_identity_check,
    pairing,
    psi_apply,
    psi_on_coh,
    transition_matrix,
    u_apply,
    uh_apply,
)


def _verdict(num: int, ok: bool, label: str, err=None):
    tail = "" if err is None else f"  (max err {err:.3e})"
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}{tail}")
    assert ok, f"criterion {num} failed: {label} (err={err})"


def test_criterion_01_antisym_identity():
    ok = True
    for r in range(1, 7):
        rep = antisym_identity_check(r, samples=20, seed=0)
        ok = ok and rep.ok and (r > 4 or rep.symbolic_checked)
    _verdict(1, ok, "exact bi-antisymmetric product identity, symbolic r<=4, sampled r<=6")


def test_criterion_02_sr_collapse():
    worst = 0.0
    for r, n in ((2, 3), (2, 4), (3, 5)):
        cfg = default_config(n, r)
        C = transition_matrix(cfg, "C")
        CH = transition_matrix(cfg, "CH")
        ch_row = dict(zip(CH.rows, CH.entries))
        for dm, c_row in zip(C.rows, C.entries):
            for col, want in enumerate(c_row):
                total = sum(ch_row[f][col] for f in permutations(dm))
                worst = max(worst, abs(total - want) / abs(want))
    _verdict(2, worst < 1e-10, "symmetric-group collapse of ordered transfer coefficients", worst)


_FM_GRID = ((1, 2), (1, 3), (2, 3), (2, 4))


def test_criterion_03_fm_chern_diagram():
    worst = 0.0
    for r, n in _FM_GRID:
        cfg = default_config(n, r)
        for dm in fixed_point_deltas(cfg):
            ch_e = chern_character(cfg, generator_e(cfg, dm))
            want = chern_character(cfg, fm_generator_formula(cfg, dm))
            got = uh_apply(cfg, LocalizedCohClass("minus", ch_e))
            for dp in want:
                worst = max(worst, abs(got.values[dp] - want[dp]) / abs(want[dp]))
    _verdict(3, worst < 1e-10, "transfer map intertwines the Chern character and the FM transform", worst)


def test_criterion_04_fm_kernel_vs_closed_formula():
    worst = 0.0
    exact_ok = True
    for r, n in _FM_GRID:
        cfg = default_config(n, r)
        for dm in fixed_point_deltas(cfg):
            closed = fm_generator_formula(cfg, dm)
            exact = fm_transform_generator_exact(cfg, dm)
            exact_ok = exact_ok and exact.restrictions == closed.restrictions
            got = fm_transform(cfg, generator_e(cfg, dm))
            want = chern_character(cfg, closed)
            for dp in got:
                worst = max(worst, abs(got[dp] - want[dp]) / max(1.0, abs(want[dp])))
    _verdict(4, exact_ok and worst < 1e-12,
             "kernel localization equals the closed generator formula (exact and numeric)", worst)


def test_criterion_05_euler_chi_z_invariance():
    worst = 0.0
    for r, n in ((1, 2), (2, 3)):
        cfg = default_config(n, r)
        rng = random.Random(17)
        deltas = fixed_point_deltas(cfg)

        def combo():
            out = unit_class(cfg, "minus")
            for dm in deltas:
                out = out + generator_e(cfg, dm).scaled(rng.randint(-3, 3))
            return out

        ws = sum(cfg.complex_weights(), ())
        for _ in range(5):
            A, B = combo(), combo()
            chi_m = euler_characteristic(cfg, chern_character(cfg, A), "minus")
            chi_p = euler_characteristic(cfg, fm_transform(cfg, A), "plus")
            worst = max(worst, abs(chi_m - chi_p) / max(1.0, abs(chi_m)))
            for z in (2.0 + 0j, 3.0 + 1j):
                s = TWO_PI_I / z
                lhs = chi_z_pairing(cfg, chern_character(cfg, A, -s), chern_character(cfg, B, s), "minus", z)
                fa = fm_transform(cfg, A, -s)
                fb = fm_transform(cfg, B, s)
                rhs = 0j
                for dp in fa:
                    pairs = tangent_weight_pairs(cfg, "plus", dp)
                    rhs += fa[dp] * fb[dp] / _wedge_dual_value(ws, pairs, s)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    _verdict(5, worst < 1e-10, "Euler characteristic and modified pairing invariant under FM", worst)


def test_criterion_06_integral_structure_pairing():
    cfg = default_config(2, 1)
    worst = 0.0
    for z in (2.0 + 0j, 3.0 + 1j):
        for side in ("plus", "minus"):
            ctx = PsiContext.create(cfg, side, z=z)
            rot = ctx.rotated()
            deltas = fixed_point_deltas(cfg)
            probes = [unit_class(cfg, side)]
            if side == "minus":
                probes += [generator_e(cfg, dm) for dm in deltas]
            else:
                probes += [fm_generator_formula(cfg, dm) for dm in deltas]
            for C in probes:
                for D in probes:
                    pc, pd = psi_apply(rot, C), psi_apply(ctx, D)
                    lhs = pairing(cfg, pc, pd)
                    s = TWO_PI_I / z
                    ch_c, ch_d = chern_character(cfg, C, -s), chern_character(cfg, D, s)
                    rhs = (2.0 * math.pi) ** cfg.dim * chi_z_pairing(cfg, ch_c, ch_d, side, z)
                    bound = 0.0
                    for d in deltas:
                        eN = 1.0 + 0j
                        for wgt in tangent_weights(cfg, FixedPointLabel(side, d)):
                            eN *= complex(wgt)
                        bound += abs(pc.values[d] * pd.values[d] / eN)
                    worst = max(worst, abs(lhs - rhs) / max(bound, abs(rhs), 1e-30))
    _verdict(6, worst < 1e-8, "psi-image pairing reproduces the rescaled Euler pairing", worst)


def test_criterion_07_r1_wall_crossing():
    worst = 0.0
    for n in (2, 3):
        cfg = default_config(n, 1)
        rep = verify_continuation_r1(cfg, tol=1e-8, order=80)
        worst = max(worst, rep.max_err)
    _verdict(7, worst < 1e-8,
             "Mellin-Barnes continuation matches the series on both sides of the wall", worst)


def test_criterion_08_structural_decomposition():
    cfg = default_config(3, 2)
    worst_struct = 0.0
    for dp in fixed_point_deltas(cfg):
        K = h_series(cfg, "plus", dp, 10)
        assembled = delta_hat_apply(
            series_product([f_factor_series(cfg, dp, k, 10) for k in range(2)])
        )
        for es, c in K.coeffs.items():
            worst_struct = max(worst_struct, abs(c - assembled.coeffs[es]))
    worst_ode = 0.0
    for n in (2, 3):
        c1 = default_config(n, 1)
        for side in ("plus", "minus"):
            for l in range(n):
                worst_ode = max(worst_ode, ode_check(c1, h_series(c1, side, (l,), 40), side))
    for dp in fixed_point_deltas(cfg):
        for k in range(2):
            worst_ode = max(worst_ode, ode_check(cfg, f_factor_series(cfg, dp, k, 40), "plus"))
    ok = worst_struct < 1e-12 and worst_ode < 1e-10
    _verdict(8, ok, "antisymmetrized factor product and recurrence annihilation",
             max(worst_struct, worst_ode))


def test_criterion_09_i_series_factorization():
    cfg = default_config(2, 1)
    worst = 0.0
    for z in (2.0 + 0j, 3.0 + 1j):
        for side in ("plus", "minus"):
            ctx = PsiContext.create(cfg, side, z=z)
            for d in fixed_point_deltas(cfg):
                direct = i_function(cfg, side, d, 20, ctx)
                assembled = i_function_factored(cfg, side, d, 20, ctx)
                for e in range(21):
                    diff = abs(direct.coefficient(e) - assembled.coefficient(e))
                    worst = max(worst, diff / max(1.0, abs(direct.coefficient(e))))
    _verdict(9, worst < 1e-10, "direct and integral-structure-factored I-series agree", worst)


def test_criterion_10_central_charge_continuation():
    cfg = default_config(2, 1)
    z = 2.0 + 0j
    ctxm = PsiContext.create(cfg, "minus", z=z)
    ctxp = PsiContext.create(cfg, "plus", z=z)
    w = math.log(3.0) + 1j * math.pi
    worst = 0.0
    for kind in ("structure-sheaf", "generator"):
        if kind == "structure-sheaf":
            Em = unit_class(cfg, "minus")
            psi_p = psi_on_coh(ctxp, LocalizedCohClass("plus", fm_transform(cfg, Em, ctxp.ch_scale)))
        else:
            Em = generator_e(cfg, (0,))
            psi_p = psi_apply(ctxp, fm_generator_formula(cfg, (0,)))
        z_minus, = central_charge(cfg, [psi_apply(ctxm, Em)], -w, ctxm, order=80)
        z_plus, = central_charge_plus_continued(cfg, [psi_p], w, ctxp)
        worst = max(worst, abs(z_plus - z_minus) / abs(z_minus))
    _verdict(10, worst < 1e-6, "central charges related by continuation across the wall", worst)


def test_criterion_11_symplectic_preservation():
    cfg = default_config(2, 1)
    z = 2.0 + 0j
    ctxm = PsiContext.create(cfg, "minus", z=z)
    ctxp = PsiContext.create(cfg, "plus", z=z)
    rotm, rotp = ctxm.rotated(), ctxp.rotated()
    rng = random.Random(23)
    worst = 0.0
    for _ in range(10):
        C = unit_class(cfg, "minus")
        D = unit_class(cfg, "minus")
        for dm in fixed_point_deltas(cfg):
            C = C + generator_e(cfg, dm).scaled(rng.randint(-3, 3))
            D = D + generator_e(cfg, dm).scaled(rng.randint(-3, 3))
        f_rot = psi_apply(rotm, C)
        g = psi_apply(ctxm, D)
        lhs = pairing(cfg, u_apply(rotp, rotm, f_rot), u_apply(ctxp, ctxm, g))
        rhs = pairing(cfg, f_rot, g)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    deltas = fixed_point_deltas(cfg)
    basis = [LocalizedCohClass("minus", {d: float(d == dm) for d in deltas}) for dm in deltas]
    mat = np.array([[u_apply(ctxp, ctxm, b).values[dp] for dp in deltas] for b in basis])
    svals = np.linalg.svd(mat, compute_uv=False)
    nonsingular = svals[-1] / svals[0] > 1e-10
    _verdict(11, worst < 1e-8 and nonsingular,
             "U preserves the pairing and is nonsingular on the fixed-point basis", worst)


def test_criterion_12_cohomology_relations():
    ok = True
    for r, n in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 5)):
        for seed in (0, 1):
            cfg = random_config(n, r, seed=seed)
            for side in ("plus", "minus"):
                ok = ok and check_relations(cfg, side).ok
    _verdict(12, ok, "quotient-ring relations vanish restriction-wise in all graded parts above n-r")
