"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s`); tolerances
are pinned here, not configurable.
"""

import cmath
import math

import numpy as np

import hypocomp as hc
from hypocomp.errors import HypothesisMismatchError
from hypocomp.theory import Outcome

from conftest import hausdorff_distance, random_disk_points

H2 = hc.hardy()
A0 = hc.bergman(0)
A1 = hc.bergman(1)
PARABOLIC = hc.cayley_parabolic(1, 1)
PSI1 = hc.polynomial_fn(0.5, -0.25)
PSI2 = hc.polynomial_fn(3, 2, -3)


def report(num: int, name: str, passed: bool) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'}  {name}")
    assert passed, f"criterion {num}: {name}"


def test_criterion_1_worked_example_reproduction():
    ok = True
    for space in (H2, A0):
        for psi in (PSI1, PSI2):
            verdict = hc.classify_weighted(psi, PARABOLIC, space)
            violation = hc.parabolic_kernel_inequality(psi, PARABOLIC, space)
            ok = ok and verdict.outcome is Outcome.NOT_HYPONORMAL
            ok = ok and violation is not None and violation.point == 0
    margin = hc.parabolic_kernel_inequality(PSI1, PARABOLIC, H2).margin
    expected = 0.5 * math.sqrt(9.0 / 8.0) - 0.25
    ok = ok and abs(margin - expected) <= 1e-10
    report(1, "parabolic worked example excluded at w=0 in both spaces, "
              f"margin {margin:.10f}", ok)


def test_criterion_2_kernel_norm_identity():
    ok = True
    for space in (H2, A0, A1):
        target_exp = -space.gamma
        for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
            for k in range(8):
                w = r * cmath.exp(2j * math.pi * k / 8)
                partial = np.linalg.norm(hc.kernel(space, w, 400)) ** 2
                target = (1 - abs(w) ** 2) ** target_exp
                ok = ok and abs(partial - target) / target < 1e-8
    report(2, "kernel norm identity to 1e-8 at N=400 (gamma = 1, 2, 3)", ok)


def test_criterion_3_adjoint_kernel_residual():
    rng = np.random.default_rng(20260808)
    nf = hc.normal_form(0.3, 0.4, 1, H2)
    nf_b = hc.normal_form(0.3, 0.4, 1, A0)
    ok = True
    for space, psi, phi in (
        (H2, PSI1, PARABOLIC),
        (A0, PSI1, PARABOLIC),
        (H2, nf.psi, nf.phi),
        (A0, nf_b.psi, nf_b.phi),
    ):
        m = hc.build_weighted_composition(psi, phi, space, 256)
        for w in random_disk_points(rng, 20, 0.6):
            ar = hc.adjoint_kernel_residual(m, psi, phi, w, space)
            ok = ok and ar.residual <= ar.tail_bound and ar.residual < 1e-6
    report(3, "adjoint kernel identity residual below tail bound and 1e-6 at N=256", ok)


def test_criterion_4_normal_form_commutator():
    nf = hc.normal_form(0.3, 0.4, 1, H2)
    norms = []
    for n in (32, 64, 128, 256):
        m = hc.build_weighted_composition(nf.psi, nf.phi, H2, n)
        norms.append(float(np.linalg.norm(hc.self_commutator(m), 2)))
    ok = norms[2] < 1e-6
    # monotone within an additive rounding slack: the values sit at the
    # floating-point floor from N=32 on for this symbol pair
    ok = ok and all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    verdict = hc.classify_weighted(nf.psi, nf.phi, H2)
    ok = ok and verdict.outcome is Outcome.NORMAL
    report(4, f"normal-form commutator norms {['%.2e' % v for v in norms]} "
              "shrink below 1e-6; exact form match", ok)


def test_criterion_5_normal_form_operator_norm():
    nf = hc.normal_form(0.3, 0.4, 1, H2)
    m = hc.build_weighted_composition(nf.psi, nf.phi, H2, 256)
    value = hc.operator_norm(m).value
    ok = abs(value - 1.0) < 1e-4
    report(5, f"normal-form operator norm {value:.8f} within 1e-4 of |psi(p)| = 1", ok)


def test_criterion_6_closed_form_radii():
    ok = True
    for space in (H2, A0):
        ok = ok and abs(hc.spectral_radius_closed(PSI1, PARABOLIC, space).value - 0.25) <= 1e-12
    hyp = hc.MoebiusMap(1, 0.5, 0.5, 1)
    for space in (H2, A0, A1):
        expected = 3.0 ** (space.gamma / 2.0)
        ok = ok and abs(hc.essential_spectral_radius_closed(hyp, space).value - expected) <= 1e-12
    c = 0.7 - 0.2j
    for space in (H2, A0):
        got = hc.spectral_radius_closed(hc.constant_fn(c), hc.dilation(0.5), space).value
        ok = ok and abs(got - abs(c)) <= 1e-12
    report(6, "closed-form radii: 1/4 parabolic, 3^(gamma/2) hyperbolic "
              "automorphism, |c| dilation", ok)


def _truth_table():
    nf = hc.normal_form(0.3, 0.4, 1, H2)
    return [
        (hc.rotation(1j), Outcome.NORMAL),
        (hc.rotation(cmath.exp(2j * math.pi / 3)), Outcome.NORMAL),
        (hc.rotation(-1), Outcome.NORMAL),
        (hc.dilation(0.5), Outcome.NORMAL),
        (hc.dilation(-0.3), Outcome.NORMAL),
        (hc.dilation(0.4j), Outcome.NORMAL),
        (hc.cayley_parabolic(1, 1), Outcome.NOT_HYPONORMAL),
        (hc.cayley_parabolic(1, 1j), Outcome.NOT_HYPONORMAL),
        (hc.MoebiusMap(1, 0, 1, 2), Outcome.CANDIDATE_NOT_EXCLUDED),
        (hc.alpha_p(0.3), Outcome.NOT_HYPONORMAL),
        (hc.MoebiusMap(1, 0.5, 0.5, 1), Outcome.NOT_HYPONORMAL),
        (nf.phi, Outcome.NOT_HYPONORMAL),
        (hc.MoebiusMap(0.3, 0, -0.2, 1), Outcome.NOT_HYPONORMAL),
        (hc.MoebiusMap(1, 0, 1, -2), Outcome.NOT_HYPONORMAL),
    ]


def test_criterion_7_classifier_truth_table():
    ok = True
    for phi, expected in _truth_table():
        for space in (H2, A0):
            verdict = hc.classify_unweighted(phi, space)
            ok = ok and verdict.outcome is expected
    candidate = hc.classify_unweighted(hc.MoebiusMap(1, 0, 1, 2), H2)
    ok = ok and "c = 0.5" in candidate.details
    report(7, "unweighted classifier agrees with the 14-map truth table "
              "in both spaces, extracting c = 1/2", ok)


def test_criterion_8_witness_cross_validation():
    cases = []
    for space in (H2, A0):
        cases.append((PSI1, PARABOLIC, space))
        cases.append((PSI2, PARABOLIC, space))
    for phi, expected in _truth_table():
        if expected is Outcome.NOT_HYPONORMAL:
            cases.append((hc.constant_fn(1.0), phi, H2))
    ok = True
    for psi, phi, space in cases:
        witness = hc.witness_search(psi, phi, space, budget_seconds=60.0)
        good = witness is not None and witness.margin > 10.0 * witness.tail_bound
        ok = ok and good
    report(8, f"numeric witnesses confirm all {len(cases)} theory-certified "
              "exclusions within budget", ok)


def test_criterion_9_conjugation_invariance():
    pairs = [
        (0.0, 0.4), (0.3, 0.4), (0.3, -0.5),
        (0.5j, 0.3 + 0.3j), (0.5, 0.45), (-0.45, 0.2j),
        (0.2 + 0.4j, 0.5), (0.5j, -0.5), (0.45, 0.25 + 0.4j),
    ]
    worst = 0.0
    for p, delta in pairs:
        nf = hc.normal_form(p, delta, 1, H2)
        q, phi_t = hc.conjugate_to_origin(nf.psi, nf.phi, p, H2)
        e1 = np.linalg.eigvals(hc.build_weighted_composition(nf.psi, nf.phi, H2, 64).entries)
        e2 = np.linalg.eigvals(hc.build_weighted_composition(q, phi_t, H2, 64).entries)
        worst = max(worst, hausdorff_distance(e1, e2))
    ok = worst < 1e-6
    report(9, f"conjugated truncation spectra agree over 9 pairs "
              f"(worst Hausdorff {worst:.2e})", ok)


def test_criterion_10_clark_singular_parts():
    cp1 = hc.clark_singular_part(PARABOLIC)
    (z1, m1), = cp1.atoms
    ok = abs(cp1.alpha - 1) <= 1e-9 and abs(z1 - 1) <= 1e-9 and abs(m1 - 1) <= 1e-9
    cp2 = hc.clark_singular_part(hc.MoebiusMap(1, 0, 1, 2))
    (z2, m2), = cp2.atoms
    ok = ok and abs(cp2.alpha + 1) <= 1e-9 and abs(z2 + 1) <= 1e-9 and abs(m2 - 0.5) <= 1e-9
    try:
        hc.clark_singular_part(hc.dilation(0.5))
        ok = False
    except HypothesisMismatchError:
        pass
    report(10, "Clark singular parts: atom (1,1) parabolic, (-1,1/2) for z/(z+2), "
               "mismatch for the dilation", ok)
