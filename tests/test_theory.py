"""Classifiers, closed forms, normal forms, conjugation, witness search."""

import cmath
import math

import numpy as np
import pytest

import hypocomp as hc
from hypocomp.errors import (
    DegenerateMapError,
    HypothesisMismatchError,
    InvalidParameterError,
    NotAFixedPointError,
    TheoryUnavailableError,
    ZeroSymbolError,
)
from hypocomp.theory import (
    Outcome,
    WeightedOptions,
    kernel_quotient_norm_refinement,
    kernel_ratio_value,
)

from conftest import hausdorff_distance, random_self_maps


class TestClassifyUnweighted:
    def test_rotation_normal(self, H2):
        v = hc.classify_unweighted(hc.rotation(1j), H2)
        assert v.outcome is Outcome.NORMAL

    def test_random_dilations_normal(self, H2):
        rng = np.random.default_rng(50)
        for _ in range(50):
            lam = rng.uniform(0.02, 1.0) * cmath.exp(2j * math.pi * rng.uniform())
            v = hc.classify_unweighted(hc.dilation(lam), H2)
            assert v.outcome is Outcome.NORMAL

    def test_half_shift_candidate(self, H2, half_shift_map):
        v = hc.classify_unweighted(half_shift_map, H2)
        assert v.outcome is Outcome.CANDIDATE_NOT_EXCLUDED
        assert "c = 0.5" in v.details

    def test_parabolic_excluded(self, H2, parabolic_map):
        v = hc.classify_unweighted(parabolic_map, H2)
        assert v.outcome is Outcome.NOT_HYPONORMAL
        assert v.citation

    def test_any_origin_moving_map_excluded(self, H2):
        rng = np.random.default_rng(51)
        for phi in random_self_maps(rng, 40):
            if abs(phi(0)) > 1e-12:
                v = hc.classify_unweighted(phi, H2)
                assert v.outcome is Outcome.NOT_HYPONORMAL

    def test_contraction_fixing_origin_excluded(self, H2):
        v = hc.classify_unweighted(hc.MoebiusMap(0.3, 0, -0.2, 1), H2)
        assert v.outcome is Outcome.NOT_HYPONORMAL

    def test_shifted_contact_fixing_origin_excluded(self, H2):
        v = hc.classify_unweighted(hc.MoebiusMap(1, 0, 1, -2), H2)
        assert v.outcome is Outcome.NOT_HYPONORMAL


class TestParabolicInequality:
    def test_worked_margin_hardy(self, H2, psi_one, parabolic_map):
        violation = hc.parabolic_kernel_inequality(psi_one, parabolic_map, H2)
        assert violation is not None and violation.point == 0
        expected = 0.5 * math.sqrt(9 / 8) - 0.25
        assert abs(violation.margin - expected) < 1e-12

    def test_second_weight_both_spaces(self, H2, A0, psi_two, parabolic_map):
        v_h = hc.parabolic_kernel_inequality(psi_two, parabolic_map, H2)
        assert abs(v_h.kernel_side_value - 3 * math.sqrt(9 / 8)) < 1e-12
        v_b = hc.parabolic_kernel_inequality(psi_two, parabolic_map, A0)
        # gamma = 2: kernel side 3 * (9/8), still above |psi(1)| = 2
        assert abs(v_b.kernel_side_value - 3 * 9 / 8) < 1e-12
        assert v_b.fixed_point_value == pytest.approx(2.0)

    def test_unit_weight_violation_is_genuine(self, H2, parabolic_map):
        # phi(0) = 1/3 makes the kernel side (9/8)^(1/2) > 1 already at w = 0,
        # and phi(0.5) = 0.6 > 0.5 keeps the ratio above 1 on the grid: the
        # unweighted parabolic operator fails the inequality, consistent with
        # its non-hyponormality
        v = hc.parabolic_kernel_inequality(1, parabolic_map, H2, grid=[0])
        assert v is not None
        assert abs(v.kernel_side_value - math.sqrt(9 / 8)) < 1e-12
        assert abs(parabolic_map(0.5)) > 0.5

    def test_requires_parabolic(self, H2, half_shift_map):
        with pytest.raises(HypothesisMismatchError):
            hc.parabolic_kernel_inequality(1, half_shift_map, H2)

    def test_wrong_zeta_rejected(self, H2, parabolic_map):
        with pytest.raises(HypothesisMismatchError):
            hc.parabolic_kernel_inequality(1, parabolic_map, H2, zeta=-1)


class TestNormalForm:
    def test_dilation_collapse(self, H2):
        nf = hc.normal_form(0, 0.4, 2.0, H2)
        assert hc.map_distance(nf.phi, hc.dilation(0.4)) < 1e-14
        for z in (0, 0.5, -0.3j):
            assert abs(nf.psi(z) - 2.0) < 1e-13

    def test_fixed_point_and_multiplier(self, H2):
        nf = hc.normal_form(0.3, 0.4, 1, H2)
        assert abs(nf.phi(0.3) - 0.3) < 1e-14
        assert abs(nf.phi.derivative(0.3) - 0.4) < 1e-12

    def test_degenerate_delta(self, H2):
        with pytest.raises(DegenerateMapError):
            hc.normal_form(0.3, 0, 1, H2)

    def test_delta_range(self, H2):
        with pytest.raises(InvalidParameterError):
            hc.normal_form(0.3, 1.0, 1, H2)

    def test_value_at_p(self, A1):
        nf = hc.normal_form(0.25j, 0.5, 3 - 1j, A1)
        assert abs(nf.psi(0.25j) - (3 - 1j)) < 1e-12


class TestKernelQuotientWeight:
    def test_origin_gives_constant(self, H2, A0, half_shift_map):
        for space in (H2, A0):
            psi = hc.kernel_quotient_weight(0, 2.0, half_shift_map, space)
            for z in (0, 0.5, -0.8):
                assert abs(psi(z) - 2.0) < 1e-13

    def test_matches_normal_form(self, H2):
        nf = hc.normal_form(0.3, 0.4, 1, H2)
        psi = hc.kernel_quotient_weight(0.3, 1, nf.phi, H2)
        for k in range(10):
            z = 0.7 * cmath.exp(2j * math.pi * k / 10)
            assert abs(psi(z) - nf.psi(z)) < 1e-13

    def test_requires_fixed_point(self, H2, parabolic_map):
        with pytest.raises(NotAFixedPointError):
            hc.kernel_quotient_weight(0.3, 1, parabolic_map, H2)


class TestClassifyWeighted:
    def test_worked_examples(self, H2, A0, psi_one, psi_two, parabolic_map):
        for space in (H2, A0):
            for psi in (psi_one, psi_two):
                v = hc.classify_weighted(psi, parabolic_map, space)
                assert v.outcome is Outcome.NOT_HYPONORMAL
                assert "kernel norm-ratio" in v.citation

    def test_normal_form_grid(self, H2, A0):
        for space in (H2, A0):
            for p in (0.0, 0.3, 0.6, -0.45j, 0.4 + 0.3j):
                for delta in (0.3, -0.6, 0.5j):
                    nf = hc.normal_form(p, delta, 1.0, space)
                    v = hc.classify_weighted(nf.psi, nf.phi, space)
                    assert v.outcome is Outcome.NORMAL, (p, delta, space.label())

    def test_perturbed_weight_rejected(self, H2):
        nf = hc.normal_form(0.3, 0.4, 1, H2)
        psi_bad = nf.psi * hc.polynomial_fn(1, 0.01)
        v = hc.classify_weighted(psi_bad, nf.phi, H2)
        assert v.outcome is Outcome.NOT_HYPONORMAL

    def test_perturbed_map_rejected(self, H2):
        # scaling b alone breaks the |b| = |c| signature of alpha_p (delta alpha_p)
        nf = hc.normal_form(0.3, 0.4, 1, H2)
        phi_bad = hc.MoebiusMap(nf.phi.a, nf.phi.b * 1.001, nf.phi.c, nf.phi.d)
        ok, _ = hc.is_self_map(phi_bad)
        assert ok
        v = hc.classify_weighted(nf.psi, phi_bad, H2)
        assert v.outcome is Outcome.NOT_HYPONORMAL

    def test_a_scaling_stays_in_family(self, H2):
        # scaling a moves within the normal-form family (shifted p and delta),
        # and the kernel quotient is insensitive to it: still Normal
        nf = hc.normal_form(0.3, 0.4, 1, H2)
        phi2 = hc.MoebiusMap(nf.phi.a * 1.001, nf.phi.b, nf.phi.c, nf.phi.d)
        v = hc.classify_weighted(nf.psi, phi2, H2)
        assert v.outcome is Outcome.NORMAL

    def test_shifted_contact_excluded(self, H2):
        phi = hc.MoebiusMap(1, 0, 1, -2)  # contact 1 -> -1
        v = hc.classify_weighted(hc.polynomial_fn(1, 1), phi, H2)
        assert v.outcome is Outcome.NOT_HYPONORMAL
        assert "different boundary point" in v.citation

    def test_weight_vanishing_at_contact(self, H2, parabolic_map):
        psi = hc.polynomial_fn(1, -1)  # 1 - z vanishes at the contact point 1
        v = hc.classify_weighted(psi, parabolic_map, H2)
        assert v.outcome is Outcome.NOT_HYPONORMAL
        assert "vanishes" in v.citation

    def test_constant_weight_delegates(self, H2, half_shift_map):
        v = hc.classify_weighted(3.0, half_shift_map, H2)
        assert v.outcome is Outcome.CANDIDATE_NOT_EXCLUDED

    def test_zero_weight(self, H2, half_shift_map):
        with pytest.raises(ZeroSymbolError):
            hc.classify_weighted(0, half_shift_map, H2)

    def test_automorphism_candidate(self, H2):
        v = hc.classify_weighted(hc.polynomial_fn(2, 1), hc.MoebiusMap(1, 0.5, 0.5, 1), H2)
        assert v.outcome is Outcome.CANDIDATE_NOT_EXCLUDED

    def test_escalation_produces_certificate(self, H2):
        psi = hc.polynomial_fn(2, 1)
        phi = hc.MoebiusMap(1, 0.5, 0.5, 1)
        opts = WeightedOptions(escalate_numeric=True, budget_seconds=20, order=128)
        v = hc.classify_weighted(psi, phi, H2, opts)
        assert v.outcome in (Outcome.CERTIFIED_NOT_NUMERIC, Outcome.CANDIDATE_NOT_EXCLUDED)
        if v.outcome is Outcome.CERTIFIED_NOT_NUMERIC:
            assert v.witness.is_conclusive


class TestSpectralRadius:
    def test_parabolic_weighted(self, H2, A0, psi_one, parabolic_map):
        for space in (H2, A0):
            cf = hc.spectral_radius_closed(psi_one, parabolic_map, space)
            assert abs(cf.value - 0.25) < 1e-12

    def test_hyperbolic_automorphism(self, H2):
        cf = hc.spectral_radius_closed(1, hc.MoebiusMap(1, 0.5, 0.5, 1), H2)
        assert abs(cf.value - math.sqrt(3)) < 1e-12

    def test_contraction_constant(self, H2):
        cf = hc.spectral_radius_closed(hc.constant_fn(0.7), hc.dilation(0.5), H2)
        assert abs(cf.value - 0.7) < 1e-14

    def test_contraction_normal_form_conjugated(self, H2):
        # phi fixes 0.3, not 0, so the contraction closed form must refuse
        nf = hc.normal_form(0.3, 0.4, 1, H2)
        with pytest.raises(TheoryUnavailableError):
            hc.spectral_radius_closed(nf.psi, nf.phi, H2)

    def test_half_shift_unavailable(self, H2, half_shift_map):
        with pytest.raises(TheoryUnavailableError):
            hc.spectral_radius_closed(1, half_shift_map, H2)

    def test_assume_hyponormal_override(self, H2):
        phi = hc.MoebiusMap(0.3, 0, -0.2, 1)
        with pytest.raises(TheoryUnavailableError):
            hc.spectral_radius_closed(1, phi, H2)
        cf = hc.spectral_radius_closed(1, phi, H2, assume_hyponormal=True)
        assert cf.value == pytest.approx(1.0)

    def test_parabolic_consistency(self, H2, A0, A1, parabolic_map):
        for space in (H2, A0, A1):
            r = hc.spectral_radius_closed(1, parabolic_map, space).value
            r_e = hc.essential_spectral_radius_closed(parabolic_map, space).value
            assert abs(r - 1) < 1e-12 and abs(r_e - 1) < 1e-12


class TestEssentialRadius:
    def test_parabolic(self, H2, A0, parabolic_map):
        assert abs(hc.essential_spectral_radius_closed(parabolic_map, H2).value - 1) < 1e-12
        assert abs(hc.essential_spectral_radius_closed(parabolic_map, A0).value - 1) < 1e-12

    def test_hyperbolic_automorphism(self, H2, A0):
        phi = hc.MoebiusMap(1, 0.5, 0.5, 1)
        assert abs(hc.essential_spectral_radius_closed(phi, H2).value - math.sqrt(3)) < 1e-12
        assert abs(hc.essential_spectral_radius_closed(phi, A0).value - 3.0) < 1e-12

    def test_boundary_dw_hyperbolic_nonauto(self, H2):
        # (z+1)/2 fixes 1 with angular derivative 1/2: r_e = sqrt(2)
        phi = hc.MoebiusMap(1, 1, 0, 2)
        assert abs(hc.essential_spectral_radius_closed(phi, H2).value - math.sqrt(2)) < 1e-12

    def test_interior_dw_unavailable(self, H2, half_shift_map):
        with pytest.raises(TheoryUnavailableError):
            hc.essential_spectral_radius_closed(half_shift_map, H2)


class TestEigenvalueBound:
    def test_parabolic_weighted(self, H2, psi_one, parabolic_map):
        assert abs(hc.eigenvalue_bound(psi_one, parabolic_map, H2) - 0.25) < 1e-12

    def test_dilation(self, H2):
        assert abs(hc.eigenvalue_bound(1, hc.dilation(0.5), H2) - 1.0) < 1e-14

    def test_vanishing_weight_kills_eigenvalues(self, H2):
        assert hc.eigenvalue_bound(hc.polynomial_fn(0, 1), hc.dilation(0.5), H2) == 0.0

    def test_elliptic_unavailable(self, H2):
        with pytest.raises(TheoryUnavailableError):
            hc.eigenvalue_bound(1, hc.rotation(1j), H2)


class TestNormBounds:
    def test_half_shift_hardy(self, H2, half_shift_map):
        nb = hc.norm_bounds(1, half_shift_map, H2)
        assert abs(nb.lower - 1 / math.sqrt(2)) < 1e-13
        assert abs(nb.upper - 1.0) < 1e-13

    def test_half_shift_interior_point(self, H2, half_shift_map):
        nb = hc.norm_bounds(1, half_shift_map, H2, p=0, zeta=-1)
        assert nb.mu == pytest.approx(1.0)
        assert abs(nb.lower - 1 / math.sqrt(2)) < 1e-13
        assert abs(nb.upper - 1.0) < 1e-13

    def test_half_shift_bergman(self, A0, half_shift_map):
        nb = hc.norm_bounds(1, half_shift_map, A0)
        assert abs(nb.lower - 0.5) < 1e-13

    def test_parabolic_unavailable(self, H2, parabolic_map):
        with pytest.raises(TheoryUnavailableError):
            hc.norm_bounds(1, parabolic_map, H2)

    def test_refinement_applies_on_hardy(self, H2, A0, half_shift_map):
        ref = kernel_quotient_norm_refinement(1, half_shift_map, H2, 0, -1)
        assert ref is not None and ref.value == pytest.approx(1.0)
        assert kernel_quotient_norm_refinement(1, half_shift_map, A0, 0, -1) is None

    def test_lower_bound_grid(self, H2, psi_one, parabolic_map):
        got = hc.norm_lower_bound_grid(psi_one, parabolic_map, H2, grid=[0])
        assert abs(got - 0.5 * math.sqrt(9 / 8)) < 1e-12
        ident = hc.MoebiusMap(1, 0, 0, 1)
        assert abs(hc.norm_lower_bound_grid(1, ident, H2) - 1.0) < 1e-12
        # dilation: the ratio decreases in |w|, so the best point is w = 0
        assert abs(hc.norm_lower_bound_grid(1, hc.dilation(0.5), H2) - 1.0) < 1e-12

    def test_kernel_ratio_matches_adjoint_norm(self, H2, psi_one, parabolic_map):
        kn = hc.kernel_gram_norms(psi_one, parabolic_map, H2, [0.4], [1 / hc.kernel_norm(H2, 0.4)], 128)
        assert abs(kernel_ratio_value(psi_one, parabolic_map, H2, 0.4) - kn.adjoint) < 1e-12


class TestClark:
    def test_parabolic_atom(self, parabolic_map):
        cp = hc.clark_singular_part(parabolic_map)
        assert abs(cp.alpha - 1) < 1e-9
        (zeta, mass), = cp.atoms
        assert abs(zeta - 1) < 1e-9 and abs(mass - 1) < 1e-9

    def test_half_shift_atom(self, half_shift_map):
        cp = hc.clark_singular_part(half_shift_map)
        (zeta, mass), = cp.atoms
        assert abs(zeta + 1) < 1e-9 and abs(mass - 0.5) < 1e-9
        assert cp.singular_part_at(-1) == cp.atoms
        assert cp.singular_part_at(1j) == ()

    def test_dilation_mismatch(self):
        with pytest.raises(HypothesisMismatchError):
            hc.clark_singular_part(hc.dilation(0.5))

    def test_automorphism_mismatch(self):
        with pytest.raises(HypothesisMismatchError):
            hc.clark_singular_part(hc.MoebiusMap(1, 0.5, 0.5, 1))


class TestConjugateToOrigin:
    def test_p_zero_reflection(self, H2, psi_one, parabolic_map):
        phi = hc.dilation(0.5)
        q, pt = hc.conjugate_to_origin(psi_one, phi, 0, H2)
        for z in (0.2, -0.6j):
            assert abs(q(z) - psi_one(-z)) < 1e-13
            assert abs(pt(z) - (-phi(-z))) < 1e-13

    def test_q_at_zero_is_weight_at_p(self, H2, A1):
        rng = np.random.default_rng(13)
        for space in (H2, A1):
            for _ in range(5):
                p = 0.5 * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform())
                d = (0.2 + 0.4 * rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
                nf = hc.normal_form(p, d, 1.7, space)
                psi = nf.psi * hc.polynomial_fn(1, 0.3)  # break the normal form
                q, _ = hc.conjugate_to_origin(psi, nf.phi, p, space)
                assert abs(q(0) - psi(p)) < 1e-12

    def test_normal_form_becomes_constant_dilation(self, H2):
        nf = hc.normal_form(0.3, 0.4, 1, H2)
        q, pt = hc.conjugate_to_origin(nf.psi, nf.phi, 0.3, H2)
        assert hc.map_distance(pt, hc.dilation(0.4)) < 1e-12
        for k in range(20):
            z = 0.8 * cmath.exp(2j * math.pi * k / 20)
            assert abs(q(z) - 1.0) < 1e-12

    def test_truncation_spectra_agree(self, H2):
        nf = hc.normal_form(0.4, 0.5j, 1, H2)
        q, pt = hc.conjugate_to_origin(nf.psi, nf.phi, 0.4, H2)
        e1 = hc.truncation_eigenvalues(hc.build_weighted_composition(nf.psi, nf.phi, H2, 64))
        e2 = hc.truncation_eigenvalues(hc.build_weighted_composition(q, pt, H2, 64))
        assert hausdorff_distance(e1, e2) < 1e-6

    def test_requires_fixed_point(self, H2, half_shift_map):
        with pytest.raises(NotAFixedPointError):
            hc.conjugate_to_origin(1, half_shift_map, 0.3, H2)


class TestWitnessSearch:
    def test_parabolic_weighted_found(self, H2, psi_one, parabolic_map):
        w = hc.witness_search(psi_one, parabolic_map, H2, budget_seconds=30, order=128)
        assert w is not None and w.is_conclusive
        assert w.adjoint_norm > w.forward_norm

    def test_origin_moving_map_found_at_zero(self, H2):
        w = hc.witness_search(1, hc.alpha_p(0.3), H2, budget_seconds=30, order=64)
        assert w is not None and w.is_conclusive
        assert w.points == (0,)

    def test_dilation_none(self, H2):
        assert hc.witness_search(1, hc.dilation(0.5), H2, budget_seconds=2.5, order=48) is None

    def test_normal_form_none(self, H2):
        nf = hc.normal_form(0.3, 0.4, 1, H2)
        assert hc.witness_search(nf.psi, nf.phi, H2, budget_seconds=2.5, order=48) is None

    @pytest.mark.parametrize(
        "coeffs, phi",
        [((1, 0.9), hc.dilation(0.9)), ((1, 0.5), hc.hyperbolic_nonauto_form(0.5))],
    )
    def test_witness_reproduces_at_its_order(self, H2, coeffs, phi):
        # order 8 is too short for these kernels' tails, so the search escalates;
        # the witness must record the order its norms were certified at.
        psi = hc.polynomial_fn(*coeffs)
        w = hc.witness_search(psi, phi, H2, budget_seconds=30, order=8)
        assert w is not None and w.is_conclusive and w.order > 8
        kn = hc.kernel_gram_norms(psi, phi, H2, w.points, w.coefficients, w.order)
        assert (kn.adjoint, kn.forward, kn.tail_bound) == (w.adjoint_norm, w.forward_norm, w.tail_bound)

    def test_inequality_violations_are_confirmed(self, H2, A0, psi_one, psi_two, parabolic_map):
        # theory-certified exclusions must be confirmed numerically
        for space, psi in ((H2, psi_one), (H2, psi_two), (A0, psi_one)):
            assert hc.parabolic_kernel_inequality(psi, parabolic_map, space) is not None
            w = hc.witness_search(psi, parabolic_map, space, budget_seconds=30, order=128)
            assert w is not None and w.is_conclusive


class TestFractionalGamma:
    def test_full_pipeline_on_bergman_0p7(self):
        # gamma = 2.7 exercises the fractional-power branches end to end
        sp = hc.bergman(0.7)
        nf = hc.normal_form(0.35, -0.45j, 2.0, sp)
        assert hc.classify_weighted(nf.psi, nf.phi, sp).outcome is Outcome.NORMAL
        m = hc.build_weighted_composition(nf.psi, nf.phi, sp, 96)
        assert np.linalg.norm(hc.self_commutator(m), 2) < 1e-10
        assert abs(hc.operator_norm(m).value - 2.0) < 1e-8
        q, _ = hc.conjugate_to_origin(nf.psi, nf.phi, 0.35, sp)
        assert abs(q(0) - 2.0) < 1e-12

    def test_parabolic_at_off_axis_point(self):
        sp = hc.bergman(0.7)
        par = hc.cayley_parabolic(-1j, 0.8)
        psi = hc.polynomial_fn(0.5, -0.25j)
        v = hc.classify_weighted(psi, par, sp)
        assert v.outcome is Outcome.NOT_HYPONORMAL
        r = hc.spectral_radius_closed(psi, par, sp)
        assert abs(r.value - abs(psi(-1j))) < 1e-12


class TestSpectralReport:
    def test_parabolic_weighted(self, H2, psi_one, parabolic_map):
        rep = hc.spectral_report(psi_one, parabolic_map, H2)
        assert rep.r == pytest.approx(0.25)
        assert rep.r_e is None  # nonconstant weight
        assert rep.norm_lower >= 0.5303
        assert rep.norm_upper is None

    def test_crossing_bounds_drop_the_conditional_upper(self, H2, half_shift_map):
        # z + z^2 vanishes at both the origin and the boundary fixed point, so
        # the hyponormal upper bound is 0 while the kernel grid certifies a
        # positive norm: the report must drop the upper bound and say why
        psi = hc.polynomial_fn(0, 1, 1)
        rep = hc.spectral_report(psi, half_shift_map, H2)
        assert rep.norm_upper is None
        assert rep.norm_lower > 0.5
        assert "cannot be hyponormal" in rep.citations["norm_upper"]

    def test_constant_weight_scales_essential(self, H2):
        rep = hc.spectral_report(hc.constant_fn(2), hc.MoebiusMap(1, 0.5, 0.5, 1), H2)
        assert rep.r == pytest.approx(2 * math.sqrt(3))
        assert rep.r_e == pytest.approx(2 * math.sqrt(3))

    def test_invariant_lower_le_upper(self, H2, half_shift_map):
        rep = hc.spectral_report(1, half_shift_map, H2)
        assert rep.norm_upper is not None
        assert rep.norm_lower <= rep.norm_upper + 1e-12
