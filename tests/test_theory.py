"""Classifiers, closed forms, normal forms, conjugation, witness search."""

import cmath
import contextlib
import itertools
import math
import re
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypocomp as hc
import hypocomp.theory as theory
from hypocomp import matrixrep
from hypocomp.errors import (
    DegenerateMapError,
    HypothesisMismatchError,
    IndeterminateError,
    InvalidParameterError,
    NotAFixedPointError,
    NotSelfMapError,
    PoleEncounteredError,
    PrecisionLossError,
    TheoryUnavailableError,
    ZeroSymbolError,
)
from hypocomp.funcalg import MAX_TRUNCATION
from hypocomp.matrixrep import KernelImages, KernelNorms, kernel_gram_forms
from hypocomp.theory import (
    Outcome,
    WeightedOptions,
    kernel_ratio_value,
)

from conftest import DERANDOMIZED, hausdorff_distance, random_self_maps


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

    @DERANDOMIZED
    @given(
        modulus=st.floats(1e-3, 0.999),
        turn=st.floats(0.0, 1.0),
        part=st.sampled_from(["phase of a", "modulus of a", "phase of c"]),
        exponent=st.floats(-12.0, -7.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_citations_agree_with_the_map_class(self, modulus, turn, part, exponent, sign):
        # (1-|c|) z/(c z + 1) moved by 1e-12 to 1e-7 lands inside or outside
        # classify's bands; whichever class it gets, the unweighted verdict
        # cites only what that class says, and a constant weight alike.
        a, _b, c, d = hc.hyperbolic_nonauto_form(modulus * cmath.exp(2j * math.pi * turn)).coefficients()
        eps = sign * 10.0**exponent
        if part == "phase of a":
            a *= cmath.exp(1j * eps)
        elif part == "modulus of a":
            a *= 1.0 + eps
        else:
            c *= cmath.exp(1j * eps)
        phi = hc.MoebiusMap(a, 0, c, d)
        try:
            cls = hc.classify(phi)
        except NotSelfMapError:
            return  # |a| grew past the self-map band
        verdict = hc.classify_unweighted(phi, hc.hardy())
        if verdict.citation == theory.CIT_CONTACT_NOT_FIXED:
            assert cls.contact is not None and not cls.fixes_contact
        if verdict.citation == theory.CIT_COMPACT_FORCES_DILATION:
            assert cls.kind is hc.MapKind.INTERIOR_CONTRACTION
        if verdict.citation == theory.CIT_HYPERBOLIC_CANDIDATE:
            assert cls.kind is hc.MapKind.HYPERBOLIC_NONAUTOMORPHISM
        weighted = hc.classify_weighted(1, phi, hc.hardy())
        assert (weighted.outcome, weighted.citation) == (verdict.outcome, verdict.citation)


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
        v = hc.parabolic_kernel_inequality(1, parabolic_map, H2)
        assert v is not None
        assert abs(v.kernel_side_value - math.sqrt(9 / 8)) < 1e-12
        assert abs(parabolic_map(0.5)) > 0.5

    def test_requires_parabolic(self, H2, half_shift_map):
        with pytest.raises(HypothesisMismatchError):
            hc.parabolic_kernel_inequality(1, half_shift_map, H2)


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

    @pytest.mark.parametrize("modulus", [0.999, 0.9999, 0.99999])
    def test_builds_near_the_circle(self, modulus):
        # phi'(p) rounds off delta by about 2.5 eps (1 - |p|^2)^-2, and the
        # multiplier check scales the same way.
        for space in (hc.hardy(), hc.bergman(0), hc.bergman(1)):
            nf = hc.normal_form(modulus, 0.4, 1, space)
            assert hc.classify_weighted(nf.psi, nf.phi, space).outcome is Outcome.NORMAL


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


@st.composite
def normal_forms_near_the_circle(draw):
    """(p, delta, value, space) with 1 - |p| from 1 down to 1e-5 on a log scale."""
    p = (1.0 - 10.0 ** -draw(st.floats(0.0, 5.0))) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    delta = draw(st.floats(0.05, 0.95)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    value = draw(st.floats(0.5, 2.0)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    return p, delta, value, draw(st.sampled_from((hc.hardy(), hc.bergman(0), hc.bergman(1))))


# c = 2^k, |k| <= 300, or 10^(+-m), 6 <= m <= 100: far beyond the rounding of
# any tolerance, and exact (2^k) or not (10^m) in binary.
SCALES = st.one_of(st.integers(-300, 300).map(lambda k: 2.0**k),
                   st.builds(lambda m, sign: 10.0 ** (sign * m), st.integers(6, 100), st.sampled_from((1, -1))))
BERGMAN_OR_HARDY = st.one_of(st.just(hc.hardy()), st.floats(0.0, 10.0).map(hc.bergman))


class TestOneIdentityTest:
    """normal_form and classify_weighted decide the normal-form identity by one
    scale-free test, and the parabolic inequality is scale-free too."""

    @DERANDOMIZED
    @given(normal_forms_near_the_circle(), SCALES, BERGMAN_OR_HARDY)
    def test_scaled_normal_forms_build_and_are_normal(self, case, c, space):
        # Such as normal_form(0.9999, 0.4, 1e6, hardy()): the identity test is
        # relative at each point, so the value's scale moves no decision.
        p, delta, value, _space = case
        nf = hc.normal_form(p, delta, c * value, space)
        assert hc.classify_weighted(nf.psi, nf.phi, space).outcome is Outcome.NORMAL

    @DERANDOMIZED
    @given(st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=3),
           st.floats(0.0, 2.0 * math.pi), st.floats(0.1, 2.0), st.floats(-1.0, 1.0), SCALES, BERGMAN_OR_HARDY)
    def test_scaled_weights_violate_at_the_same_point(self, coeffs, turn, t_re, t_im, c, space):
        phi = hc.cayley_parabolic(cmath.exp(1j * turn), complex(t_re, t_im))
        psi = hc.polynomial_fn(1, *coeffs)
        base = hc.parabolic_kernel_inequality(psi, phi, space)
        scaled = hc.parabolic_kernel_inequality(psi.scale(c), phi, space)
        assert (base is None) is (scaled is None)
        if base is not None:
            assert scaled.point == base.point
            assert scaled.kernel_side_value == pytest.approx(c * base.kernel_side_value, rel=1e-13)

    def test_normal_form_and_the_classifier_share_it(self, H2, monkeypatch):
        nf = hc.normal_form(0.3, 0.4, 1, H2)
        seen = []

        def mismatch(psi_f, p, value, phi, space):
            seen.append((p, value))
            return 0.85j

        monkeypatch.setattr(theory, "_kernel_quotient_mismatch", mismatch)
        with pytest.raises(InvalidParameterError, match="defining identity"):
            hc.normal_form(0.3, 0.4, 2, H2)
        v = hc.classify_weighted(nf.psi, nf.phi, H2)
        assert v.outcome is Outcome.NOT_HYPONORMAL
        assert v.details == "weight differs from the kernel quotient at z = 0+0.85j"
        assert [value for _p, value in seen] == [2, pytest.approx(1, rel=1e-12)]

    # psi (1 + eps e^(i theta) z^m) against the normal form of psi: at a sample z
    # of circle(0.85, 20) the two sides differ by eps |z^m - p^m|, relative to
    # the larger within a factor 1 + eps (0.85^m + |p|^m).  For m not a multiple
    # of 20 some sample has z^m at least 90 degrees from p^m, where
    # |z^m - p^m| >= 0.85^m; at every sample |z^m - p^m| <= 0.85^m + |p|^m.
    # Hence NotHyponormal from eps 0.85^m = 10 tau, and Normal up to
    # eps (0.85^m + |p|^m) = tau/10, for tau = _near_circle_tol(p).
    @DERANDOMIZED
    @given(normal_forms_near_the_circle(), st.integers(1, 19), st.floats(0.0, 2.0 * math.pi),
           st.booleans(), st.floats(0.0, 1.0))
    def test_the_verdict_band(self, case, m, theta, far, u):
        p, delta, value, space = case
        phi = hc.normal_form_map(p, delta)
        psi = hc.kernel_quotient_weight(p, value, phi, space)
        tau = theory._near_circle_tol(p)
        if far:
            eps = 10.0 ** (1.0 + u) * tau / 0.85**m
        else:
            eps = 10.0 ** (-1.0 - 2.0 * u) * tau / (0.85**m + abs(p) ** m)
        bent = psi * hc.polynomial_fn(1, *[0] * (m - 1), eps * cmath.exp(1j * theta))
        want = Outcome.NOT_HYPONORMAL if far else Outcome.NORMAL
        assert hc.classify_weighted(bent, phi, space).outcome is want


class TestClassifyWeighted:
    def test_worked_examples(self, H2, A0, psi_one, psi_two, parabolic_map):
        for space in (H2, A0):
            for psi in (psi_one, psi_two):
                v = hc.classify_weighted(psi, parabolic_map, space)
                assert v.outcome is Outcome.NOT_HYPONORMAL
                assert "kernel norm-ratio" in v.citation

    # classify calls every map within 1e-12 of the identity the identity; only
    # the exact one, b = c = 0 and a = d after normalisation, is a
    # multiplication operator.  (1 - 1e-14) z is a dilation.
    @pytest.mark.parametrize("phi, exact", [
        (hc.MoebiusMap(1, 0, 0, 1), True),
        (hc.MoebiusMap(-1, 0, 0, -1), True),
        (hc.MoebiusMap(2j, 0, 0, 2j), True),
        (hc.MoebiusMap(0.99999999999999, 0, 0, 1), False),
        (hc.MoebiusMap(1, 1e-13, 0, 1), False),
        (hc.MoebiusMap(1, 0, 1e-13j, 1), False),
    ])
    def test_multiplication_note_only_for_the_exact_identity(self, H2, phi, exact):
        v = hc.classify_weighted(hc.polynomial_fn(2, 1), phi, H2)
        assert v.map_kind is hc.MapKind.IDENTITY
        assert (v.outcome, v.citation) == (Outcome.CANDIDATE_NOT_EXCLUDED, theory.CIT_UNDECIDED)
        assert v.details == ("analytic multiplication operator (always hyponormal)" if exact
                             else "phi is within 1e-12 of the identity but not equal to it")

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

    @DERANDOMIZED
    @given(normal_forms_near_the_circle(), st.floats(2.0, 4.0), st.floats(0.0, 2.0 * math.pi))
    def test_normal_forms_near_the_circle(self, case, log_eps, theta):
        # The kernel-quotient comparison rounds by about eps (1 - |p|^2)^-2, so
        # its tolerance tau is 1e-12 times that: an exact normal form is Normal
        # up to |p| = 0.99999, and psi (1 + eps z) with eps >= 100 tau is not.
        p, delta, value, space = case
        phi = hc.normal_form_map(p, delta)
        psi = hc.kernel_quotient_weight(p, value, phi, space)
        assert hc.classify_weighted(psi, phi, space).outcome is Outcome.NORMAL
        tau = 1e-12 / (1.0 - abs(p) ** 2) ** 2
        bent = psi * hc.polynomial_fn(1, 10.0**log_eps * tau * cmath.exp(1j * theta))
        assert hc.classify_weighted(bent, phi, space).outcome is Outcome.NOT_HYPONORMAL

    def test_weight_vanishing_at_p_at_large_alpha(self):
        # psi(p) = 0 is read off the base numerator: the kernel quotient's
        # factors, which grow like a power alpha + 2, neither make a zero at p
        # nor hide one.
        space = hc.bergman(150)
        nf = hc.normal_form(0.4j, -0.4, 1, space)
        assert hc.classify_weighted(nf.psi, nf.phi, space).outcome is Outcome.NORMAL
        v = hc.classify_weighted(nf.psi * hc.polynomial_fn(-nf.p, 1), nf.phi, space)
        assert v.outcome is Outcome.NOT_HYPONORMAL
        assert v.details == "weight vanishes at the interior fixed point"

    @pytest.mark.parametrize("P", [0.9, 0.999, 0.99999])
    def test_weight_vanishing_at_p_near_the_circle(self, H2, P):
        # The Denjoy-Wolff point computed from the map misses nf.p by about
        # eps/(1 - |p|^2): the zero test at p allows that rounding.
        nf = hc.normal_form(P, 0.4, 1, H2)
        assert hc.classify_weighted(nf.psi, nf.phi, H2).outcome is Outcome.NORMAL
        v = hc.classify_weighted(nf.psi * hc.polynomial_fn(-nf.p, 1), nf.phi, H2)
        assert v.outcome is Outcome.NOT_HYPONORMAL
        assert v.details == "weight vanishes at the interior fixed point"

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

    def test_underflowing_weight_is_not_zero(self):
        # At alpha = 100 every sample of this kernel quotient underflows,
        # though psi(p) = 0.7: a double-range refusal, not a zero weight.
        space = hc.bergman(100)
        nf = hc.normal_form_map(0.99999, 0.4)
        psi = hc.kernel_quotient_weight(0.99999, 0.7, nf, space)
        with pytest.raises(InvalidParameterError, match="double range"):
            hc.classify_weighted(psi, nf, space)

    def test_weight_with_pole_in_disk_rejected(self, H2, parabolic_map):
        # 1/(1 - 2z) has a pole at 1/2: outside every theorem's hypotheses.
        with pytest.raises(PoleEncounteredError):
            hc.classify_weighted(hc.rational_fn((1,), (1, -2)), parabolic_map, H2)

    def test_automorphism_candidate(self, H2):
        v = hc.classify_weighted(hc.polynomial_fn(2, 1), hc.MoebiusMap(1, 0.5, 0.5, 1), H2)
        assert v.outcome is Outcome.CANDIDATE_NOT_EXCLUDED

    def test_escalation_produces_certificate(self, H2):
        psi = hc.polynomial_fn(2, 1)
        phi = hc.MoebiusMap(1, 0.5, 0.5, 1)
        opts = WeightedOptions(escalate_numeric=True, budget_seconds=20)
        v = hc.classify_weighted(psi, phi, H2, opts)
        assert v.outcome is Outcome.CERTIFIED_NOT_NUMERIC
        assert v.witness.is_conclusive


ESCALATE_CASES = [
    (hc.polynomial_fn(2, 1), hc.rotation(1j), hc.hardy()),
    (hc.polynomial_fn(2, 1), hc.MoebiusMap(1, 0.5, 0.5, 1), hc.hardy()),
    (hc.rational_fn((2,), (1, 0.2)), hc.hyperbolic_nonauto_form(0.5), hc.bergman(0)),
]


def escalated(psi, phi, space):
    opts = WeightedOptions(escalate_numeric=True, budget_seconds=600)
    return hc.classify_weighted(psi, phi, space, opts)


@pytest.fixture(scope="module")
def escalate_references():
    return [escalated(*case) for case in ESCALATE_CASES]


class TestScaleFreeCertificate:
    @DERANDOMIZED
    @given(j=st.integers(-80, 80))
    def test_power_of_two_multiples_certify_alike(self, escalate_references, j):
        # c = 2^j scales every norm of the search exactly, so c psi must end
        # where psi does: same outcome, same witness points and order.
        for (psi, phi, space), reference in zip(ESCALATE_CASES, escalate_references):
            v = escalated(psi.scale(2.0**j), phi, space)
            assert v.outcome is reference.outcome is Outcome.CERTIFIED_NOT_NUMERIC
            assert (v.witness.points, v.witness.order) == (reference.witness.points, reference.witness.order)


SCALE_EXPONENTS = (-560, -100, 300, 500)
SEARCH_SPACES = (hc.hardy(), hc.bergman(0), hc.bergman(0.7))


@st.composite
def near_constant_searches(draw):
    """(psi, phi): a polynomial, rational or power-factor weight within 1e-3
    to 1e-1 of a constant, on a hyperbolic non-automorphism, whose searches
    end in stage 1 or in stage 2, some after escalating."""
    def unit():
        return cmath.exp(2j * math.pi * draw(st.floats(0.0, 1.0)))

    eps = 10 ** draw(st.floats(-3.0, -1.0))
    kind = draw(st.sampled_from(("polynomial", "rational", "power factor")))
    if kind == "polynomial":
        psi = hc.polynomial_fn(1, eps * unit())
    elif kind == "rational":
        psi = hc.rational_fn((1, eps * unit()), (1, eps * unit()))
    else:
        psi = hc.polynomial_fn(1, 0.5 * eps * unit()) * hc.kernel_function(0.5 * eps * unit(), 1.5)
    return psi, hc.hyperbolic_nonauto_form(draw(st.floats(0.1, 0.9)) * unit())


class TestScaleFreeSearch:
    @pytest.mark.parametrize("space", SEARCH_SPACES, ids=("hardy", "bergman:0", "bergman:0.7"))
    @settings(DERANDOMIZED, max_examples=8)
    @given(near_constant_searches())
    # On hardy both examples end in stage 2, on bergman:0 the second does.
    @example((hc.polynomial_fn(1, 0.01), hc.hyperbolic_nonauto_form(0.5)))
    @example((hc.polynomial_fn(1, 0.01), hc.hyperbolic_nonauto_form(0.3)))
    def test_power_of_two_weights_find_the_same_witness(self, space, case):
        # Every norm and form of the search is taken at its table's unit
        # scale, so 2^k psi finds psi's witness, with 2^k times its norms and
        # tail bound, bit for bit, on every space.
        psi, phi = case
        want = hc.witness_search(psi, phi, space, budget_seconds=math.inf, order=48)
        for k in SCALE_EXPONENTS:
            got = hc.witness_search(psi.scale(2.0**k), phi, space, budget_seconds=math.inf, order=48)
            if want is None:
                assert got is None
                continue
            assert (got.points, got.coefficients, got.order) == (want.points, want.coefficients, want.order)
            assert (got.adjoint_norm, got.forward_norm, got.tail_bound) == tuple(
                math.ldexp(x, k) for x in (want.adjoint_norm, want.forward_norm, want.tail_bound))

    @pytest.mark.parametrize("space", SEARCH_SPACES, ids=("hardy", "bergman:0", "bergman:0.7"))
    def test_multiplication_operators_are_never_certified(self, space):
        # M_(2+z) (phi the identity) is subnormal, hence hyponormal: no scale
        # may certify it.  Scaling only the adjoint side would, at 2^-560,
        # where the unscaled forward norm underflows to 0.
        for k in (0,) + SCALE_EXPONENTS:
            psi = hc.polynomial_fn(2, 1).scale(2.0**k)
            assert hc.witness_search(psi, hc.MoebiusMap(1, 0, 0, 1), space, budget_seconds=math.inf, order=48) is None


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
        # phi fixes 0.3, not 0: r = |psi(0.3)| all the same
        nf = hc.normal_form(0.3, 0.4, 0.7, H2)
        cf = hc.spectral_radius_closed(nf.psi, nf.phi, H2)
        assert abs(cf.value - 0.7) < 1e-14 and cf.citation == theory.CIT_R_CONTRACTION

    def test_half_shift_unavailable(self, H2, half_shift_map):
        with pytest.raises(TheoryUnavailableError):
            hc.spectral_radius_closed(1, half_shift_map, H2)

    def test_contraction_not_shown_hyponormal_unavailable(self, H2):
        # C_phi is not hyponormal (phi is no dilation), yet r = |psi(0)| = 1:
        # the contraction closed form needs no verdict.
        phi = hc.MoebiusMap(0.3, 0, -0.2, 1)
        assert hc.classify_weighted(1, phi, H2).outcome is Outcome.NOT_HYPONORMAL
        assert hc.spectral_radius_closed(1, phi, H2).value == 1.0

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

    @pytest.mark.parametrize("c", [2.0, 0.82j, cmath.exp(1j) * 1.08, -0.3 + 0.4j])
    @pytest.mark.parametrize("space", [hc.hardy(), hc.bergman(0), hc.bergman(0.7)], ids=lambda s: s.label())
    def test_value_is_rebuilt_from_its_citation(self, space, c):
        # The citation |c| phi'(zeta)^(-gamma/2) names the weight's modulus:
        # each map's angular derivative at its Denjoy-Wolff point zeta = 1 is
        # known in closed form (1/3, 1/2, 1), and the reported r_e must be
        # the cited formula at it, not phi'(zeta)^(-gamma/2) alone.
        assert "|c| phi'(zeta)^(-gamma/2) for a constant weight c" in theory.CIT_RE_BOUNDARY
        for phi, derivative in ((hc.MoebiusMap(1, 0.5, 0.5, 1), 1 / 3),
                                (hc.MoebiusMap(1, 1, 0, 2), 0.5),
                                (hc.cayley_parabolic(1, 1), 1.0)):
            rep = hc.spectral_report(hc.constant_fn(c), phi, space)
            assert rep.citations["r_e"] == theory.CIT_RE_BOUNDARY
            assert rep.r_e == pytest.approx(abs(c) * derivative ** (-space.gamma / 2.0), rel=1e-12, abs=0.0)


def maps_of_every_kind(rng):
    """One self-map of each MapKind, with random parameters."""
    def unit():
        return cmath.exp(2j * math.pi * rng.uniform())

    lam, zeta, p = unit(), unit(), 0.6 * rng.uniform() * unit()
    a = rng.uniform(0.2, 0.9)
    s = rng.uniform(0.1, 0.9)
    c = rng.uniform(0.2, 0.7) * unit()
    t_auto = rng.choice((-1, 1)) * rng.uniform(0.2, 3) * 1j       # Re t = 0: automorphism
    t_nonauto = complex(rng.uniform(0.1, 2), rng.uniform(-1, 1))
    maps = {
        hc.MapKind.IDENTITY: hc.MoebiusMap(1, 0, 0, 1),
        hc.MapKind.ELLIPTIC_AUTOMORPHISM: hc.compose(hc.alpha_p(p), hc.compose(
            hc.rotation(cmath.exp(1j * rng.uniform(0.3, 2 * math.pi - 0.3))), hc.alpha_p(p))),
        # (z + a conj(lam))/(a lam z + 1) fixes +-conj(lam) exactly.
        hc.MapKind.HYPERBOLIC_AUTOMORPHISM: hc.MoebiusMap(1, a * lam.conjugate(), a * lam, 1),
        hc.MapKind.PARABOLIC_AUTOMORPHISM: hc.cayley_parabolic(zeta, t_auto),
        hc.MapKind.INTERIOR_CONTRACTION: hc.dilation((0.05 + 0.9 * rng.uniform()) * lam),
        # s z + (1 - s) zeta attracts to zeta with phi'(zeta) = s.
        hc.MapKind.HYPERBOLIC_NONAUTOMORPHISM: hc.MoebiusMap(s, (1 - s) * zeta, 0, 1),
        hc.MapKind.PARABOLIC_NONAUTOMORPHISM: hc.cayley_parabolic(zeta, t_nonauto),
        hc.MapKind.BOUNDARY_CONTACT_NO_BOUNDARY_FIXED_POINT: hc.MoebiusMap(
            cmath.exp(1j * rng.uniform(0.5, 2 * math.pi - 0.5)) * (1 - abs(c)), 0, c, 1),
    }
    assert {kind: hc.classify(phi).kind for kind, phi in maps.items()} == {k: k for k in hc.MapKind}
    return list(maps.values())


def random_weight(rng, root_moduli=(0.3, 3.0)):
    """Coefficients of lead * prod (z - root) with 0 to 2 roots: a constant, or
    a polynomial whose zeros may lie inside the disk."""
    coeffs = np.array([rng.uniform(0.5, 2.0) * cmath.exp(2j * math.pi * rng.uniform())])
    for _ in range(rng.integers(0, 3)):
        root = rng.uniform(*root_moduli) * cmath.exp(2j * math.pi * rng.uniform())
        coeffs = np.convolve(coeffs, [-root, 1.0])
    return [complex(x) for x in coeffs]


def fixed_point_bounds(coeffs, phi, gamma):
    """Proved lower bounds on r(C_{psi,phi}), in 40-digit arithmetic.

    |psi(b)| |phi'(b)|^(-gamma/2) at each boundary fixed point b (the kernel
    orbit C*^n K_w with w -> b) and |psi(p)| at each interior fixed point p
    (K_p is an eigenvector of C*).  Fixed points solve c z^2 + (d - a) z - b =
    0; float coefficients split a double root by about sqrt(eps), so two
    roots closer than 1e-6 are the double root -(d - a)/(2c).
    """
    with mpmath.workdps(40):
        a, b, c, d = (mpmath.mpc(x) for x in phi.coefficients())
        if c == 0:
            roots = [b / (d - a)]
        else:
            disc = mpmath.sqrt((d - a) ** 2 + 4 * c * b)
            roots = [(a - d + disc) / (2 * c), (a - d - disc) / (2 * c)]
            if abs(roots[0] - roots[1]) < 1e-6:
                roots = [(a - d) / (2 * c)]
        bounds = []
        for z in roots:
            psi = abs(mpmath.polyval([mpmath.mpc(x) for x in reversed(coeffs)], z))
            if abs(abs(z) - 1) < 1e-9:
                deriv = abs((a * d - b * c) / (c * z + d) ** 2)
                bounds.append(float(psi * deriv ** (-mpmath.mpf(gamma) / 2)))
            elif abs(z) < 1:
                bounds.append(float(psi))
        return bounds


SPACE_LABELS = ("hardy", "bergman:0", "bergman:1")


class TestClosedFormDispatch:
    @pytest.mark.parametrize("label", SPACE_LABELS)
    @DERANDOMIZED
    @given(seed=st.integers(0, 2**32 - 1))
    def test_radii_respect_the_fixed_point_bounds(self, label, seed):
        space = hc.space_from_label(label)
        rng = np.random.default_rng(seed)
        for phi in random_self_maps(rng, 2) + maps_of_every_kind(rng):
            coeffs = random_weight(rng)
            rep = hc.spectral_report(hc.polynomial_fn(*coeffs), phi, space)
            if rep.r is None:
                assert rep.citations["r"].startswith("unavailable: ")
                continue
            for bound in fixed_point_bounds(coeffs, phi, space.gamma):
                assert rep.r >= bound * (1 - 1e-12), (phi, coeffs, rep.citations["r"])
            if rep.r_e is not None:
                assert rep.r_e <= rep.r * (1 + 1e-12)

    def test_readme_hyperbolic_automorphism(self, H2):
        # psi = 1 - 0.9 z on (z + 1/2)/(z/2 + 1): phi'(1) = 1/3, phi'(-1) = 3,
        # so r = max(0.1 sqrt(3), 1.9/sqrt(3)), taken at the repelling point.
        rep = hc.spectral_report(hc.polynomial_fn(1, -0.9), hc.MoebiusMap(1, 0.5, 0.5, 1), H2)
        assert abs(rep.r - 1.9 / math.sqrt(3)) <= 1e-12
        assert rep.citations["r"] == theory.CIT_R_AUTOMORPHISM

    @pytest.mark.parametrize("phi", [hc.MoebiusMap(1, 0.5, 0.5, 1), hc.cayley_parabolic(1, 0.5j)])
    def test_automorphism_weight_with_a_zero_states_its_lower_bound(self, H2, phi):
        psi = hc.polynomial_fn(0.5, -0.9)   # zero at 5/9
        low = max(fixed_point_bounds([0.5, -0.9], phi, 1.0))
        rep = hc.spectral_report(psi, phi, H2)
        assert rep.r is None
        assert rep.citations["r"] == (f"unavailable: r >= {low:.12g} from the boundary fixed points; "
                                      "the weight has a zero in the closed disk")
        with pytest.raises(TheoryUnavailableError):
            hc.spectral_radius_closed(psi, phi, H2)

    def test_parabolic_automorphism_zero_free_weight(self, H2, A1):
        phi = hc.cayley_parabolic(1j, -0.75j)
        assert hc.classify(phi).kind is hc.MapKind.PARABOLIC_AUTOMORPHISM
        for space in (H2, A1):
            cf = hc.spectral_radius_closed(hc.polynomial_fn(1, 0.5), phi, space)
            assert abs(cf.value - abs(1 + 0.5j)) < 1e-12
            assert cf.citation == theory.CIT_R_AUTOMORPHISM

    @pytest.mark.parametrize("kind", list(hc.MapKind))
    def test_one_classify_per_dispatch(self, monkeypatch, H2, kind):
        # Each public closed-form function classifies the map once.
        rng = np.random.default_rng(17)
        phi = maps_of_every_kind(rng)[list(hc.MapKind).index(kind)]
        calls = []

        def counted(f):
            calls.append(f)
            return hc.classify(f)

        monkeypatch.setattr(theory, "classify", counted)
        for psi in (hc.constant_fn(2.0), hc.polynomial_fn(2, 1)):
            for closed_form in (lambda: hc.spectral_radius_closed(psi, phi, H2),
                                lambda: hc.essential_spectral_radius_closed(phi, H2),
                                lambda: hc.norm_bounds(psi, phi, H2),
                                lambda: hc.spectral_report(psi, phi, H2)):
                calls.clear()
                with contextlib.suppress(TheoryUnavailableError):
                    closed_form()
                assert len(calls) == 1

    @pytest.mark.parametrize("label", SPACE_LABELS)
    @DERANDOMIZED
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rotation_conjugation_keeps_the_radii(self, label, seed):
        # C_{psi o rho, rho^-1 phi rho} is unitarily equivalent to C_{psi,phi}
        # for a rotation rho.  Citations print their numbers to 12 digits, so
        # those are compared to 2e-11 and the words exactly.
        space = hc.space_from_label(label)
        rng = np.random.default_rng(seed)
        lam = cmath.exp(2j * math.pi * rng.uniform())
        rho, rho_inv = hc.rotation(lam), hc.rotation(lam.conjugate())
        number = re.compile(r"[-+]?\d+\.?\d*(?:e[-+]?\d+)?")
        for phi in random_self_maps(rng, 2) + maps_of_every_kind(rng):
            psi = hc.polynomial_fn(*random_weight(rng, rng.choice([(0.3, 0.8), (1.25, 3.0)])))
            phi_r = hc.compose(rho_inv, hc.compose(phi, rho))
            assert hc.classify(phi_r).kind is hc.classify(phi).kind
            rep = hc.spectral_report(psi, phi, space)
            rot = hc.spectral_report(hc.compose_with_moebius(psi, rho), phi_r, space)
            for key in ("r", "r_e"):
                a, b = getattr(rep, key), getattr(rot, key)
                assert (a is None) is (b is None), (key, phi, rep.citations, rot.citations)
                assert a is None or abs(a - b) <= 1e-12 * a
                assert number.sub("#", rep.citations[key]) == number.sub("#", rot.citations[key])
                for x, y in zip(number.findall(rep.citations[key]), number.findall(rot.citations[key])):
                    assert math.isclose(float(x), float(y), rel_tol=2e-11)


def unit(rng):
    return cmath.exp(2j * math.pi * rng.uniform())


def random_contraction(rng):
    """alpha_u o (lam z) o alpha_v with |lam| < 1: it maps the closed disk into
    D and fixes a point p, in general not 0."""
    u, v = 0.7 * rng.uniform() * unit(rng), 0.7 * rng.uniform() * unit(rng)
    lam = (0.1 + 0.8 * rng.uniform()) * unit(rng)
    return hc.compose(hc.alpha_p(u), hc.compose(hc.MoebiusMap(lam, 0, 0, 1), hc.alpha_p(v)))


def conjugated_nonauto(rng):
    """alpha_q o ((1 - |c|) z/(c z + 1)) o alpha_q: a hyperbolic non-automorphism
    with interior Denjoy-Wolff point q and a fixed unimodular contact point."""
    q = 0.6 * rng.uniform() * unit(rng)
    a = hc.alpha_p(q)
    return hc.compose(a, hc.compose(hc.hyperbolic_nonauto_form((0.1 + 0.8 * rng.uniform()) * unit(rng)), a))


def contraction_weights(rng, phi, p, space):
    """A polynomial, a rational and a kernel-quotient weight for phi fixing p."""
    pole = (1.25 + 2 * rng.uniform()) * unit(rng)
    return (hc.polynomial_fn(*random_weight(rng)),
            hc.rational_fn([1.0, rng.uniform() * unit(rng)], [1.0, -1 / pole]),
            hc.kernel_quotient_weight(p, rng.uniform(0.3, 2.0) * unit(rng), phi, space))


def _bounds_or_reason(facts):
    """theory._norm_bounds(facts), or the reason it gives for having none."""
    try:
        return theory._norm_bounds(facts)
    except TheoryUnavailableError as exc:
        return str(exc)


class TestInteriorContraction:
    @pytest.mark.parametrize("label", SPACE_LABELS)
    @DERANDOMIZED
    @given(seed=st.integers(0, 2**32 - 1))
    def test_radius_is_the_diagonal_of_the_conjugated_section(self, label, seed):
        # conjugate_to_origin gives phi~(0) = 0, so the section of C_{q,phi~}
        # is lower triangular with diagonal q(0) phi~'(0)^k: r = |q(0)| = |psi(p)|.
        space = hc.space_from_label(label)
        rng = np.random.default_rng(seed)
        phi = random_contraction(rng)
        p = hc.classify(phi).denjoy_wolff.location
        for psi in contraction_weights(rng, phi, p, space):
            q, phi_t = hc.conjugate_to_origin(psi, phi, p, space)
            a = hc.build_weighted_composition(q, phi_t, space, 32).entries
            assert np.abs(np.triu(a, 1)).max() <= 1e-12 * np.abs(a).max()
            rep = hc.spectral_report(psi, phi, space)
            assert abs(rep.r - np.abs(np.diagonal(a)).max()) <= 1e-12 * rep.r
            assert rep.r_e == 0.0
            assert (rep.citations["r"], rep.citations["r_e"]) == (theory.CIT_R_CONTRACTION, theory.CIT_RE_COMPACT)

    @pytest.mark.parametrize("label", SPACE_LABELS)
    @DERANDOMIZED
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rotation_keeps_the_radii_and_the_norm_bounds(self, label, seed):
        space = hc.space_from_label(label)
        rng = np.random.default_rng(seed)
        lam = unit(rng)
        rho, rho_inv = hc.rotation(lam), hc.rotation(lam.conjugate())
        for phi in (random_contraction(rng), conjugated_nonauto(rng)):
            phi_r = hc.compose(rho_inv, hc.compose(phi, rho))
            for psi in contraction_weights(rng, phi, hc.classify(phi).denjoy_wolff.location, space)[:2]:
                psi_r = hc.compose_with_moebius(psi, rho)
                facts, facts_r = theory._Facts(psi, phi, space), theory._Facts(psi_r, phi_r, space)
                for fact in (theory._spectral_radius, theory._essential_radius):
                    x, y = fact(facts), fact(facts_r)
                    assert x.citation == y.citation
                    assert (x.value is None) is (y.value is None)
                    assert x.value is None or abs(x.value - y.value) <= 1e-12 * max(x.value, 1.0)
                a, b = _bounds_or_reason(facts), _bounds_or_reason(facts_r)
                assert type(a) is type(b)
                if isinstance(a, str):
                    assert a == b
                    continue
                for key in ("lower", "upper", "mu"):
                    x, y = getattr(a, key), getattr(b, key)
                    assert abs(x - y) <= 1e-12 * x, key

    @DERANDOMIZED
    @given(gap=st.floats(1.0, 9.0), theta=st.floats(0.0, 2.0 * math.pi),
           modulus=st.floats(0.05, 0.95), arg=st.floats(0.0, 2.0 * math.pi),
           label=st.sampled_from(SPACE_LABELS))
    def test_exact_normal_forms_up_to_the_circle(self, gap, theta, modulus, arg, label):
        # 1 - |p| from 1e-1 to 1e-9: Normal, with r and r_e = 0, or a refusal
        # of the input as unrepresentable; never NotHyponormal and never a p
        # off the disk.  NotSelfMapError: from |p| = 1 - 1e-7 on, the rounded
        # coefficients of forms with |delta| near 1 put the image circle's
        # computed sup more than 1e-10 above 1.
        space = hc.space_from_label(label)
        p = (1.0 - 10.0**-gap) * cmath.exp(1j * theta)
        try:
            phi = hc.normal_form_map(p, modulus * cmath.exp(1j * arg))
            psi = hc.kernel_quotient_weight(p, 0.7, phi, space)
            verdict = hc.classify_weighted(psi, phi, space)
            rep = hc.spectral_report(psi, phi, space)
        except (DegenerateMapError, IndeterminateError, NotSelfMapError):
            return
        assert verdict.outcome is Outcome.NORMAL
        assert rep.r is not None and rep.r_e == 0.0

    def test_near_circle_fixed_point_lies_in_the_disk(self):
        # p and 1/conj(p) are 2e-7 apart, inside the degeneracy band that
        # fixed_points merges onto the circle; classify takes the inner root.
        phi = hc.normal_form_map(1 - 1e-7, 0.4)
        dw = hc.classify(phi).denjoy_wolff
        assert dw.in_disk and not dw.on_boundary
        assert abs(dw.location - (1 - 1e-7)) < 1e-9 and abs(phi(dw.location) - dw.location) < 1e-10
        assert [f.double for f in hc.fixed_points(phi)] == [True]


class TestNormBounds:
    def test_half_shift_hardy(self, H2, half_shift_map):
        nb = hc.norm_bounds(1, half_shift_map, H2)
        assert abs(nb.lower - 1 / math.sqrt(2)) < 1e-13
        assert abs(nb.upper - 1.0) < 1e-13

    def test_half_shift_interior_point(self, H2, half_shift_map):
        nb = hc.norm_bounds(1, half_shift_map, H2)
        assert nb.mu == pytest.approx(1.0)
        assert abs(nb.lower - 1 / math.sqrt(2)) < 1e-13
        assert abs(nb.upper - 1.0) < 1e-13

    def test_half_shift_bergman(self, A0, half_shift_map):
        nb = hc.norm_bounds(1, half_shift_map, A0)
        assert abs(nb.lower - 0.5) < 1e-13

    def test_parabolic_unavailable(self, H2, parabolic_map):
        with pytest.raises(TheoryUnavailableError):
            hc.norm_bounds(1, parabolic_map, H2)

    def test_lower_bound_grid(self, H2, psi_one, parabolic_map):
        at_zero = theory.kernel_ratio_value(psi_one, parabolic_map, H2, 0)
        assert abs(at_zero - 0.5 * math.sqrt(9 / 8)) < 1e-12
        got = hc.norm_lower_bound_grid(psi_one, parabolic_map, H2)
        ratios, _ = theory._kernel_ratios(psi_one, parabolic_map, H2, theory._INEQUALITY_GRID)
        assert got == ratios.max()
        # kernel_ratio_value evaluates a one-point array, which numpy's vector
        # loops may round apart from the grid's array in the last bit (none of
        # 1.19 million points differed with numpy 2.4 on an AVX-512 Xeon); 8 eps
        # allows such a bit in |phi(w)|, the power and |psi(w)| where
        # 1/(1 - |phi(w)|^2) is at most 5.5 (at w = 0.9).
        ones = [kernel_ratio_value(psi_one, parabolic_map, H2, w) for w in theory._INEQUALITY_GRID]
        np.testing.assert_allclose(ones, ratios, rtol=8 * _EPS, atol=0)
        ident = hc.MoebiusMap(1, 0, 0, 1)
        assert abs(hc.norm_lower_bound_grid(1, ident, H2) - 1.0) < 1e-12
        # dilation: the ratio decreases in |w|, so the best point is w = 0
        assert abs(hc.norm_lower_bound_grid(1, hc.dilation(0.5), H2) - 1.0) < 1e-12

    def test_kernel_ratio_matches_adjoint_norm(self, H2, psi_one, parabolic_map):
        kn = hc.kernel_gram_norms(psi_one, parabolic_map, H2, [0.4], [1 / hc.kernel_norm(H2, 0.4)], 128)
        assert abs(kernel_ratio_value(psi_one, parabolic_map, H2, 0.4) - kn.adjoint) < 1e-12


class TestNormBoundStep:
    """classify_weighted's last theorem step: the kernel-grid lower bound on
    ||C|| above max{mu, |psi(p)|}, the bound hyponormality forces, which is
    spectral_report's rule for dropping norm_upper."""

    def test_check_agrees_with_spectral(self, H2):
        # z/(z + 2) fixes 0 and -1; psi = 1 + z/2 has max{mu, |psi(0)|} = 1,
        # and its kernel side is 1.115 at w = 0.4.
        psi, phi = hc.polynomial_fn(1, 0.5), hc.hyperbolic_nonauto_form(0.5)
        v = hc.classify_weighted(psi, phi, H2)
        rep = hc.spectral_report(psi, phi, H2)
        assert (v.outcome, v.citation) == (Outcome.NOT_HYPONORMAL, theory.CIT_NORM_BOUND_EXCEEDED)
        assert v.details == f"norm >= {rep.norm_lower:.12g} on the kernel grid > max{{mu, |psi(p)|}} = 1"
        assert rep.norm_upper is None and rep.citations["norm_upper"].startswith("dropped: ")

    @pytest.mark.parametrize("label", SPACE_LABELS)
    @DERANDOMIZED
    @given(seed=st.integers(0, 2**32 - 1))
    def test_verdicts_are_certified_and_scale_free(self, label, seed):
        # Every verdict of the step has a witness, c psi gets the verdict of
        # psi, and spectral drops norm_upper only where check excludes.
        space = hc.space_from_label(label)
        rng = np.random.default_rng(seed)
        c_form = (0.1 + 0.8 * rng.uniform()) * unit(rng)
        for phi in (conjugated_nonauto(rng), conjugated_nonauto(rng), hc.hyperbolic_nonauto_form(c_form)):
            psi = hc.polynomial_fn(*random_weight(rng))
            c = 10 ** rng.uniform(-8, 8) * unit(rng)
            v = hc.classify_weighted(psi, phi, space)
            scaled = hc.classify_weighted(psi.scale(c), phi, space)
            assert (scaled.outcome, scaled.citation) == (v.outcome, v.citation)
            if hc.spectral_report(psi, phi, space).citations["norm_upper"].startswith("dropped: "):
                assert v.outcome is Outcome.NOT_HYPONORMAL
            if v.citation == theory.CIT_NORM_BOUND_EXCEEDED:
                witness = hc.witness_search(psi, phi, space, budget_seconds=math.inf)
                assert witness is not None and witness.is_conclusive, (phi, psi)

    @pytest.mark.parametrize("excess, excluded", [(1.1e-12, True), (0.9e-12, False)])
    def test_the_bound_is_exceeded_by_1e_12(self, H2, half_shift_map, excess, excluded):
        # On z/(z + 2), psi = 1 + s z has max{mu, |psi(0)|} = max{|1 - s|, 1}
        # = 1 for 0 < s < 2, and a grid bound that rises through 1 near
        # s = 0.04: bisect s to the excess, in the step's own arithmetic.
        def excess_at(s):
            facts = theory._Facts(hc.polynomial_fn(1, s), half_shift_map, H2)
            return facts.grid_lower / facts.bounds.upper - 1.0

        lo, hi = 0.0, 0.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess_at(mid) < excess else (lo, mid)
        assert abs(excess_at(hi) - excess) <= 1e-15
        v = hc.classify_weighted(hc.polynomial_fn(1, hi), half_shift_map, H2)
        assert (v.citation == theory.CIT_NORM_BOUND_EXCEEDED) is excluded
        assert (v.outcome is Outcome.NOT_HYPONORMAL) is excluded


_EPS = float(np.finfo(float).eps)
GRID_SPACES = ("hardy", "bergman:0", "bergman:1", "bergman:1e4")


def _loop_ratio(psi_f, phi, space, w):
    """The kernel ratio at one point in Python scalars, as the grid was read
    point by point before its one array evaluation: the reference.  A float
    power raises OverflowError, and so does a product that overflows."""
    ratio = (1.0 - abs(w) ** 2) / (1.0 - abs(phi(w)) ** 2)
    value = abs(psi_f(w)) * ratio ** (space.gamma / 2.0)
    if not math.isfinite(value):
        raise OverflowError(f"the kernel ratio overflows at w = {w}")
    return value


def _loop_first_violation(psi_f, phi, space, zeta):
    lhs = abs(psi_f(zeta))
    for w in map(complex, theory._INEQUALITY_GRID):
        rhs = _loop_ratio(psi_f, phi, space, w)
        if rhs - lhs > 1e-12 * max(lhs, rhs):
            return w
    return None


def _value_or_error(fn):
    """fn(), or the type of the OverflowError or InvalidParameterError it raised."""
    try:
        return fn()
    except (OverflowError, InvalidParameterError) as exc:
        return type(exc)


def _grid_tolerance(phi, space):
    """Relative tolerance of the kernel ratio's maximum on the grid against
    another rounding of it: 8 eps (1 + g/(1 - m^2)) with g = gamma/2 and m the
    largest |phi(w)| there, the conditioning of the power of (1 - |w|^2)/(1 -
    |phi(w)|^2).  The array and the loop differed by at most 3.9 eps times
    that factor over 300 seeds of TestKernelRatioGrid's draws."""
    m = float(np.abs(phi(theory._INEQUALITY_GRID)).max())
    return 8 * _EPS * (1.0 + space.gamma / 2.0 / (1.0 - m * m))


class TestKernelRatioGrid:
    """The one array evaluation of the kernel ratio against the point-by-point loop it replaced."""

    @pytest.mark.parametrize("label", GRID_SPACES)
    @DERANDOMIZED
    @given(seed=st.integers(0, 2**32 - 1))
    def test_array_matches_the_loop(self, label, seed):
        # The same first violation, or the same error before it, for a
        # random unimodular zeta; the same maximum within _grid_tolerance or
        # the same error.  Where every kernel side of psi and c psi is
        # finite, c psi violates at the same point, and its maximum is |c|
        # times that of psi (measured within 3.1 eps over 300 seeds).
        space = hc.space_from_label(label)
        rng = np.random.default_rng(seed)
        for phi in maps_of_every_kind(rng):
            psi = hc.polynomial_fn(*random_weight(rng))
            zeta, c = unit(rng), 10 ** rng.uniform(-8, 8) * unit(rng)

            def first(f):
                return _value_or_error(lambda: getattr(theory._first_violation(f, phi, space, zeta), "point", None))

            point = first(psi)
            assert point == _value_or_error(lambda: _loop_first_violation(psi, phi, space, zeta))
            low = _value_or_error(lambda: hc.norm_lower_bound_grid(psi, phi, space))
            want = _value_or_error(
                lambda: max(_loop_ratio(psi, phi, space, w) for w in map(complex, theory._INEQUALITY_GRID)))
            if isinstance(want, type):
                assert low is want
                continue
            assert low == want or abs(low - want) <= _grid_tolerance(phi, space) * want
            if math.isfinite(abs(c) * low):
                assert first(psi.scale(c)) == point
                assert hc.norm_lower_bound_grid(psi.scale(c), phi, space) == pytest.approx(
                    abs(c) * low, rel=8 * _EPS, abs=0.0)

    @pytest.mark.parametrize("excess, violated", [(1.1e-12, True), (0.9e-12, False)])
    def test_a_violation_exceeds_by_1e_12(self, H2, excess, violated):
        # On the dilation z/2 the kernel side of 1 - excess z is 1 at w = 0,
        # below 0.997 elsewhere on the grid, and |psi(1)| = 1 - excess.
        v = theory._first_violation(hc.polynomial_fn(1, -excess), hc.dilation(0.5), H2, 1.0)
        assert (v is not None and v.point == 0) if violated else v is None

    def test_the_weight_is_read_before_the_power(self):
        # At alpha = 1e4 the power for 0.8 z + 0.2 first overflows at w = 0.5,
        # where K (1 + z) leaves the double range too.  There, as in the loop,
        # the weight's error is the one raised.  On the grid, K times the
        # finite power 1.04^5001 at w = 0 overflows first, and is refused too.
        phi, space = hc.MoebiusMap(0.8, 0.2, 0, 1), hc.bergman(1e4)
        k = np.finfo(float).max / 1.5 * (1 + 1e-6)
        psi = hc.polynomial_fn(k, k)
        assert _value_or_error(lambda: _loop_ratio(psi, phi, space, 0.5 + 0j)) is InvalidParameterError
        with pytest.raises(InvalidParameterError, match=r"at z = 0\.5\+0j leaves the double range"):
            theory._kernel_ratios(psi, phi, space, np.array([0.5 + 0j]))
        assert _value_or_error(lambda: max(_loop_ratio(psi, phi, space, complex(w))
                                           for w in theory._INEQUALITY_GRID)) is OverflowError
        with pytest.raises(OverflowError, match=r"overflows at w = 0\+0j"):
            hc.norm_lower_bound_grid(psi, phi, space)
        with pytest.raises(OverflowError, match=r"overflows at w = 0\.5\+0j"):
            hc.norm_lower_bound_grid(1, phi, space)

    # The parabolic inequality's worked weight on H^2, and a hyperbolic
    # automorphism near its attracting point 1 on A^2_1, where the grid's
    # largest ratio is 10 eps from the exact one.
    @pytest.mark.parametrize("coeffs, phi, label", [
        ((0.5, -0.25), hc.cayley_parabolic(1, 1), "hardy"),
        ((2, 1), hc.MoebiusMap(1, 0.5, 0.5, 1), "bergman:1"),
    ])
    def test_forty_digit_recomputation(self, coeffs, phi, label):
        space = hc.space_from_label(label)
        psi = hc.polynomial_fn(*coeffs)
        with mpmath.workdps(40):
            a, b, c, d = (mpmath.mpc(x) for x in phi.coefficients())
            exact = []
            for w in map(mpmath.mpc, theory._INEQUALITY_GRID):
                size = abs(mpmath.polyval([mpmath.mpc(x) for x in reversed(coeffs)], w))
                ratio = (1 - abs(w) ** 2) / (1 - abs((a * w + b) / (c * w + d)) ** 2)
                exact.append(float(size * ratio ** (mpmath.mpf(space.gamma) / 2)))
        ratios, _ = theory._kernel_ratios(psi, phi, space, theory._INEQUALITY_GRID)
        tol = _grid_tolerance(phi, space) * max(exact)
        assert np.abs(ratios - exact).max() <= tol
        assert abs(hc.norm_lower_bound_grid(psi, phi, space) - max(exact)) <= tol
        if hc.classify(phi).kind is hc.MapKind.PARABOLIC_NONAUTOMORPHISM:
            v = hc.parabolic_kernel_inequality(psi, phi, space)
            assert v.point == 0 and abs(v.kernel_side_value - exact[0]) <= tol


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
        e1 = np.linalg.eigvals(hc.build_weighted_composition(nf.psi, nf.phi, H2, 64).entries)
        e2 = np.linalg.eigvals(hc.build_weighted_composition(q, pt, H2, 64).entries)
        assert hausdorff_distance(e1, e2) < 1e-6

    def test_requires_fixed_point(self, H2, half_shift_map):
        with pytest.raises(NotAFixedPointError):
            hc.conjugate_to_origin(1, half_shift_map, 0.3, H2)


def _count_grams(monkeypatch):
    """Count the single- and multi-kernel Gram evaluations the search completes."""
    inner = theory.kernel_gram_norms
    counts = {"single": 0, "multi": 0}

    def counted(psi, phi, space, points, coeffs, n):
        norms = inner(psi, phi, space, points, coeffs, n)
        counts["multi" if len(points) > 1 else "single"] += 1
        return norms

    monkeypatch.setattr(theory, "kernel_gram_norms", counted)
    return counts


def _one_trial_at_a_time(psi, phi, space, order, seed=1729):
    """The witness search with a loop over its 400 stage-2 trials, each
    solving its own 2x2 or 3x3 eigenproblem: the reference for the sliced
    stage 2.  No deadline."""
    images = KernelImages(psi, phi, space)
    grid = theory._radial_grid((0.15, 0.3, 0.45, 0.6, 0.75, 0.9))
    ranked = []
    for w in grid:
        witness = theory._norms_with_escalation(images, phi, space, [w], [1.0 / hc.kernel_norm(space, w)], order)
        if witness is None:
            continue
        if witness.is_conclusive:
            return witness
        ranked.append((witness.adjoint_norm / max(witness.forward_norm, 1e-300), w))
    ranked.sort(key=lambda t: -t[0])
    top = [w for _ratio, w in ranked[:20]] or grid
    rng = np.random.default_rng(seed)
    for trial in range(1, 401):
        m = 2 if trial % 2 == 1 else 3
        pts = []
        while len(pts) < m:
            pool = top if rng.random() < 0.7 else grid
            w = pool[int(rng.integers(0, len(pool)))]
            if all(abs(w - u) > 1e-9 for u in pts):
                pts.append(w)
        kernel, adjoint, forward = kernel_gram_forms(images, phi, space, pts, order)
        reg = 1e-12 * float(np.trace(forward).real) / m
        try:
            _lam, c = theory._top_eigenpair(adjoint, forward + reg * np.eye(m))
        except np.linalg.LinAlgError:
            continue
        nf = float(np.real(np.einsum("i,ij,j->", np.conj(c), kernel, c)))
        if nf <= 0:
            continue
        c = c / math.sqrt(nf)
        witness = theory._norms_with_escalation(images, phi, space, pts, [complex(x) for x in c], order)
        if witness is not None and witness.is_conclusive:
            return witness
    return None


def _near_constant_weight_cases():
    """(weight coefficients, map, space): psi = 1 + eps (a z + b z^2) with eps
    log-uniform in [1e-3, 1e-1] on hyperbolic non-automorphisms, three per
    space from a fixed seed, where stage 1 often finds no witness and stage 2
    does; first the stage-2 find the tier-1 workflow runs, last a dilation,
    where no witness exists."""
    cases = [((1, 0.01), hc.hyperbolic_nonauto_form(0.5), hc.hardy())]
    rng = np.random.default_rng(2215)
    for k in range(12):
        c = rng.uniform(0.05, 0.95) * cmath.exp(2j * math.pi * rng.uniform())
        eps = 10 ** rng.uniform(-3, -1)
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        space = (hc.hardy(), hc.bergman(0), hc.bergman(1), hc.bergman(-0.5))[k % 4]
        cases.append(((1, eps * a, eps * b), hc.hyperbolic_nonauto_form(c), space))
    return cases + [((1,), hc.dilation(0.5), hc.hardy())]


class TestWitnessSearch:
    def test_parabolic_weighted_found(self, H2, psi_one, parabolic_map):
        w = hc.witness_search(psi_one, parabolic_map, H2, budget_seconds=30, order=128)
        assert w is not None and w.is_conclusive
        assert w.adjoint_norm > w.forward_norm

    def test_origin_moving_map_found_at_zero(self, H2):
        w = hc.witness_search(1, hc.alpha_p(0.3), H2, budget_seconds=30, order=64)
        assert w is not None and w.is_conclusive
        assert w.points == (0,)

    def test_dilation_none(self, H2, monkeypatch):
        # None because all 97 grid kernels and 400 trials failed, not because
        # the budget ran out: an unlimited budget gives the same answer.
        grams = _count_grams(monkeypatch)
        assert hc.witness_search(1, hc.dilation(0.5), H2, budget_seconds=2.5, order=48) is None
        assert grams == {"single": 97, "multi": 400}
        assert hc.witness_search(1, hc.dilation(0.5), H2, budget_seconds=3600, order=48) is None

    # Stage 2 at the benchmark's start order and at the largest one: no
    # witness for the dilation, and one of at least two kernels for a weight
    # off a constant by 0.01 z.
    @pytest.mark.parametrize("order", [48, 1024])
    def test_stage_two_decides(self, H2, order):
        assert hc.witness_search(1, hc.dilation(0.5), H2, order=order) is None
        w = hc.witness_search(hc.polynomial_fn(1, 0.01), hc.hyperbolic_nonauto_form(0.5), H2, order=order)
        assert w is not None and w.is_conclusive and len(w.points) >= 2

    # order is where the search starts: on H^2 with a polynomial weight the
    # norms are closed-form, so the witness keeps it as given.
    @pytest.mark.parametrize("order", [8, 128])
    def test_order_starts_the_witness_search(self, H2, order):
        w = hc.witness_search(hc.polynomial_fn(2, 1), hc.rotation(1j), H2, order=order)
        assert w is not None and w.is_conclusive
        assert w.order == order

    # At alpha = 350 the tail at order 1024 is about 2.5e-323, a subnormal
    # above 0; a search from SEARCH_ORDER certifies at order 128, tail 2e-44.
    def test_tail_bound_below_the_double_range_is_positive(self):
        w = hc.witness_search(hc.polynomial_fn(2, 1), hc.rotation(1j), hc.bergman(350), order=1024)
        assert w is not None and w.is_conclusive
        assert w.tail_bound > 0.0

    def test_kernel_images_that_cancel_still_certify(self):
        w = hc.witness_search(1, hc.hyperbolic_nonauto_form(0.95), hc.bergman(0), order=128)
        assert w is not None and w.is_conclusive

    @staticmethod
    def _clock_past_the_deadline_from(monkeypatch, reading):
        """A clock for theory that reads 0 until its reading-th call (the
        first, 0, sets the deadline) and 2 from then on, past a 1 s budget."""
        calls = itertools.count()
        monkeypatch.setattr(theory, "time", SimpleNamespace(monotonic=lambda: 0.0 if next(calls) < reading else 2.0))

    # Stage 1 reads the clock before each of the 97 grid points, stage 2
    # before each of its 400 trials; the dilation has no witness, so every
    # point and trial before the deadline costs exactly one Gram evaluation.
    @pytest.mark.parametrize("k", [0, 1, 50, 96])
    def test_deadline_before_a_grid_point(self, H2, monkeypatch, k):
        grams = _count_grams(monkeypatch)
        self._clock_past_the_deadline_from(monkeypatch, 1 + k)
        assert hc.witness_search(1, hc.dilation(0.5), H2, budget_seconds=1.0, order=48) is None
        assert grams == {"single": k, "multi": 0}

    @pytest.mark.parametrize("j", [0, 1, 150, 399])
    def test_deadline_before_a_stage_two_trial(self, H2, monkeypatch, j):
        grams = _count_grams(monkeypatch)
        self._clock_past_the_deadline_from(monkeypatch, 1 + 97 + j)
        assert hc.witness_search(1, hc.dilation(0.5), H2, budget_seconds=1.0, order=48) is None
        assert grams == {"single": 97, "multi": j}

    @pytest.mark.parametrize("order, tried", [
        (64, [64, 128, 256, 512, 1024]),
        (48, [48, 96, 192, 384, 768, 1024]),
        (1024, [1024]),
    ])
    def test_escalation_gives_up_past_the_truncation_cap(self, H2, monkeypatch, order, tried):
        orders = []

        def lossy(psi, phi, space, points, coeffs, n):
            orders.append(n)
            raise PrecisionLossError("tail bound not within 10% of the norm")

        monkeypatch.setattr(theory, "kernel_gram_norms", lossy)
        phi = hc.dilation(0.5)
        images = KernelImages(1, phi, H2)
        assert theory._norms_with_escalation(images, phi, H2, [0.3], [1.0], order) is None
        assert orders == tried

    def test_escalation_reaches_the_truncation_cap_from_any_order(self, H2, monkeypatch):
        # 600 is no power-of-two fraction of the cap: its double, 1200, is
        # past it, so the next order tried is the cap itself.
        orders = []

        def lossy_below_the_cap(psi, phi, space, points, coeffs, n):
            orders.append(n)
            if n < MAX_TRUNCATION:
                raise PrecisionLossError("tail bound not within 10% of the norm")
            return KernelNorms(1.0, 2.0, 0.0)

        monkeypatch.setattr(theory, "kernel_gram_norms", lossy_below_the_cap)
        phi = hc.dilation(0.5)
        w = theory._norms_with_escalation(KernelImages(1, phi, H2), phi, H2, [0.3], [1.0], 600)
        assert orders == [600, 1024]
        assert w is not None and w.order == 1024

    def test_normal_form_none(self, H2, monkeypatch):
        nf = hc.normal_form(0.3, 0.4, 1, H2)
        grams = _count_grams(monkeypatch)
        assert hc.witness_search(nf.psi, nf.phi, H2, budget_seconds=2.5, order=48) is None
        assert grams == {"single": 97, "multi": 400}
        assert hc.witness_search(nf.psi, nf.phi, H2, budget_seconds=3600, order=48) is None

    # NaN would switch the deadline off; zero or less would end the search unrun.
    @pytest.mark.parametrize("budget", [math.nan, 0.0, -1.0, -math.inf])
    def test_budget_must_be_positive(self, H2, budget):
        with pytest.raises(InvalidParameterError, match="budget"):
            WeightedOptions(budget_seconds=budget)
        with pytest.raises(InvalidParameterError, match="budget"):
            hc.witness_search(hc.polynomial_fn(2, 1), hc.rotation(1j), H2, budget_seconds=budget, order=64)

    def test_unrepresentable_kernel_grams_refused_before_any_expansion(self, monkeypatch):
        # At gamma = 10002 the Gram (1 - 0.81)^-gamma at the grid's outer ring
        # exceeds the double range; at gamma = 427 it does not.
        def refuse(*args):
            raise AssertionError("expanded a kernel image")

        monkeypatch.setattr(theory, "KernelImages", refuse)
        with pytest.raises(InvalidParameterError, match="kernel Gram"):
            hc.witness_search(hc.polynomial_fn(2, 1), hc.rotation(1j), hc.bergman(1e4), order=64)
        theory._require_representable_grams(hc.bergman(425))
        with pytest.raises(InvalidParameterError, match="double range"):
            theory._require_representable_grams(hc.bergman(426))

    def test_infinite_budget_means_no_deadline(self, H2):
        assert WeightedOptions(budget_seconds=math.inf).budget_seconds == math.inf
        runs = [hc.witness_search(hc.polynomial_fn(2, 1), hc.rotation(1j), H2, budget_seconds=b, order=64)
                for b in (math.inf, 600)]
        assert runs[0] is not None and repr(runs[0]) == repr(runs[1])

    def test_sliced_stage_two_finds_what_one_trial_at_a_time_finds(self):
        outcomes = []
        for coeffs, phi, space in _near_constant_weight_cases():
            psi = hc.polynomial_fn(*coeffs)
            got = hc.witness_search(psi, phi, space, budget_seconds=3600, order=48)
            want = _one_trial_at_a_time(psi, phi, space, 48)
            assert (got is None) == (want is None)
            outcomes.append(None if got is None else len(got.points))
            if got is None:
                continue
            assert (got.points, got.order) == (want.points, want.order)
            for x, y in ((got.adjoint_norm, want.adjoint_norm), (got.forward_norm, want.forward_norm)):
                assert abs(x - y) <= 1e-12 * abs(y)
        # The sample must reach stage 2, and exhaust it once, to test it.
        assert sum(k is not None and k > 1 for k in outcomes) >= 3 and None in outcomes

    @pytest.mark.parametrize("coeffs, phi, found", [
        ((1,), hc.dilation(0.5), False),
        ((1, 0.01), hc.hyperbolic_nonauto_form(0.5), True),
    ])
    def test_stage_two_reads_one_grid_gram_of_stage_one_images(self, H2, monkeypatch, coeffs, phi, found):
        # Stage 2 slices every trial's forms from one _table_forms call over
        # the search grid.  Each grid point's kernel image was expanded by
        # stage 1 at the search's order, so that call expands none.
        calls, expanded = [], []
        forms, composed = theory._table_forms, matrixrep.composed_kernel
        monkeypatch.setattr(matrixrep, "composed_kernel", lambda *a: expanded.append(a) or composed(*a))

        def counted(images, points, n):
            before = len(expanded)
            out = forms(images, points, n)
            calls.append((points, n, len(expanded) - before))
            return out

        monkeypatch.setattr(theory, "_table_forms", counted)
        w = hc.witness_search(hc.polynomial_fn(*coeffs), phi, H2, budget_seconds=3600, order=48)
        assert (w is not None) == found and (w is None or len(w.points) > 1)
        assert calls == [(theory._SEARCH_GRID, 48, 0)]

    @pytest.mark.parametrize(
        "coeffs, phi",
        [((1, 0.9), hc.dilation(0.9)), ((1, 0.5), hc.hyperbolic_nonauto_form(0.5))],
    )
    def test_witness_reproduces_at_its_order(self, A0, coeffs, phi):
        # order 8 is too short for these kernels' tails, so the search escalates;
        # the witness must record the order its norms were certified at.  On
        # A^2_0 the forward norms are truncated series (on H^2 a polynomial
        # weight's are closed-form and never escalate).
        psi = hc.polynomial_fn(*coeffs)
        w = hc.witness_search(psi, phi, A0, budget_seconds=30, order=8)
        assert w is not None and w.is_conclusive and w.order > 8
        kn = hc.kernel_gram_norms(psi, phi, A0, w.points, w.coefficients, w.order)
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
