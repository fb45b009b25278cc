"""Weights, kernels, inner products, Krein data on the two space families."""

import cmath
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

import hypocomp as hc
from hypocomp.errors import OutsideDiskError

from conftest import DERANDOMIZED


def monomial_norm_sq_oracle(alpha, n):
    """(alpha+1) * integral_0^1 t^n (1-t)^alpha dt, the Bergman monomial norm."""
    val, err = quad(lambda t: t**n * (1 - t) ** alpha, 0, 1, limit=200)
    assert err < 1e-7
    return (alpha + 1) * val


class TestBeta:
    def test_hardy_trivial(self, H2):
        assert np.all(hc.beta_array(H2, 50) == 1.0)

    def test_hardy_shortcut_is_the_product(self, H2):
        # An alpha that adds like -1.0 but fails the shortcut's == test, so
        # the cumulative product itself runs at alpha = -1.
        class Unequal(float):
            def __eq__(self, other):
                return False

            __hash__ = float.__hash__

        product = hc.beta_array(SimpleNamespace(alpha=Unequal(-1.0)), 4096)
        assert np.array_equal(product, np.ones(4096))
        assert np.array_equal(hc.beta_array(H2, 4096), product)

    def test_bergman_alpha0_first(self, A0):
        b = hc.beta_array(A0, 2)
        assert abs(b[1] ** 2 - 0.5) < 1e-14
        assert abs(b[0] - 1.0) < 1e-14

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
    def test_golden_beta_integral(self, alpha):
        # the weight formula is frozen against the norm-integral oracle
        b = hc.beta_array(hc.bergman(alpha), 11)
        for n in range(11):
            oracle = monomial_norm_sq_oracle(alpha, n)
            assert abs(b[n] ** 2 - oracle) < 5e-9

    def test_monotone_decreasing(self, A0, A1):
        for space in (A0, A1):
            vals = hc.beta_array(space, 200)
            assert np.all(np.diff(vals) < 0)

    def test_large_n_no_overflow(self, A1):
        v = hc.beta_array(A1, 5001)[-1]
        assert 0 < v < 1

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.3, 0.7, 1.0, 2.9])
    def test_matches_mpmath(self, alpha):
        # beta(k)^2 = prod_{j<=k} j / (j + alpha + 1) in 40 digits, for the
        # binary value of alpha; a log-gamma route loses up to 1e-11 here.
        n = 5120
        got = hc.beta_array(hc.bergman(alpha), n)
        with mpmath.workdps(40):
            shift = mpmath.mpf(alpha) + 1
            square = mpmath.mpf(1)
            worst = 0.0
            for k in range(n):
                if k:
                    square *= k / (k + shift)
                ref = mpmath.sqrt(square)
                worst = max(worst, float(abs(mpmath.mpf(got[k]) - ref) / ref))
        assert worst <= 1e-14


class TestKernel:
    def test_origin(self, H2, A1):
        for space in (H2, A1):
            k = hc.kernel(space, 0, 6)
            assert np.allclose(k, [1, 0, 0, 0, 0, 0])

    def test_hardy_geometric(self, H2):
        k = hc.kernel(H2, 0.5, 5)
        assert np.allclose(k, [0.5**n for n in range(5)])

    def test_bergman_weighted_entries(self, A0):
        k = hc.kernel(A0, 0.5, 6)
        expected = [0.5**n * math.sqrt(n + 1) for n in range(6)]
        assert np.allclose(k, expected)

    def test_conjugation_convention(self, H2):
        w = 0.3 + 0.4j
        k = hc.kernel(H2, w, 4)
        assert np.allclose(k, [w.conjugate() ** n for n in range(4)])

    def test_read_only_array(self, H2, A1):
        w = 0.3 - 0.6j
        for space in (H2, A1):
            k = hc.kernel(space, w, 7)
            assert isinstance(k, np.ndarray) and k.dtype == complex and not k.flags.writeable
            assert np.array_equal(k, np.power(w.conjugate(), np.arange(7)) / hc.beta_array(space, 7))

    def test_outside_disk(self, H2):
        # NaN compares false both ways, so the gate must not read |w| >= 1.
        for w in (1.0, complex("nan")):
            with pytest.raises(OutsideDiskError):
                hc.kernel(H2, w, 8)
            with pytest.raises(OutsideDiskError):
                hc.kernel_norm(H2, w)


class TestKernelNorm:
    def test_values(self, H2):
        assert hc.kernel_norm(H2, 0) == 1.0
        assert abs(hc.kernel_norm(H2, 0.6) - 1.25) < 1e-14
        assert abs(hc.kernel_norm(hc.bergman(1), 0.5) - 0.75 ** (-1.5)) < 1e-12

    def test_truncated_sum_converges(self, H2, A0, A1):
        for space in (H2, A0, A1):
            for r in (0.2, 0.5, 0.8):
                for k in range(8):
                    w = r * cmath.exp(2j * math.pi * k / 8)
                    total = np.linalg.norm(hc.kernel(space, w, 400)) ** 2
                    target = hc.kernel_norm(space, w) ** 2
                    assert abs(total - target) / target < 1e-8


class TestInnerProduct:
    # <f, g> = sum f_n conj(g_n) in orthonormal coordinates, i.e. np.vdot(g, f).
    def test_kernel_reproducing_pair(self, H2):
        kw = hc.kernel(H2, 0.5, 200)
        kv = hc.kernel(H2, 0.4, 200)
        got = np.vdot(kv, kw)
        assert abs(got - 1.25) < 0.2**200 + 1e-13

    def test_reproducing_property_polynomials(self, H2, A0):
        rng = np.random.default_rng(4)
        for space in (H2, A0):
            coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            # Taylor coefficients c_n are orthonormal coordinates c_n beta(n).
            vec = coeffs * hc.beta_array(space, 12)
            for _ in range(10):
                w = 0.8 * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform())
                kv = hc.kernel(space, w, 12)
                value = np.polyval(coeffs[::-1], w)
                assert abs(np.vdot(kv, vec) - value) < 1e-12


class TestSpaceSpec:
    def test_gamma(self):
        assert hc.hardy().gamma == 1.0
        assert hc.bergman(0).gamma == 2.0
        assert hc.bergman(1).gamma == 3.0

    def test_hardy_is_alpha_minus_one(self):
        assert hc.hardy() == hc.SpaceSpec(-1.0) and hc.hardy().gamma == 1.0

    def test_labels_roundtrip(self):
        for label in ("hardy", "bergman:0", "bergman:1", "bergman:1.5", "bergman:0.7",
                      "bergman:0.5", "bergman:-0.5", "bergman:2.9", "bergman:10000"):
            assert hc.space_from_label(label).label() == label

    # The shortest digits that read back as alpha, where %g kept six.
    @pytest.mark.parametrize("alpha", [-0.999999999999, 0.30000000000000004, 1 / 3, 1e-300, 1e300])
    def test_label_keeps_every_digit(self, alpha):
        assert hc.bergman(alpha).label() == f"bergman:{alpha!r}"

    @DERANDOMIZED
    @given(st.floats(min_value=-1.0, allow_nan=False, allow_infinity=False))
    def test_label_reads_back_as_the_space(self, alpha):
        space = hc.hardy() if alpha == -1.0 else hc.bergman(alpha)
        assert hc.space_from_label(space.label()) == space

    def test_alpha_range(self):
        with pytest.raises(hc.InvalidParameterError, match="alpha > -1"):
            hc.bergman(-1)


class TestKreinData:
    def test_g_h_power_structure(self, half_shift_map):
        for space in (hc.hardy(), hc.bergman(0.5)):
            kd = hc.krein_adjoint(half_shift_map, space)
            gamma = space.gamma
            # g and h carry the exponents -gamma and gamma
            assert kd.g.factors[0][1] == -gamma
            assert kd.h.factors[0][1] == gamma
            # h(0) = d > 0 and g(0) = d^(-gamma) > 0 for the chosen representative
            assert kd.h(0).real > 0 and abs(kd.h(0).imag) < 1e-14
            assert kd.g(0).real > 0

    def test_negative_d_map_is_rotated(self):
        # z/(z-2) stores d < 0; the Krein representative must still be branch safe
        kd = hc.krein_adjoint(hc.MoebiusMap(1, 0, 1, -2), hc.bergman(0.5))
        assert kd.h(0).real > 0
