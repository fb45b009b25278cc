"""Series recurrences, power factors, composition, zero-freeness."""

import cmath
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypocomp as hc
from hypocomp import funcalg
from hypocomp.errors import (
    BranchViolationError,
    IndeterminateError,
    InvalidParameterError,
    PoleAtOriginError,
    PoleEncounteredError,
)
from hypocomp.funcalg import (
    _ZERO_TEST_GUARD,
    _ZERO_TEST_RADIUS,
    _ZERO_TEST_SAMPLES,
    boundary_sup,
    is_value_constant,
    min_singularity_radius,
    series_tail_bound,
)

from conftest import DERANDOMIZED, fft_coefficients


def long_division_oracle(num, den, n):
    """Exact rational long division over Fractions."""
    num = [Fraction(x) for x in num] + [Fraction(0)] * n
    den = [Fraction(x) for x in den]
    out = []
    for k in range(n):
        c = num[k] / den[0]
        out.append(c)
        for j in range(1, len(den)):
            if k + j < len(num):
                num[k + j] -= c * den[j]
    return out


def rational_series(num, den, n):
    """The series of num/den through the one expansion entry point."""
    return hc.expand_analytic(hc.rational_fn(num, den), n)


class TestExpandRational:
    def test_geometric(self):
        series = rational_series((1,), (1, -0.5), 4)
        assert np.allclose(series, [1, 0.5, 0.25, 0.125], atol=1e-15)

    def test_psi_one(self):
        series = rational_series((0.5, -0.25), (1,), 3)
        assert np.allclose(series, [0.5, -0.25, 0], atol=1e-15)

    def test_parabolic_symbol(self):
        oracle = long_division_oracle([1, 1], [3, -1], 3)
        assert oracle == [Fraction(1, 3), Fraction(4, 9), Fraction(4, 27)]
        series = rational_series((1, 1), (3, -1), 3)
        assert np.allclose(series, [float(f) for f in oracle], atol=1e-15)

    def test_matches_quadrature_oracle(self):
        r = hc.rational((2, -1, 0.5), (4, 1, -0.25))
        series = hc.expand_analytic(hc.AnalyticFunction(r), 24)
        oracle = fft_coefficients(r, 24, radius=0.8)
        assert np.allclose(series, oracle, atol=1e-10)

    @pytest.mark.parametrize("num, den", [((2, -1, 0.5), (4, 1.5)), ((1,), (1, -0.99)), ((0.5, 3), (-2, 1))])
    def test_linear_denominator_matches_long_division(self, num, den):
        # A degree-1 denominator takes the closed-form geometric series.
        oracle = np.array([float(c) for c in long_division_oracle(num, den, 200)])
        series = rational_series(num, den, 200)
        assert np.allclose(series, oracle, rtol=1e-13, atol=0)

    def test_pole_at_origin(self):
        with pytest.raises(PoleAtOriginError):
            hc.rational((1,), (0, 1))

    def test_pole_in_disk_rejected(self):
        # The one denominator gate is construction: no symbol, so no series.
        with pytest.raises(PoleEncounteredError):
            hc.rational_fn((1,), (1, -2))


@st.composite
def disk_self_maps(draw):
    """alpha_p(t z) = (p - t z)/(1 - conj(p) t z): |p| <= 0.9, 0.05 <= |t| <= 1."""
    p, t = (draw(st.floats(lo, hi)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
            for lo, hi in ((0.0, 0.9), (0.05, 1.0)))
    return hc.MoebiusMap(-t, p, -p.conjugate() * t, 1)


class TestComposeWithMoebius:
    def test_kernel_with_identity(self):
        k = hc.kernel_function(0.3, 1.0)
        kc = hc.compose_with_moebius(k, hc.MoebiusMap(1, 0, 0, 1))
        for z in (0, 0.4, -0.2 + 0.5j):
            assert abs(kc(z) - k(z)) < 1e-14

    def test_kernel_with_dilation(self):
        kc = hc.compose_with_moebius(hc.kernel_function(0.3, 1.0), hc.dilation(0.5))
        for z in (0, 0.8, 0.5j):
            assert abs(kc(z) - 1 / (1 - 0.15 * z)) < 1e-14

    def test_kernel_with_half_shift(self, half_shift_map):
        kc = hc.compose_with_moebius(hc.kernel_function(0.3, 1.0), half_shift_map)
        for z in (0, 0.9, -0.7, 0.3j):
            assert abs(kc(z) - (z + 2) / (0.7 * z + 2)) < 1e-13

    def test_point_consistency_grid(self, parabolic_map):
        f = hc.rational_fn((1, 0.5), (2, -0.3)) * hc.kernel_function(0.4j, 2.5)
        fc = hc.compose_with_moebius(f, parabolic_map)
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = 0.95 * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform())
            assert abs(fc(z) - f(parabolic_map(z))) < 1e-12

    def test_branch_violation_detected(self):
        # -1 + 0.5i + 0.8z maps the closed disk across the cut; composed with the
        # automorphism alpha_p sending 0 to p, where r(p) = -1.2, its image disk
        # is the same and its value at the origin lies on the cut.
        r = hc.rational((-1 + 0.5j, 0.8))
        p = (-0.2 - 0.5j) / 0.8
        composed = funcalg.compose_rational_moebius(r, hc.alpha_p(p))
        assert abs(composed(0) + 1.2) < 1e-14
        for factor in (r, composed):
            with pytest.raises(BranchViolationError):
                hc.AnalyticFunction(hc.rational((1,)), ((factor, 0.5),))

    @DERANDOMIZED
    @given(disk_self_maps(), st.sampled_from(("kernel", "linear", "constant")),
           *[st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))] * 3)
    def test_linear_factors_take_the_coefficient_product(self, phi, form, u, v, w):
        # Every kernel, kernel image and kernel quotient composes a factor of
        # degree at most one: its coefficients must be exactly these Python
        # complex products, which keeps the CLI output machine-independent.
        q, p, t = (complex(*x) for x in (u, v, w))
        s = 4.0 + 0.5 * p  # |s| > 0.9 |t| >= |t phi(0)|: the composed den(0) = s d + t b is not 0
        num, den = {"kernel": ((1, q), (1,)), "linear": ((p, q), (s, t)), "constant": ((p,), (s, t))}[form]
        r = hc.rational(num, den)
        composed = funcalg.compose_rational_moebius(r, phi)
        if max(r.num.degree, r.den.degree) == 0:
            assert composed == r
            return
        (c0, c1), (s0, s1) = (tuple(complex(x) for x in c) + (0j,) * (2 - len(c)) for c in (num, den))
        a, b, c, d = phi.coefficients()
        assert composed.num == hc.Polynomial((c0 * d + c1 * b, c0 * c + c1 * a))
        assert composed.den == hc.Polynomial((s0 * d + s1 * b, s0 * c + s1 * a))

    @DERANDOMIZED
    @given(disk_self_maps(), st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_higher_degree_bases_match_pointwise(self, phi, degree, seed):
        # Error relative to sum |c_k| |phi(z)|^k, the size of the terms that
        # r(phi(z)) sums; bases of degree 16 and more exceed 1e-10.
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        composed = funcalg.compose_rational_moebius(hc.rational(coeffs), phi)
        z = 0.95 * np.sqrt(rng.uniform(size=32)) * np.exp(2j * math.pi * rng.uniform(size=32))
        w = phi(z)
        size = sum(abs(ck) * np.abs(w) ** k for k, ck in enumerate(coeffs))
        assert np.all(np.abs(composed(z) - hc.Polynomial(tuple(coeffs))(w)) <= 1e-10 * size)


class TestExpandAnalytic:
    def test_hardy_kernel(self):
        ts = hc.expand_analytic(hc.kernel_function(0.5, 1.0), 4)
        assert np.allclose(ts, [1, 0.5, 0.25, 0.125], atol=1e-14)

    def test_bergman_kernel(self):
        ts = hc.expand_analytic(hc.kernel_function(0.5, 2.0), 3)
        assert np.allclose(ts, [1, 1, 0.75], atol=1e-14)

    def test_constant_krein_g(self, half_shift_map, H2):
        kd = hc.krein_adjoint(half_shift_map, H2)
        ts = hc.expand_analytic(kd.g, 6)
        # with the normalized representative (d=1) the g line is constant 1
        assert np.allclose(ts, [1, 0, 0, 0, 0, 0], atol=1e-14)

    def test_admitted_symbol_expands_without_zero_test(self, H2, monkeypatch):
        # Construction already tested every denominator; expanding the
        # symbol, or building a section from it, does not test them again.
        psi = hc.rational_fn((1, 0.3), (2, -0.5)) * hc.kernel_function(0.35, 1.5)
        phi = hc.MoebiusMap(0.5, 0.1, -0.2, 1)
        series = hc.expand_analytic(psi, 64)
        section = hc.build_weighted_composition(psi, phi, H2, 32).entries

        def refuse(p):
            raise AssertionError("zero test on an admitted denominator")

        monkeypatch.setattr(funcalg, "_poly_zero_free", refuse)
        assert np.array_equal(hc.expand_analytic(psi, 64), series)
        assert np.array_equal(hc.build_weighted_composition(psi, phi, H2, 32).entries, section)
        with pytest.raises(AssertionError):
            hc.AnalyticFunction(psi.base)

    def test_partial_sums_match_evaluation(self):
        f = hc.rational_fn((1, 0.3), (2, -0.5)) * hc.kernel_function(0.35, 1.5)
        ts = hc.expand_analytic(f, 128)
        rho = 1 / min_singularity_radius(f)
        assert 0 < rho < 1
        rng = np.random.default_rng(8)
        for _ in range(30):
            z = 0.7 * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform())
            psum = np.polyval(ts[::-1], z)
            assert abs(psum - f(z)) <= 10 * rho**128 / (1 - rho) + 1e-13

    def test_matches_quadrature_oracle(self):
        f = hc.kernel_function(0.4 + 0.2j, 2.5) * hc.rational_fn((1, -0.2), (1, 0.4))
        ts = hc.expand_analytic(f, 20)
        oracle = fft_coefficients(f, 20, radius=0.8)
        assert np.allclose(ts, oracle, atol=1e-10)


def linear_power_oracle(r, gamma, n):
    """The first n coefficients of r^gamma, r = (p1 + q1 z)/(p2 + q2 z), at 40 digits.

    Not from the binomial series: f = r^gamma solves A f' = K f with
    A = (p1 + q1 z)(p2 + q2 z) and K = gamma (q1 p2 - q2 p1), so
    A0 (k+1) f_{k+1} = (K - A1 k) f_k - A2 (k-1) f_{k-1}, from f_0 = r(0)^gamma.
    """
    with mpmath.workdps(40):
        p1, q1 = (mpmath.mpc(x) for x in (r.num.coefficients + (0j,))[:2])
        p2, q2 = (mpmath.mpc(x) for x in (r.den.coefficients + (0j,))[:2])
        g = mpmath.mpf(gamma)
        a0, a1, a2 = p1 * p2, p1 * q2 + q1 * p2, q1 * q2
        k_ = g * (q1 * p2 - q2 * p1)
        f, prev = [mpmath.power(p1 / p2, g)], mpmath.mpc(0)
        for k in range(n - 1):
            f.append(((k_ - a1 * k) * f[k] - a2 * (k - 1) * prev) / (a0 * (k + 1)))
            prev = f[k]
        return np.array([complex(x) for x in f])


def binomial_product_oracle(r, gamma, n, dps):
    """The first n coefficients of r^gamma, r = (p1 + q1 z)/(p2 + q2 z), at dps digits:
    r(0)^gamma times the Cauchy product of the binomial series of
    (1 + (q1/p1) z)^gamma and (1 + (q2/p2) z)^-gamma, a derivation apart from
    the differential equation of linear_power_oracle and of the library."""
    with mpmath.workdps(dps):
        p1, q1 = (mpmath.mpc(x) for x in (r.num.coefficients + (0j,))[:2])
        p2, q2 = (mpmath.mpc(x) for x in (r.den.coefficients + (0j,))[:2])
        g = mpmath.mpf(gamma)
        b1 = [mpmath.binomial(g, k) * (q1 / p1) ** k for k in range(n)]
        b2 = [mpmath.binomial(-g, k) * (q2 / p2) ** k for k in range(n)]
        lead = mpmath.power(p1 / p2, g)
        return np.array([complex(lead * mpmath.fsum(b1[j] * b2[k - j] for j in range(k + 1))) for k in range(n)])


@st.composite
def kernel_image_factors(draw):
    """(K_w o phi, gamma): |w| <= 0.95, phi a hyperbolic automorphism
    (z + t u*)/(1 + t u z) or a dilation, gamma one of the spaces' exponents."""
    w = draw(st.floats(0.0, 0.95)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    gamma = draw(st.sampled_from((1.0, 2.0, 2.7, 3.0)))
    u = cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    if draw(st.booleans()):
        t = draw(st.floats(0.05, 0.95))
        phi = hc.MoebiusMap(1, t * u.conjugate(), t * u, 1)
    else:
        phi = hc.dilation(draw(st.floats(0.05, 1.0)) * u)
    return hc.compose_with_moebius(hc.kernel_function(w, gamma), phi)


def map_of_class(kind, angle, p_modulus, p_angle, r, t):
    """A linear-fractional self-map of the MapKind kind, from u = e^(i angle)
    with angle in [0.1, 2 pi - 0.1], p = p_modulus e^(i p_angle) with
    p_modulus in [0, 0.9], r in [0.05, 0.95] and t in [0.1, 2]."""
    u = cmath.exp(1j * angle)
    p = p_modulus * cmath.exp(1j * p_angle)
    build = {
        hc.MapKind.IDENTITY: lambda: hc.MoebiusMap(1, 0, 0, 1),
        # The rotation by u conjugated by alpha_p fixes p.
        hc.MapKind.ELLIPTIC_AUTOMORPHISM: lambda: hc.compose(hc.alpha_p(p), hc.compose(hc.rotation(u), hc.alpha_p(p))),
        hc.MapKind.HYPERBOLIC_AUTOMORPHISM: lambda: hc.MoebiusMap(1, r * u.conjugate(), r * u, 1),
        hc.MapKind.PARABOLIC_AUTOMORPHISM: lambda: hc.cayley_parabolic(u, 1j * t),
        hc.MapKind.INTERIOR_CONTRACTION: lambda: hc.normal_form_map(p, r * u),
        hc.MapKind.HYPERBOLIC_NONAUTOMORPHISM: lambda: hc.hyperbolic_nonauto_form(r * u),
        hc.MapKind.PARABOLIC_NONAUTOMORPHISM: lambda: hc.cayley_parabolic(u, complex(t, r)),
        # u (1 + z)/2 touches the circle at 1 only, and sends it to u != 1.
        hc.MapKind.BOUNDARY_CONTACT_NO_BOUNDARY_FIXED_POINT: lambda: hc.MoebiusMap(u / 2, u / 2, 0, 1),
    }
    phi = build[kind]()
    assert hc.classify(phi).kind is kind
    return phi


@st.composite
def maps_of_every_class(draw):
    """A linear-fractional self-map of each MapKind, with that kind drawn first."""
    kind = draw(st.sampled_from(tuple(hc.MapKind)))
    return map_of_class(kind, draw(st.floats(0.1, 2.0 * math.pi - 0.1)), draw(st.floats(0.0, 0.9)),
                        draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.05, 0.95)), draw(st.floats(0.1, 2.0)))


class TestComposedKernel:
    @DERANDOMIZED
    @given(maps_of_every_class(), st.floats(0.0, 0.99), st.floats(0.0, 2.0 * math.pi),
           st.sampled_from((1.0, 2.0, 2.7, 3.0, 150.0)))
    def test_is_the_composed_kernel_function_bit_for_bit(self, phi, modulus, theta, gamma):
        w = modulus * cmath.exp(1j * theta)
        got = hc.composed_kernel(w, gamma, phi)
        want = hc.compose_with_moebius(hc.kernel_function(w, gamma), phi)
        assert got == want
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(got) == repr(want)

    def test_one_gate(self, monkeypatch):
        runs = []
        gate = funcalg._factor_admissible
        monkeypatch.setattr(funcalg, "_factor_admissible", lambda r: runs.append(r) or gate(r))
        f = hc.composed_kernel(0.3 + 0.4j, 2.7, hc.MoebiusMap(1, 0.5, 0.5, 1))
        assert runs == [f.factors[0][0]]


class TestLinearPowerFactors:
    @DERANDOMIZED
    @given(kernel_image_factors(), st.sampled_from((1, 2, 128, 1024)))
    def test_matches_mpmath_oracle(self, f, n):
        (r, gamma), = f.factors
        oracle = linear_power_oracle(r, gamma, n)
        coeffs = hc.expand_analytic(f, n)
        assert np.linalg.norm(coeffs - oracle) <= 1e-13 * np.linalg.norm(oracle)

    def test_composed_kernels_of_every_class_match_the_oracle(self):
        # 60 cases from a seeded generator rather than hypothesis, whose
        # examples draw on the literals of the package's modules and so move
        # whenever an edit there adds one.
        rng = np.random.default_rng(0)
        kinds = tuple(hc.MapKind)
        for _ in range(60):
            phi = map_of_class(kinds[rng.integers(len(kinds))], rng.uniform(0.1, 2.0 * math.pi - 0.1),
                               rng.uniform(0.0, 0.9), rng.uniform(0.0, 2.0 * math.pi),
                               rng.uniform(0.05, 0.95), rng.uniform(0.1, 2.0))
            w = rng.uniform(0.0, 0.99) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            gamma, n = float(rng.choice((1.0, 2.0, 2.7, 3.0, 150.0))), int(rng.choice((128, 1024)))
            f = hc.composed_kernel(w, gamma, phi)
            (r, power), = f.factors
            oracle = linear_power_oracle(r, power, n)
            coeffs = hc.expand_analytic(f, n)
            # At gamma = 150 the squares of the coefficients can leave the
            # double range, so both norms are taken at the oracle's scale.
            scale = np.abs(oracle).max()
            assert np.linalg.norm((coeffs - oracle) / scale) <= 2e-13 * np.linalg.norm(oracle / scale), (phi, w, gamma, n)

    def test_weighted_kernel_image_matches_the_oracle(self):
        f = hc.polynomial_fn(2, 1) * hc.compose_with_moebius(
            hc.kernel_function(0.3 + 0.4j, 2.7), hc.MoebiusMap(1, 0.5, 0.5, 1))
        oracle = np.convolve([2, 1], linear_power_oracle(f.factors[0][0], -2.7, 256))[:256]
        assert np.linalg.norm(hc.expand_analytic(f, 256) - oracle) <= 1e-13 * np.linalg.norm(oracle)

    def test_cancelling_binomials_match_the_oracle(self):
        # (1 + 0.5z)^3000 and (1 + 0.49z)^-3000 reach 1e115 and cancel to
        # coefficients below 1e8: their product would keep no digit.
        r = hc.rational((1, 0.5), (1, 0.49))
        f = hc.AnalyticFunction(hc.rational((1,)), ((r, 3000.0),))
        coeffs = hc.expand_analytic(f, 64)
        oracle = linear_power_oracle(r, 3000.0, 64)
        assert np.linalg.norm(coeffs - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("num, den, gamma, n, dps", [
        # K_w at w = 0.3 + 0.4i for gamma = 2.7.
        ((1, -0.3 + 0.4j), (1,), -2.7, 128, 60),
        # K_w o phi for the same w and the automorphism (z + 0.5)/(0.5 z + 1).
        ((0.85 + 0.2j, 0.2 + 0.4j), (1, 0.5), -2.7, 128, 60),
        # K_w o phi for w = 0.54i, phi = hyperbolic_nonauto_form(0.95) and
        # gamma = 2 (bergman(0)): ||B1||_2 ||B2||_1 of its two binomial
        # series is 170 times the norm of their product.
        ((1, 0.95 + 0.027j), (1, 0.95), -2.0, 128, 60),
        # Binomial series that reach 1e115 and cancel to below 1e8.
        ((1, 0.5), (1, 0.49), 3000.0, 64, 160),
    ])
    def test_oracle_matches_the_binomial_product(self, num, den, gamma, n, dps):
        r = hc.rational(num, den)
        product = binomial_product_oracle(r, gamma, n, dps)
        assert np.linalg.norm(linear_power_oracle(r, gamma, n) - product) <= 1e-15 * np.linalg.norm(product)

    def test_inverse_sqrt(self):
        # (1 - z)^(-1/2), zero on the circle so no admitted factor, against
        # the generalized binomial coefficients.
        oracle = [1.0]
        for k in range(1, 6):
            oracle.append(oracle[-1] * (k - 0.5) / k)
        got = funcalg._linear_power(1, -1, 1, 0, -0.5, 6)
        assert np.allclose(got, oracle, atol=1e-14)
        assert np.allclose(got[:4], [1, 0.5, 0.375, 0.3125])

    @pytest.mark.parametrize("p, q, gamma", [(2, -0.5, 1.0), (2, -0.5, 2.0), (2, -0.5, 3.0), (2, -0.5, 0.0), (1, 1, 2.0)],
                             ids=["1.0", "2.0", "3.0", "0.0", "1+z-2.0"])
    def test_integer_exponent_is_a_polynomial(self, p, q, gamma):
        # (p + q z)^gamma: a finite binomial sum, zero past degree gamma.  The
        # gate refuses 1 + z, zero on the circle, so that one runs the
        # recurrence of every factor directly.
        if abs(q) < abs(p):
            f = hc.AnalyticFunction(hc.rational((1,)), ((hc.rational((p, q)), gamma),))
            coeffs = hc.expand_analytic(f, 8)
        else:
            coeffs = funcalg._linear_power(p, q, 1, 0, gamma, 8)
        exact = [math.comb(int(gamma), k) * p ** (gamma - k) * q**k for k in range(8)]
        assert np.array_equal(coeffs, np.array(exact, dtype=complex))

    # Moduli 1e-60 .. 1e61: the quotient stays inside the range where LAPACK
    # leaves the 1 x 1 companion matrix of np.roots unscaled.
    @DERANDOMIZED
    @given(*[st.tuples(st.floats(1.0, 10.0), st.integers(-60, 60), st.floats(0.0, 2.0 * math.pi))] * 2)
    @example((0.0, 0, 0.0), (3.0, 0, 1.0))
    @example((2.0, 0, 0.0), (1.0, -1, math.pi))
    def test_degree_one_roots_match_np_roots(self, c0, c1):
        a, b = (m * 10.0**e * cmath.exp(1j * theta) for m, e, theta in (c0, c1))
        roots = hc.poly(a, b).roots()
        assert roots.dtype == complex
        assert roots.tobytes() == np.roots([b, a]).astype(complex).tobytes()


# Root moduli within 1e-2 .. 1e-12 (relative) of the test radius, either side.
near_test_radius = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(2.0, 12.0)).map(
    lambda t: _ZERO_TEST_RADIUS * (1.0 + t[0] * 10.0 ** -t[1])
)


def from_roots(roots, lead=1.0):
    """lead * prod (z - rho_i), coefficients rounded to double precision."""
    return hc.Polynomial(tuple(lead * np.poly(roots)[::-1]))


@st.composite
def polynomials_by_roots(draw):
    """Degree 1-8, roots simple, double or triple, many of them near the test radius."""
    roots = []
    while not roots or (len(roots) < 8 and draw(st.booleans())):
        modulus = draw(st.one_of(st.floats(0.0, 4.0), near_test_radius))
        root = modulus * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        roots += [root] * min(draw(st.integers(1, 3)), 8 - len(roots))
    lead = draw(st.floats(0.1, 10.0)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    return from_roots(roots, lead)


@st.composite
def binomials(draw):
    """lead * (z^n - rho^n e^{i theta}), n = 2-8: n roots of one modulus spread in argument."""
    n = draw(st.integers(2, 8))
    modulus = draw(st.one_of(st.floats(0.5, 2.0), near_test_radius))
    c = -(modulus**n) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    lead = draw(st.floats(0.1, 10.0))
    return hc.Polynomial((lead * c,) + (0j,) * (n - 1) + (lead,))


def high_precision_roots(p):
    """The roots of p (as rounded), from mpmath.polyroots at 50 digits.

    Durand-Kerner stalls near an m-fold root at about the m-th root of the
    working precision, so a run that does not converge is repeated with
    enough extra bits for a root of multiplicity deg p.
    """
    c = list(p.coefficients)
    zeros = next(k for k, x in enumerate(c) if x != 0)
    coeffs = [mpmath.mpc(x.real, x.imag) for x in reversed(c[zeros:])]
    if len(coeffs) == 1:
        return [mpmath.mpc(0)] * zeros
    with mpmath.workdps(50):
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=64)
        except mpmath.libmp.NoConvergence:
            roots = mpmath.polyroots(coeffs, maxsteps=1000, extraprec=170 * p.degree)
    return [mpmath.mpc(0)] * zeros + list(roots)


def zero_test_oracle(p):
    """(refuses, zero_free) for p from its 50-digit roots.

    refuses: min|u p| < 1e-8 max(1, max|u p|) over 8192 points of the test
    circle and the point of it nearest each root, u the power of two that
    brings the largest real or imaginary coefficient part of p into [1/2, 1).
    zero_free: every root lies beyond the test radius.
    """
    roots = high_precision_roots(p)
    theta = np.concatenate([
        np.linspace(0.0, 2.0 * math.pi, _ZERO_TEST_SAMPLES, endpoint=False),
        [float(mpmath.arg(r)) for r in roots],
    ])
    unit = 2.0 ** -math.frexp(np.abs(np.asarray(p.coefficients).view(float)).max())[1]
    mags = unit * np.abs(np.polyval(p.coefficients[::-1], _ZERO_TEST_RADIUS * np.exp(1j * theta)))
    refuses = mags.min() < _ZERO_TEST_GUARD * max(1.0, mags.max())
    with mpmath.workdps(50):
        return refuses, min(abs(r) for r in roots) > mpmath.mpf(_ZERO_TEST_RADIUS)


class TestZeroFree:
    def test_outside_root(self):
        assert hc.no_zero_in_closed_disk(hc.rational((1, -0.3)))

    def test_inside_root(self):
        assert not hc.no_zero_in_closed_disk(hc.rational((1, -2)))

    def test_shifted_linear(self):
        assert hc.no_zero_in_closed_disk(hc.rational((2, 1)))

    def test_root_on_test_circle(self):
        with pytest.raises(IndeterminateError):
            hc.no_zero_in_closed_disk(hc.rational((1, -1 / (1 + 1e-6))))

    def test_many_roots(self):
        # (z-2)(z+3)(z-1.5j) has no roots in the closed disk
        p = hc.poly(-2, 1) * hc.poly(3, 1) * hc.poly(-1.5j, 1)
        assert hc.no_zero_in_closed_disk(hc.RationalFunction(p))

    @pytest.mark.parametrize(
        "coeffs, zero_free",
        [
            # n roots of one modulus, spread in argument: the product bound
            # prod |R - |rho_i|| is tiny, but min|p| on the circle is not.
            ((1, 0, 0, 0, -0.961), True),             # modulus 1.01
            ((1,) + (0,) * 6 + (-0.513,), True),      # modulus 1.1
            ((-(1.5**12),) + (0,) * 11 + (1,), True),  # modulus 1.5
            ((1, 0, 0, 0, -1.041), False),            # modulus 0.99
            ((-(0.9**12),) + (0,) * 11 + (1,), False),
        ],
    )
    def test_spread_roots_are_decided(self, coeffs, zero_free):
        assert hc.no_zero_in_closed_disk(hc.rational(coeffs)) is zero_free

    def test_spread_root_factor_is_admissible(self):
        # 1 - 0.961 z^4 has four zeros of modulus 1.01 spread in argument.  As a
        # power factor it is written over them, and each linear factor passes.
        with pytest.raises(InvalidParameterError):
            hc.AnalyticFunction(hc.rational((1,)), ((hc.rational((1, 0, 0, 0, -0.961)), 0.5),))
        rho = 0.961**-0.25 * np.exp(0.5j * np.pi * np.arange(4))
        f = hc.AnalyticFunction(hc.rational((1,)), tuple((hc.rational((1, -1 / x)), 0.5) for x in rho))
        assert abs(f.reciprocal()(0.5) - (1 - 0.961 * 0.5**4) ** -0.5) < 1e-14

    def test_coefficient_overflow_is_indeterminate(self):
        # 1e10 / 1e-300 overflows the companion matrix of 1e10 + 1e-300 z.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IndeterminateError):
                hc.no_zero_in_closed_disk(hc.rational((1e10, 1e-300)))

    @DERANDOMIZED
    @given(st.one_of(polynomials_by_roots(), binomials()))
    # A simple root between the unit circle and the test circle.
    @example(from_roots([_ZERO_TEST_RADIUS * (1 - 1e-7)]))
    # A triple root 7e-6 outside the test circle: the computed roots of the
    # rounded coefficients straddle it, so no per-root margin could decide.
    @example(from_roots([_ZERO_TEST_RADIUS * (1 + 6.931156437056567e-06) * cmath.exp(4.77549489877091j)] * 3))
    # Roots of modulus 1.01 spread in argument, far from the circle.
    @example(hc.poly(1, 0, 0, 0, -0.961))
    def test_decision_matches_high_precision_roots(self, p):
        refuses, zero_free = zero_test_oracle(p)
        if refuses:
            with pytest.raises(IndeterminateError):
                hc.no_zero_in_closed_disk(hc.RationalFunction(p))
        else:
            assert hc.no_zero_in_closed_disk(hc.RationalFunction(p)) == zero_free



def disk_roots(min_size, max_size):
    """Roots of modulus 1.1-3, so every factor built from them is zero-free and
    pole-free on the closed disk; each root swings arg r on the circle by up
    to +-arcsin(1/1.1), about 65 degrees, so many products of several cross
    the branch cut."""
    root = st.tuples(st.floats(1.1, 3.0), st.floats(0.0, 2.0 * math.pi))
    return st.lists(root.map(lambda t: t[0] * cmath.exp(1j * t[1])), min_size=min_size, max_size=max_size)


def unit_complex(moduli):
    return st.tuples(moduli, st.floats(0.0, 2.0 * math.pi)).map(lambda t: t[0] * cmath.exp(1j * t[1]))


@st.composite
def linear_factors(draw):
    """(p + q z)/(s + t z) with |p|, |q|, |t| 0 or 1e-3 to 2 and |s| 0.1 to 2:
    zeros and poles inside, on and beyond the circle, image disks across the cut."""
    p, q, t = (draw(unit_complex(st.just(0.0) | st.floats(1e-3, 2.0))) for _ in range(3))
    return hc.rational((p, q), (draw(unit_complex(st.floats(0.1, 2.0))), t))


@st.composite
def near_circle_factors(draw):
    """(1 - a z)/(1 - b z) with 1 - |b| from 1e-6 down to 1e-13, a = b + d and
    |d| up to 4 (1 - |b|), or |a| within a few units in the last place of 1."""
    b = (1.0 - 10.0 ** -draw(st.floats(6.0, 13.0))) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    if draw(st.booleans()):
        a = b + draw(st.floats(0.0, 4.0)) * (1.0 - abs(b)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    else:
        a = (1.0 + draw(st.integers(-4, 4)) * 2.0**-53) * b / abs(b)
    return hc.rational((1, -a), (1, -b))


@st.composite
def root_factors(draw):
    """lead (1 - z/rho)/(1 - z/sigma), or without the denominator, for roots of modulus 1.1-3."""
    (rho,), sigmas = draw(disk_roots(1, 1)), draw(disk_roots(0, 1))
    num = hc.poly(1, -1 / rho).scale(draw(unit_complex(st.floats(0.2, 5.0))))
    return hc.RationalFunction(num, hc.poly(1, -1 / sigmas[0]) if sigmas else hc.poly(1))


def power_factor(r, gamma=0.5):
    return hc.AnalyticFunction(hc.rational((1,)), ((r, gamma),))


def gate_decision(r):
    """None if r is admitted, else the error type and message."""
    try:
        power_factor(r)
    except (BranchViolationError, IndeterminateError) as exc:
        return type(exc), str(exc)
    return None


def boundary_oracle(r, samples=8192):
    """(admissible, clear) for r from its values on `samples` points of the circle.

    r maps the circle onto a circle, counterclockwise exactly when its pole
    lies beyond it; then the closed disk goes onto the inside, which misses
    the cut (-inf, 0] iff the sampled polygon does not cross it.  clear: all
    values are finite and farther from the cut than twice the largest step
    between neighbours, so no arc between two samples reaches the cut unseen.
    """
    v = r(funcalg.circle(1.0, samples))
    w = np.roll(v, -1)
    if not np.all(np.isfinite(v)):
        return False, False
    # Twice the signed area, about the mean so that no term is needlessly big;
    # zero when r is constant.
    a, b = v - v.mean(), w - v.mean()
    if np.sum(a.real * b.imag - b.real * a.imag) < 0.0:   # clockwise: a pole inside
        return False, True
    with np.errstate(divide="ignore", invalid="ignore"):
        x = v.real - v.imag * (w.real - v.real) / (w.imag - v.imag)
    crosses = np.any((v.imag * w.imag <= 0.0) & (x <= 0.0))
    dist = np.where(v.real >= 0.0, np.abs(v), np.abs(v.imag))
    return not crosses, bool(dist.min() > 2.0 * np.abs(w - v).max())


def mp_power_series(lead, zeros, poles, gamma, n):
    """The first n coefficients of r^gamma, r = lead prod (1 - z/rho) / prod (1 - z/sigma),
    at 40 digits, from the series of gamma log r and the recurrence of exp."""
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        log = [g * mpmath.log(mpmath.mpc(lead))] + [mpmath.mpc(0)] * (n - 1)
        for roots, sign in ((zeros, -1), (poles, 1)):
            for x in roots:
                inv = 1 / mpmath.mpc(x)
                for k in range(1, n):
                    log[k] += sign * g * inv**k / k
        f = [mpmath.exp(log[0])]
        for m in range(1, n):
            f.append(sum(k * log[k] * f[m - k] for k in range(1, m + 1)) / m)
        return np.array([complex(c) for c in f])


class TestBranchCut:
    def test_factor_crossing_the_cut_on_the_circle(self):
        # -1 + 0.5i + 0.8z maps the closed disk onto |w - (-1 + 0.5i)| <= 0.8,
        # which is zero-free (1.118 > 0.8) but crosses the cut (0.5 < 0.8).
        with pytest.raises(BranchViolationError, match="branch cut"):
            power_factor(hc.rational((-1 + 0.5j, 0.8)))

    def test_factor_touching_the_cut_is_refused(self):
        # Image disks |w - (-1 + 0.8i)| <= 0.8 and |w - 1| <= 1 touch the cut.
        for coeffs in ((-1 + 0.8j, 0.8), (1, 1)):
            with pytest.raises(IndeterminateError):
                power_factor(hc.rational(coeffs))

    def test_degree_two_factor_is_refused(self):
        with pytest.raises(InvalidParameterError, match="prod"):
            power_factor(hc.rational((1, 0, 0.25)))
        with pytest.raises(InvalidParameterError):
            power_factor(hc.rational((1,), (1, 0.1, 0.1)))

    @DERANDOMIZED
    @given(linear_factors())
    @example(hc.rational((-1 + 0.5j, 0.8)))
    @example(hc.rational((1,), (0.5, 1)))
    @example(hc.rational((1, 0.5), (1, 0.9j)))
    def test_decision_matches_boundary_oracle(self, r):
        admissible, clear = boundary_oracle(r)
        if not clear:
            return
        decision = gate_decision(r)
        assert decision is None if admissible else decision[0] is BranchViolationError, decision

    @DERANDOMIZED
    @given(linear_factors(), st.integers(-80, 80), st.integers(-80, 80))
    def test_power_of_two_multiples_decide_alike(self, r, j, k):
        # Numerator and denominator are each brought to unit scale by a power
        # of two, so the gate sees the same four coefficients.
        assert gate_decision(hc.RationalFunction(r.num.scale(2.0**j), r.den.scale(2.0**k))) == gate_decision(r)

    def test_huge_and_tiny_coefficients_decide_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for big, small in ((1e300, 1e300), (1e-300, 1e300), (1e300, 1e-300)):
                assert gate_decision(hc.rational((big, 0.5j * big), (small, -0.3 * small))) is None
                assert gate_decision(hc.rational((big * (-1 + 0.5j), 0.8 * big), (small,)))[0] is BranchViolationError
                assert gate_decision(hc.rational((big, big), (small,)))[0] is IndeterminateError

    @DERANDOMIZED
    @given(near_circle_factors())
    # Exact margins -1.5e-5 and -9.8e-5: the band 1e-8 (|C| + R) alone admits both.
    @example(hc.rational((1, 0.16487471138182683 + 0.9863145185724275j), (1, 0.16487471138262352 + 0.9863145185709823j)))
    @example(hc.rational((1, -0.9573837641616757 + 0.2888188500074415j), (1, -0.9573837641613498 + 0.2888188500073089j)))
    def test_decided_factors_near_the_circle_match_exact_arithmetic(self, r):
        # Zero and pole near the circle and near each other: C and R come from
        # numerators that cancel, so their rounding has to widen the band.
        # Decided from the exact coefficients at 60 digits.
        (p, q), (s, t) = r.num.coefficients, r.den.coefficients + (0j,) * (2 - len(r.den.coefficients))
        with mpmath.workdps(60):
            p, q, s, t = (mpmath.mpc(x.real, x.imag) for x in (p, q, s, t))
            gap = abs(s) ** 2 - abs(t) ** 2
            centre, radius = (p * mpmath.conj(s) - q * mpmath.conj(t)) / gap, abs(q * s - p * t) / gap
            dist = abs(centre) if centre.real >= 0 else abs(centre.imag)
            admissible = gap > 0 and dist > radius
        decision = gate_decision(r)
        if decision is None or decision[0] is not IndeterminateError:
            assert (decision is None) == admissible, decision

    @DERANDOMIZED
    @given(root_factors(), st.floats(-2.5, 2.5), st.lists(
        st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=8))
    @example(hc.rational((1, -0.9)), 0.5, [(0.9, math.pi / 2)])
    def test_accepted_factor_matches_its_series(self, r, gamma, polar):
        # Pointwise evaluation takes the principal branch of r^gamma, the
        # series the analytic one; they agree on the disk only when r maps it
        # off the cut.
        try:
            f = power_factor(r, gamma)
        except (BranchViolationError, IndeterminateError):
            return
        coeffs = hc.expand_analytic(f, 512)
        # The order-512 tail is below 0.95^512 / 1.1^512 of the sum of |c_k| rho^k,
        # which also scales the rounding of the partial sum.
        for rho, theta in polar:
            z = rho * cmath.exp(1j * theta)
            majorant = float(np.sum(np.abs(coeffs) * rho ** np.arange(512)))
            assert abs(np.polyval(coeffs[::-1], z) - f(z)) <= 1e-10 * max(1.0, majorant)

    @DERANDOMIZED
    @given(disk_roots(1, 4), disk_roots(0, 2), unit_complex(st.floats(0.2, 5.0)), st.floats(-2.5, 2.5))
    @example([1 / 0.9] * 3, [], 1.0, 0.5)
    @example([1.5, -1.5j], [2.0], 1.0, 0.7)
    def test_spanned_factors_match_the_power_of_their_product(self, zeros, poles, lead, gamma):
        # A rational r zero- and pole-free on the closed disk is written as
        # r(0)^gamma prod (1 - z/rho)^gamma prod (1 - z/sigma)^-gamma; where r maps
        # the closed disk off the cut, that product is the principal r^gamma.
        r = hc.RationalFunction(from_roots(zeros, lead * np.prod([-1 / x for x in zeros])),
                                from_roots(poles, np.prod([-1 / x for x in poles])) if poles else hc.poly(1))
        if r.num.degree > 1 or r.den.degree > 1:
            with pytest.raises(InvalidParameterError):
                power_factor(r, gamma)
        admissible, clear = boundary_oracle(r)
        if not (admissible and clear):
            return
        f = hc.AnalyticFunction(hc.rational((complex(lead) ** gamma,)), tuple(
            [(hc.rational((1, -1 / x)), gamma) for x in zeros] + [(hc.rational((1, -1 / x)), -gamma) for x in poles]))
        oracle = mp_power_series(lead, zeros, poles, gamma, 64)
        assert np.linalg.norm(hc.expand_analytic(f, 64) - oracle) <= 1e-12 * np.linalg.norm(oracle)
        z = 0.9 * funcalg.circle(1.0, 16)
        assert np.allclose(f(z), r(z) ** gamma, rtol=1e-12, atol=0)


class TestAdmission:
    @pytest.fixture
    def gate_runs(self, monkeypatch):
        runs = []
        gate = funcalg._factor_admissible

        def counted(r):
            runs.append(r)
            return gate(r)

        monkeypatch.setattr(funcalg, "_factor_admissible", counted)
        return runs

    def test_kernel_image_runs_no_zero_test_on_a_factor(self, monkeypatch):
        tested = []
        zero_free = funcalg._poly_zero_free

        def recorded(p):
            tested.append(p)
            return zero_free(p)

        monkeypatch.setattr(funcalg, "_poly_zero_free", recorded)
        psi = hc.rational_fn((1, 0.3), (2, -0.5))
        g = psi * hc.compose_with_moebius(hc.kernel_function(0.3, 2.0), hc.MoebiusMap(1, 0.5, 0.5, 1))
        assert tested and all(p == psi.base.den for p in tested)
        assert g == hc.AnalyticFunction(g.base, g.factors)

    def test_products_scalings_and_reciprocals_reuse_admitted_factors(self, gate_runs):
        # Each factor passed the gate when its operand was built; the same
        # immutable factor is not tested again, whatever its new exponent.
        f = hc.rational_fn((1, 0.3), (2, -0.5)) * hc.kernel_function(0.35, 1.5)
        g = hc.AnalyticFunction(hc.rational((1,)), ((hc.rational((3, 1j)), 0.5),))
        fg = f * g
        assert len(gate_runs) == len(f.factors) + len(g.factors)
        for build in (lambda: f * g, lambda: f.scale(-2j), f.reciprocal, fg.reciprocal,
                      lambda: fg.scale(3) * f.reciprocal()):
            runs = len(gate_runs)
            h = build()
            assert gate_runs[runs:] == []
            assert hc.AnalyticFunction(h.base, h.factors) == h

    @pytest.mark.parametrize("coeffs", [(1, -2), (1, -1), (2, 0, -3)], ids=["inside", "on", "two"])
    def test_reciprocal_of_a_weight_with_a_zero_still_raises(self, coeffs):
        f = hc.polynomial_fn(*coeffs) * hc.kernel_function(0.5, 1.0)
        with pytest.raises(PoleEncounteredError):
            f.reciprocal()

    def test_kernel_near_the_circle_is_admitted(self):
        # (1 - conj(w) z) maps the closed disk onto |v - 1| <= |w|: 1e-7 from the
        # cut is outside the band 1e-8 (1 + |w|), 1e-9 inside it.
        for w in (0.9999999, 1 / (1 + 1e-6), -0.9999999j):
            coeffs = hc.expand_analytic(hc.kernel_function(w, 1.0), 256)
            exact = np.conj(w) ** np.arange(256)
            assert np.linalg.norm(coeffs - exact) <= 1e-13 * np.linalg.norm(exact)
        with pytest.raises(IndeterminateError):
            hc.kernel_function(1 - 1e-9, 1.0)


class TestEvaluate:
    def test_worked_symbols(self, psi_one, psi_two):
        assert abs(psi_one(1) - 0.25) < 1e-15
        assert abs(psi_one(0) - 0.5) < 1e-15
        assert abs(psi_two(1) - 2) < 1e-15
        assert abs(psi_two(0) - 3) < 1e-15

    def test_kernel_value(self):
        assert abs(hc.kernel_function(0.5, 1.0)(0.5) - 4 / 3) < 1e-14

    def test_constant_detection(self, half_shift_map, H2):
        assert is_value_constant(hc.constant_fn(2.5))
        assert not is_value_constant(hc.polynomial_fn(1, 0.2))
        # structurally non-constant but value-constant
        q = hc.kernel_quotient_weight(0.0, 3.0, hc.dilation(0.5), H2)
        assert is_value_constant(q)

    def test_samples_outside_the_double_range_are_refused(self):
        # (1 - 0.9 z)^-8000 overflows at z = 0.7; a subnormal weight keeps
        # too few digits to compare; the zero function may read 0.
        big = hc.kernel_function(0.9, 8000.0)
        z = funcalg.circle(0.7, 24)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidParameterError, match="double range: one is not finite"):
                funcalg.sample(big, z)
            with pytest.raises(InvalidParameterError, match="leaves the double range"):
                big(0.7)
            with pytest.raises(InvalidParameterError, match=r"double range: every one is zero or subnormal \(at most 1e-310\)"):
                is_value_constant(hc.constant_fn(1e-310))
        assert is_value_constant(hc.constant_fn(1e-300))
        assert not funcalg.sample(hc.constant_fn(0.0), z).any()

    def test_boundary_sup(self, psi_two):
        # |psi2| on the circle peaks at z = -1 with value 3+2-(-3) -> |-3-2+3|=2? oracle by dense scan
        vals = [abs(psi_two(cmath.exp(2j * math.pi * k / 20000))) for k in range(20000)]
        assert abs(boundary_sup(psi_two) - max(vals)) < 1e-3


def _mp_poly_mul(a, b):
    out = [mpmath.mpc(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _mp_poly_add(a, b):
    a, b = a + [mpmath.mpc(0)] * (len(b) - len(a)), b + [mpmath.mpc(0)] * (len(a) - len(b))
    return [x + y for x, y in zip(a, b)]


def mp_tails(f, n, alpha=None):
    """sqrt(sum_{k>=n} |c_k|^2 beta(k)^2) at 40 digits: beta = 1, or the
    weights of bergman(alpha).

    Not from expand_analytic: f = N g for the base N/D, and
    g = prod r_i^gamma_i / D with r_i = (p_i + q_i z)/(s_i + t_i z) solves
    A g' = B g for A = D prod_i (p_i + q_i z)(s_i + t_i z) and
    B = -D' prod_i (...) + D sum_i gamma_i (q_i s_i - t_i p_i) prod_{j != i} (...),
    so A_0 (k+1) g_{k+1} = sum_l B_l g_{k-l} - sum_{l>=1} A_l (k+1-l) g_{k+1-l}.
    The sum stops once 8 terms in a row fall below 1e-30 of it: the
    coefficients decay geometrically by then.
    """
    with mpmath.workdps(40):
        mp = lambda p: [mpmath.mpc(c) for c in p.coefficients]
        num, den = mp(f.base.num), mp(f.base.den)
        links, rates, g0 = [], [], 1 / den[0]
        for r, gamma in f.factors:
            (p, q), (s, t) = ((mp(part) + [mpmath.mpc(0)])[:2] for part in (r.num, r.den))
            links.append(_mp_poly_mul([p, q], [s, t]))
            rates.append(mpmath.mpf(gamma) * (q * s - t * p))
            g0 *= mpmath.power(p / s, mpmath.mpf(gamma))
        a = den
        for link in links:
            a = _mp_poly_mul(a, link)
        b = [-k * c for k, c in enumerate(den)][1:] or [mpmath.mpc(0)]
        for link in links:
            b = _mp_poly_mul(b, link)
        for i, rate in enumerate(rates):
            term = [rate * c for c in den]
            for j, link in enumerate(links):
                if j != i:
                    term = _mp_poly_mul(term, link)
            b = _mp_poly_add(b, term)
        g, c = [g0], []
        tail, beta2, small, k = mpmath.mpf(0), mpmath.mpf(1), 0, 0
        while small < 8:
            rhs = sum(bl * g[k - l] for l, bl in enumerate(b) if l <= k)
            rhs -= sum(a[l] * (k + 1 - l) * g[k + 1 - l] for l in range(1, min(len(a), k + 2)))
            g.append(rhs / (a[0] * (k + 1)))
            c.append(sum(nj * g[k - j] for j, nj in enumerate(num) if j <= k))
            if alpha is not None and k > 0:
                beta2 *= mpmath.mpf(k) / (k + mpmath.mpf(alpha) + 1)
            if k >= n:
                term = abs(c[k]) ** 2 * beta2
                tail += term
                small = small + 1 if term <= mpmath.mpf("1e-30") * tail else 0
            k += 1
            assert k < n + 20000
        return mpmath.sqrt(tail)


def _factor(zero, pole, gamma):
    """((1 - z/zero)/(1 - z/pole))^gamma, either part dropped when None."""
    num = (1, -1 / zero) if zero is not None else (1,)
    den = (1, -1 / pole) if pole is not None else (1,)
    return hc.AnalyticFunction(hc.rational((1,), (1,)), ((hc.rational(num, den), gamma),))


def outside(lo, hi):
    return st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(lo, hi), st.floats(0.0, 2.0 * math.pi))


@st.composite
def tail_symbols(draw):
    """Admissible symbols: a polynomial base, or one over a denominator of
    degree 1 or 2 with roots of modulus >= 1.2, times up to two power factors
    ((1 - z/zero)/(1 - z/pole))^gamma with 1.2 <= |zero|, |pole| <= 4 (each
    part maps the disk within 60 degrees of 1, so the factor stays off the
    cut) and gamma of either sign; or a kernel image psi (K_w o phi), |w| <= 0.8."""
    lead = draw(st.lists(outside(0.0, 2.0), min_size=1, max_size=3))
    if draw(st.booleans()):
        psi = hc.polynomial_fn(1, *lead)
        phi = draw(st.sampled_from((hc.dilation(0.7j), hc.MoebiusMap(1, 0.4, 0.4, 1),
                                    hc.hyperbolic_nonauto_form(0.5), hc.cayley_parabolic(1, 1))))
        w = draw(outside(0.0, 0.8))
        gamma = draw(st.sampled_from((1.0, 1.5, 2.0, 2.7)))
        return psi * hc.compose_with_moebius(hc.kernel_function(w, gamma), phi)
    poles = draw(st.lists(outside(1.2, 3.0), max_size=2))
    den = (1,)
    for x in poles:
        den = np.convolve(den, (1, -1 / x))
    f = hc.rational_fn((1, *lead), tuple(den))
    for _ in range(draw(st.integers(0, 2))):
        zero, pole = draw(st.one_of(st.none(), outside(1.2, 4.0))), draw(st.one_of(st.none(), outside(1.2, 4.0)))
        if zero is None and pole is None:
            zero = 1.5
        gamma = draw(st.floats(0.3, 3.0)) * draw(st.sampled_from((-1, 1)))
        f = f * _factor(zero, pole, gamma)
    return f


class TestTailBound:
    def test_polynomial_is_exact(self, psi_two):
        assert series_tail_bound(psi_two, 8) == 0.0

    def test_bound_dominates_actual_tail(self):
        f = hc.kernel_function(0.6, 1.0)
        n = 64
        bound = series_tail_bound(f, n)
        actual = math.sqrt(sum(0.6 ** (2 * k) for k in range(n, 4000)))
        assert actual <= bound
        assert bound < 1e-8

    # One mpmath series of order about n + 150 takes up to 0.1 s, so these
    # two properties draw 16 and 12 examples.
    @settings(DERANDOMIZED, max_examples=16)
    @given(tail_symbols(), st.sampled_from((16, 128, 1024)))
    @example(hc.rational_fn((2,), (1, 0.3, 0.1)) * _factor(1.3, -2.0, -2.7), 1024)
    def test_bound_dominates_the_high_precision_tail(self, f, n):
        assert series_tail_bound(f, n) >= mp_tails(f, n)

    @settings(DERANDOMIZED, max_examples=12)
    @given(tail_symbols(), st.sampled_from((-0.5, 0.0, 0.7)), outside(0.0, 0.8), st.sampled_from((128, 1024)))
    def test_weighted_kernel_tail_dominates_the_high_precision_tail(self, psi, alpha, w, n):
        # The tail kernel_gram_norms reports for one kernel K_w on bergman(alpha):
        # beta(n) times the Taylor tail of psi (K_w o phi).
        space, phi = hc.bergman(alpha), hc.MoebiusMap(1, 0.3j, -0.3j, 1)
        image = psi * hc.compose_with_moebius(hc.kernel_function(w, space.gamma), phi)
        tail = hc.kernel_gram_norms(psi, phi, space, [w], [1.0], n).tail_bound
        assert tail >= mp_tails(image, n, alpha)

    def test_singularity_radius(self):
        f = hc.kernel_function(0.5, 2.0) * hc.rational_fn((1,), (1, 1 / 3))
        assert abs(min_singularity_radius(f) - 2.0) < 1e-9
