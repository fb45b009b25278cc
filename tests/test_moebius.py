"""Map algebra, fixed points, classification, Krein data."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypocomp as hc
from hypocomp.errors import (
    DegenerateMapError,
    IdentityMapError,
    InvalidParameterError,
    NoAngularDerivativeError,
    NoDenjoyWolffError,
    NotSelfMapError,
)
from hypocomp.moebius import MapKind, is_identity

from conftest import DERANDOMIZED, random_self_maps


class TestCompose:
    def test_dilation_square(self):
        half = hc.dilation(0.5)
        sq = hc.compose(half, half)
        assert hc.map_distance(sq, hc.dilation(0.25)) < 1e-15

    def test_involution(self):
        a = hc.alpha_p(0.3)
        assert is_identity(hc.compose(a, a))

    def test_half_shift_square(self, half_shift_map):
        # integer 2x2 oracle: [[1,0],[1,2]]^2 = [[1,0],[3,4]]
        m = np.array([[1, 0], [1, 2]])
        mm = m @ m
        expected = hc.MoebiusMap(mm[0, 0], mm[0, 1], mm[1, 0], mm[1, 1])
        got = hc.compose(half_shift_map, half_shift_map)
        assert hc.map_distance(got, expected) < 1e-15

    def test_degenerate_product_rejected(self):
        with pytest.raises(hc.DegenerateMapError):
            hc.MoebiusMap(1, 1, 1, 1)


def _numpy_map_distance(f, g):
    """map_distance as it was computed with numpy: np.vdot aligns the phase."""
    u, v = np.array(f.coefficients()), np.array(g.coefficients())
    inner = np.vdot(v, u)
    if abs(inner) < 1e-30:
        return float(max(np.abs(u - v)))
    lam = inner / abs(inner)
    return float(max(np.abs(u - lam * v)))


def test_map_distance_matches_the_numpy_form():
    # 1000 seeded pairs: independent maps, and unit multiples perturbed by
    # 1e-16 to 1e-11, around is_identity's 1e-12.  numpy's vdot and complex
    # products round through fused multiply-adds, so the two forms agree to
    # the conditioning of the aligning phase, eps (1 + sum |u_k v_k| / |<u, v>|)
    # times a small constant, and f is exactly at distance 0 from itself.
    rng = np.random.default_rng(2027)
    pairs = []
    while len(pairs) < 1000:
        f_c = rng.normal(size=4) + 1j * rng.normal(size=4)
        g_c = rng.normal(size=4) + 1j * rng.normal(size=4)
        if len(pairs) % 2:
            g_c = cmath.exp(2j * math.pi * rng.random()) * f_c + 10.0 ** rng.uniform(-16, -11) * g_c
        try:
            pairs.append((hc.MoebiusMap(*f_c), hc.MoebiusMap(*g_c)))
        except DegenerateMapError:
            continue
    eps = np.finfo(float).eps
    for f, g in pairs:
        u, v = f.coefficients(), g.coefficients()
        inner = abs(sum(y.conjugate() * x for x, y in zip(u, v)))
        cond = 1.0 + sum(abs(x * y) for x, y in zip(u, v)) / inner
        assert abs(hc.map_distance(f, g) - _numpy_map_distance(f, g)) <= 4.0 * eps * cond
        assert hc.map_distance(f, f) == 0.0


class TestSelfMap:
    def test_dilation(self):
        ok, sup = hc.is_self_map(hc.dilation(0.5))
        assert ok and abs(sup - 0.5) < 1e-12

    def test_parabolic_touches_at_one(self, parabolic_map):
        # |phi(e^it)|^2 = (2+2cos t)/(10-6cos t) is increasing in cos t, so the
        # sup is attained at t=0 with value 1.
        ok, sup = hc.is_self_map(parabolic_map)
        assert ok and abs(sup - 1.0) < 1e-12

    def test_expansion_rejected(self):
        ok, sup = hc.is_self_map(hc.MoebiusMap(2, 0, 0, 1))
        assert not ok and abs(sup - 2.0) < 1e-12

    def test_pole_in_disk_raises(self):
        with pytest.raises(NotSelfMapError):
            hc.is_self_map(hc.MoebiusMap(0, 1, 1, -1))  # 1/(z-1), pole on the circle

    def test_random_family_stays_inside(self):
        rng = np.random.default_rng(11)
        for phi in random_self_maps(rng, 40):
            _, sup = hc.is_self_map(phi)
            assert sup <= 1.0 + 1e-10
            for t in rng.uniform(0, 2 * math.pi, 25):
                assert abs(phi(cmath.exp(1j * t))) <= 1.0 + 1e-10


class TestFixedPoints:
    def test_half_shift(self, half_shift_map):
        fps = hc.fixed_points(half_shift_map)
        locs = sorted((f.location for f in fps), key=lambda z: z.real)
        assert abs(locs[0] - (-1)) < 1e-12 and abs(locs[1]) < 1e-12
        mults = {round(abs(f.multiplier), 6) for f in fps}
        assert mults == {0.5, 2.0}

    def test_rotation_has_infinity(self):
        fps = hc.fixed_points(hc.rotation(1j))
        finite = [f for f in fps if not f.at_infinity]
        inf = [f for f in fps if f.at_infinity]
        assert len(finite) == 1 and len(inf) == 1
        assert abs(finite[0].location) < 1e-14
        assert abs(finite[0].multiplier - 1j) < 1e-14

    def test_parabolic_double_root(self, parabolic_map):
        fps = hc.fixed_points(parabolic_map)
        assert len(fps) == 1 and fps[0].double
        assert abs(fps[0].location - 1) < 1e-12
        assert abs(fps[0].multiplier - 1) < 1e-12

    def test_identity_raises(self):
        with pytest.raises(IdentityMapError):
            hc.fixed_points(hc.MoebiusMap(1, 0, 0, 1))

    def test_multiplier_matches_complex_step(self):
        # oracle: numerical derivative of phi at each finite fixed point
        rng = np.random.default_rng(5)
        for phi in random_self_maps(rng, 15):
            if is_identity(phi):
                continue
            for f in hc.fixed_points(phi):
                if f.at_infinity or f.on_boundary:
                    continue
                h = 1e-7
                num = (phi(f.location + h) - phi(f.location - h)) / (2 * h)
                assert abs(num - f.multiplier) < 1e-6


class TestDenjoyWolff:
    def test_half_shift(self, half_shift_map):
        dw = hc.denjoy_wolff(half_shift_map)
        assert abs(dw.location) < 1e-12 and abs(dw.multiplier - 0.5) < 1e-12

    def test_parabolic(self, parabolic_map):
        dw = hc.denjoy_wolff(parabolic_map)
        assert abs(dw.location - 1) < 1e-12 and abs(dw.multiplier - 1) < 1e-12

    def test_hyperbolic_automorphism(self):
        phi = hc.MoebiusMap(1, 0.5, 0.5, 1)
        dw = hc.denjoy_wolff(phi)
        assert abs(dw.location - 1) < 1e-12
        assert abs(dw.multiplier - 1 / 3) < 1e-12

    def test_elliptic_raises(self):
        with pytest.raises(NoDenjoyWolffError):
            hc.denjoy_wolff(hc.rotation(1j))

    def test_repelling_points_have_large_multiplier(self):
        rng = np.random.default_rng(23)
        for phi in random_self_maps(rng, 30):
            if is_identity(phi):
                continue
            cls = hc.classify(phi)
            if cls.kind in (MapKind.IDENTITY, MapKind.ELLIPTIC_AUTOMORPHISM):
                continue
            dw = cls.denjoy_wolff
            assert abs(dw.multiplier) <= 1 + 1e-10
            for f in cls.fixed:
                if f.at_infinity or not f.on_boundary:
                    continue
                if abs(f.location - dw.location) < 1e-9:
                    continue
                assert abs(f.multiplier) >= 1 - 1e-10


class TestClassify:
    def test_rotation(self):
        assert hc.classify(hc.rotation(1j)).kind is MapKind.ELLIPTIC_AUTOMORPHISM

    def test_parabolic_nonauto(self, parabolic_map):
        cls = hc.classify(parabolic_map)
        assert cls.kind is MapKind.PARABOLIC_NONAUTOMORPHISM
        zeta, eta = cls.contact
        assert abs(zeta - 1) < 1e-9 and abs(eta - 1) < 1e-9

    def test_half_shift(self, half_shift_map):
        cls = hc.classify(half_shift_map)
        assert cls.kind is MapKind.HYPERBOLIC_NONAUTOMORPHISM
        assert abs(cls.contact[0] + 1) < 1e-9
        assert abs(cls.denjoy_wolff.location) < 1e-12

    def test_parabolic_automorphism(self):
        assert hc.classify(hc.cayley_parabolic(1, 1j)).kind is MapKind.PARABOLIC_AUTOMORPHISM

    def test_hyperbolic_automorphism(self):
        assert hc.classify(hc.MoebiusMap(1, 0.5, 0.5, 1)).kind is MapKind.HYPERBOLIC_AUTOMORPHISM

    def test_interior_contraction(self):
        assert hc.classify(hc.dilation(0.5)).kind is MapKind.INTERIOR_CONTRACTION

    def test_shifted_contact(self):
        cls = hc.classify(hc.MoebiusMap(1, 0, 1, -2))  # z/(z-2)
        assert cls.kind is MapKind.BOUNDARY_CONTACT_NO_BOUNDARY_FIXED_POINT
        zeta, eta = cls.contact
        assert abs(zeta - 1) < 1e-12 and abs(eta + 1) < 1e-12

    def test_contact_matches_high_precision_argmax(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            c = rng.uniform(0.2, 0.7) * cmath.exp(2j * math.pi * rng.uniform())
            mu = cmath.exp(1j * rng.uniform(0.5, 2 * math.pi - 0.5))
            phi = hc.MoebiusMap(mu * (1 - abs(c)), 0, c, 1)
            a, b, c_, d = (mp.mpc(x) for x in phi.coefficients())

            def modsq(t):
                w = mp.expj(t)
                return abs((a * w + b) / (c_ * w + d)) ** 2

            ts = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
            t0 = max(ts, key=modsq)
            with mp.workdps(50):
                t_star = mp.findroot(lambda t: mp.diff(modsq, t), mp.mpf(t0))
                zeta = complex(mp.expj(t_star))
            cls = hc.classify(phi)
            assert cls.kind is MapKind.BOUNDARY_CONTACT_NO_BOUNDARY_FIXED_POINT
            assert abs(cls.contact[0] - zeta) < 1e-12

    @pytest.mark.parametrize("e", [0.9e-10, 1e-10, 1.1e-10])
    def test_dilation_near_the_contact_band(self, e):
        # sup |phi| = 1/(1+e) sits at the edge of the contact band; the
        # contraction and automorphism tests read the same image circle, so
        # no dilation falls between them.
        kind = hc.classify(hc.MoebiusMap(1, 0, 0, 1 + e)).kind
        assert kind in (MapKind.INTERIOR_CONTRACTION, MapKind.ELLIPTIC_AUTOMORPHISM)

    def test_identity(self):
        assert hc.classify(hc.MoebiusMap(2, 0, 0, 2)).kind is MapKind.IDENTITY

    def test_hyperbolic_form_family(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = (0.05 + 0.9 * rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            phi = hc.hyperbolic_nonauto_form(c)
            assert hc.classify(phi).kind is MapKind.HYPERBOLIC_NONAUTOMORPHISM


angle = st.floats(0.0, 2 * math.pi)
unimodular = angle.map(lambda t: cmath.exp(1j * t))


def in_disk(lo, hi):
    return st.builds(lambda r, u: r * u, st.floats(lo, hi), unimodular)


@st.composite
def classified_maps(draw):
    """Self-maps of every class, each kept clear of the tolerance bands."""
    kind = draw(st.sampled_from(("rotation", "dilation", "parabolic", "hyperbolic-form",
                                 "contact", "automorphism", "normal-form")))
    lam = draw(unimodular)
    if kind == "rotation":
        return hc.rotation(lam)
    if kind == "dilation":
        return hc.dilation(draw(in_disk(0.05, 0.95)))
    if kind == "parabolic":
        # Re t = 0 gives the parabolic automorphisms.
        t = complex(draw(st.sampled_from((0.0, 0.1, 0.5, 2.0))), draw(st.floats(0.1, 1.0)))
        return hc.cayley_parabolic(lam, t)
    if kind == "hyperbolic-form":
        return hc.hyperbolic_nonauto_form(draw(in_disk(0.05, 0.95)))
    if kind == "contact":
        # mu (1-|c|) z/(c z + 1) touches the circle once and moves that point.
        c = draw(in_disk(0.05, 0.95))
        mu = cmath.exp(1j * draw(st.floats(0.1, 2 * math.pi - 0.1)))
        return hc.MoebiusMap(mu * (1 - abs(c)), 0, c, 1)
    if kind == "automorphism":
        return hc.compose(hc.rotation(lam), hc.alpha_p(draw(in_disk(0.0, 0.9))))
    p = draw(in_disk(0.0, 0.9))
    return hc.compose(hc.alpha_p(p), hc.alpha_p(p).scaled(draw(in_disk(0.05, 0.95))))


@DERANDOMIZED
@given(classified_maps(), unimodular)
def test_boundary_data_is_exact(phi, lam):
    cls = hc.classify(phi)
    # z -> lam z is an automorphism: conjugating by it keeps the class and
    # rotates the contact pair.
    turned = hc.classify(hc.compose(hc.rotation(lam.conjugate()), hc.compose(phi, hc.rotation(lam))))
    assert turned.kind is cls.kind
    assert (turned.contact is None) == (cls.contact is None)
    # Both sides carry rounding of a few ulps, hence the 1e-14 slack.
    z = np.exp(2j * math.pi * np.arange(65536) / 65536)
    assert cls.sup_modulus >= np.abs(phi(z)).max() - 1e-14
    if cls.contact is not None:
        zeta, eta = cls.contact
        assert abs(turned.contact[0] - lam.conjugate() * zeta) <= 1e-12
        assert abs(turned.contact[1] - lam.conjugate() * eta) <= 1e-12
        assert abs(abs(phi(zeta)) - cls.sup_modulus) <= 1e-14


@st.composite
def near_pole_forms(draw):
    """hyperbolic_nonauto_form(c) with 1 - |c| in [2e-12, 1e-6]: the pole
    -1/c lies that close to the circle, yet outside the 1e-12 band in which
    _boundary_data refuses it.  Half the draws take a real c."""
    gap = 10.0 ** draw(st.floats(math.log10(2e-12), -6.0))
    lam = draw(st.one_of(st.sampled_from((1.0, -1.0)), unimodular))
    return hc.hyperbolic_nonauto_form((1.0 - gap) * lam)


@DERANDOMIZED
@given(near_pole_forms())
def test_near_pole_forms_keep_their_contact(phi):
    # The image circle's divisor |d|^2 - |c|^2 is taken as (|d| - |c|)(|d| + |c|):
    # squaring |c| first drops the (1 - |c|)^2 part, which put sup |phi|
    # (1 - |c|)/2 below 1 and classed the map as an interior contraction.
    cls = hc.classify(phi)
    assert cls.kind is MapKind.HYPERBOLIC_NONAUTOMORPHISM
    c = phi.coefficients()[2]
    zeta, eta = cls.contact
    assert abs(zeta + abs(c) / c) <= 1e-9
    assert abs(eta - zeta) <= 1e-9


class TestAngularDerivative:
    def test_half_shift(self, half_shift_map):
        assert abs(hc.angular_derivative(half_shift_map, -1) - 2) < 1e-12

    def test_rotation(self):
        lam = cmath.exp(0.7j)
        assert abs(hc.angular_derivative(hc.rotation(lam), 1) - lam) < 1e-12

    def test_parabolic(self, parabolic_map):
        assert abs(hc.angular_derivative(parabolic_map, 1) - 1) < 1e-12

    def test_no_contact_raises(self, parabolic_map):
        with pytest.raises(NoAngularDerivativeError):
            hc.angular_derivative(parabolic_map, -1)


class TestKrein:
    def test_half_shift_sigma(self, half_shift_map, H2):
        kd = hc.krein_adjoint(half_shift_map, H2)
        # sigma(z) = (z-1)/2
        for z in (0, 0.5, -0.3 + 0.2j):
            assert abs(kd.sigma(z) - (z - 1) / 2) < 1e-12
        assert abs(kd.sigma(-1) - (-1)) < 1e-12  # phi(-1) = -1 forces sigma(-1) = -1

    def test_automorphism_sigma_is_inverse(self, H2):
        phi = hc.MoebiusMap(1, 0.5, 0.5, 1)
        kd = hc.krein_adjoint(phi, H2)
        assert is_identity(hc.compose(kd.sigma, phi))

    def test_factorization_identity(self, H2, A1, half_shift_map, parabolic_map):
        # Operator identity adjoint(C_phi) = T_g C_sigma T_h^* holds exactly on
        # sections because analytic Toeplitz sections compose cleanly.
        for space in (H2, A1):
            for phi in (half_shift_map, parabolic_map, hc.MoebiusMap(1, 0.5, 0.5, 1)):
                kd = hc.krein_adjoint(phi, space)
                n = 40
                mphi = hc.build_weighted_composition(1, phi, space, n)
                mg = hc.build_multiplication(kd.g, space, n)
                msig = hc.build_weighted_composition(1, kd.sigma, space, n)
                mh = hc.build_multiplication(kd.h, space, n)
                lhs = mphi.entries.conj().T
                rhs = mg.entries @ msig.entries @ mh.entries.conj().T
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_boundary_exchange(self):
        # phi(zeta) = eta on the circle forces sigma(eta) = zeta
        phi = hc.MoebiusMap(1, 0, 1, -2)  # z/(z-2): phi(1) = -1
        sigma = hc.krein_adjoint(phi, hc.hardy()).sigma
        assert abs(sigma(-1) - 1) < 1e-12

    def test_factorization_random_sweep(self):
        rng = np.random.default_rng(99)
        spaces = (hc.hardy(), hc.bergman(1.3))
        for phi in random_self_maps(rng, 12):
            if is_identity(phi):
                continue
            for space in spaces:
                kd = hc.krein_adjoint(phi, space)
                n = 32
                mphi = hc.build_weighted_composition(1, phi, space, n)
                mg = hc.build_multiplication(kd.g, space, n)
                msig = hc.build_weighted_composition(1, kd.sigma, space, n)
                mh = hc.build_multiplication(kd.h, space, n)
                rhs = mg.entries @ msig.entries @ mh.entries.conj().T
                assert np.abs(mphi.entries.conj().T - rhs).max() < 1e-12


class TestConstructors:
    def test_cayley_parabolic_values(self, parabolic_map):
        # hand-composed tau^{-1} (tau + 1) with tau = (1+z)/(1-z)
        assert hc.map_distance(parabolic_map, hc.MoebiusMap(1, 1, -1, 3)) < 1e-15

    def test_cayley_identity_at_zero(self):
        assert is_identity(hc.cayley_parabolic(1, 0))

    def test_cayley_automorphism_iff_imaginary(self):
        assert hc.classify(hc.cayley_parabolic(1, 1j)).kind is MapKind.PARABOLIC_AUTOMORPHISM
        assert hc.classify(hc.cayley_parabolic(1, 1)).kind is MapKind.PARABOLIC_NONAUTOMORPHISM

    def test_cayley_angular_derivative_one(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            zeta = cmath.exp(2j * math.pi * rng.uniform())
            t = complex(rng.uniform(0.05, 2.0), rng.uniform(-1, 1))
            phi = hc.cayley_parabolic(zeta, t)
            assert abs(hc.angular_derivative(phi, zeta) - 1) < 1e-12

    def test_cayley_rejects_negative_real_part(self):
        with pytest.raises(NotSelfMapError):
            hc.cayley_parabolic(1, -0.5)

    def test_hyperbolic_form_values(self, half_shift_map):
        assert hc.map_distance(hc.hyperbolic_nonauto_form(0.5), half_shift_map) < 1e-15
        phi = hc.hyperbolic_nonauto_form(-0.5)
        # c zeta = -|c| forces zeta = +1
        assert abs(phi(1) - 1) < 1e-12

    def test_hyperbolic_form_range(self):
        for bad in (0, 1, 1.5):
            with pytest.raises(InvalidParameterError):
                hc.hyperbolic_nonauto_form(bad)

    def test_alpha_p(self):
        a = hc.alpha_p(0.3)
        assert abs(a(0.3)) < 1e-15 and abs(a(0) - 0.3) < 1e-15
        assert is_identity(hc.compose(a, a))
        assert hc.map_distance(hc.alpha_p(0), hc.MoebiusMap(-1, 0, 0, 1)) < 1e-15

    def test_alpha_p_range(self):
        with pytest.raises(InvalidParameterError):
            hc.alpha_p(1.0)


class TestIterate:
    def test_parabolic_iterates_translate(self):
        # conjugating to the half-plane adds the translation parameters
        phi = hc.cayley_parabolic(1, 0.5)
        assert hc.map_distance(hc.compose(phi, hc.compose(phi, phi)), hc.cayley_parabolic(1, 1.5)) < 1e-12

    def test_iterates_attract_to_denjoy_wolff(self):
        rng = np.random.default_rng(41)
        for phi in random_self_maps(rng, 20):
            if is_identity(phi):
                continue
            cls = hc.classify(phi)
            if cls.kind is MapKind.ELLIPTIC_AUTOMORPHISM:
                continue
            dw = cls.denjoy_wolff
            before = abs(phi(0.2 - 0.1j) - dw.location)
            try:
                phi_n = phi
                for _ in range(39):
                    phi_n = hc.compose(phi, phi_n)
                after = abs(phi_n(0.2 - 0.1j) - dw.location)
            except hc.DegenerateMapError:
                # strong contractions collapse onto the constant Denjoy-Wolff
                # map before 40 steps: attraction confirmed
                continue
            assert after <= before + 1e-12
