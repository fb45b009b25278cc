"""Array evaluation of symbols agrees with scalar evaluation, point by point."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import hypocomp as hc
from hypocomp.errors import DegenerateMapError, IndeterminateError, PoleEncounteredError

from conftest import DERANDOMIZED


def finite_complex(magnitude):
    return st.complex_numbers(max_magnitude=magnitude, allow_nan=False, allow_infinity=False)


coefficient = finite_complex(2.0)
disk_points = st.lists(finite_complex(1.0), min_size=1, max_size=12).map(
    lambda pts: np.array(pts, dtype=complex)
)


@st.composite
def zero_free(draw):
    # 1 + b1 z + b2 z^2 with |b1| + |b2| <= 0.8 has no zero on the closed disk
    # and stays in the right half plane there, away from the branch cut.
    return (1, draw(finite_complex(0.4)), draw(finite_complex(0.4)))


# 1 + b z with |b| <= 0.8: its arg stays within asin(0.8), about 53 degrees,
# on the closed disk, so a quotient of two stays off the branch cut.
linear_zero_free = finite_complex(0.8).map(lambda b: (1, b))


@st.composite
def symbols(draw):
    """base(z) prod r_i(z)^gamma_i with fractional gamma_i and admissible linear-fractional factors."""
    base = hc.rational(draw(st.lists(coefficient, min_size=1, max_size=5)), draw(zero_free()))
    factors = tuple(
        (hc.rational(draw(linear_zero_free), draw(linear_zero_free)), draw(st.floats(-3.0, 3.0)))
        for _ in range(draw(st.integers(0, 2)))
    )
    try:
        return hc.AnalyticFunction(base, factors)
    except IndeterminateError:
        # The zero test refuses a denominator whose root overflows the double
        # range (a subnormal coefficient): no symbol to evaluate.
        assume(False)


def majorant(f, z):
    """A bound on the size of the terms that evaluating f at z adds up."""
    r = np.abs(z)
    out = sum(abs(c) * r**k for k, c in enumerate(f.base.num.coefficients)) / np.abs(f.base.den(z))
    for fac, gamma in f.factors:
        out = out * np.abs(fac(z)) ** gamma
    return float(np.max(out))


def assert_matches_scalar(f, z, scale):
    got = f(z)
    want = [f(complex(w)) for w in z]
    assert all(type(v) is complex for v in want)
    assert isinstance(got, np.ndarray) and got.shape == z.shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale)


@DERANDOMIZED
@given(symbols(), disk_points)
def test_symbol_array_matches_scalars(f, z):
    scale = majorant(f, z)
    assert_matches_scalar(f.base.num, z, scale)
    assert_matches_scalar(f.base, z, scale)
    assert_matches_scalar(f, z, scale)


@DERANDOMIZED
@given(coefficient, coefficient, finite_complex(0.5), disk_points)
def test_moebius_array_matches_scalars(a, b, c, z):
    # |c z + 1| >= 1/2 on the closed disk, so no pole is near a sample point.
    try:
        phi = hc.MoebiusMap(a, b, c, 1)
    except DegenerateMapError:
        assume(False)
    scale = float(np.max((abs(phi.a) + abs(phi.b)) / np.abs(phi.c * z + phi.d)))
    assert_matches_scalar(phi, z, scale)


@DERANDOMIZED
@given(finite_complex(1.0).filter(lambda p: abs(p) >= 0.01), disk_points, st.data())
def test_array_with_a_pole_raises(p, z, data):
    z = np.insert(z, data.draw(st.integers(0, z.size)), p)
    # den(z) = z - p vanishes exactly at p.  A weight with that pole in the
    # closed disk is rejected at construction, so evaluate the bare quotient.
    with pytest.raises(PoleEncounteredError):
        hc.rational_fn((1, 2), (-p, 1))
    f = hc.rational((1, 2), (-p, 1))
    with pytest.raises(PoleEncounteredError):
        f(z)
    # c = 1 is the largest coefficient, so normalization keeps c z + d = z - p.
    phi = hc.MoebiusMap(0.5, 0, 1, -p)
    with pytest.raises(PoleEncounteredError):
        phi(z)
