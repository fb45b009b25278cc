"""Shared fixtures and independent oracles for the test suite."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import settings

import hypocomp as hc

# Hypothesis profile of the property tests: a fixed example sequence, so a
# run is reproducible and its time is bounded.
DERANDOMIZED = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@pytest.fixture(scope="session")
def H2():
    return hc.hardy()


@pytest.fixture(scope="session")
def A0():
    return hc.bergman(0)


@pytest.fixture(scope="session")
def A1():
    return hc.bergman(1)


@pytest.fixture(scope="session")
def parabolic_map():
    # (1+z)/(3-z), the parabolic non-automorphism fixing 1
    return hc.cayley_parabolic(1, 1)


@pytest.fixture(scope="session")
def half_shift_map():
    # z/(z+2), hyperbolic non-automorphism fixing 0 and -1
    return hc.MoebiusMap(1, 0, 1, 2)


@pytest.fixture(scope="session")
def psi_one():
    return hc.polynomial_fn(0.5, -0.25)


@pytest.fixture(scope="session")
def psi_two():
    return hc.polynomial_fn(3, 2, -3)


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def fft_coefficients(f, n, radius=0.5, samples=4096):
    """Maclaurin coefficients by quadrature: FFT of boundary samples at |z|=radius.

    Independent of the package's recurrence paths; accurate when the tail at
    the sampling radius is negligible.
    """
    zs = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    vals = np.array([f(z) for z in zs])
    coeffs = np.fft.fft(vals) / samples
    return coeffs[:n] / radius ** np.arange(n)


def hausdorff_distance(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    d1 = max(float(np.min(np.abs(b - x))) for x in a)
    d2 = max(float(np.min(np.abs(a - x))) for x in b)
    return max(d1, d2)


def random_disk_points(rng, count, radius=0.6):
    out = []
    while len(out) < count:
        w = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(w) <= radius:
            out.append(w)
    return out


def random_self_maps(rng, count):
    """A mix of generated self-maps across all classes."""
    maps = []
    while len(maps) < count:
        pick = rng.integers(0, 5)
        if pick == 0:
            lam = cmath.exp(2j * math.pi * rng.uniform())
            maps.append(hc.rotation(lam))
        elif pick == 1:
            maps.append(hc.dilation(0.05 + 0.9 * rng.uniform()))
        elif pick == 2:
            zeta = cmath.exp(2j * math.pi * rng.uniform())
            t = complex(rng.uniform(0, 2), rng.uniform(-1, 1))
            if abs(t) < 1e-3:
                continue
            maps.append(hc.cayley_parabolic(zeta, t))
        elif pick == 3:
            c = (0.1 + 0.8 * rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            maps.append(hc.hyperbolic_nonauto_form(c))
        else:
            p = 0.6 * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform())
            d = (0.1 + 0.5 * rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            a = hc.alpha_p(p)
            maps.append(hc.compose(a, a.scaled(d)))
    return maps
