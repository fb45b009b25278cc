"""The Hilbert-space model: weight sequences, kernels, inner products.

Two families are supported: the Hardy space (gamma = 1, weights identically 1)
and the weighted Bergman spaces with parameter alpha > -1 (gamma = alpha + 2,
weights beta(n)^2 = n! Gamma(alpha+2) / Gamma(n+alpha+2)).  Vectors are stored
in the orthonormal basis e_n = z^n / beta(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import InvalidParameterError, OutsideDiskError, SpaceMismatchError
from .funcalg import AnalyticFunction, TaylorSeries, rational
from .moebius import MoebiusMap, is_self_map, krein_triple


@dataclass(frozen=True)
class SpaceSpec:
    """Hardy ('hardy') or weighted Bergman ('bergman') space."""

    kind: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("hardy", "bergman"):
            raise InvalidParameterError("kind must be 'hardy' or 'bergman'")
        if self.kind == "bergman" and not self.alpha > -1.0:
            raise InvalidParameterError("Bergman parameter must satisfy alpha > -1")
        if self.kind == "hardy":
            object.__setattr__(self, "alpha", 0.0)

    @property
    def gamma(self) -> float:
        return 1.0 if self.kind == "hardy" else self.alpha + 2.0

    def label(self) -> str:
        return "hardy" if self.kind == "hardy" else f"bergman:{self.alpha:g}"


def hardy() -> SpaceSpec:
    return SpaceSpec("hardy")


def bergman(alpha: float) -> SpaceSpec:
    return SpaceSpec("bergman", float(alpha))


def space_from_label(label: str) -> SpaceSpec:
    label = label.strip().lower()
    if label == "hardy":
        return hardy()
    if label.startswith("bergman:"):
        return bergman(float(label.split(":", 1)[1]))
    raise InvalidParameterError(f"unknown space {label!r}; use 'hardy' or 'bergman:<alpha>'")


def beta(space: SpaceSpec, n: int) -> float:
    """The norm of z^n: 1 on Hardy, sqrt(n! Gamma(a+2)/Gamma(n+a+2)) on Bergman.

    Computed through log-gamma so large n cannot overflow.
    """
    if n < 0:
        raise InvalidParameterError("n must be nonnegative")
    if space.kind == "hardy":
        return 1.0
    a = space.alpha
    return math.exp(0.5 * (math.lgamma(n + 1) + math.lgamma(a + 2) - math.lgamma(n + a + 2)))


def beta_array(space: SpaceSpec, n: int) -> np.ndarray:
    ns = np.arange(n, dtype=float)
    if space.kind == "hardy":
        return np.ones(n)
    a = space.alpha
    return np.exp(0.5 * (gammaln(ns + 1) + gammaln(a + 2) - gammaln(ns + a + 2)))


@dataclass(frozen=True)
class WeightSequence:
    """beta(0..N-1) for a space; beta(0) = 1 always."""

    space: SpaceSpec
    values: np.ndarray

    @classmethod
    def build(cls, space: SpaceSpec, n: int) -> "WeightSequence":
        vals = beta_array(space, n)
        vals.flags.writeable = False
        return cls(space, vals)


@dataclass(frozen=True)
class CoeffVector:
    """Coefficients in the orthonormal basis e_n = z^n / beta(n)."""

    values: np.ndarray
    space: SpaceSpec
    order: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex).copy()
        if arr.ndim != 1 or arr.size != self.order:
            raise InvalidParameterError("value array must have length equal to the order")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def coeff_vector_from_taylor(ts: TaylorSeries, space: SpaceSpec) -> CoeffVector:
    """Taylor coefficients c_n become orthonormal coordinates c_n * beta(n)."""
    return CoeffVector(ts.coefficients * beta_array(space, ts.order), space, ts.order)


def kernel(space: SpaceSpec, w: complex, n: int) -> CoeffVector:
    """Orthonormal coordinates of the evaluation kernel at w: conj(w)^k / beta(k)."""
    w = complex(w)
    if abs(w) >= 1.0:
        raise OutsideDiskError("kernel point must lie strictly inside the unit disk")
    powers = np.power(w.conjugate(), np.arange(n))
    return CoeffVector(powers / beta_array(space, n), space, n)


def kernel_norm(space: SpaceSpec, w: complex) -> float:
    """(1 - |w|^2)^(-gamma/2)."""
    w = complex(w)
    if abs(w) >= 1.0:
        raise OutsideDiskError("kernel point must lie strictly inside the unit disk")
    return (1.0 - abs(w) ** 2) ** (-space.gamma / 2.0)


def inner_product(f: CoeffVector, g: CoeffVector) -> complex:
    """sum f_n conj(g_n); linear in the first slot."""
    if f.space != g.space or f.order != g.order:
        raise SpaceMismatchError("operands must share space and order")
    return complex(np.dot(f.values, np.conj(g.values)))


# ---------------------------------------------------------------------------
# Krein adjoint data (needs the symbol class, hence lives beside it)

@dataclass(frozen=True)
class KreinData:
    """sigma, g, h with C_phi^* = T_g C_sigma T_h^* on the chosen space."""

    sigma: MoebiusMap
    g: AnalyticFunction
    h: AnalyticFunction


def krein_adjoint(phi: MoebiusMap, space: SpaceSpec) -> KreinData:
    """Krein adjoint sigma and the auxiliary symbols g, h for a self-map.

    sigma(z) = (conj(a) z - conj(c)) / (-conj(b) z + conj(d)),
    g(z) = (-conj(b) z + conj(d))^(-gamma), h(z) = (c z + d)^gamma, computed
    from the coefficient representative rescaled so d is real positive, which
    keeps both power bases on the principal branch for every gamma.  The
    triple product T_g C_sigma T_h^* does not depend on that rescaling.
    """
    sigma, g_line, h_line = krein_triple(phi)
    ok, sup = is_self_map(sigma)
    if not ok:
        raise InvalidParameterError(f"computed sigma is not a self-map (sup {sup:.6g})")
    gamma = space.gamma
    g = AnalyticFunction(rational((1,)), ((rational(g_line), -gamma),))
    h = AnalyticFunction(rational((1,)), ((rational(h_line), gamma),))
    return KreinData(sigma, g, h)
