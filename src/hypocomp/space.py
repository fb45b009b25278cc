"""The Hilbert-space model: weight sequences, kernels and kernel norms.

A space is one finite number alpha >= -1, with kernel (1 - conj(w) z)^-gamma,
gamma = alpha + 2, and weights beta(n)^2 = n! Gamma(alpha+2) / Gamma(n+alpha+2):
the Hardy space at alpha = -1 (gamma = 1, weights 1), the weighted Bergman
space A^2_alpha for alpha > -1.  Labels round-trip.  Vectors are stored in the
orthonormal basis e_n = z^n / beta(n); every weight comes from beta_array.
numpy (beta_array, kernel) and funcalg (krein_adjoint) load where they run, so
SpaceSpec and the labels need neither.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidParameterError, NotSelfMapError
from .moebius import MoebiusMap, is_self_map, require_in_disk, require_self_map


class _SpaceParameter(NamedTuple):
    alpha: float


class SpaceSpec(_SpaceParameter):
    """The space with kernel (1 - conj(w) z)^-(alpha + 2): the Hardy space at
    alpha = -1, the weighted Bergman space A^2_alpha for finite alpha > -1.
    A NamedTuple that validates in __new__; _make and _replace skip it."""

    __slots__ = ()

    def __new__(cls, alpha: float):
        if not -1.0 <= alpha < math.inf:
            raise InvalidParameterError(f"space parameter must be a finite alpha >= -1, got {alpha!r}")
        return tuple.__new__(cls, (alpha,))

    @property
    def gamma(self) -> float:
        return self.alpha + 2.0

    def label(self) -> str:
        return "hardy" if self.alpha == -1.0 else f"bergman:{repr(float(self.alpha)).removesuffix('.0')}"


def hardy() -> SpaceSpec:
    return SpaceSpec(-1.0)


def bergman(alpha: float) -> SpaceSpec:
    if not float(alpha) > -1.0:
        raise InvalidParameterError("Bergman parameter must satisfy alpha > -1")
    return SpaceSpec(float(alpha))


def space_from_label(label: str) -> SpaceSpec:
    label = label.strip().lower()
    if label == "hardy":
        return hardy()
    if label.startswith("bergman:"):
        return bergman(float(label.split(":", 1)[1]))
    raise InvalidParameterError(f"unknown space {label!r}; use 'hardy' or 'bergman:<alpha>'")


def beta_array(space: SpaceSpec, n: int) -> np.ndarray:
    """beta(0..n-1), the norms of z^k: the square roots of one cumulative
    product, beta(k)^2 = prod_{j<=k} 1 / (1 + (alpha+1)/j).

    The only route to the weights.  Each factor rounds on its own, so for
    k < 5120 the values stay within 6e-15 relative of 40-digit ones; a
    log-gamma difference loses up to 1e-11 there to cancellation, and the
    factor j / (j + alpha + 1) drifts ten times further than this one because
    j + alpha + 1 rounds the same way at every j.  numpy only.
    """
    import numpy as np

    if space.alpha == -1.0:
        return np.ones(n)   # what the product gives on Hardy, at a sixth of its cost
    j = np.arange(1, n, dtype=float)
    squares = np.cumprod(1.0 / (1.0 + (space.alpha + 1.0) / j))
    return np.sqrt(np.concatenate(([1.0], squares))[:n])


def kernel(space: SpaceSpec, w: complex, n: int) -> np.ndarray:
    """Orthonormal coordinates of the evaluation kernel at w, conj(w)^k / beta(k)
    for k < n, as a read-only complex array."""
    import numpy as np

    w = require_in_disk(w, "kernel point")
    values = np.power(w.conjugate(), np.arange(n)) / beta_array(space, n)
    values.flags.writeable = False
    return values


def kernel_norm(space: SpaceSpec, w: complex) -> float:
    """(1 - |w|^2)^(-gamma/2)."""
    w = require_in_disk(w, "kernel point")
    return (1.0 - abs(w) ** 2) ** (-space.gamma / 2.0)


# ---------------------------------------------------------------------------
# Krein adjoint data (needs the symbol class, hence lives beside it)

class KreinData(NamedTuple):
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
    from .funcalg import AnalyticFunction, rational

    require_self_map(phi)
    a, b, c, d = phi.coefficients()
    if abs(d) < 1e-14:
        raise NotSelfMapError("d = 0 puts the pole at the origin")
    lam = d.conjugate() / abs(d)
    a, b, c, d = lam * a, lam * b, lam * c, lam * d
    sigma = MoebiusMap(a.conjugate(), -c.conjugate(), -b.conjugate(), d.conjugate())
    ok, sup = is_self_map(sigma)
    if not ok:
        raise InvalidParameterError(f"computed sigma is not a self-map (sup {sup:.6g})")
    gamma = space.gamma
    g = AnalyticFunction(rational((1,)), ((rational((d.conjugate(), -b.conjugate())), -gamma),))
    h = AnalyticFunction(rational((1,)), ((rational((d, c)), gamma),))
    return KreinData(sigma, g, h)
