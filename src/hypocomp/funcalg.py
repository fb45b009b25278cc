"""Analytic-function arithmetic on the closed unit disk.

The symbol class is: rational function times real powers of rational factors
that are zero- and pole-free on the closed disk.  It is closed under products,
reciprocals (of zero-free members), composition with a linear-fractional disk
self-map, and pointwise evaluation, and it admits exact Maclaurin-coefficient
recurrences, which is everything the operator constructions downstream need.

Every symbol type evaluates at a complex scalar (in Python complex arithmetic)
or elementwise over a numpy array; circle(r, n) gives the sample points that
the sup estimates, constancy tests and tail bounds evaluate on.

Principal branch everywhere: each power factor must take a value off the cut
(-inf, 0] at the origin; inputs violating that are rejected, never rebranched.

Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchViolationError,
    IndeterminateError,
    InvalidParameterError,
    PoleAtOriginError,
    PoleEncounteredError,
    ZeroConstantTermError,
)
from .moebius import MoebiusMap, require_pole_free

MAX_DEGREE = 64
MAX_ORDER = 4096

_WINDING_SAMPLES = 8192
_WINDING_RADIUS = 1.0 + 1e-6
_WINDING_GUARD = 1e-8


# ---------------------------------------------------------------------------
# Polynomials

def _trim(coeffs) -> tuple[complex, ...]:
    c = [complex(x) for x in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c) if c else (0j,)


@dataclass(frozen=True)
class Polynomial:
    """Complex coefficients in ascending degree, trailing zeros trimmed."""

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        c = _trim(self.coefficients)
        if len(c) - 1 > MAX_DEGREE:
            raise InvalidParameterError(f"degree {len(c) - 1} exceeds the cap {MAX_DEGREE}")
        object.__setattr__(self, "coefficients", c)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z):
        out = 0j
        for coef in reversed(self.coefficients):
            out = out * z + coef
        return out

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def is_constant(self) -> bool:
        return self.degree == 0

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        a = list(self.coefficients) + [0j] * (n - len(self.coefficients))
        b = list(other.coefficients) + [0j] * (n - len(other.coefficients))
        return Polynomial(tuple(x + y for x, y in zip(a, b)))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial((0j,))
        return Polynomial(tuple(np.convolve(self.coefficients, other.coefficients)))

    def scale(self, lam: complex) -> "Polynomial":
        return Polynomial(tuple(complex(lam) * c for c in self.coefficients))

    def power(self, k: int) -> "Polynomial":
        if k < 0:
            raise InvalidParameterError("polynomial power must be nonnegative")
        out = Polynomial((1 + 0j,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def roots(self) -> np.ndarray:
        if self.degree == 0:
            return np.array([], dtype=complex)
        return np.roots(list(reversed(self.coefficients)))


def poly(*coeffs) -> Polynomial:
    return Polynomial(tuple(complex(c) for c in coeffs))


_ONE = poly(1)


# ---------------------------------------------------------------------------
# Rational functions

@dataclass(frozen=True)
class RationalFunction:
    """num/den with den(0) != 0."""

    num: Polynomial
    den: Polynomial = field(default=_ONE)

    def __post_init__(self):
        if self.den.is_zero():
            raise InvalidParameterError("zero denominator")
        if self.den(0) == 0:
            raise PoleAtOriginError("denominator vanishes at the origin")

    def __call__(self, z):
        d = self.den(z)
        require_pole_free(d, z)
        return self.num(z) / d

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def scale(self, lam: complex) -> "RationalFunction":
        return RationalFunction(self.num.scale(lam), self.den)

    def reciprocal(self) -> "RationalFunction":
        if self.num(0) == 0:
            raise PoleAtOriginError("numerator vanishes at the origin; reciprocal has a pole there")
        return RationalFunction(self.den, self.num)


def rational(num_coeffs, den_coeffs=(1,)) -> RationalFunction:
    return RationalFunction(poly(*num_coeffs), poly(*den_coeffs))


def moebius_rational(phi: MoebiusMap) -> RationalFunction:
    """phi as a rational function (a z + b)/(c z + d)."""
    return RationalFunction(poly(phi.b, phi.a), poly(phi.d, phi.c))


def compose_rational_moebius(r: RationalFunction, phi: MoebiusMap) -> RationalFunction:
    """r(phi(z)), expanded back to a ratio of polynomials of the same degree."""
    lin_num = poly(phi.b, phi.a)
    lin_den = poly(phi.d, phi.c)
    m = max(r.num.degree, r.den.degree)

    def lift(p: Polynomial) -> Polynomial:
        out = Polynomial((0j,))
        for k, coef in enumerate(p.coefficients):
            if coef == 0:
                continue
            out = out + (lin_num.power(k) * lin_den.power(m - k)).scale(coef)
        return out

    return RationalFunction(lift(r.num), lift(r.den))


def no_zero_in_closed_disk(r: RationalFunction) -> bool:
    """Whether r.num has no root of modulus <= 1 + 1e-6.

    Decided by the argument-principle winding count of the numerator on the
    circle of radius 1 + 1e-6 with 8192 samples.  A root within 1e-8 of the
    test circle makes the count untrustworthy and raises IndeterminateError.
    """
    return _poly_zero_free(r.num)


def _poly_zero_free(p: Polynomial) -> bool:
    if p.is_zero():
        return False
    if p.degree == 0:
        return True
    theta = np.linspace(0.0, 2.0 * math.pi, _WINDING_SAMPLES, endpoint=False)
    z = _WINDING_RADIUS * np.exp(1j * theta)
    vals = np.polyval(list(reversed(p.coefficients)), z)
    mags = np.abs(vals)
    if mags.min() < _WINDING_GUARD * max(1.0, mags.max()):
        raise IndeterminateError(
            "a root lies within 1e-8 of the test circle; increase precision"
        )
    args = np.angle(vals)
    dargs = np.diff(np.concatenate([args, args[:1]]))
    dargs = (dargs + math.pi) % (2.0 * math.pi) - math.pi
    winding = int(round(float(dargs.sum()) / (2.0 * math.pi)))
    return winding == 0


def _factor_admissible(r: RationalFunction) -> None:
    # A power factor needs: no zeros and no poles on the closed disk, and a
    # base value at 0 off the branch cut (-inf, 0].
    if not _poly_zero_free(r.num):
        raise BranchViolationError("factor has a zero in the closed unit disk")
    if not _poly_zero_free(r.den):
        raise BranchViolationError("factor has a pole in the closed unit disk")
    v0 = r(0)
    if v0.real <= 0.0 and abs(v0.imag) <= 1e-12 * (1.0 + abs(v0)):
        raise BranchViolationError(
            f"factor value at the origin ({v0:.6g}) lies on the branch cut (-inf, 0]"
        )


# ---------------------------------------------------------------------------
# The symbol class

@dataclass(frozen=True)
class AnalyticFunction:
    """base(z) * prod_i r_i(z)^gamma_i with admissible power factors."""

    base: RationalFunction
    factors: tuple[tuple[RationalFunction, float], ...] = ()

    def __post_init__(self):
        for r, _gamma in self.factors:
            _factor_admissible(r)

    def __call__(self, z):
        out = self.base(z)
        for r, gamma in self.factors:
            out *= r(z) ** gamma
        return out

    def __mul__(self, other: "AnalyticFunction") -> "AnalyticFunction":
        return AnalyticFunction(self.base * other.base, self.factors + other.factors)

    def scale(self, lam: complex) -> "AnalyticFunction":
        return AnalyticFunction(self.base.scale(lam), self.factors)

    def reciprocal(self) -> "AnalyticFunction":
        if not _poly_zero_free(self.base.num):
            raise BranchViolationError("reciprocal would have a pole in the closed disk")
        return AnalyticFunction(
            self.base.reciprocal(),
            tuple((r, -gamma) for r, gamma in self.factors),
        )

    def is_structurally_polynomial(self) -> bool:
        return self.base.den.is_constant() and not self.factors

    def polynomial_degree(self) -> int | None:
        """Degree if the function is literally a polynomial, else None."""
        return self.base.num.degree if self.is_structurally_polynomial() else None


def constant_fn(value: complex) -> AnalyticFunction:
    return AnalyticFunction(rational((value,)))


def polynomial_fn(*coeffs) -> AnalyticFunction:
    return AnalyticFunction(rational(coeffs))


def rational_fn(num_coeffs, den_coeffs) -> AnalyticFunction:
    return AnalyticFunction(rational(num_coeffs, den_coeffs))


def kernel_function(w: complex, gamma: float) -> AnalyticFunction:
    """(1 - conj(w) z)^(-gamma), the evaluation kernel at w for exponent gamma."""
    w = complex(w)
    if abs(w) >= 1.0:
        raise InvalidParameterError("kernel point must lie in the open unit disk")
    return AnalyticFunction(rational((1,)), ((rational((1, -w.conjugate())), -float(gamma)),))


def evaluate(f: AnalyticFunction, z: complex) -> complex:
    """Pointwise value with principal-branch powers."""
    return f(complex(z))


def compose_with_moebius(f: AnalyticFunction, phi: MoebiusMap) -> AnalyticFunction:
    """f(phi(z)); rational parts composed exactly, exponents unchanged.

    Factor admissibility (zero/pole free on the closed disk, value at 0 off
    the cut) is re-verified on the composed factors and BranchViolationError
    is raised on failure.
    """
    base = compose_rational_moebius(f.base, phi)
    factors = tuple(
        (compose_rational_moebius(r, phi), gamma) for r, gamma in f.factors
    )
    return AnalyticFunction(base, factors)


def circle(r: float, n: int) -> np.ndarray:
    """The n points r exp(2 pi i k/n), k = 0..n-1."""
    return r * np.exp(1j * (2.0 * math.pi * np.arange(n) / n))


def is_value_constant(f: AnalyticFunction, tol: float = 1e-12) -> bool:
    """Whether f is constant as a function, decided on a 24-point grid."""
    v0 = f(0)
    return not np.any(np.abs(f(circle(0.7, 24)) - v0) > tol * (1.0 + abs(v0)))


def boundary_sup(f: AnalyticFunction, samples: int = 2048) -> float:
    """max |f| over a dense sample of the unit circle (lower estimate of the sup)."""
    return float(np.abs(f(circle(1.0, samples))).max())


def min_singularity_radius(f: AnalyticFunction) -> float:
    """Modulus of the singularity of f nearest the origin (inf if entire)."""
    radius = math.inf
    polys = [f.base.den]
    for r, _gamma in f.factors:
        polys.append(r.num)
        polys.append(r.den)
    for p in polys:
        for root in p.roots():
            radius = min(radius, abs(complex(root)))
    return radius


# ---------------------------------------------------------------------------
# Truncated Maclaurin series

@dataclass(frozen=True)
class TaylorSeries:
    """First N Maclaurin coefficients plus a geometric tail-decay estimate."""

    coefficients: np.ndarray
    order: int
    tail_ratio: float

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=complex).copy()
        if arr.ndim != 1 or arr.size != self.order or self.order < 1:
            raise InvalidParameterError("coefficient array must have length equal to the order")
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise InvalidParameterError(f"expansion order must lie in [1, {MAX_ORDER}]")


def _den_tail_ratio(den: Polynomial) -> float:
    if den.degree == 0:
        return 0.0
    try:
        mods = [abs(complex(r)) for r in den.roots()]
        return 1.0 / min(mods) if mods else 0.0
    except np.linalg.LinAlgError:
        return -1.0  # signal: fall back to a coefficient ratio


def expand_rational(f: RationalFunction, n: int) -> TaylorSeries:
    """Maclaurin coefficients of num/den by the standard linear recurrence.

    den(0) c_n = num_n - sum_{k>=1} den_k c_{n-k}; exact in exact arithmetic.
    The denominator must be zero-free on the closed unit disk for the series
    to converge there; violations raise PoleEncounteredError.
    """
    _check_order(n)
    if f.den(0) == 0:
        raise PoleAtOriginError("denominator vanishes at the origin")
    if f.den.degree >= 1 and not _poly_zero_free(f.den):
        raise PoleEncounteredError("denominator has a zero in the closed unit disk")
    num = np.zeros(n, dtype=complex)
    m = min(n, f.num.degree + 1)
    num[:m] = f.num.coefficients[:m]
    den = np.asarray(f.den.coefficients, dtype=complex)
    d0 = den[0]
    c = np.zeros(n, dtype=complex)
    dd = len(den) - 1
    for k in range(n):
        acc = num[k]
        j = min(k, dd)
        if j > 0:
            acc -= np.dot(den[1 : j + 1], c[k - 1 :: -1][:j])
        c[k] = acc / d0
    ratio = _den_tail_ratio(f.den)
    if ratio < 0.0:
        ratio = abs(c[-1] / c[-2]) if n >= 2 and abs(c[-2]) > 0 else 0.0
    return TaylorSeries(c, n, ratio)


def series_mul(f: TaylorSeries, g: TaylorSeries) -> TaylorSeries:
    """Cauchy product truncated to the common order."""
    if f.order != g.order:
        raise InvalidParameterError("series orders must agree")
    prod = np.convolve(f.coefficients, g.coefficients)[: f.order]
    return TaylorSeries(prod, f.order, max(f.tail_ratio, g.tail_ratio))


def series_pow_real(f: TaylorSeries, gamma: float) -> TaylorSeries:
    """Coefficients of f^gamma on the principal branch at f(0).

    First-order recurrence n c_0 w_n = sum_{k=1..n} (gamma k - (n - k)) c_k w_{n-k},
    seeded with w_0 = c_0^gamma.
    """
    c = f.coefficients
    c0 = c[0]
    if c0 == 0:
        raise ZeroConstantTermError("constant term vanishes; real power undefined")
    n = f.order
    w = np.zeros(n, dtype=complex)
    w[0] = complex(c0) ** float(gamma)
    for m in range(1, n):
        ks = np.arange(1, m + 1)
        weights = gamma * ks - (m - ks)
        w[m] = np.dot(weights * c[1 : m + 1], w[m - 1 :: -1][:m]) / (m * c0)
    return TaylorSeries(w, n, f.tail_ratio)


def expand_analytic(f: AnalyticFunction, n: int) -> TaylorSeries:
    """Truncated series of base * prod r_i^gamma_i.

    tail_ratio is the reciprocal of the modulus of the nearest singularity
    over all parts (0 for entire parts).
    """
    _check_order(n)
    out = expand_rational(f.base, n)
    for r, gamma in f.factors:
        part = series_pow_real(expand_rational(r, n), gamma)
        out = series_mul(out, part)
    radius = min_singularity_radius(f)
    ratio = 0.0 if math.isinf(radius) else 1.0 / radius
    return TaylorSeries(out.coefficients, n, max(ratio, 0.0))


def series_tail_bound(f: AnalyticFunction, n: int, safety: float = 1.1) -> float:
    """Upper bound on sqrt(sum_{k>=n} |c_k|^2) from Cauchy's estimate.

    For every radius 1 < r < R (R the nearest singularity), |c_k| <= M(r)/r^k,
    so the l2 tail is at most M(r) r^{-n} / sqrt(1 - r^{-2}); the bound is
    minimized over a short ladder of radii.  Weighted-space tails are no
    larger because the basis weights beta(k) never exceed 1.
    """
    deg = f.polynomial_degree()
    if deg is not None and deg < n:
        return 0.0
    radius = min(min_singularity_radius(f), 9.0)
    if radius <= 1.0 + 1e-9:
        return math.inf
    best = math.inf
    for j in range(1, 8):
        r = 1.0 + (radius - 1.0) * j / 8.0
        m = float(np.abs(f(circle(r, 512))).max())
        bound = safety * m * r ** (-n) / math.sqrt(1.0 - r ** (-2))
        best = min(best, bound)
    return best
