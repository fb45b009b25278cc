"""Analytic-function arithmetic on the closed unit disk.

The symbol class is: rational function times real powers of linear-fractional
factors (p + q z)/(s + t z), as every weight built from kernels K_w o phi is;
a zero- and pole-free rational factor splits into such factors as
r(0)^gamma prod (1 - z/rho_i)^gamma prod (1 - z/sigma_j)^-gamma.  The class is
closed under products, reciprocals (of zero-free members), composition with a
linear-fractional disk self-map, and pointwise evaluation, and each factor
expands in linear time by the first-order recurrences of its differential
equation.

A truncated Maclaurin series is a plain complex array of its first n
coefficients, and expand_analytic is the one way to get one.  It tests no
denominator: AnalyticFunction construction is the one place that does.

Every symbol type evaluates at a complex scalar (in Python complex arithmetic)
or elementwise over a numpy array; circle(r, n) gives the sample points that
the sup estimate, the constancy tests and the zero tests evaluate on.  Tail
bounds are proved, not sampled: series_tail_bound applies Parseval to a
closed-form majorant of |f| on a circle, which samples only a base
denominator of degree 2 or more, less a Lipschitz and a rounding term.

Principal branch everywhere: each power factor must map the closed disk off
the cut (-inf, 0], which one exact test on its image disk decides; inputs
violating that are rejected, never rebranched.

Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchViolationError,
    IndeterminateError,
    InvalidParameterError,
    PoleAtOriginError,
    PoleEncounteredError,
)
from .moebius import MoebiusMap, disk_image, require_in_disk, require_pole_free

MAX_DEGREE = 64

# The zero test's circle, refusal threshold and samples (no_zero_in_closed_disk).
_ZERO_TEST_RADIUS = 1.0 + 1e-6
_ZERO_TEST_GUARD = 1e-8
_ZERO_TEST_SAMPLES = 8192
# The power-factor gate's band, relative to max |r| on the closed disk.
_GATE_BAND = 1e-8
# Machine epsilon of a double, np.finfo(float).eps: the unit of every rounding bound in the package.
_EPS = 2.0**-52
# The least positive normal double.
_TINY = float(np.finfo(float).tiny)
# Relative tolerance of is_value_constant and samples of boundary_sup.
_CONSTANT_TOL = 1e-12
_BOUNDARY_SUP_SAMPLES = 2048
# The majorant's circles (_tail_radii, _log_majorant): the cap on their
# radii, their gaps (R - rho)/(R - 1), the samples of a base denominator of
# degree >= 2 on each circle, and the least ratio of a lower bound to its
# rounding bound.
_TAIL_RADIUS_CAP = 9.0
_TAIL_GAPS = 2.0 ** (-np.arange(1, 49) / 3.0)
_TAIL_GAPS.flags.writeable = False
_TAIL_SAMPLES = 512
_TAIL_CONDITION = 2.0**12


# ---------------------------------------------------------------------------
# Polynomials

def _trim(coeffs) -> tuple[complex, ...]:
    c = [complex(x) for x in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c) if c else (0j,)


@dataclass(frozen=True)
class Polynomial:
    """Finite complex coefficients in ascending degree, trailing zeros trimmed."""

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        c = _trim(self.coefficients)
        if not all(cmath.isfinite(x) for x in c):
            raise InvalidParameterError("polynomial coefficients must be finite")
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

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial((0j,))
        return Polynomial(tuple(np.convolve(self.coefficients, other.coefficients)))

    def scale(self, lam: complex) -> "Polynomial":
        return Polynomial(tuple(complex(lam) * c for c in self.coefficients))

    def roots(self) -> np.ndarray:
        if self.degree == 0:
            return np.array([], dtype=complex)
        # coefficient / leading coefficient overflows past the double range
        with np.errstate(over="ignore", invalid="ignore"):
            if self.degree == 1:
                # np.roots' 1 x 1 companion matrix holds this quotient, and its
                # eigenvalue is the same root bit for bit where 1e-138 < |root| <
                # 1e138 (outside, LAPACK rescales; 1 ulp, far from the circle).
                c0, c1 = self.coefficients
                root = -np.array([c0]) / c1 if c0 != 0 else np.zeros(1, dtype=complex)
                if not np.isfinite(root[0]):
                    raise IndeterminateError("coefficient ratios overflow; roots not computable")
                return root
            try:
                return np.roots(list(reversed(self.coefficients)))
            except np.linalg.LinAlgError:
                raise IndeterminateError("coefficient ratios overflow; roots not computable") from None


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

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        # The unit 1/1 (the base of every kernel) returns the other operand.
        if other == _UNIT:
            return self
        if self == _UNIT:
            return other
        return RationalFunction(self.num * other.num, self.den * other.den)

    def scale(self, lam: complex) -> "RationalFunction":
        return RationalFunction(self.num.scale(lam), self.den)

    def reciprocal(self) -> "RationalFunction":
        if self.num(0) == 0:
            raise PoleAtOriginError("numerator vanishes at the origin; reciprocal has a pole there")
        return RationalFunction(self.den, self.num)


def rational(num_coeffs, den_coeffs=(1,)) -> RationalFunction:
    return RationalFunction(poly(*num_coeffs), poly(*den_coeffs))


_UNIT = rational((1,))


def _times_linear(p: list[complex], u: complex, v: complex) -> list[complex]:
    """The coefficients of p(z) (u + v z), in Python complex arithmetic."""
    return [p[0] * u] + [x * u + y * v for x, y in zip(p[1:], p)] + [p[-1] * v]


def compose_rational_moebius(r: RationalFunction, phi: MoebiusMap) -> RationalFunction:
    """r(phi(z)), expanded back to a ratio of polynomials of the same degree.

    With A = a z + b, L = c z + d and m = max(deg num, deg den), each part
    sum_k c_k z^k lifts to sum_k c_k A^k L^(m-k) by Horner's rule in A,
    building the powers of L along the way: m steps of two products by a
    linear polynomial, in Python complex arithmetic, so that the result does
    not depend on the numpy build.  For m <= 1 that is the 2 x 2 coefficient
    product (c0 d + c1 b, c0 c + c1 a).
    """
    m = max(r.num.degree, r.den.degree)

    def lift(p: Polynomial) -> Polynomial:
        cs = p.coefficients + (0j,) * (m + 1 - len(p.coefficients))
        out, power = [cs[m]], [1 + 0j]
        for coef in reversed(cs[:m]):
            power = _times_linear(power, phi.d, phi.c)
            out = [x + coef * y for x, y in zip(_times_linear(out, phi.b, phi.a), power)]
        return Polynomial(tuple(out))

    return RationalFunction(lift(r.num), lift(r.den))


def no_zero_in_closed_disk(r: RationalFunction) -> bool:
    """Whether r.num has no root of modulus <= R = 1 + 1e-6.

    Decided from the computed roots of p = r.num at unit scale (largest real or
    imaginary coefficient part in [1/2, 1)), so 2^j p decides as p.
    IndeterminateError when min|p| < 1e-8 max(1, max|p|) on |z| = R, over 8192
    points and the point nearest each root; the circle is sampled only when
    the bounds |a_n| prod |R - |rho_i|| <= |p| <= sum |a_i| R^i cannot rule that out.
    """
    return _poly_zero_free(r.num)


def _poly_zero_free(p: Polynomial) -> bool:
    if p.is_zero():
        return False
    if p.degree == 0:
        return True
    p = Polynomial(_unit_coefficients(p))
    roots = p.roots()
    mods = np.abs(roots)
    with np.errstate(over="ignore"):
        lower = abs(p.coefficients[-1]) * np.prod(np.abs(_ZERO_TEST_RADIUS - mods))
    upper = sum(abs(a) * _ZERO_TEST_RADIUS**i for i, a in enumerate(p.coefficients))
    if lower < _ZERO_TEST_GUARD * max(1.0, upper):
        # The product bound is loose when roots spread in argument.
        z = np.concatenate([circle(1.0, _ZERO_TEST_SAMPLES), np.exp(1j * np.angle(roots))])
        mags = np.abs(p(_ZERO_TEST_RADIUS * z))
        if mags.min() < _ZERO_TEST_GUARD * max(1.0, mags.max()):
            raise IndeterminateError(
                f"a root lies too close to the test circle |z| = {_ZERO_TEST_RADIUS!r} to decide"
            )
    return bool(np.all(mods > _ZERO_TEST_RADIUS))


def _unit_coefficients(p: Polynomial) -> tuple[complex, ...]:
    """The coefficients of p, padded to two, times the power of two that brings
    their largest real or imaginary part into [1/2, 1): the same for p and 2^j p."""
    cs = p.coefficients + (0j,) * (2 - len(p.coefficients))
    e = -math.frexp(max(max(abs(c.real), abs(c.imag)) for c in cs))[1]
    return tuple(complex(math.ldexp(c.real, e), math.ldexp(c.imag, e)) for c in cs)


def _factor_admissible(r: RationalFunction) -> None:
    """Admit r = (p + q z)/(s + t z) as a power factor, or raise.

    r is pole-free on the closed disk iff |t| < |s|, and then maps it onto
    the disk |w - C| <= R of disk_image: zero-free iff |C| > R, and off the
    cut (-inf, 0] iff dist(C, cut) > R, that distance being |C| if Re C >= 0
    and |Im C| otherwise.  Scaling num and den by powers of two first scales
    C and R alike, so 2^j r decides as r does.  IndeterminateError inside
    1e-8 (|C| + R) plus a rounding bound; outside it the decision is exact.
    """
    if r.num.is_zero():
        raise BranchViolationError("factor has a zero in the closed unit disk")
    (p, q), (s, t) = _unit_coefficients(r.num), _unit_coefficients(r.den)
    if not abs(t) < abs(s):
        raise BranchViolationError("factor has a pole in the closed unit disk")
    centre, radius = disk_image(q, p, t, s)
    dist = abs(centre) if centre.real >= 0.0 else abs(centre.imag)
    # C and R share the divisor (|s| - |t|)(|s| + |t|), whose rounding scales
    # both alike, and their numerators round by less than
    # 4 eps (|p| + |q|)(|s| + |t|): by 4 eps (|p| + |q|)/(|s| - |t|) once divided.
    size = (abs(p) + abs(q)) / (abs(s) - abs(t))
    if abs(dist - radius) <= _GATE_BAND * (abs(centre) + radius) + 4.0 * _EPS * size:
        margin = (dist - radius) / (abs(centre) + radius)
        raise IndeterminateError(f"factor's image disk is {margin:.3g} of its size off the cut: too close to decide")
    if abs(centre) < radius:
        raise BranchViolationError("factor has a zero in the closed unit disk")
    if dist < radius:
        raise BranchViolationError("factor maps a point of the closed disk into the branch cut (-inf, 0]")


# ---------------------------------------------------------------------------
# The symbol class

def _admit_base(base: RationalFunction) -> None:
    """Admit a base with no pole in the closed disk, or raise."""
    if not base.den.is_constant() and not _poly_zero_free(base.den):
        raise PoleEncounteredError("denominator has a zero in the closed unit disk")


@dataclass(frozen=True)
class AnalyticFunction:
    """base(z) * prod_i r_i(z)^gamma_i, analytic on the closed disk.

    Construction rejects a base with a pole in the closed disk
    (PoleEncounteredError, or IndeterminateError for one too close to the
    circle to place), a power factor that is not linear-fractional
    (InvalidParameterError), and one that _factor_admissible refuses
    (BranchViolationError or IndeterminateError).  Each factor passes that
    gate once, when it is built: products, scalings and reciprocals reuse
    their operands' immutable, admitted factors untested (the gate does not
    read the exponent).  Of their bases only a reciprocal's is tested, since
    its denominator is the old numerator; a product's denominator has just
    the zeros of two admitted ones.
    """

    base: RationalFunction
    factors: tuple[tuple[RationalFunction, float], ...] = ()

    def __post_init__(self):
        _admit_base(self.base)
        for r, _gamma in self.factors:
            if r.num.degree > 1 or r.den.degree > 1:
                raise InvalidParameterError("a power factor must be (p + q z)/(s + t z): write r^gamma as "
                                            "r(0)^gamma prod (1 - z/zero)^gamma prod (1 - z/pole)^-gamma")
            _factor_admissible(r)

    @classmethod
    def _admitted(cls, base: RationalFunction, factors: tuple) -> "AnalyticFunction":
        """The symbol of parts that have passed the gates: none runs again."""
        f = object.__new__(cls)
        object.__setattr__(f, "base", base)
        object.__setattr__(f, "factors", factors)
        return f

    def __call__(self, z):
        """f(z) at a complex scalar, InvalidParameterError where it leaves the
        double range, or elementwise over an array (sample checks samples)."""
        out = self.base(z)
        try:
            for r, gamma in self.factors:
                out *= r(z) ** gamma
        except (OverflowError, ZeroDivisionError):  # only a scalar power raises
            out = cmath.inf
        if not isinstance(out, np.ndarray) and not cmath.isfinite(out):
            raise InvalidParameterError(f"the weight's value at z = {z:.6g} leaves the double range")
        return out

    def __mul__(self, other: "AnalyticFunction") -> "AnalyticFunction":
        return AnalyticFunction._admitted(self.base * other.base, self.factors + other.factors)

    def scale(self, lam: complex) -> "AnalyticFunction":
        return AnalyticFunction._admitted(self.base.scale(lam), self.factors)

    def reciprocal(self) -> "AnalyticFunction":
        base = self.base.reciprocal()
        _admit_base(base)
        return AnalyticFunction._admitted(base, tuple((r, -gamma) for r, gamma in self.factors))

    def polynomial_degree(self) -> int | None:
        """Degree if the function is literally a polynomial, else None."""
        return self.base.num.degree if self.base.den.is_constant() and not self.factors else None


def constant_fn(value: complex) -> AnalyticFunction:
    return AnalyticFunction(rational((value,)))


def polynomial_fn(*coeffs) -> AnalyticFunction:
    return AnalyticFunction(rational(coeffs))


def rational_fn(num_coeffs, den_coeffs) -> AnalyticFunction:
    return AnalyticFunction(rational(num_coeffs, den_coeffs))


def kernel_function(w: complex, gamma: float) -> AnalyticFunction:
    """(1 - conj(w) z)^(-gamma), the evaluation kernel at w for exponent gamma.

    w must lie in the open disk.  The factor maps the closed disk onto
    |v - 1| <= |w|: admitted for |w| < 1 - 2e-8, indeterminate closer to 1.
    """
    w = require_in_disk(w, "kernel point")
    return AnalyticFunction(_UNIT, ((rational((1, -w.conjugate())), -float(gamma)),))


def composed_kernel(w: complex, gamma: float, phi: MoebiusMap) -> AnalyticFunction:
    """K_w o phi, the kernel at w for exponent gamma composed with
    phi = (a z + b)/(c z + d), as the one power factor
    ((d - conj(w) b) + (c - conj(w) a) z)/(d + c z) to the power -gamma.

    Bit for bit compose_with_moebius(kernel_function(w, gamma), phi), whose
    factor it composes by the same compose_rational_moebius, but through one
    gate: w through require_in_disk, the composed factor through
    _factor_admissible, and no kernel built first.
    """
    w = require_in_disk(w, "kernel point")
    factor = compose_rational_moebius(RationalFunction(Polynomial((1, -w.conjugate()))), phi)
    return AnalyticFunction(_UNIT, ((factor, -float(gamma)),))


def compose_with_moebius(f: AnalyticFunction, phi: MoebiusMap) -> AnalyticFunction:
    """f(phi(z)): the base and each power factor composed by
    compose_rational_moebius (Horner's rule; for a linear-fractional factor,
    the 2 x 2 coefficient product), exponents unchanged.

    The composed factors pass the construction gates again; composed with a
    self-map, a factor's image disk can only shrink.
    """
    base = compose_rational_moebius(f.base, phi)
    factors = tuple(
        (compose_rational_moebius(r, phi), gamma) for r, gamma in f.factors
    )
    return AnalyticFunction(base, factors)


def circle(r: float, n: int) -> np.ndarray:
    """The n points r exp(2 pi i k/n), k = 0..n-1."""
    return r * np.exp(1j * (2.0 * math.pi * np.arange(n) / n))


# The sample points of is_value_constant: 0, then circle(0.7, 24).
_VALUE_POINTS = np.append(0j, circle(0.7, 24))
_VALUE_POINTS.flags.writeable = False


def in_double_range(values: np.ndarray, f: AnalyticFunction) -> np.ndarray:
    """values, samples of f, if every one is finite and, unless f is zero (its
    base numerator is, exactly), not all are zero or subnormal: else a test
    comparing them decides nothing, and InvalidParameterError says so."""
    top = float(np.abs(values).max())
    if math.isfinite(top) and (top >= _TINY or f.base.num.is_zero()):
        return values
    why = f"every one is zero or subnormal (at most {top:.3g})" if math.isfinite(top) else "one is not finite"
    raise InvalidParameterError(f"samples of the weight leave the double range: {why}")


def sample(f: AnalyticFunction, z: np.ndarray) -> np.ndarray:
    """f at the points z, through in_double_range, with numpy's warnings silenced."""
    with np.errstate(all="ignore"):
        return in_double_range(f(z), f)


def is_value_constant(f: AnalyticFunction) -> bool:
    """Whether f is constant as a function: each of its samples on the grid
    circle(0.7, 24) lies within 1e-12 of f(0), relative to the largest of
    those samples and f(0), a test that c f passes exactly when f does."""
    v = sample(f, _VALUE_POINTS)
    return not np.any(np.abs(v[1:] - v[0]) > _CONSTANT_TOL * np.abs(v).max())


def boundary_sup(f: AnalyticFunction) -> float:
    """max |f| over 2048 points of the unit circle (lower estimate of the sup)."""
    return float(np.abs(f(circle(1.0, _BOUNDARY_SUP_SAMPLES))).max())


def _linear_moduli(p: Polynomial) -> tuple[float, float]:
    """(|c0|, |c1|) for p = c0 + c1 z of degree <= 1: on |z| = rho, |p| lies
    between |c0| - |c1| rho and |c0| + |c1| rho."""
    c0, *c1 = p.coefficients
    return abs(c0), abs(c1[0]) if c1 else 0.0


def _zero_radius(p: Polynomial) -> float:
    """|c0/c1| for p = c0 + c1 z (inf for a constant p)."""
    a, b = _linear_moduli(p)
    return a / b if b else math.inf


def min_singularity_radius(f: AnalyticFunction) -> float:
    """Modulus of the singularity of f nearest the origin (inf if entire).

    Each power factor (p + q z)/(s + t z) contributes min(|p/q|, |s/t|) in
    closed form, as does a base denominator of degree 1; only a base
    denominator of degree 2 or more is solved for its roots.
    """
    den = f.base.den
    if den.degree >= 2:
        radius = float(np.abs(den.roots()).min())
    else:
        radius = _zero_radius(den)
    for r, _gamma in f.factors:
        radius = min(radius, _zero_radius(r.num), _zero_radius(r.den))
    return radius


# ---------------------------------------------------------------------------
# Truncated Maclaurin series: complex arrays of the first n coefficients

def _rational_series(f: RationalFunction, n: int) -> np.ndarray:
    """The first n Maclaurin coefficients of num/den, for the base of an
    AnalyticFunction, whose construction tested its denominator.

    den(0) c_n = num_n - sum_{k>=1} den_k c_{n-k}; a denominator of degree 0
    or 1 takes its closed form instead: num/d0, or num times the geometric
    series of 1/den, one cumulative product of -d1/d0.
    """
    num = np.zeros(n, dtype=complex)
    m = min(n, f.num.degree + 1)
    num[:m] = f.num.coefficients[:m]
    den = np.asarray(f.den.coefficients, dtype=complex)
    d0 = den[0]
    dd = len(den) - 1
    if dd == 0:
        return num / d0
    c = np.zeros(n, dtype=complex)
    if dd == 1:
        # 1/den = (1 + (d1/d0) z)^-1 / d0.
        geometric = np.cumprod(np.concatenate(([1.0 + 0j], np.full(n - 1, -1.0) * (den[1] / d0))))
        series = np.convolve(num[:m], geometric)[:n]
        c[: series.size] = series / d0
        return c
    for k in range(n):
        acc = num[k]
        j = min(k, dd)
        if j > 0:
            acc -= np.dot(den[1 : j + 1], c[k - 1 :: -1][:j])
        c[k] = acc / d0
    return c


def _linear_power(p: complex, q: complex, s: complex, t: complex, gamma: float, n: int) -> np.ndarray:
    """The first n Maclaurin coefficients of ((p + q z)/(s + t z))^gamma.

    With a = q/p, b = t/s and g = gamma (q s - p t)/(p s), f = r^gamma solves
    (1 + a z)(1 + b z) f' = g f, which runs as two first-order recurrences
    in Python complex arithmetic: u_k = g f_k - a u_(k-1) (u = (1 + b z) f')
    and (k + 1) f_(k+1) = u_k - b k f_k, from f_0 = (p/s)^gamma.  The gate
    admits only p != 0 and |t| < |s|, so a and b are finite.  Kept in this
    factored form, the recurrence leaves the roots -1/a and -1/b where they
    are; multiplying (1 + a z)(1 + b z) out moves them.  Measured against a
    40-digit oracle on 400 seeded composed kernels K_w o phi of every map
    class at gamma = 150 and n = 1024, |w| <= 0.99, the relative l2 error
    reached 3.9e-13 (6 of them above 2e-13, all on automorphisms and
    interior contractions), below the 1e-12 adjoint_norm rounding allowance
    of CertificateWitness.is_conclusive; no bound on it is proved.
    """
    a, b = q / p, t / s
    g = gamma * (q * s - p * t) / (p * s)
    fk = (p / s) ** gamma
    f = [fk]
    u = 0j
    for k in range(1, n):
        u = g * fk - a * u
        fk = (u - (k - 1) * b * fk) / k
        f.append(fk)
    return np.array(f, dtype=complex)


# The one cap on truncation orders: series, sections, Grams and searches.
MAX_TRUNCATION = 1024


def _check_truncation(n: int) -> None:
    if not 1 <= n <= MAX_TRUNCATION:
        raise InvalidParameterError(f"truncation order must lie in [1, {MAX_TRUNCATION}]")


def expand_analytic(f: AnalyticFunction, n: int) -> np.ndarray:
    """The first n Maclaurin coefficients of base * prod r_i^gamma_i, as a
    new complex array that the caller owns.

    The base takes its rational series; every power factor is
    linear-fractional and takes the O(n) recurrence of _linear_power.  Each
    part joins by a truncated Cauchy product; a unit base 1/1, as kernels
    and composed kernels have, joins none.  Construction of f tested every
    denominator, so nothing is tested here; n must lie in [1, MAX_TRUNCATION].
    """
    _check_truncation(n)
    out = None if f.base == _UNIT and f.factors else _rational_series(f.base, n)
    for r, gamma in f.factors:
        (p, q), (s, t) = (c + (0j,) * (2 - len(c)) for c in (r.num.coefficients, r.den.coefficients))
        part = _linear_power(p, q, s, t, gamma, n)
        out = part if out is None else np.convolve(out, part)[:n]
    return out


def _sampled_minimum(den: Polynomial, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A lower bound on |den| on each circle |z| = rho, and its rounding bound.

    The least of |den| at 512 points, less the Lipschitz term
    max |den'| * 2 pi rho / 512 (max |den'| <= sum k |d_k| rho^(k-1); the
    factor 1.0001 covers the rounding of the points) and twice the Horner
    rounding bound 8 (d + 1) eps sum |d_k| rho^k.  Where that is positive,
    no arc between neighbouring samples moves den by as much as its value,
    so the summed angle steps count the zeros inside the circle exactly; a
    radius whose count is not 0 gets the bound 0, which skips it.
    """
    d = den.degree
    mods = np.abs(den.coefficients)
    powers = rho ** np.arange(d + 1)[:, None]
    values = den(rho[:, None] * circle(1.0, _TAIL_SAMPLES))
    least = np.abs(values).min(axis=1)
    cut = (1.0001 * 2.0 * math.pi / _TAIL_SAMPLES * (np.arange(1, d + 1) * mods[1:]) @ powers[:-1] * rho
           + 16.0 * (d + 1) * _EPS * (mods @ powers))
    winding = np.angle(np.roll(values, -1, axis=1) * values.conj()).sum(axis=1)
    lower = np.where(np.abs(winding) < math.pi, least - cut, 0.0)
    return lower, 4.0 * (d + 2) * _EPS * (least + cut)


def _majorant_terms(f: AnalyticFunction, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows m, X, E such that log max |f| on |z| = rho is at most
    sum_i m_i log X_i(rho), for each radius rho < R at which every X_i is
    positive; E_i bounds the absolute rounding error of the computed X_i.

    The base numerator gives X = sum |a_k| rho^k (m = 1); a base denominator
    of degree 0 or 1 gives |d0| - |d1| rho, one of higher degree a sampled
    minimum (_sampled_minimum; m = -1).  A power factor ((p + q z)/(s + t z))^gamma
    gives (|p| + |q| rho)/(|s| - |t| rho) to the power gamma > 0 and
    (|s| + |t| rho)/(|p| - |q| rho) to the power -gamma < 0, since
    |r^gamma| = |r|^gamma on the principal branch.  Each linear X = a + b rho
    rounds by at most 4 eps (a + |b| rho).
    """
    num, den = f.base.num, f.base.den
    m, a, b = [], [], []
    for r, gamma in f.factors:
        (p, q), (s, t) = map(_linear_moduli, (r.num, r.den) if gamma > 0 else (r.den, r.num))
        m += [abs(gamma), -abs(gamma)]
        a += [p, s]
        b += [q, -t]
    if num.degree <= 1:
        p, q = _linear_moduli(num)
        m.append(1.0)
        a.append(p)
        b.append(q)
    if den.degree <= 1:
        s, t = _linear_moduli(den)
        m.append(-1.0)
        a.append(s)
        b.append(-t)
    a, b = np.array(a)[:, None], np.array(b)[:, None]
    x, err = a + b * rho, 4.0 * _EPS * (a + np.abs(b) * rho)
    if num.degree >= 2:
        size = np.abs(num.coefficients) @ rho ** np.arange(num.degree + 1)[:, None]
        m.append(1.0)
        x, err = np.vstack((x, size)), np.vstack((err, 2.0 * (num.degree + 2) * _EPS * size))
    if den.degree >= 2:
        lower, lower_err = _sampled_minimum(den, rho)
        m.append(-1.0)
        x, err = np.vstack((x, lower)), np.vstack((err, lower_err))
    return np.array(m), x, err


def _tail_radii(f: AnalyticFunction, cap: float = math.inf) -> np.ndarray | None:
    """The 48 radii at which a Parseval bound on f is tried:
    rho = R - (R - 1) 2^(-j/3), j = 1..48, which crowd towards R, the least
    of f's singularity radius, 9 (where the optimum rho ~ R (1 - gamma/n)
    of a power singularity lies) and cap, a caller's own bound.  None when
    R <= 1 + 1e-9, so that no circle beyond the unit circle is left.
    """
    top = min(min_singularity_radius(f), _TAIL_RADIUS_CAP, cap)
    return top - (top - 1.0) * _TAIL_GAPS if top > 1.0 + 1e-9 else None


def _log_majorant(f: AnalyticFunction, rho: np.ndarray, n: int = 0) -> np.ndarray:
    """Upper bounds on log(rho^-n max_{|z|=rho} |f|) for an array of radii
    rho > 1: _majorant_terms' sum of m_i log X_i, less n log rho, plus a
    bound on the rounding of that sum.  inf at a radius where a lower bound
    among the terms is not positive or is ill-conditioned (relative rounding
    above 2^-12).

    log(X (1 + theta)) = log X + theta' with |theta'| <= 1.0002 |theta| for
    |theta| <= 2^-12, and each log, product and sum rounds by at most eps
    times the sum of the moduli of its terms, of which there are len(m) + 1.
    """
    m, x, err = _majorant_terms(f, rho)
    ok = (x > _TAIL_CONDITION * err).all(axis=0)
    x = np.where(ok, x, 1.0)
    logs, weights, shift = np.log(x), np.abs(m), n * np.log(rho)
    slack = 1.0002 * (weights @ (err / x)) + 2.0 * (len(m) + 4) * _EPS * (weights @ np.abs(logs) + shift)
    return np.where(ok, m @ logs - shift + slack, math.inf)


def series_tail_bound(f: AnalyticFunction, n: int) -> float:
    """A proved upper bound on sqrt(sum_{k>=n} |c_k|^2) for the Maclaurin
    coefficients c_k of f.

    Parseval on a circle |z| = rho inside the nearest singularity R gives
    sum_k |c_k|^2 rho^(2k) <= M(rho)^2 for any M(rho) >= max |f| there, so
    the tail is at most rho^(-n) M(rho).  M is the closed-form majorant of
    _majorant_terms, and rho is the best of _tail_radii's 48 radii.  The
    result is the exponential of the least of _log_majorant's bounds on
    log(rho^-n M(rho)), which states their rounding, rounded up one ulp.

    The bound is on the Taylor (Hardy) coefficients: a caller in a weighted
    space multiplies it by beta(n), which bounds beta(k) for every k >= n.
    """
    deg = f.polynomial_degree()
    if (deg is not None and deg < n) or f.base.num.is_zero():
        return 0.0
    rho = _tail_radii(f)
    if rho is None:
        return math.inf
    best = float(_log_majorant(f, rho, n).min())
    return math.nextafter(math.exp(best), math.inf) if best < 709.0 else math.inf
