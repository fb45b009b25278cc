"""Decidable hyponormality statements as executable logic.

Classifiers return theorem-backed verdicts with human-readable citation
clauses and the map's class; closed-form spectral and essential spectral
radii and norm bounds (each public function classifies the map once and
computes only what it returns), Clark singular parts, the compact normal
form and its kernel-quotient weight, conjugation of an interior fixed point
to the origin, and a numeric witness search for non-hyponormality
certificates.

The verdict types, the citation clauses, classify_unweighted and
normal_form_map live in verdict, which needs no numpy, and are re-exported
here.

The parabolic inequality and the norm lower bound evaluate the kernel
ratio on their grid as one array (_kernel_ratios), and the first violation
in grid order wins; the witness search walks its own grid in a fixed order.
Every function is pure but witness_search, whose wall-clock deadline can
end a search early on a slow machine.  The witness
search slices its 2x2 and 3x3 generalized eigenproblems from one grid Gram
and solves them as stacks by a numpy Cholesky reduction, so nothing here
imports scipy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import (
    HypothesisMismatchError,
    IndeterminateError,
    InvalidParameterError,
    NotAFixedPointError,
    PrecisionLossError,
    TheoryUnavailableError,
    ZeroSymbolError,
)
from .funcalg import (
    _EPS,
    MAX_TRUNCATION,
    AnalyticFunction,
    _check_truncation,
    circle,
    compose_with_moebius,
    composed_kernel,
    constant_fn,
    in_double_range,
    is_value_constant,
    kernel_function,
    no_zero_in_closed_disk,
    sample,
)
from .matrixrep import KernelImages, _table_forms, as_analytic, kernel_gram_norms
from .moebius import (
    MapKind,
    MoebiusMap,
    alpha_p,
    angular_derivative,
    classify,
    compose,
    map_distance,
    require_in_disk,
    require_self_map,
)
from .space import SpaceSpec, kernel_norm
from .verdict import (  # every name of verdict, re-exported
    CIT_COMPACT_FORCES_DILATION, CIT_COMPACT_NORMAL_FORM, CIT_CONSTANT_WEIGHT, CIT_CONTACT_NOT_FIXED,
    CIT_HYPERBOLIC_CANDIDATE, CIT_NORM_BOUND_EXCEEDED, CIT_NORM_KERNEL_GRID, CIT_NORM_MU_LOWER,
    CIT_NORM_MU_UPPER, CIT_NORMAL_DILATION, CIT_NUMERIC_WITNESS, CIT_ORIGIN_NOT_FIXED,
    CIT_PARABOLIC_KERNEL_INEQUALITY, CIT_R_AUTOMORPHISM, CIT_R_BOUNDARY, CIT_R_CONTRACTION, CIT_R_PARABOLIC,
    CIT_RE_BOUNDARY, CIT_RE_COMPACT, CIT_UNDECIDED, CIT_WEIGHT_VANISHES_AT_CONTACT, SEARCH_BUDGET_S,
    SEARCH_ORDER, SEARCH_SEED, CertificateWitness, HyponormalityVerdict, Outcome, classify_unweighted,
    normal_form_map,
)


@dataclass(frozen=True)
class WeightedOptions:
    """Options of classify_weighted: whether an undecided verdict escalates
    to witness_search, and that search's budget and seed, which default to
    verdict's SEARCH_BUDGET_S and SEARCH_SEED.  The search starts at
    SEARCH_ORDER.  budget_seconds must be positive (+inf: no deadline)."""

    escalate_numeric: bool = False
    budget_seconds: float = SEARCH_BUDGET_S
    seed: int = SEARCH_SEED

    def __post_init__(self):
        _check_budget(self.budget_seconds)


def _check_budget(budget_seconds: float) -> None:
    """InvalidParameterError for a witness search budget that is NaN or not positive."""
    if not budget_seconds > 0.0:
        raise InvalidParameterError(
            f"witness search budget must be positive seconds (inf for no deadline), got {budget_seconds!r}"
        )


# ---------------------------------------------------------------------------
# Parabolic kernel inequality

@dataclass(frozen=True)
class InequalityViolation:
    point: complex
    fixed_point_value: float   # |psi(zeta)|
    kernel_side_value: float   # |psi(w)| ((1-|w|^2)/(1-|phi(w)|^2))^(gamma/2)

    @property
    def margin(self) -> float:
        return self.kernel_side_value - self.fixed_point_value


def _radial_grid(radii) -> tuple[complex, ...]:
    """0 and 16 equally spaced points on each radius, as Python complex numbers."""
    return (0j,) + tuple(complex(w) for r in radii for w in circle(r, 16))


# The kernel grid of the parabolic inequality and the norm lower bound (145
# points, a read-only array), and the witness search's grid (97 points).
_INEQUALITY_GRID = np.array(_radial_grid((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)))
_INEQUALITY_GRID.flags.writeable = False
_SEARCH_GRID = _radial_grid((0.15, 0.3, 0.45, 0.6, 0.75, 0.9))
# 1 - |x|^2 at the search grid's outermost point: every kernel Gram entry
# |(1 - conj(x) y)^-gamma| on the grid is at most this to the power -gamma.
_SEARCH_GRAM_BASE = min(1.0 - abs(w) ** 2 for w in _SEARCH_GRID)


def kernel_ratio_value(psi, phi: MoebiusMap, space: SpaceSpec, w: complex) -> float:
    """|psi(w)| ((1 - |w|^2)/(1 - |phi(w)|^2))^(gamma/2) = ||C* (K_w/||K_w||)||,
    for w in the open disk and a self-map phi."""
    psi_f = as_analytic(psi)
    w = require_in_disk(w, "kernel point")
    require_self_map(phi)
    return float(_kernel_ratios(psi_f, phi, space, np.array([w]))[0][0])


def _kernel_ratios(psi_f: AnalyticFunction, phi: MoebiusMap, space: SpaceSpec, w: np.ndarray,
                   lhs: float | None = None) -> tuple[np.ndarray, int | None]:
    """The kernel ratio |psi(w)| ((1 - |w|^2)/(1 - |phi(w)|^2))^(gamma/2) =
    ||C* (K_w/||K_w||)|| at each point of w, an array of open-disk points, in
    one numpy evaluation; and the index of the first ratio that exceeds lhs by
    more than 1e-12 of the larger side, or None (always None without lhs).

    The points before that index are checked in order, as a loop would meet
    them: at the first where the ratio is not finite InvalidParameterError is
    raised if |psi(w)| is what is not finite, and otherwise OverflowError
    (the power, or the product of finite factors, overflows).
    """
    with np.errstate(all="ignore"):
        size = np.abs(psi_f(w))
        power = ((1.0 - np.abs(w) ** 2) / (1.0 - np.abs(phi(w)) ** 2)) ** (space.gamma / 2.0)
        ratios = size * power
        over = None if lhs is None else ratios - lhs > 1e-12 * np.maximum(lhs, ratios)
    first = int(over.argmax()) if over is not None and over.any() else None
    bad = ~np.isfinite(ratios[:first])   # a non-finite factor makes the product inf or nan
    if bad.any():
        i = int(bad.argmax())
        if not math.isfinite(size[i]):
            raise InvalidParameterError(f"the weight's value at z = {complex(w[i]):.6g} leaves the double range")
        raise OverflowError(f"the kernel ratio overflows at w = {complex(w[i]):.6g}")
    return ratios, first


def parabolic_kernel_inequality(psi, phi: MoebiusMap, space: SpaceSpec) -> InequalityViolation | None:
    """First point of _INEQUALITY_GRID where |psi(zeta)| fails to dominate
    the kernel ratio.

    Defined for parabolic non-automorphisms, zeta being the fixed point of
    phi; a hyponormal weighted composition with such a symbol must satisfy
    the inequality at every disk point, so a violation excludes hyponormality.
    kernel_ratio_value tests the inequality at any other point.
    """
    cls = classify(phi)
    if cls.kind is not MapKind.PARABOLIC_NONAUTOMORPHISM:
        raise HypothesisMismatchError("symbol is not a parabolic non-automorphism")
    psi_f = as_analytic(psi)
    return _first_violation(psi_f, phi, space, cls.contact[0])


def _first_violation(psi_f: AnalyticFunction, phi: MoebiusMap, space: SpaceSpec,
                     zeta: complex) -> InequalityViolation | None:
    """parabolic_kernel_inequality for a parabolic non-automorphism fixing the unimodular zeta.
    A violation exceeds |psi(zeta)| by 1e-12 of the larger side: c psi violates alike."""
    lhs = abs(psi_f(zeta))
    ratios, i = _kernel_ratios(psi_f, phi, space, _INEQUALITY_GRID, lhs)
    return None if i is None else InequalityViolation(complex(_INEQUALITY_GRID[i]), lhs, float(ratios[i]))


# ---------------------------------------------------------------------------
# Normal form and kernel-quotient weight

def _fixed_point_tol(p: complex) -> float:
    """Coefficient tolerance of the fixed-point gate and the normal-form match:
    1e-10, raised from |p| = 0.9995 on to 1e-13/(1 - |p|^2), the rounding of p.

    p and its mirror 1/conj(p) are roots of one quadratic, 2 (1 - |p|) apart,
    so p, phi(p) - p and the normal form rebuilt at p round by eps/(1 - |p|^2)
    times a constant: at most 4 and 190 over 6000 normal forms with 1 - |p|
    from 1e-3 to 1e-7; 1e-13 is 450 eps.
    """
    return max(1e-10, 1e-13 / (1.0 - abs(p) ** 2))


def _fixes(phi: MoebiusMap, p: complex) -> bool:
    """Whether phi(p) = p to within _fixed_point_tol(p) (1 + |p|^2)."""
    return abs(phi(p) - p) <= _fixed_point_tol(p) * (1.0 + abs(p) ** 2)


def _require_fixed(phi: MoebiusMap, p) -> complex:
    """p as a complex number, if it is a point of the open disk that phi fixes.

    The one fixed-point gate: OutsideDiskError off the open disk,
    NotAFixedPointError where phi(p) != p.
    """
    p = require_in_disk(p, "p")
    if not _fixes(phi, p):
        raise NotAFixedPointError(f"phi({p:.6g}) = {phi(p):.6g} differs from p")
    return p


def kernel_quotient_weight(p: complex, value_at_p: complex, phi: MoebiusMap, space: SpaceSpec) -> AnalyticFunction:
    """The weight value * K_p / (K_p o phi), the only one hyponormality allows
    for a symbol fixing p under the small-essential-spectrum hypothesis."""
    p = _require_fixed(phi, p)
    kp = kernel_function(p, space.gamma)
    kp_phi = composed_kernel(p, space.gamma, phi)
    return (constant_fn(complex(value_at_p)) * kp) * kp_phi.reciprocal()


@dataclass(frozen=True)
class NormalFormSymbols:
    p: complex
    psi: AnalyticFunction
    phi: MoebiusMap

    def __post_init__(self):
        _require_fixed(self.phi, self.p)


def _near_circle_tol(p: complex) -> float:
    """Relative tolerance of the normal-form identities at the fixed point p.

    K_p, K_p o phi and the coefficients of normal_form_map(p, delta) round by
    about eps (1 - |p|^2)^-2 relative: the multiplier phi'(p) was measured
    off delta by 2.5 eps (1 - |p|^2)^-2 for |p| from 0.5 to 0.999999.
    """
    return 1e-12 / (1.0 - abs(p) ** 2) ** 2


def _kernel_quotient_mismatch(psi_f, p, value, phi, space) -> complex | None:
    """The first z of circle(0.85, 20) where psi_f(z) and value K_p(z)/K_p(phi(z))
    differ by more than _near_circle_tol(p) times the larger of the two, or
    None: the one test of the normal-form identity.  Both sides pass
    in_double_range; scaling psi_f and value by one c != 0 moves no decision."""
    z = circle(0.85, 20)
    lhs = sample(psi_f, z)
    kp = kernel_function(p, space.gamma)
    with np.errstate(all="ignore"):
        rhs = in_double_range(complex(value) * kp(z) / kp(phi(z)), psi_f)
    differs = np.abs(lhs - rhs) > _near_circle_tol(p) * np.maximum(np.abs(lhs), np.abs(rhs))
    return complex(z[differs][0]) if differs.any() else None


def normal_form(p: complex, delta: complex, value_at_p: complex, space: SpaceSpec) -> NormalFormSymbols:
    """phi = normal_form_map(p, delta) and psi = value K_p / (K_p o phi).

    The compact hyponormal (equivalently normal) weighted composition
    operators are exactly these, for |delta| < 1.  psi must pass classify_weighted's
    identity test, _kernel_quotient_mismatch (relative tolerance _near_circle_tol(p), scale-free).
    """
    p = complex(p)
    delta = complex(delta)
    phi = normal_form_map(p, delta)
    psi = kernel_quotient_weight(p, value_at_p, phi, space)
    if _kernel_quotient_mismatch(psi, p, value_at_p, phi, space) is not None:
        raise InvalidParameterError("normal-form weight failed its defining identity")
    mult = phi.derivative(p)
    if abs(mult - delta) > _near_circle_tol(p):
        raise InvalidParameterError("interior multiplier does not equal delta")
    return NormalFormSymbols(p, psi, phi)


# ---------------------------------------------------------------------------
# Weighted classifier

def _vanishes_at(psi_f: AnalyticFunction, a: complex, tol: float) -> bool:
    """Whether psi_f(a) = 0 at a point a of the closed disk, to tol relative.

    The AnalyticFunction gate keeps every power factor and the base
    denominator zero-free on the closed disk, so psi_f(a) = 0 exactly when the
    base numerator vanishes at a.  Its value is measured against the size of
    its own terms there, sum |c_k| |a|^k, which no power factor and no alpha
    enters.  c psi_f passes exactly when psi_f does; a size past the double
    range is refused.
    """
    num = psi_f.base.num
    size = sum(abs(c) * abs(a) ** k for k, c in enumerate(num.coefficients))
    if not math.isfinite(size):
        raise InvalidParameterError(f"the weight's terms at z = {a:.6g} leave the double range")
    return abs(num(a)) <= tol * size


def _interior_zero_tol(p: complex) -> float:
    """Relative tolerance of _vanishes_at at the interior fixed point p:
    16 eps/(1 - |p|^2), the rounding of the computed p, and at least 1e-14.

    The Denjoy-Wolff point found from the map's coefficients misses the p a
    normal form was built at by up to 4.7 eps/(1 - |p|^2), relative to the
    size of z - p there (3000 random normal forms, 1 - |p| from 1e-7 to 0.5,
    |delta| from 0.001 to 0.999), so a weight with the factor z - p must
    read as vanishing at the computed point.
    """
    return max(1e-14, 16.0 * _EPS / (1.0 - abs(p) ** 2))


class _Facts:
    """What the public entry points read about C_{psi,phi} on space: psi as
    an AnalyticFunction, built at once, and classify(phi), the constancy
    test, the norm bounds (_norm_bounds) and the grid lower bound
    (norm_lower_bound_grid), each computed on first read, so that every
    entry point raises the error of the first fact it reads."""

    def __init__(self, psi, phi: MoebiusMap, space: SpaceSpec):
        self.psi, self.phi, self.space = as_analytic(psi), phi, space

    cls = cached_property(lambda self: classify(self.phi))
    constant = cached_property(lambda self: is_value_constant(self.psi))
    bounds = cached_property(lambda self: _norm_bounds(self))
    grid_lower = cached_property(lambda self: norm_lower_bound_grid(self.psi, self.phi, self.space))

    def breaks_bound(self) -> bool:
        """Whether grid_lower exceeds bounds.upper by more than 1e-12 of it
        (read in that order), False where there are no bounds.

        grid_lower <= ||C|| unconditionally (CIT_NORM_KERNEL_GRID), and
        ||C|| <= bounds.upper = max{mu, |psi(p)|} if C is hyponormal
        (CIT_NORM_MU_UPPER), so True excludes hyponormality.  The band
        covers the rounding of the grid maximum, measured at most 1.24e-14
        relative above its 40-digit value; both sides scale by |c| for c psi.
        """
        try:
            upper = self.bounds.upper
        except TheoryUnavailableError:
            return False
        return self.grid_lower > upper * (1.0 + 1e-12)


def classify_weighted(
    psi, phi: MoebiusMap, space: SpaceSpec, options: WeightedOptions | None = None
) -> HyponormalityVerdict:
    """Decision tree for hyponormality of f -> psi (f o phi).

    A zero weight is refused and a value-constant one delegates to the
    unweighted classifier.  Then, in order: the identity test (a candidate,
    M_psi), shifted boundary contact, weight vanishing at the fixed contact
    point, the parabolic kernel inequality on a deterministic grid, exact
    normal-form matching for strict contractions, the norm bound that
    hyponormality forces (_Facts.breaks_bound: the kernel-grid lower bound
    above max{mu, |psi(p)|}), then candidate (optionally escalated to a
    numeric certificate by witness search).  The normal-form match is
    normal_form's test, _kernel_quotient_mismatch: psi = psi(p) K_p/(K_p o phi)
    on |z| = 0.85 to _near_circle_tol(p) relative, so c psi decides as psi.
    """
    opts = options or WeightedOptions()
    f = _Facts(psi, phi, space)
    if f.psi.base.num.is_zero():
        raise ZeroSymbolError("weight is identically zero")
    if f.constant:
        base = classify_unweighted(phi, space)
        return base._replace(details=f"{CIT_CONSTANT_WEIGHT}; {base.details}")

    cls = f.cls
    verdict = partial(HyponormalityVerdict, map_kind=cls.kind)
    if cls.kind is MapKind.IDENTITY:
        exact = phi.b == phi.c == 0 and phi.a == phi.d
        return verdict(
            Outcome.CANDIDATE_NOT_EXCLUDED,
            CIT_UNDECIDED,
            details="analytic multiplication operator (always hyponormal)" if exact
            else "phi is within 1e-12 of the identity but not equal to it",
        )
    zeta, eta = cls.contact or (None, None)
    vanishes = zeta is not None and _vanishes_at(f.psi, zeta, 1e-12)
    if zeta is not None and not cls.fixes_contact:
        return verdict(
            Outcome.NOT_HYPONORMAL,
            CIT_WEIGHT_VANISHES_AT_CONTACT if vanishes else CIT_CONTACT_NOT_FIXED,
            details=f"contact {zeta:.12g} -> {eta:.12g}",
        )
    if vanishes:
        return verdict(
            Outcome.NOT_HYPONORMAL, CIT_WEIGHT_VANISHES_AT_CONTACT, details=f"psi({zeta:.12g}) = {f.psi(zeta):.3e}"
        )
    parabolic = cls.kind is MapKind.PARABOLIC_NONAUTOMORPHISM
    violation = _first_violation(f.psi, phi, space, zeta) if parabolic else None
    if violation is not None:
        return verdict(
            Outcome.NOT_HYPONORMAL,
            CIT_PARABOLIC_KERNEL_INEQUALITY,
            details=(
                f"at w = {violation.point:.12g}: kernel side {violation.kernel_side_value:.12g} "
                f"> |psi(zeta)| = {violation.fixed_point_value:.12g}"
            ),
        )
    if cls.kind is MapKind.INTERIOR_CONTRACTION:
        p, delta = cls.denjoy_wolff.location, cls.denjoy_wolff.multiplier
        why = None
        if map_distance(phi, normal_form_map(p, delta)) > _fixed_point_tol(p):
            why = "strictly contracting symbol is not alpha_p (delta alpha_p)"
        elif _vanishes_at(f.psi, p, _interior_zero_tol(p)):
            why = "weight vanishes at the interior fixed point"
        elif (z := _kernel_quotient_mismatch(f.psi, p, f.psi(p), phi, space)) is not None:
            why = f"weight differs from the kernel quotient at z = {z:.6g}"
        if why is not None:
            return verdict(Outcome.NOT_HYPONORMAL, CIT_COMPACT_NORMAL_FORM, details=why)
        return verdict(Outcome.NORMAL, CIT_COMPACT_NORMAL_FORM,
                       details=f"exact normal form with p = {p:.12g}, delta = {delta:.12g}")
    if f.breaks_bound():
        return verdict(
            Outcome.NOT_HYPONORMAL,
            CIT_NORM_BOUND_EXCEEDED,
            details=f"norm >= {f.grid_lower:.12g} on the kernel grid > max{{mu, |psi(p)|}} = {f.bounds.upper:.12g}",
        )

    note = "parabolic inequality holds on the grid" if parabolic else f"class {cls.kind.value}"
    if opts.escalate_numeric:
        witness = witness_search(f.psi, phi, space, budget_seconds=opts.budget_seconds, seed=opts.seed)
        if witness is not None and witness.is_conclusive:
            return verdict(Outcome.CERTIFIED_NOT_NUMERIC, CIT_NUMERIC_WITNESS, witness, details=note)
    return verdict(Outcome.CANDIDATE_NOT_EXCLUDED, CIT_UNDECIDED, details=note)


# ---------------------------------------------------------------------------
# Closed-form spectral data

@dataclass(frozen=True)
class ClosedFormValue:
    """A radius with its citation; where none is proved, value None and citation "unavailable: <reason>"."""

    value: float | None
    citation: str


def _unavailable(reason: str) -> ClosedFormValue:
    return ClosedFormValue(None, f"unavailable: {reason}")


def _proved(cf: ClosedFormValue) -> ClosedFormValue:
    if cf.value is None:
        raise TheoryUnavailableError(cf.citation.removeprefix("unavailable: "))
    return cf


@dataclass(frozen=True)
class NormBounds:
    lower: float
    upper: float
    mu: float


def _spectral_radius(f: _Facts) -> ClosedFormValue:
    """r(C_{psi,phi}), or why it is unavailable.

    g = gamma/2; psi, like every symbol, is analytic on the closed disk.
    - Interior contraction, Denjoy-Wolff point p in D: r = |psi(p)| for every
      psi, on H^2 and on A^2_alpha.  C* K_p = conj(psi(p)) K_p, so r >=
      |psi(p)|.  C^n = C_{psi_n, phi_n} with psi_n = prod_{k<n} psi o phi_k,
      so ||C^n|| <= prod_{k<n} sup_D |psi o phi_k| ||C_{phi_n}||; phi_k -> p
      uniformly on the closed disk and ||C_{phi_n}|| <= ((1 + |phi_n(0)|)/(1
      - |phi_n(0)|))^g stays bounded, so r <= |psi(p)|.
    - Automorphism, hyperbolic or parabolic: r = max |psi(b)| phi'(b)^(-g)
      over its boundary fixed points b (one, with phi'(b) = 1, if parabolic).
      Each b bounds r below for every psi: C*^n K_w = conj(psi_n(w)) K_{phi_n(w)}
      and (1 - |w|^2)/(1 - |phi_n(w)|^2) = 1/|phi_n'(w)| -> phi'(b)^(-n) as
      w -> b, so ||C^n|| >= (|psi(b)| phi'(b)^(-g))^n.  Equality holds for psi
      without zeros on the closed disk, where C is invertible (Gunatillake,
      J. Funct. Anal. 261 (2011), on H^2; Hyvarinen, Lindstrom, Nieminen &
      Saukko, J. Funct. Anal. 265 (2013), on A^2_alpha).  Any other psi, or a
      zero test that cannot decide (it is scale-free, so 2^j psi decides as
      psi), leaves r unavailable with that lower bound.
    - Non-automorphism, hyperbolic or parabolic, with boundary Denjoy-Wolff
      point zeta: r = |psi(zeta)| phi'(zeta)^(-g).
    """
    psi_f, phi, cls = f.psi, f.phi, f.cls
    kind, dw, g = cls.kind, cls.denjoy_wolff, f.space.gamma / 2.0
    if kind is MapKind.INTERIOR_CONTRACTION:
        return ClosedFormValue(abs(psi_f(dw.location)), CIT_R_CONTRACTION)
    if kind in (MapKind.HYPERBOLIC_AUTOMORPHISM, MapKind.PARABOLIC_AUTOMORPHISM):
        low = max(abs(psi_f(b)) * abs(angular_derivative(phi, b)) ** -g
                  for b in (f.location / abs(f.location) for f in cls.fixed if f.on_boundary))
        try:
            zero_free = no_zero_in_closed_disk(psi_f.base)
            why = None if zero_free else "the weight has a zero in the closed disk"
        except IndeterminateError as exc:
            why = f"zero test: {exc}"
        return _unavailable(f"r >= {low:.12g} from the boundary fixed points; {why}") if why else (
            ClosedFormValue(low, CIT_R_AUTOMORPHISM))
    if kind in (MapKind.HYPERBOLIC_NONAUTOMORPHISM, MapKind.PARABOLIC_NONAUTOMORPHISM) and dw.on_boundary:
        zeta = dw.location / abs(dw.location)
        cite = CIT_R_PARABOLIC if kind is MapKind.PARABOLIC_NONAUTOMORPHISM else CIT_R_BOUNDARY
        return ClosedFormValue(abs(psi_f(zeta)) * abs(angular_derivative(phi, zeta)) ** -g, cite)
    return _unavailable(f"no closed form for class {kind.value} with this fixed-point structure")


def _essential_radius(f: _Facts) -> ClosedFormValue:
    """r_e(C_{psi,phi}), or why it is unavailable.

    - Interior contraction: phi maps the closed disk into D, so C is compact
      and r_e = 0 (Cowen & MacCluer, Composition Operators on Spaces of
      Analytic Functions, 1995).
    - Otherwise r_e = |c| phi'(zeta)^(-gamma/2) for a value-constant psi = c
      and a boundary Denjoy-Wolff point zeta.
    """
    if f.cls.kind is MapKind.INTERIOR_CONTRACTION:
        return ClosedFormValue(0.0, CIT_RE_COMPACT)
    if not f.constant:
        return _unavailable("closed form applies to constant weights only")
    dw = f.cls.denjoy_wolff
    if dw is None or not dw.on_boundary:
        return _unavailable("essential spectral radius closed form needs a boundary Denjoy-Wolff point")
    zeta = dw.location / abs(dw.location)
    return ClosedFormValue(abs(f.psi(0)) * abs(angular_derivative(f.phi, zeta)) ** (-f.space.gamma / 2.0),
                           CIT_RE_BOUNDARY)


def _norm_bounds(f: _Facts) -> NormBounds:
    """Norm bounds of C_{psi,phi} under hyponormality; TheoryUnavailableError
    with the reason where there are none.

    When phi fixes its contact point zeta and its Denjoy-Wolff point p (a
    non-automorphism's only fixed point in D) lies in D: mu / phi'(zeta)^g
    <= ||C|| <= max{mu, |psi(p)|} with g = gamma/2 and mu = |psi(zeta)
    K_p(alpha_p(zeta)) K_p(zeta)| / ||K_p||^2, the p = 0 bounds (mu =
    |psi(zeta)|) after conjugating p to the origin.
    """
    cls, gamma = f.cls, f.space.gamma
    if not cls.fixes_contact:
        raise TheoryUnavailableError("norm bounds need a fixed unimodular contact point")
    if not cls.denjoy_wolff.in_disk:
        raise TheoryUnavailableError("bounds without an interior fixed point need a symbol fixing the origin")
    zeta, p = cls.contact[0], cls.denjoy_wolff.location
    kp = kernel_function(p, gamma)
    mu = abs(f.psi(zeta) * kp(alpha_p(p)(zeta)) * kp(zeta)) / kernel_norm(f.space, p) ** 2
    low = mu / abs(angular_derivative(f.phi, zeta)) ** (gamma / 2.0)
    return NormBounds(low, max(mu, abs(f.psi(p))), mu)


def spectral_radius_closed(psi, phi: MoebiusMap, space: SpaceSpec) -> ClosedFormValue:
    """r(C_{psi,phi}) where _spectral_radius proves it, else TheoryUnavailableError."""
    return _proved(_spectral_radius(_Facts(psi, phi, space)))


def essential_spectral_radius_closed(phi: MoebiusMap, space: SpaceSpec) -> ClosedFormValue:
    """r_e(C_phi) where _essential_radius proves it, else TheoryUnavailableError."""
    return _proved(_essential_radius(_Facts(constant_fn(1.0), phi, space)))


# ---------------------------------------------------------------------------
# Norm bounds

def norm_bounds(psi, phi: MoebiusMap, space: SpaceSpec) -> NormBounds:
    """Two-sided norm bounds valid under hyponormality, at phi's interior
    Denjoy-Wolff point (see _norm_bounds); TheoryUnavailableError with the
    reason where there are none."""
    return _Facts(psi, phi, space).bounds


def norm_lower_bound_grid(psi, phi: MoebiusMap, space: SpaceSpec) -> float:
    """Unconditional: max over _INEQUALITY_GRID of ||C* (K_w/||K_w||)||, for a self-map phi."""
    psi_f = as_analytic(psi)
    require_self_map(phi)
    return float(_kernel_ratios(psi_f, phi, space, _INEQUALITY_GRID)[0].max())


# ---------------------------------------------------------------------------
# Clark singular part

@dataclass(frozen=True)
class ClarkSingularPart:
    """Singular part of the boundary Clark family of a non-automorphism.

    The family mu_a is singular-free except at a = eta (the boundary image),
    where the singular part is the single atom |phi'(zeta)|^(-1) delta_zeta.
    """

    alpha: complex
    atoms: tuple[tuple[complex, float], ...]

    def singular_part_at(self, a: complex) -> tuple[tuple[complex, float], ...]:
        return self.atoms if abs(complex(a) - self.alpha) <= 1e-8 else ()


def clark_singular_part(phi: MoebiusMap) -> ClarkSingularPart:
    cls = classify(phi)
    if cls.is_automorphism or cls.kind is MapKind.INTERIOR_CONTRACTION:
        raise HypothesisMismatchError(
            "Clark singular part formula needs a boundary-contacting non-automorphism"
        )
    zeta, eta = cls.contact
    mass = 1.0 / abs(angular_derivative(phi, zeta))
    return ClarkSingularPart(eta, ((zeta, mass),))


# ---------------------------------------------------------------------------
# Conjugation of an interior fixed point to the origin

def conjugate_to_origin(
    psi, phi: MoebiusMap, p: complex, space: SpaceSpec
) -> tuple[AnalyticFunction, MoebiusMap]:
    """(q, phi~) with C_{q,phi~} unitarily equivalent to C_{psi,phi}.

    phi~ = alpha_p o phi o alpha_p fixes the origin and
    q = K_p (psi o alpha_p) (K_p o phi o alpha_p) (1-|p|^2)^gamma, which
    satisfies q(0) = psi(p).
    """
    p = _require_fixed(phi, p)
    psi_f = as_analytic(psi)
    gamma = space.gamma
    a = alpha_p(p)
    phi_tilde = compose(a, compose(phi, a))
    kp = kernel_function(p, gamma)
    psi_a = compose_with_moebius(psi_f, a)
    kp_phia = composed_kernel(p, gamma, compose(phi, a))
    q = (kp * psi_a * kp_phia).scale((1.0 - abs(p) ** 2) ** gamma)
    return q, phi_tilde


# ---------------------------------------------------------------------------
# Numeric witness search

def _norms_with_escalation(images, phi, space, pts, cs, order) -> CertificateWitness | None:
    """sum_i c_i K_{w_i} with its kernel_gram_norms at order, the order
    doubled, and raised to the truncation cap at the last step, until the
    tail bound is within 10% of the norm; the witness records the order that
    held.  None when no order up to the cap does.  images is the search's
    KernelImages table, at whose unit scale the 10% test is taken on every
    space; on H^2 with a polynomial weight its norms are closed-form and
    never raise PrecisionLossError, so the first order holds.
    """
    n = order
    while True:
        try:
            kn = kernel_gram_norms(images, phi, space, pts, cs, n)
        except PrecisionLossError:
            if n >= MAX_TRUNCATION:
                return None
            n = min(2 * n, MAX_TRUNCATION)
            continue
        return CertificateWitness(tuple(pts), tuple(cs), kn.adjoint, kn.forward, kn.tail_bound, n)


def _top_eigenpair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue lam of the Hermitian-definite problem a v = lam b v,
    and its eigenvector v, normalised so that v^H b v = 1.

    Cholesky reduction (Golub & Van Loan, Matrix Computations, 8.7): with
    b = L L^H, lam is the top eigenvalue of the Hermitian L^-1 a L^-H, whose
    eigenvector u gives v = L^-H u.  a and b are one (m, m) pencil or stacks
    of shape (..., m, m), solved by one batched call per LAPACK routine;
    lam then has shape (...) and v shape (..., m).  For one pencil,
    np.linalg.LinAlgError means b is not positive definite (or the
    eigensolver failed).  A stack raises nothing: when its batched call
    raises LinAlgError, each slice is solved alone, and a slice whose own
    solve raises reads NaN in lam and v.
    """
    try:
        chol = np.linalg.cholesky(b)
        reduced = np.linalg.solve(chol, np.linalg.solve(chol, a).conj().swapaxes(-1, -2))
        vals, vecs = np.linalg.eigh(reduced)
        return vals[..., -1], np.linalg.solve(chol.conj().swapaxes(-1, -2), vecs[..., -1:])[..., 0]
    except np.linalg.LinAlgError:
        if a.ndim == 2:
            raise
    lam = np.full(a.shape[:-2], np.nan)
    v = np.full(a.shape[:-1], np.nan, dtype=complex)
    for i in np.ndindex(lam.shape):
        try:
            lam[i], v[i] = _top_eigenpair(a[i], b[i])
        except np.linalg.LinAlgError:
            pass  # NaN marks the slice; the caller skips it
    return lam, v


def _stage_two_coefficients(images, trials, order) -> list[np.ndarray | None]:
    """Each trial's coefficients: the top eigenvector of its adjoint form
    against its regularised forward form, scaled to ||f|| = 1; None where
    the eigensolve fails or ||f||^2 is not positive.  A trial is a list of
    _SEARCH_GRID indices, its forms index slices of the grid's forms (one
    _table_forms call, at the table's scale); trials of one size are one
    _top_eigenpair stack.
    """
    grid_forms = _table_forms(images, _SEARCH_GRID, order)
    coeffs: list[np.ndarray | None] = [None] * len(trials)
    for m in sorted({len(idx) for idx in trials}):
        ts = [t for t, idx in enumerate(trials) if len(idx) == m]
        sel = np.array([trials[t] for t in ts])
        kernel, adjoint, forward = (g[sel[:, :, None], sel[:, None, :]] for g in grid_forms)
        reg = 1e-12 * np.trace(forward, axis1=1, axis2=2).real / m
        _lam, c = _top_eigenpair(adjoint, forward + reg[:, None, None] * np.eye(m))
        nf = np.einsum("ti,tij,tj->t", c.conj(), kernel, c).real
        for t, ct, nft in zip(ts, c, nf):
            if nft > 0:  # False for a NaN slice too
                coeffs[t] = ct / math.sqrt(nft)
    return coeffs


def _require_representable_grams(space: SpaceSpec) -> None:
    """InvalidParameterError when the search grid's largest kernel Gram entry,
    (1 - |x|^2)^-gamma at |x| = 0.9, exceeds the double range (gamma above
    about 427): no kernel image or Gram of the search could be computed."""
    try:
        _SEARCH_GRAM_BASE ** -space.gamma
    except OverflowError:
        raise InvalidParameterError(
            f"witness search: the kernel Gram (1 - |w|^2)^-gamma at the grid point |w| = 0.9 "
            f"exceeds the double range at gamma = {space.gamma:.6g}"
        ) from None


def witness_search(
    psi,
    phi: MoebiusMap,
    space: SpaceSpec,
    budget_seconds: float = SEARCH_BUDGET_S,
    seed: int = SEARCH_SEED,
    order: int = SEARCH_ORDER,
) -> CertificateWitness | None:
    """Search kernel combinations for ||C* f|| > ||C f|| beyond all error terms.

    Stage 1 walks single kernels over {0} and a radial/angular grid; stage 2
    tries 400 seeded random 2- and 3-kernel combinations of grid points,
    optimizing coefficients through the generalized eigenvalue problem of the
    two Gram forms before an honest re-evaluation.  Stage 2 draws every
    trial first, as grid indices, slices their forms from one Gram of the
    grid at the table's scale (_table_forms), solves each size as one batched
    numpy Cholesky reduction (_top_eigenpair), and certifies each candidate
    alone (kernel_gram_norms) in trial order.  Returns the first conclusive
    witness, or None once all 400 trials have failed; running out of
    budget_seconds aborts the search early, also with None.  The defaults
    are verdict's SEARCH_BUDGET_S, SEARCH_SEED and SEARCH_ORDER.
    budget_seconds is checked as in WeightedOptions; order must lie in
    [1, MAX_TRUNCATION] and is the start order, which each evaluation
    doubles while its tail bound is too large (_norms_with_escalation).  A
    space whose kernel Grams on the grid exceed the double range is refused
    before any expansion (_require_representable_grams).  The deadline is checked
    before each grid point and each trial, not inside the grid Gram or the
    stacked solves (a few milliseconds for 400 trials).  The search's one
    KernelImages table expands psi and computes beta(0..n) once per order n,
    and each kernel image psi * (K_w o phi) once per point and order; on H^2
    with a polynomial weight it holds each image's closed form, once per
    point, and no order is escalated.
    """
    _check_budget(budget_seconds)
    _check_truncation(order)
    require_self_map(phi)
    _require_representable_grams(space)
    images = KernelImages(psi, phi, space)
    deadline = time.monotonic() + budget_seconds

    ranked: list[tuple[float, int]] = []
    for i, w in enumerate(_SEARCH_GRID):
        if time.monotonic() > deadline:
            return None
        witness = _norms_with_escalation(images, phi, space, [w], [1.0 / kernel_norm(space, w)], order)
        if witness is None:
            continue
        if witness.is_conclusive:
            return witness
        ranked.append((witness.adjoint_norm / max(witness.forward_norm, 1e-300), i))

    ranked.sort(key=lambda t: -t[0])
    grid = range(len(_SEARCH_GRID))
    top = [i for _ratio, i in ranked[:20]] or grid
    rng = np.random.default_rng(seed)
    trials: list[list[int]] = []
    for trial in range(400):
        idx: list[int] = []
        while len(idx) < (2 if trial % 2 == 0 else 3):
            pool = top if rng.random() < 0.7 else grid
            i = pool[int(rng.integers(0, len(pool)))]
            if i not in idx:
                idx.append(i)
        trials.append(idx)

    # Every trial point is a grid point, so stage 1 has expanded its image at this order.
    for idx, c in zip(trials, _stage_two_coefficients(images, trials, order)):
        if time.monotonic() >= deadline:
            return None
        if c is None:
            continue
        pts, cs = [_SEARCH_GRID[i] for i in idx], [complex(x) for x in c]
        witness = _norms_with_escalation(images, phi, space, pts, cs, order)
        if witness is not None and witness.is_conclusive:
            return witness
    return None


# ---------------------------------------------------------------------------
# Assembled spectral report

@dataclass(frozen=True)
class SpectralReport:
    r: float | None
    r_e: float | None
    norm_lower: float
    norm_upper: float | None
    citations: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.r is not None and self.r_e is not None:
            if self.r_e > self.r * (1.0 + 1e-10):
                raise InvalidParameterError("essential spectral radius exceeds spectral radius")
        if self.norm_upper is not None and self.norm_lower > self.norm_upper * (1.0 + 1e-10):
            raise InvalidParameterError("norm lower bound exceeds upper bound")


def spectral_report(psi, phi: MoebiusMap, space: SpaceSpec) -> SpectralReport:
    """Best available closed-form spectral data for C_{psi,phi}.

    r, r_e and the norm bounds come from one classify(phi); norm_upper is
    conditional on hyponormality and is dropped, with a note, if the
    unconditional lower bound already exceeds it.
    """
    f = _Facts(psi, phi, space)
    # r_e's constancy test first: a weight that fails there fails with that error.
    re_cf, r_cf = _essential_radius(f), _spectral_radius(f)
    citations = {"r": r_cf.citation, "r_e": re_cf.citation, "norm_lower": CIT_NORM_KERNEL_GRID}
    try:
        upper = f.bounds.upper
        citations["norm_upper"] = CIT_NORM_MU_UPPER + " (assuming hyponormality)"
    except TheoryUnavailableError as exc:
        upper, citations["norm_upper"] = None, f"unavailable: {exc}"
    if f.breaks_bound():
        upper, citations["norm_upper"] = None, (
            "dropped: unconditional lower bound exceeds the hyponormal upper bound, "
            "so the operator cannot be hyponormal"
        )
    return SpectralReport(r_cf.value, re_cf.value, f.grid_lower, upper, citations)
