"""Decidable hyponormality statements as executable logic.

Classifiers return theorem-backed verdicts with human-readable citation
clauses; closed-form spectral and essential spectral radii, eigenvalue
bounds, norm bounds, Clark singular parts, the compact normal form and its
kernel-quotient weight, conjugation of an interior fixed point to the
origin, and a numeric witness search for non-hyponormality certificates.

Grid searches evaluate in a fixed deterministic order (first violation in
grid order wins); every function is pure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateMapError,
    HypothesisMismatchError,
    InvalidParameterError,
    NotAFixedPointError,
    PrecisionLossError,
    TheoryUnavailableError,
    ZeroSymbolError,
)
from .funcalg import (
    AnalyticFunction,
    circle,
    compose_with_moebius,
    constant_fn,
    is_value_constant,
    kernel_function,
)
from .matrixrep import as_analytic, kernel_gram_forms, kernel_gram_norms, truncation_cap
from .moebius import (
    MapClass,
    MapKind,
    MoebiusMap,
    alpha_p,
    angular_derivative,
    classify,
    compose,
    map_distance,
    match_hyperbolic_nonauto_form,
    require_self_map,
)
from .space import SpaceSpec, kernel_norm

# Citation clauses attached to verdicts and closed forms.
CIT_ORIGIN_NOT_FIXED = "a hyponormal composition symbol must fix the origin"
CIT_NORMAL_DILATION = "normal composition operators are exactly those with symbol lambda z, |lambda| <= 1"
CIT_COMPACT_FORCES_DILATION = (
    "a compact hyponormal composition operator is normal, so its symbol is a dilation"
)
CIT_CONTACT_NOT_FIXED = "the unique unimodular contact point maps to a different boundary point"
CIT_WEIGHT_VANISHES_AT_CONTACT = "the weight vanishes at the unique unimodular contact point"
CIT_PARABOLIC_KERNEL_INEQUALITY = (
    "the kernel norm-ratio inequality at the parabolic boundary fixed point fails"
)
CIT_PARABOLIC_NO_ORIGIN = "a parabolic symbol fixes only one point, on the unit circle"
CIT_COMPACT_NORMAL_FORM = (
    "a compact hyponormal weighted composition operator is normal and matches the "
    "kernel-quotient normal form exactly"
)
CIT_HYPERBOLIC_CANDIDATE = (
    "hyperbolic non-automorphism fixing the origin passes every necessary condition; "
    "hyponormality is not decided"
)
CIT_CONSTANT_WEIGHT = "a constant weight rescales the unweighted composition operator"
CIT_NUMERIC_WITNESS = "kernel-combination witness with ||C* f|| exceeding ||C f||"
CIT_UNDECIDED = "no implemented exclusion applies"

CIT_R_BOUNDARY = "spectral radius |psi(zeta)| phi'(zeta)^(-gamma/2) at the boundary Denjoy-Wolff point"
CIT_R_PARABOLIC = "spectral radius |psi(zeta)| at the parabolic fixed point (angular derivative 1)"
CIT_R_CONTRACTION = "hyponormal with strictly contracting symbol fixing the origin: norm = radius = |psi(0)|"
CIT_RE_BOUNDARY = "essential spectral radius phi'(zeta)^(-gamma/2) at the boundary Denjoy-Wolff point"
CIT_NORM_LOWER_ANGULAR = "lower bound |psi(zeta)| / |phi'(zeta)|^(gamma/2) from kernels pushed to the fixed point"
CIT_NORM_UPPER_MAX = "upper bound max{|psi(zeta)|, |psi(0)|} from the spectral radius of a hyponormal operator"
CIT_NORM_MU_LOWER = "lower bound mu / |phi'(zeta)|^(gamma/2) after conjugating the interior fixed point to the origin"
CIT_NORM_MU_UPPER = "upper bound max{mu, |psi(p)|} after conjugating the interior fixed point to the origin"
CIT_NORM_KERNEL_GRID = "norm >= |psi(w)| ((1-|w|^2)/(1-|phi(w)|^2))^(gamma/2) at every kernel point"
CIT_NORM_EXACT_KQ = (
    "on the Hardy space with |psi(zeta)| <= |psi(p)|, a hyponormal operator has norm |psi(p)| "
    "and kernel-quotient weight"
)


class Outcome(Enum):
    NORMAL = "Normal"
    NOT_HYPONORMAL = "NotHyponormal"
    CANDIDATE_NOT_EXCLUDED = "CandidateNotExcluded"
    CERTIFIED_NOT_NUMERIC = "CertifiedNotNumeric"


@dataclass(frozen=True)
class CertificateWitness:
    """A kernel combination f with ||C* f|| provably above ||C f||."""

    points: tuple[complex, ...]
    coefficients: tuple[complex, ...]
    adjoint_norm: float
    forward_norm: float
    tail_bound: float
    order: int

    @property
    def margin(self) -> float:
        return self.adjoint_norm - self.forward_norm

    @property
    def is_conclusive(self) -> bool:
        return self.margin > 10.0 * (self.tail_bound + 1e-12)


@dataclass(frozen=True)
class HyponormalityVerdict:
    outcome: Outcome
    citation: str | None = None
    witness: CertificateWitness | None = None
    details: str = ""

    def __post_init__(self):
        if self.outcome is Outcome.NOT_HYPONORMAL and not self.citation:
            raise InvalidParameterError("a NotHyponormal verdict must carry a citation")
        if self.outcome is Outcome.CERTIFIED_NOT_NUMERIC:
            if self.witness is None or not self.witness.is_conclusive:
                raise InvalidParameterError(
                    "a CertifiedNotNumeric verdict needs a conclusive witness"
                )


@dataclass(frozen=True)
class WeightedOptions:
    escalate_numeric: bool = False
    budget_seconds: float = 60.0
    seed: int = 1729
    order: int = 256
    grid: tuple[complex, ...] | None = None
    match_tol: float = 1e-10


# ---------------------------------------------------------------------------
# Unweighted classifier

def classify_unweighted(phi: MoebiusMap, space: SpaceSpec) -> HyponormalityVerdict:
    """Theorem-backed verdict for C_phi on the given space.

    Any linear-fractional self-map whose composition operator is hyponormal
    is a dilation lambda z (then the operator is normal) or has the form
    (1-|c|) z/(c z + 1); the latter passes every necessary condition but is
    not decided, so it stays a candidate.
    """
    require_self_map(phi)
    cls = classify(phi)
    if cls.kind is MapKind.IDENTITY:
        return HyponormalityVerdict(Outcome.NORMAL, CIT_NORMAL_DILATION, details="identity map")

    if abs(phi(0)) > 1e-12:
        return HyponormalityVerdict(
            Outcome.NOT_HYPONORMAL,
            CIT_ORIGIN_NOT_FIXED,
            details=f"phi(0) = {phi(0):.12g}; class {cls.kind.value}",
        )

    if abs(phi.c) <= 1e-12:
        lam = phi.a / phi.d
        return HyponormalityVerdict(
            Outcome.NORMAL, CIT_NORMAL_DILATION, details=f"phi(z) = ({lam:.12g}) z"
        )

    c = match_hyperbolic_nonauto_form(phi)
    if c is not None:
        return HyponormalityVerdict(
            Outcome.CANDIDATE_NOT_EXCLUDED,
            CIT_HYPERBOLIC_CANDIDATE,
            details=f"matches (1-|c|) z/(c z + 1) with c = {c:.12g}",
        )

    if cls.kind is MapKind.INTERIOR_CONTRACTION:
        return HyponormalityVerdict(
            Outcome.NOT_HYPONORMAL,
            CIT_COMPACT_FORCES_DILATION,
            details="strict contraction fixing the origin but not a dilation",
        )
    if cls.kind is MapKind.PARABOLIC_NONAUTOMORPHISM:
        return HyponormalityVerdict(
            Outcome.NOT_HYPONORMAL, CIT_PARABOLIC_NO_ORIGIN, details="parabolic non-automorphism"
        )
    return HyponormalityVerdict(
        Outcome.NOT_HYPONORMAL,
        CIT_CONTACT_NOT_FIXED,
        details=f"class {cls.kind.value} fixing the origin",
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


def _radial_grid(radii) -> list[complex]:
    """0 and 16 equally spaced points on each radius, as Python complex numbers."""
    return [0j] + [complex(w) for r in radii for w in circle(r, 16)]


def default_inequality_grid() -> tuple[complex, ...]:
    return tuple(_radial_grid((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)))


def kernel_ratio_value(psi, phi: MoebiusMap, space: SpaceSpec, w: complex) -> float:
    """|psi(w)| ((1 - |w|^2)/(1 - |phi(w)|^2))^(gamma/2) = ||C* (K_w/||K_w||)||."""
    psi_f = as_analytic(psi)
    w = complex(w)
    ratio = (1.0 - abs(w) ** 2) / (1.0 - abs(phi(w)) ** 2)
    return abs(psi_f(w)) * ratio ** (space.gamma / 2.0)


def parabolic_kernel_inequality(
    psi, phi: MoebiusMap, space: SpaceSpec, zeta: complex | None = None, grid=None
) -> InequalityViolation | None:
    """First grid point where |psi(zeta)| fails to dominate the kernel ratio.

    Defined for parabolic non-automorphisms fixing zeta; a hyponormal
    weighted composition with such a symbol must satisfy the inequality at
    every disk point, so a violation excludes hyponormality.
    """
    cls = classify(phi)
    if cls.kind is not MapKind.PARABOLIC_NONAUTOMORPHISM:
        raise HypothesisMismatchError("symbol is not a parabolic non-automorphism")
    fixed = cls.denjoy_wolff.location
    fixed = fixed / abs(fixed)
    if zeta is not None and abs(complex(zeta) - fixed) > 1e-8:
        raise HypothesisMismatchError("zeta is not the parabolic fixed point")
    psi_f = as_analytic(psi)
    lhs = abs(psi_f(fixed))
    for w in (grid if grid is not None else default_inequality_grid()):
        rhs = kernel_ratio_value(psi_f, phi, space, w)
        if rhs - lhs > 1e-12:
            return InequalityViolation(complex(w), lhs, rhs)
    return None


# ---------------------------------------------------------------------------
# Normal form and kernel-quotient weight

def _fixes(phi: MoebiusMap, p: complex) -> bool:
    """Whether phi(p) = p to within 1e-10 (1 + |p|^2)."""
    return abs(phi(p) - p) <= 1e-10 * (1.0 + abs(p) ** 2)


def kernel_quotient_weight(p: complex, value_at_p: complex, phi: MoebiusMap, space: SpaceSpec) -> AnalyticFunction:
    """The weight value * K_p / (K_p o phi), the only one hyponormality allows
    for a symbol fixing p under the small-essential-spectrum hypothesis."""
    p = complex(p)
    if abs(p) >= 1.0:
        raise InvalidParameterError("p must lie in the open unit disk")
    if not _fixes(phi, p):
        raise NotAFixedPointError(f"phi({p:.6g}) = {phi(p):.6g} differs from p")
    kp = kernel_function(p, space.gamma)
    kp_phi = compose_with_moebius(kp, phi)
    return (constant_fn(complex(value_at_p)) * kp) * kp_phi.reciprocal()


@dataclass(frozen=True)
class NormalFormSymbols:
    p: complex
    delta: complex
    psi: AnalyticFunction
    phi: MoebiusMap
    value_at_p: complex

    def __post_init__(self):
        if not _fixes(self.phi, self.p):
            raise InvalidParameterError("constructed map does not fix p")


def normal_form(p: complex, delta: complex, value_at_p: complex, space: SpaceSpec) -> NormalFormSymbols:
    """phi = alpha_p o (delta alpha_p) and psi = value K_p / (K_p o phi).

    The compact hyponormal (equivalently normal) weighted composition
    operators are exactly these, for |delta| < 1.  delta = 0 collapses phi to
    the constant p, which the map type cannot represent; that edge raises
    DegenerateMapError rather than deciding.
    """
    p = complex(p)
    delta = complex(delta)
    if abs(p) >= 1.0:
        raise InvalidParameterError("p must lie in the open unit disk")
    if abs(delta) >= 1.0:
        raise InvalidParameterError("|delta| must be < 1 for the compact case")
    if delta == 0:
        raise DegenerateMapError("delta = 0 makes the composition symbol constant")
    a = alpha_p(p)
    phi = compose(a, a.scaled(delta))
    psi = kernel_quotient_weight(p, value_at_p, phi, space)
    # Verify the defining identities on a 20-point grid.
    z = circle(0.8, 20)
    kp = kernel_function(p, space.gamma)
    rhs = complex(value_at_p) * kp(z) / kp(phi(z))
    if np.any(np.abs(psi(z) - rhs) > 1e-12 * (1.0 + np.abs(rhs))):
        raise InvalidParameterError("normal-form weight failed its defining identity")
    mult = phi.derivative(p)
    if abs(mult - delta) > 1e-9:
        raise InvalidParameterError("interior multiplier does not equal delta")
    return NormalFormSymbols(p, delta, psi, phi, complex(value_at_p))


# ---------------------------------------------------------------------------
# Weighted classifier

def _weight_scale(psi_f: AnalyticFunction) -> float:
    return max(1.0, float(np.abs(psi_f(circle(0.6, 8))).max()))


def classify_weighted(
    psi, phi: MoebiusMap, space: SpaceSpec, options: WeightedOptions | None = None
) -> HyponormalityVerdict:
    """Decision tree for hyponormality of f -> psi (f o phi).

    Order: shifted boundary contact, weight vanishing at the fixed contact
    point, the parabolic kernel inequality on a deterministic grid, exact
    normal-form matching for strict contractions, then candidate (optionally
    escalated to a numeric certificate by witness search).  Value-constant
    weights delegate to the unweighted classifier.
    """
    opts = options or WeightedOptions()
    psi_f = as_analytic(psi)
    constant = is_value_constant(psi_f)
    if constant and abs(psi_f(0)) <= 1e-14:
        raise ZeroSymbolError("weight is identically zero")
    require_self_map(phi)

    if constant:
        base = classify_unweighted(phi, space)
        return HyponormalityVerdict(
            base.outcome,
            base.citation,
            base.witness,
            details=f"{CIT_CONSTANT_WEIGHT}; {base.details}",
        )

    cls = classify(phi)

    if cls.kind is MapKind.IDENTITY:
        return HyponormalityVerdict(
            Outcome.CANDIDATE_NOT_EXCLUDED,
            CIT_UNDECIDED,
            details="analytic multiplication operator (always hyponormal)",
        )

    if cls.contact is not None:
        zeta, eta = cls.contact
        if not cls.fixes_contact:
            citation = (
                CIT_WEIGHT_VANISHES_AT_CONTACT
                if abs(psi_f(zeta)) <= 1e-12 * _weight_scale(psi_f)
                else CIT_CONTACT_NOT_FIXED
            )
            return HyponormalityVerdict(
                Outcome.NOT_HYPONORMAL,
                citation,
                details=f"contact {zeta:.12g} -> {eta:.12g}",
            )
        if abs(psi_f(zeta)) <= 1e-12 * _weight_scale(psi_f):
            return HyponormalityVerdict(
                Outcome.NOT_HYPONORMAL,
                CIT_WEIGHT_VANISHES_AT_CONTACT,
                details=f"psi({zeta:.12g}) = {psi_f(zeta):.3e}",
            )
        if cls.kind is MapKind.PARABOLIC_NONAUTOMORPHISM:
            violation = parabolic_kernel_inequality(psi_f, phi, space, grid=opts.grid)
            if violation is not None:
                return HyponormalityVerdict(
                    Outcome.NOT_HYPONORMAL,
                    CIT_PARABOLIC_KERNEL_INEQUALITY,
                    details=(
                        f"at w = {violation.point:.12g}: kernel side {violation.kernel_side_value:.12g} "
                        f"> |psi(zeta)| = {violation.fixed_point_value:.12g}"
                    ),
                )
            return _candidate(psi_f, phi, space, opts, "parabolic inequality holds on the grid")

    if cls.kind is MapKind.INTERIOR_CONTRACTION:
        p = cls.denjoy_wolff.location
        delta = cls.denjoy_wolff.multiplier
        a = alpha_p(p)
        reference = compose(a, a.scaled(delta))
        if map_distance(phi, reference) > opts.match_tol:
            return HyponormalityVerdict(
                Outcome.NOT_HYPONORMAL,
                CIT_COMPACT_NORMAL_FORM,
                details="strictly contracting symbol is not alpha_p (delta alpha_p)",
            )
        value = psi_f(p)
        if abs(value) <= 1e-14:
            return HyponormalityVerdict(
                Outcome.NOT_HYPONORMAL,
                CIT_COMPACT_NORMAL_FORM,
                details="weight vanishes at the interior fixed point",
            )
        z = circle(0.85, 20)
        ref = kernel_quotient_weight(p, value, phi, space)(z)
        differs = np.abs(psi_f(z) - ref) > 1e-12 * (1.0 + np.abs(ref))
        if differs.any():
            return HyponormalityVerdict(
                Outcome.NOT_HYPONORMAL,
                CIT_COMPACT_NORMAL_FORM,
                details=f"weight differs from the kernel quotient at z = {complex(z[differs][0]):.6g}",
            )
        return HyponormalityVerdict(
            Outcome.NORMAL,
            CIT_COMPACT_NORMAL_FORM,
            details=f"exact normal form with p = {p:.12g}, delta = {delta:.12g}",
        )

    return _candidate(psi_f, phi, space, opts, f"class {cls.kind.value}")


def _candidate(psi_f, phi, space, opts: WeightedOptions, note: str) -> HyponormalityVerdict:
    if opts.escalate_numeric:
        witness = witness_search(
            psi_f, phi, space, budget_seconds=opts.budget_seconds, seed=opts.seed, order=opts.order
        )
        if witness is not None and witness.is_conclusive:
            return HyponormalityVerdict(
                Outcome.CERTIFIED_NOT_NUMERIC, CIT_NUMERIC_WITNESS, witness, details=note
            )
    return HyponormalityVerdict(Outcome.CANDIDATE_NOT_EXCLUDED, CIT_UNDECIDED, details=note)


# ---------------------------------------------------------------------------
# Closed-form spectral data

@dataclass(frozen=True)
class ClosedFormValue:
    value: float
    citation: str


def _boundary_dw(cls: MapClass) -> complex | None:
    dw = cls.denjoy_wolff
    if dw is None or not dw.on_boundary or dw.location is None:
        return None
    return dw.location / abs(dw.location)


def spectral_radius_closed(
    psi, phi: MoebiusMap, space: SpaceSpec, assume_hyponormal: bool = False
) -> ClosedFormValue:
    """r(C_{psi,phi}) where a closed form is justified.

    Boundary Denjoy-Wolff point (hyperbolic non-automorphism, parabolic
    non-automorphism, or automorphism attracted to the boundary):
    |psi(zeta)| phi'(zeta)^(-gamma/2).  Strict contraction fixing the origin
    with hyponormality established (or asserted by the caller): |psi(0)|.
    Everything else raises TheoryUnavailableError.
    """
    psi_f = as_analytic(psi)
    cls = classify(phi)
    zeta = _boundary_dw(cls)
    if zeta is not None:
        deriv = angular_derivative(phi, zeta)
        ad = abs(deriv)
        value = abs(psi_f(zeta)) * ad ** (-space.gamma / 2.0)
        citation = CIT_R_PARABOLIC if abs(ad - 1.0) <= 1e-9 else CIT_R_BOUNDARY
        return ClosedFormValue(value, citation)
    if cls.kind is MapKind.INTERIOR_CONTRACTION and abs(phi(0)) <= 1e-12:
        established = assume_hyponormal
        if not established:
            verdict = classify_weighted(psi_f, phi, space)
            established = verdict.outcome is Outcome.NORMAL
        if not established:
            raise TheoryUnavailableError(
                "hyponormality not established for the contracting symbol; "
                "pass assume_hyponormal=True to assert it"
            )
        return ClosedFormValue(abs(psi_f(0)), CIT_R_CONTRACTION)
    raise TheoryUnavailableError(
        f"no closed form for class {cls.kind.value} with this fixed-point structure"
    )


def essential_spectral_radius_closed(phi: MoebiusMap, space: SpaceSpec) -> ClosedFormValue:
    """r_e(C_phi) = phi'(zeta)^(-gamma/2) for a boundary Denjoy-Wolff point zeta."""
    cls = classify(phi)
    zeta = _boundary_dw(cls)
    if zeta is None:
        raise TheoryUnavailableError(
            "essential spectral radius closed form needs a boundary Denjoy-Wolff point"
        )
    ad = abs(angular_derivative(phi, zeta))
    return ClosedFormValue(ad ** (-space.gamma / 2.0), CIT_RE_BOUNDARY)


def eigenvalue_bound(psi, phi: MoebiusMap, space: SpaceSpec) -> float:
    """|lambda| <= |psi(zeta)| r(C_phi) for every eigenvalue of C_{psi,phi}.

    r(C_phi) is 1 for an interior Denjoy-Wolff point and phi'(zeta)^(-gamma/2)
    for a boundary one.  A vanishing weight at the Denjoy-Wolff point gives
    bound 0: the operator has no eigenvalues at all.
    """
    psi_f = as_analytic(psi)
    cls = classify(phi)
    if cls.kind in (MapKind.IDENTITY, MapKind.ELLIPTIC_AUTOMORPHISM):
        raise TheoryUnavailableError("eigenvalue bound needs a Denjoy-Wolff point")
    dw = cls.denjoy_wolff
    if dw.on_boundary:
        zeta = dw.location / abs(dw.location)
        r_phi = abs(angular_derivative(phi, zeta)) ** (-space.gamma / 2.0)
        return abs(psi_f(zeta)) * r_phi
    return abs(psi_f(dw.location)) * 1.0


# ---------------------------------------------------------------------------
# Norm bounds

@dataclass(frozen=True)
class NormBounds:
    lower: float
    upper: float
    citations: tuple[str, ...]
    mu: float | None = None


def norm_bounds(
    psi, phi: MoebiusMap, space: SpaceSpec, p: complex | None = None, zeta: complex | None = None
) -> NormBounds:
    """Two-sided norm bounds valid under hyponormality.

    Without an interior fixed point argument p (symbol fixing the origin and
    a boundary point zeta with finite angular derivative):
    |psi(zeta)|/|phi'(zeta)|^(gamma/2) <= ||C|| <= max{|psi(zeta)|, |psi(0)|}.
    With p: the same after conjugating p to the origin, with
    mu = |psi(zeta) K_p(alpha_p(zeta)) K_p(zeta)| / ||K_p||^2 in place of
    |psi(zeta)|.
    """
    psi_f = as_analytic(psi)
    cls = classify(phi)
    if not cls.fixes_contact:
        raise TheoryUnavailableError("norm bounds need a fixed unimodular contact point")
    fixed_zeta = cls.contact[0]
    if zeta is not None and abs(complex(zeta) - fixed_zeta) > 1e-8:
        raise TheoryUnavailableError("zeta is not the fixed contact point of the symbol")
    deriv = abs(angular_derivative(phi, fixed_zeta))

    if p is None:
        if abs(phi(0)) > 1e-12:
            raise TheoryUnavailableError(
                "bounds without an interior fixed point need a symbol fixing the origin"
            )
        low = abs(psi_f(fixed_zeta)) / deriv ** (space.gamma / 2.0)
        up = max(abs(psi_f(fixed_zeta)), abs(psi_f(0)))
        return NormBounds(low, up, (CIT_NORM_LOWER_ANGULAR, CIT_NORM_UPPER_MAX))

    p = complex(p)
    if not _fixes(phi, p):
        raise NotAFixedPointError("p is not a fixed point of the symbol")
    gamma = space.gamma
    kp = kernel_function(p, gamma)
    mu = abs(psi_f(fixed_zeta) * kp(alpha_p(p)(fixed_zeta)) * kp(fixed_zeta)) / kernel_norm(space, p) ** 2
    low = mu / deriv ** (gamma / 2.0)
    up = max(mu, abs(psi_f(p)))
    return NormBounds(low, up, (CIT_NORM_MU_LOWER, CIT_NORM_MU_UPPER), mu=mu)


def kernel_quotient_norm_refinement(
    psi, phi: MoebiusMap, space: SpaceSpec, p: complex, zeta: complex
) -> ClosedFormValue | None:
    """On the Hardy space with |psi(zeta)| <= |psi(p)|, hyponormality forces
    norm |psi(p)| (and the kernel-quotient weight); None when inapplicable."""
    if space.kind != "hardy":
        return None
    psi_f = as_analytic(psi)
    if abs(psi_f(complex(zeta))) <= abs(psi_f(complex(p))) + 1e-12:
        return ClosedFormValue(abs(psi_f(complex(p))), CIT_NORM_EXACT_KQ)
    return None


def norm_lower_bound_grid(psi, phi: MoebiusMap, space: SpaceSpec, grid=None) -> float:
    """Unconditional: max over the grid of ||C* (K_w/||K_w||)||."""
    psi_f = as_analytic(psi)
    pts = grid if grid is not None else default_inequality_grid()
    return max(kernel_ratio_value(psi_f, phi, space, w) for w in pts)


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
    p = complex(p)
    if abs(p) >= 1.0:
        raise InvalidParameterError("p must lie in the open unit disk")
    if not _fixes(phi, p):
        raise NotAFixedPointError("p is not a fixed point of the symbol")
    psi_f = as_analytic(psi)
    gamma = space.gamma
    a = alpha_p(p)
    phi_tilde = compose(a, compose(phi, a))
    kp = kernel_function(p, gamma)
    psi_a = compose_with_moebius(psi_f, a)
    kp_phia = compose_with_moebius(kp, compose(phi, a))
    q = (kp * psi_a * kp_phia).scale((1.0 - abs(p) ** 2) ** gamma)
    return q, phi_tilde


# ---------------------------------------------------------------------------
# Numeric witness search

def _norms_with_escalation(psi_f, phi, space, pts, cs, order) -> CertificateWitness | None:
    """sum_i c_i K_{w_i} with its kernel_gram_norms at order, doubled until the
    tail bound is within 10% of the norm; the witness records the order that
    held.  None when no order up to the truncation cap does.
    """
    n = order
    while n <= truncation_cap():
        try:
            kn = kernel_gram_norms(psi_f, phi, space, pts, cs, n)
        except PrecisionLossError:
            n *= 2
            continue
        return CertificateWitness(tuple(pts), tuple(cs), kn.adjoint, kn.forward, kn.tail_bound, n)
    return None


def witness_search(
    psi,
    phi: MoebiusMap,
    space: SpaceSpec,
    budget_seconds: float = 60.0,
    seed: int = 1729,
    order: int = 256,
) -> CertificateWitness | None:
    """Search kernel combinations for ||C* f|| > ||C f|| beyond all error terms.

    Stage 1 walks single kernels over {0} and a radial/angular grid; stage 2
    draws seeded random 2- and 3-kernel combinations, optimizing coefficients
    through the generalized eigenvalue problem of the two Gram forms before an
    honest re-evaluation.  Returns the first conclusive witness, or None when
    the budget runs out.
    """
    psi_f = as_analytic(psi)
    require_self_map(phi)
    deadline = time.monotonic() + budget_seconds

    grid = _radial_grid((0.15, 0.3, 0.45, 0.6, 0.75, 0.9))
    ranked: list[tuple[float, complex]] = []
    for w in grid:
        if time.monotonic() > deadline:
            return None
        witness = _norms_with_escalation(psi_f, phi, space, [w], [1.0 / kernel_norm(space, w)], order)
        if witness is None:
            continue
        if witness.is_conclusive:
            return witness
        ranked.append((witness.adjoint_norm / max(witness.forward_norm, 1e-300), w))

    ranked.sort(key=lambda t: -t[0])
    top = [w for _ratio, w in ranked[:20]] or grid
    rng = np.random.default_rng(seed)

    trial = 0
    while time.monotonic() < deadline and trial < 400:
        trial += 1
        m = 2 if trial % 2 == 1 else 3
        pts: list[complex] = []
        while len(pts) < m:
            pool = top if rng.random() < 0.7 else grid
            w = pool[int(rng.integers(0, len(pool)))]
            if all(abs(w - u) > 1e-9 for u in pts):
                pts.append(w)
        kernel, adjoint, forward = kernel_gram_forms(psi_f, phi, space, pts, order)
        reg = 1e-12 * float(np.trace(forward).real) / m
        try:
            _vals, vecs = scipy.linalg.eigh(adjoint, forward + reg * np.eye(m))
        except scipy.linalg.LinAlgError:
            continue
        c = vecs[:, -1]
        nf = float(np.real(np.einsum("i,ij,j->", np.conj(c), kernel, c)))
        if nf <= 0:
            continue
        c = c / math.sqrt(nf)
        witness = _norms_with_escalation(psi_f, phi, space, pts, [complex(x) for x in c], order)
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
            if self.r_e > self.r + 1e-10:
                raise InvalidParameterError("essential spectral radius exceeds spectral radius")
        if self.norm_upper is not None and self.norm_lower > self.norm_upper + 1e-10:
            raise InvalidParameterError("norm lower bound exceeds upper bound")


def spectral_report(psi, phi: MoebiusMap, space: SpaceSpec) -> SpectralReport:
    """Best available closed-form spectral data for C_{psi,phi}.

    r_e is included only for value-constant weights (the closed form is for
    the unweighted operator and scales by |c|); norm_upper is conditional on
    hyponormality and is dropped, with a note, if the unconditional lower
    bound already exceeds it.
    """
    psi_f = as_analytic(psi)
    citations: dict[str, str] = {}
    r = r_e = upper = None

    try:
        cf = spectral_radius_closed(psi_f, phi, space)
        r = cf.value
        citations["r"] = cf.citation
    except TheoryUnavailableError as exc:
        citations["r"] = f"unavailable: {exc.reason}"

    if is_value_constant(psi_f):
        try:
            cf = essential_spectral_radius_closed(phi, space)
            r_e = abs(psi_f(0)) * cf.value
            citations["r_e"] = cf.citation
        except TheoryUnavailableError as exc:
            citations["r_e"] = f"unavailable: {exc.reason}"
    else:
        citations["r_e"] = "unavailable: closed form applies to constant weights only"

    lower = norm_lower_bound_grid(psi_f, phi, space)
    citations["norm_lower"] = CIT_NORM_KERNEL_GRID

    try:
        nb = norm_bounds(psi_f, phi, space)
        upper = nb.upper
        citations["norm_upper"] = nb.citations[1] + " (assuming hyponormality)"
        lower = max(lower, 0.0)
        if lower > upper + 1e-12:
            citations["norm_upper"] = (
                "dropped: unconditional lower bound exceeds the hyponormal upper bound, "
                "so the operator cannot be hyponormal"
            )
            upper = None
    except (TheoryUnavailableError, NotAFixedPointError) as exc:
        citations["norm_upper"] = f"unavailable: {exc}"

    return SpectralReport(r, r_e, lower, upper, citations)
