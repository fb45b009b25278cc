"""Verdict types and the unweighted classifier: the numpy-free core of theory.

The citation clauses, the outcome of a verdict and its witness, the
witness search's default budget, seed and start order, classify_unweighted
and normal_form_map need only the map algebra of moebius, so the classify
command runs without importing numpy.  theory re-exports every name here.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import NamedTuple

from .errors import DegenerateMapError, InvalidParameterError
from .moebius import MapKind, MoebiusMap, alpha_p, classify, compose
from .space import SpaceSpec

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
CIT_R_AUTOMORPHISM = (
    "spectral radius max |psi(b)| phi'(b)^(-gamma/2) over the boundary fixed points b of an automorphism, psi "
    "zero-free on the closed disk (Gunatillake 2011 on H^2; Hyvarinen-Lindstrom-Nieminen-Saukko 2013 on A^2_alpha)"
)
CIT_R_CONTRACTION = "spectral radius |psi(p)| at the interior Denjoy-Wolff point p of a strictly contracting symbol"
CIT_RE_BOUNDARY = "essential spectral radius |c| phi'(zeta)^(-gamma/2) for a constant weight c at the boundary Denjoy-Wolff point"
CIT_RE_COMPACT = "essential spectral radius 0: a symbol mapping the closed disk into D gives a compact operator"
CIT_NORM_MU_LOWER = "lower bound mu / |phi'(zeta)|^(gamma/2) after conjugating the interior fixed point to the origin"
CIT_NORM_MU_UPPER = "upper bound max{mu, |psi(p)|} after conjugating the interior fixed point to the origin"
CIT_NORM_KERNEL_GRID = "norm >= |psi(w)| ((1-|w|^2)/(1-|phi(w)|^2))^(gamma/2) at every kernel point"

# The witness search's default budget in seconds, seed and start order,
# stated once: witness_search reads all three, WeightedOptions and check's
# --budget and --seed the budget and seed.
SEARCH_BUDGET_S = 60.0
SEARCH_SEED = 1729
SEARCH_ORDER = 128


class Outcome(Enum):
    NORMAL = "Normal"
    NOT_HYPONORMAL = "NotHyponormal"
    CANDIDATE_NOT_EXCLUDED = "CandidateNotExcluded"
    CERTIFIED_NOT_NUMERIC = "CertifiedNotNumeric"


class CertificateWitness(NamedTuple):
    """A kernel combination f with ||C* f|| provably above ||C f||.

    order is the truncation order at which the norms and tail_bound held.
    On H^2 with a polynomial weight the norms are closed-form and no
    truncation enters them, so order is only the search's start order.
    """

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
        """margin > 10 (tail_bound + 1e-12 adjoint_norm): the rounding floor
        scales with the norms, so c psi certifies exactly when psi does."""
        return self.margin > 10.0 * (self.tail_bound + 1e-12 * self.adjoint_norm)


class _VerdictFields(NamedTuple):
    outcome: Outcome
    citation: str | None
    witness: CertificateWitness | None
    details: str
    map_kind: MapKind | None   # the class of phi the classifier decided on


class HyponormalityVerdict(_VerdictFields):
    """A NamedTuple that validates in __new__: NotHyponormal needs a citation
    and CertifiedNotNumeric a conclusive witness.  _make and _replace skip
    the check, so change only other fields with them."""

    __slots__ = ()

    def __new__(cls, outcome: Outcome, citation: str | None = None, witness: CertificateWitness | None = None,
                details: str = "", map_kind: MapKind | None = None):
        if outcome is Outcome.NOT_HYPONORMAL and not citation:
            raise InvalidParameterError("a NotHyponormal verdict must carry a citation")
        if outcome is Outcome.CERTIFIED_NOT_NUMERIC:
            if witness is None or not witness.is_conclusive:
                raise InvalidParameterError(
                    "a CertifiedNotNumeric verdict needs a conclusive witness"
                )
        return tuple.__new__(cls, (outcome, citation, witness, details, map_kind))


# ---------------------------------------------------------------------------
# Unweighted classifier and the compact normal form's symbol

def classify_unweighted(phi: MoebiusMap, space: SpaceSpec) -> HyponormalityVerdict:
    """Theorem-backed verdict for C_phi on the given space.

    Any linear-fractional self-map whose composition operator is hyponormal
    is a dilation lambda z (then the operator is normal) or has the form
    (1-|c|) z/(c z + 1); the latter passes every necessary condition but is
    not decided, so it stays a candidate.  The identity, phi(0) != 0 and the
    dilation are the theorem's hypotheses on the coefficients; past them the
    one classify(phi) decides, so no citation contradicts the map's class: a
    hyperbolic non-automorphism is the candidate, an interior contraction is
    compact and excluded, a contact point phi does not fix excludes, and any
    other class is undecided: only maps inside classify's bands reach it,
    such as z/(1e-11 z + 1), an elliptic automorphism to classify.
    """
    cls = classify(phi)
    verdict = partial(HyponormalityVerdict, map_kind=cls.kind)
    if cls.kind is MapKind.IDENTITY:
        return verdict(Outcome.NORMAL, CIT_NORMAL_DILATION, details="identity map")
    if abs(phi(0)) > 1e-12:
        return verdict(Outcome.NOT_HYPONORMAL, CIT_ORIGIN_NOT_FIXED,
                       details=f"phi(0) = {phi(0):.12g}; class {cls.kind.value}")
    if abs(phi.c) <= 1e-12:
        return verdict(Outcome.NORMAL, CIT_NORMAL_DILATION, details=f"phi(z) = ({phi.a / phi.d:.12g}) z")
    if cls.kind is MapKind.HYPERBOLIC_NONAUTOMORPHISM:
        return verdict(Outcome.CANDIDATE_NOT_EXCLUDED, CIT_HYPERBOLIC_CANDIDATE,
                       details=f"matches (1-|c|) z/(c z + 1) with c = {phi.c / phi.d:.12g}")
    if cls.kind is MapKind.INTERIOR_CONTRACTION:
        return verdict(Outcome.NOT_HYPONORMAL, CIT_COMPACT_FORCES_DILATION,
                       details="strict contraction fixing the origin but not a dilation")
    details = f"class {cls.kind.value} fixing the origin"
    if cls.contact is not None and not cls.fixes_contact:
        return verdict(Outcome.NOT_HYPONORMAL, CIT_CONTACT_NOT_FIXED, details=details)
    return verdict(Outcome.CANDIDATE_NOT_EXCLUDED, CIT_UNDECIDED, details=details)


def normal_form_map(p: complex, delta: complex) -> MoebiusMap:
    """alpha_p o (delta alpha_p), the symbol that fixes p with multiplier delta.

    p must lie in the open disk and |delta| < 1, the compact case.  delta = 0
    collapses the map to the constant p, which the map type cannot
    represent; that edge raises DegenerateMapError rather than deciding.
    """
    a = alpha_p(p)
    delta = complex(delta)
    if not abs(delta) < 1.0:
        raise InvalidParameterError("|delta| must be < 1 for the compact case")
    if delta == 0:
        raise DegenerateMapError("delta = 0 makes the composition symbol constant")
    return compose(a, a.scaled(delta))
