"""Exception types shared across the package."""


class HypocompError(Exception):
    """Base class for every error raised by this package."""


class DegenerateMapError(HypocompError):
    """Coefficient matrix is singular or numerically indistinguishable from singular."""


class NotSelfMapError(HypocompError):
    """The map does not send the open unit disk into itself."""


class IdentityMapError(HypocompError):
    """Operation is undefined for the identity map."""


class NoDenjoyWolffError(HypocompError):
    """Identity maps and elliptic automorphisms have no Denjoy-Wolff point."""


class NoAngularDerivativeError(HypocompError):
    """The map has no finite angular derivative at the requested boundary point."""


class InvalidParameterError(HypocompError):
    """Parameter outside its admissible range."""


class PoleAtOriginError(HypocompError):
    """Denominator vanishes at the origin; no Maclaurin expansion exists."""


class BranchViolationError(HypocompError):
    """A power factor left the principal branch or acquired a zero in the closed disk."""


class IndeterminateError(HypocompError):
    """Too close to a boundary to decide: min|p| below about 1e-8 max|p| on the zero test's
    circle |z| = 1 + 1e-6, or a power factor whose image disk lies within the gate's band of the cut."""


class PoleEncounteredError(HypocompError):
    """Evaluation requested at (or numerically at) a pole."""


class OutsideDiskError(InvalidParameterError):
    """A point that must lie in the open unit disk does not (NaN included)."""


class ZeroSymbolError(HypocompError):
    """The weight symbol is identically zero."""


class NotAFixedPointError(HypocompError):
    """The supplied point is not a fixed point of the map."""


class HypothesisMismatchError(HypocompError):
    """The map does not satisfy the hypotheses of the requested formula."""


class PrecisionLossError(HypocompError):
    """Truncation tail exceeds the tolerated fraction of the computed quantity."""


class TheoryUnavailableError(HypocompError):
    """No implemented closed form covers this input."""


class ConvergenceFailureError(HypocompError):
    """A numeric routine did not converge: LAPACK's singular values or
    eigenvalues of a finite section (the last paths of
    matrixrep.operator_norm and matrixrep.truncation_spectral_radius, and
    spectral --dump-eigs).  np.linalg.LinAlgError is a ValueError, which
    would exit 2, so each site raises this instead.  Exit 4."""
