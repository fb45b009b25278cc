"""Weighted composition operators C: f -> psi (f o phi) on the Hardy space
and the weighted Bergman spaces of the unit disk.

The package classifies linear-fractional symbols, evaluates the closed-form
hyponormality exclusions, normal forms, spectral and essential spectral
radii and norm bounds, and backs the formulas with finite-section matrix
numerics and kernel-vector certificates.

Public names load their module on first use (PEP 562): ``import hypocomp``
imports nothing else, and only funcalg, matrixrep and theory import numpy
or dataclasses.
"""

import importlib

# Each public name, by the module that defines it.
_EXPORTS = {
    "errors": (
        "BranchViolationError", "ConvergenceFailureError", "DegenerateMapError", "HypocompError",
        "HypothesisMismatchError", "IdentityMapError", "IndeterminateError", "InvalidParameterError",
        "NoAngularDerivativeError", "NoDenjoyWolffError", "NotAFixedPointError", "NotSelfMapError",
        "OutsideDiskError", "PoleAtOriginError", "PoleEncounteredError", "PrecisionLossError",
        "TheoryUnavailableError", "ZeroSymbolError",
    ),
    "funcalg": (
        "AnalyticFunction", "Polynomial", "RationalFunction", "compose_with_moebius", "composed_kernel",
        "constant_fn", "expand_analytic", "kernel_function", "no_zero_in_closed_disk", "poly",
        "polynomial_fn", "rational", "rational_fn",
    ),
    "matrixrep": (
        "OperatorMatrix", "SpectralEstimate", "adjoint_kernel_residual", "build_multiplication",
        "build_weighted_composition", "gelfand_estimate", "kernel_gram_norms", "operator_norm",
        "self_commutator", "truncation_spectral_radius", "write_eigenvalues_csv", "write_matrix_csv",
    ),
    "moebius": (
        "FixedPointData", "MapClass", "MapKind", "MoebiusMap", "alpha_p", "angular_derivative",
        "cayley_parabolic", "classify", "compose", "denjoy_wolff", "dilation", "fixed_points",
        "hyperbolic_nonauto_form", "is_self_map", "map_distance", "rotation",
    ),
    "space": (
        "KreinData", "SpaceSpec", "bergman", "beta_array", "hardy", "kernel", "kernel_norm",
        "krein_adjoint", "space_from_label",
    ),
    "verdict": (
        "CertificateWitness", "HyponormalityVerdict", "Outcome", "classify_unweighted", "normal_form_map",
    ),
    "theory": (
        "ClarkSingularPart", "NormalFormSymbols", "NormBounds", "SpectralReport", "WeightedOptions",
        "clark_singular_part", "classify_weighted", "conjugate_to_origin",
        "essential_spectral_radius_closed", "kernel_quotient_weight", "norm_bounds",
        "norm_lower_bound_grid", "normal_form", "parabolic_kernel_inequality", "spectral_radius_closed",
        "spectral_report", "witness_search",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
