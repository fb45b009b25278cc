"""The disk-point, grid, fixed-point, space and truncation-order gates, at every entry point."""

import math

import numpy as np
import pytest

import hypocomp as hc
from hypocomp.errors import InvalidParameterError, NotAFixedPointError, OutsideDiskError
from hypocomp.matrixrep import kernel_gram_forms
from hypocomp.theory import kernel_ratio_value

H2 = hc.hardy()
NORMAL_FORM = hc.normal_form_map(0.3, 0.4)   # fixes 0.3
PARABOLIC = hc.cayley_parabolic(1, 1)

# Each takes a point that must lie in the open unit disk.
ENTRY_POINTS = {
    "funcalg.kernel_function": lambda w: hc.kernel_function(w, 1.5),
    "funcalg.composed_kernel": lambda w: hc.composed_kernel(w, 1.5, NORMAL_FORM),
    "space.kernel": lambda w: hc.kernel(H2, w, 8),
    "space.kernel_norm": lambda w: hc.kernel_norm(H2, w),
    "matrixrep.adjoint_kernel_residual": lambda w: hc.adjoint_kernel_residual(
        hc.OperatorMatrix(np.eye(8)), 1, hc.MoebiusMap(1, 0, 0, 1), w, H2),
    "matrixrep.kernel_gram_norms": lambda w: hc.kernel_gram_norms(
        1, hc.dilation(0.5), H2, [0.3, w], [1.0, 1.0], 8),
    "matrixrep.kernel_gram_forms": lambda w: kernel_gram_forms(1, hc.dilation(0.5), H2, [w], 8),
    "moebius.alpha_p": hc.alpha_p,
    "theory.kernel_quotient_weight": lambda w: hc.kernel_quotient_weight(w, 1, NORMAL_FORM, H2),
    "theory.normal_form_map": lambda w: hc.normal_form_map(w, 0.4),
    "theory.normal_form": lambda w: hc.normal_form(w, 0.4, 1, H2),
    "theory.conjugate_to_origin": lambda w: hc.conjugate_to_origin(1, NORMAL_FORM, w, H2),
    "theory.kernel_ratio_value": lambda w: kernel_ratio_value(1, PARABOLIC, H2, w),
    # 0.3 comes first and violates the inequality, so every point is checked before any is used.
    "theory.parabolic_kernel_inequality": lambda w: hc.parabolic_kernel_inequality(
        hc.polynomial_fn(0.5, -0.25), PARABOLIC, H2, grid=[0.3, w]),
    "theory.norm_lower_bound_grid": lambda w: hc.norm_lower_bound_grid(1, PARABOLIC, H2, grid=[0.3, w]),
    "theory.WeightedOptions.grid": lambda w: hc.WeightedOptions(grid=(0.3, w)),
}


@pytest.mark.parametrize("w", [1.0, -2j, complex("nan"), complex(0.0, math.inf)], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_disk_gate(entry, w):
    with pytest.raises(OutsideDiskError, match="open unit disk"):
        ENTRY_POINTS[entry](w)


def test_disk_gate_error_is_a_parameter_error():
    assert issubclass(OutsideDiskError, InvalidParameterError)


# Each takes a kernel grid, which must hold at least one point.
GRID_ENTRIES = {
    "parabolic_kernel_inequality": lambda g: hc.parabolic_kernel_inequality(1, PARABOLIC, H2, grid=g),
    "norm_lower_bound_grid": lambda g: hc.norm_lower_bound_grid(1, PARABOLIC, H2, grid=g),
    "WeightedOptions": lambda g: hc.WeightedOptions(grid=g),
}


@pytest.mark.parametrize("entry", sorted(GRID_ENTRIES))
def test_empty_grid_refused(entry):
    with pytest.raises(InvalidParameterError, match="at least one point"):
        GRID_ENTRIES[entry](())


# Each takes a point that phi must fix; 0.5 lies in the disk but is not fixed.
FIXED_POINT_ENTRIES = {
    "kernel_quotient_weight": lambda p: hc.kernel_quotient_weight(p, 1, NORMAL_FORM, H2),
    "conjugate_to_origin": lambda p: hc.conjugate_to_origin(1, NORMAL_FORM, p, H2),
    "NormalFormSymbols": lambda p: hc.NormalFormSymbols(p, hc.constant_fn(1), NORMAL_FORM),
}


@pytest.mark.parametrize("entry", sorted(FIXED_POINT_ENTRIES))
def test_fixed_point_gate(entry):
    with pytest.raises(NotAFixedPointError, match="differs from p"):
        FIXED_POINT_ENTRIES[entry](0.5)


# Each names a space outside the theorems' hypotheses: alpha must be finite and >= -1.
SPACE_ENTRIES = {
    "bergman(inf)": lambda: hc.bergman(math.inf),
    "space_from_label('bergman:inf')": lambda: hc.space_from_label("bergman:inf"),
    "SpaceSpec(nan)": lambda: hc.SpaceSpec(math.nan),
    "SpaceSpec(-1.5)": lambda: hc.SpaceSpec(-1.5),
}


@pytest.mark.parametrize("entry", sorted(SPACE_ENTRIES))
def test_space_gate(entry):
    with pytest.raises(InvalidParameterError, match="finite alpha >= -1"):
        SPACE_ENTRIES[entry]()


# Each takes a truncation order, which must lie in [1, MAX_TRUNCATION].
ORDER_ENTRIES = {
    "build_weighted_composition": lambda n: hc.build_weighted_composition(1, hc.dilation(0.5), H2, n),
    "expand_analytic": lambda n: hc.expand_analytic(hc.polynomial_fn(2, 1), n),
    "kernel_gram_forms": lambda n: kernel_gram_forms(1, hc.dilation(0.5), H2, [0.3], n),
    "kernel_gram_norms": lambda n: hc.kernel_gram_norms(1, hc.dilation(0.5), H2, [0.3], [1.0], n),
    "WeightedOptions": lambda n: hc.WeightedOptions(order=n),
    "witness_search": lambda n: hc.witness_search(hc.polynomial_fn(2, 1), hc.rotation(1j), H2, order=n),
}


@pytest.mark.parametrize("order", [0, 1025, 2048])
@pytest.mark.parametrize("entry", sorted(ORDER_ENTRIES))
def test_order_gate(entry, order):
    with pytest.raises(InvalidParameterError, match=r"truncation order must lie in \[1, 1024\]"):
        ORDER_ENTRIES[entry](order)
