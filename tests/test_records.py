"""The immutable records of the start-up modules: MoebiusMap, FixedPointData,
MapClass, SpaceSpec, KreinData, CertificateWitness and HyponormalityVerdict.

Each is frozen, compares and hashes by value, and refuses an invalid value on
construction with the type and message that callers read.
"""

import inspect
import math

import pytest

from hypocomp.errors import DegenerateMapError, InvalidParameterError
from hypocomp.moebius import IDENTITY, MapKind, MoebiusMap, classify, fixed_points
from hypocomp.space import SpaceSpec, bergman, hardy, krein_adjoint
from hypocomp.verdict import CIT_NUMERIC_WITNESS, CertificateWitness, HyponormalityVerdict, Outcome


def _witness(adjoint_norm=2.0):
    return CertificateWitness((0.5 + 0j,), (1 + 0j,), adjoint_norm, 1.0, 1e-6, 128)


# One constructor per record, called twice to get equal, distinct objects.
RECORDS = {
    "MoebiusMap": lambda: MoebiusMap(1, 0.5, 0.5, 1),
    "FixedPointData": lambda: fixed_points(MoebiusMap(1, 0.5, 0.5, 1))[0],
    "MapClass": lambda: classify(MoebiusMap(1, 0.5, 0.5, 1)),
    "SpaceSpec": lambda: bergman(1.0),
    "KreinData": lambda: krein_adjoint(MoebiusMap(1, 0.5, 0.5, 2), hardy()),
    "CertificateWitness": _witness,
    "HyponormalityVerdict": lambda: HyponormalityVerdict(
        Outcome.CERTIFIED_NOT_NUMERIC, CIT_NUMERIC_WITNESS, _witness(), details="d",
        map_kind=MapKind.HYPERBOLIC_AUTOMORPHISM),
}
# A field of each record, to try to assign to.
FIELD = {
    "MoebiusMap": "a", "FixedPointData": "location", "MapClass": "kind", "SpaceSpec": "alpha",
    "KreinData": "sigma", "CertificateWitness": "adjoint_norm", "HyponormalityVerdict": "details",
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    before = getattr(record, FIELD[name])
    with pytest.raises(AttributeError):
        setattr(record, FIELD[name], before)
    assert getattr(record, FIELD[name]) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_values_give_equal_objects_and_hashes(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_normalised_maps_and_spaces_compare_equal():
    assert MoebiusMap(2, 0, 0, 2) == IDENTITY
    assert hash(MoebiusMap(2, 0, 0, 2)) == hash(IDENTITY)
    assert MoebiusMap(1, 0.5, 0.5, 1) != IDENTITY
    assert SpaceSpec(-1.0) == hardy()
    assert hash(SpaceSpec(-1.0)) == hash(hardy())
    assert SpaceSpec(0.0) != hardy()


def test_moebius_map_normalises_on_construction():
    phi = MoebiusMap(4, 2, 1e-16, 2)
    assert phi.coefficients() == (1 + 0j, 0.5 + 0j, 0j, 0.5 + 0j)
    assert all(type(x) is complex for x in phi.coefficients())


@pytest.mark.parametrize("coefficients, error, message", [
    ((math.nan, 0, 0, 1), InvalidParameterError, "map coefficients must be finite"),
    ((1, math.inf, 0, 1), InvalidParameterError, "map coefficients must be finite"),
    ((1, 0, complex(0, -math.inf), 1), InvalidParameterError, "map coefficients must be finite"),
    ((0, 0, 0, 0), DegenerateMapError, "all coefficients vanish"),
    ((1, 1, 1, 1), DegenerateMapError, "determinant 0.000e+00 below 1e-14 after normalization"),
])
def test_moebius_map_refusals(coefficients, error, message):
    with pytest.raises(error) as info:
        MoebiusMap(*coefficients)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("alpha, shown", [(-2.0, "-2.0"), (math.inf, "inf"), (math.nan, "nan")])
def test_space_spec_refusals(alpha, shown):
    with pytest.raises(InvalidParameterError) as info:
        SpaceSpec(alpha)
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == f"space parameter must be a finite alpha >= -1, got {shown}"


def test_not_hyponormal_needs_a_citation():
    for citation in (None, ""):
        with pytest.raises(InvalidParameterError) as info:
            HyponormalityVerdict(Outcome.NOT_HYPONORMAL, citation)
        assert str(info.value) == "a NotHyponormal verdict must carry a citation"


def test_certified_not_numeric_needs_a_conclusive_witness():
    inconclusive = _witness(adjoint_norm=1.0)
    assert not inconclusive.is_conclusive
    for witness in (None, inconclusive):
        with pytest.raises(InvalidParameterError) as info:
            HyponormalityVerdict(Outcome.CERTIFIED_NOT_NUMERIC, CIT_NUMERIC_WITNESS, witness)
        assert str(info.value) == "a CertifiedNotNumeric verdict needs a conclusive witness"


def test_verdict_defaults_and_keywords():
    verdict = HyponormalityVerdict(Outcome.NORMAL, details="x", map_kind=MapKind.IDENTITY)
    assert (verdict.citation, verdict.witness, verdict.details, verdict.map_kind) == (
        None, None, "x", MapKind.IDENTITY)
    assert HyponormalityVerdict(Outcome.CANDIDATE_NOT_EXCLUDED).details == ""


def test_moebius_map_repr_is_unchanged():
    assert repr(MoebiusMap(1, 0.5, 0.5, 1)) == "MoebiusMap((1+0j)z + (0.5+0j)) / ((0.5+0j)z + (1+0j))"
    assert repr(MoebiusMap(2j, 0, 0, 1)) == "MoebiusMap((0+1j)z + (0+0j)) / ((0+0j)z + (0.5+0j))"


def test_signatures_bind_the_benchmark_constructions():
    bound = inspect.signature(MoebiusMap).bind(1, 0.5, 0.5, 1)
    assert list(bound.arguments) == ["a", "b", "c", "d"]
    assert list(inspect.signature(SpaceSpec).bind(-1.0).arguments) == ["alpha"]
