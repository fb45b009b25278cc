"""Decision coverage: how much of a fixed seeded population classify_weighted
decides by theorem, pinned in tests/data/census.json.

The population is np.random.default_rng(5) and 40 draws.  Each draw gives
one map of each MapKind (maps_of_every_kind) and one conjugated hyperbolic
non-automorphism (conjugated_nonauto), each with one random polynomial
weight (random_weight), on hardy, bergman:0 and bergman:1: 1080 cases.

census.json holds, for each map kind, the count of each outcome, and the
count of the open (CandidateNotExcluded) cases that witness_search, at order
128 with no deadline, certifies.  A change that moves a count updates the
file and names the move in CHANGES.md.  The counts cannot hide a wrong
verdict: no Normal case may be certified, every verdict of the norm-bound
step must be, and c psi must get the outcome of psi.  Searches that find no
witness cost about 50 ms each, so the identity maps' open cases
(multiplication operators, which the search never certifies) and the Normal
cases are searched on a fixed sample only.
"""

import collections
import json
import math
import pathlib

import numpy as np
import pytest

import hypocomp as hc
from hypocomp.verdict import CIT_NORM_BOUND_EXCEEDED
from test_theory import conjugated_nonauto, maps_of_every_kind, random_weight

CENSUS = pathlib.Path(__file__).parent / "data" / "census.json"
LABELS = ("hardy", "bergman:0", "bergman:1")
OPEN = hc.Outcome.CANDIDATE_NOT_EXCLUDED.value
SAMPLE = 8   # every 8th identity open case and every 8th Normal case is searched


def population():
    """The 1080 (phi, weight coefficients, space label) cases, in draw order."""
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(40):
        for phi in maps_of_every_kind(rng) + [conjugated_nonauto(rng)]:
            coeffs = random_weight(rng)
            cases.extend((phi, coeffs, label) for label in LABELS)
    return cases


def certified(phi, coeffs, label):
    witness = hc.witness_search(hc.polynomial_fn(*coeffs), phi, hc.space_from_label(label),
                                budget_seconds=math.inf, order=128)
    return witness is not None and witness.is_conclusive


@pytest.fixture(scope="module")
def census():
    cases = population()
    verdicts = [hc.classify_weighted(hc.polynomial_fn(*coeffs), phi, hc.space_from_label(label))
                for phi, coeffs, label in cases]
    return cases, verdicts


def test_counts_match_the_recorded_census(census):
    cases, verdicts = census
    outcomes = collections.defaultdict(collections.Counter)
    for v in verdicts:
        outcomes[v.map_kind.value][v.outcome.value] += 1
    searched = collections.Counter()
    for case, v in zip(cases, verdicts):
        if v.outcome.value == OPEN and v.map_kind is not hc.MapKind.IDENTITY and certified(*case):
            searched[v.map_kind.value] += 1
    want = json.loads(CENSUS.read_text())
    assert {kind: dict(counts) for kind, counts in outcomes.items()} == want["outcomes"]
    assert dict(searched) == want["certified"]


def test_norm_bound_verdicts_are_certified(census):
    # The step's hypothesis, ||C|| <= max{mu, |psi(p)|} under hyponormality,
    # is cited, not proved here: its 46 verdicts must agree with a witness.
    cases, verdicts = census
    step = [case for case, v in zip(cases, verdicts) if v.citation == CIT_NORM_BOUND_EXCEEDED]
    assert len(step) == 46
    assert all(certified(*case) for case in step)


def test_no_sampled_hyponormal_case_is_certified(census):
    # The identity's open cases are multiplication operators M_psi, which are
    # subnormal; a Normal verdict is a theorem.  No witness may exist for either.
    cases, verdicts = census
    sample = [case for case, v in zip(cases, verdicts)
              if v.outcome is hc.Outcome.NORMAL
              or (v.outcome.value == OPEN and v.map_kind is hc.MapKind.IDENTITY)][::SAMPLE]
    assert len(sample) == 21
    assert not any(certified(*case) for case in sample)


def test_scaled_weight_gets_the_same_outcome(census):
    cases, verdicts = census
    for i in range(0, len(cases), 10):
        phi, coeffs, label = cases[i]
        c = (2.5e3j, 3e-4 - 1e-4j)[i // 10 % 2]
        v = hc.classify_weighted(hc.polynomial_fn(*coeffs).scale(c), phi, hc.space_from_label(label))
        assert (v.outcome, v.citation) == (verdicts[i].outcome, verdicts[i].citation), cases[i]
