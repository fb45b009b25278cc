"""CLI reports against recorded ones: tests/data/cli_golden.jsonl.

Each line holds an argv, its exit code and its parsed JSON report, without
wall_time_ms.  The calls are every third call of the benchmark's closed_form
workload at seed 7001, its first three escalate calls at that seed, and
selftest on hardy and bergman:1.  Strings, ints and booleans must match
exactly, floats to 1e-12 relative, so that another numpy or BLAS build cannot
make the comparison flaky.
"""

import contextlib
import io
import json
import math
import pathlib

import pytest

from hypocomp import cli

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.jsonl"
CASES = [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def assert_matches(got, want, path="report"):
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, path


@pytest.mark.parametrize("case", CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)])
def test_report_matches_recorded(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(case["argv"])
    assert code == case["exit"]
    report = json.loads(out.getvalue())
    report.pop("wall_time_ms")
    assert_matches(report, case["report"])
