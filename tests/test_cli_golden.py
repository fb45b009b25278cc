"""CLI reports against recorded ones: tests/data/cli_golden.jsonl.

Each line holds an argv, its exit code and its parsed JSON report, without
wall_time_ms.  The calls are every third call of the benchmark's closed_form
workload at seed 7001, its first three escalate calls at that seed, selftest
on hardy and bergman:1, then the other ten escalate calls at seed 7001 and
the four witness searches of CI's numpy-only job.  Strings, ints and booleans
must match exactly, floats to 1e-12 relative, so that another numpy or BLAS
build cannot make the comparison flaky.  The same calls with --format csv
must give rows of exactly two fields.  Reports are parsed as strict JSON,
so a NaN or an infinity in one fails.
"""

import contextlib
import csv
import io
import math
import pathlib

import pytest

from hypocomp import cli

from conftest import strict_json

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.jsonl"
CASES = [strict_json(line) for line in GOLDEN.read_text().splitlines()]


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
    report = strict_json(out.getvalue())
    report.pop("wall_time_ms")
    assert_matches(report, case["report"])


def leaf_count(value):
    """The scalars of a report, each empty list counted as one."""
    if isinstance(value, dict):
        return sum(leaf_count(v) for v in value.values())
    if isinstance(value, list) and value:
        return sum(leaf_count(v) for v in value)
    return 1


@pytest.mark.parametrize("case", CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)])
def test_csv_rows_are_two_fields(case):
    # One row per scalar of the JSON report and wall_time_ms: a list is
    # flattened item by item, so no row holds a bare JSON array, whose commas
    # a CSV reader would split; an empty one stays [].
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*case["argv"], "--format=csv"])
    assert code == case["exit"]
    header, *rows = csv.reader(io.StringIO(out.getvalue()))
    assert header == ["field", "value"]
    assert all(len(row) == 2 for row in rows)
    assert len(rows) == leaf_count(case["report"]) + 1
