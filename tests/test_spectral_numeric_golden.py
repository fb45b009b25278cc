"""spectral --numeric reports against recorded ones: tests/data/spectral_numeric_golden.jsonl.

Each line holds an argv, its exit code and its parsed JSON report, without
wall_time_ms.  The calls are the benchmark's finite_section workload at its
smoke orders (N = 64, 64, 64, 32) for seeds 7001, 11 and 4242, and on hardy
the multiplication 1,0,0,1 and rotation:i with weight 2,1 and parabolic:1,1
and the dilation 0.9,0,0,1 with weight 1,0.5, each at N = 64 and 128, and
then the workload at its full orders (N = 1024, 512, 512, 256) for seed
7001, where the dilation and the normal form build only their proved
leading blocks (K = 121 and 187), and last, on hardy at N = 512, the
hyperbolic automorphism 1,0.5,0.5,1 with weight 2,1 and parabolic:1,1 with
weight 1,0.5: sections that neither deflate nor are triangular, whose
radius a Krylov-Schur pass finds, recorded from LAPACK's eigenvalues.  The
diagnostics print 12 significant digits, so the reports must match
exactly: a change to the finite-section numerics that moves a printed
digit shows here.
"""

import contextlib
import io
import json
import pathlib

import pytest

from hypocomp import cli

GOLDEN = pathlib.Path(__file__).parent / "data" / "spectral_numeric_golden.jsonl"
CASES = [json.loads(line) for line in GOLDEN.read_text().splitlines()]


@pytest.mark.parametrize("case", CASES, ids=[f"{i:02d}-{c['argv'][2]}" for i, c in enumerate(CASES)])
def test_report_matches_recorded(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(case["argv"])
    assert code == case["exit"]
    report = json.loads(out.getvalue())
    report.pop("wall_time_ms")
    assert report == case["report"]
