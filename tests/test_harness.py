"""The names, signatures and CLI options the benchmark harness in perfbench/ relies on.

perfbench/ is read, never changed: a rename in the library that the harness
would trip over fails here first.
"""

import inspect
from pathlib import Path

import pytest

import hypocomp as hc
from hypocomp import cli, matrixrep, theory

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def harness():
    """perfbench's tracing and workloads modules, imported as run.py imports them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import tracing
        import workloads
    return tracing, workloads


def test_tracer_binds_every_traced_name(harness):
    tracing, _ = harness
    originals = {target: getattr(getattr(hc, target[0]), target[1]) for target in tracing.TARGETS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(getattr(hc, m), a) is not fn for (m, a, _name), fn in originals.items())
    finally:
        tracer.uninstall()
    assert all(getattr(getattr(hc, m), a) is fn for (m, a, _name), fn in originals.items())


def test_traced_tags_read_these_arguments():
    def params(fn):
        return inspect.signature(fn).parameters

    assert "n" in params(matrixrep.build_weighted_composition)
    assert "points" in params(matrixrep.kernel_gram_norms)
    assert "pts" in params(theory._norms_with_escalation)


def test_workload_calls_bind(harness):
    _, workloads = harness
    inspect.signature(hc.witness_search).bind(
        1, hc.dilation(0.5), hc.hardy(), budget_seconds=workloads.SEARCH_BUDGET_S, seed=1,
        order=workloads.SEARCH_ORDER)
    inspect.signature(theory.kernel_gram_norms).bind(*range(6))   # gram_counts' six arguments
    parser = cli._build_parser()
    calls = [c for w in workloads.WORKLOADS.values() for smoke in (False, True)
             for c in w.build(7001, smoke)]
    calls += [workloads.CLOSED_FORM_WARMUP, workloads.ESCALATE_WARMUP, workloads.FINITE_SECTION_WARMUP]
    argvs = [c.argv for c in calls if isinstance(c, workloads.CliCall)]
    assert argvs
    for argv in argvs:
        parser.parse_args(list(argv))
