"""The names, signatures and CLI options the benchmark harness in perfbench/ relies on.

perfbench/ is read, never changed: a rename in the library that the harness
would trip over fails here first.
"""

import inspect
import json
import os
import subprocess
import sys
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


def test_lazy_layers_are_traced_in_the_workers_order():
    # The worker installs the tracer after its warm-up and untraced passes;
    # closed_form warms up with classify alone, which loads no numeric layer.
    # The passes' check and spectral calls load the rest before the install,
    # so the traced calls give the spans of a process that imported every
    # module up front.
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import workloads\n"
        "from tracing import Tracer\n"
        "if sys.argv[1] == 'eager':\n"
        "    import hypocomp.cli, hypocomp.funcalg, hypocomp.matrixrep, hypocomp.space, hypocomp.theory\n"
        "calls = [workloads.CLOSED_FORM_WARMUP.argv,\n"
        "         ('check', '--map=parabolic:1,1', '--psi=1,0.5', '--json'),\n"
        "         ('spectral', '--numeric', '--order=32', '--map=0.5,0,0,1', '--psi=2,1', '--json')]\n"
        "assert all(workloads.run_cli(argv).rc == 0 for argv in calls)\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "assert all(workloads.run_cli(argv).rc == 0 for argv in calls)\n"
        "tracer.uninstall()\n"
        "print(json.dumps(sorted({span[0] for span in tracer.spans})))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hc.__file__)))
    names = {}
    for order in ("lazy", "eager"):
        out = subprocess.run([sys.executable, "-c", script, order], env=env, capture_output=True,
                             text=True, check=True).stdout
        names[order] = json.loads(out)
    assert names["lazy"] == names["eager"]
    layers = {name.partition(".")[0] for name in names["lazy"]}
    assert layers == {"cli", "moebius", "funcalg", "space", "matrixrep", "theory"}
    # The spectral call reads the kernel grid: its per-layer time is measured, not 0.
    assert "theory.norm_lower_bound_grid" in names["lazy"]
