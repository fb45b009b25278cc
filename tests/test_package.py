"""The package surface: lazily resolved public names, and a classify command
that runs without numpy."""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hypocomp as hc
from hypocomp import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_WALL_TIME = re.compile(r'(wall_time_ms"?[:,] ?)[-+0-9.e]+')


def _fresh_python(script: str) -> str:
    """Standard output of a fresh interpreter that imports hypocomp from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hc.__file__)))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_public_names_resolve_to_their_defining_modules():
    for name in hc.__all__:
        value = getattr(hc, name)
        assert value.__module__.startswith("hypocomp.")
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_and_star_import_follow_all():
    assert "__all__" in dir(hc)
    assert set(hc.__all__) <= set(dir(hc))
    namespace: dict = {}
    exec("from hypocomp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hc.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hc.no_such_name
    assert not hasattr(hc, "verdicts")


def test_import_leaves_numpy_unimported():
    assert _fresh_python("import sys\nimport hypocomp\nprint('numpy' in sys.modules)\n").split() == ["False"]


def test_cli_import_leaves_numpy_dataclasses_and_inspect_unimported():
    # The start-up modules' records are NamedTuples: dataclasses, and the
    # inspect module it imports, cost a cold classify about 10 ms.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hypocomp.cli\n"
        "print(sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    assert _fresh_python(script).split() == ["[]"]


def _outputs(results) -> list:
    """[code, stdout without the wall_time_ms value, stderr] of each call."""
    return [[code, _WALL_TIME.sub(r"\g<1>_", out), err] for code, out, err in results]


def test_classify_runs_without_numpy():
    # The benchmark's cold starts classify these maps; each output, in every
    # format and on two spaces, is the one a process with numpy and
    # dataclasses prints.
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        from worker import COLD_MAPS
    argvs = [["classify", f"--map={spec}", f"--space={space}", f"--format={fmt}"]
             for spec in COLD_MAPS for space in ("hardy", "bergman:1") for fmt in ("json", "text", "csv")]
    bad = [["classify", "--map=1,2,3"], ["classify", "--map=parabolic:1,1", "--space=bergman:-2"]]
    blocked = _outputs(json.loads(_fresh_python(
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None   # any import of numpy fails\n"
        "sys.modules['dataclasses'] = None\n"
        "from hypocomp import cli\n"
        "results = []\n"
        f"for argv in {argvs + bad!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = cli.main(argv)\n"
        "    results.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )))
    unblocked = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        unblocked.append([code, out.getvalue(), err.getvalue()])
    assert blocked[:len(argvs)] == _outputs(unblocked)
    assert all(code == 0 and err == "" for code, _out, err in unblocked)
    for code, out, err in blocked[len(argvs):]:
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
