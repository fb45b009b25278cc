"""Self-test of the benchmark harness, in smoke mode (about three minutes).

    python3 perfbench/check_harness.py

For each workload of BENCHMARK.json it runs ``run.py --smoke`` once untraced
and twice traced with the same seed, and checks that

- every call passed its output checks (``correct``, ``failed == 0``);
- the untraced run prints exactly the end-to-end metrics of BENCHMARK.json,
  each positive and with its unit, and the traced runs exactly the per-layer
  metrics;
- every work count (unit ``count``) is identical in the two traced runs, no
  witness search stops at its deadline, and the searches do exactly the work
  in ``EXPECTED``: the exhaustive search 97 single-kernel and 400
  multi-kernel Gram evaluations in 400 trials, the escalations none in
  stage 2.

Finally it copies BENCHMARK.json and perfbench/ into a directory without the
library and checks that the benchmark fails there without printing a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 20260

# Work counts of one traced smoke pass, beyond theory.witness_search.stop_deadline == 0.
EXPECTED = {
    "exhaustive_search": {
        "matrixrep.kernel_gram_norms.calls": 497,
        "matrixrep.kernel_gram_norms.calls_multi": 400,
        "theory.witness_search.trials": 400,
        "theory.witness_search.stop_exhausted": 1,
        "theory.witness_search.stop_witness": 0,
    },
    "escalate": {
        "matrixrep.kernel_gram_norms.calls_multi": 0,
        "theory.witness_search.trials": 0,
        "theory.witness_search.stop_exhausted": 0,
        "theory.witness_search.stop_witness": len(workloads.escalate(SEED, smoke=True)),
    },
}


def run(root: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def result(workload: str, trace: int) -> dict:
    code, out = run(ROOT, workload, trace)
    if code != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {code}\n{out}")
    res = json.loads(out.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        raise AssertionError(f"{workload} trace {trace}: failed calls\n{out}")
    return res


def expect_metrics(res: dict, spec: list[dict], what: str) -> None:
    names = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != names:
        raise AssertionError(f"{what}: metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(names) - set(got))}, extra {sorted(set(got) - set(names))}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    for workload in names:
        e2e = result(workload, 0)
        expect_metrics(e2e, bench["end_to_end"], f"{workload} end-to-end")
        bad = {k: v["value"] for k, v in e2e["metrics"].items() if not v["value"] > 0}
        if bad:
            raise AssertionError(f"{workload}: non-positive end-to-end metrics {bad}")
        first, second = result(workload, 1), result(workload, 1)
        expect_metrics(first, bench["per_layer"], f"{workload} per-layer")
        counts = {k: (v["value"], second["metrics"][k]["value"])
                  for k, v in first["metrics"].items() if v["unit"] == "count"}
        moved = {k: pair for k, pair in counts.items() if pair[0] != pair[1]}
        if moved:
            raise AssertionError(f"{workload}: work counts differ between runs: {moved}")
        expected = {"theory.witness_search.stop_deadline": 0, **EXPECTED.get(workload, {})}
        wrong = {k: (first["metrics"][k]["value"], v) for k, v in expected.items()
                 if first["metrics"][k]["value"] != v}
        if wrong:
            raise AssertionError(f"{workload}: work counts (got, expected) {wrong}")
        print(f"ok  {workload}: {e2e['attempted']} calls checked; "
              f"{len(counts)} work counts repeat exactly", flush=True)

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
        shutil.copytree(HERE, scratch / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run(scratch, names[0], 0)
        if code == 0 or out.strip():
            raise AssertionError(f"without the library: exit {code}, output {out!r}")
    finally:
        shutil.rmtree(scratch)
    print("ok  without the library the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
