"""hypocomp benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout that has ``src/hypocomp``; the library is
imported from there, never from an installed copy.  With ``--trace 0`` the
last line of standard output carries every end-to-end metric; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
See perfbench/README.md for the metrics, the workloads and how to read them.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import sys
from pathlib import Path

from worker import run_until_ready, worker_command
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: at most nproc, and on a shared 2-core machine the
    # steadiest choice (two threads made the N=512 operator norm 5x slower).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure(args) -> tuple[dict, dict]:
    """(worker result, end-to-end or per-layer metric values by name)."""
    _, out = run_until_ready(worker_command(args, "measure"), child_env(), RUN_TIMEOUT_S)
    result = json.loads(out.splitlines()[-1])
    if args.trace:
        return result, result["layers"]
    metrics = {
        "setup_s": result["setup_s"],
        "pass_s": result["pass_s"],
        "call_p50_ms": 1e3 * result["call_p50_s"],
        "call_tail_ms": 1e3 * result["call_tail_s"],
        "cold_start_ms": 1e3 * statistics.median(result["cold_starts"]),
        "selftest_ms": 1e3 * result["selftest_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="a few calls per pass, to check the harness quickly")
    args = ap.parse_args()

    if not (SRC / "hypocomp" / "__init__.py").is_file():
        print(f"error: no hypocomp sources under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once so that no timed process pays for it.
    compileall.compile_dir(str(SRC / "hypocomp"), quiet=1)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    try:
        result, values = measure(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} are not both measured"
              " and listed in BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env = result["env"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: {result['calls_per_pass']} calls per pass")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:58s} {m['value']:14.6g} {m['unit']}")
    if args.trace:
        print(f"  spans: {result['spans_count']} written to {result['spans']}")
    else:
        print(f"  call_tail_ms is p{result['tail_percentile']:g} of {result['samples']} call latencies;"
              f" passes in reference s: {', '.join(f'{p:.4f}' for p in result['passes'])};"
              f" in wall s: {', '.join(f'{p:.4f}' for p in result['passes_wall_s'])}")
        print("  CPU speed relative to the unloaded reference machine, quartiles of"
              f" {result['speed_samples']} samples: {', '.join(f'{q:.3f}' for q in result['speed_quartiles'])}")
    print(f"  failed_ratio {result['failed'] / max(result['attempted'], 1):.6g}"
          f" ({result['failed']} of {result['attempted']} calls)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, metrics=metrics)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
