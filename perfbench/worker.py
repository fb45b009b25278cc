"""One workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|measure
                                [--seconds S] [--trace 0|1] [--smoke]

The worker pins itself (and so every process it starts) to one CPU.  Set-up
is ``import hypocomp``, input generation and one warm-up call; the worker then
prints ``READY`` so that whoever started it can time set-up from the moment
the process started.  ``--mode setup`` exits there.  ``--mode measure`` goes
on to run passes and prints one JSON line with the results.

The number of passes is fixed by ``--seconds`` and the workload's nominal
pass time, not by the clock, so every run of a seed does the same work; only
on a machine about three times slower than the reference does a run skip its
remaining passes, once they have taken ``3 * seconds``.  The untraced run spreads
its probes (fresh set-up processes, cold CLI starts and selftests) over the
gaps before, between and after the passes, and reports every time in
reference seconds (``speed.py``): wall time corrected for the speed the shared
CPU ran at meanwhile.  With ``--trace 1`` half the passes (at least one) run
untraced and then as many traced, giving the tracing overhead and the
per-layer numbers of the traced passes, in wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_PROBLEMS = 20
SETUP_PROBES = 3
COLD_STARTS = 6
SELFTESTS = 4
# Process start-up (exec, page faults, reading and unmarshalling modules)
# shares about half of a slow-down of speed.reference(): regressing log wall
# time on log sample speed gave 0.6, and scaling by the full speed
# over-corrected the cold starts of a slow run (see Workload.speed_exponent).
CHILD_SPEED_EXPONENT = 0.5

# Cold starts classify one map of each of these families, in turn.
COLD_MAPS = ("parabolic:1,1", "rotation:0.6+0.8j", "hyperbolic-nonauto:0.5",
             "0.5,0,0,1", "1,0.5,0.5,1")


def tail(per_pass: list[list[float]]) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9/p99/p95/p90/p75/p50 of all
    call latencies with at least ten samples above its nearest-rank position.
    With fewer than twenty samples no such percentile exists; then it is the
    slowest call of each pass, median over passes (reported as p100)."""
    ordered = sorted(s for one in per_pass for s in one)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, statistics.median(max(one) for one in per_pass)


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def worker_command(args, mode: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return cmd + ["--smoke"] if args.smoke else cmd


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_until_ready(cmd: list[str], env: dict | None = None,
                    timeout: float = 60.0) -> tuple[float, str]:
    """Run a worker to its end: (seconds until it printed READY, the rest of its output).

    The worker and every process it started are killed once ``timeout``
    seconds have passed since the start, so a stall anywhere, in its import
    or its warm-up call too, ends in RuntimeError (exit -9).  It must exit 0.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    killer = threading.Timer(timeout, _kill_group, (proc,))
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.returncode is None:
            _kill_group(proc)
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:])}: exit {proc.returncode}")
    return ready, rest


def cold_start(spec: str) -> bool:
    """One fresh ``python -m hypocomp.cli classify`` process; True if it succeeded."""
    proc = subprocess.run(
        [sys.executable, "-m", "hypocomp.cli", "classify", f"--map={spec}", "--json"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    try:
        return proc.returncode == 0 and "map_class" in json.loads(proc.stdout)
    except json.JSONDecodeError:
        return False


class Runner:
    """Runs passes over the call list and checks every output afterwards.

    With a ``Speedometer`` the recorded times are reference seconds
    (``speed.py``); the raw wall times are kept alongside.
    """

    def __init__(self, calls: list, meter=None, exponent: float = 1.0):
        self.calls = calls
        self.meter = meter
        self.exponent = exponent                  # for calls and passes
        self.first: list[str] | None = None
        self.per_pass: list[list[float]] = []     # call latencies of each pass
        self.wall: list[float] = []               # wall time of each pass
        self.selftest_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def seconds(self, a: float, b: float, exponent: float = 1.0) -> float:
        return self.meter.reference_seconds(a, b, exponent) if self.meter else b - a

    def run_pass(self) -> float:
        outcomes, spans = [], []
        t0 = time.perf_counter()
        for call in self.calls:
            a = time.perf_counter()
            outcomes.append(workloads.timed(call))
            spans.append((a, time.perf_counter()))
        t1 = time.perf_counter()
        self.wall.append(t1 - t0)
        self.per_pass.append([self.seconds(a, b, self.exponent) for a, b in spans])
        normal = [workloads.normalized(o) for o in outcomes]
        if self.first is None:
            self.first = normal
        for call, outcome, text, first in zip(self.calls, outcomes, normal, self.first):
            self.verify(call, outcome, [] if text == first else ["output differs from the first pass"])
        return self.seconds(t0, t1, self.exponent)

    def run_selftest(self) -> None:
        a = time.perf_counter()
        outcome = workloads.timed(workloads.SELFTEST)
        self.selftest_s.append(self.seconds(a, time.perf_counter()))
        self.verify(workloads.SELFTEST, outcome, [])

    def verify(self, call, outcome, problems: list[str]) -> None:
        self.record(getattr(call, "argv", call), workloads.check(call, outcome) + problems)

    def record(self, label, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def probe_order() -> list[str]:
    """The probes, kinds interleaved, so that each kind spreads over the run."""
    counts = {"setup": SETUP_PROBES, "cold": COLD_STARTS, "selftest": SELFTESTS}
    order = []
    while any(counts.values()):
        for kind in counts:
            if counts[kind]:
                order.append(kind)
                counts[kind] -= 1
    return order


def run_untraced(args, runner: Runner, passes: int) -> dict:
    probes = probe_order()
    blocks = passes + 1
    setup, cold, pass_s = [], [], []
    setup_cmd = worker_command(args, "setup")
    runner.meter.start()
    try:
        for b in range(blocks):
            for probe in probes[b * len(probes) // blocks:(b + 1) * len(probes) // blocks]:
                # A child runs on the worker's CPU, and the timer goes on
                # sampling the speed there while the worker waits for it.
                a = time.perf_counter()
                if probe == "setup":
                    ready, _ = run_until_ready(setup_cmd)
                    setup.append(runner.seconds(a, a + ready, CHILD_SPEED_EXPONENT))
                elif probe == "cold":
                    spec = COLD_MAPS[len(cold) % len(COLD_MAPS)]
                    ok = cold_start(spec)
                    cold.append(runner.seconds(a, time.perf_counter(), CHILD_SPEED_EXPONENT))
                    runner.record(("cold start", spec), [] if ok else ["cold start failed"])
                else:
                    runner.run_selftest()
            if b < passes and sum(runner.wall) < 3 * args.seconds:
                pass_s.append(runner.run_pass())
    finally:
        runner.meter.stop()
    raw = [s for one in runner.per_pass for s in one]
    p_tail, v_tail = tail(runner.per_pass)
    return {
        "pass_s": statistics.median(pass_s),
        "passes": pass_s,
        "passes_wall_s": runner.wall,
        "call_p50_s": statistics.median(raw),
        "call_tail_s": v_tail,
        "tail_percentile": p_tail,
        "samples": len(raw),
        "selftest_s": statistics.median(runner.selftest_s),
        "setup_s": statistics.median(setup),
        "setup_probes": setup,
        "cold_starts": cold,
        "selftests": runner.selftest_s,
        "latencies": runner.per_pass,
        "speed_samples": len(runner.meter.durations),
        "speed_quartiles": statistics.quantiles(runner.meter.speeds, n=4),
    }


def run_traced(args, runner: Runner, passes: int) -> dict:
    from tracing import Tracer, median_metrics, pass_metrics

    each = max(1, math.ceil(passes / 2))
    untraced = [runner.run_pass() for _ in range(each)]
    tracer = Tracer()
    tracer.install()
    traced, per_pass = [], []
    try:
        for _ in range(each):
            lo = len(tracer.spans)
            traced.append(runner.run_pass())
            per_pass.append(pass_metrics(tracer.spans, lo, len(tracer.spans)))
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_csv(spans_path)
    layers = median_metrics(per_pass)
    layers["trace.pass_s_untraced"] = statistics.median(untraced)
    layers["trace.pass_s_traced"] = statistics.median(traced)
    layers["trace.overhead_s"] = layers["trace.pass_s_traced"] - layers["trace.pass_s_untraced"]
    return {"layers": layers, "spans": str(spans_path.relative_to(ROOT)),
            "spans_count": len(tracer.spans)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    # One CPU for the worker and its children, so that the speed samples
    # describe the CPU the work runs on.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import hypocomp

    if Path(hypocomp.__file__).resolve().parent != ROOT / "src" / "hypocomp":
        print(f"error: imported hypocomp from {hypocomp.__file__}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    calls = workload.build(args.seed, args.smoke)
    warm = workload.warmup()
    if warm.rc != 0:
        print(f"error: warm-up call failed: {warm.err.strip()}", file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    from speed import Speedometer   # after READY: its 8 MiB array is no part of set-up

    runner = Runner(calls, None if args.trace else Speedometer(), workload.speed_exponent)
    passes = max(1, math.ceil(args.seconds / workload.nominal_pass_s))
    result: dict = {"env": environment(nproc), "calls_per_pass": len(calls)}
    if args.trace:
        result.update(run_traced(args, runner, passes))
    else:
        result.update(run_untraced(args, runner, passes))
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
