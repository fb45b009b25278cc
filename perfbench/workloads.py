"""Seeded inputs, execution and output checks for the four benchmark workloads.

Every workload is a fixed list of calls built from the seed.  One pass runs the
list once, in order, each call starting only after the previous one returned
(one client, closed loop).  Calls go through ``hypocomp.cli.main(argv)`` in
process, except in ``exhaustive_search``, which calls the public
``hypocomp.witness_search``.  Library functions are always looked up through
their module at call time, so the traced run can patch them.

The seed picks parameters, not the amount of work: each workload fixes how
many calls of each kind a pass holds, so two seeds cost about the same and a
change in ``pass_s`` means a change in the library, not in the draw.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

SPACES = ("hardy", "bergman:0", "bergman:1", "bergman:0.7")
_GAMMA = {"hardy": 1.0, "bergman:0": 2.0, "bergman:1": 3.0, "bergman:0.7": 2.7}

# A budget no call comes near: the wall-clock deadline must never decide a
# result.  A call that ends after a tenth of it counts as a deadline stop.
ESCALATE_BUDGET_S = 600.0
SEARCH_BUDGET_S = 3600.0
SEARCH_ORDER = 48
# A search that finds no witness ends after its 97 grid points (stage 1) and
# 400 trials (stage 2), each trial one multi-kernel Gram evaluation.  Fewer
# means it stopped early: by its deadline, or by skipping work.
SEARCH_TRIALS = 400
SEARCH_GRAM = {"single": 97, "multi": SEARCH_TRIALS}

_WALL_TIME = re.compile(r'"wall_time_ms": [-+0-9.eE]+')


def cnum(z: complex) -> str:
    """A complex literal the CLI parses back to the same double pair."""
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if math.copysign(1.0, z.imag) > 0 else ""
    return f"{z.real!r}{sign}{z.imag!r}j"


def clist(values) -> str:
    return ",".join(cnum(v) for v in values)


def unit(theta: float) -> complex:
    return cmath.exp(1j * theta)


# ---------------------------------------------------------------------------
# Calls and their results


@dataclass(frozen=True)
class CliCall:
    """One ``hypocomp.cli.main(argv)`` call and what its output must satisfy."""

    argv: tuple[str, ...]
    expect_class: str | None = None
    expect_outcome: str | None = None
    # finite_section only: classical norm bound, and |psi(0)| when the
    # section's spectral radius must equal it.
    norm_bound: float | None = None
    radius: float | None = None


@dataclass(frozen=True)
class SearchCall:
    """``witness_search(1, dilation(r), hardy(), order=48)``: no witness exists."""

    r: float
    seed: int


@dataclass
class CallResult:
    rc: int
    out: str
    err: str = ""
    value: object = None        # witness_search return value
    seconds: float = 0.0
    gram: dict | None = None    # witness_search's Gram evaluations, by kernel count


def run_cli(argv) -> CallResult:
    import hypocomp.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = hypocomp.cli.main(list(argv))
        except SystemExit as exc:     # argparse rejected the arguments
            rc = exc.code
    return CallResult(rc, out.getvalue(), err.getvalue())


@contextlib.contextmanager
def gram_counts():
    """Count the Gram evaluations that ``theory`` completes, single and multi-kernel."""
    import hypocomp.theory as theory

    inner = theory.kernel_gram_norms
    counts = {"single": 0, "multi": 0}

    def counted(psi, phi, space, points, coeffs, n):
        norms = inner(psi, phi, space, points, coeffs, n)
        counts["multi" if len(points) > 1 else "single"] += 1
        return norms

    theory.kernel_gram_norms = counted
    try:
        yield counts
    finally:
        theory.kernel_gram_norms = inner


def run_search(call: SearchCall) -> CallResult:
    import hypocomp

    with gram_counts() as gram:
        value = hypocomp.witness_search(
            1, hypocomp.dilation(call.r), hypocomp.hardy(),
            budget_seconds=SEARCH_BUDGET_S, seed=call.seed, order=SEARCH_ORDER,
        )
    return CallResult(0, "", value=value, gram=gram)


def execute(call) -> CallResult:
    if isinstance(call, SearchCall):
        return run_search(call)
    return run_cli(call.argv)


def timed(call) -> CallResult:
    t0 = time.perf_counter()
    result = execute(call)
    result.seconds = time.perf_counter() - t0
    return result


def normalized(outcome: CallResult) -> str:
    """Output with the timing field removed, for the byte-identity check."""
    if outcome.value is not None:
        return repr(outcome.value)
    return _WALL_TIME.sub('"wall_time_ms": _', outcome.out)


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.


def _spectral_invariants(report: dict) -> list[str]:
    problems = []
    spec = report.get("spectral") or {}
    r, r_e = spec.get("r"), spec.get("r_e")
    lo, hi = spec.get("norm_lower"), spec.get("norm_upper")
    if r is not None and r_e is not None and r_e > r + 1e-10 * (1.0 + r):
        problems.append(f"r_e {r_e!r} > r {r!r}")
    if lo is not None and hi is not None and lo > hi + 1e-10 * (1.0 + hi):
        problems.append(f"norm_lower {lo!r} > norm_upper {hi!r}")
    return problems


_DIAG = re.compile(r"(operator norm|truncation spectral radius|gelfand estimate k=8) (\S+)$")


def _finite_section_checks(call: CliCall, report: dict) -> list[str]:
    values = {}
    for line in report.get("diagnostics", []):
        m = _DIAG.search(line)
        if m:
            values[m.group(1)] = float(m.group(2))
    if len(values) != 3:
        return [f"missing finite-section diagnostics: {report.get('diagnostics')}"]
    norm = values["operator norm"]
    tsr = values["truncation spectral radius"]
    gel = values["gelfand estimate k=8"]
    problems = []
    # The diagnostics print 12 significant digits; the power iteration stops
    # at a relative residual of 1e-8.
    slack = 1e-6
    if norm > call.norm_bound * (1.0 + slack):
        problems.append(f"operator norm {norm!r} above the classical bound {call.norm_bound!r}")
    if gel > norm * (1.0 + slack) or tsr > norm * (1.0 + slack):
        problems.append(f"radius estimates {tsr!r}, {gel!r} above the norm {norm!r}")
    if call.radius is not None and abs(tsr - call.radius) > 1e-10 * (1.0 + call.radius):
        problems.append(f"section spectral radius {tsr!r} != |psi(0)| {call.radius!r}")
    return problems


def check_cli(call: CliCall, outcome: CallResult) -> list[str]:
    if outcome.rc != 0:
        return [f"exit {outcome.rc}: {outcome.err.strip()[:200]}"]
    try:
        report = json.loads(outcome.out)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if call.argv[0] == "selftest":
        if report.get("passed_count") != report.get("total_count"):
            failed = [it["name"] for it in report.get("items", []) if not it["passed"]]
            return [f"selftest items failed: {failed}"]
        return []
    problems = _spectral_invariants(report)
    if call.expect_class is not None and report.get("map_class") != call.expect_class:
        problems.append(f"class {report.get('map_class')!r}, expected {call.expect_class!r}")
    verdict = report.get("verdict") or {}
    if call.expect_outcome is not None and verdict.get("outcome") != call.expect_outcome:
        problems.append(f"verdict {verdict.get('outcome')!r}, expected {call.expect_outcome!r}")
    if "--escalate" in call.argv:
        w = verdict.get("witness")
        if w is None or not w["adjoint_norm"] - w["forward_norm"] > 10.0 * w["tail_bound"]:
            problems.append(f"witness without a 10x tail margin: {w}")
        elif len(w["points"]) != 1:
            problems.append(f"witness from stage 2, not from a single kernel: {w['points']}")
        if outcome.seconds > 0.1 * ESCALATE_BUDGET_S:
            problems.append(f"took {outcome.seconds:.1f} s of a {ESCALATE_BUDGET_S:g} s budget")
    if call.norm_bound is not None:
        problems += _finite_section_checks(call, report)
    return problems


def check_search(call: SearchCall, outcome: CallResult) -> list[str]:
    if outcome.value is not None:
        return [f"dilation({call.r!r}) returned a witness: {outcome.value}"]
    problems = []
    if outcome.gram != SEARCH_GRAM:
        problems.append(f"search ended after Gram evaluations {outcome.gram}, not {SEARCH_GRAM}")
    if outcome.seconds > 0.1 * SEARCH_BUDGET_S:
        problems.append(f"search took {outcome.seconds:.1f} s of a {SEARCH_BUDGET_S:g} s budget")
    return problems


def check(call, outcome: CallResult) -> list[str]:
    if isinstance(call, SearchCall):
        return check_search(call, outcome)
    return check_cli(call, outcome)


# ---------------------------------------------------------------------------
# closed_form: classify / check / spectral without numerics, plus selftest

# Map families: name -> (make(rng) -> (spec, fixed point or None), class).
def _map_rotation(rng):
    return f"rotation:{cnum(unit(rng.uniform(0.3, 2 * math.pi - 0.3)))}", 0j


def _map_parabolic(rng):
    zeta = unit(rng.uniform(0, 2 * math.pi))
    t = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
    return f"parabolic:{cnum(zeta)},{cnum(t)}", None


def _map_hyperbolic(rng):
    return f"hyperbolic-nonauto:{cnum(rng.uniform(0.2, 0.8) * unit(rng.uniform(0, 2 * math.pi)))}", 0j


def _map_normal_form(rng):
    p = rng.uniform(0.1, 0.6) * unit(rng.uniform(0, 2 * math.pi))
    delta = rng.uniform(0.2, 0.7) * unit(rng.uniform(0, 2 * math.pi))
    return f"normal-form:{cnum(p)},{cnum(delta)}", p


def _map_identity(rng):
    return "identity", None


def _map_dilation(rng):
    lam = rng.uniform(0.2, 0.9) * unit(rng.uniform(0, 2 * math.pi))
    return clist((lam, 0, 0, 1)), 0j


def _map_automorphism(rng):
    # (z + a conj(l)) / (a l z + 1): a hyperbolic automorphism fixing +-conj(l).
    a, lam = rng.uniform(0.2, 0.7), unit(rng.uniform(0, 2 * math.pi))
    return clist((1, a * lam.conjugate(), a * lam, 1)), None


def _map_contraction(rng):
    # s (z - a)/(1 - conj(a) z): sup |phi| = s < 1 on the circle, phi(0) != 0.
    s = rng.uniform(0.3, 0.8)
    a = rng.uniform(0.1, 0.5) * unit(rng.uniform(0, 2 * math.pi))
    return clist((s, -s * a, -a.conjugate(), 1)), None


def _map_contact(rng):
    # mu (1-|c|) z/(c z + 1): touches the circle once and moves that point.
    c = rng.uniform(0.2, 0.7) * unit(rng.uniform(0, 2 * math.pi))
    mu = unit(rng.uniform(0.5, 2 * math.pi - 0.5))
    return clist((mu * (1 - abs(c)), 0, c, 1)), None


MAP_FAMILIES = {
    "rotation": (_map_rotation, "elliptic-automorphism"),
    "parabolic": (_map_parabolic, "parabolic-nonautomorphism"),
    "hyperbolic": (_map_hyperbolic, "hyperbolic-nonautomorphism"),
    "normal-form": (_map_normal_form, "interior-contraction"),
    "identity": (_map_identity, "identity"),
    "dilation": (_map_dilation, "interior-contraction"),
    "automorphism": (_map_automorphism, "hyperbolic-automorphism"),
    "contraction": (_map_contraction, "interior-contraction"),
    "contact": (_map_contact, "boundary-contact-no-boundary-fixed-point"),
}


def _weight(rng, kind: str, fixed) -> str:
    def coef(lo, hi):
        return rng.uniform(lo, hi) * unit(rng.uniform(0, 2 * math.pi))

    if kind == "const":
        return cnum(coef(0.5, 2.0))
    if kind == "poly":
        return clist([coef(1.0, 2.0), coef(0.1, 0.6), coef(0.0, 0.3)])
    if kind == "rational":
        return f"{clist([coef(1.0, 2.0), coef(0.1, 0.6)])}/{clist([1, coef(0.1, 0.7)])}"
    if kind == "kq":
        return f"kernel-quotient:{cnum(fixed)},{cnum(coef(0.5, 2.0))}"
    raise ValueError(kind)


# (subcommand, map family, weight kind or None, calls per pass); 125 calls.
# Normal forms are 12% of the calls and most of the time: building one runs
# the admissibility winding counts of every power factor.
CLOSED_FORM_STRATA = (
    ("classify", "rotation", None, 5), ("classify", "parabolic", None, 5),
    ("classify", "hyperbolic", None, 5), ("classify", "normal-form", None, 4),
    ("classify", "identity", None, 2), ("classify", "dilation", None, 5),
    ("classify", "automorphism", None, 5), ("classify", "contraction", None, 4),
    ("classify", "contact", None, 3),
    ("check", "parabolic", "poly", 7), ("check", "parabolic", "rational", 4),
    ("check", "parabolic", "const", 3), ("check", "hyperbolic", "poly", 4),
    ("check", "hyperbolic", "rational", 3), ("check", "rotation", "poly", 4),
    ("check", "automorphism", "poly", 4), ("check", "dilation", "poly", 3),
    ("check", "dilation", "const", 2), ("check", "contraction", "rational", 4),
    ("check", "contact", "poly", 3), ("check", "contact", "rational", 2),
    ("check", "normal-form", "kq", 4), ("check", "normal-form", "poly", 2),
    ("check", "identity", "poly", 1),
    ("spectral", "parabolic", "poly", 6), ("spectral", "parabolic", "rational", 3),
    ("spectral", "hyperbolic", "poly", 5), ("spectral", "hyperbolic", "const", 3),
    ("spectral", "automorphism", "const", 4), ("spectral", "automorphism", "poly", 3),
    ("spectral", "dilation", "poly", 3), ("spectral", "contraction", "rational", 2),
    ("spectral", "normal-form", "kq", 4), ("spectral", "normal-form", "poly", 1),
    ("spectral", "rotation", "poly", 2), ("spectral", "contact", "poly", 1),
)

SELFTEST = CliCall(("selftest", "--json"))   # a probe of every workload


def closed_form(seed: int, smoke: bool = False) -> list:
    rng = random.Random(seed)
    calls = []
    for command, family, weight, count in CLOSED_FORM_STRATA:
        build, cls = MAP_FAMILIES[family]
        for i in range(count):
            spec, fixed = build(rng)
            # --opt=value: a literal such as -0.5+0.3j would read as an option.
            argv = [command, f"--map={spec}", f"--space={SPACES[i % len(SPACES)]}", "--json"]
            if weight is not None:
                argv.append(f"--psi={_weight(rng, weight, fixed)}")
            calls.append(CliCall(tuple(argv), expect_class=None if command == "spectral" else cls))
    rng.shuffle(calls)
    return calls[::5] if smoke else calls


CLOSED_FORM_WARMUP = CliCall(("classify", "--map=parabolic:1,1", "--json"))


# ---------------------------------------------------------------------------
# escalate: check --escalate cases certified in stage 1 of the witness search

# (space, map, weight coefficients or (num, den)); the comment gives the Gram
# evaluations each needs.  Scaling a weight by c != 0 scales every norm and
# tail bound by |c|, so the seed's scale leaves the search path unchanged.
ESCALATE_CASES = (
    ("hardy", "rotation:i", (2, 1)),                            # 18
    ("hardy", "rotation:-1", (2, 1)),                           # 2
    ("hardy", "1,0.5,0.5,1", (2, 1)),                           # 1
    ("hardy", "1,0.3i,-0.3i,1", (3, -1)),                       # 8
    ("hardy", "parabolic:1,2", (1, 0, 0.5)),                    # 1
    ("bergman:0", "rotation:i", (3, -1)),                       # 5
    ("bergman:0", "1,0.3i,-0.3i,1", ((2,), (1, 0.2))),          # 1
    ("bergman:0", "hyperbolic-nonauto:0.5", ((2,), (1, 0.2))),  # 9
    ("bergman:0", "parabolic:1,1", (1, 0, 0.5)),                # 1
    ("bergman:1", "rotation:-1", (3, -1)),                      # 7
    ("bergman:1", "1,0.5,0.5,1", (2, 1)),                       # 1
    ("bergman:0.7", "hyperbolic-nonauto:0.5", (3, -1)),         # 9
    ("bergman:0.7", "rotation:-1", ((2,), (1, 0.2))),           # 7
)


def _escalate_call(space, spec, weight, scale: complex, seed: int) -> CliCall:
    if isinstance(weight[0], tuple):
        psi = f"{clist(scale * c for c in weight[0])}/{clist(weight[1])}"
    else:
        psi = clist(scale * c for c in weight)
    argv = ("check", f"--psi={psi}", f"--map={spec}", f"--space={space}", "--escalate",
            f"--budget={ESCALATE_BUDGET_S!r}", f"--seed={seed}", "--json")
    return CliCall(argv, expect_outcome="CertifiedNotNumeric")


def escalate(seed: int, smoke: bool = False) -> list:
    rng = random.Random(seed)
    calls = [
        _escalate_call(space, spec, weight,
                       rng.uniform(0.5, 2.0) * unit(rng.uniform(0, 2 * math.pi)),
                       rng.randrange(1, 2**31))
        for space, spec, weight in ESCALATE_CASES
    ]
    rng.shuffle(calls)
    return calls[::3] if smoke else calls


ESCALATE_WARMUP = _escalate_call("bergman:0", "1,0.5,0.5,1", (3, -1), 1.0, 1729)


# ---------------------------------------------------------------------------
# finite_section: spectral --numeric at N = 1024, 512, 512, 256

def _sup_on_circle(fn) -> float:
    z = np.exp(2j * np.pi * np.arange(8192) / 8192)
    return float(np.max(np.abs(fn(z))))


def _classical_bound(psi_sup: float, phi0: complex, gamma: float) -> float:
    r = abs(phi0)
    return psi_sup * ((1.0 + r) / (1.0 - r)) ** (gamma / 2.0)


def _section(psi, spec, space, n, **checks) -> CliCall:
    argv = ("spectral", f"--psi={psi}", f"--map={spec}", f"--space={space}",
            "--numeric", f"--order={n}", "--json")
    return CliCall(argv, **checks)


def finite_section_cases(lam: complex, c: complex, orders=(1024, 512, 512, 256)) -> list:
    """The four cases conjugated by the rotation z -> lam z and scaled by c.

    Both leave singular values and eigenvalues unchanged up to the factor
    |c|, so the seed moves the inputs but not the work.
    """
    lc = lam.conjugate()
    calls = []
    # 1. Rational weight, dilation 0.5 z fixing 0: build, eigvals, Gelfand.
    #    The section is triangular with spectral radius |psi(0)| = 2|c|.
    num, den = (2 * c, c * lam), (1, -0.4 * lam)
    calls.append(_section(
        f"{clist(num)}/{clist(den)}", "0.5,0,0,1", "hardy", orders[0],
        norm_bound=_classical_bound(
            _sup_on_circle(lambda z: (num[0] + num[1] * z) / (1 + den[1] * z)), 0, 1.0),
        radius=abs(2 * c)))
    # 2. Normal form with its kernel-quotient (power-factor) weight: eigvals.
    q, delta, gamma = 0.3 * lc, 0.4, _GAMMA["bergman:0"]

    def alpha(z):
        return (q - z) / (1 - q.conjugate() * z)

    def phi(z):
        return alpha(delta * alpha(z))

    calls.append(_section(
        f"kernel-quotient:{cnum(q)},{cnum(c)}", f"normal-form:{cnum(q)},{cnum(delta)}",
        "bergman:0", orders[1],
        norm_bound=_classical_bound(
            _sup_on_circle(lambda z: abs(c) * np.abs((1 - q.conjugate() * phi(z))
                                                     / (1 - q.conjugate() * z)) ** gamma),
            phi(0), gamma)))
    # 3. Hyperbolic automorphism (z + 1/2)/(z/2 + 1): operator_norm.
    calls.append(_section(
        clist((2 * c, c * lam)), clist((1, 0.5 * lc, 0.5 * lam, 1)), "hardy", orders[2],
        norm_bound=_classical_bound(_sup_on_circle(lambda z: c * (2 + lam * z)), 0.5 * lc, 1.0)))
    # 4. Parabolic map fixing conj(lam), on bergman:1.
    calls.append(_section(
        clist((c, 0.5 * c * lam)), f"parabolic:{cnum(lc)},1", "bergman:1", orders[3],
        norm_bound=_classical_bound(_sup_on_circle(lambda z: c * (1 + 0.5 * lam * z)),
                                    lc / 3, _GAMMA["bergman:1"])))
    return calls


def finite_section(seed: int, smoke: bool = False) -> list:
    rng = random.Random(seed)
    lam = unit(rng.uniform(0, 2 * math.pi))
    c = rng.uniform(0.5, 2.0) * unit(rng.uniform(0, 2 * math.pi))
    return finite_section_cases(lam, c, (64, 64, 64, 32) if smoke else (1024, 512, 512, 256))


FINITE_SECTION_WARMUP = finite_section_cases(1.0, 1.0, (32, 32, 32, 32))[3]


# ---------------------------------------------------------------------------
# exhaustive_search: a full witness search that cannot succeed

def exhaustive_search(seed: int, smoke: bool = False) -> list:
    rng = random.Random(seed)
    return [SearchCall(rng.uniform(0.3, 0.7), rng.randrange(1, 2**31))]


def run_warm_search() -> CallResult:
    """Stage 1 certifies at the first kernel: warms the search path cheaply."""
    import hypocomp

    value = hypocomp.witness_search(
        hypocomp.polynomial_fn(2, 1), hypocomp.MoebiusMap(1, 0.5, 0.5, 1), hypocomp.hardy(),
        budget_seconds=SEARCH_BUDGET_S, order=SEARCH_ORDER,
    )
    return CallResult(0 if value is not None else 1, "", value=value)


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], list]      # (seed, smoke) -> the calls of one pass
    warmup: Callable[[], CallResult]
    nominal_pass_s: float                   # one pass on the reference machine
    # How much of a slow-down of the CPU, as speed.reference() sees it, the
    # workload's calls suffer too: interpreted code and small numpy kernels
    # slow down alike (measured 0.8-1.4), dense LAPACK at N=256-1024 much less
    # (0.2-0.6).  Calls and passes are scaled by the speed to this power.
    speed_exponent: float = 1.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed_form", closed_form, lambda: run_cli(CLOSED_FORM_WARMUP.argv), 1.0),
        Workload("escalate", escalate, lambda: run_cli(ESCALATE_WARMUP.argv), 1.2),
        Workload("finite_section", finite_section,
                 lambda: run_cli(FINITE_SECTION_WARMUP.argv), 4.8, speed_exponent=0.5),
        Workload("exhaustive_search", exhaustive_search, run_warm_search, 24.0),
    )
}
