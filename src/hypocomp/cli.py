"""Command-line front end.

Subcommands
-----------
classify   map classification plus the unweighted hyponormality verdict
check      weighted hyponormality verdict with citations, optional witness
spectral   closed-form spectral report, optional finite-section diagnostics
selftest   frozen battery of worked cases; nonzero exit on any failure

Exit codes: 0 verdict reached, 1 a selftest item failed, 2 input error
(float overflow and finite sections outside the double range included),
3 requested theory unavailable, 4 numeric non-convergence (LAPACK's
singular values or eigenvalues of a finite section did not converge).

Every subcommand takes --space, --format and --json; check also --seed and
--order (the witness search's seed and starting order), --escalate (run
the witness search when no theorem decides), --budget SECONDS (the
search's deadline: positive, inf for none) and --grid (semicolon-separated
kernel points in the open disk, replacing the default grid of the parabolic
kernel inequality); spectral --order (the finite-section size).  Either
--order lies in [8, 1024].

main builds its argument parser once per process, on its first call, and
parsing keeps no state between calls: each call gets a fresh namespace.

Formats: --format json emits one JSON object
{input, space, verdict{outcome, citation, witness?}, spectral{r?, r_e?,
norm_lower?, norm_upper?, citations}, diagnostics[], wall_time_ms};
--format csv emits "field,value" lines.  Output is byte-identical across runs
for a fixed seed and configuration, except the wall_time_ms field.

Matrix dumps (--dump-matrix PATH) are CSV with header n,j,re,im, row-major;
eigenvalue dumps (--dump-eigs PATH) have header k,re,im.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time

import numpy as np

from . import matrixrep
from .errors import (
    ConvergenceFailureError,
    HypocompError,
    TheoryUnavailableError,
)
from .funcalg import MAX_TRUNCATION, AnalyticFunction, polynomial_fn, rational_fn
from .moebius import (
    MoebiusMap,
    cayley_parabolic,
    hyperbolic_nonauto_form,
    rotation,
)
from .space import SpaceSpec, hardy, space_from_label
from .theory import (
    CIT_NORM_MU_LOWER,
    CIT_NORM_MU_UPPER,
    Outcome,
    WeightedOptions,
    clark_singular_part,
    classify_unweighted,
    classify_weighted,
    kernel_quotient_weight,
    norm_bounds,
    normal_form,
    normal_form_map,
    parabolic_kernel_inequality,
    spectral_radius_closed,
    essential_spectral_radius_closed,
    spectral_report,
)

_DEFAULT_ORDER = 128


def _space(args) -> SpaceSpec:
    """The space of check or spectral, after checking that it is known and
    that 8 <= --order <= MAX_TRUNCATION."""
    space = space_from_label(args.space)
    if not 8 <= args.order <= MAX_TRUNCATION:
        raise ValueError(f"truncation order must lie in [8, {MAX_TRUNCATION}]")
    return space


# ---------------------------------------------------------------------------
# Mini-language parsers

def parse_complex(text: str) -> complex:
    s = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    s = re.sub(r"(^|[+\-*(])j", r"\g<1>1j", s)
    try:
        return complex(s)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc


def parse_map(spec: str) -> MoebiusMap:
    spec = spec.strip()
    if spec == "identity":
        return MoebiusMap(1, 0, 0, 1)
    if ":" in spec:
        name, _, rest = spec.partition(":")
        args = [parse_complex(tok) for tok in rest.split(",") if tok.strip()]
        name = name.strip().lower()
        if name == "rotation" and len(args) == 1:
            return rotation(args[0])
        if name == "parabolic" and len(args) == 2:
            return cayley_parabolic(args[0], args[1])
        if name == "hyperbolic-nonauto" and len(args) == 1:
            return hyperbolic_nonauto_form(args[0])
        if name == "normal-form" and len(args) == 2:
            return normal_form_map(args[0], args[1])
        raise ValueError(f"unknown named map {spec!r}")
    parts = [parse_complex(tok) for tok in spec.split(",")]
    if len(parts) != 4:
        raise ValueError("a raw map needs exactly four coefficients a,b,c,d")
    return MoebiusMap(*parts)


def parse_weight(spec: str, phi: MoebiusMap, space: SpaceSpec) -> AnalyticFunction:
    spec = spec.strip()
    if spec.lower().startswith("kernel-quotient:"):
        args = [parse_complex(tok) for tok in spec.split(":", 1)[1].split(",")]
        if len(args) != 2:
            raise ValueError("kernel-quotient takes p,value")
        return kernel_quotient_weight(args[0], args[1], phi, space)
    if "/" in spec:
        num, _, den = spec.partition("/")
        return rational_fn([parse_complex(t) for t in num.split(",")],
                           [parse_complex(t) for t in den.split(",")])
    return polynomial_fn(*[parse_complex(t) for t in spec.split(",")])


# ---------------------------------------------------------------------------
# Report plumbing

def _cnum(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _witness_dict(w) -> dict:
    return {
        "points": [_cnum(p) for p in w.points],
        "coefficients": [_cnum(c) for c in w.coefficients],
        "adjoint_norm": w.adjoint_norm,
        "forward_norm": w.forward_norm,
        "tail_bound": w.tail_bound,
        "order": w.order,
    }


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    else:
        rows.append((prefix, json.dumps(value)))


def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
        return
    if fmt == "csv":
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        sys.stdout.write("field,value\n")
        for key, val in rows:
            sys.stdout.write(f"{key},{val}\n")
        return
    _emit_text(report, sys.stdout)


def _emit_text(report: dict, stream) -> None:
    stream.write(f"input: {report['input']}\n")
    stream.write(f"space: {report['space']}\n")
    if "map_class" in report:
        stream.write(f"class: {report['map_class']}\n")
    verdict = report.get("verdict")
    if verdict:
        stream.write(f"verdict: {verdict['outcome']}\n")
        if verdict.get("citation"):
            stream.write(f"  citation: {verdict['citation']}\n")
        if verdict.get("details"):
            stream.write(f"  details: {verdict['details']}\n")
        if verdict.get("witness"):
            w = verdict["witness"]
            stream.write(
                f"  witness: adjoint {w['adjoint_norm']:.9g} > forward {w['forward_norm']:.9g}"
                f" (tail {w['tail_bound']:.3g})\n"
            )
    spectral = report.get("spectral")
    if spectral:
        for key in ("r", "r_e", "norm_lower", "norm_upper"):
            if spectral.get(key) is not None:
                stream.write(f"{key}: {spectral[key]:.12g}\n")
        for key, cite in sorted(spectral.get("citations", {}).items()):
            stream.write(f"  [{key}] {cite}\n")
    for diag in report.get("diagnostics", []):
        stream.write(f"diagnostic: {diag}\n")
    if "items" in report:
        for item in report["items"]:
            stream.write(f"{'PASS' if item['passed'] else 'FAIL'}  {item['name']}\n")
        stream.write(f"{report['passed_count']}/{report['total_count']} items passed\n")


def _verdict_dict(v) -> dict:
    out = {"outcome": v.outcome.value, "citation": v.citation, "details": v.details}
    if v.witness is not None:
        out["witness"] = _witness_dict(v.witness)
    return out


def _spectral_dict(rep) -> dict:
    return {
        "r": rep.r,
        "r_e": rep.r_e,
        "norm_lower": rep.norm_lower,
        "norm_upper": rep.norm_upper,
        "citations": dict(rep.citations),
    }


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_classify(args) -> tuple[dict, int]:
    space = space_from_label(args.space)
    phi = parse_map(args.map)
    verdict = classify_unweighted(phi, space)
    return {
        "input": {"map": args.map},
        "space": space.label(),
        "map_class": verdict.map_kind.value,
        "verdict": _verdict_dict(verdict),
        "diagnostics": [],
    }, 0


def _norm_bound_block(psi, phi, space) -> dict | None:
    """check's spectral block: the norm bounds that hold if the operator is
    hyponormal, at the interior Denjoy-Wolff point; None when no bound
    applies."""
    try:
        nb = norm_bounds(psi, phi, space)
    except TheoryUnavailableError:
        return None
    citations = {
        "norm_lower": CIT_NORM_MU_LOWER + " (assuming hyponormality)",
        "norm_upper": CIT_NORM_MU_UPPER + " (assuming hyponormality)",
        "mu": f"mu = {nb.mu!r}",
    }
    return {"r": None, "r_e": None, "norm_lower": nb.lower, "norm_upper": nb.upper,
            "citations": citations}


def _cmd_check(args) -> tuple[dict, int]:
    # --space and --order first, then --grid: WeightedOptions passes each point
    # through the disk gate and refuses an empty grid, "" and ";" included.
    space = _space(args)
    grid = None
    if args.grid is not None:
        grid = tuple(parse_complex(tok) for tok in args.grid.split(";") if tok.strip())
    opts = WeightedOptions(
        escalate_numeric=args.escalate,
        budget_seconds=args.budget,
        seed=args.seed,
        order=args.order,
        grid=grid,
    )
    phi = parse_map(args.map)
    psi = parse_weight(args.psi, phi, space)
    verdict = classify_weighted(psi, phi, space, opts)
    report = {
        "input": {"psi": args.psi, "map": args.map},
        "space": space.label(),
        "map_class": verdict.map_kind.value,
        "verdict": _verdict_dict(verdict),
        "diagnostics": [],
    }
    spectral = _norm_bound_block(psi, phi, space)
    if spectral is not None:
        report["spectral"] = spectral
    return report, 0


def _cmd_spectral(args) -> tuple[dict, int]:
    space = _space(args)
    phi = parse_map(args.map)
    psi = parse_weight(args.psi, phi, space)
    rep = spectral_report(psi, phi, space)
    diagnostics: list[str] = []
    if args.numeric:
        n = args.order
        # A compact section is built only to the order that proves the rest
        # below the analysis' tolerance; a dump writes every entry asked for.
        k = n if args.dump_matrix or args.dump_eigs else matrixrep.proved_block_order(psi, phi, space, n)
        m = matrixrep.build_weighted_composition(psi, phi, space, k)
        norm_est = matrixrep.operator_norm(m)
        tsr = matrixrep.truncation_spectral_radius(m)
        gel = matrixrep.gelfand_estimate(m, 8)
        diagnostics = [
            f"advisory finite-section N={n}: operator norm {norm_est.value:.12g}",
            f"advisory finite-section N={n}: truncation spectral radius {tsr.value:.12g}",
            f"advisory finite-section N={n}: gelfand estimate k=8 {gel.value:.12g}",
        ]
        # A section is a compression, so its norm is at most ||C||; one below
        # the proved lower bound (beyond the power steps' 1e-8) misses part of C.
        if norm_est.value < rep.norm_lower * (1.0 - 1e-8):
            diagnostics.append(
                f"advisory finite-section N={n}: section norm is {norm_est.value / rep.norm_lower:.6g}"
                " times the proved norm_lower; raise --order"
            )
        if args.dump_matrix:
            matrixrep.write_matrix_csv(m, args.dump_matrix)
            diagnostics.append(f"matrix dumped to {args.dump_matrix}")
        if args.dump_eigs:
            try:
                eigs = np.linalg.eigvals(m.entries)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceFailureError(f"LAPACK eigenvalues did not converge: {exc}") from exc
            matrixrep.write_eigenvalues_csv(eigs, args.dump_eigs)
            diagnostics.append(f"eigenvalues dumped to {args.dump_eigs}")
    return {
        "input": {"psi": args.psi, "map": args.map},
        "space": space.label(),
        "verdict": None,
        "spectral": _spectral_dict(rep),
        "diagnostics": diagnostics,
    }, 3 if args.require_all and (rep.r is None or rep.r_e is None) else 0


# ---------------------------------------------------------------------------
# Self-test battery

def _selftest_items(space_labels: list[str]) -> list[dict]:
    par = cayley_parabolic(1, 1)
    psi1 = polynomial_fn(0.5, -0.25)
    psi2 = polynomial_fn(3, 2, -3)
    items: list[dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        items.append({"name": name, "passed": bool(passed), "detail": detail})

    for label in space_labels:
        space = space_from_label(label)
        for psi, pname in ((psi1, "(2-z)/4"), (psi2, "-3z^2+2z+3")):
            verdict = classify_weighted(psi, par, space)
            ok = verdict.outcome is Outcome.NOT_HYPONORMAL
            detail = verdict.citation or ""
            if pname == "(2-z)/4" and space == hardy():
                violation = parabolic_kernel_inequality(psi, par, space)
                margin = violation.margin if violation else float("nan")
                expected = 0.5 * math.sqrt(9.0 / 8.0) - 0.25
                ok = ok and violation is not None and abs(margin - expected) <= 1e-10
                detail += f"; margin {margin:.12g} vs {expected:.12g}"
            record(f"parabolic weight {pname} on {label}: not hyponormal", ok, detail)

    for label in space_labels:
        space = space_from_label(label)
        good = True
        for p in (0.2, 0.4j, -0.3):
            for delta in (0.3, -0.4, 0.25j):
                nf = normal_form(p, delta, 1.0, space)
                v = classify_weighted(nf.psi, nf.phi, space)
                good = good and v.outcome is Outcome.NORMAL
        record(f"normal-form battery (9 pairs) on {label}: all normal", good, "")

    zmap = MoebiusMap(1, 0, 1, 2)
    nb = norm_bounds(1, zmap, hardy())
    ok = abs(nb.lower - 1 / math.sqrt(2)) <= 1e-12 and abs(nb.upper - 1.0) <= 1e-12
    record("norm bounds for z/(z+2), unit weight, hardy: [0.7071, 1]", ok,
           f"[{nb.lower:.6f}, {nb.upper:.6f}]")
    ok = abs(nb.mu - 1.0) <= 1e-12 and abs(nb.lower - 1 / math.sqrt(2)) <= 1e-12
    record("interior-point norm bounds for z/(z+2) at p=0: mu = 1", ok, f"mu={nb.mu}")
    nbb = norm_bounds(1, zmap, space_from_label("bergman:0"))
    ok = abs(nbb.lower - 0.5) <= 1e-12
    record("norm lower bound for z/(z+2) on bergman:0: 1/2", ok, f"{nbb.lower:.6f}")

    for label in space_labels:
        space = space_from_label(label)
        r = spectral_radius_closed(psi1, par, space).value
        record(f"spectral radius of weight (2-z)/4 with parabolic symbol on {label}: 1/4",
               abs(r - 0.25) <= 1e-12, f"{r:.12g}")
    re_h = essential_spectral_radius_closed(MoebiusMap(1, 0.5, 0.5, 1), hardy()).value
    record("essential spectral radius of (z+1/2)/(1+z/2) on hardy: sqrt(3)",
           abs(re_h - math.sqrt(3.0)) <= 1e-12, f"{re_h:.12g}")

    cp = clark_singular_part(par)
    ok = abs(cp.alpha - 1) <= 1e-9 and abs(cp.atoms[0][0] - 1) <= 1e-9 and abs(cp.atoms[0][1] - 1) <= 1e-9
    cp2 = clark_singular_part(zmap)
    ok = ok and abs(cp2.atoms[0][0] + 1) <= 1e-9 and abs(cp2.atoms[0][1] - 0.5) <= 1e-9
    record("Clark singular atoms: (1,1) for the parabolic map, (-1,1/2) for z/(z+2)", ok, "")
    return items


def _cmd_selftest(args) -> tuple[dict, int]:
    space_from_label(args.space)   # rejects a bad --space before the battery runs
    labels = [args.space] if args.space != "hardy" else ["hardy", "bergman:0"]
    items = _selftest_items(labels)
    passed = sum(1 for it in items if it["passed"])
    return {
        "input": {"spaces": labels},
        "space": args.space,
        "items": items,
        "passed_count": passed,
        "total_count": len(items),
        "diagnostics": [],
    }, 0 if passed == len(items) else 1


# ---------------------------------------------------------------------------
# Entry point

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypocomp",
        description="weighted composition operators on Hardy and weighted Bergman spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--space", default="hardy", help="hardy or bergman:<alpha>")
        p.add_argument("--format", default="text", choices=("text", "json", "csv"))
        p.add_argument("--json", dest="format", action="store_const", const="json",
                       help="shorthand for --format json")

    p_classify = sub.add_parser("classify", help="classify a map and its unweighted operator")
    common(p_classify)
    p_classify.add_argument("--map", required=True)
    p_classify.set_defaults(func=_cmd_classify)

    p_check = sub.add_parser("check", help="weighted hyponormality verdict")
    common(p_check)
    p_check.add_argument("--seed", type=int, default=WeightedOptions.seed, help="witness search seed")
    p_check.add_argument("--order", type=int, default=_DEFAULT_ORDER,
                         help="starting order of the witness search")
    p_check.add_argument("--map", required=True)
    p_check.add_argument("--psi", required=True)
    p_check.add_argument("--escalate", action="store_true",
                         help="escalate undecided verdicts through the numeric witness search")
    p_check.add_argument("--budget", type=float, default=WeightedOptions.budget_seconds,
                         help="witness search budget in seconds, positive; inf for no deadline")
    p_check.add_argument("--grid", default=None,
                         help="semicolon-separated kernel points, at least one, each in the open "
                              "unit disk, replacing the parabolic kernel inequality's default grid")
    p_check.set_defaults(func=_cmd_check)

    p_spectral = sub.add_parser("spectral", help="closed-form spectral report")
    common(p_spectral)
    p_spectral.add_argument("--order", type=int, default=_DEFAULT_ORDER,
                            help="finite-section size")
    p_spectral.add_argument("--map", required=True)
    p_spectral.add_argument("--psi", default="1")
    p_spectral.add_argument("--numeric", action="store_true",
                            help="add advisory finite-section diagnostics")
    p_spectral.add_argument("--require-all", action="store_true",
                            help="exit 3 unless both radii have closed forms")
    p_spectral.add_argument("--dump-matrix", default=None, metavar="PATH")
    p_spectral.add_argument("--dump-eigs", default=None, metavar="PATH")
    p_spectral.set_defaults(func=_cmd_spectral)

    p_self = sub.add_parser("selftest", help="run the frozen worked-case battery")
    common(p_self)
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        report, code = args.func(args)
    except (ValueError, HypocompError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceFailureError):
            return 4
        return 3 if isinstance(exc, TheoryUnavailableError) else 2
    except OverflowError as exc:
        print(f"error: floating-point overflow on this input, a value leaves the double range: {exc}", file=sys.stderr)
        return 2
    report["wall_time_ms"] = round(1000 * (time.monotonic() - t0), 3)
    emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
