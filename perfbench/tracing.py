"""Spans around calls into hypocomp's layers, recorded from outside the library.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds every name
that refers to it: in the defining module, in each module that imported it by
name (``theory`` and ``matrixrep`` hold their own ``kernel_gram_norms`` and
``series_tail_bound``), and in the package namespace.  A span is
``[name, start_ns, end_ns, parent, tag]``; the parent is the innermost open
span, so ``operator_norm`` inside ``gelfand_estimate`` is its child.  Spans stay
in memory until ``write_csv``.  Self time is a span's duration minus the
durations of its children (one thread, so children never overlap).
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from functools import wraps

from workloads import SEARCH_TRIALS

# (module, attribute, span name).  funcalg.admissibility is the check every
# AnalyticFunction construction runs on each power factor (two 8192-point
# winding counts).  theory.norms_with_escalation is traced only to count the
# Gram requests of stage 2 (trials); classify_unweighted and norm_bounds are
# traced so that cli.main's self time is the CLI's own work.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_map", "cli.parse_map"),
    ("cli", "parse_weight", "cli.parse_weight"),
    ("moebius", "classify", "moebius.classify"),
    ("funcalg", "_factor_admissible", "funcalg.admissibility"),
    ("funcalg", "series_tail_bound", "funcalg.series_tail_bound"),
    ("funcalg", "expand_analytic", "funcalg.expand_analytic"),
    ("funcalg", "boundary_sup", "funcalg.boundary_sup"),
    ("funcalg", "is_value_constant", "funcalg.is_value_constant"),
    ("space", "kernel_norm", "space.kernel_norm"),
    ("space", "beta_array", "space.beta_array"),
    ("matrixrep", "build_weighted_composition", "matrixrep.build_weighted_composition"),
    ("matrixrep", "operator_norm", "matrixrep.operator_norm"),
    ("matrixrep", "truncation_spectral_radius", "matrixrep.truncation_spectral_radius"),
    ("matrixrep", "gelfand_estimate", "matrixrep.gelfand_estimate"),
    ("matrixrep", "kernel_gram_norms", "matrixrep.kernel_gram_norms"),
    ("theory", "classify_unweighted", "theory.classify_unweighted"),
    ("theory", "classify_weighted", "theory.classify_weighted"),
    ("theory", "norm_bounds", "theory.norm_bounds"),
    ("theory", "spectral_report", "theory.spectral_report"),
    ("theory", "normal_form", "theory.normal_form"),
    ("theory", "norm_lower_bound_grid", "theory.norm_lower_bound_grid"),
    ("theory", "witness_search", "theory.witness_search"),
    ("theory", "_norms_with_escalation", "theory.norms_with_escalation"),
)


def _tag_order(args):
    return f"N{args['n']}"


def _tag_points(args):
    return len(list(args["points"] if "points" in args else args["pts"]))


# Span name -> function of the bound arguments giving the span's tag.
_ARG_TAGS = {
    "matrixrep.build_weighted_composition": _tag_order,
    "matrixrep.kernel_gram_norms": _tag_points,
    "theory.norms_with_escalation": _tag_points,
}

_NAME, _START, _END, _PARENT, _TAG = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        tag_of = _ARG_TAGS.get(name)
        signature = inspect.signature(fn)
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            tag = None
            if tag_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tag = tag_of(bound.arguments)
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, tag]
            stack.append(index)
            spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[_TAG] = (tag, type(exc).__name__)
                raise
            finally:
                span[_END] = clock()
                stack.pop()
            if name == "theory.witness_search":
                span[_TAG] = _stop_reason(result, spans[index + 1:])
            return result

        return traced

    def install(self) -> None:
        import hypocomp

        modules = [hypocomp] + [m for n, m in sys.modules.items() if n.startswith("hypocomp.")]
        for module_name, attr, name in TARGETS:
            original = getattr(importlib.import_module(f"hypocomp.{module_name}"), attr)
            traced = self._wrap(name, original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, traced)
                    self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,tag\n")
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{_tag_text(tag)}\n")


def _tag_text(tag) -> str:
    if isinstance(tag, tuple):
        return "/".join(str(t) for t in tag if t is not None)
    return "" if tag is None else str(tag)


def _points(tag) -> int:
    """Kernel points of a Gram span's tag: the count, or (count, exception)."""
    return tag[0] if isinstance(tag, tuple) else tag


def _trials(spans) -> int:
    """Stage-2 trials among ``spans``: Gram requests of more than one kernel."""
    return sum(1 for s in spans if s[_NAME] == "theory.norms_with_escalation"
               and _points(s[_TAG]) > 1)


def _stop_reason(result, descendants) -> str:
    """Why a witness search ended, judged by the work it did.

    The library ends a search without a witness before its last trial only
    when the deadline passes, so any such early end counts as ``deadline``.
    """
    if result is not None:
        return "witness"
    return "exhausted" if _trials(descendants) == SEARCH_TRIALS else "deadline"


# ---------------------------------------------------------------------------
# Per-layer metrics of one pass

SELF_MS = (
    "cli.main", "cli.parse_map", "cli.parse_weight", "moebius.classify",
    "funcalg.admissibility", "funcalg.series_tail_bound", "funcalg.expand_analytic",
    "funcalg.boundary_sup", "funcalg.is_value_constant",
    "matrixrep.operator_norm", "matrixrep.truncation_spectral_radius",
    "matrixrep.gelfand_estimate", "matrixrep.kernel_gram_norms",
    "theory.classify_unweighted", "theory.classify_weighted", "theory.norm_bounds",
    "theory.spectral_report", "theory.normal_form", "theory.norm_lower_bound_grid",
    "theory.witness_search",
)
CALLS = (
    "cli.main", "moebius.classify", "funcalg.admissibility", "funcalg.series_tail_bound",
    "funcalg.expand_analytic", "space.kernel_norm", "space.beta_array",
    "matrixrep.kernel_gram_norms",
)
SECTION_ORDERS = (256, 512, 1024)
STOPS = ("witness", "exhausted", "deadline")


def pass_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer numbers of the spans recorded in one pass, spans[lo:hi]."""
    child_ns = [0] * (hi - lo)
    for span in spans[lo:hi]:
        if span[_PARENT] >= lo:
            child_ns[span[_PARENT] - lo] += span[_END] - span[_START]
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    section_ns = {n: 0 for n in SECTION_ORDERS}
    multi = lost = 0
    stops = dict.fromkeys(STOPS, 0)
    for i, (name, start, end, _parent, tag) in enumerate(spans[lo:hi]):
        own = end - start - child_ns[i]
        self_ns[name] = self_ns.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        if name == "matrixrep.build_weighted_composition" and isinstance(tag, str):
            order = int(tag[1:])
            if order in section_ns:
                section_ns[order] += own
        elif name == "matrixrep.kernel_gram_norms":
            multi += _points(tag) > 1
            lost += isinstance(tag, tuple) and tag[1] == "PrecisionLossError"
        elif name == "theory.witness_search" and tag in stops:
            stops[tag] += 1
    metrics: dict[str, float] = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6
    for name in CALLS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for order in SECTION_ORDERS:
        metrics[f"matrixrep.build_weighted_composition.self_ms.N{order}"] = section_ns[order] / 1e6
    gram = calls.get("matrixrep.kernel_gram_norms", 0)
    metrics["matrixrep.kernel_gram_norms.calls_multi"] = multi
    metrics["matrixrep.kernel_gram_norms.wasted_ratio"] = lost / gram if gram else 0.0
    metrics["theory.witness_search.trials"] = _trials(spans[lo:hi])
    metrics["theory.witness_search.escalations"] = lost
    for stop in STOPS:
        metrics[f"theory.witness_search.stop_{stop}"] = stops[stop]
    return metrics


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
