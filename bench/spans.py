"""Spans around aspexplain's public functions, recorded from outside.

The tracer replaces each wrapped function on every aspexplain module that
holds it, including where cli, assumptions and the package import it by
name, so nested calls (such as the build_egraph calls U-shrinking makes)
get parented spans.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

# Wrapped function -> the module (layer) that defines it.
WRAPPED = {
    "parse_aspif": "aspif",
    "reconstruct": "ground",
    "check_answer_set": "oracle",
    "enumerate_answer_sets": "oracle",
    "random_program": "oracle",
    "build_er": "support",
    "constraint_preprocessing": "constraints",
    "merge_supports": "egraph",
    "well_founded": "assumptions",
    "derivation_analysis": "assumptions",
    "min_cycle_break": "assumptions",
    "minimal_assumption_sets": "assumptions",
    "build_egraph": "egraph",
    "validate_egraph": "egraph",
    "to_dot": "egraph",
}
MODULES = ("aspexplain", "aspexplain.aspif", "aspexplain.ground",
           "aspexplain.oracle", "aspexplain.support",
           "aspexplain.constraints", "aspexplain.assumptions",
           "aspexplain.egraph", "aspexplain.cli")

# Span name -> per-layer time metric.  build_egraph is split by its parent.
TIME_METRIC = {
    "parse_aspif": "aspif.parse_s",
    "reconstruct": "ground.reconstruct_s",
    "check_answer_set": "oracle.check_s",
    "enumerate_answer_sets": "oracle.enumerate_s",
    "random_program": "oracle.generate_s",
    "build_er": "support.build_er_s",
    "constraint_preprocessing": "constraints.ec_s",
    "merge_supports": "egraph.merge_s",
    "well_founded": "assumptions.well_founded_s",
    "derivation_analysis": "assumptions.derivation_s",
    "min_cycle_break": "assumptions.min_b_s",
    "minimal_assumption_sets": "assumptions.self_s",
    "build_egraph": "egraph.build_s",
    "validate_egraph": "egraph.validate_s",
    "to_dot": "egraph.render_s",
    "request:cold": "cli.self_s",
}
SHRINK_METRIC = "assumptions.shrink_build_s"


def _table_sets(table) -> int:
    return sum(len(v) for v in table.values())


def _guesses(g) -> int:
    """Candidate guesses of the brute-force enumerator: 2^(named non-facts)."""
    program = g.aspif
    externals = {s.atom for s in program.externals}
    named = {s.condition[0] for s in program.outputs
             if len(s.condition) == 1 and s.condition[0] > 0}
    return 2 ** len(named - externals)


# Counts recorded at the same boundaries, from each call's result.
COUNTS = {
    "parse_aspif": lambda a, r: {"statements": len(r.statements)},
    "reconstruct": lambda a, r: {"rules": len(r.rules),
                                 "warnings": len(r.warnings)},
    "enumerate_answer_sets": lambda a, r: {"answer_sets": len(r),
                                           "guesses": _guesses(a[0])},
    "build_er": lambda a, r: {"er_sets": _table_sets(r)},
    "constraint_preprocessing": lambda a, r: {"ec_sets": _table_sets(r)},
    "minimal_assumption_sets": lambda a, r: {"ta": len(r.ta),
                                             "u": len(r.chosen_u)},
    "build_egraph": lambda a, r: {"graph_nodes": len(r[0].nodes)},
}


class Tracer:
    """Span list: [name, start, end, parent index, request id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str, request: int | None = None):
        if request is not None:
            self._request = request
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._request, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record[5] = count(args, result)
            return result
        return wrapper

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        for name, layer in WRAPPED.items():
            original = getattr(importlib.import_module("aspexplain." + layer),
                               name)
            wrapper = self._wrap(name, original)
            for mod in mods:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def time_metric(spans, i: int) -> str | None:
    name, parent = spans[i][0], spans[i][3]
    if name == "build_egraph" and parent is not None \
            and spans[parent][0] == "minimal_assumption_sets":
        return SHRINK_METRIC
    return TIME_METRIC.get(name)


def layer_times(spans) -> dict[str, float]:
    """Total self time per layer metric."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for i in range(len(spans)):
        metric = time_metric(spans, i)
        if metric is not None:
            totals[metric] = totals.get(metric, 0.0) + own[i]
    return totals


def layer_metrics(spans, literals: int) -> dict[str, float]:
    """Per-request means of layer self times and counts."""
    requests = [s for s in spans if s[3] is None]
    n = max(len(requests), 1)
    metrics = {m: 0.0 for m in (*TIME_METRIC.values(), SHRINK_METRIC)}
    totals = layer_times(spans)
    for metric, total in totals.items():
        metrics[metric] = total / n
    counts: dict[str, int] = {}
    shrink_calls = build_calls = 0
    for i, s in enumerate(spans):
        for key, value in (s[5] or {}).items():
            if key == "graph_nodes" and time_metric(spans, i) == SHRINK_METRIC:
                continue
            counts[key] = counts.get(key, 0) + value
        if s[0] == "build_egraph":
            if time_metric(spans, i) == SHRINK_METRIC:
                shrink_calls += 1
            else:
                build_calls += 1
    names = {"statements": "aspif.statements", "rules": "ground.rules",
             "warnings": "ground.warnings", "answer_sets": "oracle.answer_sets",
             "er_sets": "support.er_sets", "ec_sets": "constraints.ec_sets",
             "ta": "assumptions.ta", "u": "assumptions.u",
             "graph_nodes": "egraph.graph_nodes"}
    for key, metric in names.items():
        metrics[metric] = counts.get(key, 0) / n
    metrics["egraph.build_calls"] = build_calls / n
    guesses = counts.get("guesses", 0)
    metrics["oracle.stable_frac"] = \
        counts.get("answer_sets", 0) / guesses if guesses else 0.0
    metrics["assumptions.shrink_calls_per_literal"] = \
        shrink_calls / literals if literals else 0.0
    wall = sum(s[2] - s[1] for s in requests)
    metrics["trace.coverage_frac"] = sum(totals.values()) / wall if wall else 0.0
    return metrics
