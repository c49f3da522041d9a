"""Layer tracing from outside the program.

Each traced function is replaced, for the duration of one traced pass, at
the name its calling module looks up (``cogscope.analysis.tokenize`` is the
binding ``analyze_source`` calls).  A wrapper records a span (layer, parent,
start, end) and a call count for its binding; some also record a size, such
as the tokens produced.  Spans stay in memory until the run ends.

A layer's self time is its spans' durations minus the part covered by their
direct child spans.  Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ALL = frozenset({"weyuker", "corpus", "analyze-large"})
WEYUKER = frozenset({"weyuker"})
FILES = frozenset({"corpus", "analyze-large"})


def _len_result(args, result):
    return len(result)


def _len_first(args, result):
    return len(args[0])


def _occurrences(position):
    return lambda args, result: len(args[position].occurrences)


# (binding, layer, workloads that must reach it, size of one call or None)
BINDINGS = (
    ("cogscope.cli.analyze_source", "analysis.analyze_source", FILES, None),
    ("cogscope.weyuker.analyze_source", "analysis.analyze_source", WEYUKER, None),
    ("cogscope.analysis.tokenize", "lexer.tokenize", ALL, _len_result),
    ("cogscope.parser.tokenize", "lexer.tokenize", WEYUKER, _len_result),
    ("cogscope.analysis.parse", "parser.parse", ALL, _len_first),
    ("cogscope.parser.parse", "parser.parse", WEYUKER, _len_first),
    ("cogscope.transforms.parse_source", "parser.parse_source", WEYUKER, None),
    ("cogscope.weyuker.parse_source", "parser.parse_source", WEYUKER, None),
    ("cogscope.analysis.resolve", "resolve.resolve", ALL, None),
    ("cogscope.analysis.classify_io", "resolve.classify_io", ALL, None),
    ("cogscope.analysis.classify_lines", "lexer.classify_lines", ALL, None),
    ("cogscope.analysis.annotate", "info.annotate", ALL, _occurrences(0)),
    ("cogscope.analysis.granulate", "granules.granulate", ALL, None),
    ("cogscope.analysis.escim", "metrics.score", ALL, None),
    ("cogscope.analysis.scim_icn", "metrics.score", ALL, None),
    ("cogscope.analysis.wics_cicm", "metrics.score", ALL, None),
    ("cogscope.analysis.cfs", "metrics.score", ALL, None),
    ("cogscope.analysis.mccm", "metrics.score", ALL, None),
    ("cogscope.analysis.cpcm", "metrics.score", ALL, None),
    ("cogscope.metrics.occurrence_routing", "granules.occurrence_routing", ALL, _occurrences(1)),
    ("cogscope.analysis.scope_information", "info.region_query", ALL, None),
    ("cogscope.analysis.info_content", "info.region_query", ALL, None),
    ("cogscope.report.region_extrema", "info.region_query", frozenset({"analyze-large"}), None),
    ("cogscope.analysis.granule_report", "metrics.granule_report", frozenset({"analyze-large"}), None),
    ("cogscope.cli.report_document", "report.report_document", frozenset({"analyze-large"}), None),
    ("cogscope.cli.render_json", "report.render_json", frozenset({"analyze-large"}), None),
    ("cogscope.cli.render_csv", "report.render_csv", frozenset({"corpus"}), None),
    ("cogscope.weyuker.generate", "generator.generate", WEYUKER, None),
    ("cogscope.weyuker.concat", "transforms.concat", WEYUKER, None),
    ("cogscope.weyuker.rename", "transforms.rename", WEYUKER, None),
    ("cogscope.transforms.render", "render.render", WEYUKER, None),
    ("cogscope.weyuker.render", "render.render", WEYUKER, None),
)

# Spans the benchmark opens itself, around its own calls into the program.
CLI = "cli"
PHASES = ("generate", "pool", "concat", "rename", "check")


class Tracer:
    """Spans and counts of the traced passes of one run."""

    def __init__(self):
        self.passes: list[dict] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._calls: Counter = Counter()
        self._sizes: Counter = Counter()
        self._counts: Counter = Counter()
        self._saved: list[tuple] = []

    # ---------- recording ----------

    def _open(self, layer: str) -> list:
        span = [layer, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0]
        self._stack.append(len(self._spans))
        self._spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str):
        """A span of the benchmark's own; a no-op outside a traced pass."""
        if not self._saved:
            yield
            return
        span = self._open(layer)
        try:
            yield
        finally:
            self._close(span)

    def count(self, name: str, amount: int) -> None:
        if self._saved:
            self._counts[name] += amount

    def _wrap(self, binding: str, layer: str, fn, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._calls[binding] += 1
            if size is not None:
                self._sizes[binding] += size(args, result)
            return result

        return traced

    # ---------- passes ----------

    def begin(self) -> None:
        """Install every wrapper and start a traced pass."""
        self._spans, self._stack = [], []
        self._calls, self._sizes, self._counts = Counter(), Counter(), Counter()
        for binding, layer, _, size in BINDINGS:
            module_name, attr = binding.rsplit(".", 1)
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(binding, layer, original, size))

    def end(self, wall_s: float) -> None:
        """Restore every original binding and keep the finished pass."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []
        self.passes.append({
            "wall_s": wall_s,
            "spans": self._spans,
            "calls": dict(self._calls),
            "sizes": dict(self._sizes),
            "counts": dict(self._counts),
        })

    def write(self, path: Path) -> None:
        """Write every span, one JSON line each, with its pass number."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for number, traced in enumerate(self.passes):
                for layer, parent, start, end in traced["spans"]:
                    out.write(json.dumps({"pass": number, "name": layer, "parent": parent,
                                          "start_ns": start, "end_ns": end}) + "\n")

    # ---------- guards ----------

    def coverage_errors(self, workload: str) -> list[str]:
        """Bindings that recorded no call on a workload that must reach
        them, and counts that differ between traced passes."""
        errors = []
        for number, traced in enumerate(self.passes):
            missing = [b for b, _, reach, _ in BINDINGS if workload in reach and not traced["calls"].get(b)]
            if missing:
                errors.append(f"traced pass {number}: zero calls on {workload} through {', '.join(missing)}")
        first = self.passes[0]
        for number, traced in enumerate(self.passes[1:], start=1):
            for key in ("calls", "sizes", "counts"):
                if traced[key] != first[key]:
                    errors.append(f"traced pass {number}: {key} differ from pass 0")
        return errors


def _self_ns(passes: list[dict]) -> Counter:
    """Self time in ns per layer, summed over passes."""
    self_ns: Counter = Counter()
    for traced in passes:
        spans = traced["spans"]
        for layer, parent, start, end in spans:
            self_ns[layer] += end - start
            if parent >= 0:
                self_ns[spans[parent][0]] -= end - start
    return self_ns


def layer_metrics(tracer: Tracer, untraced_walls: list[float]) -> tuple[dict, list[str]]:
    """Every per-layer metric by name, and notes on how to read them.

    Times are summed over all traced passes and divided by the work done in
    them; a metric whose work is zero on this workload reads 0 and gets a
    note.  Call counts are those of one pass, which the guard holds equal.
    """
    passes = tracer.passes
    self_ns = _self_ns(passes)
    layers: Counter = Counter()
    sizes: Counter = Counter()
    for traced in passes:
        for binding, layer, _, _ in BINDINGS:
            layers[layer] += traced["calls"].get(binding, 0)
            sizes[layer] += traced["sizes"].get(binding, 0)
        for name, amount in traced["counts"].items():
            layers[name] += amount
    # Layers below analyze_source are charged per token of the programs it analyzed.
    analyzed_tokens = sum(t["sizes"].get("cogscope.analysis.tokenize", 0) for t in passes)
    programs = layers["analysis.analyze_source"]
    notes: list[str] = []

    def per(name: str, numerator: float, denominator: float, what: str) -> tuple[str, float]:
        if denominator == 0:
            notes.append(f"{name}: not reached, no {what} on this workload")
            return name, 0.0
        return name, numerator / denominator

    def self_per(name: str, denominator: float, what: str) -> tuple[str, float]:
        layer, _, quantity = name.rpartition(".")
        scale = 1e3 if quantity.startswith("self_us") else 1e6
        return per(name, self_ns[layer] / scale, denominator, what)

    values = dict([
        self_per("lexer.tokenize.self_us_per_token", sizes["lexer.tokenize"], "tokens"),
        self_per("parser.parse.self_us_per_token", sizes["parser.parse"], "tokens"),
        self_per("resolve.resolve.self_us_per_token", analyzed_tokens, "tokens"),
        self_per("resolve.classify_io.self_us_per_token", analyzed_tokens, "tokens"),
        self_per("lexer.classify_lines.self_us_per_token", analyzed_tokens, "tokens"),
        per("lexer.tokenize.calls_per_program", layers["lexer.tokenize"], programs, "programs"),
        per("parser.parse.calls_per_program", layers["parser.parse"], programs, "programs"),
        self_per("transforms.concat.self_ms_per_call", layers["transforms.concat"], "concat calls"),
        self_per("transforms.rename.self_ms_per_call", layers["transforms.rename"], "rename calls"),
        per("render.render.calls_per_trial", layers["render.render"], layers["trials"], "trials"),
        self_per("render.render.self_us_per_call", layers["render.render"], "render calls"),
        self_per("generator.generate.self_ms_per_program", layers["generator.generate"], "generated programs"),
        self_per("granules.granulate.self_us_per_token", analyzed_tokens, "tokens"),
        self_per("info.annotate.self_us_per_occurrence", sizes["info.annotate"], "occurrences"),
        self_per("metrics.score.self_us_per_program", programs, "programs"),
        per("granules.occurrence_routing.calls_per_function", layers["granules.occurrence_routing"],
            layers["granules.granulate"], "functions"),
        self_per("granules.occurrence_routing.self_us_per_occurrence", sizes["granules.occurrence_routing"],
                 "occurrences"),
        per("info.region_query.calls", layers["info.region_query"], len(passes), "passes"),
        self_per("info.region_query.self_ms_per_file", layers["files"], "files"),
        self_per("metrics.granule_report.self_ms_per_file", layers["files"], "files"),
        self_per("report.report_document.self_ms_per_file", layers["files"], "files"),
        self_per("report.render_json.self_ms_per_file", layers["files"], "files"),
        self_per("report.render_csv.self_ms", layers["report.render_csv"], "CSV calls"),
        self_per(f"{CLI}.self_ms_per_file", layers["files"], "files"),
        per("analysis.analyze_source.calls", programs, len(passes), "passes"),
        self_per("analysis.analyze_source.self_us_per_program", programs, "programs"),
    ])
    traced_wall = statistics.median(t["wall_s"] for t in passes)
    values["trace.overhead_ratio"] = traced_wall / statistics.median(untraced_walls)
    phase_total = 0.0
    for phase in PHASES:
        values[f"weyuker.{phase}_s"] = statistics.median(_phase_s(t, phase) for t in passes)
        phase_total += values[f"weyuker.{phase}_s"]
    if phase_total:
        notes.append(f"weyuker phases: {phase_total:.6f} s of a {traced_wall:.6f} s traced pass (medians)")
    else:
        notes.append("weyuker.*_s: not reached, no harness phases on this workload")
    if layers["metrics.granule_report"]:
        requests_ns = sum(end - start for t in passes for layer, _, start, end in t["spans"] if layer == CLI)
        notes.append(f"metrics.granule_report: {self_ns['metrics.granule_report'] / requests_ns:.0%} of request time")
    notes.append(f"per-layer figures over {len(passes)} traced passes")
    return values, notes


def _phase_s(traced: dict, phase: str) -> float:
    name = f"weyuker.{phase}"
    return sum(end - start for layer, _, start, end in traced["spans"] if layer == name) / 1e9


def phase_errors(tracer: Tracer) -> list[str]:
    """The harness phase times of a pass may not add up to more than its wall time."""
    errors = []
    for number, traced in enumerate(tracer.passes):
        phases = sum(_phase_s(traced, phase) for phase in PHASES)
        if phases > traced["wall_s"]:
            errors.append(f"traced pass {number}: phases take {phases:.6f} s, wall {traced['wall_s']:.6f} s")
    return errors
