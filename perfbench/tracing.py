"""Span tracing of one CLI invocation from outside the library.

Nothing here edits ciukit's source. While an op is traced, the public
functions that the CLI and the library modules call are replaced, at the
names those callers look up, by wrappers that record a span around the
original call. Predictors are wrapped per instance at their lowest public
boundary (``FunctionPredictor.fn`` for the builtins, ``evaluate`` for
every predictor), so their type and the library's code path stay the same
as in an untraced run. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

ROOT = "cli.main"
EVALUATE = "core.evaluate"
MODEL_FN = "core.model_fn"
RENDER = "render"

# Span name -> the (module, attribute) names through which callers reach it.
SPAN_TARGETS = {
    "sampling.build_sample_set": [("ciukit.engine", "build_sample_set")],
    "engine.explain_instance": [("ciukit.cli", "explain_instance")],
    "engine.estimate_minmax": [
        ("ciukit.engine", "estimate_minmax"),
        ("ciukit.global_importance", "estimate_minmax"),
    ],
    "baselines.shapley_mc": [
        ("ciukit.cli", "shapley_mc"),
        ("ciukit.global_importance", "shapley_mc"),
    ],
    "baselines.lime_surrogate": [("ciukit.cli", "lime_surrogate")],
    "baselines.permutation_importance": [
        ("ciukit.global_importance", "permutation_importance"),
    ],
    "global_importance.global_ci": [("ciukit.global_importance", "global_ci")],
    "global_importance.uniform_instances": [
        ("ciukit.global_importance", "uniform_instances"),
        ("ciukit.cli", "uniform_instances"),
    ],
    "global_importance.run_global": [("ciukit.cli", "run_global")],
    "core.resolve_utility": [("ciukit.cli", "resolve_utility")],
    "tabular.load_csv": [("ciukit.cli", "load_csv")],
    "tabular.load_model": [("ciukit.cli", "load_model")],
    "tabular.train_ensemble": [("ciukit.cli", "train_ensemble")],
    "tabular.save_model": [("ciukit.cli", "save_model")],
    RENDER: [
        ("ciukit.cli", name)
        for name in (
            "render_ciu_barplot",
            "render_cp_plot",
            "render_influence_barplot",
            "render_spread_plot",
            "text_ciu_bars",
            "text_influence_bars",
        )
    ],
}

# CLI names whose result is a predictor to wrap.
PREDICTOR_SOURCES = [
    ("ciukit.cli", "builtin_model"),
    ("ciukit.cli", "load_model"),
    ("ciukit.cli", "train_ensemble"),
]

# Spans whose argument 0 is a path to a model file; its size is recorded.
MODEL_FILE_SPANS = {"tabular.load_model", "tabular.save_model"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the op's span list, -1 for the root
    op: int
    rows: int = 0
    nbytes: int = 0


@dataclass
class OpTrace:
    op: int
    spans: list[Span] = field(default_factory=list)
    row_hashes: set = field(default_factory=set)  # hash of each evaluated row


def self_time(spans: list[Span], index: int) -> float:
    """Duration of a span minus the union of its direct children's intervals."""
    parent = spans[index]
    pieces = sorted(
        (max(s.start, parent.start), min(s.end, parent.end))
        for s in spans
        if s.parent == index
    )
    covered = 0.0
    run_start = run_end = None
    for a, b in pieces:
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        covered += run_end - run_start
    return (parent.end - parent.start) - covered


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    i = spans[index].parent
    while i >= 0:
        if spans[i].name == name:
            return True
        i = spans[i].parent
    return False


class Tracer:
    """Records the spans of traced ops; one OpTrace per op."""

    def __init__(self) -> None:
        self.ops: list[OpTrace] = []
        self.missing: list[str] = []  # patch targets absent from this ciukit
        self._current: OpTrace | None = None
        self._stack: list[int] = []
        self._paused = 0.0  # tracer bookkeeping time, kept out of every span

    def _now(self) -> float:
        return perf_counter() - self._paused

    def _open(self, name: str) -> int:
        op = self._current
        op.spans.append(Span(name, self._now(), 0.0, self._stack[-1] if self._stack else -1, op.op))
        index = len(op.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self._current.spans[index]
        span.end = self._now()
        self._stack.pop()
        return span

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                span = self._close(index)
                if name in MODEL_FILE_SPANS and args:
                    try:
                        span.nbytes = os.path.getsize(args[0])
                    except OSError:
                        pass

        return traced

    def _wrap_evaluate(self, fn):
        def evaluate(instances):
            index = self._open(EVALUATE)
            try:
                return fn(instances)
            finally:
                span = self._close(index)
                start = perf_counter()
                span.rows = len(instances)
                self._current.row_hashes.update(hash(inst.values) for inst in instances)
                self._paused += perf_counter() - start

        return evaluate

    def _wrap_predictor_source(self, fn):
        def source(*args, **kwargs):
            result = fn(*args, **kwargs)
            predictor = result[0] if isinstance(result, tuple) else result
            predictor.evaluate = self._wrap_evaluate(predictor.evaluate)
            if callable(getattr(predictor, "fn", None)):
                predictor.fn = self.wrap(MODEL_FN, predictor.fn)
            return result

        return source

    @contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for name, targets in SPAN_TARGETS.items():
                for module_name, attr in targets:
                    self._patch(saved, module_name, attr, lambda f, n=name: self.wrap(n, f))
            for module_name, attr in PREDICTOR_SOURCES:
                self._patch(saved, module_name, attr, self._wrap_predictor_source)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _patch(self, saved, module_name, attr, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            label = f"{module_name}.{attr}"
            if label not in self.missing:
                self.missing.append(label)
            return
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def run_op(self, op: int, call):
        """Run ``call()`` as one traced op under a root span."""
        trace = OpTrace(op)
        self.ops.append(trace)
        with self.patched():
            self._current = trace
            index = self._open(ROOT)
            try:
                return call()
            finally:
                self._close(index)
                self._current = None
                self._stack.clear()


def op_layers(trace: OpTrace) -> dict[str, float]:
    """Per-layer times (ms), counts and bytes of one traced op."""
    spans = trace.spans
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i, s in enumerate(spans):
        ms = (s.end - s.start) * 1e3
        if s.name == ROOT:
            add("cli.self_ms", self_time(spans, i) * 1e3)
        elif s.name == "global_importance.run_global":
            add("global_importance.run_global.self_ms", self_time(spans, i) * 1e3)
        else:
            add(f"{s.name}.ms", ms)
        add(f"{s.name}.calls", 1)
        if s.name == EVALUATE:
            add("core.evaluate.rows", s.rows)
        if s.name in MODEL_FILE_SPANS:
            add("tabular.model_bytes", s.nbytes)
    out["core.evaluate.distinct_rows"] = float(len(trace.row_hashes))
    return out


def rows_under(trace: OpTrace, ancestor: str) -> int:
    """Predictor rows evaluated anywhere below spans named ``ancestor``."""
    spans = trace.spans
    return sum(
        s.rows
        for i, s in enumerate(spans)
        if s.name == EVALUATE and has_ancestor(spans, i, ancestor)
    )


def check_self_time() -> list[str]:
    """Self-time arithmetic on a hand-built span tree."""
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: the union counts once
        Span("c", 8.0, 12.0, 0, 0),  # runs past the root: clipped to 10
        Span("a.child", 1.5, 2.5, 1, 0),  # grandchild: not the root's child
    ]
    expected = {0: 10.0 - (4.0 + 2.0), 1: 2.0 - 1.0, 2: 3.0, 4: 1.0}
    problems = []
    for index, want in expected.items():
        got = self_time(spans, index)
        if abs(got - want) > 1e-12:
            problems.append(f"self_time({spans[index].name}) = {got}, expected {want}")
    return problems
