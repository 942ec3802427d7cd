"""Parent-linked spans recorded from outside the package.

The tracer replaces public entry points of the emosam modules with thin
wrappers that open a span (name, parent, start, end) around each call. Spans
stay in memory until the traced run ends; :func:`summarize` then turns them
into per-layer totals. A layer's self time is its spans' durations minus the
time covered by their direct children.

Functions the engine imported by name (``optimize_weights``, the trigger
policies, ``accuracy`` and ``discrimination``) are patched in the
``emosam.engine`` namespace as well as in their home module. Targets missing
from the package are skipped, so a refactor that drops one leaves its counters
at zero instead of breaking the run.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import emosam.engine
import emosam.metrics
import emosam.samknn
import emosam.smpso
import emosam.stream
import emosam.trend

# (owner, attribute, span name). Every wrapped callable that can nest another
# one appears here, so parent links are complete.
TARGETS = (
    (emosam.engine.EmosamEngine, "step", "engine.step"),
    (emosam.samknn.FrozenChunkPredictor, "__init__", "samknn.build"),
    (emosam.samknn.FrozenChunkPredictor, "predict", "samknn.predict"),
    (emosam.samknn.MemoryBank, "fit_chunk", "samknn.fit"),
    (emosam.samknn.MemoryBank, "compress_ltm", "samknn.compress"),
    (emosam.samknn, "clean", "samknn.clean"),
    (emosam.smpso, "optimize_weights", "smpso.optimize"),
    (emosam.engine, "optimize_weights", "smpso.optimize"),
    (emosam.smpso, "crowding_distance", "smpso.crowding"),
    (emosam.smpso.Archive, "insert", "smpso.archive_insert"),
    (emosam.trend, "hp_filter", "trend.hp_filter"),
    (emosam.engine, "should_trigger_hp", "trend.trigger"),
    (emosam.engine, "should_trigger_previous", "trend.trigger"),
    (emosam.engine, "should_trigger_every", "trend.trigger"),
    (emosam.metrics, "accuracy", "metrics.score"),
    (emosam.metrics, "discrimination", "metrics.score"),
    (emosam.engine, "accuracy", "metrics.score"),
    (emosam.engine, "discrimination", "metrics.score"),
    (emosam.stream, "ingest", "stream.ingest"),
)


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, stack[-1] if stack else -1, time.perf_counter()))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = time.perf_counter()

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name in TARGETS:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _under(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def summarize(spans: list[Span]) -> dict:
    """Per-layer totals: durations, self times and call counts.

    ``evals``/``eval_s`` count the predictions made under ``optimize_weights``
    (the swarm's objective evaluations) and ``search_score_s`` the scoring
    done there.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    evals = 0
    eval_s = search_score_s = 0.0
    for i, span in enumerate(spans):
        name = span.name
        total[name] = total.get(name, 0.0) + span.duration
        self_time[name] = self_time.get(name, 0.0) + span.duration - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "samknn.predict" and _under(spans, i, "smpso.optimize"):
            evals += 1
            eval_s += span.duration
        elif name == "metrics.score" and _under(spans, i, "smpso.optimize"):
            search_score_s += span.duration
    # Self time of each layer (the module prefix of the span name); these sum
    # to the root spans' total.
    by_layer: dict[str, float] = {}
    for name, value in self_time.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + value
    return {
        "total": total,
        "self": self_time,
        "calls": calls,
        "self_by_layer": by_layer,
        "evals": evals,
        "eval_s": eval_s,
        "search_score_s": search_score_s,
    }
