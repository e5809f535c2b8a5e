"""In-memory spans recorded around calls into the program.

A span is (name, start, end, parent, run id). Spans are kept in a list while
the benchmark runs and written out when it ends. A span's self time is its
duration minus the part of its interval that its child spans cover; the
layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

ROOT = "bench.op"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for none
    run_id: int


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records nested spans from one thread, plus named counters per run id."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Callable[["Tracer", tuple, dict, object], None] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``after(tracer, args, kwargs, result)`` runs once the span has closed,
        to record counters from the call's arguments and result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1] if stack else -1
            tracer.spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = Span(name, start, end, parent, tracer.run_id)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.run_id][name] += value

    def set(self, name: str, value: float) -> None:
        self.counters[self.run_id][name] = value

    def closed(self) -> list[Span]:
        """All spans, once every span has closed."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans are still open")
        return list(self.spans)

    def write(self, path: str) -> None:
        spans = self.closed()
        own = self_times(spans)
        with open(path, "w", encoding="utf-8") as handle:
            for span, self_s in zip(spans, own):
                handle.write(json.dumps({**span._asdict(), "self_s": self_s}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span's own interval."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out
