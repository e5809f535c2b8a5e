"""Span self-time arithmetic and the per-layer metrics built on it."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest

from harness.layers import PER_LAYER, by_operation, operation_metrics
from harness.spans import ROOT, Span, Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(ROOT, 0.0, 10.0, -1, 0),
        Span("routing.pipeline", 1.0, 4.0, 0, 0),
        Span("routing.decide.retrieval", 2.0, 3.0, 1, 0),
        Span("embedding.embed", 5.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("cli.route", 0.0, 10.0, -1, 0),
        Span("routing.pipeline", 1.0, 5.0, 0, 0),
        Span("routing.run_io", 4.0, 7.0, 0, 0),
        Span("metrics.report", 9.0, 12.0, 0, 0),
    ]
    # Children cover [1, 7] and [9, 10] of the parent's interval.
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_layer_self_times_and_unattributed_add_up_to_the_wall():
    clock = iter(float(t) for t in range(100))
    tracer = Tracer()
    import harness.spans as spans_module

    real = spans_module.perf_counter
    spans_module.perf_counter = lambda: next(clock)
    try:
        inner = tracer.wrap("routing.decide.retrieval", lambda: None)
        middle = tracer.wrap("routing.pipeline", lambda: [inner() for _ in range(2)])
        embed = tracer.wrap("embedding.embed", lambda: None)
        tracer.wrap(ROOT, lambda: (embed(), middle()))()
    finally:
        spans_module.perf_counter = real
    # root 0..9, embed 1..2, pipeline 3..8, decides 4..5 and 6..7.
    metrics = operation_metrics(by_operation(tracer.closed())[0], {})
    assert metrics["trace.wall_s"] == 9.0
    assert metrics["routing.decide_calls"] == 2.0
    assert metrics["routing.decide_us"] == 1e6
    assert metrics["routing.pipeline_self_s"] == 3.0
    assert metrics["routing.self_s"] == 5.0
    assert metrics["embedding.self_s"] == 1.0
    assert metrics["trace.unattributed_s"] == 3.0
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers + metrics["trace.unattributed_s"] == metrics["trace.wall_s"]
    assert set(metrics) == set(PER_LAYER) - {"trace.overhead_ratio"}


def test_open_spans_are_refused():
    tracer = Tracer()
    tracer._stack.append(0)
    with pytest.raises(RuntimeError):
        tracer.closed()
