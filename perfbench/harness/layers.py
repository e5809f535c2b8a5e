"""Per-layer metrics computed from one operation's spans and counters.

Layers are the program's modules. Each span name is ``<layer>.<stage>``;
``<layer>.self_s`` sums the self time of the layer's spans, and the self time
of the root span (the benchmark's own code between calls) is
``trace.unattributed_s``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, Sequence

from .spans import ROOT, Span, layer_of, self_times

LAYERS = (
    "supervision", "routing", "embedding", "experts", "dialogue", "metrics", "simulate", "cli"
)

CLI_STEPS = (
    "validate",
    "embed",
    "mine_and_train",
    "build_pools",
    "route_retrieval",
    "route_cascade",
    "route_classifier",
    "report",
)

# name -> (unit, better). The order is the order of the printed table.
PER_LAYER: dict[str, tuple[str, str]] = {
    "supervision.train_s": ("s", "lower"),
    "supervision.epoch_ms": ("ms", "lower"),
    "supervision.mine_task_s": ("s", "lower"),
    "supervision.mine_expert_s": ("s", "lower"),
    "supervision.merge_s": ("s", "lower"),
    "supervision.pairs_pos": ("count", "higher"),
    "supervision.pairs_neg": ("count", "higher"),
    "supervision.loss_first": ("loss", "lower"),
    "supervision.loss_last": ("loss", "lower"),
    "supervision.pairs_io_s": ("s", "lower"),
    "supervision.self_s": ("s", "lower"),
    "routing.decide_us": ("us", "lower"),
    "routing.decide_calls": ("count", "lower"),
    "routing.entries_scored": ("count", "lower"),
    "routing.pipeline_s": ("s", "lower"),
    "routing.pipeline_self_s": ("s", "lower"),
    "routing.router_build_s": ("s", "lower"),
    "routing.tie_share": ("share", "lower"),
    "routing.cascade_tune_s": ("s", "lower"),
    "routing.classifier_fit_s": ("s", "lower"),
    "routing.run_io_s": ("s", "lower"),
    "routing.self_s": ("s", "lower"),
    "embedding.embed_us": ("us", "lower"),
    "embedding.embed_calls": ("count", "lower"),
    "embedding.project_s": ("s", "lower"),
    "embedding.store_io_s": ("s", "lower"),
    "embedding.adapter_io_s": ("s", "lower"),
    "embedding.self_s": ("s", "lower"),
    "experts.predict_s": ("s", "lower"),
    "experts.label_s": ("s", "lower"),
    "experts.build_pools_s": ("s", "lower"),
    "experts.pool_candidates": ("count", "higher"),
    "experts.pool_entries": ("count", "higher"),
    "experts.excluded_turns": ("count", "lower"),
    "experts.predictions_io_s": ("s", "lower"),
    "experts.pool_io_s": ("s", "lower"),
    "experts.self_s": ("s", "lower"),
    "dialogue.load_s": ("s", "lower"),
    "dialogue.save_s": ("s", "lower"),
    "dialogue.turns": ("count", "higher"),
    "dialogue.self_s": ("s", "lower"),
    "metrics.report_s": ("s", "lower"),
    "metrics.report_io_s": ("s", "lower"),
    "metrics.self_s": ("s", "lower"),
    "simulate.generate_s": ("s", "lower"),
    "simulate.self_s": ("s", "lower"),
    **{f"cli.{step}_s": ("s", "lower") for step in CLI_STEPS},
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.coverage": ("share", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

# Metric -> the span names whose durations it sums.
_DURATIONS = {
    "supervision.train_s": ("supervision.train",),
    "supervision.mine_task_s": ("supervision.mine_task",),
    "supervision.mine_expert_s": ("supervision.mine_expert",),
    "supervision.merge_s": ("supervision.merge",),
    "supervision.pairs_io_s": ("supervision.pairs_io",),
    "routing.pipeline_s": ("routing.pipeline",),
    "routing.router_build_s": ("routing.router_build",),
    "routing.cascade_tune_s": ("routing.cascade_tune",),
    "routing.classifier_fit_s": ("routing.classifier_fit",),
    "routing.run_io_s": ("routing.run_io",),
    "embedding.project_s": ("embedding.project",),
    "embedding.store_io_s": ("embedding.store_io",),
    "embedding.adapter_io_s": ("embedding.adapter_io",),
    "experts.predict_s": ("experts.predict",),
    "experts.label_s": ("experts.label",),
    "experts.build_pools_s": ("experts.build_pools",),
    "experts.predictions_io_s": ("experts.predictions_io",),
    "experts.pool_io_s": ("experts.pool_io",),
    "dialogue.load_s": ("dialogue.load",),
    "dialogue.save_s": ("dialogue.save",),
    "metrics.report_s": ("metrics.report",),
    "metrics.report_io_s": ("metrics.report_io",),
    "simulate.generate_s": ("simulate.generate",),
    **{f"cli.{step}_s": (f"cli.{step}",) for step in CLI_STEPS},
}

# Metrics copied from the operation's counters.
_COUNTERS = (
    "supervision.pairs_pos",
    "supervision.pairs_neg",
    "supervision.loss_first",
    "supervision.loss_last",
    "routing.entries_scored",
    "experts.pool_candidates",
    "experts.pool_entries",
    "experts.excluded_turns",
    "dialogue.turns",
)


def _per(total: float, count: float) -> float:
    """``total / count``, or 0 for a stage that never ran."""
    return total / count if count else 0.0


def by_operation(spans: Sequence[Span]) -> dict[int, list[tuple[Span, float]]]:
    """Spans with their self times, grouped by run id."""
    grouped: dict[int, list[tuple[Span, float]]] = defaultdict(list)
    for span, self_s in zip(spans, self_times(spans)):
        grouped[span.run_id].append((span, self_s))
    return dict(grouped)


def operation_metrics(
    spans: Sequence[tuple[Span, float]], counters: Mapping[str, float]
) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio`` for one operation,
    given its (span, self time) pairs, of which exactly one is the root."""
    roots = [span for span, _ in spans if span.name == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT} span, got {len(roots)}")
    duration: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    for span, self_s in spans:
        duration[span.name] += span.end - span.start
        calls[span.name] += 1
        self_by_name[span.name] += self_s
    out = {name: sum(duration[s] for s in names) for name, names in _DURATIONS.items()}
    for name in _COUNTERS:
        out[name] = float(counters.get(name, 0.0))
    epochs = counters.get("supervision.epochs", 0.0)
    out["supervision.epoch_ms"] = 1e3 * _per(duration["supervision.train"], epochs)
    decides = calls["routing.decide.retrieval"]
    out["routing.decide_calls"] = float(decides)
    out["routing.decide_us"] = 1e6 * _per(duration["routing.decide.retrieval"], decides)
    out["routing.tie_share"] = _per(counters.get("routing.ties", 0.0), decides)
    out["routing.pipeline_self_s"] = self_by_name["routing.pipeline"]
    embeds = calls["embedding.embed"]
    out["embedding.embed_calls"] = float(embeds)
    out["embedding.embed_us"] = 1e6 * _per(duration["embedding.embed"], embeds)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (v for name, v in self_by_name.items() if layer_of(name) == layer), 0.0
        )
    wall = roots[0].end - roots[0].start
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = self_by_name[ROOT]
    out["trace.coverage"] = 1.0 - self_by_name[ROOT] / wall
    out["trace.spans"] = float(len(spans))
    return out
