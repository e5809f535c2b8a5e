"""What the benchmark puts between itself and the program.

The program is never edited. Instead, for the length of one operation, the
names that the ``simulate``, ``cli`` and ``routing`` modules (and the
benchmark's own workload modules) look up at call time are replaced:

* untraced, only ``run_pipeline`` is replaced, by :class:`RouteProbe`, which
  hands the real pipeline thin proxy embedder and router objects that take
  one timestamp each per turn;
* traced, every stage function in :data:`CALLS` records a span, and the
  embedder, router and expert objects the program builds are handed back
  wrapped so that their per-turn methods record spans too.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from time import perf_counter
from types import ModuleType
from typing import Iterable
from unittest import mock

from .spans import Tracer


# --- untraced: per-turn routing latency -------------------------------------


@dataclass
class RoutedPass:
    """One retrieval pipeline run: each turn's latency, and the run's length."""

    latencies: list[float] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def turns_per_s(self) -> float:
        return len(self.latencies) / self.seconds


class RouteProbe:
    """Times retrieval-routed turns from the query-embedder call until the
    router's decision returns, notes when the first pipeline starts, and
    keeps the arguments of the last retrieval pipeline so that it can be run
    again."""

    def __init__(self) -> None:
        self.passes: list[RoutedPass] = []
        self.first_pipeline: float | None = None
        self.last_retrieval: tuple | None = None
        self.turn_start = 0.0

    def install(self, stack: ExitStack, modules: Iterable[ModuleType]) -> None:
        for module in modules:
            if hasattr(module, "run_pipeline"):
                stack.enter_context(
                    mock.patch.object(module, "run_pipeline", self.pipeline(module.run_pipeline))
                )

    def pipeline(self, real):
        """``real`` with retrieval runs timed turn by turn."""
        probe = self

        def run_pipeline(corpus, experts, router, embedder=None, **kwargs):
            if probe.first_pipeline is None:
                probe.first_pipeline = perf_counter()
            if embedder is None or router.kind != "retrieval":
                return real(corpus, experts, router, embedder=embedder, **kwargs)
            probe.last_retrieval = (real, corpus, experts, router, embedder, kwargs)
            routed = RoutedPass()
            start = perf_counter()
            run = real(
                corpus,
                experts,
                _TimedRouter(router, probe, routed.latencies),
                embedder=_TimedEmbedder(embedder, probe),
                **kwargs,
            )
            routed.seconds = perf_counter() - start
            probe.passes.append(routed)
            return run

        return run_pipeline


class _TimedEmbedder:
    def __init__(self, inner, probe: RouteProbe) -> None:
        self._inner = inner
        self._probe = probe

    def embed(self, key, text):
        self._probe.turn_start = perf_counter()
        return self._inner.embed(key, text)


class _TimedRouter:
    def __init__(self, inner, probe: RouteProbe, latencies: list[float]) -> None:
        self._inner = inner
        self._probe = probe
        self._latencies = latencies
        self.kind = inner.kind
        self.charges_router_cost = inner.charges_router_cost

    def decide(self, ctx):
        decision = self._inner.decide(ctx)
        self._latencies.append(perf_counter() - self._probe.turn_start)
        return decision


# --- traced: spans around every stage ---------------------------------------


def _after_train(tracer: Tracer, args, kwargs, result) -> None:
    pairs = args[0]
    history = result[1]
    tracer.count("supervision.pairs_pos", len(pairs.positives))
    tracer.count("supervision.pairs_neg", len(pairs.negatives))
    tracer.count("supervision.epochs", max(len(history) - 1, 0))
    if history:
        tracer.set("supervision.loss_first", history[0])
        tracer.set("supervision.loss_last", history[-1])


def _after_build_pools(tracer: Tracer, args, kwargs, result) -> None:
    candidates = sum(len(pool.entries) for pool in result.values())
    tracer.count("experts.pool_candidates", candidates)
    tracer.count("experts.excluded_turns", len(args[0]) - candidates)


def _after_sample_pool(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("experts.pool_entries", len(result.entries))


# Stage function name -> span name. A name is replaced in every instrumented
# module that binds it; the layer is the span name's first part.
CALLS = {
    "generate_corpus": "simulate.generate",
    "load_corpus": "dialogue.load",
    "save_corpus": "dialogue.save",
    "write_predictions": "experts.predictions_io",
    "load_predictions": "experts.predictions_io",
    "assign_expert_label": "experts.label",
    "_expert_labels": "experts.label",
    "build_pools": "experts.build_pools",
    "sample_pool": "experts.build_pools",
    "save_pool": "experts.pool_io",
    "load_pool": "experts.pool_io",
    "project": "embedding.project",
    "save_store": "embedding.store_io",
    "load_store": "embedding.store_io",
    "save_adapter": "embedding.adapter_io",
    "load_adapter": "embedding.adapter_io",
    "mine_task_pairs": "supervision.mine_task",
    "mine_expert_pairs": "supervision.mine_expert",
    "merge_pairs": "supervision.merge",
    "save_pairs": "supervision.pairs_io",
    "train_adapter": "supervision.train",
    "run_pipeline": "routing.pipeline",
    "save_run": "routing.run_io",
    "load_run": "routing.run_io",
    "tune_cascade_threshold": "routing.cascade_tune",
    "train_classifier_router": "routing.classifier_fit",
    "make_report": "metrics.report",
    "make_series": "metrics.report",
    "save_report": "metrics.report_io",
    "save_series": "metrics.report_io",
}

AFTER = {
    "train_adapter": _after_train,
    "build_pools": _after_build_pools,
    "sample_pool": _after_sample_pool,
}

ROUTERS = ("RetrievalRouter", "OracleRouter", "ConstantRouter", "CascadeRouter", "ClassifierRouter")


class TracedEmbedder:
    def __init__(self, inner, tracer: Tracer) -> None:
        self.embed = tracer.wrap("embedding.embed", inner.embed)


class TracedExpert:
    def __init__(self, inner, tracer: Tracer) -> None:
        self.id = inner.id
        self.predict = tracer.wrap("experts.predict", inner.predict)


class TracedRouter:
    def __init__(self, inner, tracer: Tracer, entries: int) -> None:
        self.kind = inner.kind
        self.charges_router_cost = inner.charges_router_cost
        after = None
        if inner.kind == "retrieval":

            def after(tracer: Tracer, args, kwargs, decision) -> None:
                tracer.count("routing.entries_scored", entries)
                top = max(decision.votes.values())
                if sum(1 for votes in decision.votes.values() if votes == top) > 1:
                    tracer.count("routing.ties")

        self.decide = tracer.wrap(f"routing.decide.{inner.kind}", inner.decide, after)


# Classes whose instances come back wrapped, so their per-turn methods trace.
WRAPPED_CLASSES = {"HashEmbedder": TracedEmbedder, "ReplayExpert": TracedExpert}


def _router_factory(cls, tracer: Tracer):
    build = tracer.wrap("routing.router_build", cls)

    def factory(*args, **kwargs):
        router = build(*args, **kwargs)
        entries = 0
        if router.kind == "retrieval":
            pools = args[0] if args else kwargs["pools"]
            entries = sum(len(pool.entries) for pool in pools)
        return TracedRouter(router, tracer, entries)

    return factory


def instrument(tracer: Tracer, stack: ExitStack, modules: Iterable[ModuleType]) -> None:
    """Replace, in each module, every stage name it binds with a traced one,
    until ``stack`` closes."""
    for module in modules:
        for name, span in CALLS.items():
            if hasattr(module, name):
                wrapped = tracer.wrap(span, getattr(module, name), AFTER.get(name))
                stack.enter_context(mock.patch.object(module, name, wrapped))
        for name in ROUTERS:
            if hasattr(module, name):
                factory = _router_factory(getattr(module, name), tracer)
                stack.enter_context(mock.patch.object(module, name, factory))
        for name, proxy in WRAPPED_CLASSES.items():
            if hasattr(module, name):
                build = getattr(module, name)
                wrapped = lambda *a, _b=build, _p=proxy, **k: _p(_b(*a, **k), tracer)  # noqa: E731
                stack.enter_context(mock.patch.object(module, name, wrapped))
        if hasattr(module, "make_experts"):
            make = module.make_experts

            def experts(*args, _make=make, **kwargs):
                return tuple(TracedExpert(e, tracer) for e in _make(*args, **kwargs))

            stack.enter_context(mock.patch.object(module, "make_experts", experts))
