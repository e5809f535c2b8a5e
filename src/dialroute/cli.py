"""Command-line pipeline driver.

Subcommands mirror the pipeline stages and compose through files::

    validate -> embed -> mine-and-train -> build-pools -> route -> report

plus ``simulate``, which generates a synthetic benchmark and runs everything
end to end. Every command is deterministic in (config, input files, seed).

The stage functions below hold the pipeline over in-memory objects: the
commands wrap them in load and save, and ``simulate`` runs the same stages.

Exit codes: 0 success, 1 bad input (including usage errors), 2 internal error.
Set ``DIALROUTE_LOG=debug|info|warning|error`` for stderr verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import traceback
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config import ROUTERS, SUPERVISIONS, RunConfig, SimulationSpec, load_config, settings_of
from .dialogue import Corpus, LabeledTurn, TurnBelief, load_corpus
from .embedding import (
    EmbeddingStore,
    HashEmbedder,
    ProjectionAdapter,
    load_adapter,
    load_store,
    project,
    save_adapter,
    save_store,
    serialize_triplet,
)
from .errors import InputError, write_json
from .experts import (
    ExpertId,
    ExpertPool,
    ExpertPrediction,
    ReplayExpert,
    assign_expert_label,
    build_pools,
    judge_correct,
    load_pool,
    load_predictions,
    sample_pool,
    save_pool,
)
from .metrics import CostTable, Report, make_report, make_series, save_report, save_series
from .routing import (
    CascadeRouter,
    ClassifierRouter,
    OracleRouter,
    RetrievalRouter,
    cascade_experts,
    classifier_experts,
    load_run,
    run_pipeline,
    save_run,
    train_classifier_router,
    tune_cascade_threshold,
)
from .seeding import subseed
from .supervision import (
    PairSet,
    merge_pairs,
    mine_expert_pairs,
    mine_task_pairs,
    save_pairs,
    train_adapter,
)

Beliefs = dict[ExpertId, dict[str, TurnBelief]]


# --- stages -------------------------------------------------------------------


def embed_turns(embedder, turns: Sequence[LabeledTurn]) -> EmbeddingStore:
    """Each turn's base vector, from ``embedder.embed`` of its triplet text."""
    return EmbeddingStore.build(
        (t.key, embedder.embed(t.key, serialize_triplet(t.triplet))) for t in turns
    )


def _expert_labels(turns: Sequence[LabeledTurn], beliefs: Beliefs) -> dict[str, str]:
    """Each turn's label: the name of the expert whose belief is closest to gold."""
    return {
        t.key: assign_expert_label({e: b[t.key] for e, b in beliefs.items()}, t.gold_tlb).name
        for t in turns
    }


def fit_adapter(
    turns: Sequence[LabeledTurn],
    supervision: str,
    beliefs: Beliefs | None,
    store: EmbeddingStore,
    settings,
) -> tuple[PairSet, ProjectionAdapter, list[float]]:
    """The pairs a supervision kind mines from ``turns`` (the expert-aware
    kinds label them from ``beliefs``), the adapter trained on them with the
    settings of ``settings``, a :class:`RunConfig` or :class:`SimulationSpec`, and
    its loss history; ``none`` gives no pairs and the identity adapter. A fit
    that maps a turn out of float64 range, or whose loss rose, is refused
    naming the learning rate's key path."""
    if supervision == "none":
        return PairSet(), ProjectionAdapter.identity(store.dim), []
    l = settings.pairs_per_query
    pairs = PairSet()
    if supervision in ("task", "task+expert"):
        pairs = mine_task_pairs(turns, l)
    if supervision in ("expert", "task+expert"):
        pairs = merge_pairs(pairs, mine_expert_pairs(turns, _expert_labels(turns, beliefs), store, l))
    adapter, history = train_adapter(
        pairs, store, margin=settings.margin, learning_rate=settings.learning_rate, epochs=settings.epochs
    )
    advice = f"lower {settings_of(type(settings))['learning_rate'].path}"
    try:  # pools project every hold-out turn: a diverged fit fails here instead
        for turn in turns:
            project(adapter, store[turn.key], turn.key)
    except InputError as exc:
        raise InputError(f"{exc}; {advice}") from None
    if history[-1] > history[0]:
        raise InputError(f"training loss rose from {history[0]:.6f} to {history[-1]:.6f}; {advice}")
    return pairs, adapter, history


def save_training(adapter: ProjectionAdapter, history: list[float], path: Path) -> None:
    """Write the adapter to ``path`` and its loss history beside it."""
    save_adapter(adapter, str(path))
    write_json(path.parent / "loss_history.json", {"loss_history": history})


def sampled_pools(
    turns: Sequence[LabeledTurn],
    beliefs: Beliefs,
    store: EmbeddingStore,
    adapter: ProjectionAdapter,
    size: int,
    seed: int,
) -> dict[ExpertId, tuple[ExpertPool, ExpertPool]]:
    """Each expert's pool of projected hold-out turns and its seeded sample of
    ``size`` entries, in priority order."""
    projected = {t.key: project(adapter, store[t.key], t.key) for t in turns}
    pools = build_pools(turns, beliefs, projected)
    return {
        e: (pool, sample_pool(pool, size, subseed(seed, f"pool:{e.name}")))
        for e, pool in pools.items()
    }


# --- shared loading helpers --------------------------------------------------


def _load_corpus(cfg: RunConfig, which: str) -> Corpus:
    path = getattr(cfg, which)
    if not path:
        raise InputError(f"config does not set a {which} corpus path")
    corpus = load_corpus(path)
    if corpus.turn_count() == 0:
        raise InputError(f"{which} corpus {path!r} has no dialogues")
    return corpus


def _load_all_predictions(cfg: RunConfig) -> dict[str, dict[str, ExpertPrediction]]:
    """Load every configured prediction file, grouped by expert name."""
    for expert in cfg.experts:
        if expert.name not in cfg.predictions:
            raise InputError(f"no predictions path configured for expert {expert.name!r}")
    return load_predictions(*dict.fromkeys(cfg.predictions.values()))


def _check_coverage(
    predictions: dict[str, dict[str, ExpertPrediction]],
    experts: tuple[ExpertId, ...],
    keys: list[str],
    where: str,
) -> None:
    for expert in experts:
        by_key = predictions.get(expert.name, {})
        missing = [key for key in keys if key not in by_key]
        if missing:
            raise InputError(
                f"expert {expert.name!r} is missing predictions for "
                f"{len(missing)} {where} turns, first {missing[0]!r}"
            )


def _beliefs(
    cfg: RunConfig,
    predictions: dict[str, dict[str, ExpertPrediction]],
    turns: list[LabeledTurn],
) -> Beliefs:
    """Each configured expert's predicted belief for every hold-out turn."""
    _check_coverage(predictions, cfg.experts, [t.key for t in turns], "hold-out")
    return {e: {t.key: predictions[e.name][t.key].tlb for t in turns} for e in cfg.experts}


def _make_query_embedder(cfg: RunConfig) -> tuple[object, tuple[str, int]]:
    """The embedder of test-time queries, with the name and dim :func:`_fit`
    gives it."""
    if cfg.embedder.kind == "hash":
        embedder = HashEmbedder(cfg.embedder.dim, subseed(cfg.seed, "embedder"))
        return embedder, ("the hash embedder (config embedder dim)", cfg.embedder.dim)
    store = load_store(str(cfg.embedder.path))
    return store, (f"embedding store {cfg.embedder.path}", store.dim)


def _load_adapter(cfg: RunConfig) -> tuple[ProjectionAdapter, tuple[str, int]]:
    """The configured adapter, with the name and dim :func:`_fit` gives it."""
    path = cfg.resolve_adapter()
    if _missing(path):
        raise InputError(
            f"adapter file {str(path)!r} does not exist; run mine-and-train first "
            "(supervision 'none' writes the identity adapter)"
        )
    adapter = load_adapter(str(path))
    return adapter, (f"adapter {path}", adapter.dim)


def _missing(path: Path) -> bool:
    """Whether the OS says nothing is at ``path``. A path it refuses (a NUL
    in it, say) is not missing: its loader opens it and names the refusal."""
    try:
        os.stat(path)
    except FileNotFoundError:
        return True
    except (OSError, ValueError):
        pass
    return False


def _fit(*artifacts: tuple[str, int]) -> None:
    """Raise, naming both, for the first of the (name, dim) artifacts a
    command combines whose dim differs from the first one's."""
    (first, dim), *rest = artifacts
    for name, other in rest:
        if other != dim:
            raise InputError(f"{name} has dim {other}, but {first} has dim {dim}")


# --- commands -----------------------------------------------------------------


def _cmd_validate(cfg: RunConfig, args: argparse.Namespace) -> None:
    if cfg.corpus is None and cfg.holdout is None:
        raise InputError("config sets neither a corpus nor a hold-out corpus path")
    keys: list[str] = []
    for which in ("corpus", "holdout"):
        if getattr(cfg, which) is None:
            continue
        corpus = _load_corpus(cfg, which)
        keys.extend(key for key in corpus.gold_tlbs())
        label = "corpus" if which == "corpus" else "hold-out"
        line = f"{label}: {len(corpus.dialogues)} dialogues, {corpus.turn_count()} turns"
        if corpus.dropped_values:
            line += f" ({corpus.dropped_values} null values dropped)"
        print(line)
    if cfg.predictions:
        predictions = _load_all_predictions(cfg)
        for expert in cfg.experts:
            print(f"predictions[{expert.name}]: {len(predictions.get(expert.name, {}))} turns")
        _check_coverage(predictions, cfg.experts, keys, "known")
        print("coverage: ok")
    else:
        print("predictions: none configured")


def _cmd_embed(cfg: RunConfig, args: argparse.Namespace) -> None:
    turns = _load_corpus(cfg, "holdout").labeled()
    embedder, _ = _make_query_embedder(cfg)
    if cfg.embedder.kind == "store":
        missing = [t.key for t in turns if t.key not in embedder]
        if missing:
            raise InputError(
                f"imported store {cfg.embedder.path!r} is missing "
                f"{len(missing)} hold-out turns, first {missing[0]!r}"
            )
    store = embed_turns(embedder, turns)
    out = cfg.resolve_embeddings()
    save_store(store, str(out))
    print(f"embedded {len(store)} hold-out turns (dim {store.dim}) -> {out}")


def _cmd_mine_and_train(cfg: RunConfig, args: argparse.Namespace) -> None:
    turns = _load_corpus(cfg, "holdout").labeled()
    store = load_store(str(cfg.resolve_embeddings()))
    if len(store) == 0:
        raise InputError(f"embedding store {cfg.resolve_embeddings()} is empty")
    adapter_path = cfg.resolve_adapter()

    beliefs = None
    if cfg.supervision in ("expert", "task+expert"):
        beliefs = _beliefs(cfg, _load_all_predictions(cfg), turns)
    pairs, adapter, history = fit_adapter(turns, cfg.supervision, beliefs, store, cfg)
    if cfg.supervision != "none":
        pairs_path = cfg.resolve_pairs()
        save_pairs(pairs, str(pairs_path))
        print(
            f"pairs: {len(pairs.positives)} positive, "
            f"{len(pairs.negatives)} negative -> {pairs_path}"
        )

    save_training(adapter, history, adapter_path)
    if history:
        print(
            f"adapter: dim {adapter.dim}, loss {history[0]:.6f} -> {history[-1]:.6f} "
            f"({len(history) - 1} epochs) -> {adapter_path}"
        )
    else:
        print(f"adapter: identity (dim {adapter.dim}) -> {adapter_path}")


def _cmd_build_pools(cfg: RunConfig, args: argparse.Namespace) -> None:
    turns = _load_corpus(cfg, "holdout").labeled()
    beliefs = _beliefs(cfg, _load_all_predictions(cfg), turns)
    store_path = cfg.resolve_embeddings()
    store = load_store(str(store_path))
    adapter, fitted = _load_adapter(cfg)
    _fit(fitted, (f"embedding store {store_path}", store.dim))
    pools = sampled_pools(turns, beliefs, store, adapter, cfg.pool_size, cfg.seed)
    for expert in cfg.experts:
        pool, sampled = pools[expert]
        path = cfg.pool_path(expert.name)
        save_pool(sampled, str(path))
        print(f"pool[{expert.name}]: {len(sampled.entries)} of {len(pool.entries)} candidate turns -> {path}")
    excluded = len(turns) - sum(len(pool.entries) for pool, _ in pools.values())
    print(f"excluded: {excluded} turns no expert predicted exactly right")


def _cmd_route(cfg: RunConfig, args: argparse.Namespace) -> None:
    # The two-expert routers refuse their experts before anything is loaded.
    if cfg.router == "cascade":
        primary, fallback = cascade_experts(cfg.experts)
    elif cfg.router == "classifier":
        low, _ = classifier_experts(cfg.experts)
    corpus = _load_corpus(cfg, "corpus")
    predictions = _load_all_predictions(cfg)
    routed = corpus.gold_tlbs()
    _check_coverage(predictions, cfg.experts, list(routed), "corpus")
    experts = [ReplayExpert(e, predictions.get(e.name, {})) for e in cfg.experts]
    embedder = None
    adapter = None
    snapshot: dict[str, object] = {"seed": cfg.seed}

    if cfg.router == "retrieval":
        by_name = {e.name: e for e in cfg.experts}
        pools = []
        dims = []
        for expert in cfg.experts:
            path = cfg.pool_path(expert.name)
            if _missing(path):
                raise InputError(f"pool file {str(path)!r} does not exist; run build-pools first")
            pool = load_pool(str(path), by_name)
            for entry in pool.entries:
                if entry.key in routed:
                    raise InputError(f"pool {str(path)!r}: entry {entry.key!r} is a turn of the routed corpus")
            pools.append(pool)
            if pool.entries:
                dims.append((f"pool {path}", len(pool.entries[0].vector)))
        adapter, fitted = _load_adapter(cfg)
        embedder, query = _make_query_embedder(cfg)
        _fit(fitted, query, *dims)
        router = RetrievalRouter(pools, cfg.k)
        snapshot.update({"k": cfg.k, "supervision": cfg.supervision})
    elif cfg.router == "oracle":
        router = OracleRouter(cfg.experts)
    elif cfg.router == "cascade":
        holdout = _load_corpus(cfg, "holdout")
        holdout_turns = holdout.labeled()
        _check_coverage(predictions, cfg.experts, [t.key for t in holdout_turns], "hold-out")
        observations = []
        for turn in holdout_turns:
            first, second = (predictions[e.name][turn.key] for e in (primary, fallback))
            if first.confidence is None:
                raise InputError(
                    f"cascade tuning requires a confidence from {primary.name!r} "
                    f"for hold-out turn {turn.key!r}"
                )
            right = (judge_correct(p.tlb, turn.gold_tlb) for p in (first, second))
            observations.append((first.confidence, *right))
        threshold = tune_cascade_threshold(observations)
        router = CascadeRouter(cfg.experts, threshold)
        snapshot["threshold"] = threshold
        print(f"cascade threshold: {threshold:.6f}")
    else:  # classifier
        holdout_turns = _load_corpus(cfg, "holdout").labeled()
        beliefs = _beliefs(cfg, predictions, holdout_turns)
        store_path = cfg.resolve_embeddings()
        store = load_store(str(store_path))
        embedder, query = _make_query_embedder(cfg)
        _fit(query, (f"embedding store {store_path}", store.dim))
        labels = _expert_labels(holdout_turns, beliefs)
        keys = sorted(labels)
        X = np.vstack([store[key] for key in keys])
        y = np.array([0.0 if labels[key] == low.name else 1.0 for key in keys])
        model = train_classifier_router(X, y)
        router = ClassifierRouter(model, cfg.experts)

    run = run_pipeline(corpus, experts, router, embedder=embedder, adapter=adapter, config=snapshot)
    out = cfg.resolve_run()
    save_run(run, str(out))
    counts: dict[str, int] = {e.name: 0 for e in cfg.experts}
    for record in run.records:
        counts[record.decision.chosen.name] += 1
    share = ", ".join(f"{name} {counts[name] / len(run):.3f}" for name in counts)
    print(f"routed {len(run)} turns with {cfg.router} router -> {out}")
    print(f"assignment: {share}")


def _cmd_report(cfg: RunConfig, args: argparse.Namespace) -> None:
    corpus = _load_corpus(cfg, "corpus")
    costs = CostTable(cfg.expert_costs, cfg.router_cost)
    reports: dict[str, Report] = {}

    def report_of(path: str) -> Report:
        """The report of the run file at ``path``, scored once per file."""
        try:
            key = os.path.realpath(path)
        except ValueError:  # a NUL in the path, which load_run refuses naming it
            key = path
        if key not in reports:
            run = load_run(path)
            reports[key] = make_report(run, corpus, costs, cfg.training_domains)
        return reports[key]

    run_path = cfg.resolve_run()
    wrote_anything = False
    if not _missing(run_path):
        report = report_of(str(run_path))
        out = cfg.resolve_report()
        save_report(report, str(out))
        print(
            f"report: tlb_jga {report.tlb_jga:.4f}, dst_jga {report.dst_jga:.4f}, "
            f"cost {report.total_teraflops:.2f} -> {out}"
        )
        wrote_anything = True
    if cfg.report_runs:
        runs = cfg.report_runs
        series = make_series([(name, report_of(runs[name])) for name in sorted(runs)])
        series_path = cfg.resolve_report().parent / "series.json"
        save_series(series, str(series_path))
        print(f"series: {len(series)} runs -> {series_path}")
        wrote_anything = True
    if not wrote_anything:
        raise InputError(
            f"nothing to report: no run file at {str(run_path)!r} and no report_runs configured"
        )


def _cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> None:
    from .simulate import run_simulation  # simulate imports this module

    seed = cfg.simulation.get("seed", cfg.seed) if args.seed is None else args.seed
    result = run_simulation(SimulationSpec(**{**cfg.simulation, "seed": seed}), cfg.out_dir)
    print(
        f"simulated {len(result.test_corpus.dialogues)} test + "
        f"{len(result.holdout_corpus.dialogues)} hold-out dialogues -> {result.out_dir}"
    )
    for name in sorted(result.reports):
        report = result.reports[name]
        print(
            f"run[{name}]: tlb_jga {report.tlb_jga:.4f}, dst_jga {report.dst_jga:.4f}, "
            f"cost {report.total_teraflops:.2f}"
        )


# --- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors (exit 1), not argparse's default 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InputError(message)


_COMMANDS = {
    "validate": _cmd_validate,
    "embed": _cmd_embed,
    "mine-and-train": _cmd_mine_and_train,
    "build-pools": _cmd_build_pools,
    "route": _cmd_route,
    "report": _cmd_report,
    "simulate": _cmd_simulate,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="dialroute", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=handler.__doc__)
        sub.add_argument("--config", help="path to the JSON run configuration")
        sub.add_argument("--seed", type=int, help="override the configured seed")
        sub.add_argument("--out", dest="out_dir", help="override the configured output directory")
        sub.add_argument("--router", choices=ROUTERS, help="override the router kind")
        sub.add_argument(
            "--supervision", choices=SUPERVISIONS, help="override the supervision kind"
        )
        sub.set_defaults(handler=handler)
    return parser


_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def _log_level(environ: Mapping[str, str]) -> int:
    """The level named by ``DIALROUTE_LOG``; warning when it is unset or
    names no level."""
    wanted = environ.get("DIALROUTE_LOG", "warning")
    return _LOG_LEVELS.get(wanted.strip().lower(), logging.WARNING)


def _configure_logging() -> None:
    logging.basicConfig(
        stream=sys.stderr,
        level=_log_level(os.environ),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config) if args.config else RunConfig()
        overrides = {k: getattr(args, k) for k in ("seed", "out_dir", "router", "supervision")}
        cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        # Overflow is caught where it matters (a non-finite projection is
        # bad input), so numpy's warnings about it are noise, or under
        # ``-W error`` an exception that would exit 2.
        with np.errstate(over="ignore", invalid="ignore"):
            args.handler(cfg, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - the contract maps these to exit code 2
        traceback.print_exc()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
