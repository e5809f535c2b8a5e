"""Run configuration: one JSON file drives every CLI command.

Minimal example::

    {
      "corpus": "corpus_test.jsonl",
      "holdout": "corpus_holdout.jsonl",
      "predictions": {"slm": "predictions_slm.jsonl", "llm": "predictions_llm.jsonl"},
      "embedder": {"kind": "hash", "dim": 256},
      "router": "retrieval",
      "supervision": "task+expert",
      "seed": 7
    }

Everything else has defaults. Intermediate artifacts (embedding store,
adapter, pools, run, report) default to well-known names inside the output
directory so the commands compose without extra wiring.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .embedding import check_dim
from .errors import InputError, field, is_int, is_number, read_json
from .experts import ExpertId, parse_experts, validate_experts
from .metrics import CostTable
from .supervision import TrainConfig

ROUTERS = ("retrieval", "oracle", "cascade", "classifier")
SUPERVISIONS = ("none", "task", "expert", "task+expert")
PRIOR_MODES = ("predicted", "gold")


@dataclass(frozen=True)
class EmbedderSpec:
    kind: str = "hash"
    dim: int = 256
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hash", "store"):
            raise InputError(f"embedder kind must be 'hash' or 'store', got {self.kind!r}")
        if self.kind == "store" and not self.path:
            raise InputError("embedder kind 'store' requires a path")
        if self.kind == "hash":
            check_dim(self.dim)


@dataclass(frozen=True)
class RunConfig:
    corpus: str | None = None
    holdout: str | None = None
    predictions: dict[str, str] = dataclasses.field(default_factory=dict)
    experts: tuple[ExpertId, ...] = (ExpertId("slm", 0), ExpertId("llm", 1))
    embedder: EmbedderSpec = EmbedderSpec()
    out_dir: str = "out"
    embeddings_path: str | None = None
    adapter_path: str | None = None
    pairs_path: str | None = None
    pools_dir: str | None = None
    run_path: str | None = None
    report_path: str | None = None
    k: int = 10
    pairs_per_query: int = 25
    pool_size: int | dict[str, int] = 100
    margin: float = 0.2
    learning_rate: float = 0.01
    epochs: int = 30
    costs: CostTable = dataclasses.field(
        default_factory=lambda: CostTable({"slm": 0.04, "llm": 3000.0})
    )
    seed: int = 0
    router: str = "retrieval"
    supervision: str = "task+expert"
    prior_mode: str = "predicted"
    training_domains: tuple[str, ...] | None = None
    report_runs: dict[str, str] = dataclasses.field(default_factory=dict)
    simulation: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        # Commands read the experts in priority order, not in list order.
        object.__setattr__(self, "experts", tuple(validate_experts(self.experts)))
        if self.router not in ROUTERS:
            raise InputError(f"router must be one of {ROUTERS}, got {self.router!r}")
        if self.supervision not in SUPERVISIONS:
            raise InputError(
                f"supervision must be one of {SUPERVISIONS}, got {self.supervision!r}"
            )
        if self.prior_mode not in PRIOR_MODES:
            raise InputError(f"prior_mode must be one of {PRIOR_MODES}, got {self.prior_mode!r}")
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if self.pairs_per_query < 1:
            raise InputError(f"l (pairs per query) must be >= 1, got {self.pairs_per_query}")
        sizes = self.pool_size.values() if isinstance(self.pool_size, dict) else [self.pool_size]
        if not all(is_int(n) and n >= 1 for n in sizes):
            raise InputError(
                "pool_size must be an integer >= 1 or a map of expert name to such integers, "
                f"got {self.pool_size!r}"
            )
        TrainConfig(self.margin, self.learning_rate, self.epochs)  # their range checks

    # Well-known artifact locations inside the output directory.
    def resolve_embeddings(self) -> Path:
        return Path(self.embeddings_path or Path(self.out_dir) / "embeddings.jsonl")

    def resolve_adapter(self) -> Path:
        return Path(self.adapter_path or Path(self.out_dir) / "adapter.json")

    def resolve_pairs(self) -> Path:
        return Path(self.pairs_path or Path(self.out_dir) / "pairs.json")

    def resolve_pools_dir(self) -> Path:
        return Path(self.pools_dir or self.out_dir)

    def pool_path(self, expert_name: str) -> Path:
        return self.resolve_pools_dir() / f"pool_{expert_name}.json"

    def resolve_run(self) -> Path:
        return Path(self.run_path or Path(self.out_dir) / "run.jsonl")

    def resolve_report(self) -> Path:
        return Path(self.report_path or Path(self.out_dir) / "report.json")

    def pool_size_for(self, expert_name: str) -> int:
        if isinstance(self.pool_size, dict):
            try:
                return self.pool_size[expert_name]
            except KeyError:
                raise InputError(f"pool_size map lacks expert {expert_name!r}") from None
        return self.pool_size


def _cost(value: object, name: str) -> float:
    """A cost: a finite number >= 0, an int accepted, no boolean or string."""
    if not is_number(value) or not 0.0 <= value < math.inf:
        raise InputError(f"config field {name!r} must be a finite number >= 0, got {value!r}")
    return float(value)


def parse_config(record: dict) -> RunConfig:
    if not isinstance(record, dict):
        raise InputError("config must be a JSON object")
    known = RunConfig()
    where = "config field"
    experts = known.experts
    if "experts" in record:
        experts = tuple(parse_experts(record["experts"], "config"))
    embedder = known.embedder
    raw = field(record, "embedder", dict, where, None)
    if raw is not None:
        embedder = EmbedderSpec(
            kind=field(raw, "kind", str, where, known.embedder.kind),
            dim=field(raw, "dim", int, where, known.embedder.dim),
            path=field(raw, "path", str, where, None),
        )
    costs = known.costs
    raw = field(record, "costs", dict, where, None)
    if raw is not None:
        expert_costs = field(raw, "experts", dict, where, {})
        costs = CostTable(
            {k: _cost(v, f"costs.experts.{k}") for k, v in expert_costs.items()},
            _cost(raw.get("router", known.costs.router_cost), "costs.router"),
        )
    hyper = field(record, "hyperparameters", dict, where, {})
    predictions = field(record, "predictions", dict, where, {})
    report_runs = field(record, "report_runs", dict, where, {})
    training_domains = field(record, "training_domains", list, where, None)
    for name, strings in (
        ("predictions", [*predictions, *predictions.values()]),
        ("report_runs", [*report_runs, *report_runs.values()]),
        ("training_domains", training_domains or []),
    ):
        if not all(type(x) is str for x in strings):
            raise InputError(f"{where} {name!r} must hold only strings")
    try:
        return RunConfig(
            corpus=field(record, "corpus", str, where, None),
            holdout=field(record, "holdout", str, where, None),
            predictions=dict(predictions),
            experts=experts,
            embedder=embedder,
            out_dir=field(record, "out_dir", str, where, known.out_dir),
            embeddings_path=field(record, "embeddings_path", str, where, None),
            adapter_path=field(record, "adapter_path", str, where, None),
            pairs_path=field(record, "pairs_path", str, where, None),
            pools_dir=field(record, "pools_dir", str, where, None),
            run_path=field(record, "run_path", str, where, None),
            report_path=field(record, "report_path", str, where, None),
            k=field(hyper, "k", int, where, known.k),
            pairs_per_query=field(hyper, "l", int, where, known.pairs_per_query),
            pool_size=hyper.get("pool_size", known.pool_size),
            margin=field(hyper, "margin", float, where, known.margin),
            learning_rate=field(hyper, "learning_rate", float, where, known.learning_rate),
            epochs=field(hyper, "epochs", int, where, known.epochs),
            costs=costs,
            seed=field(record, "seed", int, where, known.seed),
            router=field(record, "router", str, where, known.router),
            supervision=field(record, "supervision", str, where, known.supervision),
            prior_mode=field(record, "prior_mode", str, where, known.prior_mode),
            training_domains=None if training_domains is None else tuple(training_domains),
            report_runs=dict(report_runs),
            simulation=dict(field(record, "simulation", dict, where, {})),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed config: {exc}") from None


def load_config(path: str) -> RunConfig:
    return parse_config(read_json(path, "config"))


def apply_overrides(
    config: RunConfig,
    seed: int | None = None,
    out: str | None = None,
    router: str | None = None,
    supervision: str | None = None,
) -> RunConfig:
    updates: dict = {}
    if seed is not None:
        updates["seed"] = seed
    if out is not None:
        updates["out_dir"] = out
    if router is not None:
        updates["router"] = router
    if supervision is not None:
        updates["supervision"] = supervision
    return replace(config, **updates) if updates else config
