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

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .embedding import check_dim
from .errors import InputError, is_int, is_number, read_json
from .experts import ExpertId, validate_experts
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
    predictions: dict[str, str] = field(default_factory=dict)
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
    costs: CostTable = field(default_factory=lambda: CostTable({"slm": 0.04, "llm": 3000.0}))
    seed: int = 0
    router: str = "retrieval"
    supervision: str = "task+expert"
    prior_mode: str = "predicted"
    training_domains: tuple[str, ...] | None = None
    report_runs: dict[str, str] = field(default_factory=dict)
    simulation: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
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


_KINDS = {
    str: ("a string", lambda value: isinstance(value, str)),
    int: ("an integer", is_int),
    float: ("a number", is_number),
}


def _expect(record: dict, key: str, kind: type, default):
    """``record[key]`` if it is a ``kind``, or ``default`` when it is absent.
    No field takes a boolean, and a ``float`` field also takes an int."""
    value = record.get(key, default)
    if value is default:
        return default
    what, fits = _KINDS[kind]
    if not fits(value):
        raise InputError(f"config field {key!r} must be {what}, got {value!r}")
    return value


def _cost(value: object, name: str) -> float:
    """A cost: a finite number >= 0, an int accepted, no boolean or string."""
    if not is_number(value) or not 0.0 <= value < math.inf:
        raise InputError(f"config field {name!r} must be a finite number >= 0, got {value!r}")
    return float(value)


def parse_config(record: dict) -> RunConfig:
    if not isinstance(record, dict):
        raise InputError("config must be a JSON object")
    known = RunConfig()
    experts = known.experts
    if "experts" in record:
        raw = record["experts"]
        if not isinstance(raw, list) or not raw:
            raise InputError("config experts must be a non-empty list")
        parsed = []
        for item in raw:
            if (
                not isinstance(item, dict)
                or not isinstance(item.get("name"), str)
                or not is_int(item.get("priority_rank"))
            ):
                raise InputError(f"malformed expert entry {item!r}")
            parsed.append(ExpertId(item["name"], item["priority_rank"]))
        validate_experts(parsed)
        experts = tuple(parsed)
    embedder = known.embedder
    if "embedder" in record:
        raw = record["embedder"]
        if not isinstance(raw, dict):
            raise InputError("config embedder must be an object")
        embedder = EmbedderSpec(
            kind=raw.get("kind", "hash"),
            dim=_expect(raw, "dim", int, known.embedder.dim),
            path=_expect(raw, "path", str, None),
        )
    costs = known.costs
    if "costs" in record:
        raw = record["costs"]
        if (
            not isinstance(raw, dict)
            or not isinstance(raw.get("experts", {}), dict)
        ):
            raise InputError("config costs must be an object with an experts map")
        costs = CostTable(
            {k: _cost(v, f"costs.experts.{k}") for k, v in raw.get("experts", {}).items()},
            _cost(raw.get("router", known.costs.router_cost), "costs.router"),
        )
    hyper = record.get("hyperparameters", {})
    if not isinstance(hyper, dict):
        raise InputError("config hyperparameters must be an object")
    predictions = record.get("predictions", {})
    if not isinstance(predictions, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in predictions.items()
    ):
        raise InputError("config predictions must map expert names to paths")
    training_domains = record.get("training_domains")
    if training_domains is not None:
        if not isinstance(training_domains, list) or not all(
            isinstance(x, str) for x in training_domains
        ):
            raise InputError("training_domains must be a list of strings")
        training_domains = tuple(training_domains)
    report_runs = record.get("report_runs", {})
    if not isinstance(report_runs, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in report_runs.items()
    ):
        raise InputError("report_runs must map run names to paths")
    simulation = record.get("simulation", {})
    if not isinstance(simulation, dict):
        raise InputError("config simulation must be an object")
    try:
        return RunConfig(
            corpus=_expect(record, "corpus", str, None),
            holdout=_expect(record, "holdout", str, None),
            predictions=dict(predictions),
            experts=experts,
            embedder=embedder,
            out_dir=_expect(record, "out_dir", str, known.out_dir),
            embeddings_path=_expect(record, "embeddings_path", str, None),
            adapter_path=_expect(record, "adapter_path", str, None),
            pairs_path=_expect(record, "pairs_path", str, None),
            pools_dir=_expect(record, "pools_dir", str, None),
            run_path=_expect(record, "run_path", str, None),
            report_path=_expect(record, "report_path", str, None),
            k=_expect(hyper, "k", int, known.k),
            pairs_per_query=_expect(hyper, "l", int, known.pairs_per_query),
            pool_size=hyper.get("pool_size", known.pool_size),
            margin=_expect(hyper, "margin", float, known.margin),
            learning_rate=_expect(hyper, "learning_rate", float, known.learning_rate),
            epochs=_expect(hyper, "epochs", int, known.epochs),
            costs=costs,
            seed=_expect(record, "seed", int, known.seed),
            router=_expect(record, "router", str, known.router),
            supervision=_expect(record, "supervision", str, known.supervision),
            prior_mode=_expect(record, "prior_mode", str, known.prior_mode),
            training_domains=training_domains,
            report_runs=dict(report_runs),
            simulation=dict(simulation),
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
