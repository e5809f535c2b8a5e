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

Each setting is declared once, by :func:`setting`, as a field of :class:`RunConfig`,
:class:`EmbedderSpec` or :class:`SimulationSpec`; a key no setting names is refused.
"""

from __future__ import annotations

import dataclasses
import difflib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .embedding import check_dim
from .errors import InputError, field, is_int, is_number, read_json
from .experts import LLM, SLM, ExpertId, parse_experts, validate_experts

ROUTERS = ("retrieval", "oracle", "cascade", "classifier")
SUPERVISIONS = ("none", "task", "expert", "task+expert")


class Range(NamedTuple):
    """The values a setting may take: a test, and the words a refusal says it in."""

    words: str
    test: Callable[[Any], bool]

    def check(self, name: str, value: Any) -> None:
        if not self.test(value):
            raise InputError(f"{name} {self.words}, got {value!r}")


def at_least(low: int) -> Range:
    return Range(f"must be >= {low}", lambda value: value >= low)


def one_of(choices: tuple[str, ...]) -> Range:
    return Range(f"must be one of {choices}", lambda value: value in choices)


ANY = Range("", lambda value: True)
MARGIN = Range("must be in [0, 1)", lambda value: 0.0 <= value < 1.0)
SHARE = Range("must be in [0, 1]", lambda value: 0.0 <= value <= 1.0)
LEARNING_RATE = Range("must be positive and finite", lambda value: 0.0 < value < math.inf)
STRING = Range("must be a string", lambda value: type(value) is str)
STRINGS = Range("must hold only strings", lambda v: v is None or all(type(x) is str for x in v))
COST = Range("must be a finite number >= 0", lambda v: is_number(v) and 0.0 <= v < math.inf)


class Setting(NamedTuple):
    """Where a config keeps a setting, its key path (``hyperparameters.l``);
    the JSON kind :func:`errors.field` reads it as, None where ``range``
    tests the kind too; its default; and its range. Each entry of an object
    (a map from names the user chooses) is in range by itself."""

    path: str
    kind: type | None
    default: Any
    range: Range
    label: str | None  # how a refusal names the setting, if not by its path

    def check(self, value: Any) -> None:
        """:class:`InputError` unless ``value`` is in range."""
        if self.kind is dict:
            for key, entry in value.items():
                self.range.check(f"config field '{self.path}.{key}'", entry)
        else:
            self.range.check(self.label or f"config field {self.path!r}", value)


def setting(path: str, kind: type | None, default: Any = None, range=ANY, label=None) -> Any:
    """A dataclass field for the setting at key ``path``; see :class:`Setting`."""
    made = {"default_factory": lambda: dict(default)} if type(default) is dict else {"default": default}
    return dataclasses.field(**made, metadata={"setting": Setting(path, kind, default, range, label)})


def settings_of(cls: type) -> dict[str, Setting]:
    """Each field of the dataclass ``cls`` that :func:`setting` made, by name."""
    return {f.name: f.metadata["setting"] for f in dataclasses.fields(cls) if f.metadata}


@dataclass(frozen=True)
class EmbedderSpec:
    kind: str = setting("embedder.kind", str, "hash")
    dim: int = setting("embedder.dim", int, 256)
    path: str | None = setting("embedder.path", str)

    def __post_init__(self) -> None:
        if self.kind not in ("hash", "store"):
            raise InputError(f"embedder kind must be 'hash' or 'store', got {self.kind!r}")
        if self.kind == "store" and not self.path:
            raise InputError("embedder kind 'store' requires a path")
        if self.kind == "hash":
            check_dim(self.dim)


@dataclass(frozen=True)
class RunConfig:
    """Every run setting but the embedder's and the simulation's; see :func:`setting`."""

    corpus: str | None = setting("corpus", str)
    holdout: str | None = setting("holdout", str)
    predictions: dict[str, str] = setting("predictions", dict, {}, STRING)
    experts: tuple[ExpertId, ...] = setting("experts", None, (SLM, LLM))  # parse_experts reads it
    embedder: EmbedderSpec = EmbedderSpec()
    out_dir: str = setting("out_dir", str, "out")
    embeddings_path: str | None = setting("embeddings_path", str)
    adapter_path: str | None = setting("adapter_path", str)
    pairs_path: str | None = setting("pairs_path", str)
    pools_dir: str | None = setting("pools_dir", str)
    run_path: str | None = setting("run_path", str)
    report_path: str | None = setting("report_path", str)
    k: int = setting("hyperparameters.k", int, 10, at_least(1))
    pairs_per_query: int = setting("hyperparameters.l", int, 25, at_least(1), "l (pairs per query)")
    pool_size: int = setting("hyperparameters.pool_size", int, 100, at_least(1))
    margin: float = setting("hyperparameters.margin", float, 0.2, MARGIN)
    learning_rate: float = setting("hyperparameters.learning_rate", float, 0.01, LEARNING_RATE)
    epochs: int = setting("hyperparameters.epochs", int, 30, at_least(0))
    expert_costs: dict[str, float] = setting("costs.experts", dict, {"slm": 0.04, "llm": 3000.0}, COST)
    router_cost: float = setting("costs.router", None, 0.02, COST)
    seed: int = setting("seed", int, 0)
    router: str = setting("router", str, "retrieval", one_of(ROUTERS))
    supervision: str = setting("supervision", str, "task+expert", one_of(SUPERVISIONS))
    training_domains: tuple[str, ...] | None = setting("training_domains", list, None, STRINGS)
    report_runs: dict[str, str] = setting("report_runs", dict, {}, STRING)
    simulation: dict = dataclasses.field(default_factory=dict)  # SimulationSpec's settings

    def __post_init__(self) -> None:
        # Commands read the experts in priority order, not in list order.
        object.__setattr__(self, "experts", tuple(validate_experts(self.experts)))
        for name, declared in settings_of(RunConfig).items():
            declared.check(getattr(self, name))

    # Well-known artifact locations inside the output directory.
    def resolve_embeddings(self) -> Path:
        return Path(self.embeddings_path or Path(self.out_dir) / "embeddings.json")

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


@dataclass(frozen=True)
class SimulationSpec:
    """Knobs for the synthetic benchmark: a config's ``simulation`` settings,
    each of its default's kind. The ten it shares with :class:`RunConfig`
    (``k`` to ``router_cost``) have RunConfig's ranges and defaults of their
    own. Defaults give a corpus where base embeddings route decently but the
    trained adapter still has headroom."""

    dialogues: int = setting("simulation.dialogues", None, 200, at_least(1))
    holdout_dialogues: int = setting("simulation.holdout_dialogues", None, 80, at_least(1))
    min_turns: int = setting("simulation.min_turns", None, 3, at_least(1))
    max_turns: int = setting("simulation.max_turns", None, 6)  # >= min_turns
    mixed_fraction: float = setting("simulation.mixed_fraction", None, 0.1, SHARE)
    embedding_dim: int = setting("simulation.embedding_dim", None, 256)  # check_dim
    noise_words: int = setting("simulation.noise_words", None, 32, at_least(0))
    slm_accuracy_in: float = setting("simulation.slm_accuracy_in", None, 0.95, SHARE)
    slm_accuracy_out: float = setting("simulation.slm_accuracy_out", None, 0.30, SHARE)
    llm_accuracy_in: float = setting("simulation.llm_accuracy_in", None, 0.95, SHARE)
    llm_accuracy_out: float = setting("simulation.llm_accuracy_out", None, 0.30, SHARE)
    slm_confidence_correct: float = setting("simulation.slm_confidence_correct", None, 0.85, SHARE)
    slm_confidence_wrong: float = setting("simulation.slm_confidence_wrong", None, 0.35, SHARE)
    llm_confidence_correct: float = setting("simulation.llm_confidence_correct", None, 0.90, SHARE)
    llm_confidence_wrong: float = setting("simulation.llm_confidence_wrong", None, 0.40, SHARE)
    k: int = setting("simulation.k", None, 10, at_least(1))
    pool_size: int = setting("simulation.pool_size", None, 100, at_least(1))
    pairs_per_query: int = setting("simulation.pairs_per_query", None, 25, at_least(1))
    margin: float = setting("simulation.margin", None, 0.0, MARGIN)
    learning_rate: float = setting("simulation.learning_rate", None, 5.0, LEARNING_RATE)
    epochs: int = setting("simulation.epochs", None, 60, at_least(0))
    slm_cost: float = setting("simulation.slm_cost", None, 0.04, COST)
    llm_cost: float = setting("simulation.llm_cost", None, 3000.0, COST)
    router_cost: float = setting("simulation.router_cost", None, 0.02, COST)
    seed: int = setting("simulation.seed", None, 0)

    def __post_init__(self) -> None:
        """Reject a spec the pipeline cannot run, before anything is written."""
        for f in dataclasses.fields(self):
            value, whole, declared = getattr(self, f.name), isinstance(f.default, int), f.metadata["setting"]
            if not (is_int(value) if whole else is_number(value)):
                kind = "an integer" if whole else "a number"
                raise InputError(f"{declared.path} must be {kind}, got {value!r}")
            declared.range.check(declared.path, value)
        at_least(self.min_turns).check("simulation.max_turns", self.max_turns)
        check_dim(self.embedding_dim)


def _read(record: dict, declared: dict[str, Setting], prefix: str = "") -> dict[str, Any]:
    """The value of each setting in ``declared`` (by key path) that ``record``,
    the object at ``prefix``, sets, by key path. A key that no path runs
    through is refused, naming the nearest key that one does."""
    known = sorted({path[len(prefix) :].split(".")[0] for path in declared if path.startswith(prefix)})
    values = {}
    for key, value in record.items():
        path = prefix + key
        if key not in known:
            near = difflib.get_close_matches(key, known, n=1)
            hint = f" (did you mean {prefix + near[0]!r}?)" if near else ""
            raise InputError(f"unknown config key {path!r}{hint}")
        if path not in declared:  # an object of settings; a null one is empty
            values.update(_read(field(record, key, dict, "config field", None) or {}, declared, f"{path}."))
        elif (kind := declared[path].kind) is None:
            values[path] = value
        else:
            value = field(record, key, kind, "config field", declared[path].default)
            values[path] = tuple(value) if kind is list and value is not None else value
    return values


def parse_config(record: dict) -> RunConfig:
    if not isinstance(record, dict):
        raise InputError("config must be a JSON object")
    classes = (RunConfig, EmbedderSpec, SimulationSpec)
    values = _read(record, {s.path: s for cls in classes for s in settings_of(cls).values()})
    run, embedder, simulation = (
        {name: values[s.path] for name, s in settings_of(cls).items() if s.path in values}
        for cls in classes
    )
    if "experts" in run:
        run["experts"] = parse_experts(run["experts"], "config")
    return RunConfig(**run, embedder=EmbedderSpec(**embedder), simulation=simulation)


def load_config(path: str) -> RunConfig:
    return parse_config(read_json(path, "config"))
