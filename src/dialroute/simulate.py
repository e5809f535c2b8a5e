"""Self-contained synthetic benchmark.

Generates a seeded corpus whose turns fall into two latent clusters (hotel
talk and restaurant talk) buried under shared filler vocabulary, plus two
synthetic experts with complementary competence: the cheap one is accurate on
hotel turns, the expensive one on restaurant turns. On top of that it runs
the whole pipeline: predict every turn once with each expert, hash-embed the
hold-out, mine pairs, train the adapter, build pools, route the test corpus
several ways, and report accuracy against cost, through the same stage
functions as the CLI. Routing replays the predictions written to the
``predictions_*.jsonl`` files instead of asking the synthetic experts again,
as the CLI's ``route`` replays them from those files; the runs are the same
either way. Everything is a pure function of the spec's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .cli import embed_turns, mine_pairs, sampled_pools, save_training
from .dialogue import (
    Corpus,
    Dialogue,
    SlotName,
    Turn,
    save_corpus,
)
from .embedding import HashEmbedder, ProjectionAdapter, check_dim, save_store
from .errors import is_int, is_number
from .experts import (
    LLM,
    SLM,
    ReplayExpert,
    SyntheticExpert,
    SyntheticProfile,
    save_pool,
    write_predictions,
)
from .metrics import CostTable, Report, make_report, make_series, save_report, save_series
from .routing import (
    ConstantRouter,
    OracleRouter,
    RetrievalRouter,
    RoutedRun,
    run_pipeline,
    save_run,
)
from .seeding import subseed
from .supervision import TrainConfig, save_pairs, train_adapter

HOTEL_DOMAIN = "hotel"
RESTAURANT_DOMAIN = "restaurant"

HOTEL_WORDS = (
    "hotel guesthouse lodge suite pillow checkin nights parking breakfast spa "
    "roomkey elevator lobby concierge hostel blanket kingbed balcony towels minibar"
).split()

RESTAURANT_WORDS = (
    "restaurant bistro menu dinner chef cuisine reservation table starter dessert "
    "vegan spicy noodles pasta grill sushi brunch waiter appetizer teriyaki"
).split()

FILLER_WORDS = (
    "please could would like need want find looking thanks okay great sure maybe "
    "actually sounds good help something nice town place tonight tomorrow soon "
    "really also just another option prefer any fine yes friend visit trip weekend plan"
).split()

HOTEL_SLOTS: dict[str, tuple[str, ...]] = {
    "area": ("north", "south", "east", "west", "centre"),
    "price": ("budget", "moderate", "upscale"),
    "parking": ("yes", "no"),
    "stars": ("two", "three", "four", "five"),
    "nights": ("one", "two", "three", "four"),
}

RESTAURANT_SLOTS: dict[str, tuple[str, ...]] = {
    "food": ("italian", "chinese", "indian", "thai", "british"),
    "area": ("north", "south", "east", "west", "centre"),
    "time": ("noon", "evening", "late", "early"),
    "seats": ("couple", "group", "family", "solo"),
    "price": ("budget", "moderate", "upscale"),
}

_CLUSTERS = {
    HOTEL_DOMAIN: (HOTEL_WORDS, HOTEL_SLOTS),
    RESTAURANT_DOMAIN: (RESTAURANT_WORDS, RESTAURANT_SLOTS),
}


@dataclass(frozen=True)
class SimulationSpec:
    """Knobs for the synthetic benchmark. Defaults give a corpus where base
    embeddings route decently but the trained adapter still has headroom."""

    dialogues: int = 200
    holdout_dialogues: int = 80
    min_turns: int = 3
    max_turns: int = 6
    mixed_fraction: float = 0.1
    embedding_dim: int = 256
    noise_words: int = 32
    slm_accuracy_in: float = 0.95
    slm_accuracy_out: float = 0.30
    llm_accuracy_in: float = 0.95
    llm_accuracy_out: float = 0.30
    slm_confidence_correct: float = 0.85
    slm_confidence_wrong: float = 0.35
    llm_confidence_correct: float = 0.90
    llm_confidence_wrong: float = 0.40
    k: int = 10
    pool_size: int = 100
    pairs_per_query: int = 25
    margin: float = 0.0
    learning_rate: float = 5.0
    epochs: int = 60
    slm_cost: float = 0.04
    llm_cost: float = 3000.0
    router_cost: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject a spec the pipeline cannot run, before anything is written."""
        for f in fields(self):
            value, whole = getattr(self, f.name), isinstance(f.default, int)
            if not (is_int(value) if whole else is_number(value)):
                kind = "an integer" if whole else "a number"
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        lows = {
            "dialogues": 1, "holdout_dialogues": 1, "min_turns": 1, "max_turns": self.min_turns,
            "noise_words": 0, "k": 1, "pool_size": 1, "pairs_per_query": 1,
            "slm_cost": 0, "llm_cost": 0, "router_cost": 0,
        }
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("slm_cost", "llm_cost", "router_cost"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number >= 0, got {getattr(self, name)}")
        shares = ["mixed_fraction"] + [
            f"{expert}_{knob}"
            for expert in ("slm", "llm")
            for knob in ("accuracy_in", "accuracy_out", "confidence_correct", "confidence_wrong")
        ]
        for name in shares:
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        check_dim(self.embedding_dim)
        TrainConfig(self.margin, self.learning_rate, self.epochs)  # their range checks


def _make_turns(
    rng: np.random.Generator, dialogue_id: str, clusters: Sequence[str], spec: SimulationSpec
) -> list[Turn]:
    n_turns = int(rng.integers(spec.min_turns, spec.max_turns + 1))
    turns: list[Turn] = []
    for t in range(n_turns):
        domain = clusters[int(rng.integers(len(clusters)))]
        words, slots = _CLUSTERS[domain]
        slot_names = sorted(slots)
        n_slots = 1 + int(rng.random() < 0.35)
        picked = rng.choice(len(slot_names), size=min(n_slots, len(slot_names)), replace=False)
        tlb: dict[SlotName, str] = {}
        value_words: list[str] = []
        for index in sorted(int(i) for i in picked):
            slot = slot_names[index]
            value = slots[slot][int(rng.integers(len(slots[slot])))]
            tlb[SlotName(domain, slot)] = value
            value_words.append(value)
        cluster_words = [words[int(i)] for i in rng.choice(len(words), size=2, replace=False)]
        noise = [FILLER_WORDS[int(i)] for i in rng.integers(0, len(FILLER_WORDS), spec.noise_words)]
        tokens = cluster_words + value_words + noise
        order = rng.permutation(len(tokens))
        user = " ".join(tokens[int(i)] for i in order)
        if t == 0:
            system = ""
        else:
            sys_words = [words[int(rng.integers(len(words)))]] + [
                FILLER_WORDS[int(i)] for i in rng.integers(0, len(FILLER_WORDS), 3)
            ]
            system = " ".join(sys_words)
        turns.append(Turn(t, system, user, tlb))
    return turns


def generate_corpus(spec: SimulationSpec, count: int, prefix: str, stream: str) -> Corpus:
    """Deterministically generate ``count`` dialogues: mostly single-cluster,
    a ``mixed_fraction`` sampling turns from both clusters."""
    rng = np.random.default_rng(subseed(spec.seed, f"corpus:{stream}"))
    dialogues: list[Dialogue] = []
    for i in range(count):
        dialogue_id = f"{prefix}{i:04d}"
        if float(rng.random()) < spec.mixed_fraction:
            clusters = [HOTEL_DOMAIN, RESTAURANT_DOMAIN]
        else:
            clusters = [(HOTEL_DOMAIN, RESTAURANT_DOMAIN)[int(rng.integers(2))]]
        turns = _make_turns(rng, dialogue_id, clusters, spec)
        dialogues.append(Dialogue(dialogue_id, frozenset(clusters), tuple(turns)))
    return Corpus(tuple(dialogues))


def _mentions(vocabulary: Sequence[str]):
    vocab = frozenset(vocabulary)
    return lambda triplet: not vocab.isdisjoint(triplet.user_utterance.split())


def make_experts(spec: SimulationSpec, gold: dict) -> tuple[SyntheticExpert, SyntheticExpert]:
    slm = SyntheticExpert(
        SLM,
        SyntheticProfile(
            _mentions(HOTEL_WORDS),
            spec.slm_accuracy_in,
            spec.slm_accuracy_out,
            spec.slm_confidence_correct,
            spec.slm_confidence_wrong,
        ),
        gold,
        subseed(spec.seed, "expert:slm"),
    )
    llm = SyntheticExpert(
        LLM,
        SyntheticProfile(
            _mentions(RESTAURANT_WORDS),
            spec.llm_accuracy_in,
            spec.llm_accuracy_out,
            spec.llm_confidence_correct,
            spec.llm_confidence_wrong,
        ),
        gold,
        subseed(spec.seed, "expert:llm"),
    )
    return slm, llm


@dataclass
class SimulationResult:
    spec: SimulationSpec
    out_dir: Path
    test_corpus: Corpus
    holdout_corpus: Corpus
    runs: dict[str, RoutedRun] = field(default_factory=dict)
    reports: dict[str, Report] = field(default_factory=dict)
    adapter: ProjectionAdapter | None = None
    loss_history: list[float] = field(default_factory=list)


def run_simulation(spec: SimulationSpec, out_dir: str | Path) -> SimulationResult:
    """Generate the benchmark and run the whole pipeline into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    test_corpus = generate_corpus(spec, spec.dialogues, "dlg", "test")
    holdout_corpus = generate_corpus(spec, spec.holdout_dialogues, "hld", "holdout")
    save_corpus(test_corpus, str(out / "corpus_test.jsonl"))
    save_corpus(holdout_corpus, str(out / "corpus_holdout.jsonl"))

    gold = {**holdout_corpus.gold_tlbs(), **test_corpus.gold_tlbs()}
    slm, llm = make_experts(spec, gold)
    experts = [slm, llm]

    holdout_turns = holdout_corpus.labeled()
    test_turns = test_corpus.labeled()
    beliefs = {}
    # Routing replays these predictions, as the CLI's ``route`` does from the
    # same files. That is exact: a synthetic expert seeds on (seed, expert,
    # turn key) and tests its competence on the user utterance alone, so the
    # prior state a routed triplet carries cannot change its prediction.
    replayed = []
    for expert in experts:
        preds = [expert.predict(t.triplet) for t in [*holdout_turns, *test_turns]]
        write_predictions(preds, str(out / f"predictions_{expert.id.name}.jsonl"))
        beliefs[expert.id] = {t.key: p.tlb for t, p in zip(holdout_turns, preds)}
        replayed.append(ReplayExpert(expert.id, {p.key: p for p in preds}))

    embedder = HashEmbedder(spec.embedding_dim, subseed(spec.seed, "embedder"))
    store = embed_turns(embedder, holdout_turns)
    save_store(store, str(out / "embeddings_holdout.jsonl"))

    pairs = mine_pairs(holdout_turns, "task+expert", spec.pairs_per_query, beliefs, store)
    save_pairs(pairs, str(out / "pairs.json"))
    train_config = TrainConfig(
        margin=spec.margin, learning_rate=spec.learning_rate, epochs=spec.epochs
    )
    adapter, history = train_adapter(pairs, store, train_config)
    save_training(adapter, history, out / "adapter.json")

    identity = ProjectionAdapter.identity(spec.embedding_dim)
    sizes = {expert_id: spec.pool_size for expert_id in beliefs}
    pool_sets = {}
    for tag, active in (("base", identity), ("trained", adapter)):
        pools = sampled_pools(holdout_turns, beliefs, store, active, sizes, spec.seed)
        for expert_id, (_, sample) in pools.items():
            save_pool(sample, str(out / f"pool_{tag}_{expert_id.name}.json"))
        pool_sets[tag] = [sample for _, sample in pools.values()]

    costs = CostTable({SLM.name: spec.slm_cost, LLM.name: spec.llm_cost}, spec.router_cost)
    result = SimulationResult(spec, out, test_corpus, holdout_corpus)
    result.adapter = adapter
    result.loss_history = history

    def execute(name: str, router, *, use_embedder: bool, active: ProjectionAdapter | None):
        run = run_pipeline(
            test_corpus,
            replayed,
            router,
            embedder=embedder if use_embedder else None,
            adapter=active,
            config={"k": spec.k, "pool_size": spec.pool_size, "seed": spec.seed, "name": name},
        )
        save_run(run, str(out / f"run_{name}.jsonl"))
        report = make_report(run, test_corpus, costs, training_domains={HOTEL_DOMAIN})
        save_report(report, str(out / f"report_{name}.json"))
        result.runs[name] = run
        result.reports[name] = report

    execute("slm_only", ConstantRouter(SLM), use_embedder=False, active=None)
    execute("llm_only", ConstantRouter(LLM), use_embedder=False, active=None)
    execute("oracle", OracleRouter([SLM, LLM]), use_embedder=False, active=None)
    execute(
        "retrieval_base",
        RetrievalRouter(pool_sets["base"], spec.k),
        use_embedder=True,
        active=identity,
    )
    execute(
        "retrieval_trained",
        RetrievalRouter(pool_sets["trained"], spec.k),
        use_embedder=True,
        active=adapter,
    )

    series = make_series(sorted(result.reports.items()))
    save_series(series, str(out / "series.json"))
    return result
