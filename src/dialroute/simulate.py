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

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .cli import embed_turns, fit_adapter, sampled_pools, save_training
from .dialogue import SEPARATOR, Corpus, Dialogue, Turn, save_corpus
from .embedding import HashEmbedder, ProjectionAdapter, check_dim, save_store
from .config import Range, RunConfig, at_least, setting, settings_of
from .errors import InputError, is_int, is_number
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
from .supervision import save_pairs

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

# Each domain's words and its (slot name, values) pairs in slot order, the
# order in which a turn's slots are drawn.
_CLUSTERS = {
    domain: (words, tuple((domain + SEPARATOR + slot, slots[slot]) for slot in sorted(slots)))
    for domain, words, slots in (
        (HOTEL_DOMAIN, HOTEL_WORDS, HOTEL_SLOTS),
        (RESTAURANT_DOMAIN, RESTAURANT_WORDS, RESTAURANT_SLOTS),
    )
}

# Each synthetic expert and the words of the talk it is good at.
_EXPERTS = ((SLM, HOTEL_WORDS), (LLM, RESTAURANT_WORDS))
# A synthetic expert's knobs, in SyntheticProfile's order; the spec sets
# each one as ``<expert>_<knob>``.
_KNOBS = ("accuracy_in", "accuracy_out", "confidence_correct", "confidence_wrong")
# The run config's settings, whose ranges the spec's pipeline settings take.
_RUN = settings_of(RunConfig)
_SHARE = Range("must be in [0, 1]", lambda value: 0.0 <= value <= 1.0)


@dataclass(frozen=True)
class SimulationSpec:
    """Knobs for the synthetic benchmark: a config's ``simulation`` settings,
    each of its default's kind. Defaults give a corpus where base embeddings
    route decently but the trained adapter still has headroom."""

    dialogues: int = setting("simulation.dialogues", None, 200, at_least(1))
    holdout_dialogues: int = setting("simulation.holdout_dialogues", None, 80, at_least(1))
    min_turns: int = setting("simulation.min_turns", None, 3, at_least(1))
    max_turns: int = setting("simulation.max_turns", None, 6)  # >= min_turns
    mixed_fraction: float = setting("simulation.mixed_fraction", None, 0.1, _SHARE)
    embedding_dim: int = setting("simulation.embedding_dim", None, 256)  # check_dim
    noise_words: int = setting("simulation.noise_words", None, 32, at_least(0))
    slm_accuracy_in: float = setting("simulation.slm_accuracy_in", None, 0.95, _SHARE)
    slm_accuracy_out: float = setting("simulation.slm_accuracy_out", None, 0.30, _SHARE)
    llm_accuracy_in: float = setting("simulation.llm_accuracy_in", None, 0.95, _SHARE)
    llm_accuracy_out: float = setting("simulation.llm_accuracy_out", None, 0.30, _SHARE)
    slm_confidence_correct: float = setting("simulation.slm_confidence_correct", None, 0.85, _SHARE)
    slm_confidence_wrong: float = setting("simulation.slm_confidence_wrong", None, 0.35, _SHARE)
    llm_confidence_correct: float = setting("simulation.llm_confidence_correct", None, 0.90, _SHARE)
    llm_confidence_wrong: float = setting("simulation.llm_confidence_wrong", None, 0.40, _SHARE)
    k: int = setting("simulation.k", None, 10, _RUN["k"].range)
    pool_size: int = setting("simulation.pool_size", None, 100, _RUN["pool_size"].range)
    pairs_per_query: int = setting("simulation.pairs_per_query", None, 25, _RUN["pairs_per_query"].range)
    margin: float = setting("simulation.margin", None, 0.0, _RUN["margin"].range)
    learning_rate: float = setting("simulation.learning_rate", None, 5.0, _RUN["learning_rate"].range)
    epochs: int = setting("simulation.epochs", None, 60, _RUN["epochs"].range)
    slm_cost: float = setting("simulation.slm_cost", None, 0.04, _RUN["expert_costs"].range)
    llm_cost: float = setting("simulation.llm_cost", None, 3000.0, _RUN["expert_costs"].range)
    router_cost: float = setting("simulation.router_cost", None, 0.02, _RUN["router_cost"].range)
    seed: int = setting("simulation.seed", None, 0)

    def __post_init__(self) -> None:
        """Reject a spec the pipeline cannot run, before anything is written."""
        for f in fields(self):
            value, whole, declared = getattr(self, f.name), isinstance(f.default, int), f.metadata["setting"]
            if not (is_int(value) if whole else is_number(value)):
                kind = "an integer" if whole else "a number"
                raise InputError(f"{declared.path} must be {kind}, got {value!r}")
            declared.range.check(declared.path, value)
        at_least(self.min_turns).check("simulation.max_turns", self.max_turns)
        check_dim(self.embedding_dim)


def _make_turns(
    rng: np.random.Generator, clusters: Sequence[str], spec: SimulationSpec
) -> list[Turn]:
    n_turns = int(rng.integers(spec.min_turns, spec.max_turns + 1))
    turns: list[Turn] = []
    for t in range(n_turns):
        domain = clusters[int(rng.integers(len(clusters)))]
        words, slots = _CLUSTERS[domain]
        n_slots = 1 + int(rng.random() < 0.35)
        picked = rng.choice(len(slots), size=min(n_slots, len(slots)), replace=False)
        tlb: dict[str, str] = {}
        value_words: list[str] = []
        for index in sorted(picked.tolist()):
            name, values = slots[index]
            value = values[int(rng.integers(len(values)))]
            tlb[name] = value
            value_words.append(value)
        cluster_words = [words[i] for i in rng.choice(len(words), size=2, replace=False).tolist()]
        noise = rng.integers(0, len(FILLER_WORDS), spec.noise_words).tolist()
        tokens = cluster_words + value_words + [FILLER_WORDS[i] for i in noise]
        user = " ".join([tokens[i] for i in rng.permutation(len(tokens)).tolist()])
        if t == 0:
            system = ""
        else:
            sys_words = [words[int(rng.integers(len(words)))]]
            sys_words += [FILLER_WORDS[i] for i in rng.integers(0, len(FILLER_WORDS), 3).tolist()]
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
        turns = _make_turns(rng, clusters, spec)
        dialogues.append(Dialogue(dialogue_id, frozenset(clusters), tuple(turns)))
    return Corpus(tuple(dialogues))


def _mentions(vocabulary: Sequence[str]):
    vocab = frozenset(vocabulary)
    return lambda triplet: not vocab.isdisjoint(triplet.user_utterance.split())


def make_experts(spec: SimulationSpec, gold: dict) -> tuple[SyntheticExpert, SyntheticExpert]:
    """The small and the large synthetic expert, in that order."""
    return tuple(
        SyntheticExpert(
            expert,
            SyntheticProfile(
                _mentions(words), *(getattr(spec, f"{expert.name}_{knob}") for knob in _KNOBS)
            ),
            gold,
            subseed(spec.seed, f"expert:{expert.name}"),
        )
        for expert, words in _EXPERTS
    )


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
    test_corpus = generate_corpus(spec, spec.dialogues, "dlg", "test")
    holdout_corpus = generate_corpus(spec, spec.holdout_dialogues, "hld", "holdout")
    save_corpus(test_corpus, str(out / "corpus_test.jsonl"))
    save_corpus(holdout_corpus, str(out / "corpus_holdout.jsonl"))

    gold = {**holdout_corpus.gold_tlbs(), **test_corpus.gold_tlbs()}
    experts = make_experts(spec, gold)

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
    save_store(store, str(out / "embeddings_holdout.json"))

    pairs, adapter, history = fit_adapter(holdout_turns, "task+expert", beliefs, store, spec)
    save_pairs(pairs, str(out / "pairs.json"))
    save_training(adapter, history, out / "adapter.json")

    identity = ProjectionAdapter.identity(spec.embedding_dim)
    pool_sets = {}
    for tag, active in (("base", identity), ("trained", adapter)):
        pools = sampled_pools(holdout_turns, beliefs, store, active, spec.pool_size, spec.seed)
        for expert_id, (_, sample) in pools.items():
            save_pool(sample, str(out / f"pool_{tag}_{expert_id.name}.json"))
        pool_sets[tag] = [sample for _, sample in pools.values()]

    costs = CostTable({SLM.name: spec.slm_cost, LLM.name: spec.llm_cost}, spec.router_cost)
    result = SimulationResult(spec, out, test_corpus, holdout_corpus)
    result.adapter = adapter
    result.loss_history = history

    # (name, router, adapter): a run embeds its turns exactly when it has an adapter.
    runs = (
        ("slm_only", ConstantRouter(SLM), None),
        ("llm_only", ConstantRouter(LLM), None),
        ("oracle", OracleRouter([SLM, LLM]), None),
        ("retrieval_base", RetrievalRouter(pool_sets["base"], spec.k), identity),
        ("retrieval_trained", RetrievalRouter(pool_sets["trained"], spec.k), adapter),
    )
    for name, router, active in runs:
        run = run_pipeline(
            test_corpus,
            replayed,
            router,
            embedder=None if active is None else embedder,
            adapter=active,
            config={"k": spec.k, "pool_size": spec.pool_size, "seed": spec.seed, "name": name},
        )
        save_run(run, str(out / f"run_{name}.jsonl"))
        report = make_report(run, test_corpus, costs, training_domains={HOTEL_DOMAIN})
        save_report(report, str(out / f"report_{name}.json"))
        result.runs[name] = run
        result.reports[name] = report

    series = make_series(sorted(result.reports.items()))
    save_series(series, str(out / "series.json"))
    return result
