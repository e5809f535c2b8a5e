"""Experts, their predictions, and the exemplar pools built from them.

An expert is anything that produces a turn belief for a triplet. Real systems
are replayed from prediction files; synthetic experts with controllable
accuracy exist for simulation and testing. Each expert has a priority rank;
rank 0 is the cheap default (canonically "slm") that wins every tie.

Pools hold the turns an expert got exactly right on the hold-out set. A turn
that several experts solved goes only to the lowest-ranked one, and a turn no
expert solved is excluded, so pools are disjoint.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .dialogue import (
    LabeledTurn,
    SlotName,
    Triplet,
    TurnBelief,
    make_belief,
    render_belief,
    turn_key,
)
from .embedding import serialize_triplet
from .errors import InputError, field, read_json, read_json_lines, vector_rows
from .errors import write_json, write_json_lines
from .seeding import pcg64_first_draws, subseed
from .similarity import tlb_similarity

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExpertId:
    """An expert's name and its priority rank (lower wins ties)."""

    name: str
    priority_rank: int


SLM = ExpertId("slm", 0)
LLM = ExpertId("llm", 1)


def validate_experts(experts: Sequence[ExpertId]) -> list[ExpertId]:
    """Check uniqueness and return the experts sorted by priority rank."""
    if not experts:
        raise InputError("at least one expert is required")
    names = [e.name for e in experts]
    ranks = [e.priority_rank for e in experts]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate expert names: {names}")
    if len(set(ranks)) != len(ranks):
        raise InputError(f"duplicate expert priority ranks: {ranks}")
    return sorted(experts, key=lambda e: e.priority_rank)


def parse_experts(raw: object, where: str) -> list[ExpertId]:
    """The experts of a JSON list of ``{"name", "priority_rank"}`` objects,
    each name and rank used once, in priority order."""
    what = f"{where} needs a non-empty list of named, integer-ranked experts"
    if type(raw) is not list or not raw or not all(type(item) is dict for item in raw):
        raise InputError(f"{what}, got {raw!r}")
    where = f"{what}:"
    experts = [
        ExpertId(field(item, "name", str, where), field(item, "priority_rank", int, where))
        for item in raw
    ]
    return validate_experts(experts)


@dataclass(frozen=True)
class ExpertPrediction:
    dialogue_id: str
    turn_id: int
    expert: str
    tlb: TurnBelief
    confidence: float | None = None

    @property
    def key(self) -> str:
        return turn_key(self.dialogue_id, self.turn_id)


def judge_correct(pred: TurnBelief, gold: TurnBelief) -> bool:
    """Exact-match judgment: every slot and value equal, nothing extra."""
    return pred == gold


def assign_expert_label(preds: Mapping[ExpertId, TurnBelief], gold: TurnBelief) -> ExpertId:
    """The expert whose prediction is closest to gold by belief similarity,
    ties resolved toward the lower priority rank."""
    if not preds:
        raise InputError("assign_expert_label needs at least one prediction")
    ranked = sorted(
        preds.items(),
        key=lambda item: (-tlb_similarity(item[1], gold), item[0].priority_rank),
    )
    return ranked[0][0]


@dataclass(frozen=True)
class PoolEntry:
    key: str
    text: str
    vector: np.ndarray


@dataclass
class ExpertPool:
    expert: ExpertId
    entries: list[PoolEntry]

    def __len__(self) -> int:
        return len(self.entries)


def build_pools(
    holdout: Sequence[LabeledTurn],
    predictions: Mapping[ExpertId, Mapping[str, TurnBelief]],
    embeddings: Mapping[str, np.ndarray],
) -> dict[ExpertId, ExpertPool]:
    """Assign each hold-out turn to the pool of the lowest-ranked expert that
    predicted it exactly right; turns nobody solved are excluded.

    ``embeddings`` maps turn keys to the vectors pool entries should carry
    (typically already projected). Every expert must have a prediction for
    every hold-out turn.
    """
    experts = validate_experts(list(predictions.keys()))
    pools: dict[ExpertId, ExpertPool] = {e: ExpertPool(e, []) for e in experts}
    for turn in sorted(holdout, key=lambda t: t.key):
        winner: ExpertId | None = None
        for expert in experts:
            try:
                tlb = predictions[expert][turn.key]
            except KeyError:
                raise InputError(
                    f"expert {expert.name!r} has no prediction for hold-out turn {turn.key!r}"
                ) from None
            if judge_correct(tlb, turn.gold_tlb):
                winner = expert
                break
        if winner is None:
            continue
        try:
            vector = embeddings[turn.key]
        except KeyError:
            raise InputError(f"no embedding for hold-out turn {turn.key!r}") from None
        pools[winner].entries.append(
            PoolEntry(turn.key, serialize_triplet(turn.triplet), np.asarray(vector))
        )
    return pools


def sample_pool(pool: ExpertPool, n: int, seed: int) -> ExpertPool:
    """Uniformly sample up to ``n`` entries without replacement, then order the
    sample by turn key. Deterministic for a given seed."""
    if n < 0:
        raise ValueError("sample size must be non-negative")
    size = min(n, len(pool.entries))
    rng = np.random.default_rng(seed)
    indices = rng.choice(len(pool.entries), size=size, replace=False)
    chosen = [pool.entries[int(i)] for i in indices]
    chosen.sort(key=lambda entry: entry.key)
    return ExpertPool(pool.expert, chosen)


# --- prediction sources -----------------------------------------------------


class ReplayExpert:
    """Replays stored predictions verbatim by turn key."""

    def __init__(self, expert_id: ExpertId, by_key: Mapping[str, ExpertPrediction]) -> None:
        self.id = expert_id
        self._by_key = dict(by_key)

    def predict(self, triplet: Triplet) -> ExpertPrediction:
        try:
            return self._by_key[triplet.key]
        except KeyError:
            raise InputError(
                f"expert {self.id.name!r} has no stored prediction for turn {triplet.key!r}"
            ) from None


@dataclass(frozen=True)
class SyntheticProfile:
    """Behavior knobs for a synthetic expert.

    ``competence_predicate`` marks the triplets the expert is good at;
    ``accuracy_in``/``accuracy_out`` are its chances of emitting the gold
    belief inside/outside that competence region. Wrong answers corrupt the
    gold belief by dropping one entry or replacing one value, with equal
    probability.
    """

    competence_predicate: Callable[[Triplet], bool]
    accuracy_in: float
    accuracy_out: float
    confidence_when_correct: float = 0.9
    confidence_when_wrong: float = 0.3

    def __post_init__(self) -> None:
        for label, value in (
            ("accuracy_in", self.accuracy_in),
            ("accuracy_out", self.accuracy_out),
            ("confidence_when_correct", self.confidence_when_correct),
            ("confidence_when_wrong", self.confidence_when_wrong),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")


_NOISE_SLOT = SlotName("noise", "slot")


def _corrupt(gold: TurnBelief, rng: np.random.Generator) -> TurnBelief:
    marker = f"corrupted-{int(rng.integers(1_000_000))}"
    if not gold:
        return {_NOISE_SLOT: marker}
    entries = sorted(gold.items(), key=lambda kv: str(kv[0]))
    index = int(rng.integers(len(entries)))
    if int(rng.integers(2)) == 0:
        del entries[index]
        return dict(entries)
    slot, _ = entries[index]
    out = dict(entries)
    out[slot] = marker
    return out


class SyntheticExpert:
    """Emits the gold belief with profile-controlled probability, otherwise a
    deterministic corruption of it. Decisions depend only on (seed, turn key),
    so reruns and prediction replays agree exactly.

    A turn's draws are those of ``np.random.default_rng(subseed(seed,
    f"{name}:{key}"))``: its first ``random()`` decides whether the answer is
    correct, and a wrong answer's corruption draws on from there. The first
    call derives that first draw and the generator state after it for every
    gold key in one pass (:func:`pcg64_first_draws`), so a call is a lookup
    and a comparison. Only a wrong answer loads its stored state into the one
    generator this expert reuses, and numpy draws the corruption.
    """

    def __init__(
        self,
        expert_id: ExpertId,
        profile: SyntheticProfile,
        gold: Mapping[str, TurnBelief],
        seed: int,
    ) -> None:
        self.id = expert_id
        self.profile = profile
        self._gold = gold
        self._seed = seed
        self._rows: dict[str, int] = {}
        self._draws: list[float] = []
        self._states = self._incs = np.empty((0, 2), dtype=np.uint64)
        self._rng = np.random.default_rng(0)  # its state is set before every use

    def _derive_draws(self) -> None:
        """Fill the table for every key the gold map holds now."""
        keys = list(self._gold)
        seeds = [subseed(self._seed, f"{self.id.name}:{key}") for key in keys]
        draws, self._states, self._incs = pcg64_first_draws(seeds)
        self._draws = draws.tolist()
        self._rows = dict(zip(keys, range(len(keys))))

    def _generator_after_first_draw(self, row: int) -> np.random.Generator:
        state_hi, state_lo = self._states[row].tolist()
        inc_hi, inc_lo = self._incs[row].tolist()
        self._rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._rng

    def predict(self, triplet: Triplet) -> ExpertPrediction:
        key = triplet.key
        try:
            gold = self._gold[key]
        except KeyError:
            raise InputError(
                f"synthetic expert {self.id.name!r} has no gold belief for {key!r}"
            ) from None
        row = self._rows.get(key)
        if row is None:  # the first call, or a key added to the gold map since
            self._derive_draws()
            row = self._rows[key]
        in_region = self.profile.competence_predicate(triplet)
        accuracy = self.profile.accuracy_in if in_region else self.profile.accuracy_out
        if self._draws[row] < accuracy:
            tlb = dict(gold)
            confidence = self.profile.confidence_when_correct
        else:
            tlb = _corrupt(gold, self._generator_after_first_draw(row))
            confidence = self.profile.confidence_when_wrong
        return ExpertPrediction(triplet.dialogue_id, triplet.turn_id, self.id.name, tlb, confidence)


# --- file formats -----------------------------------------------------------


def load_predictions(path: str) -> dict[str, dict[str, ExpertPrediction]]:
    """Load a JSON Lines prediction file, grouped by expert name then turn key.

    Each record: ``{"dialogue_id", "turn_id", "expert", "tlb", "confidence"}``
    with confidence optional or null. Values are canonicalized like corpus
    gold; null values are dropped with a logged count.
    """
    grouped: dict[str, dict[str, ExpertPrediction]] = {}
    dropped = 0
    for where, record in read_json_lines(path, "predictions"):
        dialogue_id = field(record, "dialogue_id", str, where)
        turn_id = field(record, "turn_id", int, where)
        expert = field(record, "expert", str, where)
        tlb, tlb_dropped = make_belief(field(record, "tlb", dict, where, {}), where)
        confidence = field(record, "confidence", float, where, None)
        if confidence is not None and not 0.0 <= confidence <= 1.0:
            raise InputError(f"{where} confidence {confidence} outside [0, 1]")
        dropped += tlb_dropped
        prediction = ExpertPrediction(
            dialogue_id, turn_id, expert, tlb, None if confidence is None else float(confidence)
        )
        by_key = grouped.setdefault(expert, {})
        if prediction.key in by_key:
            raise InputError(
                f"{where} duplicate prediction for expert {expert!r}, "
                f"turn {prediction.key!r}"
            )
        by_key[prediction.key] = prediction
    if dropped:
        logger.warning("dropped %d null values while loading predictions from %s", dropped, path)
    return grouped


def write_predictions(predictions: Sequence[ExpertPrediction], path: str) -> None:
    write_json_lines(
        path,
        (
            {
                "dialogue_id": pred.dialogue_id,
                "turn_id": pred.turn_id,
                "expert": pred.expert,
                "tlb": render_belief(pred.tlb),
                "confidence": pred.confidence,
            }
            for pred in predictions
        ),
    )


def save_pool(pool: ExpertPool, path: str) -> None:
    record = {
        "expert": pool.expert.name,
        "entries": [
            {"key": e.key, "text": e.text, "vector": e.vector.tolist()} for e in pool.entries
        ],
    }
    write_json(path, record)


def load_pool(path: str, experts: Mapping[str, ExpertId]) -> ExpertPool:
    where = f"pool {path!r}:"
    record = read_json(path, "pool")
    if type(record) is not dict:
        raise InputError(f"{where} expected an object with expert and entries")
    name = field(record, "expert", str, where)
    if name not in experts:
        raise InputError(f"pool {path!r} belongs to unknown expert {name!r}")
    keys: list[str] = []
    texts: list[str] = []
    vectors: list[object] = []
    for i, raw in enumerate(field(record, "entries", list, where)):
        if type(raw) is not dict:
            raise InputError(f"{where} entry {i} is not an object")
        keys.append(field(raw, "key", str, f"{where} entry {i}:"))
        texts.append(field(raw, "text", str, f"{where} entry {i}:", ""))
        vectors.append(raw.get("vector"))
    entries = map(PoolEntry, keys, texts, vector_rows(keys, vectors, where))
    return ExpertPool(experts[name], list(entries))
