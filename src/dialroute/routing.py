"""Routers and the end-to-end routing pipeline.

A router picks, per turn, which expert answers. The retrieval router votes
with the k nearest pool entries by cosine; the oracle router peeks at gold;
the cascade router defers from the rank-0 expert on low confidence; the
classifier router is a logistic probe over frozen embeddings. Every tie in
the system resolves toward the lower priority rank.

A routed run records, per turn, the decision, the chosen expert's belief, and
the accumulated predicted state. Every test-time triplet after a dialogue's
first carries the system's own accumulated predictions as its prior state.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .dialogue import (
    Corpus,
    Triplet,
    TurnBelief,
    aggregate_state,
    make_belief,
    render_belief,
    split_turn_key,
    triplet_of_turn,
)
from .embedding import ProjectionAdapter, project, scaled_norm, serialize_triplet
from .errors import InputError, field, is_int, is_number, read_json_lines, vector_rows
from .errors import write_json_lines
from .experts import ExpertId, ExpertPrediction, ExpertPool, judge_correct, parse_experts
from .experts import validate_experts

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RoutingDecision:
    key: str
    chosen: ExpertId
    votes: Mapping[ExpertId, int] = dataclasses.field(default_factory=dict)
    neighbors: tuple[tuple[str, float], ...] = ()
    confidence: float | None = None
    # Experts whose inference this turn actually paid for. The cascade pays
    # for the rank-0 expert on every turn and adds the fallback on deferrals;
    # every other router pays only for the chosen expert.
    invoked: tuple[ExpertId, ...] = ()


@dataclass
class TurnContext:
    """What a router may look at for one turn."""

    key: str
    triplet: Triplet
    gold_tlb: TurnBelief
    query_vector: np.ndarray | None
    predict: Callable[[ExpertId], ExpertPrediction]


# Stage 1 needs float32 products that neither overflow nor lose a row to
# underflow, and a rounding bound well below 1: nonzero row norms in
# [2**-60, 2**60] and at most 2**20 dimensions. Every nonzero query's norm
# is at least 2**-60, since scaled_norm scales up any below it.
_NORM_RANGE = (2.0**-60, 2.0**60)
_MAX_DIM = 1 << 20


class RetrievalRouter:
    """Majority vote over the k nearest pool entries by cosine.

    Entries are ranked by (score desc, turn key asc); vote ties go to the
    lower priority rank. With fewer than k entries in total, all of them vote.

    A score is ``(m * q).sum() / (‖m‖ * ‖q‖)`` in float64, taken row by row,
    so its bits depend only on the row and the query. The search is exact
    and has two stages:

    1. One float32 product of the pool with the unit query, divided by the
       row norms, gives every entry an approximate score within
       ``E = 2(d+2)u`` of its score (u = 2**-24, d the dim). The float32 dot
       product errs by at most ``γ_d = du/(1-du) <= (16/15)du`` times
       ``‖m‖·‖q̂‖`` for d <= 2**20 (Higham, Accuracy and Stability of
       Numerical Algorithms, §3.1). Rounding the unit query to float32 adds
       u, and rounding a float64 pool's rows to float32 adds u more. The
       float64 score's own rounding and float32 underflow, for norms in
       ``_NORM_RANGE``, add less than 2**-30. All of it stays under
       ``(16/15)du + 2u + 2**-30 <= E``. Let s_k be the k-th best score and
       a_k the k-th best approximation. Only entries scoring above s_k can
       have an approximation above ``s_k + E``, and there are fewer than k of
       them, so ``a_k <= s_k + E``. Every entry scoring at least s_k thus has
       an approximation of at least ``s_k - E >= a_k - 2E``, and keeping
       every entry within 2E of a_k keeps the top k and all ties with the
       k-th.
    2. The shortlist is rescored with the float64 score, then ranked.

    A pool outside stage 1's domain (see ``_NORM_RANGE``) sends every entry
    to stage 2. A query whose norm is under 2**-60 is first scaled by a
    power of two (:func:`scaled_norm`), so its squared norm loses nothing to
    underflow.
    """

    kind = "retrieval"
    charges_router_cost = True

    def __init__(self, pools: Sequence[ExpertPool], k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.experts = validate_experts([pool.expert for pool in pools])
        entries = [entry for pool in pools for entry in pool.entries]
        if not entries:
            raise InputError("all pools are empty; retrieval routing is impossible")
        keys = [entry.key for entry in entries]
        vectors = [entry.vector for entry in entries]
        # Float32 vectors are stored as float32, which loses nothing.
        single = all(isinstance(v, np.ndarray) and v.dtype == np.float32 for v in vectors)
        self._matrix = vector_rows(keys, vectors, "pools:", np.float32 if single else np.float64)
        self._keys = keys
        n, self._dim = self._matrix.shape
        rank = {expert: i for i, expert in enumerate(self.experts)}
        self._owners = np.array([rank[pool.expert] for pool in pools for _ in pool.entries])
        # np.linalg.norm of the float64 rows, converted a block at a time.
        blocks = (self._matrix[i : i + 1024].astype(np.float64) for i in range(0, n, 1024))
        norms = np.concatenate([np.linalg.norm(block, axis=1) for block in blocks])
        self._row_norms = np.where(norms == 0.0, np.inf, norms)
        low, high = _NORM_RANGE
        in_domain = self._dim <= _MAX_DIM and np.all(
            (norms == 0.0) | ((norms >= low) & (norms <= high))
        )
        # The float32 pool stage 1 reads, or None to send every entry to stage 2.
        self._single = self._matrix.astype(np.float32, copy=False) if in_domain else None
        self._bound = 2 * (self._dim + 2) * 2.0**-24  # E of the class docstring
        # Entries in ascending key order, and each entry's place in it: the
        # score tie-break.
        self._by_key = np.array(sorted(range(n), key=keys.__getitem__), dtype=np.intp)
        self._key_rank = np.empty(n, dtype=np.intp)
        self._key_rank[self._by_key] = np.arange(n)
        self._k_eff = min(k, n)
        self._kth = n - self._k_eff

    def decide(self, ctx: TurnContext) -> RoutingDecision:
        if ctx.query_vector is None:
            raise ValueError("retrieval routing requires a query embedding")
        q = np.asarray(ctx.query_vector, dtype=np.float64)
        if q.shape != (self._dim,):
            raise ValueError(f"query dim {q.shape} does not match pool dim {self._dim}")
        q, qnorm = scaled_norm(q)
        if not math.isfinite(qnorm):
            raise ValueError("query vector is not finite or its norm overflows")
        if qnorm == 0.0:
            # Every score is 0: the first k entries by key.
            rows = self._by_key[: self._k_eff]
            scores = np.zeros(self._k_eff)
        else:
            rows = self._shortlist(q, qnorm)
            scores = (self._matrix[rows] * q).sum(axis=1) / (self._row_norms[rows] * qnorm)
        order = np.lexsort((self._key_rank[rows], -scores))[: self._k_eff]
        ranked = rows[order]
        counts = np.bincount(self._owners[ranked], minlength=len(self.experts)).tolist()
        # Experts are in priority order, so the first maximum wins vote ties.
        chosen = self.experts[counts.index(max(counts))]
        keys = self._keys
        neighbors = tuple(zip([keys[i] for i in ranked.tolist()], scores[order].tolist()))
        votes = dict(zip(self.experts, counts))
        return RoutingDecision(ctx.key, chosen, votes, neighbors, None, (chosen,))

    def _shortlist(self, q: np.ndarray, qnorm: float) -> np.ndarray:
        """Stage 1: every entry whose float32 score is within 2E of the k-th,
        or every entry when the pool is outside its domain."""
        if self._single is None:
            return np.arange(len(self._keys))
        approx = (self._single @ (q / qnorm).astype(np.float32)) / self._row_norms
        cut = np.partition(approx, self._kth)[self._kth] - 2.0 * self._bound
        return np.flatnonzero(approx >= cut)


class OracleRouter:
    """Routes to the lowest-ranked expert whose prediction is exactly right;
    if nobody is right, to the lowest rank overall. Peeking at gold and at
    every expert's prediction is free; only the chosen expert is paid for."""

    kind = "oracle"
    charges_router_cost = False

    def __init__(self, experts: Sequence[ExpertId]) -> None:
        self.experts = validate_experts(experts)

    def decide(self, ctx: TurnContext) -> RoutingDecision:
        chosen = self.experts[0]
        for expert in self.experts:
            if judge_correct(ctx.predict(expert).tlb, ctx.gold_tlb):
                chosen = expert
                break
        return RoutingDecision(ctx.key, chosen, invoked=(chosen,))


def cascade_experts(experts: Sequence[ExpertId]) -> tuple[ExpertId, ExpertId]:
    """The (rank-0, rank-1) experts a cascade over ``experts`` runs; it needs
    at least two."""
    order = validate_experts(experts)
    if len(order) < 2:
        raise InputError("cascade routing needs at least two experts")
    return order[0], order[1]


def classifier_experts(experts: Sequence[ExpertId]) -> tuple[ExpertId, ExpertId]:
    """The (rank-0, rank-1) experts a classifier routes between; it needs
    exactly two."""
    order = validate_experts(experts)
    if len(order) != 2:
        raise InputError("classifier routing supports exactly two experts")
    return order[0], order[1]


class CascadeRouter:
    """Always runs the rank-0 expert; defers to the next rank when its
    confidence falls below the threshold. The boundary itself stays."""

    kind = "cascade"
    charges_router_cost = False

    def __init__(self, experts: Sequence[ExpertId], threshold: float) -> None:
        self.primary, self.fallback = cascade_experts(experts)
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold

    def decide(self, ctx: TurnContext) -> RoutingDecision:
        prediction = ctx.predict(self.primary)
        if prediction.confidence is None:
            raise InputError(
                f"cascade routing requires a confidence from {self.primary.name!r} "
                f"for turn {ctx.key!r}"
            )
        if prediction.confidence >= self.threshold:
            return RoutingDecision(
                ctx.key, self.primary, confidence=prediction.confidence, invoked=(self.primary,)
            )
        return RoutingDecision(
            ctx.key,
            self.fallback,
            confidence=prediction.confidence,
            invoked=(self.primary, self.fallback),
        )


def tune_cascade_threshold(observations: Sequence[tuple[float, bool, bool]]) -> float:
    """Pick the deferral threshold maximizing hold-out accuracy.

    Each observation is (rank-0 confidence, rank-0 correct, fallback correct).
    The grid is every distinct observed confidence plus {0, 1}; accuracy of a
    threshold is the fraction of turns the cascade rule answers correctly.
    Ties resolve to the largest threshold.
    """
    if not observations:
        raise InputError("cannot tune a cascade threshold without observations")
    for confidence, _, _ in observations:
        if not 0.0 <= confidence <= 1.0:
            raise InputError(f"confidence {confidence} outside [0, 1]")

    def accuracy(threshold: float) -> float:
        hits = sum(
            (primary_ok if confidence >= threshold else fallback_ok)
            for confidence, primary_ok, fallback_ok in observations
        )
        return hits / len(observations)

    grid = sorted({0.0, 1.0} | {confidence for confidence, _, _ in observations})
    return max(grid, key=lambda threshold: (accuracy(threshold), threshold))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


@dataclass
class LogisticModel:
    """Logistic probe: probability that a turn belongs to the rank-1 expert."""

    weights: np.ndarray
    bias: float

    def probability(self, x: np.ndarray) -> float:
        x64 = np.asarray(x, dtype=np.float64)
        if x64.shape != self.weights.shape:
            raise ValueError(f"query dim {x64.shape} does not match model dim {self.weights.shape}")
        return float(_sigmoid(np.asarray(self.weights @ x64 + self.bias)))


# Full-batch gradient steps the classifier router takes.
_CLASSIFIER_EPOCHS = 200


def train_classifier_router(embeddings: np.ndarray, labels: np.ndarray) -> LogisticModel:
    """Full-batch logistic regression on frozen embeddings.

    ``labels`` holds 1 where the turn belongs to the rank-1 expert and 0 for
    rank 0. The step is 1/L, with ``L = (max‖x‖² + 1) / 4`` the smoothness
    bound of the mean logistic loss over inputs with a bias column (its
    Hessian is a mean of ``σ'(z) x xᵀ`` with ``σ' <= 1/4``), so gradient
    descent decreases the loss on any scale of embeddings whose squared norms
    fit a float64; a larger one raises :class:`InputError`. A single-class
    training set logs a warning and returns a degenerate model that always
    predicts that class.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError(f"bad training shapes: {X.shape} vs {y.shape}")
    if X.shape[0] == 0:
        raise InputError("cannot train a classifier router on an empty hold-out")
    classes = set(np.unique(y))
    if not classes <= {0.0, 1.0}:
        raise ValueError(f"labels must be 0/1, got {sorted(classes)}")
    if len(classes) == 1:
        only = classes.pop()
        logger.warning(
            "classifier training set has a single class (%d); returning a constant router",
            int(only),
        )
        return LogisticModel(np.zeros(X.shape[1]), 25.0 if only == 1.0 else -25.0)
    with np.errstate(over="ignore"):
        largest = float(np.max((X * X).sum(axis=1)))
    if not math.isfinite(largest):
        raise InputError("a classifier training embedding's squared norm overflows float64")
    step = 4.0 / (largest + 1.0)
    weights = np.zeros(X.shape[1])
    bias = 0.0
    n = X.shape[0]
    for _ in range(_CLASSIFIER_EPOCHS):
        residual = _sigmoid(X @ weights + bias) - y
        weights = weights - step * (X.T @ residual) / n
        bias = bias - step * float(np.mean(residual))
    return LogisticModel(weights, bias)


class ClassifierRouter:
    """Routes by the logistic probe; probability above one half picks the
    rank-1 expert, the boundary itself stays at rank 0."""

    kind = "classifier"
    charges_router_cost = True

    def __init__(self, model: LogisticModel, experts: Sequence[ExpertId]) -> None:
        self.model = model
        self.low, self.high = classifier_experts(experts)

    def decide(self, ctx: TurnContext) -> RoutingDecision:
        if ctx.query_vector is None:
            raise ValueError("classifier routing requires a query embedding")
        p = self.model.probability(ctx.query_vector)
        chosen = self.high if p > 0.5 else self.low
        return RoutingDecision(ctx.key, chosen, invoked=(chosen,))


class ConstantRouter:
    """Always routes to one expert. Used for single-expert reference runs."""

    kind = "constant"
    charges_router_cost = False

    def __init__(self, expert: ExpertId) -> None:
        self.expert = expert

    def decide(self, ctx: TurnContext) -> RoutingDecision:
        return RoutingDecision(ctx.key, self.expert, invoked=(self.expert,))


# --- pipeline ---------------------------------------------------------------


@dataclass(frozen=True)
class TurnRecord:
    decision: RoutingDecision
    tlb: TurnBelief
    state: dict  # accumulated predicted state after this turn


@dataclass
class RoutedRun:
    records: list[TurnRecord]
    experts: tuple[ExpertId, ...]
    config: dict

    def __len__(self) -> int:
        return len(self.records)

    def keys(self) -> list[str]:
        return [record.decision.key for record in self.records]


def run_pipeline(
    corpus: Corpus,
    experts: Sequence[object],
    router: object,
    embedder: object | None = None,
    adapter: ProjectionAdapter | None = None,
    config: Mapping[str, object] | None = None,
) -> RoutedRun:
    """Route every turn of a corpus and return the full run.

    ``experts`` are prediction sources (each with ``.id`` and
    ``.predict(triplet)``); ``embedder`` (with ``.embed(key, text)``) is
    required by routers that look at query vectors and may be combined with a
    projection ``adapter``. Expert failures abort with the dialogue and turn
    named.
    """
    expert_ids = validate_experts([e.id for e in experts])
    by_id = {e.id: e for e in experts}
    snapshot = {
        "router": router.kind,
        "charges_router_cost": bool(router.charges_router_cost),
        "prior_mode": "predicted",
        **(dict(config) if config else {}),
    }
    records: list[TurnRecord] = []
    for dialogue in corpus:
        state: dict = {}
        for t, turn in enumerate(dialogue.turns):
            triplet = triplet_of_turn(dialogue, t, state)
            query_vector = None
            if embedder is not None:
                base = embedder.embed(triplet.key, serialize_triplet(triplet))
                query_vector = project(adapter, base, triplet.key) if adapter is not None else base
            memo: dict[ExpertId, ExpertPrediction] = {}

            def predict(expert_id: ExpertId, _triplet: Triplet = triplet) -> ExpertPrediction:
                if expert_id not in memo:
                    try:
                        source = by_id[expert_id]
                    except KeyError:
                        raise ValueError(f"unknown expert {expert_id!r}") from None
                    try:
                        memo[expert_id] = source.predict(_triplet)
                    except InputError as exc:
                        raise InputError(
                            f"dialogue {_triplet.dialogue_id!r} turn {_triplet.turn_id}: {exc}"
                        ) from None
                return memo[expert_id]

            ctx = TurnContext(triplet.key, triplet, turn.gold_tlb, query_vector, predict)
            decision = router.decide(ctx)
            chosen = predict(decision.chosen)
            state = aggregate_state(state, chosen.tlb)
            records.append(TurnRecord(decision, dict(chosen.tlb), state))
    return RoutedRun(records, tuple(expert_ids), snapshot)


# --- file format ------------------------------------------------------------


def _run_lines(run: RoutedRun):
    """The run file's records: one per turn, then the summary."""
    for record in run.records:
        decision = record.decision
        line = {
            "key": decision.key,
            "expert": decision.chosen.name,
            "votes": {e.name: decision.votes[e] for e in sorted(decision.votes, key=lambda x: x.name)},
            "neighbors": [[key, score] for key, score in decision.neighbors],
            "tlb": render_belief(record.tlb),
            "invoked": [e.name for e in decision.invoked],
        }
        if decision.confidence is not None:
            line["confidence"] = decision.confidence
        yield line
    yield {
        "summary": {
            "experts": [
                {"name": e.name, "priority_rank": e.priority_rank} for e in run.experts
            ],
            "config": run.config,
            "turns": len(run.records),
        }
    }


def save_run(run: RoutedRun, path: str) -> None:
    write_json_lines(path, _run_lines(run))


def load_run(path: str) -> RoutedRun:
    """Reload a routed run; accumulated states are refolded from the recorded
    beliefs, so metrics computed from the file match the in-memory run."""
    raw_records: list[tuple[str, dict]] = []
    summary: dict | None = None
    for where, record in read_json_lines(path, "run"):
        if "summary" in record:
            if summary is not None:
                raise InputError(f"{where} multiple summary records")
            summary = field(record, "summary", dict, f"run {path!r}:")
        elif summary is not None:
            raise InputError(f"{where} turn record after the summary")
        else:
            raw_records.append((where, record))
    if summary is None:
        raise InputError(f"run {path!r} has no trailing summary record")
    experts = parse_experts(summary.get("experts"), f"run {path!r}: summary")
    by_name = {e.name: e for e in experts}
    records: list[TurnRecord] = []
    states: dict[str, dict] = {}
    for at, record in raw_records:
        where = f"{at} malformed turn record:"
        key = field(record, "key", str, where)
        name = field(record, "expert", str, where)
        votes_raw = field(record, "votes", dict, where, {})
        neighbors_raw = field(record, "neighbors", list, where, [])
        invoked_raw = field(record, "invoked", list, where, [name])
        confidence = field(record, "confidence", float, where, None)
        if name not in by_name:
            raise InputError(f"{where} expert {name!r} is not an expert of the summary")
        for vote, count in votes_raw.items():
            if vote not in by_name:
                raise InputError(f"{where} votes name {vote!r}, not an expert of the summary")
            if not is_int(count):
                raise InputError(f"{where} votes[{vote!r}] must be an integer")
        for i, n in enumerate(neighbors_raw):
            if not (type(n) is list and len(n) == 2 and type(n[0]) is str and is_number(n[1])):
                raise InputError(f"{where} neighbors[{i}] must be a [key, score] pair")
        for i, n in enumerate(invoked_raw):
            if type(n) is not str or n not in by_name:
                raise InputError(f"{where} invoked[{i}] must name an expert of the summary")
        tlb, _ = make_belief(field(record, "tlb", dict, where, {}), where)
        decision = RoutingDecision(
            key,
            by_name[name],
            {by_name[vote]: count for vote, count in votes_raw.items()},
            tuple((n[0], float(n[1])) for n in neighbors_raw),
            None if confidence is None else float(confidence),
            tuple(by_name[n] for n in invoked_raw),
        )
        dialogue_id, _ = split_turn_key(key)
        state = aggregate_state(states.get(dialogue_id, {}), tlb)
        states[dialogue_id] = state
        records.append(TurnRecord(decision, tlb, state))
    config = field(summary, "config", dict, f"run {path!r}: summary", {})
    return RoutedRun(records, tuple(experts), config)
