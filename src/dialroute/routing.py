"""Routers and the end-to-end routing pipeline.

A router picks, per turn, which expert answers. The retrieval router votes
with the k nearest pool entries by cosine; the oracle router peeks at gold;
the cascade router defers from the rank-0 expert on low confidence; the
classifier router is a logistic probe over frozen embeddings. Every tie in
the system resolves toward the lower priority rank.

A routed run records, per turn, the decision, the chosen expert's belief, and
the accumulated predicted state. Test-time triplets use the system's own
accumulated predictions as prior state ("predicted" mode); a "gold" prior
mode exists for diagnostics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NoReturn, Sequence

import numpy as np

from .dialogue import (
    Corpus,
    Triplet,
    TurnBelief,
    aggregate_state,
    accumulate_dialogue,
    make_belief,
    render_belief,
    split_turn_key,
    triplet_of_turn,
)
from .embedding import ProjectionAdapter, finite_vector, project, serialize_triplet
from .errors import InputError, is_int, is_number, read_json_lines, write_json_lines
from .experts import ExpertId, ExpertPrediction, ExpertPool, judge_correct, validate_experts

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RoutingDecision:
    key: str
    chosen: ExpertId
    votes: Mapping[ExpertId, int] = field(default_factory=dict)
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


# Pools of at least this many entries are searched in two stages (see
# ``RetrievalRouter``). Below it one float64 product is faster: at dim 256 the
# crossover lies between 600 and 1,000 entries.
_TWO_STAGE_ENTRIES = 800

# Two stages need float32 products that neither overflow nor lose a row to
# underflow, and a rounding bound well below 1: nonzero row norms in
# [2**-60, 2**60], and at most 2**20 dimensions.
_NORM_RANGE = (2.0**-60, 2.0**60)
_MAX_DIM = 1 << 20


class RetrievalRouter:
    """Majority vote over the k nearest pool entries by cosine.

    Entries are ranked by (score desc, turn key asc); vote ties go to the
    lower priority rank. With fewer than k entries in total, all of them vote.

    A score is ``(M @ q) / (row_norms * qnorm)`` in float64, and the search
    is exact. A pool of at least ``_TWO_STAGE_ENTRIES`` float32 vectors is
    stored as float32 and searched in two stages:

    1. One float32 product of the pool with the unit query, divided by the
       row norms, gives every entry an approximate score within
       ``E = 2(d+2)u`` of its score (u = 2**-24, d the dim). The float32 dot
       product errs by at most ``γ_d = du/(1-du)`` times ``‖m‖·‖q̂‖``
       (Higham, Accuracy and Stability of Numerical Algorithms, §3.1),
       rounding the unit query to float32 adds u, and the float64 score's own
       rounding and float32 underflow, for norms in ``_NORM_RANGE``, add less
       than 2**-30. Let s_k be the k-th best score and a_k the k-th best
       approximation. Only entries scoring above s_k can have an
       approximation above ``s_k + E``, and there are fewer than k of them, so
       ``a_k <= s_k + E``. Every entry scoring at least s_k thus has an
       approximation of at least ``s_k - E >= a_k - 2E``, and keeping every
       entry within 2E of a_k keeps the top k and all ties with the k-th.
    2. The shortlist is rescored in float64 with the bits of the full
       product. OpenBLAS's mat-vec sums an aligned group of 4 rows the same
       wherever the group sits, and the last ``n mod 4`` rows the same when
       they follow one full group. So the product is taken over the
       shortlist's whole 4-row groups, with the tail after the last full
       group of the pool.

    A query of norm below 2**-60 takes the single product, because its
    squared norm may have lost bits to underflow.
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
        try:
            with np.errstate(over="ignore"):
                matrix = np.array(vectors, dtype=np.float32 if single else np.float64)
        except (TypeError, ValueError):
            matrix = None
        if (
            matrix is None
            or matrix.ndim != 2
            or len(set(keys)) != len(keys)
            or not np.isfinite(matrix).all()
        ):
            _reject_pools(pools)
        self._keys = keys
        n, self._dim = matrix.shape
        rank = {expert: i for i, expert in enumerate(self.experts)}
        self._owners = np.array([rank[pool.expert] for pool in pools for _ in pool.entries])
        # np.linalg.norm of the float64 rows, converted a block at a time.
        blocks = (matrix[i : i + 1024].astype(np.float64) for i in range(0, n, 1024))
        norms = np.concatenate([np.linalg.norm(block, axis=1) for block in blocks])
        self._row_norms = np.where(norms == 0.0, np.inf, norms)
        low, high = _NORM_RANGE
        self._two_stage = bool(
            single
            and n >= _TWO_STAGE_ENTRIES
            and self._dim <= _MAX_DIM
            and np.all((norms == 0.0) | ((norms >= low) & (norms <= high)))
        )
        self._matrix = matrix if self._two_stage else matrix.astype(np.float64, copy=False)
        # E of the class docstring, and the first row that stage 2 takes
        # only together with the rest of the pool: the last full 4-row group
        # before a tail of n mod 4 rows (n when there is no tail).
        self._bound = 2 * (self._dim + 2) * 2.0**-24
        self._tail_start = max(n - n % 4 - 4, 0) if n % 4 else n
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
        # For a 1-D float64 vector this is exactly what np.linalg.norm computes.
        # It is NaN or infinite when q is not finite or its norm overflows.
        qnorm = math.sqrt(q @ q)
        if not math.isfinite(qnorm):
            raise ValueError("query vector is not finite or its norm overflows")
        if qnorm == 0.0:
            # Every score is 0: the first k entries by key.
            rows = self._by_key[: self._k_eff]
            scores = np.zeros(self._k_eff)
        elif self._two_stage and qnorm >= _NORM_RANGE[0]:
            rows = self._shortlist(q, qnorm)
            scores = self._product(rows, q) / (self._row_norms[rows] * qnorm)
        else:
            full = (self._matrix @ q) / (self._row_norms * qnorm)
            # Every entry scoring at least the k-th best score is a candidate.
            rows = np.flatnonzero(full >= np.partition(full, self._kth)[self._kth])
            scores = full[rows]
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
        """Stage 1: every entry whose float32 score is within 2E of the k-th."""
        approx = (self._matrix @ (q / qnorm).astype(np.float32)) / self._row_norms
        cut = np.partition(approx, self._kth)[self._kth] - 2.0 * self._bound
        return np.flatnonzero(approx >= cut)

    def _product(self, rows: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Stage 2: ``(M @ q)[rows]`` with the bits of the full product, for
        ``rows`` in ascending order."""
        start = self._tail_start
        groups = np.unique(rows[rows < start] >> 2)
        picked = (groups[:, None] * 4 + np.arange(4)).ravel()
        if rows[-1] >= start:
            picked = np.concatenate([picked, np.arange(start, len(self._keys))])
        product = self._matrix[picked].astype(np.float64) @ q
        return product[np.searchsorted(picked, rows)]


def _reject_pools(pools: Sequence[ExpertPool]) -> NoReturn:
    """Raise the error that names the first entry, in pool order, that is a
    duplicate key or not a flat vector of finite numbers; failing that, the
    error for vectors of different dimensions."""
    seen: set[str] = set()
    for pool in pools:
        for entry in pool.entries:
            if entry.key in seen:
                raise InputError(f"pool entry {entry.key!r} appears in more than one pool")
            seen.add(entry.key)
            if finite_vector(entry.vector, np.float64) is None:
                raise InputError(f"pool entry {entry.key!r} is not a flat vector of finite numbers")
    raise InputError("pool entries do not share one vector dimension")


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


class CascadeRouter:
    """Always runs the rank-0 expert; defers to the next rank when its
    confidence falls below the threshold. The boundary itself stays."""

    kind = "cascade"
    charges_router_cost = False

    def __init__(self, experts: Sequence[ExpertId], threshold: float) -> None:
        order = validate_experts(experts)
        if len(order) < 2:
            raise InputError("cascade routing needs at least two experts")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.primary = order[0]
        self.fallback = order[1]
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


def train_classifier_router(
    embeddings: np.ndarray,
    labels: np.ndarray,
    learning_rate: float = 0.1,
    epochs: int = 200,
) -> LogisticModel:
    """Full-batch logistic regression on frozen embeddings.

    ``labels`` holds 1 where the turn belongs to the rank-1 expert and 0 for
    rank 0. A single-class training set logs a warning and returns a
    degenerate model that always predicts that class.
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
    weights = np.zeros(X.shape[1])
    bias = 0.0
    n = X.shape[0]
    for _ in range(epochs):
        residual = _sigmoid(X @ weights + bias) - y
        weights = weights - learning_rate * (X.T @ residual) / n
        bias = bias - learning_rate * float(np.mean(residual))
    return LogisticModel(weights, bias)


class ClassifierRouter:
    """Routes by the logistic probe; probability above one half picks the
    rank-1 expert, the boundary itself stays at rank 0."""

    kind = "classifier"
    charges_router_cost = True

    def __init__(self, model: LogisticModel, experts: Sequence[ExpertId]) -> None:
        order = validate_experts(experts)
        if len(order) != 2:
            raise InputError("classifier routing supports exactly two experts")
        self.model = model
        self.low, self.high = order

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
    prior_mode: str = "predicted",
    config: Mapping[str, object] | None = None,
) -> RoutedRun:
    """Route every turn of a corpus and return the full run.

    ``experts`` are prediction sources (each with ``.id`` and
    ``.predict(triplet)``); ``embedder`` (with ``.embed(key, text)``) is
    required by routers that look at query vectors and may be combined with a
    projection ``adapter``. Expert failures abort with the dialogue and turn
    named.
    """
    if prior_mode not in ("predicted", "gold"):
        raise ValueError(f"prior_mode must be 'predicted' or 'gold', got {prior_mode!r}")
    expert_ids = validate_experts([e.id for e in experts])
    by_id = {e.id: e for e in experts}
    snapshot = {
        "router": router.kind,
        "charges_router_cost": bool(router.charges_router_cost),
        "prior_mode": prior_mode,
        **(dict(config) if config else {}),
    }
    records: list[TurnRecord] = []
    for dialogue in corpus:
        gold_states = (
            accumulate_dialogue(turn.gold_tlb for turn in dialogue.turns)
            if prior_mode == "gold"
            else None
        )
        state: dict = {}
        for t, turn in enumerate(dialogue.turns):
            if gold_states is None:
                prev = state
            else:
                prev = {} if t == 0 else gold_states[t - 1]
            triplet = triplet_of_turn(dialogue, t, prev)
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
    raw_records: list[tuple[int, dict]] = []
    summary: dict | None = None
    for lineno, record in read_json_lines(path, "run"):
        if "summary" in record:
            if summary is not None:
                raise InputError(f"{path}:{lineno}: multiple summary records")
            summary = record["summary"]
        elif summary is not None:
            raise InputError(f"{path}:{lineno}: turn record after the summary")
        else:
            raw_records.append((lineno, record))
    if summary is None:
        raise InputError(f"run {path!r} has no trailing summary record")
    if not isinstance(summary, dict):
        raise InputError(f"run {path!r}: summary is not an object")
    experts_raw = summary.get("experts")
    if not isinstance(experts_raw, list) or not all(
        isinstance(e, dict) and isinstance(e.get("name"), str) and is_int(e.get("priority_rank"))
        for e in experts_raw
    ):
        raise InputError(f"run {path!r}: summary lacks a list of named, integer-ranked experts")
    experts = validate_experts([ExpertId(e["name"], e["priority_rank"]) for e in experts_raw])
    by_name = {e.name: e for e in experts}
    records: list[TurnRecord] = []
    states: dict[str, dict] = {}
    for lineno, record in raw_records:
        key = record.get("key")
        name = record.get("expert")
        votes_raw = record.get("votes", {})
        neighbors_raw = record.get("neighbors", [])
        tlb_raw = record.get("tlb", {})
        invoked_raw = record.get("invoked", [name])
        confidence = record.get("confidence")
        if (
            not isinstance(key, str)
            or not isinstance(name, str)
            or name not in by_name
            or not isinstance(votes_raw, dict)
            or not all(is_int(count) for count in votes_raw.values())
            or not isinstance(neighbors_raw, list)
            or not all(
                isinstance(n, list) and len(n) == 2 and isinstance(n[0], str) and is_number(n[1])
                for n in neighbors_raw
            )
            or not isinstance(tlb_raw, dict)
            or not isinstance(invoked_raw, list)
            or not all(isinstance(n, str) and n in by_name for n in invoked_raw)
            or not (confidence is None or is_number(confidence))
        ):
            raise InputError(f"{path}:{lineno}: malformed turn record {record!r}")
        votes = {}
        for vote_name, count in votes_raw.items():
            if vote_name not in by_name:
                raise InputError(f"{path}:{lineno}: vote for unknown expert {vote_name!r}")
            votes[by_name[vote_name]] = count
        neighbors = tuple((n[0], float(n[1])) for n in neighbors_raw)
        tlb, _ = make_belief(tlb_raw)
        invoked = tuple(by_name[n] for n in invoked_raw)
        decision = RoutingDecision(
            key,
            by_name[name],
            votes,
            neighbors,
            None if confidence is None else float(confidence),
            invoked,
        )
        dialogue_id, _ = split_turn_key(key)
        state = aggregate_state(states.get(dialogue_id, {}), tlb)
        states[dialogue_id] = state
        records.append(TurnRecord(decision, tlb, state))
    config = summary.get("config", {})
    if not isinstance(config, dict):
        raise InputError(f"run {path!r}: summary config is not an object")
    return RoutedRun(records, tuple(experts), config)
