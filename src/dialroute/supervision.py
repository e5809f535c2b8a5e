"""Pair mining and contrastive training of the projection adapter.

Two complementary supervision signals produce (query, candidate) pairs over
the hold-out set:

* task-aware: candidates are ranked by the combined turn similarity computed
  from gold annotations; the closest turns become positives, the farthest
  negatives.
* expert-aware: candidates are ranked by base-embedding cosine; among the
  nearest, those solved best by the same expert become positives, and among
  the farthest, those solved by a different expert become negatives.

Training minimizes, over projected and normalized embeddings,
``mean(1 - cos)`` on positives plus ``mean(max(0, cos - margin))`` on
negatives, by full-batch gradient descent on the projection matrix starting
from identity. The analytic gradient (including the normalization term) is
verifiable against central finite differences via :func:`grad_check`.
"""

from __future__ import annotations

import heapq
import json
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dialogue import LabeledTurn
from .embedding import ProjectionAdapter
from .errors import InputError, read_json
from .similarity import f1_sets

logger = logging.getLogger(__name__)

Pair = tuple[str, str]


def provenance_key(query: str, candidate: str) -> str:
    return f"{query}:{candidate}"


@dataclass
class PairSet:
    """Mined (query key, candidate key) pairs with per-pair provenance tags."""

    positives: list[Pair] = field(default_factory=list)
    negatives: list[Pair] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for polarity, pairs in (("positives", self.positives), ("negatives", self.negatives)):
            if len(set(pairs)) != len(pairs):
                raise ValueError(f"duplicate ordered pairs in {polarity}")
            for query, candidate in pairs:
                if query == candidate:
                    raise ValueError(f"self-pair {query!r} in {polarity}")

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)


def merge_pairs(first: PairSet, second: PairSet) -> PairSet:
    """Concatenate two pair sets, dropping duplicate ordered pairs within each
    polarity. The first occurrence wins, provenance included."""
    positives: list[Pair] = []
    negatives: list[Pair] = []
    provenance: dict[str, str] = {}
    for source in (first, second):
        for pool, merged in ((source.positives, positives), (source.negatives, negatives)):
            seen = set(merged)
            for pair in pool:
                if pair in seen:
                    continue
                seen.add(pair)
                merged.append(pair)
                key = provenance_key(*pair)
                if key not in provenance and key in source.provenance:
                    provenance[key] = source.provenance[key]
    return PairSet(positives, negatives, provenance)


def _sorted_turns(holdout: Sequence[LabeledTurn]) -> list[LabeledTurn]:
    turns = sorted(holdout, key=lambda t: t.key)
    keys = [t.key for t in turns]
    if len(set(keys)) != len(keys):
        raise InputError("hold-out set contains duplicate turn keys")
    return turns


def _effective_l(requested: int, available: int, what: str) -> int:
    if requested < 1:
        raise ValueError(f"pairs-per-query must be >= 1, got {requested}")
    if available < requested:
        logger.warning(
            "%s mining: only %d candidates per query available, shrinking l from %d",
            what,
            available,
            requested,
        )
        return max(available, 0)
    return requested


def mine_task_pairs(holdout: Sequence[LabeledTurn], pairs_per_query: int) -> PairSet:
    """For every hold-out turn, take the ``l`` most similar other turns by the
    combined turn similarity as positives and the ``l`` least similar as
    negatives. Ties order by (score, turn key) for determinism."""
    turns = _sorted_turns(holdout)
    l = _effective_l(pairs_per_query, len(turns) - 1, "task-aware")
    result = PairSet()
    if l == 0:
        return result
    profiles = [
        (
            frozenset(t.prev_state.items()),
            frozenset(t.prev_state.keys()),
            frozenset(t.gold_tlb.items()),
            frozenset(t.gold_tlb.keys()),
        )
        for t in turns
    ]
    keys = [t.key for t in turns]
    for i in range(len(turns)):
        si, ki, ti, gi = profiles[i]
        scored: list[tuple[float, str]] = []
        for j in range(len(turns)):
            if j == i:
                continue
            sj, kj, tj, gj = profiles[j]
            state_sim = f1_sets(si, sj) + f1_sets(ki, kj) - 1.0
            tlb_sim = f1_sets(ti, tj) + f1_sets(gi, gj) - 1.0
            scored.append((0.5 * state_sim + tlb_sim, keys[j]))
        top = heapq.nsmallest(l, scored, key=lambda t: (-t[0], t[1]))
        bottom = heapq.nsmallest(l, scored, key=lambda t: (t[0], t[1]))
        for _, candidate in top:
            result.positives.append((keys[i], candidate))
            result.provenance[provenance_key(keys[i], candidate)] = "task"
        for _, candidate in bottom:
            result.negatives.append((keys[i], candidate))
            result.provenance.setdefault(provenance_key(keys[i], candidate), "task")
    return result


def mine_expert_pairs(
    holdout: Sequence[LabeledTurn],
    expert_labels: Mapping[str, str],
    embeddings: Mapping[str, np.ndarray],
    pairs_per_query: int,
) -> PairSet:
    """Rank candidates by base-embedding cosine; keep same-label turns among
    the top ``l`` as positives and different-label turns among the bottom
    ``l`` as negatives."""
    turns = _sorted_turns(holdout)
    l = _effective_l(pairs_per_query, len(turns) - 1, "expert-aware")
    result = PairSet()
    if l == 0:
        return result
    keys = [t.key for t in turns]
    labels = []
    for key in keys:
        try:
            labels.append(expert_labels[key])
        except KeyError:
            raise InputError(f"no expert label for hold-out turn {key!r}") from None
    matrix = np.empty((len(turns), _embedding_dim(embeddings, keys[0])), dtype=np.float64)
    for row, key in enumerate(keys):
        matrix[row] = _vector(embeddings, key)
    norms = np.linalg.norm(matrix, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = matrix / safe[:, None]
    scores = unit @ unit.T
    for i in range(len(turns)):
        scored = [(float(scores[i, j]), keys[j], labels[j]) for j in range(len(turns)) if j != i]
        top = heapq.nsmallest(l, scored, key=lambda t: (-t[0], t[1]))
        bottom = heapq.nsmallest(l, scored, key=lambda t: (t[0], t[1]))
        for _, candidate, label in top:
            if label == labels[i]:
                result.positives.append((keys[i], candidate))
                result.provenance[provenance_key(keys[i], candidate)] = "expert"
        for _, candidate, label in bottom:
            if label != labels[i]:
                result.negatives.append((keys[i], candidate))
                result.provenance.setdefault(provenance_key(keys[i], candidate), "expert")
    return result


# --- training ---------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    margin: float = 0.2
    learning_rate: float = 0.01
    epochs: int = 30

    def __post_init__(self) -> None:
        if not 0.0 <= self.margin < 1.0:
            raise ValueError(f"margin must be in [0, 1), got {self.margin}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")


def _vector(embeddings: Mapping[str, np.ndarray], key: str) -> np.ndarray:
    try:
        return np.asarray(embeddings[key], dtype=np.float64)
    except KeyError:
        raise InputError(f"no embedding for turn {key!r}") from None


def _embedding_dim(embeddings: Mapping[str, np.ndarray], key: str) -> int:
    return int(_vector(embeddings, key).shape[0])


@dataclass
class _PairProblem:
    """Pairs compiled to index arrays over a unique-key embedding matrix."""

    base: np.ndarray  # (n_keys, dim) float64 base embeddings
    pos_q: np.ndarray
    pos_c: np.ndarray
    neg_q: np.ndarray
    neg_c: np.ndarray

    @classmethod
    def compile(cls, pairs: PairSet, embeddings: Mapping[str, np.ndarray]) -> "_PairProblem":
        order: dict[str, int] = {}
        for query, candidate in [*pairs.positives, *pairs.negatives]:
            for key in (query, candidate):
                if key not in order:
                    order[key] = len(order)
        keys = list(order)
        dim = _embedding_dim(embeddings, keys[0])
        base = np.empty((len(keys), dim), dtype=np.float64)
        for key, row in order.items():
            vector = _vector(embeddings, key)
            if vector.shape != (dim,):
                raise InputError(
                    f"embedding for {key!r} has dim {vector.shape[0]}, expected {dim}"
                )
            base[row] = vector
        def indices(pair_list: list[Pair]) -> tuple[np.ndarray, np.ndarray]:
            q = np.fromiter((order[a] for a, _ in pair_list), dtype=np.intp, count=len(pair_list))
            c = np.fromiter((order[b] for _, b in pair_list), dtype=np.intp, count=len(pair_list))
            return q, c
        pos_q, pos_c = indices(pairs.positives)
        neg_q, neg_c = indices(pairs.negatives)
        return cls(base, pos_q, pos_c, neg_q, neg_c)


_CHUNK = 16384
_BLOCK = 1024


def _tangent(
    coeff: np.ndarray, a: np.ndarray, b: np.ndarray, s: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Rows of ``coeff * (a - s * b) / scale``, the same operations in the same
    order, computed in place over blocks of rows that stay in cache."""
    out = np.empty_like(a)
    for lo in range(0, len(out), _BLOCK):
        hi = lo + _BLOCK
        block = out[lo:hi]
        np.multiply(s[lo:hi, None], b[lo:hi], out=block)
        np.subtract(a[lo:hi], block, out=block)
        np.multiply(coeff[lo:hi, None], block, out=block)
        np.divide(block, scale[lo:hi, None], out=block)
    return out


def _polarity_terms(
    W: np.ndarray,
    problem: _PairProblem,
    q_idx: np.ndarray,
    c_idx: np.ndarray,
    positive: bool,
    margin: float,
    grad: np.ndarray | None,
) -> float:
    """Accumulate one polarity's loss (sum, not mean) and, if requested, its
    gradient contribution scaled by 1/n into ``grad``."""
    n = len(q_idx)
    if n == 0:
        return 0.0
    projected = problem.base @ W.T
    norms = np.linalg.norm(projected, axis=1)
    ok_row = norms > 0.0
    safe = np.where(ok_row, norms, 1.0)
    unit = projected / safe[:, None]
    unit[~ok_row] = 0.0
    total = 0.0
    for start in range(0, n, _CHUNK):
        q = q_idx[start : start + _CHUNK]
        c = c_idx[start : start + _CHUNK]
        uq, uc = unit[q], unit[c]
        s = np.einsum("ij,ij->i", uq, uc)
        ok = ok_row[q] & ok_row[c]
        s = np.where(ok, s, 0.0)
        if positive:
            total += float(np.sum(1.0 - s))
            coeff = np.where(ok, -1.0 / n, 0.0)
        else:
            hinge = np.maximum(0.0, s - margin)
            total += float(np.sum(hinge))
            coeff = np.where(ok & (s > margin), 1.0 / n, 0.0)
        if grad is not None:
            x = _tangent(coeff, uc, uq, s, safe[q])
            y = _tangent(coeff, uq, uc, s, safe[c])
            grad += x.T @ problem.base[q]
            grad += y.T @ problem.base[c]
    return total


def _loss_and_grad(
    W: np.ndarray, problem: _PairProblem, margin: float, with_grad: bool = True
) -> tuple[float, np.ndarray | None]:
    grad = np.zeros_like(W) if with_grad else None
    loss = 0.0
    if len(problem.pos_q):
        loss += _polarity_terms(W, problem, problem.pos_q, problem.pos_c, True, margin, grad) / len(
            problem.pos_q
        )
    if len(problem.neg_q):
        loss += _polarity_terms(
            W, problem, problem.neg_q, problem.neg_c, False, margin, grad
        ) / len(problem.neg_q)
    return loss, grad


def contrastive_loss(
    adapter: ProjectionAdapter,
    pairs: PairSet,
    embeddings: Mapping[str, np.ndarray],
    margin: float = 0.2,
) -> tuple[float, np.ndarray]:
    """Loss and its exact gradient with respect to the adapter matrix.

    Loss = mean over positives of (1 - cos) plus mean over negatives of
    max(0, cos - margin), where cos is taken between projected, normalized
    embeddings. An empty polarity contributes zero. Pairs whose projection
    has zero norm contribute cosine 0 and no gradient.
    """
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must be in [0, 1), got {margin}")
    problem = _PairProblem.compile(pairs, embeddings)
    if problem.base.shape[1] != adapter.dim:
        raise ValueError(
            f"embedding dim {problem.base.shape[1]} does not match adapter dim {adapter.dim}"
        )
    loss, grad = _loss_and_grad(adapter.matrix, problem, margin)
    assert grad is not None
    return loss, grad


def train_adapter(
    pairs: PairSet,
    embeddings: Mapping[str, np.ndarray],
    config: TrainConfig,
) -> tuple[ProjectionAdapter, list[float]]:
    """Full-batch gradient descent from the identity matrix.

    Returns the trained adapter and the loss history (initial loss first, then
    one entry per epoch). Deterministic: full-batch descent has no sampling,
    so it takes no seed.
    """
    if not pairs.positives and not pairs.negatives:
        raise InputError("cannot train an adapter on an empty pair set")
    problem = _PairProblem.compile(pairs, embeddings)
    W = np.eye(problem.base.shape[1])
    loss, grad = _loss_and_grad(W, problem, config.margin)
    assert grad is not None
    history = [loss]
    for epoch in range(config.epochs):
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise RuntimeError(f"training diverged at epoch {epoch}: non-finite loss or gradient")
        W = W - config.learning_rate * grad
        loss, grad = _loss_and_grad(W, problem, config.margin)
        assert grad is not None
        history.append(loss)
    if not np.isfinite(loss):
        raise RuntimeError(f"training diverged at epoch {config.epochs}: non-finite loss")
    return ProjectionAdapter(W), history


def grad_check(
    adapter: ProjectionAdapter,
    pairs: PairSet,
    embeddings: Mapping[str, np.ndarray],
    epsilon: float = 1e-4,
    margin: float = 0.2,
) -> float:
    """Maximum relative error between the analytic gradient and central finite
    differences, entry by entry. Intended for small dimensions."""
    problem = _PairProblem.compile(pairs, embeddings)
    W = np.asarray(adapter.matrix, dtype=np.float64)
    _, grad = _loss_and_grad(W, problem, margin)
    assert grad is not None
    worst = 0.0
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            bumped = W.copy()
            bumped[i, j] += epsilon
            plus, _ = _loss_and_grad(bumped, problem, margin, with_grad=False)
            bumped[i, j] -= 2.0 * epsilon
            minus, _ = _loss_and_grad(bumped, problem, margin, with_grad=False)
            estimate = (plus - minus) / (2.0 * epsilon)
            denom = max(abs(grad[i, j]), abs(estimate), 1e-8)
            worst = max(worst, abs(grad[i, j] - estimate) / denom)
    return worst


# --- file format ------------------------------------------------------------


def save_pairs(pairs: PairSet, path: str) -> None:
    record = {
        "positives": [[q, c] for q, c in pairs.positives],
        "negatives": [[q, c] for q, c in pairs.negatives],
        "provenance": pairs.provenance,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, ensure_ascii=False)
        handle.write("\n")


def load_pairs(path: str) -> PairSet:
    record = read_json(path, "pairs")
    if not isinstance(record, dict):
        raise InputError(f"pairs {path!r}: expected an object")

    def read(polarity: str) -> list[Pair]:
        raw = record.get(polarity, [])
        if not isinstance(raw, list):
            raise InputError(f"pairs {path!r}: {polarity} is not a list")
        out: list[Pair] = []
        for item in raw:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(isinstance(x, str) for x in item)
            ):
                raise InputError(f"pairs {path!r}: malformed pair {item!r} in {polarity}")
            out.append((item[0], item[1]))
        return out

    provenance = record.get("provenance", {})
    if not isinstance(provenance, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in provenance.items()
    ):
        raise InputError(f"pairs {path!r}: malformed provenance map")
    try:
        return PairSet(read("positives"), read("negatives"), dict(provenance))
    except ValueError as exc:
        raise InputError(f"pairs {path!r}: {exc}") from None
