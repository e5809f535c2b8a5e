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
from identity. The analytic gradient includes the normalization term; the
test suite checks it against central finite differences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Collection, Hashable, Mapping, Sequence

import numpy as np

from .dialogue import LabeledTurn
from .embedding import ProjectionAdapter
from .errors import InputError, write_json

logger = logging.getLogger(__name__)

Pair = tuple[str, str]


@dataclass
class PairSet:
    """Mined (query key, candidate key) pairs of each polarity, in mining
    order, each mapped to the tag of the miner that produced it (``task`` or
    ``expert``)."""

    positives: dict[Pair, str] = field(default_factory=dict)
    negatives: dict[Pair, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)


def merge_pairs(first: PairSet, second: PairSet) -> PairSet:
    """Each polarity's pairs of ``first``, then the pairs of ``second`` that
    ``first`` does not hold in that polarity; every pair keeps its tag."""
    return PairSet(
        first.positives | {p: t for p, t in second.positives.items() if p not in first.positives},
        first.negatives | {p: t for p, t in second.negatives.items() if p not in first.negatives},
    )


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


# Blocks of the trainer's coefficient matrix C hold at most this many cells:
# 8 MB of float64 each. Changing it changes the gradient's summation order.
_CELLS = 1 << 20

# Blocks of the miners' score rows hold at most this many cells: 1 MB of
# float64, so the ~8 temporaries of a block stay in cache and off the heap's
# high-water mark. Rows rank independently, so pairs do not depend on it.
_MINE_CELLS = 1 << 17


def _ranked(scores: np.ndarray, l: int) -> np.ndarray:
    """Column indices of each row's ``l`` highest scores, ordered by (score
    desc, column asc): the columns scoring above the row's l-th best value,
    then the lowest-numbered columns tied at it."""
    kth = np.partition(scores, scores.shape[1] - l, axis=1)[:, -l, None]
    above = scores > kth
    tied = scores == kth
    room = l - np.count_nonzero(above, axis=1)[:, None]
    keep = above | (tied & (np.cumsum(tied, axis=1) <= room))
    cols = np.nonzero(keep)[1].reshape(len(scores), l)
    order = np.argsort(-np.take_along_axis(scores, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _extremes(score_rows, n: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """For each row of an n×n score matrix, the ``l`` best other columns by
    (score desc, column asc) and the ``l`` worst by (score asc, column asc).
    ``score_rows(lo, hi)`` returns a fresh array of rows ``lo:hi``; rows are
    taken in blocks of at most ``_MINE_CELLS`` cells."""
    top = np.empty((n, l), dtype=np.intp)
    bottom = np.empty((n, l), dtype=np.intp)
    step = max(1, _MINE_CELLS // n)
    for lo in range(0, n, step):
        scores = score_rows(lo, min(lo + step, n))
        rows = np.arange(len(scores))
        scores[rows, lo + rows] = -np.inf
        top[lo : lo + step] = _ranked(scores, l)
        scores = np.negative(scores)
        scores[rows, lo + rows] = -np.inf
        bottom[lo : lo + step] = _ranked(scores, l)
    return top, bottom


def _pair_set(
    keys: list[str], top: np.ndarray, bottom: np.ndarray, keep_top, keep_bottom, tag: str
) -> PairSet:
    """Each query ``keys[i]`` paired with its kept ``top[i]`` candidates as
    positives and its kept ``bottom[i]`` candidates as negatives, in rank
    order, all tagged ``tag``."""
    result = PairSet()
    for query, best, worst, keep_best, keep_worst in zip(
        keys, top.tolist(), bottom.tolist(), keep_top.tolist(), keep_bottom.tolist()
    ):
        for j, keep in zip(best, keep_best):
            if keep:
                result.positives[query, keys[j]] = tag
        for j, keep in zip(worst, keep_worst):
            if keep:
                result.negatives[query, keys[j]] = tag
    return result


def _incidence(sets: list[Collection[Hashable]]) -> tuple[np.ndarray, np.ndarray]:
    """A 0/1 matrix with one row per set and one column per distinct member,
    and the set sizes as a column of float64."""
    vocabulary: dict = {}
    rows = [i for i, members in enumerate(sets) for _ in members]
    cols = [vocabulary.setdefault(m, len(vocabulary)) for members in sets for m in members]
    matrix = np.zeros((len(sets), len(vocabulary)), dtype=np.float32)
    matrix[rows, cols] = 1.0
    return matrix, np.array([len(members) for members in sets], dtype=np.float64)[:, None]


def _f1_rows(incidence: np.ndarray, sizes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """:func:`f1_sets` of sets ``lo:hi`` against every set, with the same
    float64 expression; |a∩b| comes exact from one float32 matmul of 0/1
    rows (counts far below 2**24)."""
    hits = (incidence[lo:hi] @ incidence.T).astype(np.float64)
    size_a, size_b = sizes[lo:hi], sizes.T
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = hits / size_a
        recall = hits / size_b
        f1 = 2.0 * precision * recall / (precision + recall)
    f1[hits == 0.0] = 0.0
    f1[(size_a == 0.0) & (size_b == 0.0)] = 1.0
    return f1


def mine_task_pairs(holdout: Sequence[LabeledTurn], pairs_per_query: int) -> PairSet:
    """For every hold-out turn, take the ``l`` most similar other turns by the
    combined turn similarity (half the :func:`~dialroute.similarity.tlb_similarity`
    of the prior states plus that of the turn beliefs, in [-1.5, 1.5]) as
    positives and the ``l`` least similar as negatives. Ties order by
    (score, turn key) for determinism."""
    turns = _sorted_turns(holdout)
    l = _effective_l(pairs_per_query, len(turns) - 1, "task-aware")
    if l == 0:
        return PairSet()
    features = [
        _incidence([select(t) for t in turns])
        for select in (
            lambda t: t.prev_state.items(),
            lambda t: t.prev_state.keys(),
            lambda t: t.gold_tlb.items(),
            lambda t: t.gold_tlb.keys(),
        )
    ]

    def score_rows(lo: int, hi: int) -> np.ndarray:
        state, slots, tlb, tlb_slots = (_f1_rows(m, sizes, lo, hi) for m, sizes in features)
        return 0.5 * (state + slots - 1.0) + (tlb + tlb_slots - 1.0)

    top, bottom = _extremes(score_rows, len(turns), l)
    everything = np.ones_like(top, dtype=bool)
    return _pair_set([t.key for t in turns], top, bottom, everything, everything, "task")


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
    if l == 0:
        return PairSet()
    keys = [t.key for t in turns]
    labels = []
    for key in keys:
        try:
            labels.append(expert_labels[key])
        except KeyError:
            raise InputError(f"no expert label for hold-out turn {key!r}") from None
    matrix = _rows(embeddings, keys)
    norms = np.linalg.norm(matrix, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = matrix / safe[:, None]
    scores = unit @ unit.T
    top, bottom = _extremes(lambda lo, hi: scores[lo:hi].copy(), len(turns), l)
    code = np.unique(labels, return_inverse=True)[1]
    same = code[:, None]
    return _pair_set(keys, top, bottom, code[top] == same, code[bottom] != same, "expert")


# --- training ---------------------------------------------------------------


def _rows(embeddings: Mapping[str, np.ndarray], keys: Sequence[str]) -> np.ndarray:
    """The embeddings of ``keys`` as the rows of one float64 matrix; vectors
    of mixed dims raise ValueError."""
    try:
        return np.array([embeddings[key] for key in keys], dtype=np.float64)
    except KeyError as exc:
        raise InputError(f"no embedding for turn {exc.args[0]!r}") from None


@dataclass
class _PairProblem:
    """Pairs compiled to index arrays over a unique-key embedding matrix.

    Pair ``i`` joins rows ``q[i]`` and ``c[i]``; the first ``n_pos`` pairs are
    the positives, the rest the negatives. The gradient scatters every pair
    twice, as (q, c) and as (c, q): ``by_row`` sorts those entries by row and
    ``cells`` holds their row-major cell indices in that order.

    A pair may appear as (q, c) and as (c, q), and in both polarities, so the
    cosines are taken once per distinct unordered pair: each ``(row, lo, hi)``
    of ``groups`` pairs ``row`` with the rows ``partners[lo:hi]``, and pair
    ``i`` has the cosine of distinct pair ``inverse[i]``."""

    base: np.ndarray  # (n_keys, dim) float64 base embeddings
    q: np.ndarray
    c: np.ndarray
    n_pos: int
    by_row: np.ndarray
    cells: np.ndarray
    groups: list[tuple[int, int, int]]
    partners: np.ndarray
    inverse: np.ndarray

    @classmethod
    def compile(cls, pairs: PairSet, embeddings: Mapping[str, np.ndarray]) -> "_PairProblem":
        order: dict[str, int] = {}
        pair_list = [*pairs.positives, *pairs.negatives]
        for query, candidate in pair_list:
            for key in (query, candidate):
                if key not in order:
                    order[key] = len(order)
        keys = list(order)
        base = _rows(embeddings, keys)
        q = np.fromiter((order[a] for a, _ in pair_list), dtype=np.intp, count=len(pair_list))
        c = np.fromiter((order[b] for _, b in pair_list), dtype=np.intp, count=len(pair_list))
        rows, cols = np.concatenate([q, c]), np.concatenate([c, q])
        by_row = np.argsort(rows, kind="stable")
        cells = rows[by_row] * len(keys) + cols[by_row]
        unordered = np.minimum(q, c) * len(keys) + np.maximum(q, c)
        distinct, inverse = np.unique(unordered, return_inverse=True)
        first, partners = np.divmod(distinct, len(keys))
        starts = np.flatnonzero(np.diff(first, prepend=-1))
        ends = np.append(starts[1:], len(first))
        groups = list(zip(first[starts].tolist(), starts.tolist(), ends.tolist()))
        return cls(base, q, c, len(pairs.positives), by_row, cells, groups, partners, inverse)


# The loss adds one partial sum per _CHUNK pairs of a polarity, an order fixed
# for reproducible losses.
_CHUNK = 16384


def _gram_grad(
    problem: _PairProblem, unit: np.ndarray, safe: np.ndarray, s: np.ndarray, coeff: np.ndarray
) -> np.ndarray:
    """The gradient in Gram form: dU = C·U − r⊙U, dP = dU / norms and
    grad = dPᵀ·base, where C holds each pair's coefficient at (q, c) and at
    (c, q) and r is each row's sum of coeff·s. C is built with ``bincount``
    and multiplied one block of at most ``_CELLS`` cells at a time."""
    m = len(unit)
    weighted = coeff * s
    r = np.bincount(problem.q, weighted, minlength=m) + np.bincount(
        problem.c, weighted, minlength=m
    )
    weights = np.concatenate([coeff, coeff])[problem.by_row]
    step = max(1, _CELLS // m)
    starts = np.arange(0, m, step)
    bounds = np.searchsorted(problem.cells, np.append(starts, m) * m)
    d_unit = np.empty_like(unit)
    for lo, a, b in zip(starts.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
        hi = min(lo + step, m)
        block = np.bincount(problem.cells[a:b] - lo * m, weights[a:b], minlength=(hi - lo) * m)
        d_unit[lo:hi] = block.reshape(hi - lo, m) @ unit
    d_unit -= r[:, None] * unit
    return (d_unit / safe[:, None]).T @ problem.base


def _loss(W: np.ndarray, problem: _PairProblem, margin: float) -> tuple[float, tuple]:
    """Loss (mean over each polarity), and the unit rows, their norms, the
    cosines and the pair coefficients that :func:`_gram_grad` takes after the
    problem. An empty polarity adds zero, and a pair with a zero-norm
    projection has cosine 0 and no gradient. Every cosine is a per-pair dot
    product of the gathered rows, never an entry of U·Uᵀ, whose different
    rounding would flip hinges at s == margin."""
    projected = problem.base @ W.T
    norms = np.linalg.norm(projected, axis=1)
    ok_row = norms > 0.0
    safe = np.where(ok_row, norms, 1.0)
    unit = projected / safe[:, None]
    unit[~ok_row] = 0.0
    cosines = np.empty(len(problem.partners))
    for row, lo, hi in problem.groups:
        cosines[lo:hi] = np.einsum("ij,j->i", unit[problem.partners[lo:hi]], unit[row])
    q, c = problem.q, problem.c
    s = cosines[problem.inverse]
    ok = ok_row[q] & ok_row[c]
    coeff = np.zeros(len(q))
    loss = 0.0
    for part, positive in ((slice(0, problem.n_pos), True), (slice(problem.n_pos, None), False)):
        n = len(q[part])
        if not n:
            continue
        if positive:
            terms = 1.0 - s[part]
            coeff[part] = np.where(ok[part], -1.0 / n, 0.0)
        else:
            terms = np.maximum(0.0, s[part] - margin)
            coeff[part] = np.where(ok[part] & (s[part] > margin), 1.0 / n, 0.0)
        loss += sum(float(np.sum(terms[lo : lo + _CHUNK])) for lo in range(0, n, _CHUNK)) / n
    return loss, (unit, safe, s, coeff)


def _loss_and_grad(W: np.ndarray, problem: _PairProblem, margin: float) -> tuple[float, np.ndarray]:
    """:func:`_loss` and its gradient."""
    loss, state = _loss(W, problem, margin)
    return loss, _gram_grad(problem, *state)


def train_adapter(
    pairs: PairSet,
    embeddings: Mapping[str, np.ndarray],
    *,
    margin: float,
    learning_rate: float,
    epochs: int,
) -> tuple[ProjectionAdapter, list[float]]:
    """Full-batch gradient descent from the identity matrix: ``epochs`` steps
    of ``learning_rate`` on the loss, whose negatives hinge at ``margin``.
    ``config.setting`` declares the three settings' ranges; this takes them
    as given.

    Returns the trained adapter and the loss history (initial loss first, then
    one entry per epoch). Deterministic: full-batch descent has no sampling,
    so it takes no seed.
    """
    if not pairs.positives and not pairs.negatives:
        raise InputError("cannot train an adapter on an empty pair set")
    problem = _PairProblem.compile(pairs, embeddings)
    W = np.eye(problem.base.shape[1])
    loss, state = _loss(W, problem, margin)
    history = [loss]
    for epoch in range(epochs):
        grad = _gram_grad(problem, *state)
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise RuntimeError(f"training diverged at epoch {epoch}: non-finite loss or gradient")
        W = W - learning_rate * grad
        loss, state = _loss(W, problem, margin)
        history.append(loss)
    if not np.isfinite(loss):
        raise RuntimeError(f"training diverged at epoch {epochs}: non-finite loss")
    return ProjectionAdapter(W), history


# --- file format ------------------------------------------------------------


def save_pairs(pairs: PairSet, path: str) -> None:
    """Write ``{"positives": [[query, candidate, tag], …], "negatives": […]}``."""
    record = {
        "positives": [[q, c, tag] for (q, c), tag in pairs.positives.items()],
        "negatives": [[q, c, tag] for (q, c), tag in pairs.negatives.items()],
    }
    write_json(path, record)
