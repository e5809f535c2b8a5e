"""Exact k-nearest-neighbour reference for retrieval routing decisions.

Scores every pool entry against a query by cosine with one numpy
matrix-vector product, ranks all entries by (score desc, key asc) with
``np.lexsort``, and votes with the top k, ties going to the lower priority
rank. A routing decision passes when its neighbours, their scores, its vote
counts and its chosen expert all agree with this reference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

SCORE_TOLERANCE = 1e-12


class KnnReference:
    """The union of the pools a retrieval router was built from."""

    def __init__(self, pools: Sequence) -> None:
        self.keys: list[str] = []
        self.owner: dict[str, object] = {}
        rows = []
        for pool in pools:
            for entry in pool.entries:
                self.keys.append(entry.key)
                self.owner[entry.key] = pool.expert
                rows.append(np.asarray(entry.vector, dtype=np.float64))
        self.experts = sorted({pool.expert for pool in pools}, key=lambda e: e.priority_rank)
        self._matrix = np.vstack(rows)
        norms = np.linalg.norm(self._matrix, axis=1)
        self._row_norms = np.where(norms == 0.0, np.inf, norms)
        self._key_array = np.array(self.keys)

    def scores(self, query: np.ndarray) -> np.ndarray:
        q = np.asarray(query, dtype=np.float64)
        qnorm = float(np.linalg.norm(q))
        if qnorm == 0.0:
            return np.zeros(len(self.keys))
        return (self._matrix @ q) / (self._row_norms * qnorm)

    def neighbours(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        scores = self.scores(query)
        order = np.lexsort((self._key_array, -scores))[: min(k, len(self.keys))]
        return [(self.keys[i], float(scores[i])) for i in order]

    def vote(self, neighbours: Sequence[tuple[str, float]]):
        votes = {expert: 0 for expert in self.experts}
        for key, _ in neighbours:
            votes[self.owner[key]] += 1
        chosen = min(self.experts, key=lambda e: (-votes[e], e.priority_rank))
        return chosen, votes

    def check(self, query: np.ndarray, k: int, decision) -> list[str]:
        """Every way ``decision`` disagrees with the exact reference."""
        problems: list[str] = []
        expected = self.neighbours(query, k)
        recorded = list(decision.neighbors)
        expected_keys = [key for key, _ in expected]
        recorded_keys = [key for key, _ in recorded]
        if recorded_keys != expected_keys:
            problems.append(f"{decision.key}: neighbours {recorded_keys} != exact {expected_keys}")
        else:
            for (key, got), (_, want) in zip(recorded, expected):
                if abs(got - want) > SCORE_TOLERANCE:
                    problems.append(f"{decision.key}: score of {key} {got!r} != exact {want!r}")
        chosen, votes = self.vote(expected)
        if decision.chosen != chosen:
            problems.append(
                f"{decision.key}: chose {decision.chosen.name}, exact vote picks {chosen.name}"
            )
        if dict(decision.votes) != votes:
            problems.append(f"{decision.key}: votes {dict(decision.votes)} != exact {votes}")
        return problems
