"""The exact k-NN checker agrees with the retrieval router and flags
decisions that were tampered with."""

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np
import pytest

from dialroute.experts import LLM, SLM, ExpertPool, PoolEntry
from dialroute.routing import RetrievalRouter, TurnContext

from harness.knn import KnnReference

K = 5


@pytest.fixture
def pools():
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(40, 16)).astype(np.float32)
    vectors[7] = vectors[3]  # an exact tie, broken by key
    slm = ExpertPool(SLM, [PoolEntry(f"a{i:02d}:0", "", vectors[i]) for i in range(0, 40, 2)])
    llm = ExpertPool(LLM, [PoolEntry(f"b{i:02d}:0", "", vectors[i]) for i in range(1, 40, 2)])
    return [slm, llm]


def _decide(pools, query):
    ctx = TurnContext("q:0", None, {}, query, lambda expert: None)
    return RetrievalRouter(pools, K).decide(ctx)


def _queries(pools):
    rng = np.random.default_rng(5)
    tie = pools[1].entries[3].vector + 0.01
    return [tie, *rng.normal(size=(20, 16)).astype(np.float32)]


def test_router_decisions_pass(pools):
    reference = KnnReference(pools)
    for query in _queries(pools):
        assert reference.check(query, K, _decide(pools, query)) == []


def test_exact_ties_order_by_key(pools):
    reference = KnnReference(pools)
    tied = pools[1].entries[1].vector  # b03 and b07 share this vector
    keys = [key for key, _ in reference.neighbours(tied, K)]
    assert keys[:2] == ["b03:0", "b07:0"]


def test_tampered_choice_is_flagged(pools):
    reference = KnnReference(pools)
    query = _queries(pools)[1]
    decision = _decide(pools, query)
    other = LLM if decision.chosen == SLM else SLM
    problems = reference.check(query, K, dataclasses.replace(decision, chosen=other))
    assert any("exact vote picks" in p for p in problems)


def test_tampered_neighbours_are_flagged(pools):
    reference = KnnReference(pools)
    query = _queries(pools)[2]
    decision = _decide(pools, query)
    swapped = (decision.neighbors[1], decision.neighbors[0], *decision.neighbors[2:])
    assert reference.check(query, K, dataclasses.replace(decision, neighbors=swapped))
    key, score = decision.neighbors[0]
    nudged = ((key, score + 1e-6), *decision.neighbors[1:])
    assert reference.check(query, K, dataclasses.replace(decision, neighbors=nudged))


def test_tampered_votes_are_flagged(pools):
    reference = KnnReference(pools)
    query = _queries(pools)[3]
    decision = _decide(pools, query)
    votes = {expert: count + 1 for expert, count in decision.votes.items()}
    assert reference.check(query, K, dataclasses.replace(decision, votes=votes))
