"""Pair mining, the contrastive objective, and its gradient.

The gradient tests are the load-bearing ones: every analytic gradient is
checked against central finite differences on small random instances.
"""

import functools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dialroute import (
    InputError,
    PairSet,
    ProjectionAdapter,
    merge_pairs,
    mine_expert_pairs,
    mine_task_pairs,
    project,
    train_adapter,
)
from dialroute import supervision
from dialroute.cli import _expert_labels, embed_turns
from dialroute.dialogue import LabeledTurn, Triplet
from dialroute.embedding import HashEmbedder
from dialroute.seeding import subseed
from dialroute.simulate import SimulationSpec, generate_corpus, make_experts
from dialroute.supervision import _loss_and_grad, _PairProblem, save_pairs

from conftest import cosine

AREA = "hotel-area"
DAY = "train-day"


def lt(key, tlb, state=None):
    dialogue_id, turn_id = key.split(":")
    return LabeledTurn(Triplet(dialogue_id, int(turn_id), state or {}, "", "u"), tlb)


class TestTaskMining:
    def holdout(self):
        return [
            lt("d:0", {AREA: "north"}),
            lt("e:0", {AREA: "north"}),   # sim to d:0 = 1.5
            lt("f:0", {AREA: "south"}),   # sim to d:0 = 0.5 (same slot, wrong value)
            lt("g:0", {DAY: "monday"}),   # sim to d:0 = -0.5 (disjoint)
        ]

    def test_top_and_bottom_per_query(self):
        pairs = mine_task_pairs(self.holdout(), 1)
        assert ("d:0", "e:0") in pairs.positives
        assert ("d:0", "g:0") in pairs.negatives
        assert ("e:0", "d:0") in pairs.positives
        # every query contributes exactly one of each with l=1
        assert len(pairs.positives) == 4 and len(pairs.negatives) == 4

    def test_ties_break_on_key(self):
        # for query f:0 the candidates d:0 and e:0 tie at 0.5; d:0 wins by key
        pairs = mine_task_pairs(self.holdout(), 1)
        assert ("f:0", "d:0") in pairs.positives
        assert ("f:0", "e:0") not in pairs.positives

    def test_provenance_tagged(self):
        pairs = mine_task_pairs(self.holdout(), 1)
        assert pairs.positives["d:0", "e:0"] == "task"
        assert {*pairs.positives.values(), *pairs.negatives.values()} == {"task"}

    def test_l_shrinks_to_available(self, caplog):
        pairs = mine_task_pairs(self.holdout()[:2], 25)
        assert list(pairs.positives) == [("d:0", "e:0"), ("e:0", "d:0")]
        assert list(pairs.negatives) == [("d:0", "e:0"), ("e:0", "d:0")]

    def test_single_turn_yields_nothing(self):
        pairs = mine_task_pairs(self.holdout()[:1], 5)
        assert len(pairs) == 0

    def test_duplicate_keys_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            mine_task_pairs([lt("d:0", {}), lt("d:0", {})], 1)


class TestExpertMining:
    def fixture(self):
        holdout = [lt("d:0", {}), lt("e:0", {}), lt("f:0", {}), lt("g:0", {})]
        embeddings = {
            "d:0": np.array([1.0, 0.0]),
            "e:0": np.array([1.0, 0.1]),    # close to d:0
            "f:0": np.array([0.0, 1.0]),    # orthogonal
            "g:0": np.array([-1.0, 0.0]),   # opposite
        }
        labels = {"d:0": "slm", "e:0": "slm", "f:0": "llm", "g:0": "llm"}
        return holdout, embeddings, labels

    def test_same_label_neighbours_become_positives(self):
        holdout, embeddings, labels = self.fixture()
        pairs = mine_expert_pairs(holdout, labels, embeddings, 2)
        # top-2 for d:0 are e:0 (cos~1) and f:0 (cos 0); only e:0 shares the label
        assert ("d:0", "e:0") in pairs.positives
        assert ("d:0", "f:0") not in pairs.positives

    def test_different_label_strangers_become_negatives(self):
        holdout, embeddings, labels = self.fixture()
        pairs = mine_expert_pairs(holdout, labels, embeddings, 2)
        # bottom-2 for d:0 are g:0 (cos -1) and f:0 (cos 0); both differ in label
        assert ("d:0", "g:0") in pairs.negatives
        assert ("d:0", "f:0") in pairs.negatives

    def test_filter_applies_after_ranking(self):
        holdout, embeddings, labels = self.fixture()
        pairs = mine_expert_pairs(holdout, labels, embeddings, 1)
        # bottom-1 for e:0 is g:0 (diff label -> kept); f:0 never considered
        assert ("e:0", "g:0") in pairs.negatives
        assert ("e:0", "f:0") not in pairs.negatives

    def test_provenance_tagged(self):
        holdout, embeddings, labels = self.fixture()
        pairs = mine_expert_pairs(holdout, labels, embeddings, 2)
        assert pairs.positives["d:0", "e:0"] == "expert"
        assert {*pairs.positives.values(), *pairs.negatives.values()} == {"expert"}

    def test_missing_label_rejected(self):
        holdout, embeddings, labels = self.fixture()
        del labels["g:0"]
        with pytest.raises(InputError, match="g:0"):
            mine_expert_pairs(holdout, labels, embeddings, 2)


class TestMerge:
    def test_dedup_keeps_first_provenance(self):
        a = PairSet({("x:0", "y:0"): "task"})
        b = PairSet({("x:0", "y:0"): "expert", ("y:0", "x:0"): "expert"})
        merged = merge_pairs(a, b)
        assert list(merged.positives.items()) == [
            (("x:0", "y:0"), "task"),
            (("y:0", "x:0"), "expert"),
        ]

    def test_polarities_dedup_independently(self):
        a = PairSet({("x:0", "y:0"): "task"}, {("x:0", "y:0"): "task"})
        merged = merge_pairs(a, PairSet({("x:0", "y:0"): "expert"}, {("x:0", "y:0"): "expert"}))
        assert len(merged.positives) == 1 and len(merged.negatives) == 1

    @pytest.mark.parametrize("task_first", [True, False])
    def test_pair_in_both_polarities_keeps_each_tag(self, task_first):
        """A task positive that is also an expert negative: each polarity
        keeps the tag of the miner that put the pair there."""
        task = PairSet({("x:0", "y:0"): "task"})
        expert = PairSet({}, {("x:0", "y:0"): "expert"})
        merged = merge_pairs(task, expert) if task_first else merge_pairs(expert, task)
        assert merged.positives == {("x:0", "y:0"): "task"}
        assert merged.negatives == {("x:0", "y:0"): "expert"}

    def test_dialogue_ids_with_colons_keep_distinct_tags(self, tmp_path):
        # ("d:1:0", "e:0") and ("d:1", "0:e:0") both read "d:1:0:e:0" when joined by ":"
        task = PairSet({("d:1:0", "e:0"): "task"})
        expert = PairSet({("d:1", "0:e:0"): "expert"})
        merged = merge_pairs(task, expert)
        assert merged.positives == {("d:1:0", "e:0"): "task", ("d:1", "0:e:0"): "expert"}
        save_pairs(merged, str(tmp_path / "pairs.json"))
        saved = json.loads((tmp_path / "pairs.json").read_text())
        assert saved["positives"] == [["d:1:0", "e:0", "task"], ["d:1", "0:e:0", "expert"]]

    def test_matches_reference_on_cli_chain_holdout(self, tmp_path):
        # the benchmark CLI chain's hold-out: ~85k task and expert pairs
        turns, labels, store, l = synthetic_holdout(240)
        task, expert = mine_task_pairs(turns, l), mine_expert_pairs(turns, labels, store, l)
        for first, second in ((task, expert), (expert, task)):
            assert saved(merge_pairs(first, second), tmp_path) == saved(
                oracles.merge_pairs(first, second), tmp_path
            )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_on_shared_pairs(self, data):
        """Few keys, so pairs recur across sources and across polarities, and
        tags that are missing or differ between the sources."""
        pair = st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")).filter(
            lambda p: p[0] != p[1]
        )

        tagged = st.dictionaries(pair, st.sampled_from(["task", "expert"]), max_size=8)
        first = PairSet(data.draw(tagged), data.draw(tagged))
        second = PairSet(data.draw(tagged), data.draw(tagged))
        merged, reference = merge_pairs(first, second), oracles.merge_pairs(first, second)
        for polarity in ("positives", "negatives"):  # in the order pairs.json keeps
            ours, theirs = getattr(merged, polarity), getattr(reference, polarity)
            assert list(ours.items()) == list(theirs.items())


class TestLossAndGradient:
    def random_problem(self, rng, dim, n_keys=6):
        keys = [f"k:{i}" for i in range(n_keys)]
        embeddings = {k: rng.normal(size=dim) for k in keys}
        pos, neg = [], []
        for i in range(n_keys):
            for j in range(n_keys):
                if i == j:
                    continue
                (pos if rng.random() < 0.5 else neg).append((keys[i], keys[j]))
        return PairSet(dict.fromkeys(pos, "task"), dict.fromkeys(neg, "expert")), embeddings

    def test_identity_loss_matches_direct_cosines(self):
        embeddings = {"a:0": np.array([1.0, 0.0]), "b:0": np.array([1.0, 1.0])}
        pairs = PairSet({("a:0", "b:0"): "task"}, {("b:0", "a:0"): "task"})
        loss, _ = _loss_and_grad(np.eye(2), _PairProblem.compile(pairs, embeddings), 0.2)
        cos = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert math.isclose(loss, (1.0 - cos) + max(0.0, cos - 0.2), rel_tol=1e-12)

    def test_negative_below_margin_contributes_nothing(self):
        embeddings = {"a:0": np.array([1.0, 0.0]), "b:0": np.array([0.0, 1.0])}
        pairs = PairSet({}, {("a:0", "b:0"): "task"})
        loss, grad = _loss_and_grad(np.eye(2), _PairProblem.compile(pairs, embeddings), 0.2)
        assert loss == 0.0
        assert not grad.any()

    def test_gradient_matches_finite_differences_identity(self):
        rng = np.random.default_rng(0)
        pairs, embeddings = self.random_problem(rng, dim=5)
        assert oracles.grad_check(ProjectionAdapter.identity(5), pairs, embeddings) < 1e-4

    @pytest.mark.parametrize("seed", range(8))
    def test_gradient_matches_finite_differences_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 8))
        pairs, embeddings = self.random_problem(rng, dim)
        adapter = ProjectionAdapter(np.eye(dim) + 0.3 * rng.normal(size=(dim, dim)))
        assert oracles.grad_check(adapter, pairs, embeddings, margin=float(rng.uniform(0, 0.8))) < 1e-4

    def test_gradient_descent_direction(self):
        # one small step along -grad must not increase the loss
        rng = np.random.default_rng(42)
        pairs, embeddings = self.random_problem(rng, dim=4)
        problem = _PairProblem.compile(pairs, embeddings)
        loss, grad = _loss_and_grad(np.eye(4), problem, 0.2)
        after, _ = _loss_and_grad(np.eye(4) - 1e-3 * grad, problem, 0.2)
        assert after <= loss + 1e-12


def saved(pairs, directory):
    path = directory / "pairs.json"
    save_pairs(pairs, str(path))
    return path.read_bytes()


@functools.lru_cache(maxsize=None)
def synthetic_holdout(holdout_dialogues):
    """Hold-out turns, expert labels and hash embeddings of the default
    synthetic spec, built as ``simulate`` builds them."""
    spec = SimulationSpec(holdout_dialogues=holdout_dialogues)
    corpus = generate_corpus(spec, spec.holdout_dialogues, "hld", "holdout")
    turns = corpus.labeled()
    experts = make_experts(spec, corpus.gold_tlbs())
    beliefs = {e.id: {t.key: e.predict(t.triplet).tlb for t in turns} for e in experts}
    store = embed_turns(HashEmbedder(spec.embedding_dim, subseed(spec.seed, "embedder")), turns)
    return turns, _expert_labels(turns, beliefs), store, spec.pairs_per_query


def assert_matches_reference(pairs, embeddings, W, margin):
    """The Gram-form loss is bit-identical to the per-pair reference and its
    gradient agrees within 1e-12 of the largest summed term magnitude."""
    problem = _PairProblem.compile(pairs, embeddings)
    loss, grad = _loss_and_grad(W, problem, margin)
    ref_loss, ref_grad, magnitude = oracles.loss_and_grad(W, problem, margin)
    assert loss.hex() == ref_loss.hex()
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(magnitude)


@st.composite
def integer_pair_problems(draw):
    """Small integer problems. Zero base rows and singular matrices give
    zero-norm projections; orthogonal rows give cosines of exactly 0, the
    margin when it is 0; a pair may appear as (q, c) and (c, q), and in both
    polarities, and shares one cosine. Dims run past 16, the products
    einsum's vector loop sums at a time."""
    n_keys = draw(st.integers(2, 6))
    dim = draw(st.integers(1, 4) | st.integers(15, 40))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    keys = [f"k:{i}" for i in range(n_keys)]
    embeddings = {key: np.array(draw(row), dtype=np.float64) for key in keys}
    W = draw(
        st.one_of(
            st.just(np.eye(dim)),
            st.lists(row, min_size=dim, max_size=dim).map(lambda m: np.array(m, dtype=np.float64)),
        )
    )
    ordered = [(a, b) for a in keys for b in keys if a != b]
    positives = draw(st.lists(st.sampled_from(ordered), unique=True, max_size=len(ordered)))
    negatives = draw(
        st.lists(
            st.sampled_from(ordered),
            unique=True,
            min_size=0 if positives else 1,
            max_size=len(ordered),
        )
    )
    margin = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.9))
    cells = draw(st.sampled_from([supervision._CELLS, 1, 2 * n_keys]))
    pairs = PairSet(dict.fromkeys(positives, "task"), dict.fromkeys(negatives, "expert"))
    return pairs, embeddings, W, margin, cells


class TestGramGradient:
    @settings(max_examples=300, deadline=None)
    @given(integer_pair_problems())
    def test_matches_per_pair_reference(self, case):
        pairs, embeddings, W, margin, cells = case
        with mock.patch.object(supervision, "_CELLS", cells):
            assert_matches_reference(pairs, embeddings, W, margin)

    def test_matches_per_pair_reference_over_row_blocks(self):
        rng = np.random.default_rng(11)
        keys = [f"k:{i}" for i in range(7)]
        embeddings = {key: rng.normal(size=4) for key in keys}
        ordered = [(a, b) for a in keys for b in keys if a != b]
        positives = [p for p in ordered if rng.random() < 0.5]
        negatives = [p for p in ordered if rng.random() < 0.5]
        W = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
        # 14 cells over 7 keys: blocks of 2 rows, so rows 0-1, 2-3, 4-5 and 6
        with mock.patch.object(supervision, "_CELLS", 14):
            pairs = PairSet(dict.fromkeys(positives, "task"), dict.fromkeys(negatives, "task"))
            assert_matches_reference(pairs, embeddings, W, 0.1)

    def test_matches_per_pair_reference_over_several_loss_chunks(self):
        # the benchmark CLI chain's hold-out: ~42k pairs a polarity, three partial sums each
        turns, labels, store, l = synthetic_holdout(240)
        pairs = merge_pairs(mine_task_pairs(turns, l), mine_expert_pairs(turns, labels, store, l))
        assert len(pairs.negatives) > 2 * supervision._CHUNK
        W = np.eye(store.dim) + 0.05 * np.random.default_rng(0).normal(size=(store.dim, store.dim))
        assert_matches_reference(pairs, store, W, 0.0)


@st.composite
def tied_holdouts(draw):
    """Hold-outs full of exact ties: beliefs and states drawn from two slots
    and two values (often empty, often equal), embeddings from {-1, 0, 1}²
    (zero vectors included), and ``l`` up to n + 1, past the n - 1 others."""
    n = draw(st.integers(1, 12))
    belief = st.dictionaries(st.sampled_from([AREA, DAY]), st.sampled_from(["a", "b"]))
    turns = [
        LabeledTurn(Triplet(f"d{i}", 0, draw(belief), "", "u"), draw(belief)) for i in range(n)
    ]
    vector = st.lists(st.integers(-1, 1), min_size=2, max_size=2)
    embeddings = {t.key: np.array(draw(vector), dtype=np.float64) for t in turns}
    labels = {t.key: draw(st.sampled_from(["slm", "llm"])) for t in turns}
    l = draw(st.integers(1, n + 1))
    cells = draw(st.sampled_from([supervision._MINE_CELLS, 1, 7]))
    return turns, labels, embeddings, l, cells


class TestMinersMatchReference:
    @pytest.mark.parametrize("holdout_dialogues", [80, 240])
    def test_synthetic_holdout(self, holdout_dialogues, tmp_path):
        # 80 is the default spec (344 turns); 240 is the benchmark CLI chain's (~1,060 turns)
        turns, labels, store, l = synthetic_holdout(holdout_dialogues)
        assert saved(mine_task_pairs(turns, l), tmp_path) == saved(
            oracles.mine_task_pairs(turns, l), tmp_path
        )
        assert saved(mine_expert_pairs(turns, labels, store, l), tmp_path) == saved(
            oracles.mine_expert_pairs(turns, labels, store, l), tmp_path
        )

    @settings(max_examples=300, deadline=None)
    @given(tied_holdouts())
    def test_exact_ties(self, tmp_path_factory, case):
        turns, labels, embeddings, l, cells = case
        directory = tmp_path_factory.mktemp("pairs")
        with mock.patch.object(supervision, "_MINE_CELLS", cells):
            task = mine_task_pairs(turns, l)
            expert = mine_expert_pairs(turns, labels, embeddings, l)
        assert saved(task, directory) == saved(oracles.mine_task_pairs(turns, l), directory)
        assert saved(expert, directory) == saved(
            oracles.mine_expert_pairs(turns, labels, embeddings, l), directory
        )


def test_task_mining_memory_stays_in_small_blocks():
    """At the CLI chain's ~1,060 hold-out turns, blocks of 2**20 score cells
    peaked at ~65 MB traced; 2**17-cell blocks keep it near 11 MB."""
    turns, _, _, l = synthetic_holdout(240)
    tracemalloc.start()
    try:
        mine_task_pairs(turns, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


# The run config's default margin, learning rate and epochs.
DEFAULT_FIT = {"margin": 0.2, "learning_rate": 0.01, "epochs": 30}


class TestTraining:
    def separable_problem(self):
        # two clusters; positives within, negatives across
        embeddings = {
            "a:0": np.array([1.0, 0.2, 0.0]),
            "a:1": np.array([1.0, -0.2, 0.0]),
            "b:0": np.array([0.1, 1.0, 0.3]),
            "b:1": np.array([-0.1, 1.0, 0.2]),
        }
        pairs = PairSet(
            dict.fromkeys([("a:0", "a:1"), ("b:0", "b:1")], "task"),
            dict.fromkeys([("a:0", "b:0"), ("a:1", "b:1"), ("b:0", "a:1")], "task"),
        )
        return pairs, embeddings

    def test_loss_decreases(self):
        pairs, embeddings = self.separable_problem()
        adapter, history = train_adapter(
            pairs, embeddings, margin=0.2, learning_rate=0.05, epochs=40
        )
        assert len(history) == 41
        assert history[-1] < history[0]

    def test_identity_start(self):
        pairs, embeddings = self.separable_problem()
        adapter, history = train_adapter(
            pairs, embeddings, margin=0.2, learning_rate=0.01, epochs=0
        )
        assert np.array_equal(adapter.matrix, np.eye(3))
        assert len(history) == 1

    def test_training_separates_clusters(self):
        pairs, embeddings = self.separable_problem()
        adapter, _ = train_adapter(pairs, embeddings, margin=0.2, learning_rate=0.5, epochs=120)
        pos_cos = cosine(project(adapter, embeddings["a:0"]), project(adapter, embeddings["a:1"]))
        neg_cos = cosine(project(adapter, embeddings["a:0"]), project(adapter, embeddings["b:0"]))
        base_pos = cosine(embeddings["a:0"], embeddings["a:1"])
        base_neg = cosine(embeddings["a:0"], embeddings["b:0"])
        assert pos_cos > base_pos
        assert neg_cos < base_neg

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_matches_descent_on_the_loss_and_its_gradient(self, epochs):
        # the trainer takes a gradient only before a step
        pairs, embeddings = self.separable_problem()
        adapter, history = train_adapter(
            pairs, embeddings, margin=0.2, learning_rate=0.5, epochs=epochs
        )
        problem = _PairProblem.compile(pairs, embeddings)
        W, expected = np.eye(3), []
        for _ in range(epochs):
            loss, grad = _loss_and_grad(W, problem, 0.2)
            expected.append(loss)
            W = W - 0.5 * grad
        expected.append(_loss_and_grad(W, problem, 0.2)[0])
        assert [x.hex() for x in history] == [x.hex() for x in expected]
        assert adapter.matrix.tobytes() == W.tobytes()

    def test_deterministic(self):
        pairs, embeddings = self.separable_problem()
        config = {"margin": 0.2, "learning_rate": 0.1, "epochs": 20}
        a, hist_a = train_adapter(pairs, embeddings, **config)
        b, hist_b = train_adapter(pairs, embeddings, **config)
        assert np.array_equal(a.matrix, b.matrix)
        assert hist_a == hist_b

    def test_empty_pairs_rejected(self):
        with pytest.raises(InputError):
            train_adapter(PairSet(), {"a:0": np.ones(2)}, **DEFAULT_FIT)

    def test_missing_embedding_rejected(self):
        pairs = PairSet({("a:0", "b:0"): "task"})
        with pytest.raises(InputError, match="b:0"):
            train_adapter(pairs, {"a:0": np.ones(2)}, **DEFAULT_FIT)


class TestPairsIO:
    def test_saved_format(self, tmp_path):
        pairs = PairSet(
            {("a:0", "b:0"): "task"},
            {("b:0", "c:0"): "expert", ("a:0", "c:0"): "task"},
        )
        path = tmp_path / "pairs.json"
        save_pairs(pairs, str(path))
        assert json.loads(path.read_text()) == {
            "positives": [["a:0", "b:0", "task"]],
            "negatives": [["b:0", "c:0", "expert"], ["a:0", "c:0", "task"]],
        }
