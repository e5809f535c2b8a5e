"""Pair mining, the contrastive objective, and its gradient.

The gradient tests are the load-bearing ones: every analytic gradient is
checked against central finite differences on small random instances.
"""

import math

import numpy as np
import pytest

from dialroute import (
    InputError,
    PairSet,
    ProjectionAdapter,
    SlotName,
    TrainConfig,
    contrastive_loss,
    grad_check,
    merge_pairs,
    mine_expert_pairs,
    mine_task_pairs,
    project,
    train_adapter,
)
from dialroute.dialogue import LabeledTurn, Triplet
from dialroute.supervision import _BLOCK, _tangent, load_pairs, save_pairs

from conftest import cosine

AREA = SlotName("hotel", "area")
DAY = SlotName("train", "day")


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
        assert pairs.provenance["d:0:e:0"] == "task"

    def test_l_shrinks_to_available(self, caplog):
        pairs = mine_task_pairs(self.holdout()[:2], 25)
        assert pairs.positives == [("d:0", "e:0"), ("e:0", "d:0")]
        assert pairs.negatives == [("d:0", "e:0"), ("e:0", "d:0")]

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
        assert pairs.provenance["d:0:e:0"] == "expert"

    def test_missing_label_rejected(self):
        holdout, embeddings, labels = self.fixture()
        del labels["g:0"]
        with pytest.raises(InputError, match="g:0"):
            mine_expert_pairs(holdout, labels, embeddings, 2)


class TestMerge:
    def test_dedup_keeps_first_provenance(self):
        a = PairSet([("x:0", "y:0")], [], {"x:0:y:0": "task"})
        b = PairSet([("x:0", "y:0"), ("y:0", "x:0")], [], {"x:0:y:0": "expert", "y:0:x:0": "expert"})
        merged = merge_pairs(a, b)
        assert merged.positives == [("x:0", "y:0"), ("y:0", "x:0")]
        assert merged.provenance == {"x:0:y:0": "task", "y:0:x:0": "expert"}

    def test_polarities_dedup_independently(self):
        a = PairSet([("x:0", "y:0")], [("x:0", "y:0")], {})
        merged = merge_pairs(a, PairSet())
        assert len(merged.positives) == 1 and len(merged.negatives) == 1

    def test_self_pairs_rejected(self):
        with pytest.raises(ValueError):
            PairSet([("x:0", "x:0")], [])


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
        return PairSet(pos, neg), embeddings

    def test_identity_loss_matches_direct_cosines(self):
        embeddings = {"a:0": np.array([1.0, 0.0]), "b:0": np.array([1.0, 1.0])}
        pairs = PairSet([("a:0", "b:0")], [("b:0", "a:0")])
        adapter = ProjectionAdapter.identity(2)
        loss, _ = contrastive_loss(adapter, pairs, embeddings, margin=0.2)
        cos = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert math.isclose(loss, (1.0 - cos) + max(0.0, cos - 0.2), rel_tol=1e-12)

    def test_negative_below_margin_contributes_nothing(self):
        embeddings = {"a:0": np.array([1.0, 0.0]), "b:0": np.array([0.0, 1.0])}
        pairs = PairSet([], [("a:0", "b:0")])
        loss, grad = contrastive_loss(ProjectionAdapter.identity(2), pairs, embeddings)
        assert loss == 0.0
        assert not grad.any()

    def test_gradient_matches_finite_differences_identity(self):
        rng = np.random.default_rng(0)
        pairs, embeddings = self.random_problem(rng, dim=5)
        assert grad_check(ProjectionAdapter.identity(5), pairs, embeddings) < 1e-4

    @pytest.mark.parametrize("seed", range(8))
    def test_gradient_matches_finite_differences_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 8))
        pairs, embeddings = self.random_problem(rng, dim)
        adapter = ProjectionAdapter(np.eye(dim) + 0.3 * rng.normal(size=(dim, dim)))
        assert grad_check(adapter, pairs, embeddings, margin=float(rng.uniform(0, 0.8))) < 1e-4

    @pytest.mark.parametrize("rows", [1, _BLOCK, 2 * _BLOCK + 7])
    def test_blocked_tangent_is_bit_identical_to_the_expression(self, rows):
        rng = np.random.default_rng(rows)
        a, b = rng.normal(size=(rows, 9)), rng.normal(size=(rows, 9))
        s = rng.uniform(-1.0, 1.0, size=rows)
        coeff = np.where(rng.random(rows) < 0.3, 0.0, 1.0 / rows)
        scale = rng.uniform(0.1, 3.0, size=rows)
        expected = coeff[:, None] * (a - s[:, None] * b) / scale[:, None]
        assert _tangent(coeff, a, b, s, scale).tobytes() == expected.tobytes()

    def test_gradient_descent_direction(self):
        # one small step along -grad must not increase the loss
        rng = np.random.default_rng(42)
        pairs, embeddings = self.random_problem(rng, dim=4)
        adapter = ProjectionAdapter.identity(4)
        loss, grad = contrastive_loss(adapter, pairs, embeddings)
        stepped = ProjectionAdapter(adapter.matrix - 1e-3 * grad)
        after, _ = contrastive_loss(stepped, pairs, embeddings)
        assert after <= loss + 1e-12


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
            [("a:0", "a:1"), ("b:0", "b:1")],
            [("a:0", "b:0"), ("a:1", "b:1"), ("b:0", "a:1")],
        )
        return pairs, embeddings

    def test_loss_decreases(self):
        pairs, embeddings = self.separable_problem()
        config = TrainConfig(margin=0.2, learning_rate=0.05, epochs=40)
        adapter, history = train_adapter(pairs, embeddings, config)
        assert len(history) == 41
        assert history[-1] < history[0]

    def test_identity_start(self):
        pairs, embeddings = self.separable_problem()
        config = TrainConfig(epochs=0)
        adapter, history = train_adapter(pairs, embeddings, config)
        assert np.array_equal(adapter.matrix, np.eye(3))
        assert len(history) == 1

    def test_training_separates_clusters(self):
        pairs, embeddings = self.separable_problem()
        config = TrainConfig(margin=0.2, learning_rate=0.5, epochs=120)
        adapter, _ = train_adapter(pairs, embeddings, config)
        pos_cos = cosine(project(adapter, embeddings["a:0"]), project(adapter, embeddings["a:1"]))
        neg_cos = cosine(project(adapter, embeddings["a:0"]), project(adapter, embeddings["b:0"]))
        base_pos = cosine(embeddings["a:0"], embeddings["a:1"])
        base_neg = cosine(embeddings["a:0"], embeddings["b:0"])
        assert pos_cos > base_pos
        assert neg_cos < base_neg

    def test_deterministic(self):
        pairs, embeddings = self.separable_problem()
        config = TrainConfig(learning_rate=0.1, epochs=20)
        a, hist_a = train_adapter(pairs, embeddings, config)
        b, hist_b = train_adapter(pairs, embeddings, config)
        assert np.array_equal(a.matrix, b.matrix)
        assert hist_a == hist_b

    def test_empty_pairs_rejected(self):
        with pytest.raises(InputError):
            train_adapter(PairSet(), {"a:0": np.ones(2)}, TrainConfig())

    def test_missing_embedding_rejected(self):
        pairs = PairSet([("a:0", "b:0")], [])
        with pytest.raises(InputError, match="b:0"):
            train_adapter(pairs, {"a:0": np.ones(2)}, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(margin=1.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)


class TestPairsIO:
    def test_round_trip(self, tmp_path):
        pairs = PairSet(
            [("a:0", "b:0")],
            [("b:0", "c:0"), ("a:0", "c:0")],
            {"a:0:b:0": "task", "b:0:c:0": "expert"},
        )
        path = tmp_path / "pairs.json"
        save_pairs(pairs, str(path))
        again = load_pairs(str(path))
        assert again == pairs

    def test_load_rejects_duplicates(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text('{"positives": [["a:0", "b:0"], ["a:0", "b:0"]], "negatives": []}')
        with pytest.raises(InputError, match="duplicate"):
            load_pairs(str(path))

    def test_load_rejects_malformed_pair(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text('{"positives": [["a:0"]], "negatives": []}')
        with pytest.raises(InputError):
            load_pairs(str(path))
