"""Expert predictions, correctness judging, pool assignment, and sampling."""

import re
from unittest import mock

import numpy as np
import pytest

import oracles
from dialroute import (
    LLM,
    SLM,
    EmbeddingStore,
    ExpertId,
    ExpertPrediction,
    InputError,
    ReplayExpert,
    SyntheticExpert,
    SyntheticProfile,
    assign_expert_label,
    build_pools,
    judge_correct,
    load_pool,
    load_predictions,
    sample_pool,
    save_pool,
    write_predictions,
)
from dialroute import simulate
from dialroute.dialogue import LabeledTurn, Triplet
from dialroute.experts import ExpertPool, PoolEntry, validate_experts
from dialroute.simulate import make_experts, run_simulation

from conftest import edit_table

AREA = "hotel-area"
PRICE = "hotel-price"
NOISE = "noise-slot"


def lt(key_num, gold, state=None):
    return LabeledTurn(Triplet("d", key_num, state or {}, "", f"u{key_num}"), gold)


class TestExpertIds:
    def test_validate_sorts_by_rank(self):
        assert validate_experts([LLM, SLM]) == [SLM, LLM]

    def test_validate_rejects_duplicate_names(self):
        with pytest.raises(InputError):
            validate_experts([SLM, ExpertId("slm", 1)])

    def test_validate_rejects_duplicate_ranks(self):
        with pytest.raises(InputError):
            validate_experts([SLM, ExpertId("other", 0)])

    def test_validate_rejects_empty(self):
        with pytest.raises(InputError):
            validate_experts([])


class TestJudging:
    def test_exact_match_only(self):
        gold = {AREA: "north", PRICE: "cheap"}
        assert judge_correct(dict(gold), gold)
        assert not judge_correct({AREA: "north"}, gold)
        assert not judge_correct({**gold, "x-y": "z"}, gold)
        assert judge_correct({}, {})

    def test_assign_prefers_closer_then_lower_rank(self):
        gold = {AREA: "north", PRICE: "cheap"}
        preds = {SLM: {AREA: "north"}, LLM: dict(gold)}
        assert assign_expert_label(preds, gold) == LLM
        # both exactly right: rank 0 wins
        assert assign_expert_label({SLM: dict(gold), LLM: dict(gold)}, gold) == SLM
        # both equally wrong: rank 0 wins
        assert assign_expert_label({SLM: {}, LLM: {}}, gold) == SLM


class TestBuildPools:
    def setup_method(self):
        self.gold = [
            lt(0, {AREA: "north"}),
            lt(1, {PRICE: "cheap"}),
            lt(2, {AREA: "south"}),
            lt(3, {PRICE: "dear"}),
        ]
        self.embeddings = {t.key: np.full(4, float(i)) for i, t in enumerate(self.gold)}

    def test_lowest_rank_correct_wins_and_unsolved_excluded(self):
        # turn 0: both right -> slm; turn 1: only llm right -> llm;
        # turn 2: only slm right -> slm; turn 3: nobody right -> excluded
        predictions = {
            SLM: {
                "d:0": {AREA: "north"},
                "d:1": {},
                "d:2": {AREA: "south"},
                "d:3": {},
            },
            LLM: {
                "d:0": {AREA: "north"},
                "d:1": {PRICE: "cheap"},
                "d:2": {},
                "d:3": {PRICE: "wrong"},
            },
        }
        pools = build_pools(self.gold, predictions, self.embeddings)
        assert [e.key for e in pools[SLM].entries] == ["d:0", "d:2"]
        assert [e.key for e in pools[LLM].entries] == ["d:1"]
        total = sum(len(p.entries) for p in pools.values())
        assert total == 3  # d:3 excluded

    def test_pools_are_disjoint(self):
        predictions = {
            SLM: {t.key: t.gold_tlb for t in self.gold},
            LLM: {t.key: t.gold_tlb for t in self.gold},
        }
        pools = build_pools(self.gold, predictions, self.embeddings)
        keys_slm = {e.key for e in pools[SLM].entries}
        keys_llm = {e.key for e in pools[LLM].entries}
        assert keys_slm and not keys_llm  # rank 0 wins every tie
        assert keys_slm.isdisjoint(keys_llm)

    def test_missing_prediction_names_turn(self):
        predictions = {SLM: {"d:0": {}}, LLM: {"d:0": {}}}
        with pytest.raises(InputError, match="d:1"):
            build_pools(self.gold[:2], predictions, self.embeddings)

    def test_missing_embedding_names_turn(self):
        predictions = {
            SLM: {t.key: t.gold_tlb for t in self.gold},
            LLM: {t.key: {} for t in self.gold},
        }
        with pytest.raises(InputError, match="no embedding"):
            build_pools(self.gold, predictions, {})

    def test_entries_carry_given_vectors(self):
        predictions = {
            SLM: {t.key: t.gold_tlb for t in self.gold},
            LLM: {t.key: {} for t in self.gold},
        }
        pools = build_pools(self.gold, predictions, self.embeddings)
        entry = pools[SLM].entries[2]
        assert np.array_equal(entry.vector, self.embeddings["d:2"])


class TestSamplePool:
    def make_pool(self, n):
        entries = [PoolEntry(f"d:{i}", f"text {i}", np.ones(2)) for i in range(n)]
        return ExpertPool(SLM, entries)

    def test_smaller_pool_kept_whole(self):
        sampled = sample_pool(self.make_pool(3), 10, seed=1)
        assert [e.key for e in sampled.entries] == ["d:0", "d:1", "d:2"]

    def test_sample_is_subset_without_replacement_sorted(self):
        sampled = sample_pool(self.make_pool(50), 10, seed=1)
        keys = [e.key for e in sampled.entries]
        assert len(keys) == 10 and len(set(keys)) == 10
        assert keys == sorted(keys)

    def test_seed_determinism(self):
        a = sample_pool(self.make_pool(50), 10, seed=4)
        b = sample_pool(self.make_pool(50), 10, seed=4)
        c = sample_pool(self.make_pool(50), 10, seed=5)
        assert [e.key for e in a.entries] == [e.key for e in b.entries]
        assert [e.key for e in a.entries] != [e.key for e in c.entries]


class TestSyntheticExpert:
    def profile(self, accuracy_in=1.0, accuracy_out=0.0):
        return SyntheticProfile(
            competence_predicate=lambda triplet: "hotel" in triplet.user_utterance,
            accuracy_in=accuracy_in,
            accuracy_out=accuracy_out,
            confidence_when_correct=0.9,
            confidence_when_wrong=0.2,
        )

    def test_competence_follows_predicate(self):
        expert = SyntheticExpert(
            SLM,
            self.profile(),
            gold={"d:0": {AREA: "north"}, "d:1": {AREA: "south"}},
            seed=0,
        )
        hit = expert.predict(Triplet("d", 0, {}, "", "a hotel please"))
        assert hit.tlb == {AREA: "north"} and hit.confidence == 0.9
        miss = expert.predict(Triplet("d", 1, {}, "", "a flight please"))
        assert miss.tlb != {AREA: "south"} and miss.confidence == 0.2

    def test_wrong_answers_are_corruptions_not_gold(self):
        gold = {f"d:{i}": {AREA: "north", PRICE: "cheap"} for i in range(20)}
        expert = SyntheticExpert(SLM, self.profile(accuracy_in=0.0), gold, seed=3)
        for i in range(20):
            pred = expert.predict(Triplet("d", i, {}, "", "hotel"))
            assert pred.tlb != gold[f"d:{i}"]

    def test_deterministic_per_seed(self):
        gold = {f"d:{i}": {AREA: "north"} for i in range(30)}
        mk = lambda: SyntheticExpert(SLM, self.profile(0.5, 0.5), gold, seed=11)
        a, b = mk(), mk()
        for i in range(30):
            t = Triplet("d", i, {}, "", "hotel x")
            assert a.predict(t) == b.predict(t)

    def test_simulate_routes_the_same_on_replayed_predictions(self, small_sim, tmp_path):
        """``run_simulation`` routes on replayed predictions; asking the
        synthetic experts themselves on every routed turn, whose triplets
        carry the predicted prior state, gives the same five runs and files."""
        spec = small_sim.spec
        gold = {**small_sim.holdout_corpus.gold_tlbs(), **small_sim.test_corpus.gold_tlbs()}
        synthetic = {expert.id: expert for expert in make_experts(spec, gold)}
        asked = []

        def ask(expert_id, _predictions):
            expert = synthetic[expert_id]
            asked.append(expert_id)
            return expert

        with mock.patch.object(simulate, "ReplayExpert", ask):
            direct = run_simulation(spec, tmp_path)
        assert asked == [SLM, LLM]
        assert len(direct.runs) == 5
        for name, run in direct.runs.items():
            assert run.records == small_sim.runs[name].records, name
        for path in sorted(small_sim.out_dir.iterdir()):
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("accuracy_in, accuracy_out", [(0.0, 0.0), (1.0, 1.0), (0.95, 0.3)])
    def test_matches_a_fresh_generator_per_call(self, accuracy_in, accuracy_out):
        """Both experts of a small spec, on every gold key, every third gold
        belief emptied (a wrong answer then adds the noise slot)."""
        spec = simulate.SimulationSpec(
            dialogues=8,
            holdout_dialogues=8,
            slm_accuracy_in=accuracy_in,
            slm_accuracy_out=accuracy_out,
            llm_accuracy_in=accuracy_in,
            llm_accuracy_out=accuracy_out,
        )
        turns = simulate.generate_corpus(spec, spec.dialogues, "dlg", "test").labeled()
        gold = {t.key: ({} if i % 3 == 0 else t.gold_tlb) for i, t in enumerate(turns)}
        noisy = 0
        for expert in make_experts(spec, gold):
            for turn in turns:
                prediction = expert.predict(turn.triplet)
                assert prediction == oracles.synthetic_predict(expert, turn.triplet), turn.key
                noisy += NOISE in prediction.tlb
        assert (noisy > 0) == (accuracy_in < 1.0)

    def test_key_added_to_gold_after_the_first_call(self):
        gold = {"d:0": {AREA: "north"}}
        expert = SyntheticExpert(SLM, self.profile(0.5, 0.5), gold, seed=5)
        expert.predict(Triplet("d", 0, {}, "", "hotel"))
        gold["d:1"] = {}
        late = Triplet("d", 1, {}, "", "hotel")
        assert expert.predict(late) == oracles.synthetic_predict(expert, late)

    def test_key_missing_from_gold_is_an_input_error(self):
        expert = SyntheticExpert(SLM, self.profile(), {"d:0": {AREA: "north"}}, seed=0)
        message = "synthetic expert 'slm' has no gold belief for 'd:9'"
        for _ in range(2):  # before the first call derives the draws, and after
            with pytest.raises(InputError, match=re.escape(message)):
                expert.predict(Triplet("d", 9, {}, "", "hotel"))
            expert.predict(Triplet("d", 0, {}, "", "hotel"))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            SyntheticProfile(lambda t: True, 1.5, 0.0)
        with pytest.raises(ValueError):
            SyntheticProfile(lambda t: True, 0.5, 0.0, confidence_when_wrong=1.2)


class TestPredictionsIO:
    def preds(self):
        return [
            ExpertPrediction("d", 0, "slm", {AREA: "north"}, 0.8),
            ExpertPrediction("d", 1, "slm", {}, None),
            ExpertPrediction("d", 0, "llm", {PRICE: "cheap"}, 0.5),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_predictions(self.preds(), str(path))
        grouped = load_predictions(str(path))
        assert set(grouped) == {"slm", "llm"}
        assert grouped["slm"]["d:0"].tlb == {AREA: "north"}
        assert grouped["slm"]["d:0"].confidence == 0.8
        assert grouped["slm"]["d:1"].confidence is None

    def test_values_canonicalized_and_nulls_dropped(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"dialogue_id": "d", "turn_id": 0, "expert": "slm", '
            '"tlb": {"Hotel-Area": "North", "hotel-price": "none"}}\n'
        )
        grouped = load_predictions(str(path))
        assert grouped["slm"]["d:0"].tlb == {AREA: "north"}

    def test_duplicate_turn_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        record = '{"dialogue_id": "d", "turn_id": 0, "expert": "slm", "tlb": {}}\n'
        path.write_text(record + record)
        with pytest.raises(InputError, match="duplicate"):
            load_predictions(str(path))

    def test_confidence_out_of_range(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"dialogue_id": "d", "turn_id": 0, "expert": "slm", "tlb": {}, "confidence": 1.5}\n'
        )
        with pytest.raises(InputError, match="confidence"):
            load_predictions(str(path))

    @pytest.mark.parametrize("confidence", ["true", "false"])
    def test_boolean_confidence_rejected(self, tmp_path, confidence):
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"dialogue_id": "d", "turn_id": 0, "expert": "slm", "tlb": {}, '
            f'"confidence": {confidence}}}\n'
        )
        with pytest.raises(InputError, match="confidence must be a number"):
            load_predictions(str(path))

    def test_replay_expert(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_predictions(self.preds(), str(path))
        grouped = load_predictions(str(path))
        replay = ReplayExpert(SLM, grouped["slm"])
        assert replay.predict(Triplet("d", 0, {}, "", "u")).tlb == {AREA: "north"}
        with pytest.raises(InputError, match="d:9"):
            replay.predict(Triplet("d", 9, {}, "", "u"))


class TestPoolIO:
    def test_round_trip(self, tmp_path):
        entries = [PoolEntry(f"d:{i}", f"[state] none [user] u{i}", np.full(4, i, dtype=np.float32)) for i in range(3)]
        pool = ExpertPool(LLM, entries)
        path = tmp_path / "pool.json"
        save_pool(pool, str(path))
        again = load_pool(str(path), {"slm": SLM, "llm": LLM})
        assert again.expert == LLM
        assert [e.key for e in again.entries] == ["d:0", "d:1", "d:2"]
        assert np.allclose(again.entries[2].vector, entries[2].vector)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300])
    def test_non_finite_vector_rejected_naming_its_key(self, tmp_path, value):
        """1e300 in a float64 body overflows the float32 a pool holds."""
        path = tmp_path / "pool.json"
        entries = [PoolEntry(f"d:{i}", "", np.ones(2, dtype=np.float32)) for i in range(2)]
        save_pool(ExpertPool(SLM, entries), str(path))

        def bad_row(head, body):
            body = body.astype(np.float64)
            body[1, 0] = value
            return head, body

        edit_table(path, bad_row)
        with pytest.raises(InputError, match="vector for 'd:1'"):
            load_pool(str(path), {"slm": SLM})

    @pytest.mark.parametrize(
        "entries, message",
        [
            ("abc", "entries must be a list"),
            (["d:0"], "entry 0 is not an object"),
            ([{"text": "t"}], "entry 0: key is missing"),
            ([{"key": "d:0", "text": 5}], "entry 0: text must be a string"),
        ],
    )
    def test_malformed_entries_rejected(self, tmp_path, entries, message):
        path = tmp_path / "pool.json"
        save_pool(ExpertPool(SLM, [PoolEntry("d:0", "t", np.ones(2, dtype=np.float32))]), str(path))
        edit_table(path, lambda head, body: ({**head, "entries": entries}, body))
        with pytest.raises(InputError, match=message):
            load_pool(str(path), {"slm": SLM})

    def test_unknown_expert_rejected(self, tmp_path):
        pool = ExpertPool(ExpertId("ghost", 2), [])
        path = tmp_path / "pool.json"
        save_pool(pool, str(path))
        with pytest.raises(InputError, match="ghost"):
            load_pool(str(path), {"slm": SLM})
