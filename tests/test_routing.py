"""Routers against exhaustive references, threshold tuning, and run files."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialroute import (
    LLM,
    SLM,
    CascadeRouter,
    ClassifierRouter,
    ConstantRouter,
    ExpertId,
    ExpertPrediction,
    InputError,
    OracleRouter,
    ReplayExpert,
    RetrievalRouter,
    RoutingDecision,
    SlotName,
    TurnContext,
    load_run,
    run_pipeline,
    save_run,
    train_classifier_router,
    tune_cascade_threshold,
)
from dialroute.experts import ExpertPool, PoolEntry
from dialroute.routing import LogisticModel

from conftest import corpus_of, cosine, dlg, trn

AREA = SlotName("hotel", "area")


def entry(key, vector):
    return PoolEntry(key, f"text {key}", np.asarray(vector, dtype=np.float64))


def ctx(query, key="q:0", gold=None, predict=None):
    return TurnContext(
        key,
        None,
        gold or {},
        None if query is None else np.asarray(query, dtype=np.float64),
        predict or (lambda e: (_ for _ in ()).throw(AssertionError("no predict"))),
    )


def reference_retrieval(pools, k, query):
    """Exhaustive re-implementation: score every entry, sort, vote."""
    scored = []
    for pool in pools:
        for e in pool.entries:
            scored.append((cosine(query, e.vector), e.key, pool.expert))
    scored.sort(key=lambda t: (-t[0], t[1], t[2].priority_rank))
    top = scored[: min(k, len(scored))]
    votes = {pool.expert: 0 for pool in pools}
    for _, _, owner in top:
        votes[owner] += 1
    experts = sorted(votes, key=lambda e: e.priority_rank)
    winner = max(experts, key=lambda e: (votes[e], -e.priority_rank))
    return winner, [key for _, key, _ in top]


def sorted_retrieval(pools, k, query):
    """The full Python sort that ranks every entry by (score desc, key asc,
    priority rank), scoring with the router's own float expression."""
    keys = [e.key for pool in pools for e in pool.entries]
    owners = [pool.expert for pool in pools for _ in pool.entries]
    matrix = np.vstack([np.asarray(e.vector, dtype=np.float64) for p in pools for e in p.entries])
    norms = np.linalg.norm(matrix, axis=1)
    row_norms = np.where(norms == 0.0, np.inf, norms)
    q = np.asarray(query, dtype=np.float64)
    qnorm = float(np.linalg.norm(q))
    scores = np.zeros(len(keys)) if qnorm == 0.0 else (matrix @ q) / (row_norms * qnorm)
    ranked = sorted(
        range(len(keys)), key=lambda i: (-scores[i], keys[i], owners[i].priority_rank)
    )[: min(k, len(keys))]
    experts = sorted((pool.expert for pool in pools), key=lambda e: e.priority_rank)
    votes = {expert: 0 for expert in experts}
    for i in ranked:
        votes[owners[i]] += 1
    chosen = min(experts, key=lambda e: (-votes[e], e.priority_rank))
    return chosen, votes, [(keys[i], float(scores[i])) for i in ranked]


MID = ExpertId("mid", 2)


@st.composite
def retrieval_cases(draw):
    """Small integer vectors drawn from a few distinct rows, so exact score
    ties at the k-th boundary, zero-norm rows and zero queries are common."""
    dim = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    distinct = draw(st.lists(vector, min_size=1, max_size=5)) + [[0] * dim]
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=24))
    n = len(rows)
    keys = draw(st.permutations([f"d{i}:{i % 3}" for i in range(n)]))
    owners = draw(st.lists(st.sampled_from([SLM, LLM, MID]), min_size=n, max_size=n))
    entries = [(owner, entry(key, row)) for key, row, owner in zip(keys, rows, owners)]
    pools = [ExpertPool(x, [e for owner, e in entries if owner == x]) for x in (SLM, LLM, MID)]
    query = draw(st.one_of(st.just([0] * dim), vector))
    k = draw(st.integers(1, n + 3))
    return pools, k, query


class TestRetrievalRouter:
    def two_pools(self):
        rng = np.random.default_rng(0)
        slm_entries = [entry(f"s:{i}", rng.normal(size=6)) for i in range(8)]
        llm_entries = [entry(f"l:{i}", rng.normal(size=6)) for i in range(8)]
        return [ExpertPool(SLM, slm_entries), ExpertPool(LLM, llm_entries)]

    def test_matches_exhaustive_reference(self):
        pools = self.two_pools()
        router = RetrievalRouter(pools, 5)
        rng = np.random.default_rng(1)
        for _ in range(200):
            q = rng.normal(size=6)
            decision = router.decide(ctx(q))
            expected_winner, expected_keys = reference_retrieval(pools, 5, q)
            assert decision.chosen == expected_winner
            assert [key for key, _ in decision.neighbors] == expected_keys

    def test_five_five_tie_goes_to_rank_zero(self):
        v = np.ones(6)
        pools = [
            ExpertPool(SLM, [entry(f"s:{i}", v) for i in range(5)]),
            ExpertPool(LLM, [entry(f"l:{i}", v) for i in range(5)]),
        ]
        decision = RetrievalRouter(pools, 10).decide(ctx(v))
        assert decision.votes == {SLM: 5, LLM: 5}
        assert decision.chosen == SLM

    def test_majority_wins_even_if_higher_rank(self):
        q = np.array([1.0, 0.0])
        pools = [
            ExpertPool(SLM, [entry("s:0", [0.0, 1.0])]),
            ExpertPool(LLM, [entry(f"l:{i}", [1.0, 0.1 * i]) for i in range(3)]),
        ]
        decision = RetrievalRouter(pools, 3).decide(ctx(q))
        assert decision.chosen == LLM
        assert decision.votes == {SLM: 0, LLM: 3}

    def test_fewer_entries_than_k_all_vote(self):
        pools = [
            ExpertPool(SLM, [entry("s:0", [1.0, 0.0])]),
            ExpertPool(LLM, [entry("l:0", [0.0, 1.0]), entry("l:1", [0.5, 0.5])]),
        ]
        decision = RetrievalRouter(pools, 10).decide(ctx([1.0, 1.0]))
        assert sum(decision.votes.values()) == 3

    def test_score_tie_breaks_on_key(self):
        v = np.array([1.0, 0.0])
        pools = [
            ExpertPool(SLM, [entry("b:0", v)]),
            ExpertPool(LLM, [entry("a:0", v * 2)]),  # same cosine, earlier key
        ]
        decision = RetrievalRouter(pools, 1).decide(ctx(v))
        assert decision.neighbors[0][0] == "a:0"
        assert decision.chosen == LLM

    def test_zero_query_scores_everything_zero(self):
        pools = self.two_pools()
        decision = RetrievalRouter(pools, 4).decide(ctx(np.zeros(6)))
        assert all(score == 0.0 for _, score in decision.neighbors)
        # ranking then falls back to key order
        assert [key for key, _ in decision.neighbors] == sorted(
            key for pool in pools for key in [e.key for e in pool.entries]
        )[:4]

    def test_empty_pools_rejected(self):
        with pytest.raises(InputError):
            RetrievalRouter([ExpertPool(SLM, []), ExpertPool(LLM, [])], 5)

    def test_duplicate_keys_across_pools_rejected(self):
        v = np.ones(2)
        with pytest.raises(InputError, match="x:0"):
            RetrievalRouter(
                [ExpertPool(SLM, [entry("x:0", v)]), ExpertPool(LLM, [entry("x:0", v)])], 1
            )

    def test_missing_query_vector(self):
        with pytest.raises(ValueError):
            RetrievalRouter(self.two_pools(), 3).decide(ctx(None))

    @settings(max_examples=300, deadline=None)
    @given(retrieval_cases())
    def test_partial_selection_matches_full_sort(self, case):
        pools, k, query = case
        decision = RetrievalRouter(pools, k).decide(ctx(query))
        chosen, votes, neighbors = sorted_retrieval(pools, k, query)
        assert decision.chosen == chosen
        assert dict(decision.votes) == votes
        assert [key for key, _ in decision.neighbors] == [key for key, _ in neighbors]
        assert [np.float64(s).tobytes() for _, s in decision.neighbors] == [
            np.float64(s).tobytes() for _, s in neighbors
        ]

    @pytest.mark.parametrize("n", [1027, 8631])
    def test_ragged_pool_with_exact_ties_matches_brute_force(self, n):
        # n mod 4 != 0, so the mat-vec's last rows fall outside its 4-row
        # blocks. Integer rows drawn from 12 distinct ones give exact dot
        # products wherever a row sits, so the k-th score is tied many times.
        rng = np.random.default_rng(n)
        distinct = rng.integers(-3, 4, size=(12, 16))
        rows = distinct[rng.integers(0, 12, size=n)]
        owners = rng.choice([SLM, LLM, MID], size=n)
        keys = [f"d{i:05d}:0" for i in rng.permutation(n)]
        pools = [
            ExpertPool(x, [entry(k, r) for k, r, o in zip(keys, rows, owners) if o == x])
            for x in (SLM, LLM, MID)
        ]
        for k in (1, 10, 64):
            router = RetrievalRouter(pools, k)
            for query in [distinct[0], distinct[5], rng.integers(-3, 4, size=16)]:
                decision = router.decide(ctx(query))
                chosen, votes, neighbors = sorted_retrieval(pools, k, query)
                assert decision.chosen == chosen
                assert dict(decision.votes) == votes
                assert list(decision.neighbors) == neighbors
                assert len({score for _, score in neighbors}) < k or k == 1
                winner, expected_keys = reference_retrieval(pools, k, query)
                assert decision.chosen == winner
                assert [key for key, _ in decision.neighbors] == expected_keys

    @pytest.mark.parametrize("vector", [[1.0, np.nan], [np.inf, 0.0], "abc", [[1.0, 2.0]]])
    def test_rejects_non_numeric_or_non_finite_vectors(self, vector):
        bad = PoolEntry("x:0", "text", vector)
        with pytest.raises(InputError, match="x:0"):
            RetrievalRouter([ExpertPool(SLM, [entry("a:0", [1.0, 0.0]), bad])], 1)

    def test_rejects_pools_of_different_dims(self):
        pools = [ExpertPool(SLM, [entry("a:0", [1.0, 0.0])]), ExpertPool(LLM, [entry("b:0", [1.0])])]
        with pytest.raises(InputError, match="dimension"):
            RetrievalRouter(pools, 1)


class TestOracleRouter:
    def test_first_correct_by_priority(self):
        gold = {AREA: "north"}
        preds = {
            SLM: ExpertPrediction("q", 0, "slm", {AREA: "north"}, None),
            LLM: ExpertPrediction("q", 0, "llm", {AREA: "north"}, None),
        }
        decision = OracleRouter([LLM, SLM]).decide(ctx(None, gold=gold, predict=preds.get))
        assert decision.chosen == SLM

    def test_falls_through_to_correct_expert(self):
        gold = {AREA: "north"}
        preds = {
            SLM: ExpertPrediction("q", 0, "slm", {}, None),
            LLM: ExpertPrediction("q", 0, "llm", {AREA: "north"}, None),
        }
        decision = OracleRouter([SLM, LLM]).decide(ctx(None, gold=gold, predict=preds.get))
        assert decision.chosen == LLM

    def test_nobody_correct_stays_at_rank_zero(self):
        gold = {AREA: "north"}
        preds = {
            SLM: ExpertPrediction("q", 0, "slm", {}, None),
            LLM: ExpertPrediction("q", 0, "llm", {}, None),
        }
        decision = OracleRouter([SLM, LLM]).decide(ctx(None, gold=gold, predict=preds.get))
        assert decision.chosen == SLM
        assert decision.invoked == (SLM,)


class TestCascadeRouter:
    def predict_with(self, confidence):
        def predict(expert):
            if expert == SLM:
                return ExpertPrediction("q", 0, "slm", {}, confidence)
            return ExpertPrediction("q", 0, "llm", {AREA: "north"}, None)

        return predict

    def test_confident_stays_cheap(self):
        router = CascadeRouter([SLM, LLM], 0.6)
        decision = router.decide(ctx(None, predict=self.predict_with(0.9)))
        assert decision.chosen == SLM and decision.invoked == (SLM,)

    def test_boundary_stays(self):
        router = CascadeRouter([SLM, LLM], 0.6)
        decision = router.decide(ctx(None, predict=self.predict_with(0.6)))
        assert decision.chosen == SLM

    def test_doubt_defers_and_pays_twice(self):
        router = CascadeRouter([SLM, LLM], 0.6)
        decision = router.decide(ctx(None, predict=self.predict_with(0.3)))
        assert decision.chosen == LLM
        assert decision.invoked == (SLM, LLM)

    def test_missing_confidence_is_an_input_error(self):
        router = CascadeRouter([SLM, LLM], 0.6)
        with pytest.raises(InputError, match="confidence"):
            router.decide(ctx(None, predict=self.predict_with(None)))

    def test_needs_two_experts(self):
        with pytest.raises(InputError):
            CascadeRouter([SLM], 0.5)


class TestThresholdTuning:
    def test_separable_picks_the_gap_top(self):
        # correct turns at 0.9 (fallback would botch them), wrong ones at 0.3
        # (fallback fixes them): only tau in (0.3, 0.9] is perfect, and the
        # grid point there is 0.9
        obs = [(0.9, True, False)] * 6 + [(0.3, False, True)] * 4
        assert tune_cascade_threshold(obs) == 0.9

    def test_worthless_fallback_keeps_everything(self):
        obs = [(0.9, True, False), (0.5, True, False), (0.2, True, False)]
        # primary always right: best is to defer nothing; largest such tau = 0.2
        assert tune_cascade_threshold(obs) == 0.2

    def test_hopeless_primary_defers_everything(self):
        obs = [(0.9, False, True), (0.5, False, True)]
        assert tune_cascade_threshold(obs) == 1.0

    def test_all_confidences_one_and_correct(self):
        assert tune_cascade_threshold([(1.0, True, False)]) == 1.0

    def test_exhaustive_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            obs = [
                (float(rng.integers(0, 11)) / 10, bool(rng.integers(2)), bool(rng.integers(2)))
                for _ in range(rng.integers(1, 12))
            ]
            grid = sorted({0.0, 1.0} | {c for c, _, _ in obs})
            best = max(
                grid,
                key=lambda t: (
                    sum((p if c >= t else f) for c, p, f in obs),
                    t,
                ),
            )
            assert tune_cascade_threshold(obs) == best

    def test_empty_observations_rejected(self):
        with pytest.raises(InputError):
            tune_cascade_threshold([])

    def test_out_of_range_confidence_rejected(self):
        with pytest.raises(InputError):
            tune_cascade_threshold([(1.2, True, True)])


class TestClassifierRouter:
    def test_learns_separable_labels(self):
        rng = np.random.default_rng(2)
        easy = rng.normal(size=(40, 4)) + np.array([3.0, 0, 0, 0])
        hard = rng.normal(size=(40, 4)) - np.array([3.0, 0, 0, 0])
        X = np.vstack([easy, hard])
        y = np.array([0.0] * 40 + [1.0] * 40)
        model = train_classifier_router(X, y, learning_rate=0.5, epochs=300)
        router = ClassifierRouter(model, [SLM, LLM])
        assert router.decide(ctx(easy[0])).chosen == SLM
        assert router.decide(ctx(hard[0])).chosen == LLM

    def test_boundary_goes_to_rank_zero(self):
        model = LogisticModel(np.zeros(3), 0.0)  # p = 0.5 everywhere
        router = ClassifierRouter(model, [SLM, LLM])
        assert router.decide(ctx(np.ones(3))).chosen == SLM

    def test_single_class_training_warns_and_is_constant(self, caplog):
        X = np.ones((5, 2))
        model = train_classifier_router(X, np.ones(5))
        assert model.probability(np.zeros(2)) > 0.99

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            train_classifier_router(np.ones((2, 2)), np.array([0.0, 2.0]))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            train_classifier_router(np.zeros((0, 2)), np.zeros(0))

    def test_exactly_two_experts(self):
        with pytest.raises(InputError):
            ClassifierRouter(LogisticModel(np.zeros(2), 0.0), [SLM, LLM, ExpertId("xl", 2)])


class TestRunPipeline:
    def corpus(self):
        return corpus_of(
            dlg("d1", [trn(0, "hotel north", tlb={"hotel-area": "north"}),
                       trn(1, "cheap", "ok", {"hotel-price": "cheap"})]),
            dlg("d2", [trn(0, "train monday", tlb={"train-day": "monday"})]),
        )

    def test_accumulates_predicted_state(self):
        corpus = self.corpus()
        perfect = {key: tlb for key, tlb in corpus.gold_tlbs().items()}
        experts = [
            ReplayExpert(SLM, {k: ExpertPrediction(k.rsplit(":", 1)[0], int(k.rsplit(":", 1)[1]), "slm", v, None) for k, v in perfect.items()}),
            ReplayExpert(LLM, {k: ExpertPrediction(k.rsplit(":", 1)[0], int(k.rsplit(":", 1)[1]), "llm", {}, None) for k in perfect}),
        ]
        run = run_pipeline(corpus, experts, ConstantRouter(SLM))
        assert run.keys() == ["d1:0", "d1:1", "d2:0"]
        assert run.records[1].state == {
            SlotName("hotel", "area"): "north",
            SlotName("hotel", "price"): "cheap",
        }
        assert run.records[2].state == {SlotName("train", "day"): "monday"}

    def test_each_expert_predicts_at_most_once_per_turn(self):
        corpus = self.corpus()
        calls = []

        class CountingExpert:
            def __init__(self, expert_id):
                self.id = expert_id

            def predict(self, triplet):
                calls.append((self.id.name, triplet.key))
                return ExpertPrediction(triplet.dialogue_id, triplet.turn_id, self.id.name, {}, 0.5)

        class GreedyRouter:
            kind = "greedy"
            charges_router_cost = False

            def decide(self, context):
                context.predict(SLM)
                context.predict(SLM)  # memoized: still one call
                return RoutingDecision(context.key, SLM, invoked=(SLM,))

        run_pipeline(corpus, [CountingExpert(SLM), CountingExpert(LLM)], GreedyRouter())
        assert sorted(calls) == sorted([("slm", k) for k in ["d1:0", "d1:1", "d2:0"]])

    def test_gold_priors_rebuild_from_gold(self):
        corpus = self.corpus()
        seen_states = []

        class SpyRouter:
            kind = "spy"
            charges_router_cost = False

            def decide(self, context):
                seen_states.append(dict(context.triplet.prev_state))
                return RoutingDecision(context.key, SLM, invoked=(SLM,))

        experts = [
            ReplayExpert(SLM, {k: ExpertPrediction(k.rsplit(":", 1)[0], int(k.rsplit(":", 1)[1]), "slm", {}, None) for k in corpus.gold_tlbs()}),
            ReplayExpert(LLM, {k: ExpertPrediction(k.rsplit(":", 1)[0], int(k.rsplit(":", 1)[1]), "llm", {}, None) for k in corpus.gold_tlbs()}),
        ]
        run_pipeline(corpus, experts, SpyRouter(), prior_mode="gold")
        # despite slm predicting nothing, turn d1:1 sees the gold prior
        assert seen_states[1] == {SlotName("hotel", "area"): "north"}

    def test_snapshot_records_router_and_extras(self):
        corpus = self.corpus()
        experts = [
            ReplayExpert(SLM, {k: ExpertPrediction(k.rsplit(":", 1)[0], int(k.rsplit(":", 1)[1]), "slm", {}, None) for k in corpus.gold_tlbs()}),
            ReplayExpert(LLM, {k: ExpertPrediction(k.rsplit(":", 1)[0], int(k.rsplit(":", 1)[1]), "llm", {}, None) for k in corpus.gold_tlbs()}),
        ]
        run = run_pipeline(corpus, experts, ConstantRouter(SLM), config={"seed": 7})
        assert run.config["router"] == "constant"
        assert run.config["charges_router_cost"] is False
        assert run.config["seed"] == 7

    def test_missing_prediction_names_dialogue_and_turn(self):
        corpus = self.corpus()
        experts = [ReplayExpert(SLM, {}), ReplayExpert(LLM, {})]
        with pytest.raises(InputError, match="d1.*turn 0"):
            run_pipeline(corpus, experts, ConstantRouter(SLM))


class TestRunIO:
    def small_run(self):
        corpus = corpus_of(dlg("d1", [trn(0, "hi", tlb={"hotel-area": "north"}),
                                      trn(1, "more", "sys", {"hotel-price": "cheap"})]))
        gold = corpus.gold_tlbs()

        def expert(expert_id, beliefs, conf):
            return ReplayExpert(
                expert_id,
                {
                    k: ExpertPrediction(
                        k.rsplit(":", 1)[0], int(k.rsplit(":", 1)[1]), expert_id.name, v, conf
                    )
                    for k, v in beliefs.items()
                },
            )

        experts = [
            expert(SLM, {k: dict(v) for k, v in gold.items()}, 0.9),
            expert(LLM, {k: {} for k in gold}, None),
        ]
        return run_pipeline(corpus, experts, CascadeRouter([SLM, LLM], 0.5), config={"seed": 0}), corpus

    def test_round_trip_preserves_decisions_and_states(self, tmp_path):
        run, _ = self.small_run()
        path = tmp_path / "run.jsonl"
        save_run(run, str(path))
        again = load_run(str(path))
        assert again.experts == run.experts
        assert again.config == run.config
        assert len(again) == len(run)
        for a, b in zip(again.records, run.records):
            assert a.decision.key == b.decision.key
            assert a.decision.chosen == b.decision.chosen
            assert a.decision.invoked == b.decision.invoked
            assert a.tlb == b.tlb
            assert a.state == b.state

    def test_save_is_byte_deterministic(self, tmp_path):
        run, _ = self.small_run()
        save_run(run, str(tmp_path / "a.jsonl"))
        save_run(run, str(tmp_path / "b.jsonl"))
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_missing_summary_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"key": "d:0", "expert": "slm", "tlb": {}}\n')
        with pytest.raises(InputError, match="summary"):
            load_run(str(path))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("votes", {"slm": "x"}),
            ("votes", ["slm"]),
            ("neighbors", [["a"]]),
            ("neighbors", [["a", "near"]]),
            ("neighbors", 3),
            ("confidence", "hi"),
            ("tlb", ["hotel-area"]),
            ("invoked", ["ghost"]),
            ("expert", ["slm"]),
        ],
    )
    def test_malformed_turn_values_rejected(self, tmp_path, field, value):
        run, _ = self.small_run()
        path = tmp_path / "run.jsonl"
        save_run(run, str(path))
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record[field] = value
        path.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        with pytest.raises(InputError, match="malformed turn record"):
            load_run(str(path))

    @pytest.mark.parametrize("rank", ["1", 1.5, None, True])
    def test_non_integer_priority_rank_rejected(self, tmp_path, rank):
        run, _ = self.small_run()
        path = tmp_path / "run.jsonl"
        save_run(run, str(path))
        lines = path.read_text().splitlines()
        summary = json.loads(lines[-1])
        summary["summary"]["experts"][0]["priority_rank"] = rank
        path.write_text("\n".join([*lines[:-1], json.dumps(summary)]) + "\n")
        with pytest.raises(InputError, match="integer-ranked"):
            load_run(str(path))

    def test_record_after_summary_rejected(self, tmp_path):
        run, _ = self.small_run()
        path = tmp_path / "run.jsonl"
        save_run(run, str(path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "d1:9", "expert": "slm", "tlb": {}}\n')
        with pytest.raises(InputError, match="after the summary"):
            load_run(str(path))
