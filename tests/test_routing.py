"""Routers against exhaustive references, threshold tuning, and run files."""

import json
import math

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
    HashEmbedder,
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


def entry(key, vector, dtype=np.float64):
    return PoolEntry(key, f"text {key}", np.asarray(vector, dtype=dtype))


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
    priority rank), scoring every row with the router's own row-wise float64
    expression. A nonzero query whose norm is under 2**-60 is first scaled by
    a power of two that brings its largest entry near 1: which power does not
    change a bit of the scores, as long as nothing underflows or overflows."""
    keys = [e.key for pool in pools for e in pool.entries]
    owners = [pool.expert for pool in pools for _ in pool.entries]
    matrix = np.vstack([np.asarray(e.vector, dtype=np.float64) for p in pools for e in p.entries])
    norms = np.linalg.norm(matrix, axis=1)
    row_norms = np.where(norms == 0.0, np.inf, norms)
    q = np.asarray(query, dtype=np.float64)
    largest = float(np.abs(q).max())
    if largest > 0.0 and np.linalg.norm(q) < 2.0**-60:
        q = q * 2.0 ** -round(math.log2(largest))
    qnorm = float(np.linalg.norm(q))
    scores = np.zeros(len(keys)) if qnorm == 0.0 else (matrix * q).sum(axis=1) / (row_norms * qnorm)
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


def as_float32(pools):
    """``pools`` with every vector as a float32 array, which holds the small
    integers of these tests exactly."""
    return [
        ExpertPool(p.expert, [entry(e.key, e.vector, np.float32) for e in p.entries]) for p in pools
    ]


def assert_matches_full_sort(router, pools, k, query):
    """The decision equals the full sort's, neighbour scores bit for bit."""
    decision = router.decide(ctx(query))
    chosen, votes, neighbors = sorted_retrieval(pools, k, query)
    assert decision.chosen == chosen
    assert dict(decision.votes) == votes
    assert [key for key, _ in decision.neighbors] == [key for key, _ in neighbors]
    assert [np.float64(s).tobytes() for _, s in decision.neighbors] == [
        np.float64(s).tobytes() for _, s in neighbors
    ]


def assert_ragged_pool_matches_brute_force(n, dtype):
    rng = np.random.default_rng(n)
    distinct = rng.integers(-3, 4, size=(12, 16))
    rows = distinct[rng.integers(0, 12, size=n)]
    owners = rng.choice([SLM, LLM, MID], size=n)
    keys = [f"d{i:05d}:0" for i in rng.permutation(n)]
    pools = [
        ExpertPool(x, [entry(k, r, dtype) for k, r, o in zip(keys, rows, owners) if o == x])
        for x in (SLM, LLM, MID)
    ]
    for k in (1, 10, 64):
        router = RetrievalRouter(pools, k)
        assert router._matrix.dtype == dtype
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


@st.composite
def scored_pools(draw):
    """Random float32 or float64 rows with some zeroed and some duplicated,
    and one of seven kinds of query."""
    n = draw(st.integers(1, 64))
    dim = draw(st.integers(1, 300))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(n, dim)).astype(dtype)
    rows[rng.random(n) < 0.1] = 0.0
    rows[rng.integers(0, n, size=n // 4)] = rows[rng.integers(0, n, size=n // 4)]
    keys = [f"d{i:02d}:0" for i in rng.permutation(n)]
    owners = rng.choice([SLM, LLM, MID], size=n)
    pools = [
        ExpertPool(x, [entry(k, r, dtype) for k, r, o in zip(keys, rows, owners) if o == x])
        for x in (SLM, LLM, MID)
    ]
    noise = rng.normal(size=dim)
    query = draw(
        st.sampled_from(
            [
                noise,
                noise.astype(np.float32),
                rows[rng.integers(n)] + noise * 1e-3,
                rows[-1],
                np.zeros(dim),
                noise * 1e-30,  # norm under 2**-60: the router scales it first
                noise * 1e-160,  # its squared norm is subnormal
            ]
        )
    )
    return pools, draw(st.integers(1, n + 2)), query


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

    def test_query_whose_squared_norm_underflows_keeps_its_direction(self):
        """Every square of the query underflows to 0, but its cosine with
        -ones is 1: it is not the zero query."""
        pools = [
            ExpertPool(SLM, [entry("a:0", np.ones(256))]),
            ExpertPool(LLM, [entry("b:0", -np.ones(256))]),
        ]
        decision = RetrievalRouter(pools, 1).decide(ctx(np.full(256, -1e-170)))
        assert decision.chosen == LLM
        assert [key for key, _ in decision.neighbors] == ["b:0"]
        assert math.isclose(decision.neighbors[0][1], 1.0, rel_tol=1e-12)

    def test_empty_pools_rejected(self):
        with pytest.raises(InputError):
            RetrievalRouter([ExpertPool(SLM, []), ExpertPool(LLM, [])], 5)

    def test_duplicate_keys_across_pools_rejected(self):
        v = np.ones(2)
        with pytest.raises(InputError, match="x:0"):
            RetrievalRouter(
                [ExpertPool(SLM, [entry("x:0", v)]), ExpertPool(LLM, [entry("x:0", v)])], 1
            )

    @pytest.mark.parametrize(
        "query", [[np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0], [1e300, 1e300], [1e155, 1e155]]
    )
    @pytest.mark.parametrize("scale", [1.0, 2.0**64])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_query_that_is_not_finite_or_overflows_is_rejected(self, query, scale):
        """Rejected both by a pool that searches in two stages and by one
        outside stage 1's domain, which scores every entry."""
        pools = [
            ExpertPool(SLM, [entry(f"s:{i}", [i * scale, scale], np.float32) for i in range(5)])
        ]
        router = RetrievalRouter(pools, 3)
        assert (router._single is None) == (scale != 1.0)
        with pytest.raises(ValueError, match="not finite or its norm overflows"):
            router.decide(ctx(query))

    def test_missing_query_vector(self):
        with pytest.raises(ValueError):
            RetrievalRouter(self.two_pools(), 3).decide(ctx(None))

    @settings(max_examples=300, deadline=None)
    @given(retrieval_cases())
    def test_partial_selection_matches_full_sort(self, case):
        pools, k, query = case
        assert_matches_full_sort(RetrievalRouter(pools, k), pools, k, query)

    @settings(max_examples=300, deadline=None)
    @given(retrieval_cases())
    def test_partial_selection_matches_full_sort_in_two_stages(self, case):
        """The same cases with float32 vectors, which stage 1 searches as they
        are rather than through a rounded float32 copy."""
        pools, k, query = case
        router = RetrievalRouter(as_float32(pools), k)
        assert router._single is router._matrix
        assert_matches_full_sort(router, pools, k, query)

    @pytest.mark.parametrize("n", [1027, 8631])
    def test_ragged_pool_with_exact_ties_matches_brute_force(self, n):
        # Integer rows drawn from 12 distinct ones give exact dot products, so
        # the k-th score is tied many times. Float64 vectors take stage 1
        # through a float32 copy.
        assert_ragged_pool_matches_brute_force(n, np.float64)

    @pytest.mark.parametrize("n", [1027, 8631])
    def test_ragged_pool_with_exact_ties_matches_brute_force_in_two_stages(self, n):
        assert_ragged_pool_matches_brute_force(n, np.float32)

    @pytest.mark.parametrize("n", [800, 801, 802, 803])
    def test_two_stages_give_the_full_products_bits(self, n):
        """At dim 256, for every n mod 4, with zero and duplicate rows, float32
        and float64 queries, a zero query and one whose norm is under 2**-60,
        which the router scales first: the neighbours' scores have the
        row-wise expression's bits."""
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(n, 256)).astype(np.float32)
        rows[rng.choice(n, 5, replace=False)] = 0.0
        rows[rng.choice(n, 40)] = rows[rng.choice(n, 40)]
        keys = [f"d{i:04d}:0" for i in rng.permutation(n)]
        owners = rng.choice([SLM, LLM, MID], size=n)
        pools = [
            ExpertPool(
                x, [entry(k, r, np.float32) for k, r, o in zip(keys, rows, owners) if o == x]
            )
            for x in (SLM, LLM, MID)
        ]
        near = rows[rng.integers(n)].astype(np.float64)
        queries = [
            rng.normal(size=256),
            rng.normal(size=256).astype(np.float32),
            near + rng.normal(size=256) * 1e-3,
            pools[-1].entries[-1].vector,  # the pool's last row
            np.zeros(256),
            rng.normal(size=256) * 1e-30,
            rng.normal(size=256) * 1e-160,  # its squared norm is subnormal
        ]
        for k in (1, 10, n):
            router = RetrievalRouter(pools, k)
            assert router._single is not None
            for query in queries:
                assert_matches_full_sort(router, pools, k, query)

    @settings(max_examples=200, deadline=None)
    @given(scored_pools())
    def test_scores_have_the_row_wise_expressions_bits(self, case):
        """Float32 and float64 pools of every n mod 4, with zero and duplicate
        rows, and queries from a pool row to norms under 2**-60: the
        neighbours and their scores are the full sort's, bit for bit."""
        pools, k, query = case
        assert_matches_full_sort(RetrievalRouter(pools, k), pools, k, query)

    @pytest.mark.parametrize(
        "scale, dtype",
        [
            (2.0**64, np.float32),
            (2.0**-64, np.float32),
            (2.0**200, np.float64),
            (2.0**-200, np.float64),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_pools_outside_stage_ones_domain_score_every_entry(self, scale, dtype):
        """Nonzero row norms past 2**60 or under 2**-60 lie outside stage 1's
        rounding bound (and 2**200 outside float32), so such a pool gets no
        float32 copy and every query scores every entry."""
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(801, 256)).astype(dtype) * dtype(scale)
        keys = [f"d{i:04d}:0" for i in range(801)]
        entries = [entry(k, r, dtype) for k, r in zip(keys, rows)]
        pools = [ExpertPool(SLM, entries[::2]), ExpertPool(LLM, entries[1::2])]
        router = RetrievalRouter(pools, 10)
        assert router._single is None
        for query in (rng.normal(size=256), rows[-1]):
            assert_matches_full_sort(router, pools, 10, query)

    def test_near_tie_needs_the_rounding_bound(self):
        """Twelve rows share one cosine with the query up to float64
        rounding, more than k = 10 of them. The float32 scores order them
        differently, so a shortlist cut at the k-th float32 score without the
        bound drops some of the true top k."""
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(900, 256)).astype(np.float32)
        tied = rows[:12].astype(np.float64)
        query = tied.T @ np.linalg.solve(tied @ tied.T, np.linalg.norm(tied, axis=1))
        keys = [f"d{i:04d}:0" for i in rng.permutation(900)]
        entries = [entry(k, r, np.float32) for k, r in zip(keys, rows)]
        pools = [ExpertPool(SLM, entries[::2]), ExpertPool(LLM, entries[1::2])]
        router = RetrievalRouter(pools, 10)
        assert_matches_full_sort(router, pools, 10, query)
        router._bound = 0.0
        _, _, neighbors = sorted_retrieval(pools, 10, query)
        assert list(router.decide(ctx(query)).neighbors) != neighbors

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
        model = train_classifier_router(X, y)
        router = ClassifierRouter(model, [SLM, LLM])
        assert router.decide(ctx(easy[0])).chosen == SLM
        assert router.decide(ctx(hard[0])).chosen == LLM

    def test_routes_to_rank_one_on_unit_norm_hash_embeddings(self):
        """Hash embeddings have norm 1. Label-1 texts hold one rare word
        among five common ones, and 40% of the texts are label 1. A fixed
        step of 0.1 leaves every probability under one half there."""
        rng = np.random.default_rng(7)
        embedder = HashEmbedder(256, 0)
        common = [f"word{i}" for i in range(40)]
        rare = [f"rare{i}" for i in range(10)]
        y = (rng.random(300) < 0.4).astype(float)
        texts = [" ".join([*rng.choice(common, 5), *rng.choice(rare, int(label))]) for label in y]
        X = np.vstack([embedder.embed(f"t:{i}", text) for i, text in enumerate(texts)])
        model = train_classifier_router(X, y)
        router = ClassifierRouter(model, [SLM, LLM])
        chosen = np.array([router.decide(ctx(x)).chosen == LLM for x in X])
        assert chosen.mean() > 0.2
        assert np.mean(chosen == (y == 1.0)) > 0.8

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

    @pytest.mark.filterwarnings("error")
    def test_squared_norm_that_overflows_is_an_input_error(self):
        """A step of 4/inf would be 0 and leave every weight 0."""
        with pytest.raises(InputError, match="squared norm"):
            train_classifier_router(np.array([[1e200, 0.0], [0.0, 1e200]]), np.array([0.0, 1.0]))

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
            ("votes", {"ghost": 1}),
            ("neighbors", [["a", 0.5], ["a"]]),
            ("invoked", ["slm", 3]),
            ("expert", "ghost"),
        ],
    )
    def test_malformed_turn_values_rejected(self, tmp_path, field, value):
        """The message names the field that failed and does not print the
        record, which holds every neighbour."""
        run, _ = self.small_run()
        path = tmp_path / "run.jsonl"
        save_run(run, str(path))
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["neighbors"] = [[f"d{i}:0", 0.5] for i in range(40)]  # a long record
        record[field] = value
        path.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        with pytest.raises(InputError, match="malformed turn record") as caught:
            load_run(str(path))
        message = str(caught.value)
        assert field in message
        assert len(message) < len(str(path)) + 100

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
