"""The acceptance gate: nine criteria, one PASS/FAIL line each.

Run ``pytest -s tests/test_acceptance.py`` to see the lines as they print;
without ``-s`` pytest shows them only for failing tests.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from dialroute import (
    LLM,
    SLM,
    ConstantRouter,
    CostTable,
    ExpertPrediction,
    HashEmbedder,
    OracleRouter,
    PairSet,
    ProjectionAdapter,
    ReplayExpert,
    RetrievalRouter,
    RoutedRun,
    RoutingDecision,
    SimulationSpec,
    SlotName,
    Triplet,
    build_pools,
    f1_sets,
    grad_check,
    judge_correct,
    project,
    run_pipeline,
    run_simulation,
    tlb_similarity,
    total_cost,
)
from dialroute.dialogue import LabeledTurn
from dialroute.experts import ExpertPool, PoolEntry
from dialroute.routing import TurnRecord

from conftest import corpus_of, dlg, dst_jga, tlb_jga, trn
from test_routing import ctx, entry, reference_retrieval
from test_similarity import tlb_reference


@contextmanager
def criterion(number, label, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed >= budget:
        print(f"\nACCEPTANCE {number} ({label}): FAIL [{elapsed:.2f}s over the {budget:.0f}s budget]")
        pytest.fail(f"criterion {number} took {elapsed:.2f}s, budget {budget:.0f}s")
    note = f" [{elapsed:.2f}s < {budget:.0f}s]" if budget is not None else f" [{elapsed:.2f}s]"
    print(f"\nACCEPTANCE {number} ({label}): PASS{note}")


# --- 1 & 2: cost-table reproduction -------------------------------------------


def fraction_run(n_turns, slm_fraction, charges_router, cascade=False):
    """A run with round(fraction * n) turns on the SLM.

    The three record shapes are shared objects — the cost and ratio folds only
    read them, and they skip coverage checks, so duplicates are fine.
    """
    n_slm = round(slm_fraction * n_turns)
    stay = TurnRecord(RoutingDecision("d:0", SLM, invoked=(SLM,)), {}, {})
    defer = (
        TurnRecord(RoutingDecision("d:0", LLM, invoked=(SLM, LLM)), {}, {})
        if cascade
        else TurnRecord(RoutingDecision("d:0", LLM, invoked=(LLM,)), {}, {})
    )
    records = [stay] * n_slm + [defer] * (n_turns - n_slm)
    return RoutedRun(records, (SLM, LLM), {"charges_router_cost": charges_router})


def check_cost_rows(n_turns, slm_total, rows):
    costs = CostTable({"slm": slm_total / n_turns, "llm": 3000.0}, 0.02)
    for name, slm_fraction, charges_router, cascade, expected in rows:
        run = fraction_run(n_turns, slm_fraction, charges_router, cascade)
        got = total_cost(run, costs)
        relative = abs(got - expected) / expected
        assert relative < 0.03, f"{name}: {got:.4g} vs expected {expected:.4g} ({relative:.2%} off)"


def test_1_multiwoz_cost_rows():
    with criterion(1, "MultiWOZ cost rows within 3%", 1.0):
        check_cost_rows(
            7333,
            272.0,
            [
                ("oracle", 0.73, False, False, 5.94e6),
                ("classifier", 0.91, True, False, 1.98e6),
                ("cascade", 0.13, False, True, 19.14e6),
                ("retrieval, plain sentence encoder", 0.60, True, False, 8.8e6),
                ("retrieval, trained adapter", 0.62, True, False, 8.3e6),
            ],
        )


def test_2_sgd_cost_rows():
    with criterion(2, "SGD cost rows within 3%", 1.0):
        check_cost_rows(
            40333,
            8882.0,
            [
                ("oracle", 0.62, False, False, 45.98e6),
                ("classifier", 0.38, True, False, 75.02e6),
                ("cascade", 0.079, False, True, 111.34e6),
                ("retrieval, trained adapter", 0.57, True, False, 52.03e6),
            ],
        )


# --- 3: similarity against the brute-force reference ---------------------------


def test_3_similarity_oracle_suite():
    slots = [
        SlotName("hotel", "area"),
        SlotName("hotel", "price"),
        SlotName("hotel", "stars"),
        SlotName("train", "day"),
        SlotName("train", "dest"),
        SlotName("restaurant", "food"),
    ]
    values = ["north", "south", "cheap", "dear", "monday", "thai"]
    rng = np.random.default_rng(3)

    def belief():
        size = int(rng.integers(0, 6))
        picks = rng.choice(len(slots), size=size, replace=False)
        return {slots[i]: values[int(rng.integers(0, len(values)))] for i in picks}

    with criterion(3, "similarity equals brute-force reference on 10,000 pairs", 5.0):
        for _ in range(10_000):
            a, b = belief(), belief()
            score = tlb_similarity(a, b)
            assert score == tlb_reference(a, b)
            assert score == tlb_similarity(b, a)
            assert -1.0 <= score <= 1.0
            assert tlb_similarity(a, a) == 1.0
            assert f1_sets(set(a), set(b)) >= f1_sets(set(a.items()), set(b.items()))


# --- 4: retrieval routing against the exhaustive reference ---------------------


def test_4_routing_oracle_suite():
    rng = np.random.default_rng(4)
    with criterion(4, "retrieval matches exhaustive reference on 1,000 instances", 5.0):
        for case in range(1_000):
            pools = [
                ExpertPool(
                    SLM,
                    [entry(f"s{case}:{j}", rng.normal(size=8)) for j in range(int(rng.integers(1, 11)))],
                ),
                ExpertPool(
                    LLM,
                    [entry(f"l{case}:{j}", rng.normal(size=8)) for j in range(int(rng.integers(1, 11)))],
                ),
            ]
            k = int(rng.integers(1, 11))
            query = rng.normal(size=8)
            decision = RetrievalRouter(pools, k).decide(ctx(query))
            winner, keys = reference_retrieval(pools, k, query)
            assert decision.chosen == winner
            assert [key for key, _ in decision.neighbors] == keys

        # an exact 5-5 split defers to the cheaper expert
        direction = rng.normal(size=8)
        pools = [
            ExpertPool(SLM, [entry(f"s:{j}", direction * (j + 1)) for j in range(5)]),
            ExpertPool(LLM, [entry(f"l:{j}", direction * (j + 1)) for j in range(5)]),
        ]
        decision = RetrievalRouter(pools, 10).decide(ctx(direction))
        assert decision.votes == {SLM: 5, LLM: 5}
        assert decision.chosen == SLM


# --- 5: analytic gradient against central finite differences -------------------


def test_5_gradient_verification():
    rng = np.random.default_rng(5)
    with criterion(5, "contrastive gradient matches finite differences on 50 instances", 10.0):
        worst = 0.0
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            keys = [f"k:{i}" for i in range(int(rng.integers(4, 9)))]
            embeddings = {key: rng.normal(size=dim) for key in keys}
            positives, negatives = [], []
            for a in keys:
                for b in keys:
                    if a != b and rng.random() < 0.4:
                        (positives if rng.random() < 0.5 else negatives).append((a, b))
            if not positives and not negatives:
                positives = [(keys[0], keys[1])]
            pairs = PairSet(positives, negatives)
            adapter = ProjectionAdapter(np.eye(dim) + 0.3 * rng.normal(size=(dim, dim)))
            error = grad_check(adapter, pairs, embeddings, margin=float(rng.uniform(0.0, 0.8)))
            worst = max(worst, error)
        assert worst < 1e-4, f"worst relative gradient error {worst:.3g}"


# --- 6: identity adapter changes nothing ---------------------------------------


def test_6_identity_adapter_equivalence():
    rng = np.random.default_rng(6)
    words = [f"token{i}" for i in range(80)]

    def text():
        return " ".join(rng.choice(words, size=6).tolist())

    with criterion(6, "identity-adapter routing equals base routing on 500 turns"):
        embedder = HashEmbedder(256, 17)
        identity = ProjectionAdapter.identity(256)
        pool_texts = {f"p:{i}": text() for i in range(240)}
        vectors = {key: embedder.embed(key, txt) for key, txt in pool_texts.items()}
        owners = {key: (SLM if i % 2 == 0 else LLM) for i, key in enumerate(pool_texts)}

        def pools_with(transform):
            return [
                ExpertPool(
                    expert,
                    [
                        PoolEntry(key, pool_texts[key], transform(vectors[key]))
                        for key in pool_texts
                        if owners[key] == expert
                    ],
                )
                for expert in (SLM, LLM)
            ]

        base_router = RetrievalRouter(pools_with(lambda v: v), 10)
        projected_router = RetrievalRouter(pools_with(lambda v: project(identity, v)), 10)
        mismatches = 0
        for i in range(500):
            query = embedder.embed(f"q:{i}", text())
            base = base_router.decide(ctx(query, key=f"q:{i}"))
            through = projected_router.decide(ctx(project(identity, query), key=f"q:{i}"))
            if base.chosen != through.chosen or base.neighbors != through.neighbors:
                mismatches += 1
        assert mismatches == 0


# --- 7: end-to-end synthetic benchmark ------------------------------------------


def test_7_end_to_end_simulation(tmp_path):
    with criterion(7, "synthetic benchmark: oracle/retrieval/training/determinism", 60.0):
        spec = SimulationSpec()  # 200 dialogues, two clusters, 0.95/0.30 experts, dim 256
        first = run_simulation(spec, tmp_path / "a")
        second = run_simulation(spec, tmp_path / "b")

        names = sorted(path.name for path in (tmp_path / "a").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "b").iterdir())
        for name in names:  # (d) reruns byte-identical
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"rerun differs in {name}"
        del second

        scores = {name: report.tlb_jga for name, report in first.reports.items()}
        best_single = max(scores["slm_only"], scores["llm_only"])
        assert scores["oracle"] >= best_single  # (a)
        assert scores["retrieval_trained"] >= best_single + 0.05  # (b)

        oracle_pick = {
            record.decision.key: record.decision.chosen
            for record in first.runs["oracle"].records
        }

        def agreement(name):
            run = first.runs[name]
            hits = sum(
                record.decision.chosen == oracle_pick[record.decision.key]
                for record in run.records
            )
            return hits / len(run.records)

        gain = agreement("retrieval_trained") - agreement("retrieval_base")
        assert gain >= 0.03, f"training gained only {gain:+.4f} agreement"  # (c)


# --- 8: pool construction --------------------------------------------------------


def test_8_pool_construction_suite():
    area = SlotName("hotel", "area")
    price = SlotName("hotel", "price")
    rng = np.random.default_rng(8)
    slots = [area, price, SlotName("train", "day")]
    values = ["north", "south", "cheap", "monday"]

    def lt(turn_id, gold, dialogue="d"):
        return LabeledTurn(Triplet(dialogue, turn_id, {}, "", f"u{turn_id}"), gold)

    def random_belief():
        picks = rng.choice(len(slots), size=int(rng.integers(0, 3)), replace=False)
        return {slots[i]: values[int(rng.integers(0, len(values)))] for i in picks}

    def noisy(gold):
        if rng.random() < 0.5:
            return dict(gold)  # exactly right
        wrong = dict(gold)
        if wrong and rng.random() < 0.5:
            wrong[next(iter(wrong))] = "bogus"
        else:
            wrong[slots[int(rng.integers(0, len(slots)))]] = "bogus"
        return wrong

    with criterion(8, "expert pools: hand case plus invariants on 1,000 hold-outs", 5.0):
        # all four correctness combinations, one turn each
        turns = [
            lt(0, {area: "north"}),
            lt(1, {price: "cheap"}),
            lt(2, {area: "south"}),
            lt(3, {price: "dear"}),
        ]
        predictions = {
            SLM: {"d:0": {area: "north"}, "d:1": {}, "d:2": {area: "south"}, "d:3": {}},
            LLM: {
                "d:0": {area: "north"},
                "d:1": {price: "cheap"},
                "d:2": {},
                "d:3": {price: "wrong"},
            },
        }
        embeddings = {t.key: np.full(4, float(i)) for i, t in enumerate(turns)}
        pools = build_pools(turns, predictions, embeddings)
        assert [e.key for e in pools[SLM].entries] == ["d:0", "d:2"]
        assert [e.key for e in pools[LLM].entries] == ["d:1"]
        assert sum(len(p.entries) for p in pools.values()) == 3  # d:3 excluded

        for case in range(1_000):
            turns = [lt(t, random_belief(), f"d{case}") for t in range(int(rng.integers(1, 7)))]
            embeddings = {t.key: rng.normal(size=4) for t in turns}
            predictions = {
                expert: {t.key: noisy(t.gold_tlb) for t in turns} for expert in (SLM, LLM)
            }
            pools = build_pools(turns, predictions, embeddings)
            pooled = {expert: {e.key for e in pools[expert].entries} for expert in (SLM, LLM)}
            assert pooled[SLM].isdisjoint(pooled[LLM])
            for expert, keys in pooled.items():
                for key in keys:  # soundness: the owner really solved the turn
                    gold = next(t.gold_tlb for t in turns if t.key == key)
                    assert judge_correct(predictions[expert][key], gold)
            for t in turns:  # lowest-rank correct expert owns; unsolved excluded
                slm_ok = judge_correct(predictions[SLM][t.key], t.gold_tlb)
                llm_ok = judge_correct(predictions[LLM][t.key], t.gold_tlb)
                if slm_ok:
                    assert t.key in pooled[SLM]
                elif llm_ok:
                    assert t.key in pooled[LLM]
                else:
                    assert t.key not in pooled[SLM] and t.key not in pooled[LLM]


# --- 9: state accumulation inside the metrics ------------------------------------


def replayed_run(corpus, beliefs):
    experts = [
        ReplayExpert(
            SLM,
            {
                key: ExpertPrediction(key.rsplit(":", 1)[0], int(key.rsplit(":", 1)[1]), "slm", tlb)
                for key, tlb in beliefs.items()
            },
        ),
        ReplayExpert(LLM, {}),
    ]
    return run_pipeline(corpus, experts, ConstantRouter(SLM))


def test_9_state_aggregation_metric_suite():
    area = SlotName("hotel", "area")
    with criterion(9, "DST accumulation: replacement, persistence, overwrite", 1.0):
        # replacement: the later value wins, nothing is deleted
        corpus = corpus_of(
            dlg("r", [
                trn(0, "u", tlb={"hotel-area": "north", "hotel-price": "cheap"}),
                trn(1, "u", "s", {"hotel-area": "south"}),
            ]),
        )
        run = replayed_run(corpus, dict(corpus.gold_tlbs()))
        assert run.records[-1].state == {area: "south", SlotName("hotel", "price"): "cheap"}
        assert tlb_jga(run, corpus) == 1.0
        assert dst_jga(run, corpus) == 1.0

        # persistence: one early error on an untouched slot poisons every turn
        corpus = corpus_of(
            dlg("p", [
                trn(0, "u", tlb={"hotel-area": "north"}),
                trn(1, "u", "s", {"hotel-price": "cheap"}),
                trn(2, "u", "s", {"train-day": "monday"}),
            ]),
        )
        beliefs = dict(corpus.gold_tlbs())
        beliefs["p:0"] = {area: "south"}
        run = replayed_run(corpus, beliefs)
        assert tlb_jga(run, corpus) == pytest.approx(2 / 3)
        assert dst_jga(run, corpus) == 0.0

        # overwrite: correcting the slot at the next turn repairs the state
        corpus = corpus_of(
            dlg("o", [
                trn(0, "u", tlb={"hotel-area": "north"}),
                trn(1, "u", "s", {"hotel-area": "south"}),
            ]),
        )
        run = replayed_run(corpus, {"o:0": {area: "west"}, "o:1": {area: "south"}})
        assert [rec.state == gold for rec, gold in zip(run.records, ({area: "north"}, {area: "south"}))] == [False, True]
        assert dst_jga(run, corpus) == 0.5

        # oracle riding complementary experts reaches a perfect state
        corpus = corpus_of(
            dlg("c", [trn(0, "u", tlb={"hotel-area": "north"}), trn(1, "u", "s", {"hotel-price": "dear"})]),
        )
        gold = corpus.gold_tlbs()
        slm = ReplayExpert(
            SLM, {"c:0": ExpertPrediction("c", 0, "slm", gold["c:0"]), "c:1": ExpertPrediction("c", 1, "slm", {})}
        )
        llm = ReplayExpert(
            LLM, {"c:0": ExpertPrediction("c", 0, "llm", {}), "c:1": ExpertPrediction("c", 1, "llm", gold["c:1"])}
        )
        run = run_pipeline(corpus, [slm, llm], OracleRouter([SLM, LLM]))
        assert dst_jga(run, corpus) == 1.0
