"""Accuracy metrics, the TeraFLOPs accounting, and report assembly."""

import json
import math

import pytest

from dialroute import (
    LLM,
    SLM,
    ConstantRouter,
    CostTable,
    ExpertPrediction,
    InputError,
    OracleRouter,
    ReplayExpert,
    RoutedRun,
    RoutingDecision,
    categorize_ood,
    load_run,
    make_report,
    make_series,
    run_pipeline,
    save_report,
    save_run,
    total_cost,
)
from dialroute.metrics import HALF_OOD, IN_DOMAIN, OOD
from dialroute.routing import TurnRecord

from conftest import assignment_ratio, corpus_of, dlg, dst_jga, tlb_jga, trn

AREA = "hotel-area"
PRICE = "hotel-price"

MWOZ_TURNS = 7333
MWOZ_COSTS = CostTable({"slm": 272 / MWOZ_TURNS, "llm": 3000.0}, 0.02)


def rec(key, chosen, tlb, state, invoked=None):
    decision = RoutingDecision(key, chosen, invoked=tuple(invoked or (chosen,)))
    return TurnRecord(decision, tlb, state)


def synthetic_run(n_slm, n_llm, charges_router=False, cascade=False):
    """A run with the given assignment counts; beliefs are irrelevant here."""
    records = []
    for i in range(n_slm + n_llm):
        chosen = SLM if i < n_slm else LLM
        invoked = (SLM, LLM) if (cascade and chosen == LLM) else (chosen,)
        records.append(rec(f"d{i}:0", chosen, {}, {}, invoked))
    config = {"router": "synthetic", "charges_router_cost": charges_router}
    return RoutedRun(records, (SLM, LLM), config)


def replay_from(corpus, beliefs, expert_id, confidence=None):
    return ReplayExpert(
        expert_id,
        {
            key: ExpertPrediction(
                key.rsplit(":", 1)[0], int(key.rsplit(":", 1)[1]), expert_id.name, tlb, confidence
            )
            for key, tlb in beliefs.items()
        },
    )


class TestTlbJga:
    def test_all_correct(self):
        corpus = corpus_of(dlg("a", [trn(0, "u", tlb={"hotel-area": "north"})]))
        gold = corpus.gold_tlbs()
        experts = [replay_from(corpus, gold, SLM), replay_from(corpus, {k: {} for k in gold}, LLM)]
        run = run_pipeline(corpus, experts, ConstantRouter(SLM))
        assert tlb_jga(run, corpus) == 1.0

    def test_three_of_four(self):
        corpus = corpus_of(
            dlg("a", [trn(0, "u", tlb={"hotel-area": "north"}), trn(1, "u", "s", {"hotel-price": "cheap"})]),
            dlg("b", [trn(0, "u", tlb={"hotel-area": "south"}), trn(1, "u", "s", {"hotel-price": "dear"})]),
        )
        beliefs = dict(corpus.gold_tlbs())
        beliefs["b:1"] = {}  # one miss
        experts = [replay_from(corpus, beliefs, SLM), replay_from(corpus, {k: {} for k in beliefs}, LLM)]
        run = run_pipeline(corpus, experts, ConstantRouter(SLM))
        assert tlb_jga(run, corpus) == 0.75

    def test_complementary_experts_through_oracle(self):
        corpus = corpus_of(
            dlg("a", [trn(0, "u", tlb={"hotel-area": "north"})]),
            dlg("b", [trn(0, "u", tlb={"hotel-price": "cheap"})]),
        )
        gold = corpus.gold_tlbs()
        slm_beliefs = {"a:0": gold["a:0"], "b:0": {}}
        llm_beliefs = {"a:0": {}, "b:0": gold["b:0"]}
        experts = [replay_from(corpus, slm_beliefs, SLM), replay_from(corpus, llm_beliefs, LLM)]
        run = run_pipeline(corpus, experts, OracleRouter([SLM, LLM]))
        assert tlb_jga(run, corpus) == 1.0

    def test_coverage_mismatch(self):
        corpus = corpus_of(dlg("a", [trn(0, "u"), trn(1, "u", "s")]))
        run = synthetic_run(1, 0)
        with pytest.raises(InputError, match="cover"):
            tlb_jga(run, corpus)


class TestDstJga:
    def run_with(self, corpus, beliefs):
        experts = [
            replay_from(corpus, beliefs, SLM),
            replay_from(corpus, {k: {} for k in beliefs}, LLM),
        ]
        return run_pipeline(corpus, experts, ConstantRouter(SLM))

    def test_perfect_tlbs_give_perfect_dst(self):
        corpus = corpus_of(
            dlg("a", [trn(0, "u", tlb={"hotel-area": "north"}), trn(1, "u", "s", {"hotel-price": "cheap"})]),
        )
        run = self.run_with(corpus, dict(corpus.gold_tlbs()))
        assert dst_jga(run, corpus) == 1.0

    def test_error_persists_until_overwritten(self):
        # wrong value for a slot never mentioned again: every turn scores 0
        corpus = corpus_of(
            dlg("a", [
                trn(0, "u", tlb={"hotel-area": "north"}),
                trn(1, "u", "s", {"hotel-price": "cheap"}),
                trn(2, "u", "s", {"train-day": "monday"}),
            ]),
        )
        beliefs = dict(corpus.gold_tlbs())
        beliefs["a:0"] = {AREA: "south"}  # wrong, never corrected
        run = self.run_with(corpus, beliefs)
        assert tlb_jga(run, corpus) == 2 / 3
        assert dst_jga(run, corpus) == 0.0

    def test_error_overwritten_recovers(self):
        # single-slot dialogue: turn 0 wrong, turn 1 overwrites with the
        # correct value -> dst counts 0 then 1
        corpus = corpus_of(
            dlg("a", [
                trn(0, "u", tlb={"hotel-area": "north"}),
                trn(1, "u", "s", {"hotel-area": "south"}),
            ]),
        )
        beliefs = {"a:0": {AREA: "west"}, "a:1": {AREA: "south"}}
        run = self.run_with(corpus, beliefs)
        assert dst_jga(run, corpus) == 0.5

    def test_dialogues_do_not_leak_state(self):
        corpus = corpus_of(
            dlg("a", [trn(0, "u", tlb={"hotel-area": "north"})]),
            dlg("b", [trn(0, "u", tlb={})]),
        )
        beliefs = dict(corpus.gold_tlbs())
        run = self.run_with(corpus, beliefs)
        assert run.records[1].state == {}
        assert dst_jga(run, corpus) == 1.0


class TestAssignmentRatio:
    def test_all_one_expert(self):
        ratios = assignment_ratio(synthetic_run(5, 0))
        assert ratios == {"slm": 1.0, "llm": 0.0}

    def test_split(self):
        ratios = assignment_ratio(synthetic_run(62, 38))
        assert math.isclose(ratios["slm"], 0.62)
        assert math.isclose(ratios["llm"], 0.38)
        assert math.isclose(sum(ratios.values()), 1.0)

    def test_empty_run_rejected(self):
        with pytest.raises(InputError):
            assignment_ratio(RoutedRun([], (SLM, LLM), {}))


class TestTotalCost:
    def test_single_term_sum(self):
        run = synthetic_run(100, 0)
        expected = 100 * MWOZ_COSTS.expert_cost("slm")
        assert math.isclose(total_cost(run, MWOZ_COSTS), expected, rel_tol=1e-12)

    def test_published_task_expert_row_within_two_percent(self):
        n_slm = round(0.62 * MWOZ_TURNS)
        run = synthetic_run(n_slm, MWOZ_TURNS - n_slm, charges_router=True)
        cost = total_cost(run, MWOZ_COSTS)
        assert abs(cost - 8.3e6) / 8.3e6 < 0.02

    def test_cascade_double_charges(self):
        n_slm = round(0.13 * MWOZ_TURNS)
        run = synthetic_run(n_slm, MWOZ_TURNS - n_slm, cascade=True)
        cost = total_cost(run, MWOZ_COSTS)
        # SLM paid on every turn, LLM on the 87% that deferred
        assert abs(cost - 19.14e6) / 19.14e6 < 0.02

    def test_router_cost_only_when_flagged(self):
        with_router = synthetic_run(10, 0, charges_router=True)
        without = synthetic_run(10, 0, charges_router=False)
        delta = total_cost(with_router, MWOZ_COSTS) - total_cost(without, MWOZ_COSTS)
        assert math.isclose(delta, 10 * 0.02, rel_tol=1e-9)

    def test_unknown_expert_rejected(self):
        run = synthetic_run(1, 0)
        with pytest.raises(InputError, match="slm"):
            total_cost(run, CostTable({"llm": 3000.0}))

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostTable({"slm": -1.0})

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_costs_that_are_not_finite_and_at_least_zero_are_rejected(self, bad):
        with pytest.raises(ValueError, match=r"cost of expert 'llm' must be finite and >= 0"):
            CostTable({"slm": 0.04, "llm": bad})
        with pytest.raises(ValueError, match=r"cost of the router must be finite and >= 0"):
            CostTable({"slm": 0.04, "llm": 3000.0}, bad)

    def test_cost_decreases_with_slm_share(self):
        costs = [total_cost(synthetic_run(k, 100 - k), MWOZ_COSTS) for k in (20, 50, 80)]
        assert costs[0] > costs[1] > costs[2]


class TestCategorizeOod:
    def test_subset_is_in_domain(self):
        assert categorize_ood({"hotel"}, {"hotel", "taxi"}) == IN_DOMAIN

    def test_disjoint_is_ood(self):
        assert categorize_ood({"flights"}, {"hotel"}) == OOD

    def test_partial_overlap_is_half(self):
        assert categorize_ood({"hotel", "flights"}, {"hotel"}) == HALF_OOD


class TestReports:
    def corpus_and_run(self):
        corpus = corpus_of(
            dlg("a", [trn(0, "u", tlb={"hotel-area": "north"})], domains=["hotel"]),
            dlg("b", [trn(0, "u", tlb={"train-day": "monday"})], domains=["train"]),
            dlg("c", [trn(0, "u", tlb={"hotel-price": "cheap"})], domains=["hotel", "train"]),
        )
        beliefs = dict(corpus.gold_tlbs())
        beliefs["b:0"] = {}
        experts = [
            replay_from(corpus, beliefs, SLM),
            replay_from(corpus, {k: {} for k in beliefs}, LLM),
        ]
        run = run_pipeline(corpus, experts, ConstantRouter(SLM), config={"seed": 0})
        return corpus, run

    def test_fields_hand_computed(self):
        corpus, run = self.corpus_and_run()
        report = make_report(run, corpus, MWOZ_COSTS)
        assert report.turns == 3
        assert math.isclose(report.tlb_jga, 2 / 3)
        assert math.isclose(report.dst_jga, 2 / 3)
        assert report.assignment_ratio == {"slm": 1.0, "llm": 0.0}
        assert math.isclose(report.total_teraflops, 3 * MWOZ_COSTS.expert_cost("slm"))
        assert report.breakdown is None

    def test_breakdown_by_domain_overlap(self):
        corpus, run = self.corpus_and_run()
        report = make_report(run, corpus, MWOZ_COSTS, training_domains={"hotel"})
        assert set(report.breakdown) == {IN_DOMAIN, OOD, HALF_OOD}
        assert report.breakdown[IN_DOMAIN]["turns"] == 1
        assert report.breakdown[IN_DOMAIN]["tlb_jga"] == 1.0
        assert report.breakdown[OOD]["tlb_jga"] == 0.0
        assert report.breakdown[HALF_OOD]["turns"] == 1

    def test_metrics_from_reloaded_run_match_exactly(self, tmp_path):
        corpus, run = self.corpus_and_run()
        path = tmp_path / "run.jsonl"
        save_run(run, str(path))
        reloaded = load_run(str(path))
        a = make_report(run, corpus, MWOZ_COSTS, training_domains={"hotel"})
        b = make_report(reloaded, corpus, MWOZ_COSTS, training_domains={"hotel"})
        assert a == b

    def test_report_file_round_trip(self, tmp_path):
        corpus, run = self.corpus_and_run()
        report = make_report(run, corpus, MWOZ_COSTS)
        path = tmp_path / "report.json"
        save_report(report, str(path))
        record = json.loads(path.read_text())
        assert record == report.to_record()

    def test_series_is_plot_ready(self):
        corpus, run = self.corpus_and_run()
        report = make_report(run, corpus, MWOZ_COSTS)
        series = make_series([("slm_only", report)])
        assert series == [
            {
                "name": "slm_only",
                "total_teraflops": report.total_teraflops,
                "tlb_jga": report.tlb_jga,
                "dst_jga": report.dst_jga,
                "assignment_ratio": {"llm": 0.0, "slm": 1.0},
            }
        ]

    def test_empty_run_rejected(self):
        corpus, _ = self.corpus_and_run()
        with pytest.raises(InputError):
            make_report(RoutedRun([], (SLM, LLM), {}), corpus_of(dlg("a", [trn(0, "u")])), MWOZ_COSTS)
