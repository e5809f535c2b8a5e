"""Run-level metrics: joint accuracy, assignment ratios, compute cost, and
domain-shift categorization."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .dialogue import Corpus, accumulate_dialogue, split_turn_key
from .errors import InputError, write_json
from .experts import judge_correct
from .routing import RoutedRun, TurnRecord

IN_DOMAIN = "in_domain"
HALF_OOD = "half_ood"
OOD = "ood"


@dataclass(frozen=True)
class CostTable:
    """Per-turn inference cost (TeraFLOPs) by expert name, plus the retrieval
    or classifier router's own per-turn cost."""

    expert_costs: Mapping[str, float]
    router_cost: float = 0.02

    def __post_init__(self) -> None:
        costs = [(f"expert {name!r}", cost) for name, cost in self.expert_costs.items()]
        for who, cost in [*costs, ("the router", self.router_cost)]:
            if not 0.0 <= cost < math.inf:
                raise ValueError(f"cost of {who} must be finite and >= 0, got {cost!r}")

    def expert_cost(self, name: str) -> float:
        try:
            return self.expert_costs[name]
        except KeyError:
            raise InputError(f"no cost entry for expert {name!r}") from None


def _check_coverage(run: RoutedRun, gold: Mapping[str, object]) -> None:
    run_keys = run.keys()
    if len(set(run_keys)) != len(run_keys):
        raise InputError("routed run contains duplicate turn keys")
    if set(run_keys) != gold.keys():
        missing = sorted(gold.keys() - set(run_keys))[:3]
        extra = sorted(set(run_keys) - gold.keys())[:3]
        raise InputError(
            f"run does not cover the corpus exactly (missing {missing}, extra {extra})"
        )


def total_cost(run: RoutedRun, costs: CostTable) -> float:
    """TeraFLOPs the run paid for: every invoked expert per turn, plus the
    router's own cost per turn when the router kind charges one."""
    total = 0.0
    for record in run.records:
        for expert in record.decision.invoked:
            total += costs.expert_cost(expert.name)
    if run.config.get("charges_router_cost", False):
        total += costs.router_cost * len(run.records)
    return total


def categorize_ood(dialogue_domains: Iterable[str], training_domains: Iterable[str]) -> str:
    """``in_domain`` when every dialogue domain was trained on, ``ood`` when
    none was, ``half_ood`` otherwise."""
    domains = set(dialogue_domains)
    training = set(training_domains)
    if domains <= training:
        return IN_DOMAIN
    if not domains & training:
        return OOD
    return HALF_OOD


@dataclass
class Report:
    """One run's scores. ``tlb_jga`` is the share of turns whose chosen
    belief matches gold exactly; ``dst_jga`` the share whose accumulated state
    matches the accumulated gold state, so an error persists until
    overwritten; ``assignment_ratio`` the share routed to each expert."""

    turns: int
    tlb_jga: float
    dst_jga: float
    assignment_ratio: dict[str, float]
    total_teraflops: float
    router: str
    breakdown: dict[str, dict] | None = None

    def to_record(self) -> dict:
        record: dict = {
            "turns": self.turns,
            "tlb_jga": self.tlb_jga,
            "dst_jga": self.dst_jga,
            "assignment_ratio": dict(sorted(self.assignment_ratio.items())),
            "total_teraflops": self.total_teraflops,
            "router": self.router,
        }
        if self.breakdown is not None:
            record["breakdown"] = self.breakdown
        return record


def make_report(
    run: RoutedRun,
    corpus: Corpus,
    costs: CostTable,
    training_domains: Iterable[str] | None = None,
) -> Report:
    """Aggregate a run into one report; with training domains given, adds a
    per-category breakdown over domain-shift buckets."""
    gold = corpus.gold_tlbs()
    _check_coverage(run, gold)
    if not run.records:
        raise InputError("cannot report on an empty run")
    # The gold state after each turn, in the corpus order of gold's keys.
    folded = (accumulate_dialogue(turn.gold_tlb for turn in d.turns) for d in corpus)
    gold_states = dict(zip(gold, itertools.chain.from_iterable(folded)))

    def score(records: list[TurnRecord], experts: Iterable[str] = ()) -> dict:
        """The turns, ``tlb_jga``, ``dst_jga`` and ``assignment_ratio`` of a
        non-empty list of turn records. The ratio names, in name order, every
        chosen expert and every one of ``experts``."""
        n = len(records)
        tlb_hits = sum(judge_correct(r.tlb, gold[r.decision.key]) for r in records)
        dst_hits = sum(r.state == gold_states[r.decision.key] for r in records)
        chosen = Counter(dict.fromkeys(experts, 0))
        chosen.update(r.decision.chosen.name for r in records)
        return {
            "turns": n,
            "tlb_jga": tlb_hits / n,
            "dst_jga": dst_hits / n,
            "assignment_ratio": {name: chosen[name] / n for name in sorted(chosen)},
        }

    breakdown = None
    if training_domains is not None:
        training = set(training_domains)
        category_of = {d.dialogue_id: categorize_ood(d.domains, training) for d in corpus}
        buckets: dict[str, list[TurnRecord]] = {IN_DOMAIN: [], HALF_OOD: [], OOD: []}
        for record in run.records:
            buckets[category_of[split_turn_key(record.decision.key)[0]]].append(record)
        breakdown = {category: score(records) for category, records in buckets.items() if records}
    return Report(
        **score(run.records, [expert.name for expert in run.experts]),
        total_teraflops=total_cost(run, costs),
        router=str(run.config.get("router", "unknown")),
        breakdown=breakdown,
    )


def save_report(report: Report, path: str) -> None:
    write_json(path, report.to_record())


def make_series(named_reports: Sequence[tuple[str, Report]]) -> list[dict]:
    """Plot-ready accuracy-versus-cost points, one per named run."""
    return [
        {
            "name": name,
            "total_teraflops": report.total_teraflops,
            "tlb_jga": report.tlb_jga,
            "dst_jga": report.dst_jga,
            "assignment_ratio": dict(sorted(report.assignment_ratio.items())),
        }
        for name, report in named_reports
    ]


def save_series(series: list[dict], path: str) -> None:
    write_json(path, {"series": series})
