"""Run-level metrics: joint accuracy, assignment ratios, compute cost, and
domain-shift categorization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .dialogue import Corpus, accumulate_dialogue, turn_key
from .errors import InputError, write_json
from .experts import judge_correct
from .routing import RoutedRun

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
        for name, cost in self.expert_costs.items():
            if cost < 0.0:
                raise ValueError(f"negative cost for expert {name!r}")
        if self.router_cost < 0.0:
            raise ValueError("negative router cost")

    def expert_cost(self, name: str) -> float:
        try:
            return self.expert_costs[name]
        except KeyError:
            raise InputError(f"no cost entry for expert {name!r}") from None


def _check_coverage(run: RoutedRun, corpus: Corpus) -> None:
    run_keys = run.keys()
    if len(set(run_keys)) != len(run_keys):
        raise InputError("routed run contains duplicate turn keys")
    corpus_keys = {
        turn_key(d.dialogue_id, turn.turn_id) for d in corpus for turn in d.turns
    }
    if set(run_keys) != corpus_keys:
        missing = sorted(corpus_keys - set(run_keys))[:3]
        extra = sorted(set(run_keys) - corpus_keys)[:3]
        raise InputError(
            f"run does not cover the corpus exactly (missing {missing}, extra {extra})"
        )


def _gold_states(corpus: Corpus) -> dict[str, dict]:
    states: dict[str, dict] = {}
    for dialogue in corpus:
        folded = accumulate_dialogue(turn.gold_tlb for turn in dialogue.turns)
        for turn, state in zip(dialogue.turns, folded):
            states[turn_key(dialogue.dialogue_id, turn.turn_id)] = state
    return states


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
    _check_coverage(run, corpus)
    if not run.records:
        raise InputError("cannot report on an empty run")
    gold = corpus.gold_tlbs()
    gold_states = _gold_states(corpus)
    category_of: dict[str, str] | None = None
    if training_domains is not None:
        training = set(training_domains)
        category_of = {
            d.dialogue_id: categorize_ood(d.domains, training) for d in corpus
        }
    per_category: dict[str, dict] = {}
    tlb_hits = 0
    dst_hits = 0
    counts = {expert.name: 0 for expert in run.experts}
    for record in run.records:
        key = record.decision.key
        tlb_ok = judge_correct(record.tlb, gold[key])
        dst_ok = record.state == gold_states[key]
        tlb_hits += tlb_ok
        dst_hits += dst_ok
        counts.setdefault(record.decision.chosen.name, 0)
        counts[record.decision.chosen.name] += 1
        if category_of is not None:
            dialogue_id = key.rsplit(":", 1)[0]
            bucket = per_category.setdefault(
                category_of[dialogue_id],
                {"turns": 0, "tlb_hits": 0, "dst_hits": 0, "chosen": {}},
            )
            bucket["turns"] += 1
            bucket["tlb_hits"] += tlb_ok
            bucket["dst_hits"] += dst_ok
            chosen = record.decision.chosen.name
            bucket["chosen"][chosen] = bucket["chosen"].get(chosen, 0) + 1
    n = len(run.records)
    breakdown = None
    if category_of is not None:
        breakdown = {}
        for category in (IN_DOMAIN, HALF_OOD, OOD):
            if category not in per_category:
                continue
            bucket = per_category[category]
            breakdown[category] = {
                "turns": bucket["turns"],
                "tlb_jga": bucket["tlb_hits"] / bucket["turns"],
                "dst_jga": bucket["dst_hits"] / bucket["turns"],
                "assignment_ratio": {
                    name: count / bucket["turns"]
                    for name, count in sorted(bucket["chosen"].items())
                },
            }
    return Report(
        turns=n,
        tlb_jga=tlb_hits / n,
        dst_jga=dst_hits / n,
        assignment_ratio={name: count / n for name, count in counts.items()},
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
