"""Set-overlap similarity between beliefs, states, and labeled turns."""

from __future__ import annotations

from typing import Collection, Hashable, Mapping

from .dialogue import LabeledTurn, SlotName


def f1_sets(a: Collection[Hashable], b: Collection[Hashable]) -> float:
    """F-score between two sets: 2PR/(P+R) with P = |a∩b|/|a|, R = |a∩b|/|b|.

    Two empty sets score 1.0; one empty set scores 0.0.
    """
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    hits = len(sa & sb)
    precision = hits / len(sa)
    recall = hits / len(sb)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def tlb_similarity(a: Mapping[SlotName, str], b: Mapping[SlotName, str]) -> float:
    """Belief similarity in [-1, 1]: F over (slot, value) pairs plus F over
    slot names, minus 1. Equal beliefs score 1; disjoint non-empty ones -1."""
    f_slot_value = f1_sets(a.items(), b.items())
    f_slot = f1_sets(a.keys(), b.keys())
    return f_slot_value + f_slot - 1.0


def turn_similarity(a: LabeledTurn, b: LabeledTurn) -> float:
    """Combined turn score in [-1.5, 1.5]: half the prior-state similarity
    plus the turn-belief similarity."""
    return 0.5 * tlb_similarity(a.prev_state, b.prev_state) + tlb_similarity(
        a.gold_tlb, b.gold_tlb
    )
