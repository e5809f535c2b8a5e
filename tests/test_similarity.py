"""Similarity kernel against independent brute-force references."""

from hypothesis import given
from hypothesis import strategies as st

from dialroute import SlotName, f1_sets, tlb_similarity, turn_similarity
from dialroute.dialogue import LabeledTurn, Triplet


# --- references (counting loops, no set algebra) -----------------------------


def f1_reference(a, b):
    a, b = list(dict.fromkeys(a)), list(dict.fromkeys(b))
    if len(a) == 0 and len(b) == 0:
        return 1.0
    if len(a) == 0 or len(b) == 0:
        return 0.0
    hits = 0
    for item in a:
        for other in b:
            if item == other:
                hits += 1
                break
    precision = hits / len(a)
    recall = hits / len(b)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def tlb_reference(a, b):
    return f1_reference(a.items(), b.items()) + f1_reference(a.keys(), b.keys()) - 1.0


# --- strategies: a tiny alphabet so overlaps actually happen ------------------

SLOTS = [
    SlotName("hotel", "area"),
    SlotName("hotel", "price"),
    SlotName("hotel", "stars"),
    SlotName("train", "day"),
    SlotName("restaurant", "food"),
]
VALUES = ["north", "south", "cheap", "monday", "thai", "3"]

beliefs = st.dictionaries(st.sampled_from(SLOTS), st.sampled_from(VALUES), max_size=5)


def labeled(state, tlb, key=("d", 0)):
    return LabeledTurn(Triplet(key[0], key[1], state, "", "hi"), tlb)


# --- exact cases --------------------------------------------------------------

AREA = SlotName("hotel", "area")
PRICE = SlotName("hotel", "price")


def test_f1_empty_conventions():
    assert f1_sets(set(), set()) == 1.0
    assert f1_sets({1}, set()) == 0.0
    assert f1_sets(set(), {1}) == 0.0


def test_f1_partial_overlap():
    # P = 1/1, R = 1/2 -> 2PR/(P+R) = 2/3
    assert f1_sets({"a"}, {"a", "b"}) == 2 * 1.0 * 0.5 / 1.5


def test_tlb_similarity_extremes():
    full = {AREA: "north", PRICE: "cheap"}
    assert tlb_similarity(full, dict(full)) == 1.0
    assert tlb_similarity({}, {}) == 1.0
    assert tlb_similarity(full, {}) == -1.0
    assert tlb_similarity({}, full) == -1.0
    # same slots, all values wrong: F_slot 1, F_slot_value 0
    assert tlb_similarity(full, {AREA: "south", PRICE: "dear"}) == 0.0
    # disjoint slots
    assert tlb_similarity({AREA: "north"}, {SlotName("train", "day"): "monday"}) == -1.0


def test_tlb_similarity_worked_example():
    a = {AREA: "north"}
    b = {AREA: "north", PRICE: "cheap"}
    f = 2 * 1.0 * 0.5 / 1.5
    assert tlb_similarity(a, b) == f + f - 1.0


def test_turn_similarity_weights_state_half():
    same_state = {AREA: "north"}
    a = labeled(same_state, {PRICE: "cheap"})
    b = labeled(dict(same_state), {PRICE: "cheap"}, key=("e", 1))
    assert turn_similarity(a, b) == 1.5
    c = labeled({}, {PRICE: "cheap"}, key=("f", 0))
    assert turn_similarity(a, c) == 0.5 * -1.0 + 1.0


def test_graded_accuracy_is_belief_similarity():
    assert tlb_similarity({AREA: "north"}, {AREA: "north"}) == 1.0
    assert tlb_similarity({}, {AREA: "north"}) == -1.0


# --- properties ----------------------------------------------------------------


@given(beliefs, beliefs)
def test_tlb_matches_reference_exactly(a, b):
    assert tlb_similarity(a, b) == tlb_reference(a, b)


@given(beliefs, beliefs)
def test_tlb_symmetry_and_range(a, b):
    s = tlb_similarity(a, b)
    assert s == tlb_similarity(b, a)
    assert -1.0 <= s <= 1.0


@given(beliefs)
def test_tlb_reflexive(a):
    assert tlb_similarity(a, dict(a)) == 1.0


@given(beliefs, beliefs)
def test_slot_f1_dominates_slot_value_f1(a, b):
    # agreeing on (slot, value) requires agreeing on the slot
    assert f1_sets(a.keys(), b.keys()) >= f1_sets(a.items(), b.items())


@given(beliefs, beliefs, beliefs, beliefs)
def test_turn_similarity_matches_reference(state_a, tlb_a, state_b, tlb_b):
    a = labeled(state_a, tlb_a)
    b = labeled(state_b, tlb_b, key=("e", 2))
    expected = 0.5 * tlb_reference(state_a, state_b) + tlb_reference(tlb_a, tlb_b)
    assert turn_similarity(a, b) == expected
    assert -1.5 <= turn_similarity(a, b) <= 1.5
