"""Corpus model: canonicalization, accumulation, triplets, parsing, round-trips."""

import json

import pytest

from dialroute import InputError, aggregate_state, make_belief, save_corpus, slot_name, turn_key
from dialroute.dialogue import (
    accumulate_dialogue,
    canonicalize_value,
    labeled_turns,
    render_belief,
    split_turn_key,
    triplet_of_turn,
)

from conftest import corpus_of, dlg, trn
from oracles import parse_dialogues

AREA = "hotel-area"
PRICE = "hotel-price"
DAY = "train-day"


class TestCanonicalSlot:
    def test_canonical_form(self):
        assert slot_name("hotel-book people") == "hotel-book people"
        assert slot_name(" Hotel-Book   PEOPLE ") == "hotel-book people"

    @pytest.mark.parametrize(
        "bad, message",
        [
            # compound slots use spaces; a second dash is ambiguous
            ("hotel-book-day", "slot name slot 'book-day' contains the separator '-'"),
            ("hotelarea", "slot name 'hotelarea' lacks the '-' separator"),
            ("-area", "slot name has an empty domain part"),
            ("hotel-", "slot name has an empty slot part"),
            # the first dash splits, so a dashed domain leaves one in the slot
            ("ho-tel-area", "slot name slot 'tel-area' contains the separator '-'"),
        ],
    )
    def test_refusals(self, bad, message):
        with pytest.raises(InputError) as caught:
            slot_name(bad)
        assert str(caught.value) == message

    @pytest.mark.parametrize("bad", ["hotel-book-day", "hotelarea", "-area", "hotel-"])
    def test_a_failing_name_is_not_cached(self, bad):
        before = slot_name.cache_info().currsize
        messages = []
        for check in (slot_name, slot_name, slot_name.__wrapped__):
            with pytest.raises(InputError) as caught:
                check(bad)
            messages.append(str(caught.value))
        assert messages[0] == messages[1] == messages[2]
        assert slot_name.cache_info().currsize == before

    def test_cached_names_are_equal(self):
        first = [slot_name(text) for text in ("hotel-area", " Hotel-AREA ", "train-day")]
        again = [slot_name(text) for text in ("hotel-area", " Hotel-AREA ", "train-day")]
        assert first == again == [AREA, AREA, DAY]


class TestCanonicalization:
    def test_lowercase_and_whitespace_collapse(self):
        assert canonicalize_value("  Centre   of TOWN ") == "centre of town"

    def test_make_belief_drops_nulls(self):
        belief, dropped = make_belief({"hotel-area": "North", "hotel-price": "NONE", "train-day": " "})
        assert belief == {AREA: "north"}
        assert dropped == 2

    def test_make_belief_canonicalizes_slot_text(self):
        belief, _ = make_belief({"Hotel-Area": "north"})
        assert belief == {AREA: "north"}

    def test_make_belief_rejects_non_string_values(self):
        with pytest.raises(InputError):
            make_belief({"hotel-area": 3})

    def test_render_belief_sorts_by_slot(self):
        rendered = render_belief({DAY: "monday", AREA: "north"})
        assert list(rendered) == ["hotel-area", "train-day"]


class TestKeys:
    def test_round_trip(self):
        assert split_turn_key(turn_key("dlg:0007", 3)) == ("dlg:0007", 3)

    def test_malformed_key(self):
        with pytest.raises(InputError):
            split_turn_key("no-turn-id")


class TestAccumulation:
    def test_replacement_semantics(self):
        state = aggregate_state({AREA: "north", PRICE: "cheap"}, {AREA: "south"})
        assert state == {AREA: "south", PRICE: "cheap"}

    def test_no_deletion(self):
        # an empty update never removes anything
        prior = {AREA: "north"}
        assert aggregate_state(prior, {}) == prior

    def test_inputs_not_mutated(self):
        prior = {AREA: "north"}
        update = {PRICE: "cheap"}
        aggregate_state(prior, update)
        assert prior == {AREA: "north"} and update == {PRICE: "cheap"}

    def test_prefix_fold(self):
        states = accumulate_dialogue([{AREA: "north"}, {PRICE: "cheap"}, {AREA: "east"}])
        assert states == [
            {AREA: "north"},
            {AREA: "north", PRICE: "cheap"},
            {AREA: "east", PRICE: "cheap"},
        ]


class TestTriplets:
    def make(self):
        return corpus_of(
            dlg(
                "d1",
                [
                    trn(0, "need a hotel", tlb={"hotel-area": "north"}),
                    trn(1, "cheap please", "which part?", {"hotel-price": "cheap"}),
                ],
            )
        ).dialogues[0]

    def test_first_turn_forces_empty_context(self):
        triplet = triplet_of_turn(self.make(), 0, {AREA: "stale"})
        assert triplet.prev_state == {}
        assert triplet.system_utterance == ""

    def test_later_turn_carries_given_prior(self):
        triplet = triplet_of_turn(self.make(), 1, {AREA: "north"})
        assert triplet.prev_state == {AREA: "north"}
        assert triplet.system_utterance == "which part?"
        assert triplet.key == "d1:1"

    def test_prior_is_copied(self):
        prior = {AREA: "north"}
        triplet = triplet_of_turn(self.make(), 1, prior)
        prior[AREA] = "mutated"
        assert triplet.prev_state == {AREA: "north"}

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            triplet_of_turn(self.make(), 2, {})

    def test_labeled_turns_accumulate_gold(self):
        turns = labeled_turns(self.make())
        assert [t.key for t in turns] == ["d1:0", "d1:1"]
        assert turns[1].prev_state == {AREA: "north"}
        assert turns[1].gold_tlb == {PRICE: "cheap"}


class TestParsing:
    def test_parses_and_counts(self):
        corpus = corpus_of(
            dlg("a", [trn(0, "hi", tlb={"hotel-area": "north"})]),
            dlg("b", [trn(0, "hello"), trn(1, "more", "sys")]),
        )
        assert corpus.turn_count() == 3
        assert sorted(corpus.gold_tlbs()) == ["a:0", "b:0", "b:1"]

    def test_counts_dropped_nulls(self):
        corpus = corpus_of(dlg("a", [trn(0, "hi", tlb={"hotel-area": "none"})]))
        assert corpus.dropped_values == 1
        assert corpus.dialogues[0].turns[0].gold_tlb == {}

    def test_duplicate_dialogue_id(self):
        with pytest.raises(InputError, match="duplicate dialogue_id"):
            corpus_of(dlg("a", [trn(0, "x")]), dlg("a", [trn(0, "y")]))

    def test_turn_ids_must_be_contiguous(self):
        with pytest.raises(InputError, match="must be 1"):
            corpus_of(dlg("a", [trn(0, "x"), trn(2, "y")]))

    def test_empty_user_utterance(self):
        with pytest.raises(InputError, match="user utterance"):
            corpus_of(dlg("a", [trn(0, "")]))

    def test_empty_turns(self):
        with pytest.raises(InputError, match="turns"):
            corpus_of(dlg("a", []))

    def test_malformed_json_names_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_dialogues([json.dumps(dlg("a", [trn(0, "x")])), "{oops"])

    def test_blank_lines_skipped(self):
        lines = [json.dumps(dlg("a", [trn(0, "x")])), "", "   "]
        assert parse_dialogues(lines).turn_count() == 1


class TestRoundTrip:
    def test_write_then_parse_is_identity(self, tmp_path):
        corpus = corpus_of(
            dlg("a", [trn(0, "Hi THERE", tlb={"Hotel-Area": "North"})], domains=["Hotel"]),
            dlg("b", [trn(0, "hello"), trn(1, "ok", "sys", {"train-day": "monday"})], ["train"]),
        )
        save_corpus(corpus, str(tmp_path / "corpus.jsonl"))
        again = parse_dialogues((tmp_path / "corpus.jsonl").read_text().splitlines())
        assert again.dialogues == corpus.dialogues

    def test_dumps_is_deterministic(self, tmp_path):
        corpus = corpus_of(dlg("a", [trn(0, "hi", tlb={"hotel-price": "cheap", "hotel-area": "north"})]))
        texts = []
        for name in ("first.jsonl", "second.jsonl"):
            save_corpus(corpus, str(tmp_path / name))
            texts.append((tmp_path / name).read_text())
        assert texts[0] == texts[1]
        assert '"hotel-area": "north", "hotel-price": "cheap"' in texts[0]
