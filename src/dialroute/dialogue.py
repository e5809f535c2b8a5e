"""Dialogue corpus model.

A corpus is a list of dialogues; each dialogue is a list of turns. Every turn
carries the system utterance that preceded it (empty for the first turn), the
user utterance, and the gold turn-level belief: the slot values introduced or
changed at that turn. Dialogue state is accumulated over turns by replacement,
so a later value for a slot overwrites the earlier one and slots are never
deleted.

Slot names and values are canonicalized (lowercase, trimmed, inner
whitespace collapsed) at ingestion, and a belief is keyed by the canonical
``domain-slot`` string itself (:func:`slot_name`), the form files hold. The
canonical values ``""`` and ``"none"`` mean "no value" and are dropped with a
warning count rather than stored.

On disk a corpus is JSON Lines, one dialogue per line::

    {"dialogue_id": "d1", "domains": ["hotel"], "turns": [
        {"turn_id": 0, "system": "", "user": "…", "gold_tlb": {"hotel-area": "west"}}]}

Unknown fields are ignored so corpora can carry extra annotations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import InputError, field, read_json_lines, write_json_lines

SEPARATOR = "-"
NULL_VALUES = frozenset({"", "none"})


def canonicalize_value(raw: str) -> str:
    """Lowercase, strip, and collapse internal whitespace runs to one space."""
    return " ".join(raw.lower().split())


@functools.lru_cache(maxsize=4096)
def slot_name(text: str) -> str:
    """The canonical ``domain-slot`` name of ``text``. Neither part may be
    empty and the slot part may not hold the separator, so the name splits
    back unambiguously. Corpora repeat a few dozen names, so each is checked
    once; a name that fails is not cached and fails again with the same
    message."""
    canon = canonicalize_value(text)
    domain, sep, slot = canon.partition(SEPARATOR)
    if not sep:
        raise InputError(f"slot name {text!r} lacks the {SEPARATOR!r} separator")
    for part, label in ((domain, "domain"), (slot, "slot")):
        if not part:
            raise InputError(f"slot name has an empty {label} part")
    if SEPARATOR in slot:
        raise InputError(f"slot name slot {slot!r} contains the separator {SEPARATOR!r}")
    return canon


# Both map canonical slot names to canonical values. A TurnBelief holds the
# changes made at one turn; a DialogueState holds everything accumulated so far.
TurnBelief = dict[str, str]
DialogueState = dict[str, str]


def make_belief(raw: Mapping[str, str], where: str = "belief:") -> tuple[TurnBelief, int]:
    """Canonicalize a raw slot->value map into a belief.

    Returns the belief and the number of entries dropped for carrying a null
    value ("" or "none" after canonicalization). A bad entry raises
    :class:`InputError` after ``where``.
    """
    belief: TurnBelief = {}
    dropped = 0
    for name, value in raw.items():
        if not isinstance(name, str) or not isinstance(value, str):
            raise InputError(f"{where} entry {name!r}: {value!r} is not a string pair")
        canon = canonicalize_value(value)
        if canon in NULL_VALUES:
            dropped += 1
            continue
        try:
            belief[slot_name(name)] = canon
        except InputError as exc:
            raise InputError(f"{where} {exc}") from None
    return belief, dropped


def render_belief(belief: Mapping[str, str]) -> dict[str, str]:
    """The belief sorted by slot name."""
    return dict(sorted(belief.items()))


def turn_key(dialogue_id: str, turn_id: int) -> str:
    """Canonical turn identifier, ``dialogue_id:turn_id``."""
    return f"{dialogue_id}:{turn_id}"


def split_turn_key(key: str) -> tuple[str, int]:
    dialogue_id, sep, turn_id = key.rpartition(":")
    if not sep or not turn_id.isdigit():
        raise InputError(f"malformed turn key {key!r}")
    return dialogue_id, int(turn_id)


@dataclass(frozen=True)
class Turn:
    """One exchange: the preceding system utterance, the user utterance, and
    the gold turn-level belief."""

    turn_id: int
    system_utterance: str
    user_utterance: str
    gold_tlb: TurnBelief


@dataclass(frozen=True)
class Dialogue:
    dialogue_id: str
    domains: frozenset[str]
    turns: tuple[Turn, ...]


@dataclass(frozen=True)
class Triplet:
    """The retrieval/readout unit for one turn: prior state, the system
    utterance that preceded the turn, and the user utterance. The first turn
    of a dialogue always has an empty prior state and system utterance."""

    dialogue_id: str
    turn_id: int
    prev_state: DialogueState
    system_utterance: str
    user_utterance: str

    @property
    def key(self) -> str:
        return turn_key(self.dialogue_id, self.turn_id)


@dataclass(frozen=True)
class LabeledTurn:
    """A turn paired with its gold belief, with the triplet built from
    gold-accumulated prior state. This is the unit hold-out sets are made of."""

    triplet: Triplet
    gold_tlb: TurnBelief

    @property
    def key(self) -> str:
        return self.triplet.key

    @property
    def prev_state(self) -> DialogueState:
        return self.triplet.prev_state


def aggregate_state(prev: DialogueState, tlb: TurnBelief) -> DialogueState:
    """Fold one turn's belief into the running state by replacement.

    Slots absent from ``tlb`` keep their previous value; slots present take the
    new value. Inputs are not modified.
    """
    return {**prev, **tlb}


def accumulate_dialogue(tlbs: Iterable[TurnBelief]) -> list[DialogueState]:
    """Prefix-fold turn beliefs into per-turn dialogue states."""
    states: list[DialogueState] = []
    state: DialogueState = {}
    for tlb in tlbs:
        state = aggregate_state(state, tlb)
        states.append(state)
    return states


def triplet_of_turn(dialogue: Dialogue, t: int, prev_state: DialogueState) -> Triplet:
    """Build the triplet for turn ``t`` with the given prior state.

    ``t`` indexes into the dialogue's turns; the first turn always uses an
    empty prior state and system utterance regardless of what is passed.
    """
    if not 0 <= t < len(dialogue.turns):
        raise IndexError(f"turn {t} out of range for dialogue {dialogue.dialogue_id!r}")
    turn = dialogue.turns[t]
    if t == 0:
        return Triplet(dialogue.dialogue_id, turn.turn_id, {}, "", turn.user_utterance)
    return Triplet(
        dialogue.dialogue_id,
        turn.turn_id,
        dict(prev_state),
        turn.system_utterance,
        turn.user_utterance,
    )


def labeled_turns(dialogue: Dialogue) -> list[LabeledTurn]:
    """All turns of a dialogue as labeled turns with gold-accumulated priors."""
    states = accumulate_dialogue(turn.gold_tlb for turn in dialogue.turns)
    out: list[LabeledTurn] = []
    for t, turn in enumerate(dialogue.turns):
        prev = {} if t == 0 else states[t - 1]
        out.append(LabeledTurn(triplet_of_turn(dialogue, t, prev), turn.gold_tlb))
    return out


@dataclass
class Corpus:
    """A parsed corpus plus ingestion statistics."""

    dialogues: tuple[Dialogue, ...]
    dropped_values: int = 0

    def __iter__(self) -> Iterator[Dialogue]:
        return iter(self.dialogues)

    def __len__(self) -> int:
        return len(self.dialogues)

    def turn_count(self) -> int:
        return sum(len(d.turns) for d in self.dialogues)

    def gold_tlbs(self) -> dict[str, TurnBelief]:
        """Map every turn key to its gold belief."""
        return {
            turn_key(d.dialogue_id, turn.turn_id): turn.gold_tlb
            for d in self.dialogues
            for turn in d.turns
        }

    def labeled(self) -> list[LabeledTurn]:
        """All turns across the corpus as labeled turns (gold priors)."""
        out: list[LabeledTurn] = []
        for dialogue in self.dialogues:
            out.extend(labeled_turns(dialogue))
        return out


def _parse_turn(raw: object, index: int) -> tuple[Turn, int]:
    """The turn at ``index`` of a dialogue record; errors do not say where."""
    if type(raw) is not dict:
        raise InputError("not an object")
    turn_id = field(raw, "turn_id", int, "field")
    if turn_id != index:
        raise InputError(f"turn_id {turn_id} at position {index} (must be {index})")
    user = field(raw, "user", str, "field")
    if not user:
        raise InputError("user utterance is empty")
    gold, dropped = make_belief(field(raw, "gold_tlb", dict, "field", {}), "gold_tlb:")
    return Turn(turn_id, field(raw, "system", str, "field", ""), user, gold), dropped


def _parse_corpus(records: Iterable[tuple[str, dict]]) -> Corpus:
    """The corpus of (where, record) pairs, one dialogue per record.

    Raises :class:`InputError` after ``where`` for malformed records,
    duplicate dialogue ids, out-of-order turn ids, and empty user utterances.
    """
    dialogues: list[Dialogue] = []
    seen: set[str] = set()
    dropped = 0
    for at, raw in records:
        dialogue_id = field(raw, "dialogue_id", str, at)
        where = f"{at} dialogue {dialogue_id!r}:"
        if not dialogue_id or dialogue_id in seen:
            raise InputError(f"{where} empty or duplicate dialogue_id")
        seen.add(dialogue_id)
        domains_raw = field(raw, "domains", list, where, [])
        if not all(type(x) is str for x in domains_raw):
            raise InputError(f"{where} domains is not a list of strings")
        turns_raw = field(raw, "turns", list, where)
        if not turns_raw:
            raise InputError(f"{where} turns is empty")
        turns: list[Turn] = []
        for index, turn_raw in enumerate(turns_raw):
            try:
                turn, turn_dropped = _parse_turn(turn_raw, index)
            except InputError as exc:
                raise InputError(f"{where} turn {index}: {exc}") from None
            dropped += turn_dropped
            turns.append(turn)
        domains = frozenset(canonicalize_value(x) for x in domains_raw)
        dialogues.append(Dialogue(dialogue_id, domains, tuple(turns)))
    return Corpus(tuple(dialogues), dropped)


def _dialogue_record(dialogue: Dialogue) -> dict:
    return {
        "dialogue_id": dialogue.dialogue_id,
        "domains": sorted(dialogue.domains),
        "turns": [
            {
                "turn_id": turn.turn_id,
                "system": turn.system_utterance,
                "user": turn.user_utterance,
                "gold_tlb": render_belief(turn.gold_tlb),
            }
            for turn in dialogue.turns
        ],
    }


def load_corpus(path: str) -> Corpus:
    return _parse_corpus(read_json_lines(path, "corpus"))


def save_corpus(corpus: Corpus, path: str) -> None:
    write_json_lines(path, map(_dialogue_record, corpus.dialogues))
