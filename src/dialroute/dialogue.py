"""Dialogue corpus model.

A corpus is a list of dialogues; each dialogue is a list of turns. Every turn
carries the system utterance that preceded it (empty for the first turn), the
user utterance, and the gold turn-level belief: the slot values introduced or
changed at that turn. Dialogue state is accumulated over turns by replacement,
so a later value for a slot overwrites the earlier one and slots are never
deleted.

Values are canonicalized (lowercase, trimmed, inner whitespace collapsed) at
ingestion. The canonical values ``""`` and ``"none"`` mean "no value" and are
dropped with a warning count rather than stored.

On disk a corpus is JSON Lines, one dialogue per line::

    {"dialogue_id": "d1", "domains": ["hotel"], "turns": [
        {"turn_id": 0, "system": "", "user": "…", "gold_tlb": {"hotel-area": "west"}}]}

Unknown fields are ignored so corpora can carry extra annotations.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import InputError

SEPARATOR = "-"
NULL_VALUES = frozenset({"", "none"})


def canonicalize_value(raw: str) -> str:
    """Lowercase, strip, and collapse internal whitespace runs to one space."""
    return " ".join(raw.lower().split())


@dataclass(frozen=True)
class SlotName:
    """A domain-qualified slot, rendered as ``domain-slot``.

    Neither part may be empty or contain the separator, so the rendered form
    parses back unambiguously.
    """

    domain: str
    slot: str

    def __post_init__(self) -> None:
        for part, label in ((self.domain, "domain"), (self.slot, "slot")):
            if not part:
                raise InputError(f"slot name has an empty {label} part")
            if SEPARATOR in part:
                raise InputError(
                    f"slot name {label} {part!r} contains the separator {SEPARATOR!r}"
                )

    @classmethod
    def parse(cls, text: str) -> "SlotName":
        canon = canonicalize_value(text)
        domain, sep, slot = canon.partition(SEPARATOR)
        if not sep:
            raise InputError(f"slot name {text!r} lacks the {SEPARATOR!r} separator")
        return cls(domain, slot)

    def __str__(self) -> str:
        return f"{self.domain}{SEPARATOR}{self.slot}"


# Both are maps from slot name to canonical value. A TurnBelief holds the
# changes made at one turn; a DialogueState holds everything accumulated so far.
TurnBelief = dict[SlotName, str]
DialogueState = dict[SlotName, str]


def make_belief(raw: Mapping[str, str]) -> tuple[TurnBelief, int]:
    """Canonicalize a raw slot->value map into a belief.

    Returns the belief and the number of entries dropped for carrying a null
    value ("" or "none" after canonicalization).
    """
    belief: TurnBelief = {}
    dropped = 0
    for name, value in raw.items():
        if not isinstance(name, str) or not isinstance(value, str):
            raise InputError(f"belief entry {name!r}: {value!r} is not a string pair")
        canon = canonicalize_value(value)
        if canon in NULL_VALUES:
            dropped += 1
            continue
        belief[SlotName.parse(name)] = canon
    return belief, dropped


def render_belief(belief: Mapping[SlotName, str]) -> dict[str, str]:
    """Render a belief as a plain string map, sorted by slot name."""
    return {str(slot): value for slot, value in sorted(belief.items(), key=lambda kv: str(kv[0]))}


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
    _by_id: dict[str, Dialogue] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_id = {d.dialogue_id: d for d in self.dialogues}

    def __iter__(self) -> Iterator[Dialogue]:
        return iter(self.dialogues)

    def __len__(self) -> int:
        return len(self.dialogues)

    def get(self, dialogue_id: str) -> Dialogue:
        try:
            return self._by_id[dialogue_id]
        except KeyError:
            raise InputError(f"corpus has no dialogue {dialogue_id!r}") from None

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


def _parse_turn(raw: object, index: int, where: str) -> tuple[Turn, int]:
    if not isinstance(raw, dict):
        raise InputError(f"{where}: turn {index} is not an object")
    turn_id = raw.get("turn_id")
    if not isinstance(turn_id, int) or isinstance(turn_id, bool) or turn_id != index:
        raise InputError(f"{where}: turn_id {turn_id!r} at position {index} (must be {index})")
    system = raw.get("system", "")
    user = raw.get("user")
    if not isinstance(system, str):
        raise InputError(f"{where}: turn {index} system utterance is not a string")
    if not isinstance(user, str) or not user:
        raise InputError(f"{where}: turn {index} user utterance is missing or empty")
    gold_raw = raw.get("gold_tlb", {})
    if not isinstance(gold_raw, dict):
        raise InputError(f"{where}: turn {index} gold_tlb is not an object")
    try:
        gold, dropped = make_belief(gold_raw)
    except InputError as exc:
        raise InputError(f"{where}: turn {index}: {exc}") from None
    return Turn(turn_id, system, user, gold), dropped


def parse_dialogues(lines: Iterable[str]) -> Corpus:
    """Parse a JSON Lines corpus. Blank lines are skipped.

    Raises :class:`InputError` naming the offending line for malformed records,
    duplicate dialogue ids, out-of-order turn ids, and empty user utterances.
    """
    dialogues: list[Dialogue] = []
    seen: set[str] = set()
    dropped = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"line {lineno}: malformed JSON ({exc.msg})") from None
        if not isinstance(raw, dict):
            raise InputError(f"line {lineno}: record is not an object")
        dialogue_id = raw.get("dialogue_id")
        if not isinstance(dialogue_id, str) or not dialogue_id:
            raise InputError(f"line {lineno}: missing or empty dialogue_id")
        where = f"line {lineno} (dialogue {dialogue_id!r})"
        if dialogue_id in seen:
            raise InputError(f"{where}: duplicate dialogue_id")
        seen.add(dialogue_id)
        domains_raw = raw.get("domains", [])
        if not isinstance(domains_raw, list) or not all(isinstance(x, str) for x in domains_raw):
            raise InputError(f"{where}: domains is not a list of strings")
        domains = frozenset(canonicalize_value(x) for x in domains_raw)
        turns_raw = raw.get("turns")
        if not isinstance(turns_raw, list) or not turns_raw:
            raise InputError(f"{where}: turns is missing or empty")
        turns: list[Turn] = []
        for index, turn_raw in enumerate(turns_raw):
            turn, turn_dropped = _parse_turn(turn_raw, index, where)
            dropped += turn_dropped
            turns.append(turn)
        dialogues.append(Dialogue(dialogue_id, domains, tuple(turns)))
    return Corpus(tuple(dialogues), dropped)


def dumps_dialogue(dialogue: Dialogue) -> str:
    record = {
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
    return json.dumps(record, ensure_ascii=False)


def write_corpus(corpus: Corpus, stream: io.TextIOBase) -> None:
    for dialogue in corpus.dialogues:
        stream.write(dumps_dialogue(dialogue) + "\n")


def load_corpus(path: str) -> Corpus:
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open corpus {path!r}: {exc}") from None
    with handle:
        try:
            return parse_dialogues(handle)
        except UnicodeDecodeError as exc:
            raise InputError(f"corpus {path!r}: not UTF-8 text ({exc.reason})") from None


def save_corpus(corpus: Corpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_corpus(corpus, handle)
