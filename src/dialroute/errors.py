"""Shared exception types, the JSON readers that raise them, the type checks
for values read from JSON, and the two atomic JSON writers every artifact
goes through."""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from typing import Any, Iterable, Iterator


class InputError(Exception):
    """Raised for problems in user-supplied data: corpora, prediction files,
    embedding stores, configs. The CLI maps this to exit code 1; anything else
    that escapes is treated as an internal invariant violation (exit code 2).
    """


def is_int(value: object) -> bool:
    """An int read from JSON, where ``true`` and ``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


# The smallest int that float() rounds to infinity and so refuses (OverflowError).
_FLOAT_OVERFLOW = 2**1024 - 2**970


def is_number(value: object) -> bool:
    """A float, or an int that converts to one, read from JSON; booleans
    excluded."""
    if isinstance(value, float):
        return True
    return is_int(value) and -_FLOAT_OVERFLOW < value < _FLOAT_OVERFLOW


def parse_json(text: str, where: str) -> Any:
    """``json.loads(text)``. Malformed JSON, numbers too long to convert and
    nesting too deep to parse raise :class:`InputError` prefixed by ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{where}: malformed JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{where}: malformed JSON ({exc})") from None


def read_json(path: str, what: str) -> Any:
    """The JSON document in the file at ``path``; unreadable, non-UTF-8 and
    malformed files raise :class:`InputError` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot open {what} {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path!r}: not UTF-8 text ({exc.reason})") from None
    return parse_json(text, f"{what} {path!r}")


def read_json_lines(path: str, what: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON Lines file;
    errors as in :func:`read_json`, and a line that is not an object too."""
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open {what} {path!r}: {exc}") from None
    with handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                record = parse_json(line, f"{path}:{lineno}")
                if not isinstance(record, dict):
                    raise InputError(f"{path}:{lineno}: record is not an object")
                yield lineno, record
        except UnicodeDecodeError as exc:
            raise InputError(f"{what} {path!r}: not UTF-8 text ({exc.reason})") from None


def write_json(path: str | os.PathLike, record: Any) -> None:
    """Write ``record`` to ``path`` as one line of JSON, atomically.

    Both writers encode with :func:`json.dumps`, which uses CPython's C
    encoder; :func:`json.dump` to a handle never does."""
    _replace_with(path, json.dumps(record, ensure_ascii=False) + "\n")


def write_json_lines(path: str | os.PathLike, records: Iterable[Any]) -> None:
    """Write each record to ``path`` as one JSON line, atomically: a record
    that fails to encode leaves the file as it was."""
    _replace_with(path, "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))


def _replace_with(path: str | os.PathLike, text: str) -> None:
    """Replace the file at ``path`` with ``text`` through a new temporary file
    in the same directory, so that a reader never sees a half-written file
    and a failed write leaves the old one in place."""
    head, name = os.path.split(os.fspath(path))
    temp = os.path.join(head, f".{name}.{secrets.token_hex(6)}.tmp")
    handle = open(temp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
