"""Shared exception types, and the JSON readers that raise them."""

from __future__ import annotations

import json
from typing import Any, Iterator


class InputError(Exception):
    """Raised for problems in user-supplied data: corpora, prediction files,
    embedding stores, configs. The CLI maps this to exit code 1; anything else
    that escapes is treated as an internal invariant violation (exit code 2).
    """


def read_json(path: str, what: str) -> Any:
    """The JSON document in the file at ``path``; unreadable, non-UTF-8 and
    malformed files raise :class:`InputError` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot open {what} {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path!r}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} {path!r}: malformed JSON ({exc.msg})") from None


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
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
                if not isinstance(record, dict):
                    raise InputError(f"{path}:{lineno}: record is not an object")
                yield lineno, record
        except UnicodeDecodeError as exc:
            raise InputError(f"{what} {path!r}: not UTF-8 text ({exc.reason})") from None
