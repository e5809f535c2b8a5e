"""Shared exception types, the JSON readers that raise them, the checks every
loader reads its records through, and the two atomic JSON writers every
artifact goes through."""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from typing import Any, Iterable, Iterator, Sequence

import numpy as np


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


# Each kind a field can have, named as a message says what it must be.
_KINDS = {str: "a string", int: "an integer", float: "a number", list: "a list", dict: "an object"}
_REQUIRED = object()


def field(record: dict, key: str, kind: type, where: str, default: Any = _REQUIRED) -> Any:
    """``record[key]`` if it is a ``kind`` (str, int, float, list or dict),
    or ``default`` when the key is absent (or null, where the default is
    None). No kind takes a boolean, and ``float`` also takes an int that
    converts to one. Otherwise :class:`InputError`: ``where``, the key, and
    what it must be. The key follows bare after a ``where`` that ends in a
    colon (``"file:3: confidence must be …"``), quoted after any other
    (``"config field 'k' must be …"``)."""
    value = record.get(key, default)
    if type(value) is kind or value is default is not _REQUIRED:
        return value
    if kind is float and is_number(value):
        return value
    name = key if where.endswith(":") else repr(key)
    if value is _REQUIRED:
        raise InputError(f"{where} {name} is missing")
    raise InputError(f"{where} {name} must be {_KINDS[kind]}, got {value!r}")


def _holds_bool(values: object) -> bool:
    """Whether ``values``, a list of numbers or of such lists, holds a
    boolean; a numpy array holds none that numpy reads as a number."""
    if type(values) is not list:
        return False
    types = set(map(type, values))
    return bool in types or list in types and any(map(_holds_bool, values))


def numbers(values: object, dtype: type) -> np.ndarray:
    """``values`` as a ``dtype`` array, with the bits ``np.array(values,
    dtype)`` gives, if numpy reads them as ints, floats or numbers that
    :func:`is_number` accepts and no boolean is among them; ValueError
    otherwise, where that cast would read ``"1.5"`` as 1.5 and ``true`` as
    1.0."""
    array = np.asarray(values)
    kind = array.dtype.kind
    malformed = kind == "O" and not all(map(is_number, array.flat)) or kind not in "iufO"
    if malformed or _holds_bool(values):
        raise ValueError(f"not an array of numbers ({array.dtype})")
    if kind != "f":
        # np.array(values, dtype) rounds a Python int to float64 first; so do these.
        array = array.astype(np.float64)
    return array.astype(dtype, copy=False)


def vector_rows(
    keys: Sequence[str],
    vectors: Sequence[object],
    where: str | Sequence[str],
    dtype: type = np.float32,
) -> np.ndarray:
    """The vectors as the rows of one ``dtype`` matrix, ``(0, 0)`` when there
    are none. Keys must be unique, and the vectors non-empty flat lists of
    finite numbers of one dim; numbers that overflow ``dtype`` are not
    finite. Otherwise :class:`InputError` names the first key, in order,
    that breaks a rule, after ``where``: one prefix, or one per key."""
    if not keys:
        return np.empty((0, 0), dtype=dtype)
    try:
        with np.errstate(over="ignore"):
            matrix = numbers(vectors, dtype)
    except (TypeError, ValueError, OverflowError):
        matrix = None
    if (
        matrix is not None
        and matrix.ndim == 2
        and matrix.shape[1]
        and np.isfinite(matrix).all()
        and len(set(keys)) == len(keys)
    ):
        return matrix
    seen: set[str] = set()
    dim = None
    for i, (key, vector) in enumerate(zip(keys, vectors)):
        prefix = where if isinstance(where, str) else where[i]
        if key in seen:
            raise InputError(f"{prefix} duplicate key {key!r}")
        seen.add(key)
        try:
            with np.errstate(over="ignore"):
                row = numbers(vector, dtype)
        except (TypeError, ValueError, OverflowError):
            row = None
        if row is None or row.ndim != 1 or not row.size or not np.isfinite(row).all():
            raise InputError(
                f"{prefix} vector for {key!r} is not a non-empty flat list of finite numbers"
            )
        dim = dim or row.size
        if row.size != dim:
            raise InputError(
                f"{prefix} vector for {key!r} has dimension {row.size}, expected {dim}"
            )
    raise AssertionError("vector_rows found no fault in vectors it could not stack")


def parse_json(text: str, where: str) -> Any:
    """``json.loads(text)``. Malformed JSON, numbers too long to convert and
    nesting too deep to parse raise :class:`InputError` prefixed by ``where``
    (which ends in a colon)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{where} malformed JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{where} malformed JSON ({exc})") from None


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
    return parse_json(text, f"{what} {path!r}:")


def parse_json_lines(lines: Iterable[str], prefix: str) -> Iterator[tuple[str, dict]]:
    """(``f"{prefix}{n}:"``, object) for each non-blank line n of JSON Lines
    text; a line that is malformed or not an object raises
    :class:`InputError` after that prefix."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{prefix}{lineno}:"
        record = parse_json(line, where)
        if type(record) is not dict:
            raise InputError(f"{where} record is not an object")
        yield where, record


def read_json_lines(path: str, what: str) -> Iterator[tuple[str, dict]]:
    """(``"path:line:"``, object) for each non-blank line of a JSON Lines
    file; errors as in :func:`read_json`, and a line that is not an object
    too."""
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open {what} {path!r}: {exc}") from None
    with handle:
        try:
            yield from parse_json_lines(handle, f"{path}:")
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
