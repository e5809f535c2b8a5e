"""Shared exception types, the JSON readers that raise them, the checks every
loader reads its records through, and the atomic writers every artifact goes
through, vector tables (a JSON head and an ``.npy`` body) among them. The
writers make an artifact's directory, and a path the OS refuses to read or
write is an :class:`InputError`."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import secrets
from typing import Any, Callable, Iterable, Iterator, Sequence

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


def vector_rows(
    keys: Sequence[str],
    vectors: Sequence[object],
    where: str,
    dtype: type = np.float32,
) -> np.ndarray:
    """The vectors as the rows of one ``dtype`` matrix, ``(0, 0)`` when there
    are none, each cast by ``np.asarray(vector, dtype=dtype)``: from a file,
    :func:`read_table` has already refused every body that is not floats.
    Keys must be unique, and the vectors non-empty and flat, of one dim and
    finite; numbers that overflow ``dtype`` are not finite, and neither they
    nor signaling NaNs warn. Otherwise :class:`InputError` names the first
    key, in order, that breaks a rule, after ``where``."""
    if not keys:
        return np.empty((0, 0), dtype=dtype)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = np.asarray(vectors, dtype=dtype)
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
    for key, vector in zip(keys, vectors):
        if key in seen:
            raise InputError(f"{where} duplicate key {key!r}")
        seen.add(key)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                row = np.asarray(vector, dtype=dtype)
        except (TypeError, ValueError, OverflowError):
            row = None
        if row is None or row.ndim != 1 or not row.size or not np.isfinite(row).all():
            raise InputError(
                f"{where} vector for {key!r} is not a non-empty flat list of finite numbers"
            )
        dim = dim or row.size
        if row.size != dim:
            raise InputError(
                f"{where} vector for {key!r} has dimension {row.size}, expected {dim}"
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
    malformed files, and paths the OS refuses (a NUL in them among others),
    raise :class:`InputError` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path!r}: not UTF-8 text ({exc.reason})") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise InputError(f"cannot open {what} {path!r}: {exc}") from None
    return parse_json(text, f"{what} {path!r}:")


def read_json_lines(path: str, what: str) -> Iterator[tuple[str, dict]]:
    """(``"path:line:"``, object) for each non-blank line of a JSON Lines
    file; errors as in :func:`read_json`, and a line that is not an object
    too."""
    try:
        handle = open(path, "r", encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot open {what} {path!r}: {exc}") from None
    with handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                where = f"{path}:{lineno}:"
                record = parse_json(line, where)
                if type(record) is not dict:
                    raise InputError(f"{where} record is not an object")
                yield where, record
        except UnicodeDecodeError as exc:
            raise InputError(f"{what} {path!r}: not UTF-8 text ({exc.reason})") from None


def write_json(path: str | os.PathLike, record: Any) -> None:
    """Write ``record`` to ``path`` as one line of JSON, atomically.

    Both writers encode with :func:`json.dumps`, which uses CPython's C
    encoder; :func:`json.dump` to a handle never does."""
    _replace_with(path, (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8"))


def write_json_lines(path: str | os.PathLike, records: Iterable[Any]) -> None:
    """Write each record to ``path`` as one JSON line, atomically: a record
    that fails to encode leaves the file as it was."""
    text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    _replace_with(path, text.encode("utf-8"))


def _body_path(head_path: str | os.PathLike) -> str:
    """The path of a table's ``.npy`` body: its head's, suffix replaced."""
    stem, suffix = os.path.splitext(os.fspath(head_path))
    if suffix == ".npy":
        raise InputError(f"table head {os.fspath(head_path)!r} ends in .npy, its body's suffix")
    return stem + ".npy"


def write_table(head_path: str | os.PathLike, head: dict, matrix: np.ndarray) -> None:
    """Write ``matrix`` as the ``.npy`` body under a temporary name, then
    ``head`` with the body's blake2b digest and dim put first, atomically,
    then rename the body into place. A head that cannot be written leaves
    the old table; a crash (or a failed rename) between the two leaves a new
    head that :func:`read_table` refuses with the old body."""
    body = io.BytesIO()
    np.lib.format.write_array(body, matrix, allow_pickle=False)
    data = body.getvalue()
    digest = hashlib.blake2b(data).hexdigest()
    record = {"body_blake2b": digest, "dim": int(matrix.shape[1]), **head}
    _replace_with(_body_path(head_path), data, before=lambda: write_json(head_path, record))


def read_table(
    head_path: str,
    what: str,
    dtype: type,
    keys: Callable[[dict, str], Sequence[str]] | None,
) -> tuple[dict, np.ndarray]:
    """The JSON head at ``head_path`` and its body as a ``dtype`` matrix, row
    i for key i of ``keys(head, where)`` (None: a square matrix, its rows
    named ``matrix row i``). Checked in order, each failure an
    :class:`InputError`: the body's digest, the ``.npy`` format (no pickles),
    a floating dtype, 2-D with dim columns and a row per key, then (by
    :func:`vector_rows`, naming the first bad key) unique keys, finite rows."""
    where = f"{what} {head_path!r}:"
    path = _body_path(head_path)
    head = read_json(head_path, what)
    if type(head) is not dict:
        raise InputError(f"{where} expected an object with body_blake2b and dim")
    digest = field(head, "body_blake2b", str, where)
    dim = field(head, "dim", int, where)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot open {what} body {path!r}: {exc}") from None
    if hashlib.blake2b(data).hexdigest() != digest:
        raise InputError(f"{where} body {path!r} does not match its digest (stale or damaged)")
    try:
        matrix = np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)
    except Exception as exc:  # noqa: BLE001 - numpy's header parser raises many kinds on bad bytes
        raise InputError(f"{what} body {path!r}: not a readable .npy array ({exc})") from None
    if matrix.dtype.kind != "f" or matrix.ndim != 2:
        shape = f"{matrix.ndim}-D {matrix.dtype}"
        raise InputError(f"{what} body {path!r} must be a 2-D floating array, got {shape}")
    if matrix.shape[1] != dim:
        raise InputError(f"{where} body has {matrix.shape[1]} columns, but dim is {dim}")
    names = keys(head, where) if keys else None
    rows = dim if names is None else len(names)
    if len(matrix) != rows:
        raise InputError(f"{where} body has {len(matrix)} rows for {rows} keys")
    names = names or [f"matrix row {i}" for i in range(rows)]
    return head, vector_rows(names, matrix, where, dtype)


def _replace_with(
    path: str | os.PathLike, data: bytes, before: Callable[[], Any] = lambda: None
) -> None:
    """Replace the file at ``path`` with ``data`` through a new temporary file
    in the same directory, made first if missing, so that a reader never
    sees a half-written file and a failed write leaves the old one in place.
    ``before`` runs once the data is written, before the rename; if it
    raises, so does this, and the old file stays. A path the OS refuses
    raises :class:`InputError` naming it."""
    head, name = os.path.split(os.fspath(path))
    temp = os.path.join(head, f".{name}.{secrets.token_hex(6)}.tmp")
    try:
        os.makedirs(head or ".", exist_ok=True)
        handle = open(temp, "xb")
        try:
            with handle:
                handle.write(data)
            before()
            os.replace(temp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp)
            raise
    except (OSError, ValueError) as exc:
        if getattr(exc, "filename2", None):  # a failed replace: name the target, not the temp
            exc = OSError(exc.errno, exc.strerror, exc.filename2)
        raise InputError(f"cannot write {os.fspath(path)!r}: {exc}") from None
