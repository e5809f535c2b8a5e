"""Turn embeddings: triplet serialization, a hashing embedder, and a trainable
linear projection over frozen base vectors.

The hashing embedder is the built-in, dependency-free encoder: lowercased word
unigrams and bigrams are feature-hashed into a fixed number of signed buckets
and the result is L2-normalized. Precomputed vectors from an external encoder
can be used instead via :class:`EmbeddingStore`, which maps turn keys to
vectors of a shared dimension.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dialogue import Triplet
from .errors import InputError, field, numbers, read_json, read_json_lines, vector_rows
from .errors import write_json, write_json_lines

# Maps every byte that is not [a-z0-9] to a space, so splitting the encoded
# lowercased text yields the same words as the regex [a-z0-9]+ would: any
# non-ASCII character encodes to bytes >= 0x80, which all become separators.
_WORD_BYTES = frozenset(b"abcdefghijklmnopqrstuvwxyz0123456789")
_SEPARATE = bytes(b if b in _WORD_BYTES else 0x20 for b in range(256))


def serialize_triplet(triplet: Triplet) -> str:
    """Render a triplet as retrieval text.

    Format: ``[state] d1-s1=v1; d2-s2=v2 [system] <utterance> [user] <utterance>``
    with state entries sorted by slot name and an empty state rendered as
    ``none``.
    """
    if triplet.prev_state:
        entries = sorted(triplet.prev_state.items(), key=lambda kv: str(kv[0]))
        state = "; ".join(f"{slot}={value}" for slot, value in entries)
    else:
        state = "none"
    return f"[state] {state} [system] {triplet.system_utterance} [user] {triplet.user_utterance}"


def check_dim(dim: int) -> None:
    if dim < 16 or dim & (dim - 1):
        raise InputError(f"embedding dim must be a power of two >= 16, got {dim}")


def _code(feature: bytes, dim: int, key: bytes) -> int:
    """A feature's signed code: its bucket, plus ``dim`` when its sign is -1."""
    h = int.from_bytes(hashlib.blake2b(feature, digest_size=8, key=key).digest(), "little")
    return (h & (dim - 1)) + (0 if h >> 63 else dim)


def _embed(
    text: str, dim: int, key: bytes, memo: dict[bytes | tuple[bytes, bytes], int]
) -> np.ndarray:
    """The one hashing path. Lowercased word unigrams and adjacent bigrams
    each hash (keyed by the seed) to a bucket and a sign in {-1, +1}; the
    signs sum per bucket and the sum is L2-normalized. A text with no words
    maps to the zero vector. ``memo`` caches each feature's signed code under
    this (dim, key): a word under its bytes, a bigram under its word pair."""
    words = text.lower().encode("utf-8", "surrogatepass").translate(_SEPARATE).split()
    features = [*words, *zip(words, words[1:])]
    try:
        codes = list(map(memo.__getitem__, features))
    except KeyError:
        for feature in features:
            if feature not in memo:
                text_bytes = feature if isinstance(feature, bytes) else b" ".join(feature)
                memo[feature] = _code(text_bytes, dim, key)
        codes = list(map(memo.__getitem__, features))
    # Integer sums of the +1 and -1 signs per bucket, and an integer squared
    # norm: exact, so the float64 quotient has the bits of a float sum's.
    counts = np.bincount(codes, minlength=2 * dim)
    acc = counts[:dim] - counts[dim:]
    norm = math.sqrt(acc @ acc)
    return (acc if norm == 0.0 else acc / norm).astype(np.float32)


def _seed_key(seed: int) -> bytes:
    return (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


@dataclass
class ProjectionAdapter:
    """A trainable square matrix applied to base embeddings before scoring.

    The identity adapter leaves retrieval geometry unchanged (projection
    normalizes, and cosine is scale-invariant).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"adapter matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("adapter matrix has non-finite entries")
        self.matrix = m

    @classmethod
    def identity(cls, dim: int) -> "ProjectionAdapter":
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def scaled_norm(v: np.ndarray) -> tuple[np.ndarray, float]:
    """A 1-D float64 vector of ``v``'s direction and its norm, which is NaN
    or infinite when ``v`` is not finite or too long. That is ``v`` itself
    unless its norm is under 2**-60, where its squared norm may have lost
    terms to underflow: then ``v`` times the power of two that brings its
    largest entry into [0.5, 1), which is exact, and cosine does not depend
    on scale. A zero vector stays zero."""
    # For a 1-D float64 vector this is exactly what np.linalg.norm computes.
    norm = math.sqrt(v @ v)
    if norm < 2.0**-60:
        v = np.ldexp(v, -np.frexp(np.max(np.abs(v), initial=0.0))[1])
        norm = math.sqrt(v @ v)
    return v, norm


def project(adapter: ProjectionAdapter, vector: np.ndarray, key: str | None = None) -> np.ndarray:
    """Apply the adapter and L2-normalize. A zero product stays zero. A
    product that is not finite, or whose norm overflows, raises
    :class:`InputError` naming the turn ``key``."""
    v64 = np.asarray(vector, dtype=np.float64)
    if v64.shape != (adapter.dim,):
        raise ValueError(f"vector dim {v64.shape} does not match adapter dim {adapter.dim}")
    out, norm = scaled_norm(adapter.matrix @ v64)
    if not math.isfinite(norm):
        raise InputError(f"turn {key!r}: the adapter maps its embedding out of float64 range")
    if norm != 0.0:
        out /= norm
    return out.astype(np.float32)


def save_adapter(adapter: ProjectionAdapter, path: str) -> None:
    write_json(path, {"dim": adapter.dim, "matrix": adapter.matrix.tolist()})


def load_adapter(path: str) -> ProjectionAdapter:
    where = f"adapter {path!r}:"
    record = read_json(path, "adapter")
    if type(record) is not dict:
        raise InputError(f"{where} expected an object with dim and matrix")
    dim = field(record, "dim", int, where)
    if dim < 1:
        raise InputError(f"{where} dim must be >= 1, got {dim}")
    rows = field(record, "matrix", list, where)
    matrix = vector_rows([f"matrix row {i}" for i in range(len(rows))], rows, where, np.float64)
    if matrix.shape != (dim, dim):
        raise InputError(f"{where} matrix shape {matrix.shape} does not match dim {dim}")
    return ProjectionAdapter(matrix)


@dataclass
class EmbeddingStore:
    """Turn-keyed vectors of one shared dimension."""

    vectors: dict[str, np.ndarray]
    dim: int

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, key: str) -> bool:
        return key in self.vectors

    def __getitem__(self, key: str) -> np.ndarray:
        return self.lookup(key)

    def lookup(self, key: str) -> np.ndarray:
        try:
            return self.vectors[key]
        except KeyError:
            raise InputError(f"embedding store has no vector for key {key!r}") from None

    @classmethod
    def build(cls, items: Iterable[tuple[str, np.ndarray]]) -> "EmbeddingStore":
        keys: list[str] = []
        vectors: list[np.ndarray] = []
        for key, vector in items:
            keys.append(key)
            vectors.append(vector)
        return cls.of_rows(keys, vector_rows(keys, vectors, "embeddings:"))

    @classmethod
    def of_rows(cls, keys: list[str], matrix: np.ndarray) -> "EmbeddingStore":
        """The store whose vector for ``keys[i]`` is row i of ``matrix``."""
        return cls(dict(zip(keys, matrix)), int(matrix.shape[1]))


def load_store(path: str) -> EmbeddingStore:
    """Load a JSON Lines embedding store: ``{"key": …, "vector": […]}`` per line."""
    keys: list[str] = []
    vectors: list[object] = []
    wheres: list[str] = []
    with np.errstate(over="ignore"):
        for where, record in read_json_lines(path, "embedding store"):
            keys.append(field(record, "key", str, where))
            vector = record.get("vector")
            # Each line's numbers are packed at once, so the store never holds
            # its lists of Python floats (8x the memory); vector_rows still
            # checks what the packing made, or what it could not pack.
            with contextlib.suppress(TypeError, ValueError, OverflowError):
                vector = numbers(vector, np.float32)
            vectors.append(vector)
            wheres.append(where)
    return EmbeddingStore.of_rows(keys, vector_rows(keys, vectors, wheres))


def save_store(store: EmbeddingStore, path: str) -> None:
    write_json_lines(
        path,
        ({"key": key, "vector": vector.tolist()} for key, vector in store.vectors.items()),
    )


class HashEmbedder:
    """Embeds triplet text with the hashing embedder; ignores the turn key.
    ``dim`` must be a power of two, at least 16. Each feature's signed code is
    hashed once per instance and then reused, so the memo grows with the
    vocabulary the instance has seen."""

    def __init__(self, dim: int, seed: int = 0) -> None:
        check_dim(dim)
        self.dim = dim
        self.seed = seed
        self._key = _seed_key(seed)
        self._memo: dict[bytes | tuple[bytes, bytes], int] = {}

    def embed(self, key: str, text: str) -> np.ndarray:
        return _embed(text, self.dim, self._key, self._memo)


class StoreEmbedder:
    """Looks embeddings up by turn key; ignores the text."""

    def __init__(self, store: EmbeddingStore) -> None:
        self.store = store
        self.dim = store.dim

    def embed(self, key: str, text: str) -> np.ndarray:
        return self.store.lookup(key)
