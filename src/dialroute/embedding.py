"""Turn embeddings: triplet serialization, a hashing embedder, and a trainable
linear projection over frozen base vectors.

The hashing embedder is the built-in, dependency-free encoder: lowercased word
unigrams and bigrams are feature-hashed into a fixed number of signed buckets
and the result is L2-normalized. Precomputed vectors from an external encoder
can be used instead via :class:`EmbeddingStore`, which maps turn keys to
vectors of a shared dimension and embeds a turn by its key.

A store, an adapter and each expert pool are saved as a vector table: a JSON
*head*, and beside it an ``.npy`` *body* (NEP 1; no pickles, no timestamps)
of the same stem. The head holds ``body_blake2b``, the hex blake2b digest of
the body's bytes, which must match; ``dim``, its column count; and one row's
key per body row: a store lists ``keys`` (body float32), a pool ``expert``
and ``entries`` of ``{"key", "text"}`` (float32), and an adapter none (body
``dim`` x ``dim`` float64, exact bits).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dialogue import Triplet
from .errors import InputError, field, read_table, vector_rows, write_table

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
        entries = sorted(triplet.prev_state.items())
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
        # A copy on a 64-byte boundary: the matrix-vector product of
        # ``project`` runs ~20% slower off one, where the allocator may leave it.
        buffer = np.empty(m.nbytes + 64, dtype=np.uint8)
        start = -buffer.ctypes.data % 64
        self.matrix = buffer[start : start + m.nbytes].view(np.float64).reshape(m.shape)
        self.matrix[...] = m

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
    write_table(path, {}, adapter.matrix)


def load_adapter(path: str) -> ProjectionAdapter:
    _, matrix = read_table(path, "adapter", np.float64, None)
    if not matrix.size:
        raise InputError(f"adapter {path!r}: dim must be >= 1, got 0")
    return ProjectionAdapter(matrix)


@dataclass
class EmbeddingStore:
    """Turn-keyed vectors of one shared dimension. A store embeds a query by
    its turn key, so an imported store is a query embedder."""

    vectors: dict[str, np.ndarray]
    dim: int

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, key: str) -> bool:
        return key in self.vectors

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            return self.vectors[key]
        except KeyError:
            raise InputError(f"embedding store has no vector for key {key!r}") from None

    def embed(self, key: str, text: str) -> np.ndarray:
        """The vector of turn ``key``; the text is not read."""
        return self[key]

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


def _store_keys(head: dict, where: str) -> list[str]:
    keys = field(head, "keys", list, where)
    if not all(type(key) is str for key in keys):
        raise InputError(f"{where} keys must be a list of strings")
    return keys


def load_store(path: str) -> EmbeddingStore:
    """Load an embedding store: a head listing ``keys`` and a float body."""
    head, matrix = read_table(path, "embedding store", np.float32, _store_keys)
    return EmbeddingStore.of_rows(head["keys"], matrix)


def save_store(store: EmbeddingStore, path: str) -> None:
    matrix = np.array(list(store.vectors.values()), dtype=np.float32)
    write_table(path, {"keys": list(store.vectors)}, matrix.reshape(len(store), store.dim))


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
