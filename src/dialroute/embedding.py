"""Turn embeddings: triplet serialization, a hashing embedder, and a trainable
linear projection over frozen base vectors.

The hashing embedder is the built-in, dependency-free encoder: lowercased word
unigrams and bigrams are feature-hashed into a fixed number of signed buckets
and the result is L2-normalized. Precomputed vectors from an external encoder
can be used instead via :class:`EmbeddingStore`, which maps turn keys to
vectors of a shared dimension.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dialogue import Triplet
from .errors import InputError, read_json, read_json_lines

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_SIGN_BIT = 1 << 63


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


def _check_dim(dim: int, error: type[Exception]) -> None:
    if dim < 16 or dim & (dim - 1):
        raise error(f"embedding dim must be a power of two >= 16, got {dim}")


def _embed(text: str, dim: int, key: bytes, memo: dict[str, tuple[int, float]]) -> np.ndarray:
    """The one hashing path: tokenize, look up or hash each feature's
    (bucket, sign), and sum the signs per bucket. ``memo`` caches features
    hashed under this (dim, key)."""
    words = _TOKEN_RE.findall(text.lower())
    features = words + [f"{left} {right}" for left, right in zip(words, words[1:])]
    buckets: list[int] = []
    signs: list[float] = []
    for feature in features:
        hit = memo.get(feature)
        if hit is None:
            h = int.from_bytes(
                hashlib.blake2b(feature.encode("utf-8"), digest_size=8, key=key).digest(),
                "little",
            )
            hit = memo[feature] = (h & (dim - 1), 1.0 if h & _SIGN_BIT else -1.0)
        buckets.append(hit[0])
        signs.append(hit[1])
    # The sums are small integers, so they are exact in any summation order.
    acc = np.bincount(np.array(buckets, dtype=np.intp), weights=signs, minlength=dim)
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        return acc.astype(np.float32)
    return (acc / norm).astype(np.float32)


def _seed_key(seed: int) -> bytes:
    return (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def hash_embed(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """Feature-hash a text into a signed, L2-normalized float32 vector.

    Each lowercased word unigram and adjacent bigram hashes (keyed by the seed)
    to a bucket index and a sign in {-1, +1}; contributions accumulate and the
    sum is normalized. A text with no tokens maps to the zero vector, which is
    left unnormalized. ``dim`` must be a power of two, at least 16.
    """
    _check_dim(dim, ValueError)
    return _embed(text, dim, _seed_key(seed), {})


def finite_vector(value: object, dtype: type) -> np.ndarray | None:
    """``value`` as a flat array of finite numbers, or None if it is not one.
    Numbers that overflow ``dtype`` become infinite and are rejected."""
    try:
        with np.errstate(over="ignore"):
            vector = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        return None
    return vector if vector.ndim == 1 and np.all(np.isfinite(vector)) else None


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


def project(adapter: ProjectionAdapter, vector: np.ndarray) -> np.ndarray:
    """Apply the adapter and L2-normalize. A zero product stays zero."""
    v64 = np.asarray(vector, dtype=np.float64)
    if v64.shape != (adapter.dim,):
        raise ValueError(f"vector dim {v64.shape} does not match adapter dim {adapter.dim}")
    out = adapter.matrix @ v64
    norm = float(np.linalg.norm(out))
    if norm == 0.0:
        return out.astype(np.float32)
    return (out / norm).astype(np.float32)


def save_adapter(adapter: ProjectionAdapter, path: str) -> None:
    record = {"dim": adapter.dim, "matrix": [[float(x) for x in row] for row in adapter.matrix]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
        handle.write("\n")


def load_adapter(path: str) -> ProjectionAdapter:
    record = read_json(path, "adapter")
    if not isinstance(record, dict) or "dim" not in record or "matrix" not in record:
        raise InputError(f"adapter {path!r}: expected an object with dim and matrix")
    dim = record["dim"]
    try:
        matrix = np.asarray(record["matrix"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"adapter {path!r}: malformed matrix ({exc})") from None
    if matrix.shape != (dim, dim):
        raise InputError(f"adapter {path!r}: matrix shape {matrix.shape} does not match dim {dim}")
    if not np.all(np.isfinite(matrix)):
        raise InputError(f"adapter {path!r}: matrix has non-finite entries")
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
        vectors: dict[str, np.ndarray] = {}
        dim: int | None = None
        for key, vector in items:
            arr = np.asarray(vector, dtype=np.float32)
            if key in vectors:
                raise InputError(f"duplicate embedding key {key!r}")
            if dim is None:
                dim = int(arr.shape[0])
            elif arr.shape != (dim,):
                raise InputError(
                    f"embedding for key {key!r} has dim {arr.shape[0]}, expected {dim}"
                )
            vectors[key] = arr
        return cls(vectors, dim or 0)


def load_store(path: str) -> EmbeddingStore:
    """Load a JSON Lines embedding store: ``{"key": …, "vector": […]}`` per line."""
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, record in read_json_lines(path, "embedding store"):
        record_key = record.get("key")
        vector = record.get("vector")
        if not isinstance(record_key, str) or not isinstance(vector, list):
            raise InputError(f"{path}:{lineno}: expected string key and vector list")
        if record_key in vectors:
            raise InputError(f"{path}:{lineno}: duplicate key {record_key!r}")
        arr = finite_vector(vector, np.float32)
        if arr is None:
            raise InputError(
                f"{path}:{lineno}: vector for {record_key!r} is not a flat vector of finite numbers"
            )
        if dim is None:
            dim = int(arr.shape[0])
        elif arr.shape[0] != dim:
            raise InputError(
                f"{path}:{lineno}: vector for key {record_key!r} has dim "
                f"{arr.shape[0]}, expected {dim}"
            )
        vectors[record_key] = arr
    return EmbeddingStore(vectors, dim or 0)


def save_store(store: EmbeddingStore, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for key, vector in store.vectors.items():
            record = {"key": key, "vector": [float(x) for x in vector]}
            handle.write(json.dumps(record) + "\n")


class HashEmbedder:
    """Embeds triplet text with the hashing embedder; ignores the turn key.
    Each feature's (bucket, sign) is hashed once per instance and then reused,
    so the memo grows with the vocabulary the instance has seen."""

    def __init__(self, dim: int, seed: int = 0) -> None:
        _check_dim(dim, InputError)
        self.dim = dim
        self.seed = seed
        self._key = _seed_key(seed)
        self._memo: dict[str, tuple[int, float]] = {}

    def embed(self, key: str, text: str) -> np.ndarray:
        return _embed(text, self.dim, self._key, self._memo)


class StoreEmbedder:
    """Looks embeddings up by turn key; ignores the text."""

    def __init__(self, store: EmbeddingStore) -> None:
        self.store = store
        self.dim = store.dim

    def embed(self, key: str, text: str) -> np.ndarray:
        return self.store.lookup(key)
