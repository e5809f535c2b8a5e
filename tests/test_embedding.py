"""Hashing embedder, the reference cosine, projection adapter, and store serialization."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dialroute import (
    EmbeddingStore,
    HashEmbedder,
    InputError,
    ProjectionAdapter,
    SlotName,
    StoreEmbedder,
    load_adapter,
    load_store,
    project,
    save_adapter,
    save_store,
    serialize_triplet,
)
from dialroute.dialogue import Triplet

from conftest import cosine


def reference_hash_embed(text, dim, seed):
    """Per-feature accumulation into a float64 array, one hash per occurrence."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    words = re.findall(r"[a-z0-9]+", text.lower())
    acc = np.zeros(dim, dtype=np.float64)
    for feature in words + [f"{a} {b}" for a, b in zip(words, words[1:])]:
        digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8, key=key).digest()
        h = int.from_bytes(digest, "little")
        acc[h & (dim - 1)] += 1.0 if h >> 63 else -1.0
    norm = float(np.linalg.norm(acc))
    return (acc if norm == 0.0 else acc / norm).astype(np.float32)


class TestSerializeTriplet:
    def test_degenerate_fields(self):
        t = Triplet("d", 0, {}, "", "hi")
        assert serialize_triplet(t) == "[state] none [system]  [user] hi"

    def test_state_sorted_by_slot(self):
        state = {SlotName("train", "day"): "monday", SlotName("hotel", "area"): "west"}
        t = Triplet("d", 1, state, "Any area?", "West please")
        assert (
            serialize_triplet(t)
            == "[state] hotel-area=west; train-day=monday [system] Any area? [user] West please"
        )

    def test_entry_order_irrelevant(self):
        a = {SlotName("a", "x"): "1", SlotName("b", "y"): "2"}
        b = dict(reversed(list(a.items())))
        assert serialize_triplet(Triplet("d", 1, a, "s", "u")) == serialize_triplet(
            Triplet("d", 1, b, "s", "u")
        )


def embed(text, dim, seed=0):
    return HashEmbedder(dim, seed).embed("any:0", text)


class TestHashEmbed:
    def test_deterministic(self):
        a = embed("find me a hotel", 64, seed=9)
        b = embed("find me a hotel", 64, seed=9)
        assert np.array_equal(a, b)

    def test_seed_changes_vector(self):
        a = embed("find me a hotel", 64, seed=1)
        b = embed("find me a hotel", 64, seed=2)
        assert not np.array_equal(a, b)

    def test_normalized(self):
        v = embed("the cheap hotel in the north", 128)
        assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-5)

    def test_empty_text_is_zero_vector(self):
        assert not embed("", 32).any()
        assert not embed("!!! ???", 32).any()  # no word characters

    def test_case_insensitive(self):
        assert np.array_equal(embed("Hotel NORTH", 64), embed("hotel north", 64))

    def test_bigrams_distinguish_order(self):
        assert not np.array_equal(embed("cheap hotel", 64), embed("hotel cheap", 64))

    @pytest.mark.parametrize("dim", [0, 1, 8, 15, 17, 100])
    def test_rejects_bad_dims(self, dim):
        with pytest.raises(InputError, match="power of two"):
            HashEmbedder(dim)

    def test_dtype(self):
        assert embed("x y z", 16).dtype == np.float32


class TestCosine:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert math.isclose(cosine(v, v), 1.0, rel_tol=1e-12)

    def test_orthogonal_and_opposite(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
        assert math.isclose(cosine(np.array([1.0, 0.0]), np.array([-2.0, 0.0])), -1.0)

    def test_zero_vector_scores_zero(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(3), np.ones(4))

    @given(st.integers(0, 2**32 - 1))
    def test_scale_invariant(self, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.normal(size=8), rng.normal(size=8)
        assert math.isclose(cosine(u, v), cosine(3.5 * u, v), abs_tol=1e-12)
        assert -1.0 - 1e-12 <= cosine(u, v) <= 1.0 + 1e-12


class TestAdapter:
    def test_identity_preserves_normalized_vectors(self):
        adapter = ProjectionAdapter.identity(32)
        v = embed("hello there", 32)
        assert np.allclose(project(adapter, v), v, atol=1e-7)

    def test_projection_output_is_normalized(self):
        rng = np.random.default_rng(0)
        adapter = ProjectionAdapter(rng.normal(size=(16, 16)))
        out = project(adapter, rng.normal(size=16))
        assert math.isclose(float(np.linalg.norm(out)), 1.0, abs_tol=1e-5)
        assert out.dtype == np.float32

    def test_zero_output_stays_zero(self):
        adapter = ProjectionAdapter(np.zeros((4, 4)))
        assert not project(adapter, np.ones(4)).any()

    def test_output_whose_squared_norm_underflows_is_normalized(self):
        adapter = ProjectionAdapter(np.eye(2) * 1e-170)
        assert project(adapter, np.array([1.0, 0.0])).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize(
        "matrix, vector",
        [
            (np.full((4, 4), 1e308), np.full(4, 10.0)),  # the product overflows
            (np.full((4, 4), 1e200), np.full(4, 1e10)),  # its squared norm overflows
            (np.array([[1e308, 1e308], [0.0, 1.0]]), np.array([1e308, -1e308])),  # inf - inf
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflow_is_an_input_error_naming_the_turn(self, matrix, vector):
        with pytest.raises(InputError, match="'d1:3'"):
            project(ProjectionAdapter(matrix), vector, "d1:3")

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ProjectionAdapter(np.zeros((3, 4)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ProjectionAdapter(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        adapter = ProjectionAdapter(rng.normal(size=(8, 8)))
        path = tmp_path / "adapter.json"
        save_adapter(adapter, str(path))
        again = load_adapter(str(path))
        assert np.array_equal(again.matrix, adapter.matrix)

    def test_load_rejects_ragged_matrix(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "matrix": [[1.0, 0.0], [0.0]]}))
        with pytest.raises(InputError):
            load_adapter(str(path))


class TestStore:
    def entries(self):
        rng = np.random.default_rng(1)
        return [(f"d:{i}", rng.normal(size=8).astype(np.float32)) for i in range(5)]

    def test_build_and_lookup(self):
        store = EmbeddingStore.build(self.entries())
        assert len(store) == 5 and store.dim == 8
        assert "d:3" in store
        with pytest.raises(InputError, match="d:9"):
            store.lookup("d:9")

    def test_build_rejects_duplicates(self):
        with pytest.raises(InputError, match="duplicate"):
            EmbeddingStore.build([("a", np.ones(4)), ("a", np.ones(4))])

    def test_build_rejects_mixed_dims(self):
        with pytest.raises(InputError):
            EmbeddingStore.build([("a", np.ones(4)), ("b", np.ones(8))])

    def test_save_load_round_trip(self, tmp_path):
        store = EmbeddingStore.build(self.entries())
        path = tmp_path / "store.jsonl"
        save_store(store, str(path))
        again = load_store(str(path))
        assert len(again) == len(store)
        for key, _ in self.entries():
            assert np.allclose(again.lookup(key), store.lookup(key), atol=1e-7)

    def test_save_is_byte_deterministic(self, tmp_path):
        store = EmbeddingStore.build(self.entries())
        save_store(store, str(tmp_path / "a.jsonl"))
        save_store(store, str(tmp_path / "b.jsonl"))
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_load_names_offending_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"key": "a", "vector": [1.0, 2.0]}\n{"key": "b", "vector": [1.0]}\n')
        with pytest.raises(InputError, match=":2:"):
            load_store(str(path))

    def test_load_rejects_non_finite(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"key": "a", "vector": [1.0, null]}\n')
        with pytest.raises(InputError):
            load_store(str(path))

    @pytest.mark.parametrize("vector", ['["x", 1]', "[[1.0], [2.0]]", "[NaN]"])
    def test_load_rejects_non_numeric_or_nested(self, tmp_path, vector):
        path = tmp_path / "store.jsonl"
        path.write_text(f'{{"key": "a", "vector": {vector}}}\n')
        with pytest.raises(InputError, match="finite numbers"):
            load_store(str(path))


class TestEmbedders:
    def test_hash_embedder_matches_function(self):
        embedder = HashEmbedder(64, seed=5)
        text = "[state] none [system]  [user] hi"
        assert np.array_equal(embedder.embed("any:0", text), reference_hash_embed(text, 64, 5))

    def test_hash_embedder_rejects_bad_dim(self):
        with pytest.raises(InputError):
            HashEmbedder(12)

    @given(
        st.lists(
            st.text(
                # ASCII words and separators, tabs and newlines, non-ASCII
                # letters, the Kelvin sign and dotted capital I (both lowercase
                # into ASCII), and lone surrogates.
                alphabet=st.one_of(
                    st.sampled_from("abcAB 01-.!\t\n\u212a\u0130\u00e9\u00df\u0391\u4e2d"),
                    st.characters(categories=["Cs"]),
                    st.characters(),
                ),
                max_size=40,
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([16, 64, 256]),
        st.integers(0, 2**64 - 1),
    )
    def test_memoized_embedder_is_byte_identical_cold_and_warm(self, texts, dim, seed):
        embedder = HashEmbedder(dim, seed)
        for _ in range(2):  # the second pass hits the memo for every feature
            for text in texts:
                want = reference_hash_embed(text, dim, seed).tobytes()
                assert embed(text, dim, seed).tobytes() == want
                got = embedder.embed("any:0", text)
                assert got.dtype == np.float32
                assert got.tobytes() == want

    @pytest.mark.parametrize("dim, seed", [(64, 2), (128, 1)])
    def test_instances_do_not_share_memo_entries(self, dim, seed):
        text = "i need a cheap hotel in the north"
        warm = HashEmbedder(64, 1)
        warm.embed("any:0", text)
        other = HashEmbedder(dim, seed)
        assert other.embed("any:0", text).tobytes() == embed(text, dim, seed).tobytes()
        assert warm.embed("any:0", text).tobytes() == embed(text, 64, 1).tobytes()

    def test_hash_embedder_text_without_tokens_is_zero(self):
        embedder = HashEmbedder(32, seed=4)
        embedder.embed("any:0", "hotel north")
        for text in ("", "!!! ???"):
            vector = embedder.embed("any:0", text)
            assert vector.dtype == np.float32 and vector.shape == (32,)
            assert not vector.any()

    def test_store_embedder_looks_up_by_key(self):
        store = EmbeddingStore.build([("d:0", np.ones(4))])
        embedder = StoreEmbedder(store)
        assert np.array_equal(embedder.embed("d:0", "ignored text"), np.ones(4))
        with pytest.raises(InputError):
            embedder.embed("d:1", "whatever")
