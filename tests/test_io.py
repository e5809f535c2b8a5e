"""The shared artifact writers: atomic replacement, and the same bytes as the
``json.dump``-to-handle writers they replaced (kept in ``oracles``)."""

import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dialroute import (
    LLM,
    SLM,
    EmbeddingStore,
    ExpertPool,
    ExpertPrediction,
    PairSet,
    PoolEntry,
    ProjectionAdapter,
    SlotName,
    load_pool,
    load_predictions,
    load_store,
    make_series,
    save_adapter,
    save_pool,
    save_report,
    save_series,
    save_store,
    write_predictions,
)
from dialroute.cli import save_training
from dialroute.errors import write_json, write_json_lines
from dialroute.supervision import save_pairs

F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
EDGES = np.array([-0.0, 0.0, F32_TINY, -F32_TINY, F32_MAX, -F32_MAX, 1.0 / 3.0], dtype=np.float32)


class TestAtomicWrites:
    WRITERS = {
        "json": lambda path: write_json(path, {"new": [1.5, "é"]}),
        "json_lines": lambda path: write_json_lines(path, [{"new": 1}, {"new": 2}]),
    }

    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_bytes(b"old contents that are longer than the new ones\n")
        write_json(path, {"new": [1.5, "é"]})
        assert path.read_bytes() == '{"new": [1.5, "é"]}\n'.encode("utf-8")
        write_json_lines(str(path), iter([{"a": 1}, {"b": None}]))
        assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"b": null}\n'
        assert os.listdir(tmp_path) == ["a.json"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_replace_keeps_the_target(self, tmp_path, writer):
        path = tmp_path / "artifact"
        path.write_bytes(b"old\n")
        with mock.patch("dialroute.errors.os.replace", side_effect=OSError("disk gone")):
            with pytest.raises(OSError, match="disk gone"):
                self.WRITERS[writer](path)
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["artifact"]

    def test_record_failing_to_encode_halfway_keeps_the_target(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b"old\n")

        def records():
            yield {"key": "a:0"}
            yield {"key": "a:1", "vector": np.zeros(2)}  # an array is not JSON

        with pytest.raises(TypeError):
            write_json_lines(path, records())
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["run.jsonl"]

    def test_missing_directory_leaves_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_json(tmp_path / "missing" / "a.json", {})
        assert os.listdir(tmp_path) == []

    def test_new_file_has_the_mode_a_plain_open_gives(self, tmp_path):
        (tmp_path / "plain").write_text("x")
        write_json(tmp_path / "written", {})
        assert os.stat(tmp_path / "written").st_mode == os.stat(tmp_path / "plain").st_mode


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=32), max_size=12))
@example(EDGES.tolist())
def test_tolist_encodes_float32_like_float_of_each(values):
    vector = np.array(values, dtype=np.float32)
    reference = json.dumps([float(x) for x in vector])
    assert json.dumps(vector.tolist()) == reference


def non_ascii_pool():
    entries = [
        PoolEntry("hôtel:0", "[state] none [user] un café près du théâtre ☕", EDGES),
        PoolEntry("東京:1", "[user] 部屋を予約したい", np.full(len(EDGES), 0.1, dtype=np.float32)),
    ]
    return ExpertPool(SLM, entries)


class TestWritersMatchJsonDump:
    """Every rewritten writer gives the bytes of the writer it replaced."""

    def same_bytes(self, tmp_path, ours, reference, obj):
        ours(obj, str(tmp_path / "ours"))
        reference(obj, str(tmp_path / "reference"))
        assert (tmp_path / "ours").read_bytes() == (tmp_path / "reference").read_bytes()

    def test_pairs(self, small_sim, tmp_path):
        record = json.loads((small_sim.out_dir / "pairs.json").read_text(encoding="utf-8"))
        positives, negatives = ({(q, c): tag for q, c, tag in record[p]} for p in ("positives", "negatives"))
        simulated = PairSet(positives, negatives)
        accented = PairSet({("é:0", "ü:1"): "tâche"}, {("é:0", "東京:2"): "expert"})
        for pairs in (simulated, accented):
            self.same_bytes(tmp_path, save_pairs, oracles.save_pairs, pairs)

    def test_pools(self, small_sim, tmp_path):
        experts = {"slm": SLM, "llm": LLM}
        for name in ("slm", "llm"):
            pool = load_pool(str(small_sim.out_dir / f"pool_trained_{name}.json"), experts)
            self.same_bytes(tmp_path, save_pool, oracles.save_pool, pool)
        self.same_bytes(tmp_path, save_pool, oracles.save_pool, non_ascii_pool())

    def test_adapter_and_loss_history(self, small_sim, tmp_path):
        edges = ProjectionAdapter(np.array([[-0.0, 5e-324], [1.7976931348623157e308, 0.1]]))
        for adapter in (small_sim.adapter, edges):
            self.same_bytes(tmp_path, save_adapter, oracles.save_adapter, adapter)
        history = [*small_sim.loss_history, np.float64(0.1), 5e-324]
        save_training(edges, history, tmp_path / "adapter.json")
        oracles.save_loss_history(history, str(tmp_path / "reference"))
        ours = (tmp_path / "loss_history.json").read_bytes()
        assert ours == (tmp_path / "reference").read_bytes()

    def test_report_and_series(self, small_sim, tmp_path):
        for report in small_sim.reports.values():
            self.same_bytes(tmp_path, save_report, oracles.save_report, report)
        named = sorted(small_sim.reports.items())
        named.append(("routé 東京", small_sim.reports["oracle"]))
        self.same_bytes(tmp_path, save_series, oracles.save_series, make_series(named))

    def test_store_with_ascii_keys(self, small_sim, tmp_path):
        store = load_store(str(small_sim.out_dir / "embeddings_holdout.jsonl"))
        self.same_bytes(tmp_path, save_store, oracles.save_store, store)

    def test_predictions(self, small_sim, tmp_path):
        loaded = load_predictions(str(small_sim.out_dir / "predictions_slm.jsonl"))
        predictions = list(loaded["slm"].values())
        predictions.append(ExpertPrediction("é", 0, "slm", {SlotName("hôtel", "área"): "sür"}))
        self.same_bytes(tmp_path, write_predictions, oracles.write_predictions, predictions)


def test_non_ascii_store_keys_round_trip(tmp_path):
    """The one byte change of the shared writer: non-ASCII store keys are
    written as UTF-8, not as ``\\u`` escapes. Both files load the same."""
    store = EmbeddingStore.build([("café:0", EDGES), ("東京:1", np.ones(len(EDGES)))])
    save_store(store, str(tmp_path / "ours.jsonl"))
    oracles.save_store(store, str(tmp_path / "escaped.jsonl"))
    assert "café:0" in (tmp_path / "ours.jsonl").read_text(encoding="utf-8")
    assert "\\u00e9" in (tmp_path / "escaped.jsonl").read_text(encoding="utf-8")
    for name in ("ours.jsonl", "escaped.jsonl"):
        loaded = load_store(str(tmp_path / name))
        assert list(loaded.vectors) == list(store.vectors)
        for key, vector in store.vectors.items():
            assert loaded.lookup(key).tobytes() == vector.tobytes()
