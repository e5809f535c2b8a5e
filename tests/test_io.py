"""The shared artifact writers: atomic replacement, the same bytes as the
``json.dump``-to-handle writers they replaced (kept in ``oracles``), and the
vector tables' bit-exact, rerun-identical and atomic heads and bodies."""

import json
import os
import re
from unittest import mock

import numpy as np
import pytest
import oracles
from dialroute import (
    LLM,
    SLM,
    EmbeddingStore,
    ExpertPool,
    InputError,
    ExpertPrediction,
    PairSet,
    PoolEntry,
    ProjectionAdapter,
    load_adapter,
    load_corpus,
    load_pool,
    load_predictions,
    load_run,
    load_store,
    make_series,
    save_adapter,
    save_pool,
    save_report,
    save_series,
    save_store,
    turn_key,
    write_predictions,
)
from dialroute.cli import save_training
from dialroute.errors import write_json, write_json_lines
from dialroute.supervision import save_pairs

F32_MAX = float(np.finfo(np.float32).max)
F64_MAX = float(np.finfo(np.float64).max)
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
            with pytest.raises(InputError, match="disk gone"):
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

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_a_missing_directory_chain_is_made(self, tmp_path, writer):
        path = tmp_path / "a" / "b" / "artifact"
        self.WRITERS[writer](path)
        assert os.listdir(path.parent) == ["artifact"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_a_target_under_a_regular_file_names_the_path(self, tmp_path, writer):
        (tmp_path / "blocker").write_bytes(b"old\n")
        path = tmp_path / "blocker" / "sub" / "artifact"
        with pytest.raises(InputError, match=re.escape(f"cannot write {str(path)!r}")):
            self.WRITERS[writer](path)
        assert os.listdir(tmp_path) == ["blocker"]
        assert (tmp_path / "blocker").read_bytes() == b"old\n"

    def test_new_file_has_the_mode_a_plain_open_gives(self, tmp_path):
        (tmp_path / "plain").write_text("x")
        write_json(tmp_path / "written", {})
        assert os.stat(tmp_path / "written").st_mode == os.stat(tmp_path / "plain").st_mode


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

    def test_loss_history(self, small_sim, tmp_path):
        edges = ProjectionAdapter(np.array([[-0.0, 5e-324], [1.7976931348623157e308, 0.1]]))
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

    def test_predictions(self, small_sim, tmp_path):
        loaded = load_predictions(str(small_sim.out_dir / "predictions_slm.jsonl"))
        predictions = list(loaded["slm"].values())
        predictions.append(ExpertPrediction("é", 0, "slm", {"hôtel-área": "sür"}))
        self.same_bytes(tmp_path, write_predictions, oracles.write_predictions, predictions)


def random_bits_adapter(seed):
    """An 8 x 8 adapter of random float64 bit patterns, the non-finite ones
    replaced by edge values: signed zeros, subnormals and the largest float."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2**64, size=(8, 8), dtype=np.uint64, endpoint=False).view(np.float64)
    edges = np.array([-0.0, 0.0, 5e-324, -5e-324, F64_MAX, -F64_MAX])
    bad = ~np.isfinite(matrix)
    matrix[bad] = edges[: bad.sum()] if bad.sum() <= len(edges) else 0.0
    matrix[0, : len(edges)] = edges
    return ProjectionAdapter(matrix)


def edge_store():
    matrix = np.stack([EDGES, -EDGES, np.full(len(EDGES), 0.1, dtype=np.float32)])
    return EmbeddingStore.of_rows(["café:0", "東京:1", "a:2"], matrix)


class TestTables:
    """The store, the adapter and the pools: a JSON head and an ``.npy`` body."""

    def test_store_round_trip_is_bit_exact(self, tmp_path):
        store = edge_store()
        save_store(store, str(tmp_path / "store.json"))
        again = load_store(str(tmp_path / "store.json"))
        assert list(again.vectors) == list(store.vectors) and again.dim == store.dim
        for key, vector in store.vectors.items():
            assert again[key].dtype == np.float32
            assert again[key].tobytes() == vector.tobytes()

    def test_pool_round_trip_is_bit_exact(self, tmp_path):
        pool = non_ascii_pool()
        save_pool(pool, str(tmp_path / "pool.json"))
        again = load_pool(str(tmp_path / "pool.json"), {"slm": SLM, "llm": LLM})
        assert again.expert == SLM
        assert [(e.key, e.text) for e in again.entries] == [(e.key, e.text) for e in pool.entries]
        for ours, theirs in zip(again.entries, pool.entries):
            assert ours.vector.dtype == np.float32 and ours.vector.tobytes() == theirs.vector.tobytes()

    def test_empty_pool_round_trips(self, tmp_path):
        save_pool(ExpertPool(LLM, []), str(tmp_path / "pool.json"))
        again = load_pool(str(tmp_path / "pool.json"), {"llm": LLM})
        assert again.expert == LLM and again.entries == []

    @pytest.mark.parametrize("seed", range(3))
    def test_adapter_round_trip_keeps_every_bit(self, tmp_path, seed):
        adapter = random_bits_adapter(seed)
        save_adapter(adapter, str(tmp_path / "adapter.json"))
        again = load_adapter(str(tmp_path / "adapter.json"))
        assert again.matrix.dtype == np.float64
        assert again.matrix.tobytes() == adapter.matrix.tobytes()

    def test_heads_and_bodies_are_identical_on_rerun(self, small_sim, tmp_path):
        """Saving what the simulation wrote, loaded, gives its bytes again,
        twice over: a body holds no timestamp and a head no path."""
        sim = small_sim.out_dir
        experts = {"slm": SLM, "llm": LLM}
        tables = {
            "embeddings_holdout": (load_store, save_store),
            "adapter": (load_adapter, save_adapter),
            "pool_trained_slm": (lambda path: load_pool(path, experts), save_pool),
            "pool_base_llm": (lambda path: load_pool(path, experts), save_pool),
        }
        for name, (load, save) in tables.items():
            loaded = load(str(sim / f"{name}.json"))
            for again in ("a", "b"):
                save(loaded, str(tmp_path / f"{again}.json"))
                for suffix in (".json", ".npy"):
                    assert (tmp_path / f"{again}{suffix}").read_bytes() == (sim / f"{name}{suffix}").read_bytes()

    def test_a_head_named_like_its_body_is_refused(self, tmp_path):
        """The body would take the head's name, and the head overwrite it."""
        with pytest.raises(InputError, match="ends in .npy"):
            save_store(edge_store(), str(tmp_path / "store.npy"))
        with pytest.raises(InputError, match="ends in .npy"):
            load_store(str(tmp_path / "store.npy"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("part", [".npy", ".json"])
    def test_failed_replace_keeps_the_old_bytes(self, tmp_path, part):
        """The body is written under a temporary name, then the head, then
        the body is renamed into place. A failed head leaves the old pair; a
        failed rename leaves the new head over the old body, as a crash
        between the two would, and the old body fails the new head's digest.
        Neither leaves a temporary file behind."""
        path = tmp_path / "store.json"
        old = edge_store()
        save_store(old, str(path))
        before = {name: (tmp_path / name).read_bytes() for name in ("store.json", "store.npy")}
        real = os.replace

        def replace(source, target):
            if str(target).endswith(part):
                raise OSError("disk gone")
            return real(source, target)

        new = EmbeddingStore.of_rows(["b:0"], np.ones((1, 4), dtype=np.float32))
        with mock.patch("dialroute.errors.os.replace", side_effect=replace):
            with pytest.raises(InputError, match="disk gone"):
                save_store(new, str(path))
        assert sorted(os.listdir(tmp_path)) == ["store.json", "store.npy"]
        assert (tmp_path / "store.npy").read_bytes() == before["store.npy"]
        if part == ".json":
            assert (tmp_path / "store.json").read_bytes() == before["store.json"]
            assert list(load_store(str(path)).vectors) == list(old.vectors)
        else:
            with pytest.raises(InputError, match="does not match its digest"):
                load_store(str(path))

    def test_a_head_naming_a_directory_leaves_no_file(self, tmp_path):
        """The head cannot replace a directory, and the body written before
        it under a temporary name is removed again."""
        (tmp_path / "store.json").mkdir()
        with pytest.raises(InputError, match="cannot write"):
            save_store(edge_store(), str(tmp_path / "store.json"))
        assert os.listdir(tmp_path) == ["store.json"]
        assert os.listdir(tmp_path / "store.json") == []


def test_beliefs_are_keyed_by_the_strings_their_files_hold(small_sim):
    """A corpus, a predictions file and a run file each load every belief
    as the plain string map its file holds."""
    sim = small_sim.out_dir

    def lines(name):
        return [json.loads(line) for line in (sim / name).read_text(encoding="utf-8").splitlines()]

    def plain(belief):
        assert all(type(slot) is str for slot in belief)
        return belief

    corpus = load_corpus(str(sim / "corpus_test.jsonl"))
    golds = [turn["gold_tlb"] for record in lines("corpus_test.jsonl") for turn in record["turns"]]
    assert [plain(t.gold_tlb) for d in corpus for t in d.turns] == golds

    predictions = load_predictions(str(sim / "predictions_slm.jsonl"))["slm"]
    for record in lines("predictions_slm.jsonl"):
        key = turn_key(record["dialogue_id"], record["turn_id"])
        assert plain(predictions[key].tlb) == record["tlb"]

    run = load_run(str(sim / "run_oracle.jsonl"))
    beliefs = [record["tlb"] for record in lines("run_oracle.jsonl") if "summary" not in record]
    assert [plain(record.tlb) for record in run.records] == beliefs
