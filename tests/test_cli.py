"""Command-line driver and its JSON run configuration."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialroute import (
    SLM,
    InputError,
    RunConfig,
    load_adapter,
    load_corpus,
    load_pool,
    load_predictions,
    load_run,
    load_store,
)
import dialroute.cli as cli_module
from dialroute.cli import _log_level, main
from dialroute.config import (
    EmbedderSpec,
    load_config,
    parse_config,
    settings_of,
)
from dialroute.simulate import SimulationSpec
from dialroute.errors import is_number, vector_rows

from conftest import edit_table, npy_bytes


def write_config(path, sim, out_dir, **extra):
    record = {
        "corpus": str(sim.out_dir / "corpus_test.jsonl"),
        "holdout": str(sim.out_dir / "corpus_holdout.jsonl"),
        "predictions": {
            "slm": str(sim.out_dir / "predictions_slm.jsonl"),
            "llm": str(sim.out_dir / "predictions_llm.jsonl"),
        },
        "embedder": {"kind": "hash", "dim": 64},
        "out_dir": str(out_dir),
        "seed": 3,
        "hyperparameters": {"k": 5, "l": 5, "pool_size": 40, "epochs": 3, "learning_rate": 0.5},
    }
    record.update(extra)
    path.write_text(json.dumps(record))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(small_sim, tmp_path_factory):
    """embed -> mine-and-train -> build-pools, run once and shared."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "work"
    config = write_config(root / "config.json", small_sim, out)
    for command in ("embed", "mine-and-train", "build-pools"):
        assert main([command, "--config", config]) == 0
    return SimpleNamespace(config=config, out=out, sim=small_sim)


class TestValidate:
    def test_reports_counts_and_coverage(self, small_sim, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out")
        assert main(["validate", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "corpus: 30 dialogues" in out
        assert "hold-out: 20 dialogues" in out
        assert "predictions[slm]" in out and "predictions[llm]" in out
        assert "coverage: ok" in out

    def test_needs_some_corpus(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": 1}))
        assert main(["validate", "--config", str(config)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_detects_missing_predictions(self, small_sim, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json",
            small_sim,
            tmp_path / "out",
            predictions={"slm": str(small_sim.out_dir / "predictions_slm.jsonl")},
        )
        assert main(["validate", "--config", config]) == 1
        assert "llm" in capsys.readouterr().err

    def test_duplicate_across_files_names_the_second_file(self, small_sim, tmp_path, capsys):
        """A turn predicted for one expert in two files is refused at the
        line of the second file that repeats it."""
        slm = small_sim.out_dir / "predictions_slm.jsonl"
        first = slm.read_text().splitlines()[0]
        llm = (small_sim.out_dir / "predictions_llm.jsonl").read_text().splitlines()
        both = tmp_path / "predictions_both.jsonl"
        both.write_text("\n".join([*llm[:2], first, *llm[2:]]) + "\n")
        paths = {"slm": str(slm), "llm": str(both)}
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out", predictions=paths)
        assert main(["validate", "--config", config]) == 1
        record = json.loads(first)
        key = f"{record['dialogue_id']}:{record['turn_id']}"
        expected = f"{both}:3: duplicate prediction for expert 'slm', turn {key!r}"
        assert expected in capsys.readouterr().err


class TestPipelineArtifacts:
    def test_stage_outputs_exist(self, pipeline):
        for name in ("embeddings.json", "embeddings.npy", "adapter.json", "adapter.npy",
                     "pairs.json", "pool_slm.json", "pool_slm.npy", "pool_llm.json",
                     "pool_llm.npy", "loss_history.json"):
            assert (pipeline.out / name).exists(), name

    def test_route_and_report(self, pipeline, capsys):
        assert main(["route", "--config", pipeline.config]) == 0
        out = capsys.readouterr().out
        assert "routed" in out and "retrieval" in out
        assert main(["report", "--config", pipeline.config]) == 0
        record = json.loads((pipeline.out / "report.json").read_text())
        assert record["turns"] == pipeline.sim.test_corpus.turn_count()
        assert 0.0 <= record["tlb_jga"] <= 1.0
        assert set(record["assignment_ratio"]) == {"slm", "llm"}

    def test_route_is_byte_deterministic(self, pipeline):
        assert main(["route", "--config", pipeline.config]) == 0
        first = (pipeline.out / "run.jsonl").read_bytes()
        assert main(["route", "--config", pipeline.config]) == 0
        assert (pipeline.out / "run.jsonl").read_bytes() == first

    def test_oracle_route_needs_no_artifacts(self, small_sim, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out")
        assert main(["route", "--config", config, "--router", "oracle"]) == 0
        assert "oracle router" in capsys.readouterr().out

    def test_cascade_route_prints_threshold(self, small_sim, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out")
        assert main(["route", "--config", config, "--router", "cascade"]) == 0
        out = capsys.readouterr().out
        assert "cascade threshold:" in out
        run_lines = (tmp_path / "out" / "run.jsonl").read_text().splitlines()
        summary = json.loads(run_lines[-1])["summary"]
        assert "threshold" in summary["config"]

    def test_cascade_run_does_not_depend_on_the_order_experts_are_listed_in(
        self, small_sim, tmp_path, capsys
    ):
        """The threshold is tuned on the rank-0 expert, which the cascade
        then runs, whichever expert the config lists first."""
        slm, llm = {"name": "slm", "priority_rank": 0}, {"name": "llm", "priority_rank": 1}
        runs = []
        for name, experts in (("listed", [slm, llm]), ("reversed", [llm, slm])):
            out = tmp_path / name
            config = write_config(tmp_path / f"{name}.json", small_sim, out, experts=experts)
            assert main(["route", "--config", config, "--router", "cascade"]) == 0
            runs.append((out / "run.jsonl").read_bytes())
        capsys.readouterr()
        assert runs[0] == runs[1]

    def test_classifier_route_uses_holdout_embeddings(self, pipeline, capsys):
        assert main(["route", "--config", pipeline.config, "--router", "classifier"]) == 0
        assert "classifier router" in capsys.readouterr().out

    def test_build_pools_requires_adapter(self, small_sim, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out")
        assert main(["embed", "--config", config]) == 0
        assert main(["build-pools", "--config", config]) == 1
        assert "mine-and-train" in capsys.readouterr().err

    def test_supervision_none_writes_identity(self, small_sim, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out")
        assert main(["embed", "--config", config]) == 0
        assert main(["mine-and-train", "--config", config, "--supervision", "none"]) == 0
        assert "identity" in capsys.readouterr().out
        adapter = load_adapter(str(tmp_path / "out" / "adapter.json"))
        assert np.array_equal(adapter.matrix, np.eye(64))
        assert not (tmp_path / "out" / "pairs.json").exists()
        history = json.loads((tmp_path / "out" / "loss_history.json").read_text())
        assert history == {"loss_history": []}

    def test_out_override_moves_artifacts(self, small_sim, tmp_path):
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "ignored")
        moved = tmp_path / "elsewhere"
        assert main(["embed", "--config", config, "--out", str(moved)]) == 0
        assert (moved / "embeddings.json").exists() and (moved / "embeddings.npy").exists()
        assert not (tmp_path / "ignored").exists()

    def test_seed_override_changes_hash_embeddings(self, small_sim, tmp_path):
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out")
        assert main(["embed", "--config", config]) == 0
        first = (tmp_path / "out" / "embeddings.npy").read_bytes()
        assert main(["embed", "--config", config, "--seed", "99"]) == 0
        assert (tmp_path / "out" / "embeddings.npy").read_bytes() != first

    def test_report_without_run_errors(self, small_sim, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out")
        assert main(["report", "--config", config]) == 1
        assert "nothing to report" in capsys.readouterr().err

    def test_report_series_from_named_runs(self, small_sim, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json",
            small_sim,
            tmp_path / "out",
            report_runs={
                "slm_only": str(small_sim.out_dir / "run_slm_only.jsonl"),
                "oracle": str(small_sim.out_dir / "run_oracle.jsonl"),
            },
        )
        assert main(["report", "--config", config]) == 0
        assert "series: 2 runs" in capsys.readouterr().out
        series = json.loads((tmp_path / "out" / "series.json").read_text())["series"]
        assert [point["name"] for point in series] == ["oracle", "slm_only"]

    def test_report_scores_each_run_file_once(self, small_sim, tmp_path, capsys):
        """``run_path`` listed again in ``report_runs``, spelled differently:
        each distinct file is loaded once, and both outputs are the bytes of
        reporting the run alone and the series alone."""
        sim = small_sim.out_dir
        run_path = str(sim / "run_oracle.jsonl")
        runs = {"oracle": run_path, "slm_only": str(sim / "run_slm_only.jsonl")}
        respelled = {**runs, "oracle": f"{sim}/../{sim.name}/run_oracle.jsonl"}
        alone = write_config(tmp_path / "a.json", small_sim, tmp_path / "a", run_path=run_path)
        series_only = write_config(tmp_path / "b.json", small_sim, tmp_path / "b", report_runs=runs)
        both = write_config(
            tmp_path / "c.json", small_sim, tmp_path / "c", run_path=run_path, report_runs=respelled
        )
        assert main(["report", "--config", alone]) == 0
        assert main(["report", "--config", series_only]) == 0
        with mock.patch.object(cli_module, "load_run", wraps=cli_module.load_run) as loads:
            assert main(["report", "--config", both]) == 0
        loaded = [Path(call.args[0]).resolve() for call in loads.call_args_list]
        assert sorted(loaded) == sorted({Path(p).resolve() for p in runs.values()})
        for name, expected in (("report.json", "a"), ("series.json", "b")):
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / expected / name).read_bytes()
        capsys.readouterr()


def test_cli_stages_reproduce_simulate_artifacts(small_sim, tmp_path):
    """The CLI, given what ``simulate`` wrote and the same settings, writes
    the same embeddings, pairs, adapter, pools and routed turns."""
    spec = small_sim.spec
    config = write_config(
        tmp_path / "c.json",
        small_sim,
        tmp_path / "out",
        embedder={"kind": "hash", "dim": spec.embedding_dim},
        seed=spec.seed,
        hyperparameters={
            "k": spec.k,
            "l": spec.pairs_per_query,
            "pool_size": spec.pool_size,
            "margin": spec.margin,
            "learning_rate": spec.learning_rate,
            "epochs": spec.epochs,
        },
    )
    for command in ("embed", "mine-and-train", "build-pools", "route"):
        assert main([command, "--config", config]) == 0
    sim, out = small_sim.out_dir, tmp_path / "out"
    same = [(f"embeddings_holdout.{s}", f"embeddings.{s}") for s in ("json", "npy")]
    same += [(name, name) for name in ("pairs.json", "adapter.json", "adapter.npy", "loss_history.json")]
    same += [(f"pool_trained_{e}.{s}", f"pool_{e}.{s}") for e in ("slm", "llm") for s in ("json", "npy")]
    for simulated, cli_made in same:
        assert (sim / simulated).read_bytes() == (out / cli_made).read_bytes(), cli_made
    simulated_run = (sim / "run_retrieval_trained.jsonl").read_bytes().splitlines()
    cli_run = (out / "run.jsonl").read_bytes().splitlines()
    assert simulated_run[:-1] == cli_run[:-1]  # only the summary's config differs
    assert len(cli_run) == small_sim.test_corpus.turn_count() + 1


class TestSimulate:
    def settings(self):
        return {
            "dialogues": 8,
            "holdout_dialogues": 8,
            "embedding_dim": 32,
            "pool_size": 20,
            "pairs_per_query": 5,
            "epochs": 2,
            "k": 3,
        }

    def test_runs_end_to_end(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"out_dir": str(tmp_path / "sim"), "simulation": self.settings()}))
        assert main(["simulate", "--config", str(config), "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "simulated 8 test + 8 hold-out dialogues" in out
        assert "run[oracle]" in out and "run[retrieval_trained]" in out
        assert (tmp_path / "sim" / "series.json").exists()

    def test_seed_flag_beats_config(self, tmp_path):
        settings = dict(self.settings(), seed=5)
        for sub, seed_args in (("a", ["--seed", "11"]), ("b", ["--seed", "11"]), ("c", [])):
            config = tmp_path / f"{sub}.json"
            config.write_text(
                json.dumps({"out_dir": str(tmp_path / sub), "simulation": settings})
            )
            assert main(["simulate", "--config", str(config), *seed_args]) == 0
        identical = (tmp_path / "a" / "run_retrieval_trained.jsonl").read_bytes()
        assert identical == (tmp_path / "b" / "run_retrieval_trained.jsonl").read_bytes()
        assert identical != (tmp_path / "c" / "run_retrieval_trained.jsonl").read_bytes()


class TestLogLevel:
    def test_dialroute_log_sets_the_level(self):
        for value, level in (("debug", logging.DEBUG), (" Info ", logging.INFO), ("error", logging.ERROR)):
            assert _log_level({"DIALROUTE_LOG": value}) == level

    def test_unset_or_unknown_is_warning(self):
        assert _log_level({}) == logging.WARNING
        assert _log_level({"DIALROUTE_LOG": "loud"}) == logging.WARNING
        assert _log_level({"ORCHESTRA_LOG": "debug"}) == logging.WARNING

    def test_main_reads_the_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("DIALROUTE_LOG", "info")
        with mock.patch.object(cli_module.logging, "basicConfig") as configure:
            assert main(["validate"]) == 1
        assert configure.call_args.kwargs["level"] == logging.INFO
        capsys.readouterr()


class TestExitCodes:
    def test_usage_error_is_input_error(self, capsys):
        assert main([]) == 1
        assert main(["no-such-command"]) == 1
        assert main(["route", "--router", "psychic"]) == 1
        capsys.readouterr()

    def test_missing_config_file(self, capsys):
        assert main(["validate", "--config", "/nonexistent/config.json"]) == 1
        assert "cannot open config" in capsys.readouterr().err

    def test_malformed_config_json(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("{not json")
        assert main(["validate", "--config", str(config)]) == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_internal_error_exits_two(self, monkeypatch, capsys):
        def boom(cfg, args):
            raise RuntimeError("wires crossed")

        monkeypatch.setitem(cli_module._COMMANDS, "validate", boom)
        assert main(["validate"]) == 2
        assert "wires crossed" in capsys.readouterr().err

    def test_non_finite_pool_vector_exits_one(self, pipeline, tmp_path, capsys):
        out = tmp_path / "work"
        shutil.copytree(pipeline.out, out)
        config = write_config(tmp_path / "c.json", pipeline.sim, out)
        key = json.loads((out / "pool_slm.json").read_text())["entries"][1]["key"]

        def nan_in_row_1(head, body):
            body[1, 0] = np.nan
            return head, body

        edit_table(out / "pool_slm.json", nan_in_row_1)
        assert main(["route", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "finite numbers" in err and repr(key) in err

    @pytest.mark.parametrize(
        "router, names, message",
        [
            ("classifier", ("slm", "llm", "xl"), "classifier routing supports exactly two experts"),
            ("cascade", ("slm",), "cascade routing needs at least two experts"),
        ],
    )
    def test_two_expert_router_refuses_other_counts_before_any_work(
        self, pipeline, tmp_path, capsys, router, names, message
    ):
        """The expert count is checked before a corpus or the store is
        loaded and before the probe is trained."""
        experts = [{"name": name, "priority_rank": rank} for rank, name in enumerate(names)]
        config = write_config(tmp_path / "c.json", pipeline.sim, pipeline.out, experts=experts)
        watched = ("_load_corpus", "load_store", "train_classifier_router")
        with contextlib.ExitStack() as stack:
            calls = [
                stack.enter_context(mock.patch.object(cli_module, name, wraps=getattr(cli_module, name)))
                for name in watched
            ]
            assert main(["route", "--config", config, "--router", router]) == 1
        assert message in capsys.readouterr().err
        assert [call.call_count for call in calls] == [0, 0, 0]

    def test_malformed_run_votes_exit_one(self, pipeline, tmp_path, capsys):
        out = tmp_path / "work"
        shutil.copytree(pipeline.out, out)
        config = write_config(tmp_path / "c.json", pipeline.sim, out)
        assert main(["route", "--config", config]) == 0
        lines = (out / "run.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["votes"] = {"slm": "x"}
        (out / "run.jsonl").write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        assert main(["report", "--config", config]) == 1
        assert "malformed turn record" in capsys.readouterr().err

    def test_confidence_too_large_for_a_float_exits_one(self, small_sim, tmp_path, capsys):
        predictions = tmp_path / "predictions_slm.jsonl"
        lines = (small_sim.out_dir / "predictions_slm.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record["confidence"] = 10**400
        predictions.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
        paths = {"slm": str(predictions), "llm": str(small_sim.out_dir / "predictions_llm.jsonl")}
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out", predictions=paths)
        assert main(["validate", "--config", config]) == 1
        assert f"{predictions}:2: confidence must be a number" in capsys.readouterr().err

    def test_non_utf8_corpus_exits_one(self, small_sim, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes((small_sim.out_dir / "corpus_test.jsonl").read_bytes() + b"\xff\n")
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out", corpus=str(corpus))
        assert main(["validate", "--config", config]) == 1
        assert "not UTF-8" in capsys.readouterr().err

    def test_malformed_holdout_line_names_the_file(self, small_sim, tmp_path, capsys):
        holdout = tmp_path / "holdout.jsonl"
        first = (small_sim.out_dir / "corpus_holdout.jsonl").read_text().splitlines()[0]
        holdout.write_text(first + "\n{not json\n")
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out", holdout=str(holdout))
        assert main(["validate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert f"{holdout}:2:" in err

    def test_simulate_under_a_regular_file_exits_one(self, tmp_path, capsys):
        (tmp_path / "blocker").write_text("")
        out = tmp_path / "blocker" / "sim"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"simulation": TestSimulate().settings()}))
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert f"cannot write {str(out / 'corpus_test.jsonl')!r}" in capsys.readouterr().err

    def test_store_path_naming_a_directory_exits_one(self, small_sim, tmp_path, capsys):
        directory = tmp_path / "store"
        directory.mkdir()
        config = write_config(
            tmp_path / "c.json", small_sim, tmp_path / "out", embeddings_path=str(directory)
        )
        assert main(["embed", "--config", config]) == 1
        assert f"cannot write {str(directory)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, settings, named",
        [
            ("validate", {"corpus": "a\0b"}, "cannot open corpus 'a\\x00b'"),
            ("embed", {"out_dir": "x\0y"}, "cannot write 'x\\x00y/embeddings.npy'"),
            ("report", {"report_runs": {"r": "r\0n"}}, "cannot open run 'r\\x00n'"),
        ],
        ids=["corpus", "out_dir", "report_runs"],
    )
    def test_a_nul_in_a_path_exits_one_naming_it(
        self, small_sim, tmp_path, capsys, command, settings, named
    ):
        settings = {"out_dir": str(tmp_path / "out"), **settings}
        config = write_config(tmp_path / "c.json", small_sim, **settings)
        assert main([command, "--config", config]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, setting, named",
        [
            ("build-pools", "adapter_path", "cannot open adapter 'a\\x00b'"),
            ("route", "pools_dir", "cannot open pool 'a\\x00b/pool_"),
            ("report", "run_path", "cannot open run 'a\\x00b'"),
        ],
    )
    def test_a_refused_artifact_path_is_not_reported_missing(
        self, pipeline, tmp_path, capsys, command, setting, named
    ):
        """A NUL makes a path one the OS refuses, not one that is absent: the
        loader opens it and names it, where report with ``report_runs`` set
        would otherwise skip the run and exit 0."""
        out = pipeline.out
        settings = {
            "embeddings_path": str(out / "embeddings.json"),
            "adapter_path": str(out / "adapter.json"),
            "pools_dir": str(out),
            "report_runs": {"oracle": str(pipeline.sim.out_dir / "run_oracle.jsonl")},
            setting: "a\0b",
        }
        config = write_config(tmp_path / "c.json", pipeline.sim, tmp_path / "out", **settings)
        assert main([command, "--config", config]) == 1
        assert named in capsys.readouterr().err

    def test_module_entry_point(self, small_sim, tmp_path):
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out")
        proc = subprocess.run(
            [sys.executable, "-m", "dialroute", "validate", "--config", config],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "coverage: ok" in proc.stdout


def cut_vectors(n):
    """A table edit that keeps the first ``n`` columns of a store's or a pool's body."""
    return lambda head, body: ({**head, "dim": n}, body[:, :n])


def identity_adapter(dim):
    return lambda head, body: ({**head, "dim": dim}, np.eye(dim))


def first_key(key):
    """A table edit that gives a pool's first entry the key ``key``."""

    def edit(head, body):
        head["entries"][0]["key"] = key
        return head, body

    return edit


# command, its extra arguments, the artifacts damaged, the edit, and what the
# error must say: artifacts that do not fit each other, vectors of no numbers,
# and pool keys that are no hold-out turn
MISFITS = {
    "pools_vs_adapter": (
        "route", [], ["pool_slm.json", "pool_llm.json"], cut_vectors(32),
        ["pool_slm.json has dim 32", "adapter.json has dim 64"],
    ),
    "store_vs_adapter": (
        "build-pools", [], ["embeddings.json"], cut_vectors(32),
        ["embeddings.json has dim 32", "adapter.json has dim 64"],
    ),
    "store_vs_query_embedder": (
        "route", ["--router", "classifier"], ["embeddings.json"], cut_vectors(32),
        ["embeddings.json has dim 32", "hash embedder (config embedder dim) has dim 64"],
    ),
    "adapter_vs_query_embedder": (
        "route", [], ["adapter.json"], identity_adapter(32),
        ["adapter.json has dim 32", "hash embedder (config embedder dim) has dim 64"],
    ),
    "empty_store_vectors": (
        "mine-and-train", [], ["embeddings.json"], cut_vectors(0),
        ["embeddings.json': vector for 'hld", "not a non-empty flat list"],
    ),
    "empty_pool_vectors": (
        "route", [], ["pool_slm.json", "pool_llm.json"], cut_vectors(0),
        ["pool_slm.json': vector for 'hld", "not a non-empty flat list"],
    ),
    "pool_key_not_a_turn": (
        "route", [], ["pool_slm.json"], first_key("x"),
        ["pool_slm.json': entry 0: malformed turn key 'x'"],
    ),
    "pool_key_in_corpus": (
        "route", [], ["pool_slm.json"], first_key("dlg0000:0"),
        ["pool_slm.json': entry 'dlg0000:0' is a turn of the routed corpus"],
    ),
}


@pytest.mark.parametrize("case", sorted(MISFITS))
def test_artifacts_that_do_not_fit_exit_one_naming_them(pipeline, tmp_path, capsys, case):
    command, extra, names, edit, expected = MISFITS[case]
    out = tmp_path / "work"
    shutil.copytree(pipeline.out, out)
    config = write_config(tmp_path / "c.json", pipeline.sim, out)
    for name in names:
        edit_table(out / name, edit)
    assert main([command, "--config", config, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert all(text in err for text in expected), err


def test_overflowing_adapter_exits_one_without_a_numpy_warning(pipeline, tmp_path):
    """Every projection of a finite adapter of 1e300 entries overflows: bad
    input, which even ``-W error`` must not turn into an exit 2."""
    out = tmp_path / "work"
    shutil.copytree(pipeline.out, out)
    config = write_config(tmp_path / "c.json", pipeline.sim, out)
    edit_table(out / "adapter.json", lambda head, body: (head, np.full(body.shape, 1e300)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dialroute", "build-pools", "--config", config],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert "out of float64 range" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


DIVERGED = r"turn 'hld\d{4}:\d+': the adapter maps its embedding out of float64 range"
LOSS_ROSE = r"training loss rose from (\d\.\d{6}) to (\d\.\d{6})"
# A small simulation whose fit a large learning rate refuses; at 100 its
# loss rises (0.750408 -> 0.764940).
SMALL_FIT = {"dialogues": 30, "holdout_dialogues": 20, "embedding_dim": 64, "epochs": 3, "margin": 0.2, "seed": 0}


def files_under(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def write_simulation(path: Path, out: Path, **simulation) -> str:
    path.write_text(json.dumps({"out_dir": str(out), "simulation": {**SMALL_FIT, **simulation}}))
    return str(path)


@pytest.mark.parametrize(
    "command, learning_rate, message",
    [
        ("mine-and-train", 1e300, DIVERGED),
        ("mine-and-train", 1e10, LOSS_ROSE),
        ("simulate", 1e200, DIVERGED),
        ("simulate", 100.0, LOSS_ROSE),
    ],
    ids=["diverged", "loss_rose", "simulate_diverged", "simulate_loss_rose"],
)
def test_refused_fit_exits_one_and_writes_nothing(
    small_sim, tmp_path, capsys, command, learning_rate, message
):
    """A learning rate that drives the adapter out of float64 range, or one
    too large for descent that raises the loss, fails in the fit, not later
    in pool building, naming the setting by its key path; neither the pairs,
    the adapter, its loss history nor any pool are written, and a refused
    ``simulate`` writes no file at all."""
    out = tmp_path / "out"
    if command == "simulate":
        config = write_simulation(tmp_path / "c.json", out, learning_rate=learning_rate)
        setting, kept = "simulation", []
    else:
        hyper = {"k": 5, "l": 5, "pool_size": 40, "epochs": 3, "learning_rate": learning_rate}
        config = write_config(tmp_path / "c.json", small_sim, out, hyperparameters=hyper)
        assert main(["embed", "--config", config]) == 0
        capsys.readouterr()
        setting, kept = "hyperparameters", ["embeddings.json", "embeddings.npy"]
    assert main([command, "--config", str(config)]) == 1
    captured = capsys.readouterr()
    match = re.fullmatch(f"error: {message}; lower {setting}\\.learning_rate\n", captured.err)
    assert match, captured.err
    assert match.lastindex is None or float(match[1]) < float(match[2])
    assert captured.out == ""
    assert (sorted(os.listdir(out)) if out.exists() else []) == kept


def test_refused_simulate_leaves_an_earlier_run_as_it_was(tmp_path, capsys):
    """A ``simulate`` refused in its fit, into the directory of an earlier
    run, changes no file there and adds none: no new corpus, prediction or
    store sits beside the earlier run's adapter, pools and runs."""
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_simulation(tmp_path / "a.json", out)]) == 0
    before = files_under(out)
    refused = write_simulation(tmp_path / "b.json", out, seed=1, learning_rate=1e200)
    capsys.readouterr()
    assert main(["simulate", "--config", refused]) == 1
    assert "lower simulation.learning_rate" in capsys.readouterr().err
    assert files_under(out) == before


def test_simulate_whose_experts_solve_no_turn_exits_one_and_writes_nothing(tmp_path, capsys):
    """Experts that get every turn wrong leave every pool empty: retrieval
    routing is refused after the fit, and nothing is written."""
    never_right = {f"{e}_accuracy_{where}": 0.0 for e in ("slm", "llm") for where in ("in", "out")}
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_simulation(tmp_path / "c.json", out, **never_right)]) == 1
    assert capsys.readouterr().err == "error: all pools are empty; retrieval routing is impossible\n"
    assert not out.exists()


BAD_SETTINGS = [
    ("mine-and-train", {"hyperparameters": {"margin": 1.5}}, "margin"),
    ("mine-and-train", {"hyperparameters": {"learning_rate": -1}}, "learning_rate"),
    ("mine-and-train", {"hyperparameters": {"learning_rate": float("inf")}}, "learning_rate"),
    ("mine-and-train", {"hyperparameters": {"epochs": -1}}, "epochs"),
    ("mine-and-train", {"hyperparameters": {"epochs": 2.5}}, "'epochs'"),
    ("mine-and-train", {"hyperparameters": {"l": 0}}, "l (pairs per query)"),
    ("build-pools", {"hyperparameters": {"pool_size": -3}}, "pool_size"),
    ("build-pools", {"hyperparameters": {"pool_size": {"slm": 300, "llm": 100}}}, "must be an integer"),
    ("validate", {"prior_mode": "gold"}, "unknown config key 'prior_mode'"),
    ("validate", {"prior_mode": "predicted"}, "unknown config key 'prior_mode'"),
    ("validate", {"embedder": {"kind": "hash", "dim": "abc"}}, "'dim'"),
    ("validate", {"embedder": {"kind": "hash", "dim": 100}}, "embedding dim"),
    ("route", {"hyperparameters": {"k": 1.5}}, "'k'"),
    ("route", {"hyperparameters": {"k": True}}, "'k'"),
    (
        "route",
        {"experts": [{"name": "slm", "priority_rank": False}, {"name": "llm", "priority_rank": True}]},
        "priority_rank",
    ),
    ("simulate", {"simulation": {"k": 0}}, "k must be >= 1"),
    ("simulate", {"simulation": {"epochs": -1}}, "epochs must be"),
    ("simulate", {"simulation": {"margin": 1.0}}, "simulation.margin must be in [0, 1)"),
    ("simulate", {"simulation": {"learning_rate": 0.0}}, "simulation.learning_rate must be positive"),
    ("simulate", {"simulation": {"pairs_per_query": 0}}, "pairs_per_query must be"),
    ("simulate", {"simulation": {"slm_accuracy_in": 2.0}}, "slm_accuracy_in must be"),
    ("simulate", {"simulation": {"min_turns": 3, "max_turns": 1}}, "max_turns must be"),
    ("simulate", {"simulation": {"dialogues": 1.5}}, "dialogues must be an integer"),
    ("simulate", {"simulation": {"embedding_dim": 24}}, "embedding dim"),
    *(
        ("simulate", {"simulation": {cost: value}}, f"{cost} must be a finite number")
        for cost in ("slm_cost", "llm_cost", "router_cost")
        for value in (float("nan"), float("inf"))
    ),
]


@pytest.mark.parametrize("command, settings, name", BAD_SETTINGS)
def test_bad_setting_exits_one_naming_it(small_sim, tmp_path, capsys, command, settings, name):
    """A setting out of its range or of the wrong type is bad input: exit 1,
    a message that names it, and nothing written."""
    config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out", **settings)
    assert main([command, "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not (tmp_path / "out").exists()


def test_route_then_report_accepts_the_experts_route_wrote(small_sim, tmp_path, capsys):
    experts = [{"name": "slm", "priority_rank": 3}, {"name": "llm", "priority_rank": 7}]
    config = write_config(
        tmp_path / "c.json", small_sim, tmp_path / "out", experts=experts, router="oracle"
    )
    assert main(["route", "--config", config]) == 0
    assert main(["report", "--config", config]) == 0
    capsys.readouterr()


LOADERS = {
    "adapter": load_adapter,
    "config": load_config,
    "corpus": load_corpus,
    "pool": lambda path: load_pool(path, {"slm": SLM}),
    "predictions": load_predictions,
    "run": load_run,
    "store": load_store,
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loaders_reject_non_utf8(kind, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"key": "caf\xff"}\n')
    with pytest.raises(InputError, match="not UTF-8"):
        LOADERS[kind](str(path))


def plain(value):
    """``value`` with dataclasses as dicts and arrays as their bytes, for ==."""
    if dataclasses.is_dataclass(value):
        return plain(vars(value))
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value.tobytes() if isinstance(value, np.ndarray) else value


DATA_FILES = {
    "corpus": "corpus_holdout.jsonl",
    "predictions": "predictions_slm.jsonl",
    "run": "run_retrieval_trained.jsonl",
    "adapter": "adapter.json",
    "pool": "pool_trained_slm.json",
    "store": "embeddings_holdout.json",
}


@pytest.mark.parametrize("kind", sorted(DATA_FILES))
def test_data_files_accept_keys_no_loader_reads(small_sim, tmp_path, kind):
    """Unlike a config, a data file may carry keys its loader does not read:
    another tool's model outputs may hold more fields. Each record of a
    JSON Lines file (and each corpus turn, and a run's summary) or a vector
    table's head gains a key, and loads as it did without it."""
    source = small_sim.out_dir / DATA_FILES[kind]
    target = tmp_path / source.name
    records = [json.loads(line) for line in source.read_text(encoding="utf-8").splitlines()]
    for record in records:
        for extra in [record, record.get("summary", {}), *record.get("turns", [])]:
            extra["note"] = "not read"
    target.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    if kind in TABLES:
        shutil.copy(source.with_suffix(".npy"), target.with_suffix(".npy"))
    assert plain(LOADERS[kind](str(target))) == plain(LOADERS[kind](str(source)))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def damaged_files(draw, data):
    """``data``, a valid file of JSON objects one per line, with some bytes
    replaced, cut short, a deeply nested list or a 5,000-digit number put in
    its first record, or, half the time, one JSON-level edit: a value at a
    depth of 0 to 4 in one record set to an arbitrary JSON value, dropped,
    or repeated."""
    kind = draw(st.sampled_from(["bytes", "truncate", "raw", "json", "json", "json"]))
    if kind == "bytes":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "raw":  # JSON that json.loads itself fails on in other ways than a syntax error
        fragment = draw(st.sampled_from([b"[" * 5000 + b"]" * 5000, b"9" * 5000]))
        return b'{"_": ' + fragment + b", " + data[1:]
    records = [json.loads(line) for line in data.splitlines()]
    node, key = records, draw(st.integers(0, len(records) - 1))
    for _ in range(draw(st.integers(0, 4))):
        if not isinstance(node[key], (dict, list)) or not node[key]:
            break
        node = node[key]
        key = draw(st.sampled_from(sorted(node)) if isinstance(node, dict) else st.integers(0, len(node) - 1))
    edit = draw(st.sampled_from(["set", "set", "drop", "repeat"]))
    if edit == "set":
        node[key] = draw(JSON_VALUES)
    elif edit == "drop":
        del node[key]
    elif isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    else:
        node[draw(st.text(max_size=6))] = copy.deepcopy(node[key])
    return "".join(json.dumps(record) + "\n" for record in records).encode()


def with_digest(head: bytes, body: bytes) -> bytes:
    """A table's head with its digest set to ``body``'s."""
    record = json.loads(head)
    record["body_blake2b"] = hashlib.blake2b(body).hexdigest()
    return json.dumps(record).encode()


@st.composite
def damaged_bodies(draw, head, body):
    """A vector table's head and body bytes (body None: missing) after one
    damage to the body: cut short, bytes replaced, rewritten with an object,
    bool, int, complex or string dtype, as 1-D or 3-D, with rows dropped or
    repeated, or missing. The head's digest is set to match the new body, so
    the later checks see the damage, except for a stale body: the same
    table's values changed, its head left as it was."""
    matrix = np.load(io.BytesIO(body))
    kind = draw(st.sampled_from(["truncate", "bytes", "dtype", "ndim", "rows", "stale", "missing"]))
    if kind == "missing":
        return head, None
    if kind == "stale":
        return head, npy_bytes(matrix * 2.0 + 1.0)
    if kind == "truncate":
        new = body[: draw(st.integers(0, len(body) - 1))]
    elif kind == "bytes":
        out = bytearray(body)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
        new = bytes(out)
    elif kind == "dtype":
        dtype = draw(st.sampled_from([object, bool, np.int32, np.int64, np.complex128, np.str_]))
        new = npy_bytes(matrix.astype(dtype))
    elif kind == "ndim":
        new = npy_bytes(draw(st.sampled_from([matrix.ravel(), matrix[None], matrix[:, :, None]])))
    else:
        rows = draw(st.integers(0, 2 * len(matrix)))
        new = npy_bytes(np.resize(matrix, (rows, matrix.shape[1])))
    return with_digest(head, new), new


TABLES = {"adapter": "adapter.json", "pool": "pool_trained_slm.json", "store": "embeddings_holdout.json"}


@pytest.fixture(scope="module")
def valid_files(small_sim, tmp_path_factory):
    """A valid input of each loader's: a file the small simulation wrote, a
    vector table's (head, body) pair, or a config."""
    names = {
        "corpus": "corpus_holdout.jsonl",
        "predictions": "predictions_slm.jsonl",
        "run": "run_retrieval_trained.jsonl",
    }
    files = {kind: (small_sim.out_dir / name).read_bytes() for kind, name in names.items()}
    for kind, name in TABLES.items():
        head = small_sim.out_dir / name
        files[kind] = (head.read_bytes(), head.with_suffix(".npy").read_bytes())
    config = write_config(tmp_path_factory.mktemp("fuzz") / "c.json", small_sim, "out")
    files["config"] = Path(config).read_bytes()
    return files


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_file_loads_or_raises_input_error(valid_files, tmp_path_factory, kind, data):
    """No exception but ``InputError`` escapes a loader, whatever the damage:
    to a file, or to a vector table's head (its digest kept) or its body."""
    path = tmp_path_factory.getbasetemp() / f"damaged_{kind}.json"
    if kind in TABLES:
        head, body = valid_files[kind]
        if data.draw(st.booleans()):
            head = data.draw(damaged_files(head))
        else:
            head, body = data.draw(damaged_bodies(head, body))
        path.with_suffix(".npy").unlink(missing_ok=True)
        if body is not None:
            path.with_suffix(".npy").write_bytes(body)
        path.write_bytes(head)
    else:
        path.write_bytes(data.draw(damaged_files(valid_files[kind])))
    try:
        LOADERS[kind](str(path))
    except InputError:
        pass


BIG = "9" * 401  # an integer too large for any float: float() raises OverflowError
RUN_SUMMARY = '{"summary": {"experts": [{"name": "slm", "priority_rank": 0}], "config": {}}}\n'
# Each JSON loader's file with one number put in by %s, and the message that
# refuses a bad one. Vector tables hold their numbers in a typed body instead.
WITH_NUMBER = {
    "predictions": (
        '{"dialogue_id": "d", "turn_id": 0, "expert": "slm", "tlb": {}, "confidence": %s}\n',
        ":1: confidence must be a number",
    ),
    "run": (
        '{"key": "d:0", "expert": "slm", "tlb": {}, "neighbors": [["h:0", %s]]}\n' + RUN_SUMMARY,
        ":1: malformed turn record",
    ),
}


def test_is_number_refuses_exactly_the_ints_float_refuses():
    limit = 2**1024 - 2**970
    assert float(limit - 1) == float(np.finfo(np.float64).max)
    with pytest.raises(OverflowError):
        float(limit)
    assert all(is_number(v) for v in (limit - 1, 1 - limit, 3, 1e308, float("nan")))
    assert not any(is_number(v) for v in (limit, -limit, int(BIG), True, "1", None))


def assert_loader_refuses(kind, number, tmp_path):
    template, message = WITH_NUMBER[kind]
    path = tmp_path / "input.json"
    path.write_text(template % number)
    with pytest.raises(InputError, match=re.escape(str(path))) as caught:
        LOADERS[kind](str(path))
    assert message in str(caught.value)


@pytest.mark.parametrize("kind", sorted(WITH_NUMBER))
def test_loaders_reject_numbers_too_large_for_a_float(kind, tmp_path):
    assert_loader_refuses(kind, BIG, tmp_path)


@pytest.mark.parametrize("kind", sorted(WITH_NUMBER))
def test_loaders_reject_numbers_given_as_strings(kind, tmp_path):
    """A cast to a float array would read "1.5" as 1.5."""
    assert_loader_refuses(kind, '"1.5"', tmp_path)


def copy_table(small_sim, kind, tmp_path):
    """A copy of the small simulation's ``kind`` table; the path of its head."""
    head = tmp_path / "table.json"
    shutil.copyfile(small_sim.out_dir / TABLES[kind], head)
    shutil.copyfile((small_sim.out_dir / TABLES[kind]).with_suffix(".npy"), head.with_suffix(".npy"))
    return head


@pytest.mark.parametrize("dtype", [bool, np.int64, np.complex128, np.str_])
@pytest.mark.parametrize("kind", sorted(TABLES))
def test_table_loaders_refuse_bodies_that_are_not_floats(small_sim, tmp_path, kind, dtype):
    """A cast to a float array would read ``True`` as 1.0, an int or a
    string of digits as its value, and drop a complex number's imaginary part."""
    head = copy_table(small_sim, kind, tmp_path)
    edit_table(head, lambda record, body: (record, body.astype(dtype)))
    with pytest.raises(InputError, match="must be a 2-D floating array"):
        LOADERS[kind](str(head))


def _trip():
    Tripwire.unpickled += 1
    return 0.0


class Tripwire:
    """An object that counts its unpickling."""

    unpickled = 0

    def __reduce__(self):
        return _trip, ()


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_table_loaders_refuse_object_bodies_without_unpickling(small_sim, tmp_path, kind):
    head = copy_table(small_sim, kind, tmp_path)

    def tripwires(record, body):
        return record, np.full(body.shape, Tripwire(), dtype=object)

    edit_table(head, tripwires)
    with pytest.raises(InputError, match="allow_pickle=False"):
        LOADERS[kind](str(head))
    assert Tripwire.unpickled == 0


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_table_loaders_refuse_numbers_too_large_for_their_dtype(small_sim, tmp_path, kind):
    """A float64 1e300 overflows a float32 store or pool; a long double
    1e4000 overflows the float64 adapter. Either is not finite, named by
    its row's key."""
    huge = np.longdouble("1e4000") if kind == "adapter" else np.float64(1e300)
    if not np.isfinite(huge):
        pytest.skip("long double is no wider than float64 on this platform")
    head = copy_table(small_sim, kind, tmp_path)

    def one_huge(record, body):
        body = body.astype(huge.dtype)
        body[0, 0] = huge
        return record, body

    edit_table(head, one_huge)
    record = json.loads(head.read_text())
    keys = record.get("keys") or [e["key"] for e in record.get("entries", [])] or ["matrix row 0"]
    with pytest.raises(InputError, match=re.escape(f"vector for {keys[0]!r} is not")):
        LOADERS[kind](str(head))


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_table_loaders_refuse_a_stale_or_missing_body(small_sim, tmp_path, kind):
    head = copy_table(small_sim, kind, tmp_path)
    body = head.with_suffix(".npy")
    body.write_bytes(npy_bytes(np.load(body) * 2.0))
    with pytest.raises(InputError, match="does not match its digest"):
        LOADERS[kind](str(head))
    body.unlink()
    with pytest.raises(InputError, match="cannot open"):
        LOADERS[kind](str(head))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vector_numbers_keep_the_bits_of_a_direct_cast(dtype):
    """Ints that numpy infers as int64, uint64 or object arrays round once
    to float64, then to dtype, as a direct cast of the list does; 2**60 +
    2**36 + 1 cast straight from int64 to float32 would round up."""
    near_ties = [2**60 + 2**36 + 1, -(2**60 + 2**36 + 1), 2**63 + 2**39 + 1, 2**70 + 2**46 + 1]
    vectors = [[v] for v in near_ties] + [near_ties[:2], [1.5, near_ties[3]], [3, 2**64 - 1]]
    for vector in vectors:
        got = vector_rows(["k"], [vector], "test:", dtype)
        assert got.tobytes() == np.array([vector], dtype=dtype).tobytes()


# A misspelled key at each level whose keys are fixed, and the key meant.
UNKNOWN_KEYS = [
    ({"routr": "oracle"}, "routr", "router"),
    ({"embedder": {"kind": "hash", "dims": 64}}, "embedder.dims", "embedder.dim"),
    ({"hyperparamters": {"k": 3}}, "hyperparamters", "hyperparameters"),
    ({"hyperparameters": {"k": 3, "epoch": 2}}, "hyperparameters.epoch", "hyperparameters.epochs"),
    ({"costs": {"expert": {"slm": 0.04, "llm": 3000.0}}}, "costs.expert", "costs.experts"),
    ({"simulation": {"dialgues": 8}}, "simulation.dialgues", "simulation.dialogues"),
]


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("settings, key, meant", UNKNOWN_KEYS)
def test_unknown_config_key_exits_one_naming_the_key_meant(
    small_sim, tmp_path, capsys, command, settings, key, meant
):
    config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out", **settings)
    assert main([command, "--config", config]) == 1
    assert f"error: unknown config key {key!r} (did you mean {meant!r}?)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Every key a config may set, each to a valid value other than its default.
EVERY_KEY = {
    "corpus": "c.jsonl",
    "holdout": "h.jsonl",
    "predictions": {"tiny": "p.jsonl"},
    "experts": [{"name": "tiny", "priority_rank": 0}, {"name": "huge", "priority_rank": 1}],
    "embedder": {"kind": "store", "dim": 32, "path": "vectors.json"},
    "out_dir": "o",
    "embeddings_path": "e.json",
    "adapter_path": "a.json",
    "pairs_path": "p.json",
    "pools_dir": "pools",
    "run_path": "r.jsonl",
    "report_path": "rep.json",
    "hyperparameters": {
        "k": 3, "l": 7, "pool_size": 5, "margin": 0.5, "learning_rate": 0.3, "epochs": 2
    },
    "costs": {"experts": {"tiny": 1.0, "huge": 9.0}, "router": 0.5},
    "seed": 4,
    "router": "cascade",
    "supervision": "task",
    "training_domains": ["hotel"],
    "report_runs": {"a": "a.jsonl"},
    "simulation": {
        "dialogues": 9, "holdout_dialogues": 7, "min_turns": 2, "max_turns": 4, "mixed_fraction": 0.5,
        "embedding_dim": 32, "noise_words": 3, "slm_accuracy_in": 0.9, "slm_accuracy_out": 0.2,
        "llm_accuracy_in": 0.8, "llm_accuracy_out": 0.1, "slm_confidence_correct": 0.7,
        "slm_confidence_wrong": 0.3, "llm_confidence_correct": 0.6, "llm_confidence_wrong": 0.2,
        "k": 3, "pool_size": 20, "pairs_per_query": 4, "margin": 0.1, "learning_rate": 1.0,
        "epochs": 2, "slm_cost": 1.0, "llm_cost": 9.0, "router_cost": 0.5, "seed": 8,
    },
}


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config({})
        assert cfg.router == "retrieval"
        assert cfg.supervision == "task+expert"
        assert cfg.k == 10 and cfg.pairs_per_query == 25
        assert [e.name for e in cfg.experts] == ["slm", "llm"]
        assert cfg.expert_costs == {"slm": 0.04, "llm": 3000.0} and cfg.router_cost == 0.02

    def test_hyperparameters_block(self):
        cfg = parse_config({"hyperparameters": {"k": 3, "l": 7, "margin": 0.5, "epochs": 2}})
        assert (cfg.k, cfg.pairs_per_query, cfg.margin, cfg.epochs) == (3, 7, 0.5, 2)

    def test_experts_and_costs(self):
        cfg = parse_config(
            {
                "experts": [
                    {"name": "tiny", "priority_rank": 0},
                    {"name": "huge", "priority_rank": 1},
                ],
                "costs": {"experts": {"tiny": 1.0, "huge": 10.0}, "router": 0.5},
            }
        )
        assert [e.name for e in cfg.experts] == ["tiny", "huge"]
        assert cfg.expert_costs == {"tiny": 1.0, "huge": 10.0} and cfg.router_cost == 0.5

    def test_experts_come_in_priority_order(self):
        listed = [{"name": "llm", "priority_rank": 1}, {"name": "slm", "priority_rank": 0}]
        assert [e.name for e in parse_config({"experts": listed}).experts] == ["slm", "llm"]
        reversed_in_code = RunConfig(experts=tuple(reversed(RunConfig().experts)))
        assert reversed_in_code.experts == RunConfig().experts

    def test_training_domains_become_tuple(self):
        cfg = parse_config({"training_domains": ["hotel"]})
        assert cfg.training_domains == ("hotel",)
        assert parse_config({}).training_domains is None

    @pytest.mark.parametrize(
        "record",
        [
            {"router": "psychic"},
            {"supervision": "vibes"},
            {"hyperparameters": {"k": 0}},
            {"hyperparameters": "big"},
            {"hyperparameters": {"pool_size": True}},
            {"embedder": {"kind": "parrot"}},
            {"embedder": {"kind": "store"}},
            {"experts": []},
            {"experts": [{"name": "a"}]},
            {"predictions": {"slm": 3}},
            {"report_runs": {"x": 1}},
            {"costs": {"experts": {"slm": "free"}}},
            {"seed": True},
            {"corpus": 9},
            {"simulation": []},
            [],
        ],
    )
    def test_rejects_malformed(self, record):
        with pytest.raises(InputError):
            parse_config(record)

    @pytest.mark.parametrize(
        "costs, name",
        [
            ({"experts": {"slm": "0.04", "llm": 3000.0}}, "costs.experts.slm"),
            ({"experts": {"slm": 0.04, "llm": True}}, "costs.experts.llm"),
            ({"experts": {"slm": 0.04}, "router": False}, "costs.router"),
            ({"experts": {"slm": float("nan")}}, "costs.experts.slm"),
            ({"experts": {"slm": float("inf")}}, "costs.experts.slm"),
            ({"experts": {}, "router": -0.5}, "costs.router"),
            ({"experts": {"llm": 10**400}}, "costs.experts.llm"),
            ({"experts": {"llm": None}}, "costs.experts.llm"),
        ],
    )
    def test_costs_are_finite_numbers_at_least_zero(self, tmp_path, capsys, costs, name):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"corpus": "corpus.jsonl", "costs": costs}))
        assert main(["validate", "--config", str(path)]) == 1
        assert f"config field {name!r} must be a finite number >= 0" in capsys.readouterr().err

    def test_simulation_shares_the_run_settings_ranges(self):
        """Each pipeline setting a simulation shares with a run refuses what
        the run's setting refuses, in the same words."""
        run, simulation = settings_of(RunConfig), settings_of(SimulationSpec)
        shared = ["k", "pool_size", "pairs_per_query", "margin", "learning_rate", "epochs", "router_cost"]
        pairs = [(name, name) for name in shared] + [("slm_cost", "expert_costs"), ("llm_cost", "expert_costs")]
        for mine, theirs in pairs:
            assert simulation[mine].range.words == run[theirs].range.words, mine

    def test_every_key_parses_to_its_value(self):
        """EVERY_KEY sets each declared setting to a value other than its
        default, so a setting missing from the table or read into the wrong
        field fails here."""
        classes = (RunConfig, EmbedderSpec, SimulationSpec)
        declared = {s.path for cls in classes for s in settings_of(cls).values()}
        groups = ("embedder", "hyperparameters", "costs", "simulation")
        given = {key for key in EVERY_KEY if key not in groups}
        given |= {f"{group}.{key}" for group in groups for key in EVERY_KEY[group]}
        assert given == declared
        cfg = parse_config(EVERY_KEY)
        assert (cfg.corpus, cfg.holdout, cfg.out_dir) == ("c.jsonl", "h.jsonl", "o")
        assert cfg.predictions == {"tiny": "p.jsonl"} and cfg.report_runs == {"a": "a.jsonl"}
        assert [(e.name, e.priority_rank) for e in cfg.experts] == [("tiny", 0), ("huge", 1)]
        assert cfg.embedder == EmbedderSpec("store", 32, "vectors.json")
        paths = (cfg.embeddings_path, cfg.adapter_path, cfg.pairs_path, cfg.pools_dir, cfg.run_path, cfg.report_path)
        assert paths == ("e.json", "a.json", "p.json", "pools", "r.jsonl", "rep.json")
        hyper = (cfg.k, cfg.pairs_per_query, cfg.pool_size, cfg.margin, cfg.learning_rate, cfg.epochs)
        assert hyper == (3, 7, 5, 0.5, 0.3, 2)
        assert (cfg.expert_costs, cfg.router_cost) == ({"tiny": 1.0, "huge": 9.0}, 0.5)
        assert (cfg.seed, cfg.router, cfg.supervision) == (4, "cascade", "task")
        assert cfg.training_domains == ("hotel",)
        spec, default = SimulationSpec(**cfg.simulation), SimulationSpec()
        for name, value in EVERY_KEY["simulation"].items():
            assert getattr(spec, name) == value != getattr(default, name)
        for name in RunConfig.__dataclass_fields__:
            assert getattr(cfg, name) != getattr(RunConfig(), name), name

    def test_maps_keyed_by_user_chosen_names_take_any_name(self):
        names = ["routr", "hyperparameters", "k", "expert", "ghost"]
        cfg = parse_config(
            {
                "predictions": {name: f"{name}.jsonl" for name in names},
                "report_runs": {name: f"run_{name}.jsonl" for name in names},
                "costs": {"experts": {name: 1.0 for name in names}},
            }
        )
        assert list(cfg.predictions) == list(cfg.report_runs) == list(cfg.expert_costs) == names

    def test_embedder_store_requires_path(self):
        spec = EmbedderSpec(kind="store", path="emb.jsonl")
        assert spec.path == "emb.jsonl"
        with pytest.raises(InputError):
            EmbedderSpec(kind="store")

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 42, "router": "oracle"}))
        cfg = load_config(str(path))
        assert cfg.seed == 42 and cfg.router == "oracle"

    def test_artifact_paths_follow_out_dir(self):
        cfg = RunConfig(out_dir="exp")
        assert str(cfg.resolve_embeddings()) == "exp/embeddings.json"
        assert str(cfg.pool_path("slm")) == "exp/pool_slm.json"
        override = RunConfig(out_dir="exp", run_path="runs/r.jsonl")
        assert str(override.resolve_run()) == "runs/r.jsonl"
