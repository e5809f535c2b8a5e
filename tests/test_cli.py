"""Command-line driver and its JSON run configuration."""

import copy
import json
import logging
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
    apply_overrides,
    load_config,
    parse_config,
)
from dialroute.errors import is_number, vector_rows


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


class TestPipelineArtifacts:
    def test_stage_outputs_exist(self, pipeline):
        for name in ("embeddings.jsonl", "adapter.json", "pairs.json",
                     "pool_slm.json", "pool_llm.json", "loss_history.json"):
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
        assert (moved / "embeddings.jsonl").exists()
        assert not (tmp_path / "ignored").exists()

    def test_seed_override_changes_hash_embeddings(self, small_sim, tmp_path):
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out")
        assert main(["embed", "--config", config]) == 0
        first = (tmp_path / "out" / "embeddings.jsonl").read_bytes()
        assert main(["embed", "--config", config, "--seed", "99"]) == 0
        assert (tmp_path / "out" / "embeddings.jsonl").read_bytes() != first

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
    same = [("embeddings_holdout.jsonl", "embeddings.jsonl")]
    same += [(name, name) for name in ("pairs.json", "adapter.json", "loss_history.json")]
    same += [(f"pool_trained_{e}.json", f"pool_{e}.json") for e in ("slm", "llm")]
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

    def test_unknown_setting_rejected(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"simulation": {"dialgues": 8}}))
        assert main(["simulate", "--config", str(config)]) == 1
        assert "dialgues" in capsys.readouterr().err


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

    def test_non_numeric_pool_vector_exits_one(self, pipeline, tmp_path, capsys):
        out = tmp_path / "work"
        shutil.copytree(pipeline.out, out)
        config = write_config(tmp_path / "c.json", pipeline.sim, out)
        pool = json.loads((out / "pool_slm.json").read_text())
        pool["entries"][0]["vector"] = "abc"
        (out / "pool_slm.json").write_text(json.dumps(pool))
        assert main(["route", "--config", config]) == 1
        assert "finite numbers" in capsys.readouterr().err

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
        assert f"corpus {str(holdout)!r}: line 2:" in err

    def test_module_entry_point(self, small_sim, tmp_path):
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out")
        proc = subprocess.run(
            [sys.executable, "-m", "dialroute", "validate", "--config", config],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "coverage: ok" in proc.stdout


def edit_records(path, edit):
    """Rewrite each JSON record of ``path``, one per line, through ``edit``."""
    records = [edit(json.loads(line)) for line in path.read_text(encoding="utf-8").splitlines()]
    path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")


def cut_vectors(n):
    """An edit that keeps the first ``n`` numbers of a store line's or a pool's vectors."""

    def edit(record):
        for entry in record.get("entries", [record]):
            entry["vector"] = entry["vector"][:n]
        return record

    return edit


def identity_adapter(dim):
    return lambda record: {"dim": dim, "matrix": np.eye(dim).tolist()}


# command, its extra arguments, the artifacts damaged, the edit, and what the
# error must say: artifacts that do not fit each other, and vectors of no numbers
MISFITS = {
    "pools_vs_adapter": (
        "route", [], ["pool_slm.json", "pool_llm.json"], cut_vectors(32),
        ["pool_slm.json has dim 32", "adapter.json has dim 64"],
    ),
    "store_vs_adapter": (
        "build-pools", [], ["embeddings.jsonl"], cut_vectors(32),
        ["embeddings.jsonl has dim 32", "adapter.json has dim 64"],
    ),
    "store_vs_query_embedder": (
        "route", ["--router", "classifier"], ["embeddings.jsonl"], cut_vectors(32),
        ["embeddings.jsonl has dim 32", "hash embedder (config embedder dim) has dim 64"],
    ),
    "adapter_vs_query_embedder": (
        "route", [], ["adapter.json"], identity_adapter(32),
        ["adapter.json has dim 32", "hash embedder (config embedder dim) has dim 64"],
    ),
    "empty_store_vectors": (
        "mine-and-train", [], ["embeddings.jsonl"], cut_vectors(0),
        ["embeddings.jsonl:1: vector for", "not a non-empty flat list"],
    ),
    "empty_pool_vectors": (
        "route", [], ["pool_slm.json", "pool_llm.json"], cut_vectors(0),
        ["pool_slm.json", "not a non-empty flat list"],
    ),
}


@pytest.mark.parametrize("case", sorted(MISFITS))
def test_artifacts_that_do_not_fit_exit_one_naming_them(pipeline, tmp_path, capsys, case):
    command, extra, names, edit, expected = MISFITS[case]
    out = tmp_path / "work"
    shutil.copytree(pipeline.out, out)
    config = write_config(tmp_path / "c.json", pipeline.sim, out)
    for name in names:
        edit_records(out / name, edit)
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
    edit_records(out / "adapter.json", lambda r: {**r, "matrix": np.full((r["dim"],) * 2, 1e300).tolist()})
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dialroute", "build-pools", "--config", config],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert "out of float64 range" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


BAD_SETTINGS = [
    ("mine-and-train", {"hyperparameters": {"margin": 1.5}}, "margin"),
    ("mine-and-train", {"hyperparameters": {"learning_rate": -1}}, "learning_rate"),
    ("mine-and-train", {"hyperparameters": {"learning_rate": float("inf")}}, "learning_rate"),
    ("mine-and-train", {"hyperparameters": {"epochs": -1}}, "epochs"),
    ("mine-and-train", {"hyperparameters": {"epochs": 2.5}}, "'epochs'"),
    ("mine-and-train", {"hyperparameters": {"l": 0}}, "l (pairs per query)"),
    ("build-pools", {"hyperparameters": {"pool_size": -3}}, "pool_size"),
    ("build-pools", {"hyperparameters": {"pool_size": {"slm": -3, "llm": 5}}}, "pool_size"),
    ("build-pools", {"hyperparameters": {"pool_size": {"slm": "x", "llm": 5}}}, "pool_size"),
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


@pytest.fixture(scope="module")
def valid_files(small_sim, tmp_path_factory):
    """A valid input of each loader's: a file the small simulation wrote, or a config."""
    names = {
        "adapter": "adapter.json",
        "corpus": "corpus_holdout.jsonl",
        "pool": "pool_trained_slm.json",
        "predictions": "predictions_slm.jsonl",
        "run": "run_retrieval_trained.jsonl",
        "store": "embeddings_holdout.jsonl",
    }
    files = {kind: (small_sim.out_dir / name).read_bytes() for kind, name in names.items()}
    config = write_config(tmp_path_factory.mktemp("fuzz") / "c.json", small_sim, "out")
    files["config"] = Path(config).read_bytes()
    return files


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_file_loads_or_raises_input_error(valid_files, tmp_path_factory, kind, data):
    """No exception but ``InputError`` escapes a loader, whatever the damage."""
    path = tmp_path_factory.getbasetemp() / f"damaged_{kind}"
    path.write_bytes(data.draw(damaged_files(valid_files[kind])))
    try:
        LOADERS[kind](str(path))
    except InputError:
        pass


BIG = "9" * 401  # an integer too large for any float: float() raises OverflowError
RUN_SUMMARY = '{"summary": {"experts": [{"name": "slm", "priority_rank": 0}], "config": {}}}\n'
# Each loader's file with one number put in by %s, and the message that refuses a bad one.
WITH_NUMBER = {
    "adapter": ('{"dim": 1, "matrix": [[%s]]}', "vector for 'matrix row 0'"),
    "pool": ('{"expert": "slm", "entries": [{"key": "d:0", "vector": [1.0, %s]}]}', "'d:0'"),
    "predictions": (
        '{"dialogue_id": "d", "turn_id": 0, "expert": "slm", "tlb": {}, "confidence": %s}\n',
        ":1: confidence must be a number",
    ),
    "run": (
        '{"key": "d:0", "expert": "slm", "tlb": {}, "neighbors": [["h:0", %s]]}\n' + RUN_SUMMARY,
        ":1: malformed turn record",
    ),
    "store": ('{"key": "a", "vector": [1.0, %s]}\n', ":1: vector for 'a'"),
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


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config({})
        assert cfg.router == "retrieval"
        assert cfg.supervision == "task+expert"
        assert cfg.k == 10 and cfg.pairs_per_query == 25
        assert [e.name for e in cfg.experts] == ["slm", "llm"]
        assert cfg.costs.expert_cost("llm") == 3000.0

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
        assert cfg.costs.router_cost == 0.5

    def test_experts_come_in_priority_order(self):
        listed = [{"name": "llm", "priority_rank": 1}, {"name": "slm", "priority_rank": 0}]
        assert [e.name for e in parse_config({"experts": listed}).experts] == ["slm", "llm"]
        reversed_in_code = RunConfig(experts=tuple(reversed(RunConfig().experts)))
        assert reversed_in_code.experts == RunConfig().experts

    def test_pool_size_map(self):
        cfg = parse_config({"hyperparameters": {"pool_size": {"slm": 10, "llm": 20}}})
        assert cfg.pool_size_for("slm") == 10
        assert cfg.pool_size_for("llm") == 20
        with pytest.raises(InputError, match="ghost"):
            cfg.pool_size_for("ghost")

    def test_training_domains_become_tuple(self):
        cfg = parse_config({"training_domains": ["hotel"]})
        assert cfg.training_domains == ("hotel",)
        assert parse_config({}).training_domains is None

    @pytest.mark.parametrize(
        "record",
        [
            {"router": "psychic"},
            {"supervision": "vibes"},
            {"prior_mode": "future"},
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

    def test_apply_overrides(self):
        cfg = RunConfig(seed=1, out_dir="a", router="oracle", supervision="none")
        same = apply_overrides(cfg)
        assert same == cfg
        changed = apply_overrides(cfg, seed=2, out="b", router="cascade", supervision="task")
        assert (changed.seed, changed.out_dir) == (2, "b")
        assert (changed.router, changed.supervision) == ("cascade", "task")

    def test_artifact_paths_follow_out_dir(self):
        cfg = RunConfig(out_dir="exp")
        assert str(cfg.resolve_embeddings()) == "exp/embeddings.jsonl"
        assert str(cfg.pool_path("slm")) == "exp/pool_slm.json"
        override = RunConfig(out_dir="exp", run_path="runs/r.jsonl")
        assert str(override.resolve_run()) == "runs/r.jsonl"
