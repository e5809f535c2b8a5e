"""Command-line driver and its JSON run configuration."""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

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
from dialroute.cli import main
from dialroute.config import (
    EmbedderSpec,
    apply_overrides,
    load_config,
    parse_config,
)
from dialroute.supervision import load_pairs


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
        import dialroute.cli as cli_module

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

    def test_non_utf8_corpus_exits_one(self, small_sim, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes((small_sim.out_dir / "corpus_test.jsonl").read_bytes() + b"\xff\n")
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out", corpus=str(corpus))
        assert main(["validate", "--config", config]) == 1
        assert "not UTF-8" in capsys.readouterr().err

    def test_module_entry_point(self, small_sim, tmp_path):
        config = write_config(tmp_path / "c.json", small_sim, tmp_path / "out")
        proc = subprocess.run(
            [sys.executable, "-m", "dialroute", "validate", "--config", config],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "coverage: ok" in proc.stdout


LOADERS = {
    "adapter": load_adapter,
    "config": load_config,
    "corpus": load_corpus,
    "pairs": load_pairs,
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
