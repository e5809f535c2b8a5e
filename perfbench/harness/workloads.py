"""The three workloads.

Each workload makes its inputs from the seed (``setup``), warms up, and then
repeats one operation (``operate``) whose outputs ``check`` verifies after
the timer has stopped. Stage functions are called through this module's own
names so that the harness can trace them the same way it traces the
program's modules.

* ``sim-default``: one ``run_simulation`` of the default spec, the paper's
  end-to-end run. Adapter training dominates it.
* ``route-large-pool``: prepare a retrieval router over every solved turn of
  a 2,000-dialogue hold-out set (identity adapter, no training, no files)
  and route 250 test dialogues. Per-turn k-NN scoring dominates it.
* ``cli-chain``: the file-based CLI, in-process: validate, embed,
  mine-and-train, build-pools, route three ways, report. The only workload
  that reads artifacts back and runs the cascade and classifier routers.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from dialroute import cli
from dialroute.dialogue import save_corpus, triplet_of_turn, turn_key
from dialroute.embedding import HashEmbedder, ProjectionAdapter, project, serialize_triplet
from dialroute.experts import build_pools, sample_pool, write_predictions
from dialroute.metrics import CostTable, make_report
from dialroute.routing import RetrievalRouter, run_pipeline
from dialroute.seeding import subseed
from dialroute.simulate import (
    HOTEL_DOMAIN,
    SimulationSpec,
    generate_corpus,
    make_experts,
    run_simulation,
)

from .knn import KnnReference


@dataclass
class Outcome:
    """How one operation's outputs fared against the checks. ``quality``
    holds the retrieval run's figures, and stays empty when the operation
    produced no run to score."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)


def _quality(report) -> dict[str, float]:
    return {
        "tlb_jga": report.tlb_jga,
        "dst_jga": report.dst_jga,
        "tflops_per_turn": report.total_teraflops / report.turns,
    }


def _turn_count(*corpora) -> int:
    return sum(corpus.turn_count() for corpus in corpora)


# --- sim-default -------------------------------------------------------------


class SimDefault:
    name = "sim-default"
    min_operations = 1
    routed_runs = 5  # each run is one checked operation

    def setup(self, seed: int, directory: Path, out_dir: Path):
        spec = SimulationSpec(seed=seed)
        self._warm_up(replace(spec, dialogues=12, holdout_dialogues=12, epochs=1), directory)
        return spec

    def _warm_up(self, spec: SimulationSpec, directory: Path) -> None:
        run_simulation(spec, directory / "warm-up")

    def operate(self, spec: SimulationSpec, out_dir: Path, tracer=None):
        return run_simulation(spec, out_dir)

    def turns(self, spec: SimulationSpec, output) -> int:
        return _turn_count(output.test_corpus, output.holdout_corpus)

    def check(self, spec: SimulationSpec, output, out_dir: Path) -> Outcome:
        expected = list(output.test_corpus.gold_tlbs())
        outcome = Outcome(attempted=self.routed_runs, failed=0)
        oracle = output.reports["oracle"].tlb_jga
        for name, run in sorted(output.runs.items()):
            problems = []
            if run.keys() != expected:
                problems.append(f"run {name} covers {len(run)} of {len(expected)} test turns")
            if output.reports[name].tlb_jga > oracle:
                problems.append(f"run {name} beats the oracle's tlb_jga {oracle}")
            outcome.failed += bool(problems)
            outcome.problems += problems
        if len(output.runs) != self.routed_runs:
            outcome.failed += abs(self.routed_runs - len(output.runs))
            outcome.problems.append(f"{len(output.runs)} routed runs, expected {self.routed_runs}")
        outcome.quality = _quality(output.reports["retrieval_trained"])
        return outcome


# --- route-large-pool --------------------------------------------------------


@dataclass
class RouteInputs:
    spec: SimulationSpec
    test: object
    holdout_turns: list
    gold: dict
    check_sample: list[int]


class RouteLargePool:
    name = "route-large-pool"
    # Each operation routes ~1.1k test turns, one ~10 s routing window. Three
    # operations spread the windows, and the ~2.5 s prepare stages, over the
    # whole run, so that one slow spell of the host moves no median.
    min_operations = 3
    holdout_dialogues = 2000
    test_dialogues = 250
    check_turns = 64

    def _inputs(self, spec: SimulationSpec) -> RouteInputs:
        test = generate_corpus(spec, spec.dialogues, "dlg", "test")
        holdout = generate_corpus(spec, spec.holdout_dialogues, "hld", "holdout")
        gold = {**holdout.gold_tlbs(), **test.gold_tlbs()}
        rng = np.random.default_rng(subseed(spec.seed, "bench:check"))
        n = test.turn_count()
        sample = sorted(int(i) for i in rng.choice(n, size=min(self.check_turns, n), replace=False))
        return RouteInputs(spec, test, holdout.labeled(), gold, sample)

    def setup(self, seed: int, directory: Path, out_dir: Path) -> RouteInputs:
        spec = SimulationSpec(
            seed=seed, dialogues=self.test_dialogues, holdout_dialogues=self.holdout_dialogues
        )
        self._warm_up(replace(spec, dialogues=12, holdout_dialogues=24), directory)
        return self._inputs(spec)

    def _warm_up(self, spec: SimulationSpec, directory: Path) -> None:
        inputs = self._inputs(spec)
        self.check(inputs, self.operate(inputs, directory), directory)

    def operate(self, inputs: RouteInputs, out_dir: Path, tracer=None):
        spec = inputs.spec
        experts = make_experts(spec, inputs.gold)
        embedder = HashEmbedder(spec.embedding_dim, subseed(spec.seed, "embedder"))
        identity = ProjectionAdapter.identity(spec.embedding_dim)
        turns = inputs.holdout_turns
        vectors = {
            t.key: project(identity, embedder.embed(t.key, serialize_triplet(t.triplet)))
            for t in turns
        }
        predictions = {e.id: {t.key: e.predict(t.triplet).tlb for t in turns} for e in experts}
        pools = build_pools(turns, predictions, vectors)
        kept = [
            sample_pool(pool, len(pool.entries), subseed(spec.seed, f"pool:{expert.name}"))
            for expert, pool in sorted(pools.items(), key=lambda item: item[0].priority_rank)
        ]
        router = RetrievalRouter(kept, spec.k)
        run = run_pipeline(
            inputs.test,
            experts,
            router,
            embedder=embedder,
            adapter=identity,
            config={"k": spec.k, "seed": spec.seed, "name": "retrieval_base"},
        )
        costs = CostTable({"slm": spec.slm_cost, "llm": spec.llm_cost}, spec.router_cost)
        report = make_report(run, inputs.test, costs, training_domains={HOTEL_DOMAIN})
        return run, report, kept

    def turns(self, inputs: RouteInputs, output) -> int:
        return inputs.test.turn_count() + len(inputs.holdout_turns)

    def check(self, inputs: RouteInputs, output, out_dir: Path) -> Outcome:
        run, report, kept = output
        spec = inputs.spec
        places = [(d, t) for d in inputs.test for t in range(len(d.turns))]
        outcome = Outcome(attempted=len(places), failed=0, quality=_quality(report))
        expected = [turn_key(d.dialogue_id, d.turns[t].turn_id) for d, t in places]
        if run.keys() != expected:
            missing = len(set(expected) - set(run.keys()))
            outcome.failed += max(missing, 1)
            outcome.problems.append(f"run covers {len(run)} turns, {missing} test turns missing")
            return outcome
        reference = KnnReference(kept)
        embedder = HashEmbedder(spec.embedding_dim, subseed(spec.seed, "embedder"))
        identity = ProjectionAdapter.identity(spec.embedding_dim)
        for i in inputs.check_sample:
            dialogue, t = places[i]
            prev = run.records[i - 1].state if t > 0 else {}
            triplet = triplet_of_turn(dialogue, t, prev)
            query = project(identity, embedder.embed(triplet.key, serialize_triplet(triplet)))
            problems = reference.check(query, spec.k, run.records[i].decision)
            outcome.failed += bool(problems)
            outcome.problems += problems
        return outcome


# --- cli-chain ---------------------------------------------------------------


CHAIN = (
    ("validate", "validate", "retrieval"),
    ("embed", "embed", "retrieval"),
    ("mine_and_train", "mine-and-train", "retrieval"),
    ("build_pools", "build-pools", "retrieval"),
    ("route_retrieval", "route", "retrieval"),
    ("route_cascade", "route", "cascade"),
    ("route_classifier", "route", "classifier"),
    ("report", "report", "report"),
)

ROUTED = ("retrieval", "cascade", "classifier")


@dataclass
class ChainInputs:
    configs: dict[str, str]
    turns: int


class CliChain:
    name = "cli-chain"
    min_operations = 1
    test_dialogues = 600
    holdout_dialogues = 240

    def setup(self, seed: int, directory: Path, out_dir: Path) -> ChainInputs:
        spec = SimulationSpec(
            seed=seed, dialogues=self.test_dialogues, holdout_dialogues=self.holdout_dialogues
        )
        test = generate_corpus(spec, spec.dialogues, "dlg", "test")
        holdout = generate_corpus(spec, spec.holdout_dialogues, "hld", "holdout")
        directory.mkdir(parents=True, exist_ok=True)
        save_corpus(test, str(directory / "corpus_test.jsonl"))
        save_corpus(holdout, str(directory / "corpus_holdout.jsonl"))
        experts = make_experts(spec, {**holdout.gold_tlbs(), **test.gold_tlbs()})
        labeled = [*holdout.labeled(), *test.labeled()]
        predictions = {}
        for expert in experts:
            path = directory / f"predictions_{expert.id.name}.jsonl"
            write_predictions([expert.predict(t.triplet) for t in labeled], str(path))
            predictions[expert.id.name] = str(path)
        base = {
            "corpus": str(directory / "corpus_test.jsonl"),
            "holdout": str(directory / "corpus_holdout.jsonl"),
            "predictions": predictions,
            "embedder": {"kind": "hash", "dim": spec.embedding_dim},
            "out_dir": str(out_dir),
            "supervision": "task+expert",
            "seed": seed,
            "hyperparameters": {
                "k": spec.k,
                "l": spec.pairs_per_query,
                "pool_size": 300,
                "margin": spec.margin,
                "learning_rate": spec.learning_rate,
                "epochs": 3,
            },
            "costs": {
                "experts": {"slm": spec.slm_cost, "llm": spec.llm_cost},
                "router": spec.router_cost,
            },
            "training_domains": [HOTEL_DOMAIN],
        }
        runs = {router: str(out_dir / f"run_{router}.jsonl") for router in ROUTED}
        variants = {router: {"router": router, "run_path": runs[router]} for router in ROUTED}
        variants["report"] = {"run_path": runs["retrieval"], "report_runs": runs}
        configs = {}
        for name, extra in variants.items():
            path = directory / f"config_{name}.json"
            path.write_text(json.dumps({**base, **extra}), encoding="utf-8")
            configs[name] = str(path)
        inputs = ChainInputs(configs, test.turn_count() + holdout.turn_count())
        self._warm_up(inputs, directory)
        return inputs

    def _warm_up(self, inputs: ChainInputs, directory: Path) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["validate", "--config", inputs.configs["retrieval"]])

    def operate(self, inputs: ChainInputs, out_dir: Path, tracer=None):
        codes = {}
        logs = {}
        for step, command, config in CHAIN:
            main = cli.main if tracer is None else tracer.wrap(f"cli.{step}", cli.main)
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
                codes[step] = main([command, "--config", inputs.configs[config]])
            logs[step] = buffer.getvalue()
        return codes, logs

    def turns(self, inputs: ChainInputs, output) -> int:
        return inputs.turns

    def check(self, inputs: ChainInputs, output, out_dir: Path) -> Outcome:
        codes, logs = output
        outcome = Outcome(attempted=len(CHAIN), failed=0)
        for step, code in codes.items():
            if code != 0:
                outcome.failed += 1
                outcome.problems.append(f"{step} exited {code}: {logs[step].strip()[-200:]}")
        try:
            series = json.loads((out_dir / "series.json").read_text(encoding="utf-8"))["series"]
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError) as exc:
            outcome.failed += 1
            outcome.problems.append(f"report outputs unreadable: {exc}")
            return outcome
        names = sorted(entry["name"] for entry in series)
        if names != sorted(ROUTED):
            outcome.failed += 1
            outcome.problems.append(f"series.json lists {names}, expected {sorted(ROUTED)}")
        outcome.quality = {
            "tlb_jga": report["tlb_jga"],
            "dst_jga": report["dst_jga"],
            "tflops_per_turn": report["total_teraflops"] / report["turns"],
        }
        return outcome


WORKLOADS = {w.name: w for w in (SimDefault(), RouteLargePool(), CliChain())}
