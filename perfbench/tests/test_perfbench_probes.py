"""Instrumenting the program's modules traces every stage of a small
simulation, and leaves the modules as they were."""

import json
import sys
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from dialroute import cli, routing, simulate
from dialroute.simulate import SimulationSpec, run_simulation

from harness.layers import by_operation, operation_metrics
from harness.probes import instrument
from harness.spans import ROOT, Tracer

MODULES = (simulate, cli, routing)
SPEC = SimulationSpec(dialogues=8, holdout_dialogues=12, epochs=2, pool_size=20)


def test_traced_simulation_matches_and_is_covered(tmp_path):
    before = {(m.__name__, name): value for m in MODULES for name, value in vars(m).items()}
    plain = run_simulation(SPEC, tmp_path / "plain")
    tracer = Tracer()
    with ExitStack() as stack:
        instrument(tracer, stack, MODULES)
        traced = tracer.wrap(ROOT, run_simulation)(SPEC, tmp_path / "traced")
    after = {(m.__name__, name): value for m in MODULES for name, value in vars(m).items()}
    assert after == before
    for name, report in plain.reports.items():
        assert traced.reports[name].to_record() == report.to_record()
    metrics = operation_metrics(by_operation(tracer.closed())[0], tracer.counters[0])
    assert metrics["supervision.train_s"] > 0
    assert metrics["embedding.embed_calls"] > 0
    assert metrics["routing.decide_calls"] == 2 * plain.test_corpus.turn_count()
    pools = (tmp_path / "plain").glob("pool_*.json")
    assert metrics["experts.pool_entries"] == sum(
        len(json.loads(path.read_text())["entries"]) for path in pools
    )
    assert metrics["trace.coverage"] >= 0.9
