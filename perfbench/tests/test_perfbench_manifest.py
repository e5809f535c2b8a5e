"""BENCHMARK.json names exactly the metrics the harness reports, within
the limits the benchmark file format sets."""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from harness.bench import END_TO_END
from harness.layers import PER_LAYER
from harness.workloads import WORKLOADS

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys():
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(MANIFEST) == keys
    assert MANIFEST["command"] == ["python3", "perfbench/run.py"]
    assert MANIFEST["paths"] == ["perfbench"]
    assert 1 <= MANIFEST["run_seconds"] <= 60


def test_workloads_match_the_harness():
    names = [w["name"] for w in MANIFEST["workloads"]]
    assert names == list(WORKLOADS)
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_metrics_match_the_harness():
    entries = MANIFEST["end_to_end"]
    assert {e["name"]: (e["unit"], e["better"]) for e in entries} == END_TO_END
    for entry in entries:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in entries if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in entries)


def test_per_layer_metrics_match_the_harness():
    entries = MANIFEST["per_layer"]
    assert [(e["name"], e["unit"], e["better"]) for e in entries] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()
    ]
    for entry in entries:
        assert set(entry) == {"name", "unit", "better"}


def test_names_and_units_are_well_formed():
    entries = [*MANIFEST["workloads"], *MANIFEST["end_to_end"], *MANIFEST["per_layer"]]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    metrics = [*MANIFEST["end_to_end"], *MANIFEST["per_layer"]]
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
