"""Benchmark for dialroute.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-default --seed 0 --seconds 5 --trace 0
    python3 perfbench/run.py                    # every workload, untraced then traced

With one workload the last line of standard output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced (``--trace 0``) or the per-layer metrics (``--trace 1``).
Without ``--workload`` every workload runs in its own child process with
``--trace 1`` and one table per workload is printed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_THREADS = 1

# Pin BLAS threads before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOAD_NAMES = ("sim-default", "route-large-pool", "cli-chain")


def _import_program() -> None:
    """Import dialroute from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "dialroute" / "__init__.py").is_file():
        raise SystemExit(f"error: no dialroute sources under {src}")
    sys.path.insert(0, str(src))
    import dialroute

    if Path(dialroute.__file__).resolve().parent != (src / "dialroute").resolve():
        raise SystemExit(f"error: imported dialroute from {dialroute.__file__}, not {src}")


def _table(title: str, metrics: dict) -> str:
    lines = [title]
    for name, entry in metrics.items():
        lines.append(f"  {name:<28} {entry['value']:>16.6g} {entry['unit']}")
    return "\n".join(lines)


def _print_record(record: dict) -> None:
    """One workload's tables: end to end, failed share, quality, per layer."""
    name = record["workload"]
    print(_table(f"{name}: end to end (untraced)", record["end_to_end"]))
    print(_table("  recorded, not bounded", record["unbounded"]))
    print(
        f"  {'failed_share':<28} {record['failed_share']:>16.6g} "
        f"({record['failed']} of {record['attempted']})"
    )
    print(
        "  quality of the retrieval run (fixed by the seed): "
        + ", ".join(f"{key} {value:.4f}" for key, value in record["quality"].items())
    )
    if record["per_layer"]:
        print(_table(f"{name}: per layer (traced)", record["per_layer"]))


def _run_one(args) -> int:
    _import_program()
    from harness import bench
    from harness.layers import PER_LAYER

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        spans_path = None
        if result.tracer is not None:
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result.tracer.write(str(spans_path))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def described(values: dict, units: dict) -> dict:
        return {name: {"value": values[name], "unit": units[name][0]} for name in units}

    end_to_end = described(result.end_to_end, bench.END_TO_END)
    unbounded = described(result.end_to_end, bench.UNBOUNDED)
    per_layer = described(result.per_layer, PER_LAYER) if result.per_layer else None
    env = bench.environment(ROOT, args.seed, NPROC, BLAS_THREADS)
    record = {
        "workload": args.workload,
        "environment": env,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_share": result.failed / result.attempted,
        "problems": result.problems[:50],
        "samples": result.samples,
        "end_to_end": end_to_end,
        "unbounded": unbounded,
        "quality": result.quality,
        "per_layer": per_layer,
        "spans": str(spans_path) if spans_path else None,
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    for problem in result.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, "samples": result.samples}))
    _print_record(record)
    final = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": per_layer if args.trace else end_to_end,
    }
    print(json.dumps(final))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process, untraced and then traced."""
    status = 0
    summaries = []
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "1",
        ]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            status = 1
            continue
        record = json.loads((WORK / f"result-{name}-seed{args.seed}-trace1.json").read_text())
        summaries.append(record)
        _print_record(record)
    print(json.dumps({"correct": status == 0 and all(r["failed"] == 0 for r in summaries),
                      "workloads": [r["workload"] for r in summaries]}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
