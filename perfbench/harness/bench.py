"""Set-up, the timed loop, and the metrics one run of a workload reports.

One run sets the workload up several times (set-up time is their median),
then repeats the workload's operation untraced until ``seconds`` have
passed and the workload's ``min_operations`` are done; wall and prepare
times are medians over those operations.

Routing latency and throughput come from routing windows. The last
retrieval pass of each operation, followed by passes of the last
operation's router over the test corpus again, are cut into windows of at
least ``WINDOW_SECONDS`` and ``LATENCY_TURNS`` turns, until the windows hold
``ROUTING_SECONDS`` of routing. Each routing metric is the median over the
windows of that window's figure, as wall time is the median over the
operations. On a shared host a turn runs at one of two speeds ~1.5x apart,
in a mix that drifts over tens of seconds to minutes; a median over windows
spread across the run follows the mix that held for most of the run, and
one slow spell moves it little. ``route-large-pool`` routes ~10 s in each
of its three operations, so its windows span the whole run.

Peak memory is read twice: after the set-ups, and after the timed loop and
its routing. The set-ups drop the previous inputs before making the next,
so the reported peak is the operations' own whenever it exceeds the
set-up's; both figures are recorded.

A traced run then repeats the operation with spans on, for the per-layer
metrics; the ratio of the two loops' median wall times is the tracing
overhead. Everything runs in this one process, with one caller,
closed-loop.
"""

from __future__ import annotations

import gc
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from dialroute import cli, routing, simulate

from . import workloads
from .layers import PER_LAYER, by_operation, operation_metrics
from .probes import RoutedPass, RouteProbe, instrument
from .spans import ROOT, Tracer
from .stats import tail

SETUP_REPEATS = 5
WINDOW_SECONDS = 2.0
ROUTING_SECONDS = 8.0
LATENCY_TURNS = 1000

# name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "prepare_s": ("s", "lower"),
    "route_turns_per_s": ("1/s", "higher"),
    "route_p99_ms": ("ms", "lower"),
    "tlb_jga": ("share", "higher"),
    "dst_jga": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed and recorded with the end-to-end metrics, but not bounded. The host
# runs a turn at one of two speeds, ~1.5x apart, in a mix that drifts over
# minutes; the median turn falls in whichever speed held for more than half
# of the run, so it flips between runs, while p99 stays in the slow speed.
UNBOUNDED: dict[str, tuple[str, str]] = {
    "route_p50_ms": ("ms", "lower"),
}

# Quality figures of the retrieval run, fixed by the seed. The cost figure
# swings by a fifth between seeds with the share of restaurant dialogues, so
# it is printed and recorded but not bounded.
QUALITY = ("tlb_jga", "dst_jga", "tflops_per_turn")

# Modules whose names are replaced around each operation.
MODULES = (simulate, cli, routing, workloads)


@dataclass
class Operation:
    wall_s: float
    outcome: workloads.Outcome
    probe: RouteProbe
    prepare_s: float = 0.0


def _operate(workload, inputs, out_dir: Path, tracer: Tracer | None) -> Operation:
    """One operation, timed, then checked and cleaned up untimed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = RouteProbe()
    output = None
    with ExitStack() as stack:
        if tracer is None:
            probe.install(stack, MODULES)
            operate = workload.operate
        else:
            instrument(tracer, stack, MODULES)
            operate = tracer.wrap(ROOT, workload.operate)
        start = perf_counter()
        try:
            output = operate(inputs, out_dir, tracer)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            error = traceback.format_exc()
        wall = perf_counter() - start
    if output is None:
        outcome = workloads.Outcome(attempted=1, failed=1, problems=[error])
    else:
        outcome = workload.check(inputs, output, out_dir)
        if tracer is not None:
            tracer.set("dialogue.turns", workload.turns(inputs, output))
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    op = Operation(wall, outcome, probe)
    if probe.first_pipeline is not None:
        op.prepare_s = probe.first_pipeline - start
    return op


def _loop(
    workload, inputs, work: Path, seconds: float, minimum: int, tracer: Tracer | None
) -> list[Operation]:
    ops: list[Operation] = []
    start = perf_counter()
    while len(ops) < minimum or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.run_id = len(ops)
        if ops:  # only the last operation's pipeline is run again; free the others
            ops[-1].probe.last_retrieval = None
        ops.append(_operate(workload, inputs, work / "out", tracer))
    return ops


def _windows(passes: list[RoutedPass]) -> list[RoutedPass]:
    """Consecutive passes merged into windows of at least ``WINDOW_SECONDS``
    and ``LATENCY_TURNS`` turns; an unfinished tail is left out."""
    windows = []
    current = RoutedPass()
    for routed in passes:
        current.latencies.extend(routed.latencies)
        current.seconds += routed.seconds
        if current.seconds >= WINDOW_SECONDS and len(current.latencies) >= LATENCY_TURNS:
            windows.append(current)
            current = RoutedPass()
    return windows


def _routing(ops: list[Operation]) -> list[RoutedPass]:
    """Routing windows over the operations' last retrieval passes, topped up
    with passes of the last operation's router."""
    passes = [op.probe.passes[-1] for op in ops if op.probe.passes]
    real, corpus, experts, router, embedder, kwargs = ops[-1].probe.last_retrieval
    again = RouteProbe()
    timed = again.pipeline(real)
    while sum(w.seconds for w in _windows(passes + again.passes)) < ROUTING_SECONDS:
        timed(corpus, experts, router, embedder=embedder, **kwargs)
    return _windows(passes + again.passes)


def _routing_metrics(windows: list[RoutedPass]) -> dict[str, float]:
    """Throughput and latency percentiles, each the median over the windows."""
    return {
        "route_turns_per_s": statistics.median(w.turns_per_s for w in windows),
        "route_p50_ms": statistics.median(1e3 * np.percentile(w.latencies, 50) for w in windows),
        "route_p99_ms": statistics.median(1e3 * tail(w.latencies, 99.0) for w in windows),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    problems: list[str]
    end_to_end: dict[str, float]
    quality: dict[str, float]
    per_layer: dict[str, float] | None
    samples: dict[str, float]
    tracer: Tracer | None = None


def _end_to_end(
    setup_times: list[float], ops: list[Operation]
) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    good = [op for op in ops if op.outcome.quality]
    if not good or good[-1].probe.last_retrieval is None:
        raise RuntimeError("the last operation did not complete a retrieval run")
    windows = _routing(good)
    quality = {name: statistics.median(op.outcome.quality[name] for op in good) for name in QUALITY}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(op.wall_s for op in good),
        "prepare_s": statistics.median(op.prepare_s for op in good),
        **_routing_metrics(windows),
        "tlb_jga": quality["tlb_jga"],
        "dst_jga": quality["dst_jga"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    samples = {
        "operations": len(good),
        "setups": len(setup_times),
        "route_windows": len(windows),
        "route_latencies": sum(len(w.latencies) for w in windows),
    }
    return metrics, quality, samples


def _per_layer(tracer: Tracer, traced: list[Operation], untraced_wall: float) -> dict[str, float]:
    grouped = by_operation(tracer.closed())
    per_op = [operation_metrics(spans, tracer.counters[run]) for run, spans in grouped.items()]
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    metrics["trace.overhead_ratio"] = statistics.median(op.wall_s for op in traced) / untraced_wall
    return {name: metrics[name] for name in PER_LAYER}


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    workload = workloads.WORKLOADS[workload_name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # hold one input set at a time
        gc.collect()
        start = perf_counter()
        inputs = workload.setup(seed, work / "inputs", work / "out")
        setup_times.append(perf_counter() - start)
    gc.collect()
    setup_rss_mb = _peak_rss_mb()
    ops = _loop(workload, inputs, work, seconds, workload.min_operations, None)
    end_to_end, quality, samples = _end_to_end(setup_times, ops)
    samples["setup_peak_rss_mb"] = setup_rss_mb
    per_layer = None
    tracer = None
    if trace:
        tracer = Tracer()
        traced = _loop(workload, inputs, work, seconds, 1, tracer)
        ops += traced
        per_layer = _per_layer(tracer, traced, end_to_end["wall_s"])
        samples["traced_operations"] = len(traced)
    return Result(
        workload_name,
        attempted=sum(op.outcome.attempted for op in ops),
        failed=sum(op.outcome.failed for op in ops),
        problems=[p for op in ops for p in op.outcome.problems],
        end_to_end=end_to_end,
        quality=quality,
        per_layer=per_layer,
        samples=samples,
        tracer=tracer,
    )


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int, nproc: int, blas_threads: int) -> dict:
    return {
        "commit": _git_commit(root),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas_threads": blas_threads,
        "platform": platform.platform(),
        "executable": sys.executable,
    }
