"""The percentile and sample-count rule, and the routing windows it is
applied to."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest

from harness.bench import _routing_metrics, _windows
from harness.probes import RoutedPass
from harness.stats import samples_beyond, tail


def test_samples_beyond_a_percentile():
    assert samples_beyond(1_000, 99.0) == 10
    assert samples_beyond(10_000, 99.9) == 10
    assert samples_beyond(999, 99.0) < 10


@pytest.mark.parametrize("n, q", [(1_000, 99.0), (10_000, 99.9), (200, 95.0), (20, 50.0)])
def test_tail_needs_ten_samples_beyond_the_percentile(n, q):
    samples = [float(i) for i in range(n)]
    assert tail(samples, q) == pytest.approx((n - 1) * q / 100.0)
    with pytest.raises(ValueError):
        tail(samples[:-1], q)


def test_windows_need_two_seconds_and_a_thousand_turns():
    slow = RoutedPass([0.002] * 600, 1.5)
    windows = _windows([slow, slow, slow])
    # Two passes make 3 s and 1,200 turns; the third is an unfinished tail.
    assert [(len(w.latencies), w.seconds) for w in windows] == [(1200, 3.0)]
    fast = RoutedPass([0.0001] * 5000, 0.5)
    assert [len(w.latencies) for w in _windows([fast] * 5)] == [20000]
    assert len(slow.latencies) == 600 and len(fast.latencies) == 5000


def test_routing_metrics_are_medians_over_windows():
    windows = [RoutedPass([latency] * 1000, 1000 * latency) for latency in (0.001, 0.002, 0.010)]
    metrics = _routing_metrics(windows)
    # The slow window moves none of the three medians.
    assert metrics["route_p50_ms"] == pytest.approx(2.0)
    assert metrics["route_p99_ms"] == pytest.approx(2.0)
    assert metrics["route_turns_per_s"] == pytest.approx(500.0)
