"""Summary statistics for timings.

A timing is reported as its median and as the highest percentile that has at
least ten samples beyond it, so a tail figure never rests on a handful of
samples.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

TAIL_SAMPLES = 10


def samples_beyond(n: int, q: float) -> float:
    # Rounded so that, say, 10,000 samples leave exactly ten beyond p99.9.
    return round(n * (100.0 - q) / 100.0, 9)


def tail(samples: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0-100, linear interpolation), refused when fewer
    than ``TAIL_SAMPLES`` samples lie beyond it."""
    if samples_beyond(len(samples), q) < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} needs {TAIL_SAMPLES} samples beyond it; {len(samples)} samples give "
            f"{samples_beyond(len(samples), q):g}"
        )
    return float(np.percentile(samples, q))
