"""A fixed-work speed probe, to take the host's speed swings out of timings.

On a shared host the speed of a core can swing by a factor of two over
minutes, as neighbours come and go; whole runs then read fast or slow.
Every timed operation of a round is bracketed by this probe, which does
the same interpreted-integer and numpy work every time and never calls
ternrep, and its time is rescaled to the probe's reference time:

    normalized = measured * PROBE_REF_S / (mean of the two probes around it)

so a normalized time reads as seconds on a host where the probe takes
PROBE_REF_S.  The raw times are reported next to the normalized ones.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_REF_S = 0.04


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreted and numpy integer work."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(120_000):
        acc += i * i % 7
        table[i & 1023] = (i, acc)
    arr = np.arange(200_000, dtype=np.int64)
    for _ in range(10):
        arr = (arr * 3 + 1) % 1_000_003
    return time.perf_counter() - t0


class Timer:
    """Raw and normalized time of operations run between probes."""

    def __init__(self):
        self.raw = 0.0
        self.normalized = 0.0
        self.probes = [speed_probe()]

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        took = time.perf_counter() - t0
        self.probes.append(speed_probe())
        self.raw += took
        self.normalized += took * PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)
        return result


def rescaled(values: dict, scale: float) -> dict:
    """Per-layer values with the round's speed rescaling: times (*_s) times
    scale, rates (*_per_s) divided by it, counts unchanged."""
    out = {}
    for key, value in values.items():
        if key.endswith("_per_s"):
            out[key] = value / scale
        elif key.endswith("_s"):
            out[key] = value * scale
        else:
            out[key] = value
    return out
