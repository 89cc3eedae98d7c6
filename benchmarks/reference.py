"""A fixed reference kernel that measures how fast the host runs right now.

The host this benchmark was built on changes speed by 20 % and more over
minutes, with nothing in the container changing (see README.md, *Drift
findings*).  The runner times this kernel between stretches of timed work
and rescales each stretch's wall time to the speed the kernel had when
``NOMINAL_S`` was fixed:

    scaled time = wall time * NOMINAL_S / reference time

The kernel uses nothing from the package, and its inputs are fixed, so no
change to the package can move it.  It mixes the two kinds of work the
workloads do: Python over dicts of tuple keys (fields, the package's
module code run at import) and numpy over arrays of 25 000 floats
(passage values, sampling, sorting).
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# About the median time of one call on the reference host (2-vCPU Intel Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6), so that scaled times read close to
# the wall times of a quiet hour there.
NOMINAL_S = 0.08

# Small pieces, repeated, so that the kernel adds only a few MB to the peak
# RSS of the process that times it.
_REPEATS = 12
_KEYS = 5_000
_ARRAY = 25_000


def kernel() -> float:
    """One fixed unit of mixed Python and numpy work; returns a checksum."""
    total = 0.0
    rng = np.random.default_rng(12345)
    for _ in range(_REPEATS):
        table = {}
        for i in range(_KEYS):
            table[(i % 211, i)] = i * 0.5
        for (row, col), value in table.items():
            total += table.get((row, col - 1), value) - value
        keys = sorted(table, key=lambda key: (key[1] % 97, key[0]))
        total += keys[0][1]
        x = rng.random(_ARRAY)
        y = np.sort(x)
        for _ in range(16):
            x = np.maximum(x, np.roll(x, 1)) + y
        total += float(x.sum())
    return total


def seconds() -> float:
    """Wall time of one call of ``kernel``, after a collection."""
    gc.collect()
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Scale:
    """Scales consecutive stretches of wall time, each by the mean of the
    reference times at its two ends."""

    def __init__(self) -> None:
        self.last = seconds()

    def __call__(self, wall: float) -> float:
        now = seconds()
        scaled = wall * NOMINAL_S * 2 / (self.last + now)
        self.last = now
        return scaled
