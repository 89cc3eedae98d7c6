"""Reference computations written apart from the package.

The benchmark checks the package's outputs against these, never against a
stored copy of an earlier output.  They re-derive the inputs the package
draws (SplitMix64 on ``(seed, replica, row, col)``) and solve last passage
percolation by anti-diagonals, which shares no code and no recurrence
order with ``brokenlines.lpp``.  Memory stays O(replicas * n) so that a
check never sets the process's peak RSS.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


def _mix_int(h: int) -> int:
    h &= _MASK
    h ^= h >> 30
    h = (h * _MULT1) & _MASK
    h ^= h >> 27
    h = (h * _MULT2) & _MASK
    return h ^ (h >> 31)


def stream_key(seed: int, *keys: int) -> int:
    """64-bit stream id of ``(seed, keys...)``, as the package addresses draws."""
    h = _mix_int((seed & _MASK) ^ _GOLDEN)
    for k in keys:
        h = _mix_int(h ^ ((k + _GOLDEN) & _MASK))
    return h


def _mix(h: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = h ^ (h >> np.uint64(30))
        h = h * np.uint64(_MULT1)
        h = h ^ (h >> np.uint64(27))
        h = h * np.uint64(_MULT2)
        return h ^ (h >> np.uint64(31))


def _counter(values: np.ndarray) -> np.ndarray:
    return values.astype(np.uint64) + np.uint64(_GOLDEN)


def exp_births(u: np.ndarray, rate: float) -> np.ndarray:
    return -np.log1p(-u) / rate


def geom_births(u: np.ndarray, lam: float) -> np.ndarray:
    """Geometric law P(k) = (1 - lam) lam^k, by inversion, as float."""
    return np.floor(np.log1p(-u) / math.log(lam))


def _antidiagonal_lpp(n: int, m: int, batch: int, cells) -> np.ndarray:
    """``G[i, j] = x[i, j] + max(G[i-1, j], G[i, j-1])``, one anti-diagonal at a time.

    ``cells(d, lo, hi)`` gives the births of cells ``(i, d - i)`` for
    ``i = lo..hi``, shaped ``(batch, hi - lo + 1)``.
    """
    # prev[:, k] holds G on the previous anti-diagonal at row k - 1; column 0
    # is the -inf border above row 0.
    prev = np.full((batch, n + 1), -np.inf)
    for d in range(n + m - 1):
        lo, hi = max(0, d - m + 1), min(n - 1, d)
        best = 0.0 if d == 0 else np.maximum(prev[:, lo : hi + 1], prev[:, lo + 1 : hi + 2])
        cur = np.full_like(prev, -np.inf)
        cur[:, lo + 1 : hi + 2] = cells(d, lo, hi) + best
        prev = cur
    return prev[:, n]


def passage_values(bases: list[int], n: int, m: int, births) -> np.ndarray:
    """Last passage values of i.i.d. ``n x m`` birth matrices, one per base.

    Cell ``(i, j)`` of the matrix for ``base`` holds ``births(u)`` with
    ``u`` the uniform addressed by ``(base, i, j)``.
    """
    base = np.array([b & _MASK for b in bases], dtype=np.uint64)
    row_keys = _mix(base[:, None] ^ _counter(np.arange(n)))

    def cells(d, lo, hi):
        h = _mix(row_keys[:, lo : hi + 1] ^ _counter(d - np.arange(lo, hi + 1))[None, :])
        return births((h >> np.uint64(11)).astype(np.float64) * 2.0**-53)

    return _antidiagonal_lpp(n, m, len(bases), cells)


def matrix_passage_value(matrix: np.ndarray) -> float:
    """Last passage value of an explicit matrix."""
    n, m = matrix.shape
    flipped = np.fliplr(matrix)

    def cells(d, lo, hi):
        # cells (i, d - i) for i = lo..hi, in order, on a diagonal of the flip
        return np.diagonal(flipped, offset=m - 1 - d)[None, : hi - lo + 1]

    return float(_antidiagonal_lpp(n, m, 1, cells)[0])


def growth_constant(kind: str, param: float, beta: float) -> float:
    """The paper's explicit limits of (passage value) / n."""
    if kind == "exp":
        return (1.0 + math.sqrt(beta)) ** 2 / param
    return (1.0 + math.sqrt(beta * param)) ** 2 / (1.0 - param) - 1.0


def conservation_gap(mass: dict, n: int, m: int) -> float:
    """Largest violation of the site law over an ``n x m`` rectangle.

    At every site the ascending minus the descending mass is the same going
    out as coming in.  Edges are read by their lattice coordinates
    ``(t, x, up)`` without the package's geometry: the site of cell
    ``(i, j)`` is ``(i + j, j - i)`` (0-based), entered from ``(t-1, x-1)``
    ascending and from ``(t-1, x+1)`` descending.
    """
    worst = 0
    for i in range(n):
        for j in range(m):
            t, x = i + j, j - i
            inflow = mass[(t - 1, x - 1, True)] - mass[(t - 1, x + 1, False)]
            outflow = mass[(t, x, True)] - mass[(t, x, False)]
            worst = max(worst, abs(inflow - outflow))
    return worst
