"""Counter-based random streams.

Every draw is a pure function of ``(seed, key...)``: an integer key tuple is
hashed to a uniform in [0, 1) and the target CDF is inverted on top of it.
Lattice sites and Monte Carlo replicas can therefore be sampled in any
order, or in parallel, without sharing generator state.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MULT1 = np.uint64(_MULT1)
_U_MULT2 = np.uint64(_MULT2)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))
_TO_UNIT = 2.0 ** -53

# Draws per run of :func:`uniform_diagonals`, enough that numpy's per-call
# cost stays small on short diagonals.  With runs of 2**12, 2**13, 2**14,
# 2**15 and 2**16 draws the `growth` and `scan` sizes took 904, 790, 699,
# 748 and 713 ms (best of nine, 2-core x86_64 host); above 2**14 only the
# buffers grow: 2**16 raised the `growth` sizes' peak RSS by 3 MB.
_RUN_CELLS = 1 << 14


def _mix(h: int) -> int:
    """SplitMix64 finalizer on a python int, wrapped to 64 bits."""
    h &= _MASK
    h ^= h >> 30
    h = (h * _MULT1) & _MASK
    h ^= h >> 27
    h = (h * _MULT2) & _MASK
    return h ^ (h >> 31)


def stream_base(seed: int, *keys: int) -> int:
    """Fold a seed and an integer key tuple into one 64-bit stream id."""
    h = _mix((seed & _MASK) ^ _GOLDEN)
    for k in keys:
        h = _mix(h ^ ((k + _GOLDEN) & _MASK))
    return h


def uniform(seed: int, *keys: int) -> float:
    """One uniform in [0, 1) addressed purely by ``(seed, keys)``."""
    return (stream_base(seed, *keys) >> 11) * _TO_UNIT


def uniforms_at(seed: int, *keys) -> np.ndarray:
    """``uniform(seed, *key)`` for every key of the broadcast integer arrays ``keys``.

    The hash broadcasts as each key is folded in, so scalar keys before the
    first array cost what :func:`stream_base` costs.  A negative key is read
    modulo 2**64 through its two's-complement bits, as :func:`stream_base`
    reads it.  The result has at least one dimension.
    """
    h = _mix((seed & _MASK) ^ _GOLDEN)
    for k in keys:
        if isinstance(h, int) and np.ndim(k) == 0:
            h = _mix(h ^ ((int(k) + _GOLDEN) & _MASK))
        else:
            bits = np.asarray(k, np.int64).view(np.uint64) + _U_GOLDEN
            h = _mix_array(np.asarray(h, np.uint64) ^ bits)
    return _unit(np.atleast_1d(np.asarray(h, np.uint64)))


def _mix_array(h: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer on an array, in place when it already holds uint64.

    ``scratch``, an array of ``h``'s shape, holds the shifted words, so a
    caller that passes one allocates nothing.
    """
    h = h.astype(np.uint64, copy=False)
    if scratch is None:
        scratch = np.empty_like(h)
    np.right_shift(h, _S30, out=scratch)
    h ^= scratch
    h *= _U_MULT1
    np.right_shift(h, _S27, out=scratch)
    h ^= scratch
    h *= _U_MULT2
    np.right_shift(h, _S31, out=scratch)
    h ^= scratch
    return h


def _counters(count: int) -> np.ndarray:
    """Keys ``0 .. count-1`` as the hash folds them in, wrapped to 64 bits."""
    return np.arange(count, dtype=np.uint64) + _U_GOLDEN


def _unit(h: np.ndarray) -> np.ndarray:
    """The top 53 bits of each hash as a uniform in [0, 1)."""
    return (h >> _S11).astype(np.float64) * _TO_UNIT


def uniform_grid(base: int, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) array of uniforms addressed by (base, row, col)."""
    row_keys = _mix_array(np.uint64(base & _MASK) ^ _counters(rows))
    return _unit(_mix_array(row_keys[:, None] ^ _counters(cols)))


def uniform_diagonals(bases, rows: int, cols: int):
    """Yield the uniform grid of every base anti-diagonal by anti-diagonal, in runs.

    Anti-diagonal ``d`` holds the uniforms addressed by ``(base, i, d - i)``
    for ``i = lo .. hi``, with ``lo = max(0, d - cols + 1)`` and
    ``hi = min(rows - 1, d)``, as ``hi - lo + 1`` rows of ``len(bases)``.  A
    run is the rows of consecutive whole diagonals, ``d = 0, 1, ...`` in
    order, stacked; it holds at most ``_RUN_CELLS`` uniforms unless one
    diagonal alone holds more.  The row keys are mixed once and the column keys held in
    descending order, so each diagonal is one contiguous XOR, and a run is
    one SplitMix64 pass in reused buffers: each yielded run is overwritten by
    the next.
    """
    bases = np.asarray([b & _MASK for b in bases], dtype=np.uint64)
    row_keys = _mix_array(_counters(rows)[:, None] ^ bases)
    # col_keys[p] holds the key of column cols - 1 - p, once per base
    col_keys = np.repeat(_counters(cols)[::-1, None], len(bases), axis=1)
    count, side = rows + cols - 1, min(rows, cols)
    run = max(1, _RUN_CELLS // (side * len(bases)))
    shape = (min(run * side, rows * cols), len(bases))
    h, scratch, u = np.empty(shape, np.uint64), np.empty(shape, np.uint64), np.empty(shape)
    for first in range(0, count, run):
        c = 0
        for d in range(first, min(first + run, count)):
            lo, hi = max(0, d - cols + 1), min(rows - 1, d)
            k, p = hi - lo + 1, cols - 1 - d + lo
            np.bitwise_xor(row_keys[lo : hi + 1], col_keys[p : p + k], out=h[c : c + k])
            c += k
        _mix_array(h[:c], scratch[:c])
        np.right_shift(h[:c], _S11, out=h[:c])
        yield np.multiply(h[:c], _TO_UNIT, out=u[:c])
