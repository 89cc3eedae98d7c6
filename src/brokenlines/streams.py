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
_TO_UNIT = 2.0 ** -53


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
    return (np.atleast_1d(np.asarray(h, np.uint64)) >> np.uint64(11)).astype(np.float64) * _TO_UNIT


def _mix_array(h: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on an array, in place when it already holds uint64."""
    h = h.astype(np.uint64, copy=False)
    h ^= h >> np.uint64(30)
    h *= _U_MULT1
    h ^= h >> np.uint64(27)
    h *= _U_MULT2
    h ^= h >> np.uint64(31)
    return h


def uniforms(base: int, count: int) -> np.ndarray:
    """Vector of uniforms in [0, 1) for counters ``0 .. count-1``."""
    idx = np.arange(count, dtype=np.uint64) + _U_GOLDEN
    h = _mix_array(np.uint64(base & _MASK) ^ idx)
    return (h >> np.uint64(11)).astype(np.float64) * _TO_UNIT


def uniform_columns(bases, rows: int, cols: int):
    """Yield column ``j`` of the uniform grid of every base, for ``j = 0 .. cols-1``.

    Column ``j`` is the ``(len(bases), rows)`` array addressed by
    ``(base, row, j)``; the row keys are mixed once, so a block of replicas
    is drawn one column at a time without holding any grid.
    """
    bases = np.asarray([b & _MASK for b in bases], dtype=np.uint64)
    row_keys = _mix_array(bases[:, None] ^ (np.arange(rows, dtype=np.uint64) + _U_GOLDEN))
    for j in range(cols):
        h = _mix_array(row_keys ^ np.uint64((j + _GOLDEN) & _MASK))
        yield (h >> np.uint64(11)).astype(np.float64) * _TO_UNIT


def uniform_grid(base: int, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) array of uniforms addressed by (base, row, col)."""
    grid = np.empty((rows, cols))
    for j, col in enumerate(uniform_columns([base], rows, cols)):
        grid[:, j] = col[0]
    return grid
