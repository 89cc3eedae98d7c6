"""Counter-based random streams.

Every draw is a pure function of ``(seed, key...)``: an integer key tuple is
hashed to a uniform in [0, 1) and the target CDF is inverted on top of it.
Lattice sites and Monte Carlo replicas can therefore be sampled in any
order, or in parallel, without sharing generator state.  That uniform,
``uniform(seed, *keys)``, is the top 53 bits of ``stream_base(seed, *keys)``
scaled by ``2**-53``; its scalar definition, which every array draw here
reproduces bit for bit, is ``tests/helpers.uniform``.

The hash is SplitMix64's finalizer, folded over the keys one at a time;
:func:`stream_base` folds scalar keys into one stream id and broadcast
array keys into an array of them.  Both array draws yield ``-u`` rather
than ``u``, so that the inverse CDF runs in place on them
(:meth:`DistSpec.from_negated_uniform`), and both take the finalizer's first
step once per key on each side of the last XOR instead of once per draw.
The replica sweeps draw a whole grid per replica by
:func:`negated_uniform_diagonals`, row keys against column keys; the Monte
Carlo reports draw by :func:`negated_uniforms`, shared ids (a site's, say,
hashed once) against a last key (a replica axis, say).

The last key is hashed apart from the ids: :func:`hashed_keys` gives its
words, ``k + golden`` after the finalizer's first step, and
:func:`negated_uniforms_hashed` draws on words so given, each draw a fold
of the ids, one XOR and the rest of the finalizer.  A report hashes its
replica keys ``0 .. nsamples-1`` once and makes every draw of the report
on those words; :func:`negated_uniforms` is the same draw with the last key
hashed in the call.  The words live as long as the report that holds them.
"""

from __future__ import annotations

import numpy as np

from .lattice import diagonal_rows

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MULT1 = np.uint64(_MULT1)
_U_MULT2 = np.uint64(_MULT2)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))
_TO_UNIT = 2.0 ** -53
_TO_NEGATED_UNIT = -_TO_UNIT

# Draws per run of :func:`negated_uniform_diagonals`, enough that numpy's
# per-call cost stays small on short diagonals.  With runs of 2**13, 2**14,
# 2**15 and 2**16 draws, each inverted in place, the `growth` sizes took
# 366-400, 316-352, 286-319 and 296-339 ms and the `scan` sizes 166-186,
# 163-186, 167-190 and 175-190 ms (best of nine, 3 or 4 runs, 2-core x86_64
# host).  Above 2**15 only the buffers grow; at 2**15 the `growth` sizes
# peaked at 30.7 MB RSS, against 30.4 MB at 2**14 and 31.5 MB at 2**16.
_RUN_CELLS = 1 << 15


def _mix(h: int) -> int:
    """SplitMix64 finalizer on a python int, wrapped to 64 bits."""
    h &= _MASK
    h ^= h >> 30
    h = (h * _MULT1) & _MASK
    h ^= h >> 27
    h = (h * _MULT2) & _MASK
    return h ^ (h >> 31)


def stream_base(seed: int, *keys):
    """Fold a seed and integer keys into 64-bit stream ids.

    Scalar keys give one id, a python int.  Array keys broadcast: from the
    first array key on, the ids are a uint64 array over the keys' broadcast
    shape, so scalar keys before it cost what they cost alone.  A negative
    key is read modulo 2**64 through its two's-complement bits.
    """
    return _fold(_mix((seed & _MASK) ^ _GOLDEN), keys)


def _fold(h, keys):
    """Fold ``keys`` one at a time onto the stream ids ``h``, a python int
    while every key so far is scalar and a uint64 array from then on."""
    for k in keys:
        w = _key_word(k)
        if isinstance(h, int) and isinstance(w, int):
            h = _mix(h ^ w)
        else:
            h = _mix_array(np.bitwise_xor(h, w, dtype=np.uint64))
    return h


def _key_word(k):
    """Key ``k`` as the hash folds it in, ``k + golden`` modulo 2**64: a python
    int for a scalar key, a uint64 array for an array of them."""
    if isinstance(k, int) or np.ndim(k) == 0:
        return (int(k) + _GOLDEN) & _MASK
    return np.asarray(k, np.int64).view(np.uint64) + _U_GOLDEN


def negated_uniforms(base, *keys, out: np.ndarray | None = None) -> np.ndarray:
    """Minus the uniform at every key of the broadcast integer arrays ``keys``
    on the stream ids ``base``, in a fresh float64 array or in ``out``, a
    float64 array of the keys' broadcast shape.

    ``negated_uniforms(stream_base(seed, *prefix), *keys)`` holds
    ``-uniform(seed, *prefix, *key)`` bit for bit (the scalar draw,
    ``tests/helpers.uniform``), ``-0.0`` for ``u = 0``,
    for every key of the broadcast ``keys``, and has at least one
    dimension.  The keys before the last fold onto ``base`` as
    :func:`stream_base` folds them.  SplitMix64's first step is then taken
    once on those ids and once on the last key, ahead of their XOR
    (:func:`_first_step`), so each draw pays only the rest of the
    finalizer.  The array is the caller's, for
    :meth:`DistSpec.from_negated_uniform` to invert in place.
    """
    *prefix, last = keys
    return negated_uniforms_hashed(base, *prefix, hashed_keys(last), out=out)


def hashed_keys(keys):
    """Integer keys hashed as the last key of a draw: ``k + golden`` modulo
    2**64 after SplitMix64's first step, a python int for a scalar key and a
    uint64 array for an array of them.

    ``negated_uniforms_hashed(base, *prefix, hashed_keys(k))`` is
    ``negated_uniforms(base, *prefix, k)`` bit for bit, so keys hashed once
    serve every draw on them.
    """
    return _first_step(_key_word(keys))


def negated_uniforms_hashed(base, *keys, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`negated_uniforms` with its last key given as :func:`hashed_keys` of it.

    The keys before the last fold onto ``base``, whose ids then take
    SplitMix64's first step and are XORed with the words; each draw pays
    only the rest of the finalizer.  ``base`` and the words are left as
    they were.
    """
    *prefix, words = keys
    h = np.atleast_1d(np.bitwise_xor(_first_step(_fold(base, prefix)), words, dtype=np.uint64))
    scratch = np.empty_like(h) if out is None else out.view(np.uint64)
    np.right_shift(_mix_after_first_step(h, scratch), _S11, out=h)
    # the scratch words are free again and take the result
    return np.multiply(h, _TO_NEGATED_UNIT, out=scratch.view(np.float64))


def _mix_array(h: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on an array, in place when it already holds uint64."""
    h = h.astype(np.uint64, copy=False)
    scratch = np.empty_like(h)  # the shifted words
    np.right_shift(h, _S30, out=scratch)
    h ^= scratch
    return _mix_after_first_step(h, scratch)


def _first_step(h):
    """SplitMix64's opening ``h ^= h >> 30`` on a python int or a uint64 array,
    into new words.

    A logical shift distributes over XOR, so the step of ``a ^ b`` is the
    step of ``a`` XOR the step of ``b``: keys that are XORed together later
    can each take it once, ahead of the XOR.
    """
    return h ^ (h >> 30)


def _mix_after_first_step(h: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The rest of :func:`_mix_array` on words that have taken :func:`_first_step`."""
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


def negated_uniform_diagonals(bases, rows: int, cols: int):
    """Yield minus the uniform grid of every base, anti-diagonal by anti-diagonal, in runs.

    Anti-diagonal ``d`` holds ``-uniform`` at ``(base, i, d - i)`` for its
    rows ``i = lo .. hi`` (:func:`lattice.diagonal_rows`), as ``hi - lo + 1``
    rows of ``len(bases)``.  A run is the rows of consecutive whole
    diagonals, ``d = 0, 1, ...`` in order, stacked; it holds at most
    ``_RUN_CELLS`` draws unless one diagonal alone holds more.

    The row keys are mixed once and the column keys held in descending
    order, so each diagonal is one contiguous XOR.  Both keys take
    SplitMix64's first step once, ahead of that XOR (:func:`_first_step`),
    so a cell pays only the rest of the finalizer.  The top 53 bits are
    scaled by ``-2**-53``, which is exact: each value is ``-u`` bit for bit,
    ``-0.0`` for ``u = 0``, ready for :meth:`DistSpec.from_negated_uniform`
    to invert in place.  A run is one pass in reused buffers, so each yielded
    run is overwritten by the next and may be overwritten by its reader.
    """
    bases = np.asarray([b & _MASK for b in bases], dtype=np.uint64)
    row_keys = _first_step(_mix_array(_counters(rows)[:, None] ^ bases))
    # col_keys[p] holds the key of column cols - 1 - p, once per base
    col_keys = np.repeat(_first_step(_counters(cols))[::-1, None], len(bases), axis=1)
    lo, hi = (bound.tolist() for bound in diagonal_rows(rows, cols))
    side = min(rows, cols)
    run = max(1, _RUN_CELLS // (side * len(bases)))
    shape = (min(run * side, rows * cols), len(bases))
    h, scratch, v = np.empty(shape, np.uint64), np.empty(shape, np.uint64), np.empty(shape)
    for first in range(0, len(lo), run):
        c = 0
        for d in range(first, min(first + run, len(lo))):
            k, p = hi[d] - lo[d] + 1, cols - 1 - d + lo[d]
            np.bitwise_xor(row_keys[lo[d] : hi[d] + 1], col_keys[p : p + k], out=h[c : c + k])
            c += k
        _mix_after_first_step(h[:c], scratch[:c])
        np.right_shift(h[:c], _S11, out=h[:c])
        yield np.multiply(h[:c], _TO_NEGATED_UNIT, out=v[:c])
