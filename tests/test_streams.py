import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brokenlines import streams
from brokenlines.streams import (
    negated_uniform_diagonals,
    negated_uniforms,
    stream_base,
    uniform_grid,
)
from helpers import uniform, uniforms


def minus_uniform_at(seed: int, *keys) -> np.ndarray:
    """``-uniform(seed, *key)`` for every key of the broadcast keys, one scalar
    draw each; at least one dimension, as the array draw has."""
    shape = np.broadcast_shapes(*(np.shape(k) for k in keys))
    grids = [np.broadcast_to(k, shape) if np.ndim(k) else k for k in keys]
    draws = [-uniform(seed, *(g[at] if np.ndim(g) else g for g in grids)) for at in np.ndindex(shape)]
    return np.array(draws, dtype=float).reshape(shape or (1,))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal float64 bits, signs of zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_uniform_is_deterministic():
    assert uniform(7, 1, 2, 3) == uniform(7, 1, 2, 3)
    assert uniform(7, 1, 2, 3) != uniform(8, 1, 2, 3)
    assert uniform(7, 1, 2, 3) != uniform(7, 1, 2, 4)


@given(st.integers(), st.lists(st.integers(), max_size=4))
def test_uniform_in_unit_interval(seed, keys):
    u = uniform(seed, *keys)
    assert 0.0 <= u < 1.0


def test_scalar_and_array_streams_agree():
    vec = negated_uniforms(stream_base(3), 5, np.arange(16))
    assert vec.shape == (16,) and vec.dtype == np.float64
    assert np.all((vec > -1) & (vec <= 0))
    # same key, same counters -> minus the scalar draws
    assert same_bits(vec, np.negative([uniform(3, 5, k) for k in range(16)]))


def test_a_counter_axis_draws_the_stream_of_its_base():
    # the draws reversal_invariance_test makes: a trailing counter axis on a
    # keyed stream equals the counters of the stream id stream_base gives
    for k in range(30):
        seed = (2**70, -3, 0, 2**64 - 1, 17 * k)[k % 5]
        keys = [int(uniform(k, j) * 2**40) - 2**39 for j in range(k % 4)]
        n = 1 + k * 7
        expected = -uniforms(stream_base(seed, *keys), n)
        assert same_bits(negated_uniforms(stream_base(seed, *keys), np.arange(n)), expected)
        assert same_bits(negated_uniforms(stream_base(seed), *keys, np.arange(n)), expected)


def test_uniform_grid_matches_order_independent_addressing():
    grid = uniform_grid(stream_base(9), 4, 6)
    assert grid.shape == (4, 6)
    again = uniform_grid(stream_base(9), 4, 6)
    assert np.array_equal(grid, again)
    # sub-grids are prefixes: addressing is by (row, col), not draw order
    sub = uniform_grid(stream_base(9), 2, 3)
    assert np.array_equal(sub, grid[:2, :3])


def test_uniform_diagonals_draw_each_cell_from_seed_replica_row_col(monkeypatch):
    bases = [stream_base(9, r) for r in range(3)]
    for rows, cols in [(4, 5), (5, 4), (1, 3), (3, 1), (1, 1)]:
        diagonals = [
            [(i, d - i) for i in range(max(0, d - cols + 1), min(rows - 1, d) + 1)]
            for d in range(rows + cols - 1)
        ]
        cells_in_order = [cell for diag in diagonals for cell in diag]
        expected = [[uniform(9, r, i, j) for r in range(3)] for i, j in cells_in_order]
        grid = uniform_grid(bases[2], rows, cols)
        assert [grid[i, j] for i, j in cells_in_order] == [row[2] for row in expected]
        negated = np.negative(expected)
        for cells in (1, 7, streams._RUN_CELLS):
            monkeypatch.setattr(streams, "_RUN_CELLS", cells)
            runs = [run.copy() for run in negated_uniform_diagonals(bases, rows, cols)]
            # each run holds -u bit for bit, signs of zeros included
            assert np.array_equal(np.concatenate(runs).view(np.int64), negated.view(np.int64))
            # a run stacks whole diagonals and holds at most `cells` draws,
            # unless one diagonal alone holds more
            ends = np.cumsum([len(run) for run in runs])
            diagonal_ends = np.cumsum([len(diag) for diag in diagonals])
            assert set(ends.tolist()) <= set(diagonal_ends.tolist())
            per_run = np.diff(np.searchsorted(diagonal_ends, ends, side="right"), prepend=0)
            assert all(run.size <= cells or count == 1 for run, count in zip(runs, per_run))


def test_uniforms_look_uniform():
    vec = -negated_uniforms(stream_base(11), np.arange(200_000))
    assert abs(vec.mean() - 0.5) < 0.005
    assert abs(vec.var() - 1 / 12) < 0.005


def test_stream_advances_and_replays():
    # a stream is its address (seed, key) plus a running position
    first = [uniform(5, 1, 2, k) for k in range(4)]
    assert first == [uniform(5, 1, 2, k) for k in range(4)]
    assert len(set(first)) == 4


def test_substream_is_disjoint():
    # an extra key selects a different stream at the same position
    assert uniform(5, 0) != uniform(5, 9, 0)


def test_keyed_vector_draw_equals_the_scalar_draw_at_every_site_and_role():
    # sites reaching x = -5: negative keys go in as their two's complement
    lower, upper = (-2, -3, -4, -5, -4, -3, -2, -1, 0, 1), (2, 3, 4, 5, 6, 7, 6, 5, 4, 3)
    sites = [(t, x) for t, lo, hi in zip(range(10), lower, upper) for x in range(lo, hi + 1, 2)]
    t, x = np.array(sites).T
    for seed in (0, 7, -3, 2**64 + 5):
        # the sites' ids hashed once, the role folded last, as evolve_chain draws
        ids = stream_base(seed, t, x)
        for role in (1, 2, 3):
            expected = np.negative([uniform(seed, *y, role) for y in sites])
            assert same_bits(negated_uniforms(stream_base(seed), t, x, role), expected)
            assert same_bits(negated_uniforms(ids, role), expected)
            # a leading scalar tag and a trailing counter axis, as the samplers draw
            expected = np.negative([[uniform(seed, 12, *y, role, c) for c in range(5)] for y in sites])
            keyed = negated_uniforms(stream_base(seed, 12, t[:, None], x[:, None]), role, np.arange(5))
            assert same_bits(keyed, expected)
        assert same_bits(negated_uniforms(stream_base(seed, 12, 3), 1), np.array([-uniform(seed, 12, 3, 1)]))


def test_one_hash_and_one_inverse_cdf():
    # SplitMix64 is written in streams only and the inverse CDFs in duality
    # only: a second copy of either would have to stay equal to the first bit
    # for bit, or draws would stop reproducing from their address
    homes = {
        "streams.py": re.compile(r"0x(?:BF58476D1CE4E5B9|94D049BB133111EB)", re.IGNORECASE),
        "duality.py": re.compile(r"\blog1p\b"),
    }
    package = Path(streams.__file__).parent
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for home, pattern in homes.items()
        if path.name != home and pattern.search(line)
    ]
    assert found == []


# (seed, prefix hashed into the ids, keys drawn on them), one per way the
# reports draw, and keys read modulo 2**64: negative ones and one >= 2**63
SITES = np.array([-2, 0, 3, 7]), np.array([1, -1, 4, 0])
DRAWS = {
    "scalar prefix, counter axis last": (5, (12, 2), (np.arange(40),)),
    "(sites, 1) prefix, replica axis last": (3, (11, SITES[0][:, None], SITES[1][:, None]), (2, np.arange(9))),
    "array prefix, scalar key last": (7, SITES, (3,)),
    "negative keys and 2**63 + 5": (-9, (-3, 2**64 - 1), (np.array([-1, -(2**63), 2**63 - 1]), 2**63 + 5)),
    "all keys scalar": (2**64 + 1, (), (-4, 2**63)),
}


@pytest.mark.parametrize("case", DRAWS, ids=str)
def test_negated_uniforms_are_minus_uniform_bit_for_bit(case):
    seed, prefix, keys = DRAWS[case]
    ids = stream_base(seed, *prefix)
    before = np.copy(ids)
    v = negated_uniforms(ids, *keys)
    assert v.dtype == np.float64 and v.flags.writeable
    assert same_bits(v, minus_uniform_at(seed, *prefix, *keys))
    # the prefix may equally be drawn as keys, and the ids are left as they were
    assert same_bits(negated_uniforms(stream_base(seed), *prefix, *keys), v)
    assert np.array_equal(ids, before)


@pytest.mark.parametrize("case", DRAWS, ids=str)
def test_negated_uniforms_draw_into_out_where_it_lies(case):
    seed, prefix, keys = DRAWS[case]
    ids = stream_base(seed, *prefix)
    expected = negated_uniforms(ids, *keys)
    block = np.full((2, *expected.shape), np.nan)
    v = negated_uniforms(ids, *keys, out=block[1])
    assert np.shares_memory(v, block[1]) and v.shape == expected.shape
    assert same_bits(block[1], expected)
    assert np.isnan(block[0]).all()


def test_a_zero_draw_is_minus_zero(monkeypatch):
    # u = 0 is -0.0, which from_negated_uniform reads as -u
    monkeypatch.setattr(streams, "_mix_after_first_step", lambda h, scratch: np.bitwise_and(h, 0, out=h))
    v = negated_uniforms(stream_base(1), np.arange(3))
    assert same_bits(v, np.array([-0.0, -0.0, -0.0]))
