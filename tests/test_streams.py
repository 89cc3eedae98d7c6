import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from brokenlines.lattice import HexDomain
from brokenlines.streams import (
    stream_base,
    uniform,
    uniform_columns,
    uniform_grid,
    uniforms,
    uniforms_at,
)


def test_uniform_is_deterministic():
    assert uniform(7, 1, 2, 3) == uniform(7, 1, 2, 3)
    assert uniform(7, 1, 2, 3) != uniform(8, 1, 2, 3)
    assert uniform(7, 1, 2, 3) != uniform(7, 1, 2, 4)


@given(st.integers(), st.lists(st.integers(), max_size=4))
def test_uniform_in_unit_interval(seed, keys):
    u = uniform(seed, *keys)
    assert 0.0 <= u < 1.0


def test_scalar_and_array_streams_agree():
    base = stream_base(3, 5)
    vec = uniforms(base, 16)
    assert vec.shape == (16,)
    assert np.all((vec >= 0) & (vec < 1))
    # same base, same counters -> same values on repeat calls
    assert np.array_equal(vec, uniforms(base, 16))


def test_uniform_grid_matches_order_independent_addressing():
    grid = uniform_grid(stream_base(9), 4, 6)
    assert grid.shape == (4, 6)
    again = uniform_grid(stream_base(9), 4, 6)
    assert np.array_equal(grid, again)
    # sub-grids are prefixes: addressing is by (row, col), not draw order
    sub = uniform_grid(stream_base(9), 2, 3)
    assert np.array_equal(sub, grid[:2, :3])


def test_uniform_columns_draw_each_cell_from_seed_replica_row_col():
    bases = [stream_base(9, r) for r in range(3)]
    columns = list(uniform_columns(bases, 4, 5))
    assert len(columns) == 5
    for j, col in enumerate(columns):
        assert col.shape == (3, 4)
        assert col.tolist() == [[uniform(9, r, i, j) for i in range(4)] for r in range(3)]
    assert np.array_equal(uniform_grid(bases[2], 4, 5), np.stack(columns, axis=-1)[2])


def test_uniforms_look_uniform():
    vec = uniforms(stream_base(11), 200_000)
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
    # a hexagon reaching x = -5: negative keys go in as their two's complement
    hexa = HexDomain(0, 9, 3, 5, (-2, -3, -4, -5, -4, -3, -2, -1, 0, 1), (2, 3, 4, 5, 6, 7, 6, 5, 4, 3))
    t, x = np.array(hexa.sites).T
    for seed in (0, 7, -3, 2**64 + 5):
        for role in (1, 2, 3):
            expected = [uniform(seed, *y, role) for y in hexa.sites]
            assert uniforms_at(seed, t, x, role).tolist() == expected
            # a leading scalar tag and a trailing counter axis, as the samplers draw
            expected = [[uniform(seed, 12, *y, role, c) for c in range(5)] for y in hexa.sites]
            keyed = uniforms_at(seed, 12, t[:, None], x[:, None], role, np.arange(5))
            assert keyed.tolist() == expected
        assert uniforms_at(seed, 12, 3, 1).tolist() == [uniform(seed, 12, 3, 1)]
