import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenlines import lattice
from brokenlines.lattice import Edge, RectDomain, domain_from_dict, midpoints
from helpers import (
    DIAGONALS,
    cell_to_site,
    edge_between,
    edge_head,
    incident_edges,
    outer_northeast,
    outer_northwest,
    outer_sites,
    outer_southeast,
    outer_southwest,
    rect_contains,
    rect_sides,
    sorted_plan,
)


def scan_sites(n, m, span=40):
    """Brute-force oracle: enumerate the defining inequalities."""
    return sorted(
        (t, x)
        for t in range(-span, span)
        for x in range(-span, span)
        if (t + x) % 2 == 0 and 0 <= t + x <= 2 * (m - 1) and 0 <= t - x <= 2 * (n - 1)
    )


def scan_edges(domain):
    """Brute-force oracle: all edges with at least one endpoint inside."""
    seen = set()
    for y in domain.sites:
        seen.update(incident_edges(y))
    return seen


def test_smallest_domain():
    d = RectDomain(1, 1)
    assert d.sites == ((0, 0),)
    assert d.closure == ((-1, -1), (-1, 1), (0, 0), (1, -1), (1, 1))


def test_two_by_two_sites():
    d = RectDomain(2, 2)
    assert set(d.sites) == {(0, 0), (1, 1), (1, -1), (2, 0)}
    assert list(d.sites) == scan_sites(2, 2)


def test_three_by_two_sites():
    d = RectDomain(3, 2)
    assert len(d.sites) == 6
    assert list(d.sites) == scan_sites(3, 2)


def test_rejects_empty_domain():
    with pytest.raises(ValueError):
        RectDomain(0, 1)
    with pytest.raises(ValueError):
        RectDomain(1, 0)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_sites_match_scan_oracle(n, m):
    assert list(RectDomain(n, m).sites) == scan_sites(n, m)


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_edge_canonicalization_roundtrip(t, k):
    y = (t, t % 2 + 2 * k)  # force even parity
    for e in incident_edges(y):
        assert edge_between(e.base, edge_head(e)) == e
        assert edge_between(edge_head(e), e.base) == e


def test_edge_counts():
    assert len(RectDomain(1, 1).edges) == 4
    assert len(RectDomain(2, 2).edges) == 12


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_edge_count_formula(n, m):
    d = RectDomain(n, m)
    assert len(d.edges) == 2 * n * m + n + m
    assert set(d.edges) == scan_edges(d)


def test_edges_sorted_up_before_down():
    d = RectDomain(2, 2)
    keys = [(e.t, e.x, not e.up) for e in d.edges]
    assert keys == sorted(keys)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_boundary_partition(n, m):
    d = RectDomain(n, m)
    classes = [outer_southwest(d), outer_northwest(d), outer_northeast(d), outer_southeast(d)]
    union = set().union(*map(set, classes))
    assert union == set(outer_sites(d))
    assert sum(map(len, classes)) == len(outer_sites(d))  # no overlaps
    assert len(outer_southwest(d)) == n
    assert len(outer_northwest(d)) == m
    assert len(outer_northeast(d)) == n
    assert len(outer_southeast(d)) == m


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=5))
def test_interior_incident_edges_inside(n, m):
    d = RectDomain(n, m)
    boundary = set(d.southwest_side + d.northwest_side + d.northeast_side + d.southeast_side)
    for y in d.sites:
        if y in boundary:
            continue
        for e in incident_edges(y):
            assert e in d.edge_set


def test_entry_and_exit_sides():
    d = RectDomain(3, 2)
    assert d.southwest_side == ((0, 0), (1, -1), (2, -2))
    assert d.northwest_side == ((0, 0), (1, 1))
    assert d.northeast_side == ((1, 1), (2, 0), (3, -1))
    assert d.southeast_side == ((2, -2), (3, -1))


def test_cell_bijection():
    d = RectDomain(3, 4)
    seen = set()
    for i in range(1, 4):
        for j in range(1, 5):
            y = cell_to_site(i, j)
            assert d.contains(y)
            seen.add(y)
    assert seen == set(d.sites)
    # cells is the inverse: the 0-based cell of each site, in the order of sites
    rows, cols = d.cells
    assert [cell_to_site(i + 1, j + 1) for i, j in zip(rows.tolist(), cols.tolist())] == list(d.sites)


def check_sides_and_membership(domain, sides, contains, span=24):
    """The four sides, the closure, ``side_edges`` and ``contains`` against
    explicit ``sides`` and a membership rule ``contains``, on a box around the domain."""
    box = [(t, x) for t in range(-span, span + 1) for x in range(-span, span + 1)]
    inside = {y for y in box if contains(y)}
    assert domain.sites == tuple(sorted(inside))
    got = (domain.southwest_side, domain.northwest_side, domain.northeast_side, domain.southeast_side)
    assert got == sides
    closure = {(t + dt, x + dx) for t, x in inside for dt, dx in ((0, 0), *DIAGONALS)}
    assert domain.closure == tuple(sorted(closure))
    index = {e: i for i, e in enumerate(domain.edges)}
    for k, (side, indices) in enumerate(zip(sides, domain.side_edges)):
        assert indices.tolist() == [index[incident_edges(y)[k]] for y in side]
    # the closure and every point one step off it lie in the box
    assert all(domain.contains(y) is contains(y) for y in box)


def test_rectangle_sides_and_membership_follow_the_paths():
    for n in range(1, 7):
        for m in range(1, 7):
            rect = RectDomain(n, m)
            check_sides_and_membership(rect, rect_sides(rect), lambda y: rect_contains(rect, y))


def test_domain_json_roundtrip():
    rect = RectDomain(3, 2)
    assert domain_from_dict(rect.to_dict()) == rect
    # the hexagon domains of earlier versions are an unknown type now
    hexa = {"type": "hex", "t0": 0, "t1": 4, "t01": [2, 2], "xminus": [0, -1, -2, -1, 0],
            "xplus": [0, 1, 2, 1, 0]}
    with pytest.raises(ValueError, match="unknown domain type 'hex'"):
        domain_from_dict(hexa)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 2), (3, 6)],
                         ids=["1x1", "1x5", "5x1", "2x2", "3x6"])
def test_midpoints_are_odd_neighbours(shape):
    d = RectDomain(*shape)
    odd = {(t + dt, x + dx) for t, x in d.sites for dt, dx in ((-1, 0), (1, 0), (0, -1), (0, 1))}
    assert midpoints(d) == tuple(sorted(odd))
    # the (n+1)(m+1) face corners of the site grid, the sites of the corner
    # rectangle one step earlier in t
    corners = RectDomain(d.n + 1, d.m + 1)
    assert midpoints(d) == tuple((t - 1, x) for t, x in corners.sites)


@pytest.mark.parametrize("domain", [RectDomain(1, 1), RectDomain(2, 3)], ids=["1x1", "2x3"])
def test_edge_points_and_find_edges_invert_each_other(domain):
    plan = domain
    t, x, down = plan.edge_points()
    assert list(zip(t.tolist(), x.tolist(), (down == 0).tolist())) == list(domain.edges)
    assert plan.find_edges(t, x, down).tolist() == list(range(len(domain.edges)))
    assert plan.find_edges(t.tolist(), x.tolist(), down).tolist() == list(range(len(domain.edges)))


FAR = st.one_of(st.integers(-12, 12), st.integers(-(2**70), 2**70),
                st.sampled_from([2**61, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1]))


@given(st.sampled_from([RectDomain(2, 3), RectDomain(3, 1), RectDomain(3, 3)]), FAR, FAR, st.booleans())
@settings(max_examples=300, deadline=None)
def test_lookups_are_exact_for_integers_of_any_size(domain, t, x, down):
    # a point or edge is found exactly when it is one of the domain's, as
    # Python ints of any size and, where they fit, as int64 arrays
    plan = domain
    forms = [([t], [x])]
    if max(abs(t), abs(x)) < 2**63 - 1:
        forms.append((np.array([t]), np.array([x])))
    for ts, xs in forms:
        assert (plan.find_closure(ts, xs)[0] >= 0) == ((t, x) in domain.closure_set)
        assert (plan.find_sites(ts, xs)[0] >= 0) == domain.contains((t, x))
        found = plan.find_edges(ts, xs, int(down))[0]
        assert (found >= 0) == (Edge(t, x, not down) in domain.edge_set)
        if found >= 0:
            assert domain.edges[found] == Edge(t, x, not down)
        steps = ([t, t + 1 - 2 * down], [x, x + 1]), ([t + 1 - 2 * down, t], [x - 1, x])
        for step_t, step_x in steps:
            edge = plan.step_edges(step_t, step_x)[0]
            assert (edge >= 0) == (edge_between(*zip(step_t, step_x)) in domain.edge_set)


def test_cells_and_positions_live_in_lattice_only():
    # one lookup rule: other modules pass coordinates to the plans and never
    # take a point's cell or frame position, or read a position grid, themselves
    package = Path(lattice.__file__).parent
    pattern = (r"\b_positions?\b|\b_box\b|\b_grid\b|\.(_sites|_closure|_edges|_at|_width)\b"
               r"|\(t\s*[-+]\s*x\)\s*(//|>>)")
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "lattice.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(pattern, line)
    ]
    assert found == []


def test_the_plan_is_built_in_closed_form():
    # every index array comes from cell arithmetic: lattice sorts nothing and
    # searches no sorted array
    source = Path(lattice.__file__).read_text()
    assert re.findall(r"\b(sort|sorted|argsort|lexsort|unique|searchsorted)\s*\(", source) == []


def test_diagonal_rows_are_the_rows_of_each_anti_diagonal():
    shapes = [(a, b) for a in range(1, 10) for b in range(1, 10)] + [(1, 60), (60, 1), (3, 41)]
    for a, b in shapes:
        rows = {}
        for i in range(a):
            for j in range(b):
                rows.setdefault(i + j, []).append(i)
        lo, hi = lattice.diagonal_rows(a, b)
        assert (lo.dtype.kind, hi.dtype.kind) == ("i", "i")
        assert [list(range(first, last + 1)) for first, last in zip(lo.tolist(), hi.tolist())] == [
            rows[d] for d in range(a + b - 1)
        ], (a, b)


def test_only_diagonal_rows_states_the_anti_diagonal_bounds():
    # one rule for the rows of an anti-diagonal: the boxes, the columns, the
    # front, the LPP sweep and the replica draws read it from diagonal_rows,
    # and no other place clamps an index by a max or min with a +-1 term
    package = Path(lattice.__file__).parent
    bound = re.compile(r"\b(max|min|maximum|minimum)\([^()\[]*[-+]\s*1\b[^()\[]*\)")
    lines, first = inspect.getsourcelines(lattice.diagonal_rows)
    own = range(first, first + len(lines))
    found = [
        (path.name, number)
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if bound.search(line)
    ]
    assert found and all(name == "lattice.py" and number in own for name, number in found), found


ORACLE_SHAPES = sorted({(n, m) for n in range(1, 13) for m in range(1, 13)}
                       | {shape for k in range(1, 201) for shape in ((1, k), (k, 1))} | {(37, 53)})


def test_the_plan_equals_the_sorted_key_plan():
    for n, m in ORACLE_SHAPES:
        domain, want = RectDomain(n, m), sorted_plan(n, m)
        plan = domain
        got = {
            "sites": plan.points(plan.cells),
            "closure": plan.points(plan.closure_cells),
            "edges": plan.edge_points(),
            "incident": plan.incident,
            "neighbours": plan.neighbours,
            "columns": plan.columns,
            "sides": (domain.southwest_side, domain.northwest_side,
                      domain.northeast_side, domain.southeast_side),
            "side_edges": domain.side_edges,
        }
        for name, value in want.items():
            if name in ("columns", "sides"):
                assert got[name] == value, (n, m, name)
            else:
                assert len(got[name]) == len(value), (n, m, name)
                assert all(map(np.array_equal, got[name], value)), (n, m, name)
