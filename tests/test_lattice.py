import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenlines import lattice
from brokenlines.lattice import Edge, HexDomain, RectDomain, domain_from_dict, midpoints
from helpers import (
    DIAGONALS,
    edge_between,
    edge_head,
    hex_contains,
    hex_of_rect,
    hex_sides,
    hexagons,
    incident_edges,
    outer_northeast,
    outer_northwest,
    outer_sites,
    outer_southeast,
    outer_southwest,
    rect_contains,
    rect_sides,
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
            y = d.cell_to_site(i, j)
            assert d.contains(y)
            assert d.site_to_cell(y) == (i, j)
            seen.add(y)
    assert seen == set(d.sites)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_hexagon_view_of_rectangle(n, m):
    rect = RectDomain(n, m)
    hexa = hex_of_rect(rect)
    assert hexa.sites == rect.sites
    assert set(hexa.southwest_side) == set(rect.southwest_side)
    assert set(hexa.northwest_side) == set(rect.northwest_side)
    assert set(hexa.northeast_side) == set(rect.northeast_side)
    assert set(hexa.southeast_side) == set(rect.southeast_side)
    assert hexa.edges == rect.edges


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
            hexa = hex_of_rect(rect)
            assert hex_sides(hexa) == rect_sides(rect)
            check_sides_and_membership(hexa, hex_sides(hexa), lambda y: hex_contains(hexa, y))


@given(hexagons())
@settings(max_examples=200, deadline=None)
def test_hexagon_sides_and_membership_follow_the_paths(hexa):
    check_sides_and_membership(hexa, hex_sides(hexa), lambda y: hex_contains(hexa, y))


def test_proper_hexagon():
    # kinked on both sides: a genuine hexagon around the origin column
    hexa = HexDomain(0, 4, 2, 2, (0, -1, -2, -1, 0), (0, 1, 2, 1, 0))
    assert hexa.contains((2, 0))
    assert hexa.contains((2, 2)) and hexa.contains((2, -2))
    assert not hexa.contains((0, 2))
    assert (0, 0) in hexa.southwest_side and (0, 0) in hexa.northwest_side
    assert (2, -2) in hexa.southwest_side and (2, -2) in hexa.southeast_side
    assert (4, 0) in hexa.northeast_side and (4, 0) in hexa.southeast_side


def test_hexagon_validation():
    with pytest.raises(ValueError):
        HexDomain(0, 2, 1, 1, (0, -1), (0, 1))  # path lengths wrong
    with pytest.raises(ValueError):
        HexDomain(0, 2, 1, 1, (0, 1, 0), (0, 1, 0))  # lower path ascends early
    with pytest.raises(ValueError):
        HexDomain(0, 2, 3, 1, (0, -1, 0), (0, 1, 0))  # kink outside range


def test_domain_json_roundtrip():
    rect = RectDomain(3, 2)
    assert domain_from_dict(rect.to_dict()) == rect
    hexa = HexDomain(0, 4, 2, 2, (0, -1, -2, -1, 0), (0, 1, 2, 1, 0))
    assert domain_from_dict(hexa.to_dict()) == hexa


def test_midpoints_are_odd_neighbours():
    d = RectDomain(2, 2)
    mids = midpoints(d)
    assert all((t + x) % 2 == 1 for t, x in mids)
    assert (-1, 0) in mids and (3, 0) in mids
    # (n+1)(m+1) face corners of the site grid
    assert len(mids) == 9


HEX = HexDomain(0, 4, 2, 2, (0, -1, -2, -1, 0), (0, 1, 2, 1, 0))
# HEX moved by 2**61 in t and x: keys are relative to the plan's box, so they do not overflow
F = 2**61
FAR_HEX = HexDomain(F, F + 4, F + 2, F + 2,
                    tuple(F + x for x in HEX.x_lower), tuple(F + x for x in HEX.x_upper))


@pytest.mark.parametrize("domain", [RectDomain(1, 1), RectDomain(2, 3), HEX, FAR_HEX],
                         ids=["1x1", "2x3", "hex", "far hex"])
def test_edge_points_and_find_edges_invert_each_other(domain):
    plan = domain.plan
    t, x, down = plan.edge_points()
    assert list(zip(t.tolist(), x.tolist(), (down == 0).tolist())) == list(domain.edges)
    assert plan.find_edges(t, x, down).tolist() == list(range(len(domain.edges)))
    assert plan.find_edges(t.tolist(), x.tolist(), down).tolist() == list(range(len(domain.edges)))


FAR = st.one_of(st.integers(-12, 12), st.integers(-(2**70), 2**70),
                st.sampled_from([2**61, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1]))


@given(st.sampled_from([RectDomain(2, 3), RectDomain(3, 1), HEX]), FAR, FAR, st.booleans())
@settings(max_examples=300, deadline=None)
def test_lookups_are_exact_for_integers_of_any_size(domain, t, x, down):
    # a point or edge is found exactly when it is one of the domain's, as
    # Python ints of any size and, where they fit, as int64 arrays
    plan = domain.plan
    forms = [([t], [x])]
    if max(abs(t), abs(x)) < 2**63 - 1:
        forms.append((np.array([t]), np.array([x])))
    for ts, xs in forms:
        assert (plan.find(plan.closure_keys, ts, xs)[0] >= 0) == ((t, x) in domain.closure_set)
        assert (plan.find(plan.site_keys, ts, xs)[0] >= 0) == domain.contains((t, x))
        found = plan.find_edges(ts, xs, int(down))[0]
        assert (found >= 0) == (Edge(t, x, not down) in domain.edge_set)
        if found >= 0:
            assert domain.edges[found] == Edge(t, x, not down)
        steps = ([t, t + 1 - 2 * down], [x, x + 1]), ([t + 1 - 2 * down, t], [x - 1, x])
        for step_t, step_x in steps:
            edge = plan.step_edges(step_t, step_x)[0]
            assert (edge >= 0) == (edge_between(*zip(step_t, step_x)) in domain.edge_set)


def test_edge_keys_live_in_lattice_only():
    # one lookup rule: other modules pass coordinates to the plans and never
    # form, shift or mask a key themselves
    package = Path(lattice.__file__).parent
    pattern = r"\b_find\b|\b_boxed\b|\.key\(|edge_keys\s*(>>|<<|&|\|)"
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "lattice.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(pattern, line)
    ]
    assert found == []
