import csv
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenlines.duality import DistSpec, evolve_chain
from brokenlines.flow import (
    ABS_TOL,
    BirthField,
    FlowField,
    check_conservation,
    extract,
    field_from_birth,
    field_from_dict,
    field_to_dict,
    tolerance,
    total_crossing_flow,
    zero_field,
)
from brokenlines.lattice import Edge, HexDomain, RectDomain
from brokenlines.lines import (
    BrokenTrace,
    Order,
    brick_diagram,
    compare_traces,
    compose,
    decompose,
    decomposition_from_csv_rows,
    decomposition_to_csv_rows,
    line_fields,
)
from brokenlines.lpp import births_from_matrix
from brokenlines.streams import stream_base, uniform
from helpers import (
    decomposition_of,
    edge_between,
    edge_head,
    flank_site_range,
    incident_edges,
    max_edge_gap,
    outer_southeast,
    outer_southwest,
    random_domain,
    random_field,
    trace_crosses,
    trace_edges,
    trace_t_at,
)

D3 = RectDomain(3, 3)

# Independently derived splitting of the all-ones 3x3 field: five unit
# strips, from the hugging V up to the top-right corner wedge.
ONES_3X3_TRACES = (
    ((3, -3), (2, -2), (1, -1), (0, 0), (1, 1), (2, 2), (3, 3)),
    ((3, -3), (2, -2), (1, -1), (2, 0), (1, 1), (2, 2), (3, 3)),
    ((3, -3), (2, -2), (3, -1), (2, 0), (3, 1), (2, 2), (3, 3)),
    ((4, -2), (3, -1), (4, 0), (3, 1), (4, 2)),
    ((5, -1), (4, 0), (5, 1)),
)


def v_trace(apex, arm=2):
    """Wedge through ``apex``: down-arm then up-arm, ordered by x."""
    t, x = apex
    left = [(t + k, x - k) for k in range(arm, 0, -1)]
    right = [(t + k, x + k) for k in range(1, arm + 1)]
    return BrokenTrace(tuple(left) + ((t, x),) + tuple(right))


def crossing_wedge(domain, apex):
    """Wedge through ``apex`` with both arms run out to the first outer site."""
    t, x = apex
    arms = []
    for step in (-1, 1):
        arm = []
        k = 1
        while domain.contains((t + k, x + step * k)):
            arm.append((t + k, x + step * k))
            k += 1
        arm.append((t + k, x + step * k))
        arms.append(arm)
    down, up = arms
    return BrokenTrace(tuple(reversed(down)) + ((t, x),) + tuple(up))


def single_birth_field(domain, apex, w):
    return field_from_birth(domain, births=BirthField(domain, {apex: w}))


# ---------------------------------------------------------------- traces


def test_trace_validation():
    with pytest.raises(ValueError):
        BrokenTrace(((0, 0),))
    with pytest.raises(ValueError):
        BrokenTrace(((0, 0), (2, 1)))
    with pytest.raises(ValueError):
        BrokenTrace(((0, 0), (1, 2)))
    with pytest.raises(ValueError):
        BrokenTrace(((0, 1), (1, 2)))  # odd parity


def test_trace_views():
    tr = v_trace((2, 0), arm=2)
    assert tr.left_corners == ((2, 0),)
    assert tr.x_low == -2 and tr.x_high == 2
    assert trace_t_at(tr, 0) == 2


def test_compare_equal_and_shifted():
    a = v_trace((0, 0))
    b = v_trace((2, 0))
    assert compare_traces(a, a) is Order.EQUAL
    assert compare_traces(b, a) is Order.RIGHT_OF
    assert compare_traces(a, b) is Order.LEFT_OF


def test_compare_disjoint_domains_use_span_clause():
    a = BrokenTrace(((0, 0), (1, 1)))
    b = BrokenTrace(((9, 5), (8, 6)))
    assert compare_traces(a, b) is Order.LEFT_OF
    assert compare_traces(b, a) is Order.RIGHT_OF


def test_compare_incomparable_crossing_segments():
    # the two segments cross: each is earlier on one shared height
    a = BrokenTrace(((0, 0), (1, 1), (2, 2)))
    b = BrokenTrace(((2, 0), (1, 1), (0, 2)))
    assert compare_traces(a, b) is Order.INCOMPARABLE


def test_compare_subtrace_is_order_equivalent():
    tr = v_trace((2, 0))
    sub = BrokenTrace(((3, -1), (2, 0), (3, 1)))
    assert compare_traces(tr, sub) is Order.EQUAL


def random_crossing_trace(domain, seed):
    """Seeded walk from a lower outer site through S until it exits above."""
    starts = sorted(set(outer_southwest(domain)) | set(outer_southeast(domain)))
    y = starts[int(uniform(seed, 0) * len(starts))]
    sites = [y]
    k = 1
    while True:
        t, x = sites[-1]
        legal = []
        for nxt in ((t + 1, x + 1), (t - 1, x + 1)):
            if edge_between((t, x), nxt) not in domain.edge_set:
                continue
            if domain.contains(nxt):
                legal.append((nxt, False))
            elif nxt in domain.closure_set:
                legal.append((nxt, True))
        nxt, stop = legal[int(uniform(seed, k) * len(legal))]
        sites.append(nxt)
        k += 1
        if stop:
            return BrokenTrace(tuple(sites))


@given(st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_order_is_partial_order_on_crossing_traces(seed):
    domain = RectDomain(1 + seed % 4, 1 + (seed // 4) % 4)
    traces = [random_crossing_trace(domain, seed * 10 + i) for i in range(3)]
    for tr in traces:
        assert trace_crosses(domain, tr)
    a, b, c = traces
    # antisymmetry: mutual domination only for identical traces
    if compare_traces(a, b) is Order.EQUAL:
        assert a == b
    # transitivity
    if compare_traces(a, b) in (Order.RIGHT_OF, Order.EQUAL) and compare_traces(b, c) in (
        Order.RIGHT_OF,
        Order.EQUAL,
    ):
        assert compare_traces(a, c) in (Order.RIGHT_OF, Order.EQUAL)
    # disjoint heights force disjoint t-spans (crossing traces only)
    if set(range(a.x_low, a.x_high + 1)).isdisjoint(range(b.x_low, b.x_high + 1)):
        lo_a, hi_a = min(a.t_values), max(a.t_values)
        lo_b, hi_b = min(b.t_values), max(b.t_values)
        assert hi_a < lo_b or hi_b < lo_a


# ----------------------------------------------------- decomposition


def test_decompose_zero_field_is_empty():
    dec = decompose(zero_field(D3))
    assert len(dec) == 0
    assert dec.total_weight() == 0


def test_single_birth_decomposes_into_one_wedge():
    f = single_birth_field(D3, (2, 0), 1.75)
    dec = decompose(f)
    assert len(dec) == 1
    trace, w = dec.entries[0]
    assert w == pytest.approx(1.75)
    assert trace.sites == ((4, -2), (3, -1), (2, 0), (3, 1), (4, 2))


def test_all_ones_matches_hand_run():
    births = BirthField(D3, {y: 1 for y in D3.sites})
    f = field_from_birth(D3, births=births)
    dec = decompose(f)
    assert tuple(tr.sites for tr in dec.traces()) == ONES_3X3_TRACES
    assert dec.weights() == (1, 1, 1, 1, 1)
    assert dec.total_weight() == total_crossing_flow(f) == 5


def test_every_site_carries_one_corner_in_ones_field():
    births = {}
    for trace_sites in ONES_3X3_TRACES:
        for y in BrokenTrace(trace_sites).left_corners:
            births[y] = births.get(y, 0) + 1
    assert births == {y: 1 for y in D3.sites}


def test_compose_single_wedge_equals_single_birth():
    tr = v_trace((2, 0))
    f = compose(D3, decomposition_of(((tr, 2.5),)))
    assert max_edge_gap(f, single_birth_field(D3, (2, 0), 2.5)) == 0


def test_compose_empty_is_zero():
    f = compose(D3, decomposition_of(()))
    assert all(v == 0 for v in f.mass.values())


def test_compose_two_wedges_extracts_two_births():
    d = RectDomain(4, 4)
    left = crossing_wedge(d, (2, 0))
    right = crossing_wedge(d, (4, 0))
    f = compose(d, decomposition_of(((left, 1.0), (right, 2.0))))
    _, births, _ = extract(f)
    assert births.births == {(2, 0): 1.0, (4, 0): 2.0}


def test_compose_validation():
    tr = v_trace((2, 0))
    with pytest.raises(ValueError):
        compose(D3, decomposition_of(((tr, 0.0),)))
    with pytest.raises(ValueError):
        compose(D3, decomposition_of(((v_trace((4, 0)), 1.0), (v_trace((2, 0)), 1.0))))
    inner = BrokenTrace(((3, -1), (2, 0), (3, 1)))  # does not cross
    with pytest.raises(ValueError):
        compose(D3, decomposition_of(((inner, 1.0),)))


def test_compose_refuses_a_trace_with_no_inner_body():
    # two outer closure sites one step apart: both endpoints outside, nothing inside
    bare = BrokenTrace(((-1, 1), (0, 2)))
    with pytest.raises(ValueError, match="trace does not cross the domain"):
        compose(RectDomain(1, 2), decomposition_of(((bare, 1.0),)))


@given(st.integers(0, 400), st.sampled_from(["float", "int"]))
@settings(max_examples=60, deadline=None)
def test_roundtrip_both_ways(seed, mode):
    domain = random_domain(seed, max_side=6)
    f = random_field(domain, seed=seed, mode=mode)
    dec = decompose(f)
    g = compose(domain, dec, mode=mode)
    assert max_edge_gap(f, g) <= (0 if mode == "int" else 1e-9)
    dec2 = decompose(g)
    assert dec2.traces() == dec.traces()
    tol = 0 if mode == "int" else 1e-9
    assert all(abs(a - b) <= tol for a, b in zip(dec.weights(), dec2.weights()))


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_decomposition_is_ordered_and_crossing(seed):
    domain = random_domain(seed, max_side=5)
    dec = decompose(random_field(domain, seed=seed))
    traces = dec.traces()
    for tr in traces:
        assert trace_crosses(domain, tr)
    for a, b in zip(traces, traces[1:]):
        assert compare_traces(a, b) is Order.LEFT_OF
    assert all(w > 0 for w in dec.weights())


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_decomposition_additivity(seed):
    domain = random_domain(seed, max_side=5)
    f = random_field(domain, seed=seed)
    boundary, births, _ = extract(f)
    sum_births: dict = {}
    sum_up: dict = {}
    sum_down: dict = {}
    for trace, w in decompose(f):
        b, z, _ = line_fields(domain, trace, w)
        for y, v in b.births.items():
            sum_births[y] = sum_births.get(y, 0.0) + v
        for y, v in z.up_in.items():
            sum_up[y] = sum_up.get(y, 0.0) + v
        for y, v in z.down_in.items():
            sum_down[y] = sum_down.get(y, 0.0) + v
    scale = max(1.0, f.max_mass)
    for y in domain.sites:
        assert abs(births.births.get(y, 0) - sum_births.get(y, 0)) <= 1e-9 * scale
    for y in domain.southwest_side:
        assert abs(boundary.up_in.get(y, 0) - sum_up.get(y, 0)) <= 1e-9 * scale
    for y in domain.northwest_side:
        assert abs(boundary.down_in.get(y, 0) - sum_down.get(y, 0)) <= 1e-9 * scale


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_total_weight_matches_crossing_flow(seed):
    domain = random_domain(seed, max_side=6)
    f = random_field(domain, seed=seed)
    dec = decompose(f)
    assert abs(dec.total_weight() - total_crossing_flow(f)) <= 1e-9 * max(
        1.0, f.max_mass
    ) * len(dec.entries or [1])


# ---------------------------------------------------- trace weights


def test_single_edge_traces_recover_masses():
    f = random_field(RectDomain(3, 3), seed=21)
    diagram = brick_diagram(f)
    for e in f.domain.edges:
        tr_sites = tuple(sorted((e.base, edge_head(e)), key=lambda y: y[1]))
        w = diagram.weight_of(BrokenTrace(tr_sites))
        assert w == pytest.approx(f.mass[e], abs=1e-12)


def test_wedge_traces_recover_births():
    f = random_field(RectDomain(3, 3), seed=22)
    _, births, _ = extract(f)
    diagram = brick_diagram(f)
    for y in f.domain.sites:
        t, x = y
        wedge = BrokenTrace(((t + 1, x - 1), y, (t + 1, x + 1)))
        assert diagram.weight_of(wedge) == pytest.approx(births.births.get(y, 0), abs=1e-12)


def test_zero_field_weights():
    f = zero_field(D3)
    assert brick_diagram(f).weight_of(v_trace((2, 0))) == 0


def test_trace_weight_outside_closure_rejected():
    f = zero_field(D3)
    with pytest.raises(ValueError):
        brick_diagram(f).weight_of(BrokenTrace(((10, 0), (11, 1))))


def test_site_range_equals_the_flank_rule():
    for n in range(1, 6):
        for m in range(1, 6):
            domain = RectDomain(n, m)
            for mode in ("float", "int"):
                diagram = brick_diagram(random_field(domain, seed=10 * n + m, mode=mode))
                for y in domain.closure:
                    assert diagram.site_range(y) == flank_site_range(diagram, y)
    with pytest.raises(ValueError):
        diagram.site_range((-2, 0))


# A point's key in the index plans names it only inside the plans' box.  On
# D3 the step (-2, 8) -> (-1, 9) would key as the edge (-1, -1, up), and the
# wedge keys as the crossing wedge ((5, -1), (4, 0), (5, 1)).  In 64 bits the
# step (-2**63, 0) -> (-2**63 + 1, 1) wrapped onto the edge (0, 0, up).
OUT_OF_BOX = (
    BrokenTrace(((-2, 8), (-1, 9))),
    BrokenTrace(((3, 17), (2, 18), (3, 19))),
    BrokenTrace(((-(2**63), 0), (-(2**63) + 1, 1))),
)


@pytest.mark.parametrize("trace", OUT_OF_BOX, ids=["step", "wedge", "wrapping step"])
def test_traces_outside_the_index_box_are_rejected(trace):
    assert (D3.plan.step_edges(*zip(*trace.sites)) == -1).all()
    f = field_from_birth(D3, births=BirthField(D3, {y: 1.0 for y in D3.sites}))
    with pytest.raises(ValueError):
        brick_diagram(f).weight_of(trace)
    with pytest.raises(ValueError):
        line_fields(D3, trace, 1.0)
    with pytest.raises(ValueError):
        compose(D3, decomposition_of(((trace, 1.0),)))


# Shifts of a whole trace in t far beyond the index box.  On RectDomain(2, 3),
# whose box is 8 wide, t + 2**61 keyed as t in 64 bits; the others lie
# beyond 64 bits.  x moves by the shift's parity, to stay on the even
# sublattice.
FAR_SHIFTS = [2**61, 2**63, 2**64, -(2**63) - 1, 10**30]


def _shifted(sites, shift: int) -> tuple:
    return tuple((t + shift, x + shift % 2) for t, x in sites)


@pytest.mark.parametrize("shift", FAR_SHIFTS)
def test_compose_refuses_csv_traces_far_outside(shift, tmp_path, capsys):
    from brokenlines.cli import run

    rows = decomposition_to_csv_rows(decompose(random_field(RectDomain(2, 3), seed=4)))
    assert len(rows) > 2
    for row in rows[1:]:
        sites = [tuple(map(int, token.split(":"))) for token in row[2].split()]
        row[2] = " ".join(f"{t}:{x}" for t, x in _shifted(sites, shift))
    message = "trace does not cross the domain" if abs(shift) < 2**62 else "beyond 64 bits"
    rows = [[str(c) for c in row] for row in rows]
    with pytest.raises(ValueError, match=message):
        compose(RectDomain(2, 3), decomposition_from_csv_rows(rows))
    lines_csv = tmp_path / "lines.csv"
    lines_csv.write_text("\n".join(",".join(row) for row in rows) + "\n")
    out = tmp_path / "rebuilt.json"
    assert run(["compose", "--lines", str(lines_csv), "--n", "2", "--m", "3",
                "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shift", FAR_SHIFTS)
def test_trace_queries_refuse_traces_far_outside(shift):
    domain = RectDomain(2, 3)
    field = random_field(domain, seed=4)
    diagram = brick_diagram(field)
    queries = (diagram.weight_of, diagram.maximal_line, lambda far: line_fields(domain, far, 1.0))
    for trace, _ in decompose(field):
        far = BrokenTrace(_shifted(trace.sites, shift))
        for query in queries:
            with pytest.raises(ValueError, match="trace leaves the domain closure"):
                query(far)


@given(st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_weight_monotone_under_extension(seed):
    domain = random_domain(seed, max_side=5)
    f = random_field(domain, seed=seed)
    diagram = brick_diagram(f)
    dec = diagram.decomposition()
    if not dec.entries:
        return
    trace, w = dec.entries[int(uniform(seed, 7) * len(dec.entries))]
    n = len(trace.sites)
    lo = int(uniform(seed, 8) * (n - 1))
    hi = min(n, lo + 2 + int(uniform(seed, 9) * (n - lo - 1)))
    sub = BrokenTrace(trace.sites[lo:hi])
    assert diagram.weight_of(sub) >= diagram.weight_of(trace) - 1e-12
    assert diagram.weight_of(trace) == pytest.approx(w, abs=1e-9)


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_subtrace_weight_sums_containing_lines(seed):
    domain = random_domain(seed, max_side=5)
    f = random_field(domain, seed=seed)
    dec = decompose(f)
    if not dec.entries:
        return
    trace, _ = dec.entries[int(uniform(seed, 3) * len(dec.entries))]
    lo = int(uniform(seed, 4) * (len(trace.sites) - 1))
    sub = BrokenTrace(trace.sites[lo : lo + 2])
    expected = sum(w for tr, w in dec if set(sub.sites) <= set(tr.sites))
    assert brick_diagram(f).weight_of(sub) == pytest.approx(expected, abs=1e-9)


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_containment_is_interval_shaped(seed):
    # a sub-trace shared by two lines is shared by every line between them
    domain = random_domain(seed, max_side=5)
    f = random_field(domain, seed=seed)
    dec = decompose(f)
    traces = dec.traces()
    for j, trace in enumerate(traces):
        lo = int(uniform(seed, j) * (len(trace.sites) - 1))
        sub = BrokenTrace(trace.sites[lo : lo + 2])
        holders = [k for k, other in enumerate(traces) if set(sub.sites) <= set(other.sites)]
        assert holders == list(range(holders[0], holders[-1] + 1))


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_positive_weight_traces_are_comparable(seed):
    domain = random_domain(seed, max_side=5)
    f = random_field(domain, seed=seed)
    diagram = brick_diagram(f)
    dec = diagram.decomposition()
    if len(dec.entries) < 2:
        return
    ts = dec.traces()
    i = int(uniform(seed, 5) * len(ts))
    j = int(uniform(seed, 6) * len(ts))
    a, b = ts[i], ts[j]
    sub_a = BrokenTrace(a.sites[: 2 + int(uniform(seed, 7) * (len(a.sites) - 1))])
    sub_b = BrokenTrace(b.sites[len(b.sites) - 2 :])
    if diagram.weight_of(sub_a) > 0 and diagram.weight_of(sub_b) > 0:
        assert compare_traces(sub_a, sub_b) is not Order.INCOMPARABLE


@given(st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_crossing_traces_carry_line_weights_or_nothing(seed):
    # the characterization: a crossing trace weighs w_j if it is the j-th
    # line of the decomposition and exactly zero otherwise
    domain = random_domain(seed, max_side=4)
    f = random_field(domain, seed=seed)
    dec = decompose(f)
    by_trace = {tr: w for tr, w in dec}
    probe = random_crossing_trace(domain, seed + 13)
    expected = by_trace.get(probe, 0.0)
    assert brick_diagram(f).weight_of(probe) == pytest.approx(expected, abs=1e-9)


def test_breakpoints_end_at_total_crossing_flow():
    for seed in range(20):
        domain = random_domain(seed + 40, max_side=6)
        f = random_field(domain, seed=seed + 40)
        diagram = brick_diagram(f)
        assert diagram.breakpoints[0] == 0
        assert diagram.breakpoints[-1] == pytest.approx(total_crossing_flow(f), abs=1e-9)


@given(
    st.one_of(st.just(0.0), st.floats(-15, -9).map(lambda p: 10.0**p)),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_near_tied_births_decompose_into_valid_lines(offset, offset_first):
    # The ascending mass of one birth meets the descending mass of the other
    # at (3, 1); the surplus ``offset`` leaves as a strip of that width, which
    # dedup merges away below the rounding level and keeps above it.
    d = RectDomain(5, 5)
    big, small = (2, 0), (2, 2)
    if not offset_first:
        big, small = small, big
    f = field_from_birth(d, births=BirthField(d, {big: 1.0 + offset, small: 1.0}))
    dedup = ABS_TOL * max(1.0, max(brick_diagram(f).heights.values()))
    dec = decompose(f)
    assert all(trace_crosses(d, trace) for trace in dec.traces())
    assert all(
        compare_traces(a, b) is Order.LEFT_OF for a, b in zip(dec.traces(), dec.traces()[1:])
    )
    assert all(w > dedup for w in dec.weights())
    if not dedup / 2 < offset < 2 * dedup:  # at the boundary, rounding decides
        assert len(dec) == (2 if offset > dedup else 1)
    rebuilt = compose(d, dec)
    assert max_edge_gap(f, rebuilt) <= tolerance(total_crossing_flow(f), "float")


# ---------------------------------------------------- maximal lines


def association_cases(field, births, line):
    """Check every adjacent interval pair against the association rules."""
    eta = field.mass
    trace = line.trace
    edges = trace_edges(trace)
    intervals = line.intervals
    tol = 1e-9 * max(1.0, float(field.max_mass))

    def close(a, b):
        return abs(a - b) <= tol

    for i in range(1, len(edges)):
        y = trace.sites[i]
        prev_site, next_site = trace.sites[i - 1], trace.sites[i + 1]
        e_in, e_out = edges[i - 1], edges[i]
        (a1, b1), (a2, b2) = intervals[i - 1], intervals[i]
        sw, nw, ne, se = (eta[e] for e in incident_edges(y))
        xi = births.births.get(y, 0)
        came_low = prev_site == (y[0] - 1, y[1] - 1)  # arrived via the sw edge
        goes_high = next_site == (y[0] + 1, y[1] + 1)  # leaves via the ne edge
        if came_low and not goes_high:  # case 1: sw ~ nw, same labels
            assert close(a1, a2) and close(b1, b2)
            assert b1 <= min(sw, nw) + tol
        elif not came_low and not goes_high:  # case 2: se ~ nw, shift by sw
            assert close(a2, a1 + sw) and close(b2, b1 + sw)
            assert b2 <= nw + tol
        elif came_low and goes_high:  # case 3: sw ~ ne, shift by nw
            assert close(a2, a1 - nw) and close(b2, b1 - nw)
            assert a1 >= nw - tol
        else:  # case 4: se ~ ne, aligned to the young end
            assert close(se - b1, ne - b2)
            assert a1 >= se - xi - tol and a2 >= ne - xi - tol
        assert a1 >= -tol and b1 <= eta[e_in] + tol
        assert a2 >= -tol and b2 <= eta[e_out] + tol


def test_maximal_line_single_birth():
    f = single_birth_field(D3, (2, 0), 2.0)
    tr = BrokenTrace(((4, -2), (3, -1), (2, 0), (3, 1), (4, 2)))
    diagram = brick_diagram(f)
    line = diagram.maximal_line(tr)
    assert line.weight == pytest.approx(2.0)
    assert all((a, b) == (0.0, 2.0) for a, b in line.intervals)
    sub = BrokenTrace(tr.sites[1:4])
    assert diagram.maximal_line(sub).weight == pytest.approx(2.0)


def test_maximal_line_empty_when_no_flow():
    f = single_birth_field(D3, (2, 0), 2.0)
    dead = BrokenTrace(((1, -1), (0, 0), (1, 1)))
    line = brick_diagram(f).maximal_line(dead)
    assert line.intervals == ()
    assert line.weight == 0


@given(st.integers(0, 300), st.sampled_from(["float", "int"]))
@settings(max_examples=40, deadline=None)
def test_maximal_lines_satisfy_association_rules(seed, mode):
    domain = random_domain(seed, max_side=5)
    f = random_field(domain, seed=seed, mode=mode)
    _, births, _ = extract(f)
    diagram = brick_diagram(f)
    for trace, w in diagram.decomposition().entries[:6]:
        line = diagram.maximal_line(trace)
        assert line.weight == pytest.approx(w, abs=1e-9)
        association_cases(f, births, line)


def discrete_next_label(field, births, y, came_low, goes_high, p_in):
    """Label transported across one site by the integer association rules."""
    eta = field.mass
    sw, nw, ne, se = (eta[e] for e in incident_edges(y))
    xi = births.births.get(y, 0)
    if came_low and not goes_high:  # annihilation pair
        if p_in <= min(sw, nw):
            return p_in
    elif not came_low and not goes_high:  # descending pass-through
        p_out = p_in + sw
        if p_out <= nw:
            return p_out
    elif came_low and goes_high:  # ascending pass-through
        if p_in > nw and p_in <= sw:
            return p_in - nw
    else:  # birth pair, matched from the young end
        p_out = p_in + ne - se
        if se - xi < p_in <= se and ne - xi < p_out <= ne:
            return p_out
    return None


@given(st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_integer_lines_are_maximal(seed):
    # the label just below a maximal interval must fail to chain through
    domain = random_domain(seed, max_side=4)
    f = random_field(domain, seed=seed, mode="int")
    _, births, _ = extract(f)
    diagram = brick_diagram(f)
    for trace, w in diagram.decomposition().entries[:4]:
        line = diagram.maximal_line(trace)
        start = line.intervals[0][0]
        if start < 1:
            continue
        label = start  # one below the smallest admissible label
        survived = True
        for i in range(1, len(trace.sites) - 1):
            y = trace.sites[i]
            came_low = trace.sites[i - 1] == (y[0] - 1, y[1] - 1)
            goes_high = trace.sites[i + 1] == (y[0] + 1, y[1] + 1)
            label = discrete_next_label(f, births, y, came_low, goes_high, label)
            if label is None:
                survived = False
                break
        assert not survived


@given(st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_integer_lines_reproduce_discrete_labels(seed):
    domain = random_domain(seed, max_side=4)
    f = random_field(domain, seed=seed, mode="int")
    _, births, _ = extract(f)
    diagram = brick_diagram(f)
    for trace, w in diagram.decomposition().entries[:4]:
        line = diagram.maximal_line(trace)
        assert all(isinstance(v, int) for ab in line.intervals for v in ab)
        # unit labels: p corresponds to the slice (p-1, p]
        for offset in range(1, int(w) + 1):
            labels = [a + offset for a, _ in line.intervals]
            for i in range(1, len(trace.sites) - 1):
                y = trace.sites[i]
                came_low = trace.sites[i - 1] == (y[0] - 1, y[1] - 1)
                goes_high = trace.sites[i + 1] == (y[0] + 1, y[1] + 1)
                nxt = discrete_next_label(f, births, y, came_low, goes_high, labels[i - 1])
                assert nxt == labels[i]


def all_crossing_traces(domain):
    """Exhaustive DFS over crossing traces of a small domain."""
    out = []

    def extend(sites):
        t, x = sites[-1]
        for nxt in ((t + 1, x + 1), (t - 1, x + 1)):
            if edge_between((t, x), nxt) not in domain.edge_set:
                continue
            if domain.contains(nxt):
                extend(sites + [nxt])
            elif nxt in domain.closure_set:
                out.append(BrokenTrace(tuple(sites + [nxt])))

    for start in sorted(set(outer_southwest(domain)) | set(outer_southeast(domain))):
        extend([start])
    return out


def association_weight(field, births, trace):
    """Trace weight by forward interval propagation through the case rules.

    Independent of the brick diagram: carries the feasible label interval
    along the trace, intersecting with each case's domain and translating.
    Returns the final interval (empty as ``None``) and its width.
    """
    eta = field.mass
    lo, hi = 0.0, eta[edge_between(*trace.sites[:2])]
    for i in range(1, len(trace.sites) - 1):
        y = trace.sites[i]
        sw, nw, ne, se = (eta[e] for e in incident_edges(y))
        xi = births.births.get(y, 0)
        came_low = trace.sites[i - 1] == (y[0] - 1, y[1] - 1)
        goes_high = trace.sites[i + 1] == (y[0] + 1, y[1] + 1)
        if came_low and not goes_high:  # annihilation: labels unchanged
            window, shift = (0, min(sw, nw)), 0
        elif not came_low and not goes_high:  # descending pass-through
            window, shift = (0, nw - sw), sw
        elif came_low and goes_high:  # ascending pass-through
            window, shift = (nw, sw), -nw
        else:  # birth pair
            window, shift = (se - xi, se), ne - se
        lo, hi = max(lo, window[0]) + shift, min(hi, window[1]) + shift
        if hi <= lo:
            return None, 0.0
    return (lo, hi), hi - lo


@given(st.integers(0, 200), st.sampled_from(["float", "int"]))
@settings(max_examples=25, deadline=None)
def test_decomposition_agrees_with_association_oracle(seed, mode):
    domain = random_domain(seed, max_side=3)
    f = random_field(domain, seed=seed, mode=mode)
    _, births, _ = extract(f)
    diagram = brick_diagram(f)
    dec = {tr: w for tr, w in diagram.decomposition()}
    tol = 0 if mode == "int" else 1e-9 * max(1.0, float(f.max_mass))
    positives = {}
    for trace in all_crossing_traces(domain):
        interval, width = association_weight(f, births, trace)
        assert abs(diagram.weight_of(trace) - width) <= tol
        if width > max(tol, 1e-9):
            positives[trace] = width
            line = diagram.maximal_line(trace)
            assert abs(line.intervals[-1][0] - interval[0]) <= tol
            assert abs(line.intervals[-1][1] - interval[1]) <= tol
    assert set(positives) == set(dec)
    for trace, width in positives.items():
        assert abs(dec[trace] - width) <= tol


# ---------------------------------------------------- brick diagram


def test_brick_diagram_zero_field():
    diagram = brick_diagram(zero_field(D3))
    assert diagram.breakpoints == (0.0,)
    assert diagram.strip_count == 0


def test_brick_diagram_single_birth():
    diagram = brick_diagram(single_birth_field(D3, (2, 0), 3.0))
    assert diagram.breakpoints == (0.0, 3.0)
    assert diagram.strip_count == 1


@given(
    st.integers(0, 300),
    st.sampled_from([(1, 1), (1, 5), (5, 1), (3, 6), (4, 4)]),
    st.sampled_from(["float", "int"]),
)
@settings(max_examples=60, deadline=None)
def test_heights_difference_identity(seed, shape, mode):
    # crossing any domain edge eastward, from the midpoint below it to the one
    # above it, raises the height by the edge's mass; boundary edges included
    domain = RectDomain(*shape)
    f = random_field(domain, seed=seed, mode=mode)
    h = brick_diagram(f).heights
    slack = tolerance(total_crossing_flow(f), mode)
    for e in domain.edges:
        below = (e.t, e.x + 1 if e.up else e.x - 1)
        above = (e.t + 1, e.x)
        if mode == "int":
            assert h[above] - h[below] == f.mass[e]
        else:
            assert abs(h[above] - h[below] - f.mass[e]) <= slack


def test_brick_diagram_rejects_hexagons_and_bad_fields():
    hexa = HexDomain(0, 4, 2, 2, (0, -1, -2, -1, 0), (0, 1, 2, 1, 0))
    f = field_from_birth(hexa, births=BirthField(hexa, {(2, 0): 1.0}))
    with pytest.raises(ValueError):
        brick_diagram(f)
    broken = zero_field(D3)
    mass = dict(broken.mass)
    mass[Edge(2, 0, True)] = 1.0
    with pytest.raises(ValueError):
        brick_diagram(FlowField(D3, mass, "float"))


def test_decompose_refuses_heights_apart_beyond_tolerance():
    # each site is off by 1.8e-9, inside its conservation tolerance of 2e-9,
    # but the two crossing sums, 2 - 1.8e-9 and 2 + 1.8e-9, disagree by
    # 3.6e-9, past tolerance(2) = 2e-9; total_crossing_flow, from which the
    # brick diagram reads its slack, refuses the field
    f = field_from_birth(D3, births=BirthField(D3, {(2, 0): 2.0}))
    mass = dict(f.mass)
    mass[Edge(3, 1, True)] += 1.8e-9
    mass[Edge(3, -1, False)] -= 1.8e-9
    bent = FlowField(D3, mass, "float")
    assert not check_conservation(bent)
    with pytest.raises(ValueError, match="crossing-flow sums disagree"):
        decompose(bent)


# ---------------------------------------------------- line fields


def test_line_fields_wedge():
    tr = v_trace((2, 0))
    births, boundary, field = line_fields(D3, tr, 1.0)
    assert births.births == {(2, 0): 1.0}
    assert boundary.up_in == {} and boundary.down_in == {}
    assert field.mass[Edge(2, 0, True)] == 1.0
    assert sum(v != 0 for v in field.mass.values()) == len(tr.sites) - 1


def test_line_fields_straight_ascent():
    tr = BrokenTrace(((-1, -1), (0, 0), (1, 1), (2, 2), (3, 3)))
    births, boundary, _ = line_fields(D3, tr, 2.0)
    assert births.births == {}
    assert boundary.up_in == {(0, 0): 2.0}
    assert boundary.down_in == {}


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
def test_line_fields_rejects_bad_weight(weight):
    with pytest.raises(ValueError):
        line_fields(D3, v_trace((2, 0)), weight)


def test_line_fields_zero_weight():
    births, boundary, field = line_fields(D3, v_trace((2, 0)), 0.0)
    assert births.births == {} and boundary.up_in == {}
    assert all(v == 0 for v in field.mass.values())


def test_crossing_line_field_equals_forward_construction():
    for seed in range(12):
        domain = random_domain(seed + 900, max_side=5)
        dec = decompose(random_field(domain, seed=seed + 900))
        if not dec.entries:
            continue
        trace, w = dec.entries[0]
        births, boundary, direct = line_fields(domain, trace, w)
        rebuilt = field_from_birth(domain, boundary, births)
        assert max_edge_gap(direct, rebuilt) <= 1e-12


# ---------------------------------------------------- serialization


def test_decomposition_csv_roundtrip():
    f = random_field(RectDomain(3, 3), seed=77, mode="int")
    dec = decompose(f)
    rows = decomposition_to_csv_rows(dec)
    assert rows[0] == ["j", "weight", "sites"]
    back = decomposition_from_csv_rows([[str(c) for c in row] for row in rows])
    assert back.traces() == dec.traces()
    assert back.weights() == dec.weights()
    assert back == dec
    rows[-1][1] += 1
    assert decomposition_from_csv_rows([[str(c) for c in row] for row in rows]) != dec


# ---------------------------------------------------- byte contract

# sha256 of the field JSON, decomposition CSV, brick diagram JSON and composed
# field JSON, recorded before the brick heights became an ordered sweep.  Any
# changed byte fails here, the last bits of a float weight included.
PINNED_DIGESTS = {
    "chain": {
        "field": "21a8189f47926d8f6e76248280f6c5585a70944667ad3c6da13a66eda2e84a36",
        "csv": "cc8fa5e471f951e36edc2ceb8a92ec523158d170cf961f76cc31daa3269c5195",
        "diagram": "5744ed4636cb0974a325b467356c1831a5817e44def829a299715fbc34e79087",
        "compose": "21a8189f47926d8f6e76248280f6c5585a70944667ad3c6da13a66eda2e84a36",
    },
    "births": {
        "field": "1a8d105dca473efcf606839926e3f9a6049305ac96103ca4ad49f4a14f61fa08",
        "csv": "151492d652c3fb88c3e6bce32b8d3952538192cddc749a577fa3e7d620262db8",
        "diagram": "fa9a3f68dea335ef2997d2c40887d75981a89b2735290be6edbf465609dde55e",
        "compose": "7de98555f282126833bdb66c08408c14702d127856e46f396d33137797df992c",
    },
    "hex": {
        "field": "cf5f7d2c99bd37231087b578db9d5116428a1fe8abe27aac33fd3a1472d6961f",
    },
}


def pinned_field(name):
    """A 12x9 int chain field, a float field grown from Exp(1) births alone,
    or an int chain field on a hexagon kinked on both sides (field JSON only).

    The births come from the package's own counter-based streams, so the
    digests do not depend on numpy's generators.
    """
    if name == "chain":
        return evolve_chain(RectDomain(12, 9), 0.5, 5)
    if name == "hex":
        lower = (-2, -3, -4, -5, -4, -3, -2, -1, 0, 1)
        upper = (2, 3, 4, 5, 6, 7, 6, 5, 4, 3)
        return evolve_chain(HexDomain(0, 9, 3, 5, lower, upper), 0.5, 5)
    cells = DistSpec.exponential(1.0).sample_array(stream_base(11, 12, 9), 108)
    xi = births_from_matrix(cells.reshape(12, 9))
    return field_from_birth(xi.domain, births=xi)


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_outputs_match_pinned_digests(name):
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    f = pinned_field(name)
    digests = {"field": sha(json.dumps(field_to_dict(f), indent=2))}
    if isinstance(f.domain, RectDomain):
        dec = decompose(f)
        buf = io.StringIO()
        csv.writer(buf).writerows(decomposition_to_csv_rows(dec))
        rebuilt = compose(f.domain, dec, mode=f.mode)
        digests["csv"] = sha(buf.getvalue())
        digests["diagram"] = sha(json.dumps(brick_diagram(f).to_dict(), indent=2))
        digests["compose"] = sha(json.dumps(field_to_dict(rebuilt), indent=2))
    assert digests == PINNED_DIGESTS[name]


def test_the_round_trip_builds_no_edge_or_trace_objects(monkeypatch):
    # fields and decompositions stay arrays from the sweep to CSV and JSON and
    # back; the Edge-keyed dicts and BrokenTrace tuples are built when read
    built = []
    check = BrokenTrace.__post_init__
    monkeypatch.setattr(BrokenTrace, "__post_init__", lambda tr: built.append(tr) or check(tr))
    domain = RectDomain(20, 20)
    field = evolve_chain(domain, 0.5, 3)
    assert check_conservation(field) == []
    rows = [[str(c) for c in row] for row in decomposition_to_csv_rows(decompose(field))]
    reparsed = decomposition_from_csv_rows(rows)
    rebuilt = compose(domain, reparsed)
    reloaded = field_from_dict(json.loads(json.dumps(field_to_dict(rebuilt))))
    for d in (domain, reloaded.domain):
        assert not {"edges", "closure", "sites"} & set(d.__dict__)
    assert built == []

    # the views, read now, are the dict and tuples these steps always gave
    def sha(obj):
        return hashlib.sha256(repr(obj).encode()).hexdigest()

    assert sha(list(reloaded.mass.items())) == (
        "a8a6afe3b797ea7d00e9307c66ce5a83b8fc5304332d52ba3959d1bf31d3cf06"
    )
    assert sha(reparsed.entries) == (
        "769368ea41c9e3b0914b772e5887f1fe39900c9431374b213d138e1a5361d2c2"
    )
    assert len(built) == len(reparsed) == 37
