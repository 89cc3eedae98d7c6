"""Randomized test instances, and scalar references for the array code."""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain
from operator import add

import numpy as np

from brokenlines import BirthField, BoundaryFlow, FlowField, RectDomain, field_from_birth, streams
from brokenlines.duality import transition_kernel
from brokenlines.flow import site_outflows
from brokenlines.lattice import Edge
from brokenlines.lines import Decomposition
from brokenlines.lpp import birth_matrix
from brokenlines.streams import negated_uniforms, stream_base


def uniform(seed: int, *keys: int) -> float:
    """One uniform in [0, 1) addressed purely by ``(seed, keys)``: the top 53
    bits of the stream id ``stream_base(seed, *keys)``, the scalar definition
    of every draw in ``brokenlines.streams``."""
    return (stream_base(seed, *keys) >> 11) * 2.0**-53


def exp_draw(seed: int, *key: int) -> float:
    return -math.log1p(-uniform(seed, *key))


def uniforms_at(seed: int, *keys) -> np.ndarray:
    """``uniform(seed, *key)`` for every key of the broadcast integer arrays ``keys``,
    as the negation of the package's draw; at least one dimension."""
    return -negated_uniforms(stream_base(seed), *keys)


def uniforms(base: int, count: int) -> np.ndarray:
    """The uniforms of counters ``0 .. count-1`` on the stream id ``base``.

    ``uniforms(stream_base(seed, *keys), n)`` equals
    ``uniforms_at(seed, *keys, np.arange(n))`` bit for bit.
    """
    counters = np.uint64(base & streams._MASK) ^ streams._counters(count)
    return streams._unit(streams._mix_array(counters))


def geom_draw(seed: int, lam: float, *key: int) -> int:
    return int(math.floor(math.log1p(-uniform(seed, *key)) / math.log(lam)))


def site_uniforms(seed: int, role: int, sites) -> list[float]:
    """``uniform(seed, role, t, x)`` at each site ``(t, x)`` of ``sites``, as
    python floats, by one :func:`uniforms_at` call."""
    t, x = np.array(sites, dtype=np.int64).reshape(-1, 2).T
    return uniforms_at(seed, role, t, x).tolist()


def exp_draws(seed: int, role: int, sites) -> dict:
    """``exp_draw(seed, role, *y)`` at each site ``y`` of ``sites``, bit for bit:
    the uniforms drawn at once, ``-math.log1p(-u)`` taken on each."""
    return {y: -math.log1p(-u) for y, u in zip(sites, site_uniforms(seed, role, sites))}


def geom_draws(seed: int, lam: float, role: int, sites) -> dict:
    """``geom_draw(seed, lam, role, *y)`` at each site ``y`` of ``sites``, bit for
    bit: the uniforms drawn at once, ``math.floor`` taken on each."""
    log_lam = math.log(lam)
    return {
        y: int(math.floor(math.log1p(-u) / log_lam))
        for y, u in zip(sites, site_uniforms(seed, role, sites))
    }


def random_inputs(domain: RectDomain, seed: int, mode: str = "float", boundary: bool = True):
    """Random inflows and births: exponential in float mode, geometric in int.

    The draw of role 1 (ascending inflow), 2 (descending inflow) or 3
    (birth) at site ``y`` is ``exp_draw(seed, role, *y)`` or
    ``geom_draw(seed, lam, role, *y)``, with ``lam`` 0.5 for the inflows and
    0.4 for the births; each side and the sites are drawn at once.
    """
    if mode == "float":
        up = exp_draws(seed, 1, domain.southwest_side) if boundary else {}
        down = exp_draws(seed, 2, domain.northwest_side) if boundary else {}
        births = exp_draws(seed, 3, domain.sites)
    else:
        up = geom_draws(seed, 0.5, 1, domain.southwest_side) if boundary else {}
        down = geom_draws(seed, 0.5, 2, domain.northwest_side) if boundary else {}
        births = geom_draws(seed, 0.4, 3, domain.sites)
    return BoundaryFlow(up, down), BirthField(domain, births)


def random_field(domain: RectDomain, seed: int, mode: str = "float", boundary: bool = True):
    """Random conserved field grown from :func:`random_inputs`."""
    inflow, births = random_inputs(domain, seed, mode, boundary)
    return field_from_birth(domain, inflow, births, mode=mode)


def random_birth_field(domain: RectDomain, seed: int) -> BirthField:
    return BirthField(domain, exp_draws(seed, 3, domain.sites))


def random_domain(seed: int, max_side: int = 8) -> RectDomain:
    n = 1 + int(uniform(seed, 101) * max_side)
    m = 1 + int(uniform(seed, 102) * max_side)
    return RectDomain(min(n, max_side), min(m, max_side))


def ks_distance(a, b) -> float:
    """Two-sample KS distance by brute force: both empirical CDFs at every pooled point.

    The reference for ``checks.ks_statistic``: ``#{a <= x} / na`` and
    ``#{b <= x} / nb`` counted with ``bisect`` for each pooled ``x``.
    """
    a, b = sorted(map(float, a)), sorted(map(float, b))
    return max(abs(bisect_right(a, x) / len(a) - bisect_right(b, x) / len(b)) for x in a + b)


def cells_kept_loop(total: np.ndarray, scale: float, min_expected: float) -> int:
    """The cells of the pooled counts ``total`` that the chi-square check keeps,
    merging the upper tail one cell at a time.

    The reference for ``checks._cells_kept``: while more than one cell is
    kept and the tail from the last kept cell up, summed afresh, expects
    less than ``min_expected`` at ``scale``, one cell fewer is kept.
    """
    keep = len(total)
    while keep > 1 and total[keep - 1 :].sum() * scale < min_expected:
        keep -= 1
    return keep


def kernel_residual_loop(lam: float, kmax: int) -> float:
    """Detailed-balance residual of the one-site kernel, one quadruple at a time.

    The reference for ``duality.kernel_duality_residual``: for every inflow
    pair ``m`` and outflow pair ``n`` up to ``kmax``, the geometric weight
    of ``m`` times ``K(n | m)`` against that of ``n`` times the kernel of
    the swapped pairs.
    """

    def gpmf(k: int) -> float:
        return (1.0 - lam) * lam**k

    worst = 0.0
    rng = range(kmax + 1)
    for m_up in rng:
        for m_down in rng:
            left_weight = gpmf(m_up) * gpmf(m_down)
            for n_up in rng:
                for n_down in rng:
                    lhs = left_weight * transition_kernel(n_up, n_down, m_up, m_down, lam)
                    rhs = (
                        gpmf(n_up)
                        * gpmf(n_down)
                        * transition_kernel(m_down, m_up, n_down, n_up, lam)
                    )
                    worst = max(worst, abs(lhs - rhs))
    return worst


def births_to_csv_text(xi: BirthField) -> str:
    """Births as CSV rows of the cell-indexed matrix."""
    matrix = birth_matrix(xi)
    return "\n".join(",".join(repr(float(v)) for v in row) for row in matrix) + "\n"


def dict_sweep(domain, up_in: dict, down_in: dict, born: dict) -> dict:
    """The forward sweep one site at a time over ``Edge``-keyed dicts.

    The reference that ``flow.sweep`` is tested against: sites in sorted
    order, each reading its two incoming edges and writing its two outgoing
    ones.
    """
    mass = dict.fromkeys(domain.edges)
    for y in domain.sites:  # sorted by (t, x): predecessors come first
        sw, nw, ne, se = incident_edges(y)
        if y in up_in:
            mass[sw] = up_in[y]
        if y in down_in:
            mass[nw] = down_in[y]
        mass[ne], mass[se] = site_outflows(mass[sw], mass[nw], born[y])
    return mass


def plan_sweep(domain, up_in: np.ndarray, down_in: np.ndarray, born: np.ndarray) -> np.ndarray:
    """The forward sweep one ``t``-column at a time on a full edge array, by index arrays.

    The reference that ``flow.sweep`` is tested against, dtype and bits: the
    masses start as zeros of ``np.result_type`` of the inflows and births,
    and each column gathers its sites' incoming edges by ``domain.incident``
    and scatters their outflows the same way.
    """
    sw, nw, ne, se = domain.incident
    entry_up, entry_down, _, _ = domain.side_edges
    mass = np.zeros((domain.edge_count, *born.shape[1:]), np.result_type(up_in, down_in, born))
    mass[entry_up] = up_in
    mass[entry_down] = down_in
    for col in domain.columns:
        mass[ne[col]], mass[se[col]] = site_outflows(mass[sw[col]], mass[nw[col]], born[col])
    return mass


def add_fields(a: FlowField, b: FlowField) -> FlowField:
    """Edgewise sum; the conservation law is linear so validity is preserved."""
    if a.domain != b.domain:
        raise ValueError("cannot add fields on different domains")
    if a.mode != b.mode:
        raise ValueError("cannot mix integer and float fields")
    return FlowField(a.domain, {e: a.mass[e] + b.mass[e] for e in a.domain.edges}, a.mode)


# Edges and traces one site at a time, by their definitions: the scalar
# reference for the index plans' ``incident`` and ``step_edges``.
def incident_edges(y) -> tuple[Edge, Edge, Edge, Edge]:
    """The four edges at site ``y``, ordered (sw, nw, ne, se)."""
    t, x = y
    return Edge(t - 1, x - 1, True), Edge(t - 1, x + 1, False), Edge(t, x, True), Edge(t, x, False)


def edge_head(e: Edge):
    """The site at the top of ``e``, one step up in ``t``."""
    return (e.t + 1, e.x + 1 if e.up else e.x - 1)


def trace_t_at(trace, x: int) -> int:
    """The ``t`` of ``trace`` at height ``x``; KeyError off the trace."""
    return {site_x: t for t, site_x in trace.sites}[x]


def edge_between(a, b) -> Edge:
    """The edge joining the diagonal neighbours ``a`` and ``b``: based at the
    one of smaller ``t``, ascending when the other lies at larger ``x``."""
    base, head = sorted((a, b))
    return Edge(base[0], base[1], head[1] > base[1])


def trace_edges(trace) -> tuple[Edge, ...]:
    """The edge of each step of ``trace``."""
    return tuple(edge_between(a, b) for a, b in zip(trace.sites, trace.sites[1:]))


def trace_crosses(domain, trace) -> bool:
    """Whether ``trace`` spans ``domain``: every site inside it but the two
    ends, which lie outside, one step from an inside site."""
    inside = [domain.contains(y) for y in trace.sites]
    return len(inside) > 2 and not inside[0] and not inside[-1] and all(inside[1:-1])


def trace_order(a, b) -> tuple[bool, bool]:
    """Whether ``a`` dominates ``b``, and ``b`` dominates ``a``, by the definition.

    The reference for ``lines._dominance``: one trace dominates another when
    it is nowhere earlier on the heights ``x`` they share, or, sharing none,
    when its latest ``t`` is not before the other's earliest.
    """
    t_a, t_b = ({x: t for t, x in trace.sites} for trace in (a, b))
    shared = t_a.keys() & t_b.keys()
    if shared:
        return all(t_a[x] >= t_b[x] for x in shared), all(t_b[x] >= t_a[x] for x in shared)
    return max(t_a.values()) >= min(t_b.values()), max(t_b.values()) >= min(t_a.values())


def zero_field(domain, mode: str = "float") -> FlowField:
    """The field with no mass on any edge."""
    return FlowField(domain, dict.fromkeys(domain.edges, 0 if mode == "int" else 0.0), mode)


def time_reverse(field: FlowField) -> FlowField:
    """A field on ``RectDomain(n, m)`` mirrored in time, on ``RectDomain(m, n)``.

    Edge ``(t, x, up)`` goes to ``(ct - t - 1, x + cx + 1, down)`` and a
    descending one to ``(ct - t - 1, x + cx - 1, up)``, with
    ``ct = n + m - 2`` and ``cx = n - m``: the map ``(t, x) -> (-t, x)``
    recentred, which exchanges the ascending and descending slopes.
    """
    n, m = field.domain.n, field.domain.m
    ct, cx = n + m - 2, n - m
    mass = {
        Edge(ct - e.t - 1, e.x + cx + (1 if e.up else -1), not e.up): v
        for e, v in field.mass.items()
    }
    return FlowField(RectDomain(m, n), mass, field.mode)


def max_edge_gap(a: FlowField, b: FlowField):
    """Largest edgewise difference between two fields on one domain."""
    if a.domain != b.domain:
        raise ValueError("fields live on different domains")
    return max(abs(a.values - b.values).tolist())


def decomposition_of(entries) -> Decomposition:
    """The decomposition of ``(trace, weight)`` pairs built by hand."""
    entries = tuple(entries)
    counts = np.array([len(trace.sites) for trace, _ in entries], dtype=np.intp)
    sites = [y for trace, _ in entries for y in trace.sites]
    t, x = np.array(sites, dtype=np.int64).reshape(-1, 2).T
    return Decomposition(t, x, counts, tuple(w for _, w in entries))


DIAGONALS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def outer_sites(domain) -> tuple:
    """The sites of ``closure - S``, sorted: one diagonal step from a site, not a site."""
    inside = set(domain.sites)
    near = {(t + dt, x + dx) for t, x in inside for dt, dx in DIAGONALS}
    return tuple(sorted(near - inside))


# Outer boundary classes of a rectangle: the sites of ``closure - S``
# adjacent to each side.  Exactly one class holds each outer site.
def outer_southwest(domain: RectDomain) -> tuple:
    return tuple(y for y in outer_sites(domain) if domain.contains((y[0] + 1, y[1] + 1)))


def outer_northwest(domain: RectDomain) -> tuple:
    return tuple(y for y in outer_sites(domain) if domain.contains((y[0] + 1, y[1] - 1)))


def outer_northeast(domain: RectDomain) -> tuple:
    return tuple(y for y in outer_sites(domain) if domain.contains((y[0] - 1, y[1] - 1)))


def outer_southeast(domain: RectDomain) -> tuple:
    return tuple(y for y in outer_sites(domain) if domain.contains((y[0] - 1, y[1] + 1)))


def flank_site_range(diagram, y) -> tuple[int, int]:
    """Strip range ``lo, hi`` of closure site ``y``, by the scalar flank rule.

    The reference for ``BrickDiagram.site_range``: an inner site's brick runs
    from the midpoint west of it to the one east of it, an outer site's spans
    the flanks of its one domain edge (below and above it: crossing the edge
    eastward adds its mass).
    """
    t, x = y
    if diagram.domain.contains(y):
        lo_mid, hi_mid = (t - 1, x), (t + 1, x)
    else:
        (e,) = (e for e in incident_edges(y) if e in diagram.domain.edge_set)
        lo_mid, hi_mid = (e.t, e.x + 1 if e.up else e.x - 1), (e.t + 1, e.x)
    q, h = diagram.breakpoints, diagram.heights
    return bisect_right(q, h[lo_mid]) - 1, bisect_right(q, h[hi_mid]) - 1


def swept_heights(field: FlowField) -> dict:
    """Brick heights by the scalar sweep over the midpoints in ``(t, x)`` order.

    The reference for ``BrickDiagram.heights``, bit for bit: the first
    midpoint is zero, and each later one ``(u, v)`` is its lower flank's height
    plus the mass of the edge between them, the ascending edge from
    ``(u - 1, v)`` where the domain has it, else the descending one.
    """
    domain = field.domain
    odd = {(t + dt, x + dx) for t, x in domain.sites for dt, dx in ((-1, 0), (1, 0), (0, -1), (0, 1))}
    first, *rest = sorted(odd)
    heights = {first: field.values[:0].sum()}  # the zero of the field's dtype
    for u, v in rest:
        up = Edge(u - 1, v, True)
        if up in domain.edge_set:
            heights[u, v] = heights[u - 1, v + 1] + field.mass[up]
        else:
            heights[u, v] = heights[u - 1, v - 1] + field.mass[Edge(u - 1, v, False)]
    return {y: h.item() if isinstance(h, np.generic) else h for y, h in heights.items()}


def sorted_plan(n: int, m: int) -> dict:
    """The index arrays of ``RectDomain(n, m)`` built from sorted integer keys.

    The reference for ``lattice.RectDomain``'s cell rule.  A point
    ``(t, x)`` is keyed ``(t + 2) * width + (x - x_lo)`` on a box two steps
    wider than the domain on every side, and an edge by twice its base's
    key, plus one when it descends, so sorting keys sorts points by
    ``(t, x)`` and edges in canonical order.  Each column's site keys run up
    in steps of 2 from its lowest site's; the closure and the edges are the
    distinct keys next to the sites, and every index is found by
    ``searchsorted``.  Returns each array under the name of the domain
    attribute it is compared with.
    """

    def find(sorted_keys, keys):
        pos = np.searchsorted(sorted_keys, keys)
        return np.where(sorted_keys.take(pos, mode="clip") == keys, pos, -1)

    def points(keys):
        return keys // width - 2, keys % width + x_lo

    t = np.arange(n + m - 1)
    lo, hi = np.maximum(-t, t - 2 * (n - 1)), np.minimum(t, 2 * (m - 1) - t)
    x_lo = int(lo.min()) - 2
    width = int(hi.max()) - x_lo + 3
    counts = (hi - lo) // 2 + 1
    ends = np.cumsum(counts)
    starts = ends - counts
    first = ((t + 2) * width + lo - x_lo) - 2 * starts
    s = np.repeat(first, counts) + 2 * np.arange(ends[-1])
    closure = np.unique(s + np.array([[0], [width + 1], [width - 1], [1 - width], [-1 - width]]))
    incident = 2 * s + np.array([[-2 * width - 2], [-2 * width + 3], [0], [1]])
    edge_keys = np.unique(incident)
    neighbours = find(s, s + np.array([[-width - 1], [-width + 1], [width + 1], [width - 1]]))
    incident = np.searchsorted(edge_keys, incident)
    site_t, site_x = points(s)
    return {
        "sites": (site_t, site_x),
        "closure": points(closure),
        "edges": (*points(edge_keys >> 1), edge_keys & 1),
        "incident": incident,
        "neighbours": neighbours,
        "columns": tuple(map(slice, starts.tolist(), ends.tolist())),
        "sides": tuple(tuple(zip(site_t[out].tolist(), site_x[out].tolist())) for out in neighbours < 0),
        "side_edges": tuple(edges[out] for edges, out in zip(incident, neighbours < 0)),
    }


# The sides and membership of a rectangle by their explicit definitions: the
# reference for the neighbour rule that the domain reads off its index arrays.
def rect_sides(d: RectDomain) -> tuple[tuple, tuple, tuple, tuple]:
    """Southwest, northwest, northeast and southeast sides, each along its path."""
    n, m = d.n, d.m
    return (
        tuple((t, -t) for t in range(n)),
        tuple((t, t) for t in range(m)),
        tuple((m - 1 + k, m - 1 - k) for k in range(n)),
        tuple((n - 1 + k, -(n - 1) + k) for k in range(m)),
    )


def cell_to_site(i: int, j: int) -> tuple[int, int]:
    """Matrix cell ``(i, j)``, 1-based, to lattice coordinates."""
    return (i + j - 2, j - i)


def rect_contains(d: RectDomain, y) -> bool:
    t, x = y
    return (t + x) % 2 == 0 and 0 <= t + x <= 2 * (d.m - 1) and 0 <= t - x <= 2 * (d.n - 1)


def decomposition_to_csv_rows_loop(dec: Decomposition) -> list[list]:
    """Reference for :func:`lines.decomposition_to_csv_rows`, one Python string
    per site token: each distinct ``t`` and ``x`` is formatted once, and a
    token joins the two."""
    t_values, t_at = np.unique(dec.t, return_inverse=True)
    x_values, x_at = np.unique(dec.x, return_inverse=True)
    heads = map([f"{t}:" for t in t_values.tolist()].__getitem__, t_at.tolist())
    tails = map(list(map(str, x_values.tolist())).__getitem__, x_at.tolist())
    tokens = list(map(add, heads, tails))
    ends = np.cumsum(dec.counts).tolist()
    rows = [["j", "weight", "sites"]]
    for j, (a, b, w) in enumerate(zip([0, *ends], ends, dec.weights()), start=1):
        rows.append([j, w, " ".join(tokens[a:b])])
    return rows


def decomposition_from_csv_rows_loop(rows: list[list]) -> Decomposition:
    """Reference for :func:`lines.decomposition_from_csv_rows`, one Python string
    per site token: each distinct ``t:x`` token is parsed once by ``int()``;
    every line must then be a broken trace, or ValueError names its row."""
    numbers, weights, lines = [], [], []
    for k, row in enumerate(rows, start=1):
        if not row or row[0] == "j":
            continue
        if len(row) < 3:
            raise ValueError(f"row {k} has {len(row)} columns, not j, weight, sites")
        try:
            weights.append(int(row[1]))
        except ValueError:
            try:
                weights.append(float(row[1]))
            except ValueError:
                raise ValueError(f"row {k} has a weight that is not a number: {row[1]!r}") from None
        numbers.append(k)
        lines.append(row[2].split())

    def fail(line: int, what: str):
        raise ValueError(f"row {numbers[line]} has {what}")

    def fail_at(token: str, what: str):
        fail(next(j for j, line in enumerate(lines) if token in line), f"a site {token!r} {what}")

    tokens = list(chain.from_iterable(lines))
    distinct = dict.fromkeys(tokens)
    for token in distinct:
        t, _, x = token.partition(":")
        try:
            distinct[token] = (int(t), int(x))
        except ValueError:
            fail_at(token, "that is not of the form t:x")
    try:
        t, x = np.array(list(distinct.values()), dtype=np.int64).reshape(-1, 2).T
    except OverflowError:
        fits = range(-(1 << 63), 1 << 63)
        fail_at(next(k for k, (t, x) in distinct.items() if t not in fits or x not in fits),
                "beyond 64 bits")
    position = dict(zip(distinct, range(len(distinct))))
    at = np.fromiter(map(position.__getitem__, tokens), np.intp, len(tokens))
    t, x = t[at], x[at]
    counts = np.fromiter(map(len, lines), np.intp, len(lines))
    ends = np.cumsum(counts)
    short = np.flatnonzero(counts < 2)
    if short.size:
        fail(short[0], "a trace of fewer than two sites")
    starts = ends - counts
    odd = np.flatnonzero((t[starts] + x[starts]) % 2)
    if odd.size:
        fail(odd[0], "a trace that leaves the even sublattice")
    illegal = (np.diff(x) != 1) | (abs(np.diff(t)) != 1)
    illegal[ends[:-1] - 1] = False  # from one line's last site to the next line's first
    if illegal.any():
        i = int(np.argmax(illegal))
        fail(int(np.searchsorted(ends, i, side="right")),
             f"an illegal step {(int(t[i]), int(x[i]))} -> {(int(t[i + 1]), int(x[i + 1]))}")
    return Decomposition(t, x, counts, tuple(weights))
