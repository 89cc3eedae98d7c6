"""Shared builders for randomized test instances."""

from __future__ import annotations

import math
from bisect import bisect_right

from hypothesis import strategies as st

from brokenlines import BirthField, BoundaryFlow, FlowField, RectDomain, field_from_birth
from brokenlines.duality import transition_kernel
from brokenlines.flow import site_outflows
from brokenlines.lattice import HexDomain, edge_ne, edge_nw, edge_se, edge_sw, incident_edges
from brokenlines.lpp import birth_matrix
from brokenlines.streams import uniform


def exp_draw(seed: int, *key: int) -> float:
    return -math.log1p(-uniform(seed, *key))


def geom_draw(seed: int, lam: float, *key: int) -> int:
    return int(math.floor(math.log1p(-uniform(seed, *key)) / math.log(lam)))


def random_inputs(domain: RectDomain, seed: int, mode: str = "float", boundary: bool = True):
    """Random inflows and births: exponential in float mode, geometric in int."""
    if mode == "float":
        up = {y: exp_draw(seed, 1, *y) for y in domain.southwest_side} if boundary else {}
        down = {y: exp_draw(seed, 2, *y) for y in domain.northwest_side} if boundary else {}
        births = {y: exp_draw(seed, 3, *y) for y in domain.sites}
    else:
        up = {y: geom_draw(seed, 0.5, 1, *y) for y in domain.southwest_side} if boundary else {}
        down = {y: geom_draw(seed, 0.5, 2, *y) for y in domain.northwest_side} if boundary else {}
        births = {y: geom_draw(seed, 0.4, 3, *y) for y in domain.sites}
    return BoundaryFlow(up, down), BirthField(domain, births)


def random_field(domain: RectDomain, seed: int, mode: str = "float", boundary: bool = True):
    """Random conserved field grown from :func:`random_inputs`."""
    inflow, births = random_inputs(domain, seed, mode, boundary)
    return field_from_birth(domain, inflow, births, mode=mode)


def random_birth_field(domain: RectDomain, seed: int) -> BirthField:
    return BirthField(domain, {y: exp_draw(seed, 3, *y) for y in domain.sites})


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
        if y in up_in:
            mass[edge_sw(y)] = up_in[y]
        if y in down_in:
            mass[edge_nw(y)] = down_in[y]
        mass[edge_ne(y)], mass[edge_se(y)] = site_outflows(
            mass[edge_sw(y)], mass[edge_nw(y)], born[y]
        )
    return mass


def add_fields(a: FlowField, b: FlowField) -> FlowField:
    """Edgewise sum; the conservation law is linear so validity is preserved."""
    if a.domain != b.domain:
        raise ValueError("cannot add fields on different domains")
    if a.mode != b.mode:
        raise ValueError("cannot mix integer and float fields")
    return FlowField(a.domain, {e: a.mass[e] + b.mass[e] for e in a.domain.edges}, a.mode)


# Outer boundary classes of a rectangle: the sites of ``closure - S``
# adjacent to each side.  Exactly one class holds each outer site.
def outer_southwest(domain: RectDomain) -> tuple:
    return tuple(y for y in domain.outer_sites if domain.contains((y[0] + 1, y[1] + 1)))


def outer_northwest(domain: RectDomain) -> tuple:
    return tuple(y for y in domain.outer_sites if domain.contains((y[0] + 1, y[1] - 1)))


def outer_northeast(domain: RectDomain) -> tuple:
    return tuple(y for y in domain.outer_sites if domain.contains((y[0] - 1, y[1] - 1)))


def outer_southeast(domain: RectDomain) -> tuple:
    return tuple(y for y in domain.outer_sites if domain.contains((y[0] - 1, y[1] + 1)))


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


@st.composite
def hexagons(draw):
    """Hexagons with both kinks anywhere, around negative and positive x."""
    t0 = draw(st.integers(-3, 3))
    lo = draw(st.integers(-5, 3))
    lo += (t0 + lo) % 2
    xl, xu = [lo], [lo + 2 * draw(st.integers(0, 3))]
    kinks = t0 + draw(st.integers(0, 6)), t0 + draw(st.integers(0, 6))
    for t in range(t0, t0 + draw(st.integers(0, 8))):
        low, up = xl[-1] + (-1 if t < kinks[0] else 1), xu[-1] + (1 if t < kinks[1] else -1)
        if low > up:
            break
        xl.append(low)
        xu.append(up)
    t1 = t0 + len(xl) - 1
    return HexDomain(t0, t1, min(kinks[0], t1), min(kinks[1], t1), tuple(xl), tuple(xu))


# The sides and membership of each shape by their explicit definitions: the
# reference for the neighbour rule that both domains read off their plan.
def rect_sides(d: RectDomain) -> tuple[tuple, tuple, tuple, tuple]:
    """Southwest, northwest, northeast and southeast sides, each along its path."""
    n, m = d.n, d.m
    return (
        tuple((t, -t) for t in range(n)),
        tuple((t, t) for t in range(m)),
        tuple((m - 1 + k, m - 1 - k) for k in range(n)),
        tuple((n - 1 + k, -(n - 1) + k) for k in range(m)),
    )


def rect_contains(d: RectDomain, y) -> bool:
    t, x = y
    return (t + x) % 2 == 0 and 0 <= t + x <= 2 * (d.m - 1) and 0 <= t - x <= 2 * (d.n - 1)


def hex_sides(d: HexDomain) -> tuple[tuple, tuple, tuple, tuple]:
    """Each west side is the first column plus the lower (southwest) or upper
    (northwest) path up to its kink; each east side the last column plus the
    upper (northeast) or lower (southeast) path from its kink."""

    def side(column_t: int, path: tuple, ts: range) -> tuple:
        lo, hi = d._x_at(column_t)
        column = {(column_t, x) for x in range(lo, hi + 1, 2)}
        return tuple(sorted(column | {(t, path[t - d.t0]) for t in ts}))

    return (
        side(d.t0, d.x_lower, range(d.t0, d.kink_lower + 1)),
        side(d.t0, d.x_upper, range(d.t0, d.kink_upper + 1)),
        side(d.t1, d.x_upper, range(d.kink_upper, d.t1 + 1)),
        side(d.t1, d.x_lower, range(d.kink_lower, d.t1 + 1)),
    )


def hex_contains(d: HexDomain, y) -> bool:
    t, x = y
    return d.t0 <= t <= d.t1 and (t + x) % 2 == 0 and d._x_at(t)[0] <= x <= d._x_at(t)[1]
