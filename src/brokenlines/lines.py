"""Broken traces and lines, and the brick-diagram decomposition.

A broken trace walks upward in x with t-steps of +-1.  Every flow field on a
rectangle splits uniquely into an ordered family of weighted traces that
cross the domain; the splitting is read off the brick diagram, a cumulative
height function on the odd half-lattice whose vertical strips are exactly
the maximal crossing lines.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .flow import (
    ABS_TOL,
    BirthField,
    BoundaryFlow,
    FlowField,
    as_mass,
    infer_mode,
    require_conserved,
    tolerance,
    total_crossing_flow,
    zero_field,
)
from .lattice import Domain, Edge, RectDomain, Site, incident_edges, midpoints, require_rect


class Order(Enum):
    LEFT_OF = "left_of"
    RIGHT_OF = "right_of"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class BrokenTrace:
    """Sites ``y_0 .. y_n`` with ``x`` increasing by one and ``t`` by +-1."""

    sites: tuple[Site, ...]

    def __post_init__(self) -> None:
        if len(self.sites) < 2:
            raise ValueError("a trace needs at least two sites")
        for (t0, x0), (t1, x1) in zip(self.sites, self.sites[1:]):
            if x1 != x0 + 1 or abs(t1 - t0) != 1:
                raise ValueError(f"illegal step {(t0, x0)} -> {(t1, x1)}")
        if (self.sites[0][0] + self.sites[0][1]) % 2 != 0:
            raise ValueError("trace leaves the even sublattice")

    @cached_property
    def _t_by_x(self) -> dict[int, int]:
        return {x: t for (t, x) in self.sites}

    @property
    def x_low(self) -> int:
        return self.sites[0][1]

    @property
    def x_high(self) -> int:
        return self.sites[-1][1]

    def t_at(self, x: int) -> int:
        return self._t_by_x[x]

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        # __post_init__ checked every step: a rising step is the up edge of its
        # first site, a falling one the down edge of its second
        return tuple(
            Edge(ta, xa, True) if tb > ta else Edge(tb, xb, False)
            for (ta, xa), (tb, xb) in zip(self.sites, self.sites[1:])
        )

    @cached_property
    def left_corners(self) -> tuple[Site, ...]:
        """Sites where the trace turns at a local t-minimum; births live here."""
        out = []
        for prev, cur, nxt in zip(self.sites, self.sites[1:], self.sites[2:]):
            if prev[0] == cur[0] + 1 and nxt[0] == cur[0] + 1:
                out.append(cur)
        return tuple(out)

    def t_span(self) -> tuple[int, int]:
        ts = [t for (t, _) in self.sites]
        return min(ts), max(ts)

    def is_subtrace_of(self, other: "BrokenTrace") -> bool:
        if self.x_low < other.x_low or self.x_high > other.x_high:
            return False
        return all(other.t_at(x) == t for (t, x) in self.sites)


def trace_in_closure(domain: Domain, trace: BrokenTrace) -> bool:
    """True when every trace edge touches the domain."""
    return all(e in domain.edge_set for e in trace.edges)


def trace_crosses(domain: Domain, trace: BrokenTrace) -> bool:
    """True when the trace spans the domain: outer endpoints, inner body."""
    first, last = trace.sites[0], trace.sites[-1]
    if domain.contains(first) or domain.contains(last):
        return False
    if not (domain.in_closure(first) and domain.in_closure(last)):
        return False
    return all(domain.contains(y) for y in trace.sites[1:-1])


def compare_traces(a: BrokenTrace, b: BrokenTrace) -> Order:
    """Left/right order of two traces.

    ``a`` is right of ``b`` when it is nowhere earlier on shared heights and
    somewhere not earlier overall (the second clause decides disjoint
    domains).  Traces dominating each other both ways are reported EQUAL;
    on crossing traces that happens only for identical ones.
    """
    a_right = _dominates(a, b)
    b_right = _dominates(b, a)
    if a_right and b_right:
        return Order.EQUAL
    if a_right:
        return Order.RIGHT_OF
    if b_right:
        return Order.LEFT_OF
    return Order.INCOMPARABLE


def _dominates(a: BrokenTrace, b: BrokenTrace) -> bool:
    lo = max(a.x_low, b.x_low)
    hi = min(a.x_high, b.x_high)
    if lo <= hi:
        return all(a.t_at(x) >= b.t_at(x) for x in range(lo, hi + 1))
    return a.t_span()[1] >= b.t_span()[0]


@dataclass(frozen=True)
class BrokenLine:
    """A trace carrying one half-open mass interval per edge.

    All intervals share a common width, the weight; the empty line has no
    intervals and weight zero.
    """

    trace: BrokenTrace
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.intervals:
            if len(self.intervals) != len(self.trace.edges):
                raise ValueError("need one interval per edge")
            widths = [b - a for a, b in self.intervals]
            spread = max(widths) - min(widths)
            if spread > tolerance(max(b for _, b in self.intervals), infer_mode(widths)):
                raise ValueError(f"interval widths differ by {spread}")

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def weight(self):
        if not self.intervals:
            return 0
        a, b = self.intervals[0]
        return b - a


@dataclass(frozen=True)
class Decomposition:
    """Crossing traces ordered left to right with their positive weights."""

    entries: tuple[tuple[BrokenTrace, float], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def traces(self) -> tuple[BrokenTrace, ...]:
        return tuple(t for t, _ in self.entries)

    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.entries)

    def total_weight(self):
        return sum(self.weights())


def _flanks(e: Edge) -> tuple[Site, Site]:
    """Midpoints below and above edge ``e``: crossing it eastward adds ``mass[e]``."""
    return (e.t, e.x + 1 if e.up else e.x - 1), (e.t + 1, e.x)


@dataclass(frozen=True)
class BrickDiagram:
    """Cumulative-coordinate view of a flow field on a rectangle.

    ``heights`` assigns every odd midpoint its cumulative coordinate; sorted
    distinct values form ``breakpoints``, and strip ``j`` is the band between
    breakpoints ``j - 1`` and ``j``.  Each closure site owns a brick, and
    ``site_range`` reads off the strips that pass through it.
    """

    domain: RectDomain
    mode: str
    breakpoints: tuple[float, ...]
    heights: dict[Site, float]

    @property
    def strip_count(self) -> int:
        return len(self.breakpoints) - 1

    def strip_weight(self, j: int):
        return self.breakpoints[j] - self.breakpoints[j - 1]

    def site_range(self, y: Site) -> tuple[int, int]:
        """Breakpoint indices ``lo, hi``: strips ``lo + 1 .. hi`` pass through ``y``.

        An inner site's brick runs from the midpoint west of it to the one
        east of it; an outer site's spans the flanks of its one domain edge.
        """
        t, x = y
        if self.domain.contains(y):
            lo_mid, hi_mid = (t - 1, x), (t + 1, x)
        else:
            (edge,) = (e for e in incident_edges(y) if e in self.domain.edge_set)
            lo_mid, hi_mid = _flanks(edge)
        q, h = self.breakpoints, self.heights
        return bisect_right(q, h[lo_mid]) - 1, bisect_right(q, h[hi_mid]) - 1

    def edge_range(self, e: Edge) -> tuple[int, int]:
        (lo_a, hi_a), (lo_b, hi_b) = self.site_range(e.base), self.site_range(e.head)
        return max(lo_a, lo_b), min(hi_a, hi_b)

    def trace_range(self, trace: BrokenTrace) -> tuple[int, int]:
        for y in trace.sites:
            if not self.domain.in_closure(y):
                raise ValueError(f"trace leaves the domain closure at {y}")
        ranges = [self.site_range(y) for y in trace.sites]
        return max(lo for lo, _ in ranges), min(hi for _, hi in ranges)

    def weight_of(self, trace: BrokenTrace):
        lo, hi = self.trace_range(trace)
        if hi <= lo:
            return 0 if self.mode == "int" else 0.0
        return self.breakpoints[hi] - self.breakpoints[lo]

    def decomposition(self) -> Decomposition:
        """The crossing traces left to right, one per strip, weighted by strip width."""
        strips: list[list[Site]] = [[] for _ in range(self.strip_count + 1)]
        for y in self.domain.closure:
            lo, hi = self.site_range(y)
            for j in range(lo + 1, hi + 1):
                strips[j].append(y)
        entries = []
        for j in range(1, self.strip_count + 1):
            trace = BrokenTrace(tuple(sorted(strips[j], key=lambda y: y[1])))
            entries.append((trace, self.strip_weight(j)))
        return Decomposition(tuple(entries))

    def to_dict(self) -> dict:
        return {
            "domain": self.domain.to_dict(),
            "mode": self.mode,
            "breakpoints": list(self.breakpoints),
            "heights": [
                {"t": t, "x": x, "p": self.heights[(t, x)]}
                for (t, x) in sorted(self.heights)
            ],
        }


def brick_diagram(field: FlowField) -> BrickDiagram:
    """Build the cumulative diagram of a conserved field on a rectangle.

    One sweep over the midpoints in increasing ``t``.  The first, west of
    the west corner, anchors the minimum at zero.  Every later midpoint is
    the upper flank of one or two domain edges from the column before; it
    takes its lower flank's height plus the mass of the ascending edge, or
    of the descending one when there is no ascending edge, and the other
    edge, where present, must agree within ``tolerance`` of the crossing
    flow.  Every domain edge has exactly one upper flank, so each is used
    or checked once.
    """
    domain = require_rect(field.domain, "the brick diagram")
    require_conserved(field)
    mass = field.mass
    is_int = field.mode == "int"
    slack = tolerance(total_crossing_flow(field), field.mode)

    anchor, *rest = midpoints(domain)
    heights: dict[Site, float] = {anchor: 0 if is_int else 0.0}
    for u, v in rest:
        crossings = [
            heights[_flanks(e)[0]] + mass[e]
            for e in (Edge(u - 1, v, True), Edge(u - 1, v, False))
            if e in mass
        ]
        if len(crossings) == 2 and abs(crossings[1] - crossings[0]) > slack:
            raise ValueError(f"inconsistent heights at midpoint {(u, v)}")
        heights[(u, v)] = crossings[0]

    # Deduplicate heights into strictly increasing breakpoints at the rounding level.
    eps = 0 if is_int else ABS_TOL * max(1.0, float(max(heights.values())))
    values = sorted(heights.values())
    breakpoints = [values[0]]
    for v in values[1:]:
        if v - breakpoints[-1] > eps:
            breakpoints.append(v)
    return BrickDiagram(domain, field.mode, tuple(breakpoints), heights)


def decompose(field: FlowField) -> Decomposition:
    """Split a field into its ordered family of weighted crossing traces."""
    return brick_diagram(field).decomposition()


def compose(
    domain: RectDomain,
    decomposition: Decomposition,
    mode: str | None = None,
) -> FlowField:
    """The unique field whose crossing traces are exactly the given ones.

    Built as the edgewise sum of ``weight * indicator(trace)``; the input
    must be strictly ordered left to right with positive weights.
    """
    require_rect(domain, "composition")
    traces = decomposition.traces()
    if mode is None:
        mode = infer_mode(decomposition.weights())
    weights = [as_mass(w, mode, f"line {j}") for j, w in enumerate(decomposition.weights(), 1)]
    if 0 in weights:
        raise ValueError(f"weights must be positive, got 0 at line {weights.index(0) + 1}")
    for trace in traces:
        if not trace_crosses(domain, trace):
            raise ValueError(f"trace does not cross the domain: {trace.sites}")
    for a, b in zip(traces, traces[1:]):
        if compare_traces(a, b) is not Order.LEFT_OF:
            raise ValueError("traces are not strictly ordered left to right")

    mass = zero_field(domain, mode).mass
    for trace, w in zip(traces, weights):
        for e in trace.edges:
            mass[e] += w
    return FlowField(domain, mass, mode)


def trace_weight(field: FlowField, trace: BrokenTrace):
    """Weight of the maximal line with the given trace: its strips' total width."""
    return brick_diagram(field).weight_of(trace)


def maximal_line(field: FlowField, trace: BrokenTrace) -> BrokenLine:
    """The widest line on ``trace`` compatible with the field.

    The common strip range of all trace sites is translated back onto each
    edge's own (0, mass] scale; an empty range yields the empty line.
    """
    diagram = brick_diagram(field)
    lo, hi = diagram.trace_range(trace)
    if hi <= lo:
        return BrokenLine(trace, ())
    q = diagram.breakpoints
    width = q[hi] - q[lo]
    intervals = []
    for e in trace.edges:
        start = q[lo] - q[diagram.edge_range(e)[0]]
        intervals.append((start, start + width))
    return BrokenLine(trace, tuple(intervals))


def line_fields(
    domain: RectDomain,
    trace: BrokenTrace,
    weight,
) -> tuple[BirthField, BoundaryFlow, FlowField]:
    """Birth, boundary and flow fields of one weighted trace.

    Births sit on the left corners; boundary inflow appears when an end
    segment enters the domain from the west sides.  For a crossing trace the
    flow field equals the forward construction run on these data.
    """
    mode = infer_mode([weight])
    weight = as_mass(weight, mode, "line weight")
    if not trace_in_closure(domain, trace):
        raise ValueError("trace leaves the domain closure")

    births = {y: weight for y in trace.left_corners if weight != 0}
    up_in: dict[Site, float] = {}
    down_in: dict[Site, float] = {}
    first, second = trace.sites[0], trace.sites[1]
    if not domain.contains(first) and second == (first[0] + 1, first[1] + 1):
        if weight != 0:
            up_in[second] = weight
    last, before = trace.sites[-1], trace.sites[-2]
    if not domain.contains(last) and last == (before[0] - 1, before[1] + 1):
        if weight != 0:
            down_in[before] = weight

    mass = zero_field(domain, mode).mass
    if weight != 0:
        for e in trace.edges:
            mass[e] = weight
    return (
        BirthField(domain, births),
        BoundaryFlow(up_in, down_in),
        FlowField(domain, mass, mode),
    )


def decomposition_to_csv_rows(dec: Decomposition) -> list[list]:
    rows = [["j", "weight", "sites"]]
    for j, (trace, w) in enumerate(dec, start=1):
        rows.append([j, w, " ".join(f"{t}:{x}" for (t, x) in trace.sites)])
    return rows


def decomposition_from_csv_rows(rows: list[list]) -> Decomposition:
    entries = []
    for row in rows:
        if not row or row[0] == "j":
            continue
        try:
            weight = int(row[1])
        except ValueError:
            weight = float(row[1])
        sites = tuple(
            (int(tok.split(":")[0]), int(tok.split(":")[1])) for tok in row[2].split()
        )
        entries.append((BrokenTrace(sites), weight))
    return Decomposition(tuple(entries))
