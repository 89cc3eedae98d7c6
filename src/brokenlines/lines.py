"""Broken traces and lines, and the brick-diagram decomposition.

A broken trace walks upward in x with t-steps of +-1.  Every flow field on a
rectangle splits uniquely into an ordered family of weighted traces that
cross the domain; the splitting is read off the brick diagram, a cumulative
height function on the odd half-lattice whose vertical strips are exactly
the maximal crossing lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import ge

import numpy as np

from .flow import (
    ABS_TOL,
    BirthField,
    BoundaryFlow,
    FlowField,
    as_mass,
    infer_mode,
    mass_array,
    require_conserved,
    tolerance,
    total_crossing_flow,
)
from .lattice import Domain, Edge, RectDomain, Site, midpoints, require_rect


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
    def t_values(self) -> tuple[int, ...]:
        """The ``t`` of each site, indexed by ``x - x_low``."""
        return tuple(t for t, _ in self.sites)

    @property
    def x_low(self) -> int:
        return self.sites[0][1]

    @property
    def x_high(self) -> int:
        return self.sites[-1][1]

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The sites' ``t`` and ``x`` as two arrays, for the domain's index plans."""
        return np.array(self.t_values), np.arange(self.x_low, self.x_high + 1)

    def t_at(self, x: int) -> int:
        if not self.x_low <= x <= self.x_high:
            raise KeyError(x)
        return self.t_values[x - self.x_low]

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
        ts = self.t_values
        return tuple(y for y, a, b in zip(self.sites[1:], ts, ts[2:]) if a == b == y[0] + 1)

    def t_span(self) -> tuple[int, int]:
        return min(self.t_values), max(self.t_values)

    def is_subtrace_of(self, other: "BrokenTrace") -> bool:
        if self.x_low < other.x_low or self.x_high > other.x_high:
            return False
        start = self.x_low - other.x_low
        return other.t_values[start : start + len(self.t_values)] == self.t_values


def trace_in_closure(domain: Domain, trace: BrokenTrace) -> bool:
    """True when every trace edge touches the domain."""
    return bool((domain.plan.step_edges(*trace._arrays()) >= 0).all())


def _crossing(domain: Domain, t: np.ndarray, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """For traces of ``counts`` sites each, laid end to end in ``t, x``: whether
    each spans the domain, with outer endpoints and an inner body."""
    plan = domain.plan
    inside = plan.find(plan.site_keys, t, x) >= 0
    outer = ~inside & (plan.find(plan.closure_keys, t, x) >= 0)
    last = np.cumsum(counts) - 1
    strays = np.bincount(np.repeat(np.arange(len(counts)), counts)[~inside], minlength=len(counts))
    return outer[last - counts + 1] & outer[last] & (strays == 2)


def trace_crosses(domain: Domain, trace: BrokenTrace) -> bool:
    """True when the trace spans the domain: outer endpoints, inner body."""
    return bool(_crossing(domain, *trace._arrays(), np.array([len(trace.sites)]))[0])


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
    hi = min(a.x_high, b.x_high) + 1
    if lo >= hi:
        return a.t_span()[1] >= b.t_span()[0]
    a_t, b_t = a.t_values[lo - a.x_low : hi - a.x_low], b.t_values[lo - b.x_low : hi - b.x_low]
    return all(map(ge, a_t, b_t))


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
            if len(self.intervals) != len(self.trace.sites) - 1:
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


@dataclass(frozen=True, eq=False)
class BrickDiagram:
    """Cumulative-coordinate view of a flow field on a rectangle.

    ``height_values`` holds each midpoint's cumulative coordinate, in
    :func:`lattice.midpoints` order; sorted distinct values form ``breakpoints``,
    and strip ``j`` is the band between breakpoints ``j - 1`` and ``j``.  Each
    closure site owns a brick (:class:`lattice.MidpointPlan`), and
    ``site_range`` reads off the strips that pass through it.
    """

    domain: RectDomain
    mode: str
    breakpoints: tuple[float, ...]
    height_values: np.ndarray

    @property
    def strip_count(self) -> int:
        return len(self.breakpoints) - 1

    def strip_weight(self, j: int):
        return self.breakpoints[j] - self.breakpoints[j - 1]

    @cached_property
    def heights(self) -> dict[Site, float]:
        """``height_values`` keyed by midpoint."""
        return dict(zip(midpoints(self.domain), self.height_values.tolist()))

    @cached_property
    def _brick_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`site_range` of every closure site, in closure order."""
        plan = self.domain.midpoint_plan
        h = self.height_values
        q = np.array(self.breakpoints, dtype=h.dtype)
        bricks = (plan.brick_lo, plan.brick_hi)
        return tuple(np.searchsorted(q, h[b], side="right") - 1 for b in bricks)

    def _site_ranges(self, t, x) -> tuple[np.ndarray, np.ndarray]:
        plan = self.domain.plan
        index = plan.find(plan.closure_keys, t, x)
        if (index < 0).any():
            k = int(np.argmax(index < 0))
            raise ValueError(f"trace leaves the domain closure at {(int(t[k]), int(x[k]))}")
        lo, hi = self._brick_ranges
        return lo[index], hi[index]

    def site_range(self, y: Site) -> tuple[int, int]:
        """Breakpoint indices ``lo, hi``: strips ``lo + 1 .. hi`` pass through ``y``."""
        lo, hi = self._site_ranges([y[0]], [y[1]])
        return int(lo[0]), int(hi[0])

    def trace_range(self, trace: BrokenTrace) -> tuple[int, int]:
        lo, hi = self._site_ranges(*trace._arrays())
        return int(lo.max()), int(hi.min())

    def weight_of(self, trace: BrokenTrace):
        lo, hi = self.trace_range(trace)
        if hi <= lo:
            return 0 if self.mode == "int" else 0.0
        return self.breakpoints[hi] - self.breakpoints[lo]

    def maximal_line(self, trace: BrokenTrace) -> BrokenLine:
        """The widest line on ``trace`` compatible with the field.

        The common strip range of all trace sites is translated back onto
        each edge's own (0, mass] scale, whose bottom is the higher of its two
        end sites' bottoms; an empty range yields the empty line.
        """
        site_lo, site_hi = self._site_ranges(*trace._arrays())
        lo, hi = int(site_lo.max()), int(site_hi.min())
        if hi <= lo:
            return BrokenLine(trace, ())
        q = self.breakpoints
        width = q[hi] - q[lo]
        starts = [q[lo] - q[k] for k in np.maximum(site_lo[:-1], site_lo[1:]).tolist()]
        return BrokenLine(trace, tuple((start, start + width) for start in starts))

    def decomposition(self) -> Decomposition:
        """The crossing traces left to right, one per strip, weighted by strip width.

        Every closure site's strip range at once, as in :meth:`site_range`;
        strip ``j``'s trace is the sites whose range holds it, sorted by ``x``.
        """
        plan = self.domain.midpoint_plan
        lo, hi = self._brick_ranges
        counts = np.maximum(hi - lo, 0)
        site = np.repeat(np.arange(len(counts)), counts)
        first = np.cumsum(counts) - counts
        strip = np.repeat(lo + 1 - first, counts) + np.arange(len(site))
        order = np.lexsort((plan.closure_x[site], strip))
        closure = self.domain.closure
        sites = [closure[i] for i in site[order].tolist()]
        ends = np.cumsum(np.bincount(strip, minlength=self.strip_count + 1)).tolist()
        return Decomposition(tuple(
            (BrokenTrace(tuple(sites[ends[j - 1] : ends[j]])), self.strip_weight(j))
            for j in range(1, self.strip_count + 1)
        ))

    def to_dict(self) -> dict:
        return {
            "domain": self.domain.to_dict(),
            "mode": self.mode,
            "breakpoints": list(self.breakpoints),
            "heights": [
                {"t": t, "x": x, "p": p}
                for (t, x), p in zip(midpoints(self.domain), self.height_values.tolist())
            ],
        }


def brick_diagram(field: FlowField) -> BrickDiagram:
    """Build the cumulative diagram of a conserved field on a rectangle.

    One sweep over the midpoints in increasing ``t``, a column at a time
    (see :class:`lattice.MidpointPlan`).  The first, west of the west
    corner, anchors the minimum at zero.  Every later midpoint is the upper
    flank of one or two domain edges from the column before; it takes its
    lower flank's height plus the mass of the ascending edge, or of the
    descending one when there is no ascending edge, and the other edge,
    where present, must agree within ``tolerance`` of the crossing flow.
    Every domain edge has exactly one upper flank, so each is used or
    checked once.
    """
    domain = require_rect(field.domain, "the brick diagram")
    require_conserved(field)
    mass = field.values
    slack = tolerance(total_crossing_flow(field), field.mode)

    plan = domain.midpoint_plan
    heights = np.zeros(len(plan.keys), mass.dtype)
    for col in plan.columns[1:]:
        heights[col] = heights[plan.low[col]] + mass[plan.edge[col]]
    gap = abs(heights[plan.low2] + mass[plan.edge2] - heights[plan.both])
    bad = np.flatnonzero(gap > slack)
    if bad.size:
        raise ValueError(f"inconsistent heights at midpoint {midpoints(domain)[plan.both[bad[0]]]}")

    # Deduplicate heights into strictly increasing breakpoints at the rounding
    # level: each height is compared with the last one kept.  Equal heights
    # never both survive, and where every gap exceeds the level all do.
    values = np.sort(heights)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    breakpoints = values.tolist()
    eps = 0 if field.mode == "int" else ABS_TOL * max(1.0, float(values[-1]))
    if not (np.diff(values) > eps).all():
        breakpoints = breakpoints[:1]
        for v in values[1:].tolist():
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
    counts = np.array([len(trace.sites) for trace in traces], dtype=np.intp)
    sites = chain.from_iterable(chain.from_iterable(trace.sites for trace in traces))
    flat = np.fromiter(sites, np.int64, 2 * int(counts.sum()))
    t, x = flat[0::2], flat[1::2]
    crossing = _crossing(domain, t, x, counts)
    if not crossing.all():
        raise ValueError(f"trace does not cross the domain: {traces[np.argmin(crossing)].sites}")
    for a, b in zip(traces, traces[1:]):
        if compare_traces(a, b) is not Order.LEFT_OF:
            raise ValueError("traces are not strictly ordered left to right")

    # the step from each trace's last site to the next trace's first is no step
    edges = np.delete(domain.plan.step_edges(t, x), np.cumsum(counts)[:-1] - 1)
    if (edges < 0).any():
        raise ValueError("a trace step leaves the domain's edges")
    w = mass_array(weights, mode)  # their sum bounds every edge mass
    values = np.zeros(len(domain.plan.edge_keys), w.dtype)
    np.add.at(values, edges, np.repeat(w, counts - 1))  # in trace order, like a loop
    return FlowField.from_values(domain, values, mode)


def trace_weight(field: FlowField, trace: BrokenTrace):
    """Weight of the maximal line with the given trace: its strips' total width.

    Builds the diagram for one query; probe many traces of one field through
    :meth:`BrickDiagram.weight_of` on one :func:`brick_diagram`.
    """
    return brick_diagram(field).weight_of(trace)


def maximal_line(field: FlowField, trace: BrokenTrace) -> BrokenLine:
    """The widest line on ``trace``; see :meth:`BrickDiagram.maximal_line`.

    Builds the diagram for one query, like :func:`trace_weight`.
    """
    return brick_diagram(field).maximal_line(trace)


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
    edges = domain.plan.step_edges(*trace._arrays())
    if (edges < 0).any():
        raise ValueError("trace leaves the domain closure")

    births = {y: weight for y in trace.left_corners if weight != 0}
    up_in: dict[Site, float] = {}
    down_in: dict[Site, float] = {}
    first, second = trace.sites[0], trace.sites[1]
    if weight != 0 and not domain.contains(first) and second == (first[0] + 1, first[1] + 1):
        up_in[second] = weight
    last, before = trace.sites[-1], trace.sites[-2]
    if weight != 0 and not domain.contains(last) and last == (before[0] - 1, before[1] + 1):
        down_in[before] = weight

    w = mass_array([weight], mode)
    values = np.zeros(len(domain.plan.edge_keys), w.dtype)
    values[edges] = w
    return (
        BirthField(domain, births),
        BoundaryFlow(up_in, down_in),
        FlowField.from_values(domain, values, mode),
    )


def decomposition_to_csv_rows(dec: Decomposition) -> list[list]:
    rows = [["j", "weight", "sites"]]
    for j, (trace, w) in enumerate(dec, start=1):
        rows.append([j, w, " ".join(f"{t}:{x}" for (t, x) in trace.sites)])
    return rows


def decomposition_from_csv_rows(rows: list[list]) -> Decomposition:
    entries = []
    for k, row in enumerate(rows, start=1):
        if not row or row[0] == "j":
            continue
        if len(row) < 3:
            raise ValueError(f"row {k} has {len(row)} columns, not j, weight, sites")
        try:
            weight = int(row[1])
        except ValueError:
            weight = float(row[1])
        try:
            parts = (token.partition(":") for token in row[2].split())
            sites = tuple((int(t), int(x)) for t, _, x in parts)
        except ValueError:
            raise ValueError(f"row {k} has a site that is not of the form t:x") from None
        entries.append((BrokenTrace(sites), weight))
    return Decomposition(tuple(entries))
