"""Broken traces and lines, and the brick-diagram decomposition.

A broken trace walks upward in x with t-steps of +-1.  Every flow field on a
rectangle splits uniquely into an ordered family of weighted traces that
cross the domain; the splitting is read off the brick diagram, a cumulative
height function on the odd half-lattice whose vertical strips are exactly
the maximal crossing lines.

One storage form, views on read: a :class:`Decomposition` holds its traces
as arrays alone, and the :class:`BrokenTrace` objects are built only when
read.  Queries about single traces (:meth:`BrickDiagram.weight_of`,
:meth:`BrickDiagram.maximal_line`) go through one :func:`brick_diagram`
of the field, built once for any number of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import add, sub

import numpy as np

from .flow import (
    ABS_TOL,
    BirthField,
    BoundaryFlow,
    FlowField,
    as_mass,
    as_masses,
    infer_mode,
    mass_array,
    require_conserved,
    tolerance,
    total_crossing_flow,
)
from .lattice import RectDomain, Site, midpoints, require_rect


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

    @cached_property
    def left_corners(self) -> tuple[Site, ...]:
        """Sites where the trace turns at a local t-minimum; births live here."""
        ts = self.t_values
        return tuple(y for y, a, b in zip(self.sites[1:], ts, ts[2:]) if a == b == y[0] + 1)


def _crossing(domain: RectDomain, t: np.ndarray, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """For traces of ``counts`` sites each, laid end to end in ``t, x``: whether
    each spans the domain, with outer endpoints and an inner body."""
    plan = domain.plan
    inside = plan.find(plan.site_keys, t, x) >= 0
    outer = ~inside & (plan.find(plan.closure_keys, t, x) >= 0)
    last = np.cumsum(counts) - 1
    strays = np.bincount(np.repeat(np.arange(len(counts)), counts)[~inside], minlength=len(counts))
    return outer[last - counts + 1] & outer[last] & (strays == 2) & (counts > 2)


def compare_traces(a: BrokenTrace, b: BrokenTrace) -> Order:
    """Left/right order of two traces.

    ``a`` is right of ``b`` when it is nowhere earlier on shared heights and
    somewhere not earlier overall (the second clause decides disjoint
    domains).  Traces dominating each other both ways are reported EQUAL;
    on crossing traces that happens only for identical ones.
    """
    t = np.array(a.t_values + b.t_values)
    x = np.concatenate([np.arange(tr.x_low, tr.x_high + 1) for tr in (a, b)])
    counts = np.array([len(a.sites), len(b.sites)])
    a_right, b_right = (bool(v[0]) for v in _dominance(t, x, counts, [0], [1]))
    if a_right and b_right:
        return Order.EQUAL
    if a_right:
        return Order.RIGHT_OF
    if b_right:
        return Order.LEFT_OF
    return Order.INCOMPARABLE


def _dominance(t, x, counts, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Whether trace ``a[i]`` dominates trace ``b[i]``, and ``b[i]`` dominates
    ``a[i]``, for traces of ``counts`` sites laid end to end in ``t, x``.

    One trace dominates another when it is nowhere earlier on the heights
    ``x`` they share, or, sharing none, when its latest ``t`` is not before
    the other's earliest.
    """
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    ends = np.cumsum(counts)
    starts = ends - counts
    x_low, x_high = x[starts], x[ends - 1]
    low = np.maximum(x_low[a], x_low[b])
    shared = np.maximum(np.minimum(x_high[a], x_high[b]) - low + 1, 0)
    pair = np.repeat(np.arange(len(a)), shared)
    step = np.arange(len(pair)) - np.repeat(np.cumsum(shared) - shared, shared)
    at_a = np.repeat(starts[a] + low - x_low[a], shared) + step
    at_b = np.repeat(starts[b] + low - x_low[b], shared) + step
    gap = t[at_a] - t[at_b]
    a_earlier = np.bincount(pair[gap < 0], minlength=len(a))
    b_earlier = np.bincount(pair[gap > 0], minlength=len(a))
    t_min, t_max = np.minimum.reduceat(t, starts), np.maximum.reduceat(t, starts)
    apart = shared == 0
    a_over_b = np.where(apart, t_max[a] >= t_min[b], a_earlier == 0)
    b_over_a = np.where(apart, t_max[b] >= t_min[a], b_earlier == 0)
    return a_over_b, b_over_a


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
    def weight(self):
        if not self.intervals:
            return 0
        a, b = self.intervals[0]
        return b - a


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Crossing traces ordered left to right with their positive weights.

    Held as arrays alone: the sites of all traces lie end to end in the
    int64 arrays ``t`` and ``x``, ``counts[j]`` of them for trace ``j``, and
    ``line_weights`` holds the weights as Python numbers.  The arrays are
    trusted to hold valid traces.  :func:`compose` and the CSV writer read
    them; ``entries``, :meth:`traces` and iteration build the
    :class:`BrokenTrace` tuples on first read, and ``==`` compares the lines
    and their weights.
    """

    t: np.ndarray
    x: np.ndarray
    counts: np.ndarray
    line_weights: tuple

    @cached_property
    def entries(self) -> tuple[tuple[BrokenTrace, float], ...]:
        sites = list(zip(self.t.tolist(), self.x.tolist()))
        ends = np.cumsum(self.counts).tolist()
        traces = (BrokenTrace(tuple(sites[a:b])) for a, b in zip([0, *ends], ends))
        return tuple(zip(traces, self.line_weights))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self.entries == other.entries

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.entries)

    def traces(self) -> tuple[BrokenTrace, ...]:
        return tuple(t for t, _ in self.entries)

    def weights(self) -> tuple[float, ...]:
        return self.line_weights

    def total_weight(self):
        return sum(self.line_weights)


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
        lo, hi = self._site_ranges(*zip(*trace.sites))
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
        site_lo, site_hi = self._site_ranges(*zip(*trace.sites))
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
        t, x = self.domain.plan.decode(self.domain.plan.closure_keys[site[order]])
        q = self.breakpoints
        per_strip = np.bincount(strip, minlength=len(q))[1:]
        return Decomposition(t, x, per_strip, tuple(map(sub, q[1:], q[:-1])))

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
    dec = decomposition
    weights = list(dec.weights())
    if mode is None:
        mode = infer_mode(weights)
    w = as_masses(weights, mode, lambda i: f"line {i + 1}")  # their sum bounds every edge mass
    zero = np.flatnonzero(w == 0)
    if zero.size:
        raise ValueError(f"weights must be positive, got 0 at line {zero[0] + 1}")
    t, x, counts = dec.t, dec.x, dec.counts
    crossing = _crossing(domain, t, x, counts)
    if not crossing.all():
        j = int(np.argmin(crossing))
        line = slice(int(counts[:j].sum()), int(counts[: j + 1].sum()))
        sites = tuple(zip(t[line].tolist(), x[line].tolist()))
        raise ValueError(f"trace does not cross the domain: {sites}")
    # each line left of the next: the next dominates it, and it does not dominate the next
    pairs = np.arange(len(dec) - 1)
    over_next, next_over = _dominance(t, x, counts, pairs, pairs + 1)
    if not (next_over & ~over_next).all():
        raise ValueError("traces are not strictly ordered left to right")

    # the step from each trace's last site to the next trace's first is no step
    edges = np.delete(domain.plan.step_edges(t, x), np.cumsum(counts)[:-1] - 1)
    if (edges < 0).any():
        raise ValueError("a trace step leaves the domain's edges")
    values = np.zeros(len(domain.plan.edge_keys), w.dtype)
    np.add.at(values, edges, np.repeat(w, counts - 1))  # in trace order, like a loop
    return FlowField.from_values(domain, values, mode)


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
    edges = domain.plan.step_edges(*zip(*trace.sites))
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
    """Rows ``j, weight, sites`` with the sites as space-separated ``t:x`` tokens.

    Each distinct ``t`` and ``x`` is formatted once; a token joins the two.
    """
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


def decomposition_from_csv_rows(rows: list[list]) -> Decomposition:
    """Read :func:`decomposition_to_csv_rows` output; a header row or an empty
    row is skipped.

    Each distinct ``t:x`` token is parsed once; every line must then be a
    broken trace (two sites or more, an even start, steps of ``x + 1`` and
    ``t +- 1``), or ValueError names its row.
    """
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
