"""Broken traces and lines, and the brick-diagram decomposition.

A broken trace walks upward in x with t-steps of +-1.  Every flow field on a
rectangle splits uniquely into an ordered family of weighted traces that
cross the domain; the splitting is read off the brick diagram, a cumulative
height function on the odd half-lattice whose vertical strips are exactly
the maximal crossing lines.  The left-to-right order of the lines is
checked where a family of them comes in, by :func:`compose`.

One storage form, views on read: a :class:`Decomposition` holds its traces
as arrays alone, and the :class:`BrokenTrace` objects are built only when
read.  Queries about single traces (:meth:`BrickDiagram.weight_of`,
:meth:`BrickDiagram.maximal_line`) go through one :func:`brick_diagram`
of the field, built once for any number of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import sub

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
from .lattice import RectDomain, Site, in_midpoint_order, midpoints


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
    def left_corners(self) -> tuple[Site, ...]:
        """Sites where the trace turns at a local t-minimum; births live here."""
        sites = self.sites
        return tuple(y for y, a, b in zip(sites[1:], sites, sites[2:]) if a[0] == b[0] == y[0] + 1)


def _crossing(domain: RectDomain, t: np.ndarray, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """For traces of ``counts`` sites each, laid end to end in ``t, x``: whether
    each spans the domain, with outer endpoints and an inner body."""
    inside = domain.find_sites(t, x) >= 0
    outer = ~inside & (domain.find_closure(t, x) >= 0)
    last = np.cumsum(counts) - 1
    strays = np.bincount(np.repeat(np.arange(len(counts)), counts)[~inside], minlength=len(counts))
    return outer[last - counts + 1] & outer[last] & (strays == 2) & (counts > 2)


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
    :class:`BrokenTrace` tuples on first read, one ``(t, x)`` tuple per
    distinct site shared by every trace through it, and ``==`` compares the
    lines and their weights.
    """

    t: np.ndarray
    x: np.ndarray
    counts: np.ndarray
    line_weights: tuple

    @cached_property
    def entries(self) -> tuple[tuple[BrokenTrace, float], ...]:
        # the first tuple built for a site stands for it in every trace through it;
        # a dict, not a sort of the site arrays, whose one-word-per-site temporaries
        # left malloc's heap larger by an amount that varied from process to process
        shared = {}
        sites = [shared.setdefault(site, site) for site in zip(self.t.tolist(), self.x.tolist())]
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
    """Cumulative-coordinate view of a flow field on an ``n x m`` rectangle.

    ``grid`` holds the cumulative coordinate of each midpoint, a face corner
    of the site grid: ``grid[a, b]`` is the corner between rows ``a - 1`` and
    ``a`` and columns ``b - 1`` and ``b`` of the matrix, 0-based.  Sorted
    distinct values form ``breakpoints``, and strip ``j`` is the band between
    breakpoints ``j - 1`` and ``j``.  Closure site ``(i, j)``, 0-based from
    ``-1`` to ``n`` and ``m``, owns the brick from corner ``(i, j)`` to corner
    ``(i + 1, j + 1)``, each clipped onto the grid, and ``site_range`` reads
    off the strips that pass through it.
    """

    domain: RectDomain
    mode: str
    breakpoints: tuple[float, ...]
    grid: np.ndarray

    @property
    def strip_count(self) -> int:
        return len(self.breakpoints) - 1

    def _midpoint_heights(self) -> zip:
        """Each midpoint with its height, in :func:`lattice.midpoints` order."""
        return zip(midpoints(self.domain), in_midpoint_order(self.grid).tolist())

    @cached_property
    def heights(self) -> dict[Site, float]:
        """The heights of ``grid`` keyed by midpoint."""
        return dict(self._midpoint_heights())

    @cached_property
    def _brick_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`site_range` of every closure site, in closure order."""
        i, j = self.domain.closure_cells
        n, m = self.domain.n, self.domain.m
        q = np.array(self.breakpoints, dtype=self.grid.dtype)
        # the last breakpoint at or below each corner, read at each brick's two corners
        below = np.searchsorted(q, self.grid, side="right") - 1
        return below[i.clip(0, n), j.clip(0, m)], below[(i + 1).clip(0, n), (j + 1).clip(0, m)]

    def _site_ranges(self, t, x) -> tuple[np.ndarray, np.ndarray]:
        index = self.domain.find_closure(t, x)
        if (index < 0).any():
            k = int(np.argmax(index < 0))
            raise ValueError(f"trace leaves the domain closure at {(int(t[k]), int(x[k]))}")
        lo, hi = self._brick_ranges
        return lo[index], hi[index]

    def site_range(self, y: Site) -> tuple[int, int]:
        """Breakpoint indices ``lo, hi``: strips ``lo + 1 .. hi`` pass through ``y``."""
        lo, hi = self._site_ranges([y[0]], [y[1]])
        return int(lo[0]), int(hi[0])

    def weight_of(self, trace: BrokenTrace):
        site_lo, site_hi = self._site_ranges(*zip(*trace.sites))
        lo, hi = int(site_lo.max()), int(site_hi.min())
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
        A trace meets each ``x`` once, so ``strip * span + x - x_min`` is a
        unique key per pair, and one plain sort of it orders the traces.
        """
        lo, hi = self._brick_ranges
        counts = np.maximum(hi - lo, 0)
        site = np.repeat(np.arange(len(counts)), counts)
        first = np.cumsum(counts) - counts
        strip = np.repeat(lo + 1 - first, counts) + np.arange(len(site))
        closure_t, closure_x = self.domain.points(self.domain.closure_cells)
        x_min = closure_x.min()
        span = closure_x.max() - x_min + 1
        site = site[np.argsort(strip * span + (closure_x[site] - x_min))]
        t, x = closure_t[site], closure_x[site]
        q = self.breakpoints
        per_strip = np.bincount(strip, minlength=len(q))[1:]
        return Decomposition(t, x, per_strip, tuple(map(sub, q[1:], q[:-1])))

    def to_dict(self) -> dict:
        return {
            "domain": self.domain.to_dict(),
            "mode": self.mode,
            "breakpoints": list(self.breakpoints),
            "heights": [{"t": t, "x": x, "p": p} for (t, x), p in self._midpoint_heights()],
        }


def brick_diagram(field: FlowField) -> BrickDiagram:
    """Build the cumulative diagram of a conserved field on a rectangle.

    The heights are a potential on the ``(n + 1, m + 1)`` grid of face
    corners: crossing a domain edge eastward, from the corner below it to the
    one above it, adds the edge's mass.  The ascending edges are the steps
    between rows, ``up[a, b]`` from corner ``(a, b)`` to ``(a + 1, b)``, and
    the descending ones the steps between columns, ``down[a, b]`` from
    ``(a, b)`` to ``(a, b + 1)``.  Corner ``(0, 0)``, west of the west corner,
    anchors the minimum at zero; row 0 is the running sum of its descending
    edges, and each column the running sum of its ascending ones from there.
    Every other descending edge must then agree with the heights of its two
    corners within ``tolerance`` of the crossing flow.
    """
    domain = field.domain
    require_conserved(field)
    mass = field.values
    slack = tolerance(total_crossing_flow(field), field.mode)

    n, m = domain.n, domain.m
    i, j = domain.cells
    sw, nw, ne, se = mass[domain.incident]
    up = np.empty((n, m + 1), mass.dtype)
    up[i, j], up[i, j + 1] = sw, ne
    down = np.empty((n + 1, m), mass.dtype)
    down[i, j], down[i + 1, j] = nw, se
    grid = np.zeros((n + 1, m + 1), mass.dtype)
    grid[0, 1:] = down[0]
    grid[0] = np.cumsum(grid[0])  # from the anchor's zero, as 0 + down[0, 0] + ..
    grid[1:] = up
    grid = np.cumsum(grid, axis=0)
    bad = abs(grid[1:, :-1] + down[1:] - grid[1:, 1:]) > slack
    if bad.any():
        first = np.argmax(in_midpoint_order(np.pad(bad, ((1, 0), (1, 0)))))
        raise ValueError(f"inconsistent heights at midpoint {midpoints(domain)[first]}")

    # Deduplicate heights into strictly increasing breakpoints at the rounding
    # level: each height is compared with the last one kept.  Equal heights
    # never both survive, and where every gap exceeds the level all do.
    values = np.sort(grid, axis=None)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    breakpoints = values.tolist()
    eps = 0 if field.mode == "int" else ABS_TOL * max(1.0, float(values[-1]))
    if not (np.diff(values) > eps).all():
        breakpoints = breakpoints[:1]
        for v in values[1:].tolist():
            if v - breakpoints[-1] > eps:
                breakpoints.append(v)
    return BrickDiagram(domain, field.mode, tuple(breakpoints), grid)


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
    edges = np.delete(domain.step_edges(t, x), np.cumsum(counts)[:-1] - 1)
    if (edges < 0).any():
        raise ValueError("a trace step leaves the domain's edges")
    values = np.zeros(domain.edge_count, w.dtype)
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
    edges = domain.step_edges(*zip(*trace.sites))
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
    values = np.zeros(domain.edge_count, w.dtype)
    values[edges] = w
    return (
        BirthField(domain, births),
        BoundaryFlow(up_in, down_in),
        FlowField.from_values(domain, values, mode),
    )


def _ascii_words(values: np.ndarray, suffix: str) -> tuple[np.ndarray, np.ndarray]:
    """Each value formatted with ``suffix``, as a NUL-padded row of 1-, 2-, 4- or
    8-byte words, and the length of its text.

    Each distinct value is formatted once.  Values that span fewer integers
    than they number, as a lattice's coordinates do, find their row by offset
    (several times faster than a sort); others find it through a sort.
    """
    low, high = (int(values.min()), int(values.max())) if len(values) else (0, -1)
    if high - low < len(values):
        distinct, at = low + np.arange(high - low + 1), values - low
    else:
        distinct, at = np.unique(values, return_inverse=True)
    text = np.array([f"{v}{suffix}" for v in distinct.tolist()], dtype=bytes)
    word = min(1 << (text.itemsize - 1).bit_length(), 8)
    width = -(-text.itemsize // word) * word
    words = text.astype(f"S{width}").view(f"u{word}").reshape(len(distinct), width // word)
    return words[at], np.char.str_len(text).astype(np.int8)[at]


def decomposition_to_csv_rows(dec: Decomposition) -> list[list]:
    """Rows ``j, weight, sites`` with the sites as space-separated ``t:x`` tokens.

    Each token is a ``t`` row and an ``x`` row of :func:`_ascii_words` side by
    side; with the padding dropped, every token and a space after it lie in one
    text, and each line's cell is cut out of that text.
    """
    heads, head_sizes = _ascii_words(dec.t, ":")
    tails, tail_sizes = _ascii_words(dec.x, " ")
    layout = [("t", heads.dtype, heads.shape[1:]), ("x", tails.dtype, tails.shape[1:])]
    tokens = np.empty(len(heads), layout)
    tokens["t"], tokens["x"] = heads, tails
    text = tokens.tobytes().translate(None, b"\0").decode("ascii")
    bounds = np.zeros(len(tokens) + 1, np.int64)
    np.cumsum(head_sizes + tail_sizes, out=bounds[1:])
    ends = np.cumsum(dec.counts)
    rows = [["j", "weight", "sites"]]
    for j, (a, b, w) in enumerate(
        zip(bounds[ends - dec.counts].tolist(), bounds[ends].tolist(), dec.weights()), start=1
    ):
        rows.append([j, w, text[a : b - 1]])
    return rows


_PLAIN_DIGITS = 18  # 10**18 - 1 < 2**63 - 1: a plain coordinate always fits int64


def _plain_coordinates(b: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray | None:
    """The integer ``-?[0-9]{1,18}`` in ``b[first:last]`` for each pair of ends,
    or None unless every one is such; decoded one digit place at a time, from
    the last digit of every field at once."""
    negative = b[first] == ord("-")
    size = last - first - negative
    if not ((size > 0) & (size <= _PLAIN_DIGITS)).all():
        return None
    value = np.zeros(len(size), np.int64)
    at = last - 1
    for place in range(size.max(initial=0)):
        digit = b.take(at, mode="clip") - ord("0")
        digit[size <= place] = 0
        if (digit > 9).any():
            return None
        value += digit.astype(np.int64) * 10**place
        at -= 1
    return np.negative(value, out=value, where=negative)


def _plain_sites(cells: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``t``, ``x`` and the per-cell site counts of the ``sites`` cells, read as
    one byte array, or None unless every cell is ASCII and every token in it is
    ``-?[0-9]{1,18}:-?[0-9]{1,18}`` between spaces.

    The cells are joined by newlines.  Tokens are the runs between separators,
    as ``str.split`` finds them in such text, and each must hold one colon.
    A plain coordinate reads as ``int()`` reads it.
    """
    text = "\n".join([*cells, ""])
    if not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), np.uint8)
    newline = b == ord("\n")
    newlines = np.flatnonzero(newline)
    if len(newlines) != len(cells):
        return None
    after = np.flatnonzero(newline | (b == ord(" ")))
    before = np.concatenate(([-1], after))[:-1]
    run = after - before > 1
    starts, ends = before[run] + 1, after[run]
    colons = np.flatnonzero(b == ord(":"))
    if len(colons) != len(starts) or ((colons < starts) | (colons >= ends)).any():
        return None
    t = _plain_coordinates(b, starts, colons)
    x = _plain_coordinates(b, colons + 1, ends)
    if t is None or x is None:
        return None
    return t, x, np.diff(np.searchsorted(starts, newlines), prepend=0)


def _token_sites(cells: list[str], fail) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``t``, ``x`` and the per-cell site counts of the ``sites`` cells, token by
    token: ``str.split`` splits each cell, and ``int()`` reads each distinct
    token once.  ``fail(line, what)`` names the first token that is not ``t:x``,
    and then the first beyond 64 bits."""
    lines = [cell.split() for cell in cells]
    tokens = list(chain.from_iterable(lines))
    distinct = dict.fromkeys(tokens)

    def fail_at(token: str, what: str):
        fail(next(j for j, line in enumerate(lines) if token in line), f"a site {token!r} {what}")

    for token in distinct:
        t, _, x = token.partition(":")
        try:
            distinct[token] = (int(t), int(x))
        except ValueError:
            fail_at(token, "that is not of the form t:x")
    fits = range(-(1 << 63), 1 << 63)
    for token, (t, x) in distinct.items():
        if t not in fits or x not in fits:
            fail_at(token, "beyond 64 bits")
    t, x = np.array([distinct[token] for token in tokens], np.int64).reshape(-1, 2).T
    return t, x, np.fromiter(map(len, lines), np.intp, len(lines))


def decomposition_from_csv_rows(rows: list[list]) -> Decomposition:
    """Read :func:`decomposition_to_csv_rows` output; a header row or an empty
    row is skipped.

    The sites are whitespace-separated ``t:x`` tokens of integers as ``int()``
    reads them.  Plain ASCII tokens are read as one byte array
    (:func:`_plain_sites`); any other input goes token by token
    (:func:`_token_sites`), with the same result.  Every line must then be a
    broken trace (two sites or more, an even start, steps of ``x + 1`` and
    ``t +- 1``), or ValueError names its row.
    """
    numbers, weights, cells = [], [], []
    for k, row in enumerate(rows, start=1):
        if not row or row[0] == "j":
            continue
        if len(row) < 3:
            raise ValueError(f"row {k} has {len(row)} columns, not j, weight, sites")
        try:  # int() reads no ".", so such a weight goes straight to float()
            weights.append(float(row[1]) if "." in row[1] else int(row[1]))
        except ValueError:
            try:
                weights.append(float(row[1]))
            except ValueError:
                raise ValueError(f"row {k} has a weight that is not a number: {row[1]!r}") from None
        numbers.append(k)
        cells.append(row[2])

    def fail(line: int, what: str):
        raise ValueError(f"row {numbers[line]} has {what}")

    t, x, counts = _plain_sites(cells) or _token_sites(cells, fail)
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
