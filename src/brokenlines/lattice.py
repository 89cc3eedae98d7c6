"""Geometry of the tilted integer lattice and its finite domains.

Sites are pairs ``(t, x)`` with ``t + x`` even; edges join sites at diagonal
distance 1 in each coordinate.  A rectangular domain is the degenerate case
of a hexagonal one and is the only shape on which the decomposition
machinery operates; hexagonal domains support membership, boundary queries
and the Markov evolution.  Both build the same index arrays from their
column bounds (:class:`ColumnPlan`, :class:`MidpointPlan`), which the
sweeps over ``t``-columns in ``flow`` and ``lines`` run on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from typing import NamedTuple

import numpy as np

Site = tuple[int, int]


class Edge(NamedTuple):
    """Canonical edge id: base site (smaller t) plus slope.

    ``up=True`` joins ``(t, x)`` to ``(t+1, x+1)``, ``up=False`` to
    ``(t+1, x-1)``.  Every lattice edge has exactly one such id.
    """

    t: int
    x: int
    up: bool

    @property
    def base(self) -> Site:
        return (self.t, self.x)


class ColumnPlan(NamedTuple):
    """Index arrays of one domain, for sweeps one ``t``-column at a time.

    A point ``(t, x)`` is keyed ``(t - t_lo) * width + (x - x_lo)`` on a box
    two steps wider than the domain on every side, and an edge by twice its
    base's key, plus one when it descends.  Sorting keys therefore sorts
    points by ``(t, x)`` and edges in canonical order, so positions in the
    sorted key arrays index ``domain.sites``, ``domain.closure`` and
    ``domain.edges``.  Only this module forms keys or takes edge keys apart:
    other modules look points and edges up by their coordinates and read the
    edges' coordinates from :meth:`edge_points`.
    """

    t_lo: int
    x_lo: int
    width: int
    site_keys: np.ndarray
    closure_keys: np.ndarray
    edge_keys: np.ndarray
    incident: np.ndarray  # (4, sites): the sw, nw, ne, se edge index of each site
    columns: tuple[slice, ...]  # the sites of each t, in order

    def key(self, t, x) -> np.ndarray:
        """Key of each point ``(t, x)``, exact for int64 arrays and for Python
        ints of any size: each coordinate is first clipped onto the rim of the
        box, where no closure point lies, so a point outside the box never keys
        one inside and no key wraps around 64 bits."""
        w = self.width
        t = _clipped(t, self.t_lo, self.t_lo + int(self.closure_keys[-1]) // w + 1) - self.t_lo
        return t * w + (_clipped(x, self.x_lo, self.x_lo + w - 1) - self.x_lo)

    def find(self, sorted_keys: np.ndarray, t, x) -> np.ndarray:
        """Position of each point ``(t, x)`` in ``sorted_keys``, -1 where it is absent."""
        return _find(sorted_keys, self.key(t, x))

    def find_edges(self, t, x, down) -> np.ndarray:
        """Canonical index of each edge from ``(t, x)``, descending where ``down``; -1 if none."""
        return _find(self.edge_keys, 2 * self.key(t, x) + down)

    def edge_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Base ``t``, base ``x`` and descending bit (1 or 0) of every edge, in canonical order."""
        t, x = self.decode(self.edge_keys >> 1)
        return t, x, self.edge_keys & 1

    def decode(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return keys // self.width + self.t_lo, keys % self.width + self.x_lo

    def points(self, keys: np.ndarray) -> tuple[Site, ...]:
        t, x = self.decode(keys)
        return tuple(zip(t.tolist(), x.tolist()))

    def step_edges(self, t, x) -> np.ndarray:
        """Canonical index of the edge of each step ``(t, x)[i] -> (t, x)[i + 1]``
        between diagonal neighbours, -1 where it is no domain edge."""
        k = self.key(t, x)
        # a step's base is its end of smaller t, which has the smaller key: a
        # step up in t raises the key by width + 1, a step down lowers it by
        # width - 1 (and a clipped end keys on the rim, where no edge is based)
        a, b = k[:-1], k[1:]
        return _find(self.edge_keys, 2 * np.minimum(a, b) + (b < a))


class MidpointPlan(NamedTuple):
    """The brick-diagram sweep over the midpoints of a rectangle.

    ``keys`` are the midpoints sorted by ``(t, x)`` and ``columns`` their
    ``t``-columns.  The first midpoint is the anchor; every later one is
    the upper flank of the edge ``edge`` and takes its height from the
    lower flank ``low``: the ascending edge of the column before when the
    domain has it, else the descending one.  The midpoints ``both`` have
    the descending edge ``edge2`` with lower flank ``low2`` as well.
    Closure site ``i``, at ``x = closure_x[i]``, owns the brick from
    midpoint ``brick_lo[i]`` to ``brick_hi[i]``.
    """

    keys: np.ndarray
    columns: tuple[slice, ...]
    edge: np.ndarray
    low: np.ndarray
    both: np.ndarray
    edge2: np.ndarray
    low2: np.ndarray
    closure_x: np.ndarray
    brick_lo: np.ndarray
    brick_hi: np.ndarray


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``keys`` (``np.unique``, through a plain sort)."""
    keys = np.sort(keys, axis=None)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _find(sorted_keys: np.ndarray, keys) -> np.ndarray:
    """Position of each key in ``sorted_keys``, -1 where it is absent."""
    pos = np.searchsorted(sorted_keys, keys)
    return np.where(sorted_keys.take(pos, mode="clip") == keys, pos, -1)


def _clipped(values, lo: int, hi: int) -> np.ndarray:
    """Integers ``values`` as int64, clipped to ``[lo, hi]``: exact for Python
    ints of any size, and an int64 array already inside is not copied."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        inside = not values.size or (lo <= values.min() and values.max() <= hi)
        return values if inside else values.clip(lo, hi)
    try:
        values = np.array(values, dtype=np.int64)
    except OverflowError:  # a Python int beyond 64 bits
        values = np.array(values, dtype=object)
    # a fresh array, clipped in place: two ufuncs cost less than np.clip's wrapper
    np.maximum(values, lo, out=values)
    return np.minimum(values, hi, out=values).astype(np.int64, copy=False)


def _parts(a: np.ndarray, like: list) -> list[np.ndarray]:
    """``a`` cut into consecutive pieces as long as the items of ``like``."""
    ends = list(accumulate(map(len, like)))
    return [a[i:j] for i, j in zip([0, *ends], ends)]


def _column_slices(t: np.ndarray) -> tuple[slice, ...]:
    """Slices of the runs of equal values in the sorted array ``t``."""
    cuts = [0, *(np.flatnonzero(np.diff(t)) + 1).tolist(), len(t)]
    return tuple(slice(a, b) for a, b in zip(cuts, cuts[1:]))


def _side(k: int, name: str) -> cached_property:
    def side(self) -> tuple[Site, ...]:
        return self.plan.points(self.plan.site_keys[self._on_side[k]])

    side.__doc__ = f"The sites of the {name} side, sorted by ``(t, x)``."
    return cached_property(side)


class _DomainMixin:
    """Derived geometry shared by rectangular and hexagonal domains.

    Everything is derived from the column bounds ``(t0, lo, hi)``: column
    ``t0 + k`` holds the sites ``x = lo[k], lo[k] + 2, .., hi[k]``.  The
    :class:`ColumnPlan` and, for rectangles, the :class:`MidpointPlan` are
    built once per domain with numpy and cached with the tuples read off
    them.  The boundary too: a site lies on the southwest, northwest,
    northeast or southeast side when its neighbour across its edge of that
    direction lies outside the domain.  Flows enter through the southwest
    and northwest sides and leave through the other two.
    """

    @cached_property
    def plan(self) -> ColumnPlan:
        t0, lo, hi = self._column_bounds()
        x_lo = int(lo.min()) - 2
        width = int(hi.max()) - x_lo + 3
        counts = (hi - lo) // 2 + 1
        ends = np.cumsum(counts)
        starts = ends - counts
        # column k's keys run from its lowest site's key up in steps of 2
        first = (np.arange(2, len(lo) + 2) * width + lo - x_lo) - 2 * starts
        s = np.repeat(first, counts) + 2 * np.arange(ends[-1])
        # each site and its four diagonal neighbours
        near = np.array([[0], [width + 1], [width - 1], [1 - width], [-1 - width]])
        closure = _distinct(s + near)
        # twice the key of each edge's base, plus one when it descends
        incident = 2 * s + np.array([[-2 * width - 2], [-2 * width + 3], [0], [1]])
        edge_keys = _distinct(incident)
        columns = tuple(map(slice, starts.tolist(), ends.tolist()))
        return ColumnPlan(
            t0 - 2, x_lo, width, s, closure, edge_keys, np.searchsorted(edge_keys, incident), columns
        )

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        """The sites sorted by ``(t, x)``: column by column."""
        return self.plan.points(self.plan.site_keys)

    @cached_property
    def site_set(self) -> frozenset[Site]:
        return frozenset(self.sites)

    @cached_property
    def closure(self) -> tuple[Site, ...]:
        """S plus all its diagonal neighbours, sorted."""
        return self.plan.points(self.plan.closure_keys)

    @cached_property
    def closure_set(self) -> frozenset[Site]:
        return frozenset(self.closure)

    def contains(self, y: Site) -> bool:
        """Whether ``y`` is a site of the domain."""
        return y in self.site_set

    @cached_property
    def neighbours(self) -> np.ndarray:
        """(4, sites): the index in ``sites`` of each site's sw, nw, ne, se
        neighbour, -1 where it lies outside."""
        s, w = self.plan.site_keys, self.plan.width
        return _find(s, s + np.array([[-w - 1], [-w + 1], [w + 1], [w - 1]]))

    @cached_property
    def _on_side(self) -> np.ndarray:
        """(4, sites): whether each site's sw, nw, ne, se neighbour lies outside."""
        return self.neighbours < 0

    southwest_side = _side(0, "southwest")
    northwest_side = _side(1, "northwest")
    northeast_side = _side(2, "northeast")
    southeast_side = _side(3, "southeast")

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Edges with at least one endpoint in the domain, canonical order."""
        t, x, down = self.plan.edge_points()
        edge = partial(tuple.__new__, Edge)  # Edge's own __new__, without its Python frame
        return tuple(map(edge, zip(t.tolist(), x.tolist(), (down == 0).tolist())))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def side_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Edge indices, in side order, of the inflow of the southwest and the
        northwest sides and of the outflow of the northeast and southeast sides."""
        return tuple(edges[on] for edges, on in zip(self.plan.incident, self._on_side))

    @cached_property
    def midpoint_plan(self) -> MidpointPlan:
        plan = self.plan
        w = plan.width
        keys = _distinct(plan.site_keys + np.array([[-w], [w], [-1], [1]]))
        c = plan.closure_keys
        # below each midpoint (u, v) the edges (u-1, v, up) and (u-1, v, down);
        # at each closure site its sw, nw, ne, se edges
        below, at = 2 * (keys - w), 2 * c
        edges = [below, below + 1, at - 2 * w - 2, at - 2 * w + 3, at, at + 1]
        found = _find(plan.edge_keys, np.concatenate(edges))
        up_edge, down_edge, *_ = _parts(found, edges)
        up, down, sw, nw, ne, se = _parts(found >= 0, edges)
        # an inner site's brick spans the midpoints west and east of it, an
        # outer site's the flanks of its one domain edge
        lo = np.where(sw | nw, c - w, np.where(ne, c + 1, c - 1))
        hi = np.where(ne | se, c + w, np.where(sw, c - 1, c + 1))
        flanks = [keys - w + 1, keys - w - 1, lo, hi]
        up_low, down_low, brick_lo, brick_hi = _parts(_find(keys, np.concatenate(flanks)), flanks)
        both = np.flatnonzero(up & down)
        return MidpointPlan(
            keys,
            _column_slices(keys // w),
            np.where(up, up_edge, down_edge),
            np.where(up, up_low, down_low),
            both,
            down_edge[both],
            down_low[both],
            c % w + plan.x_lo,
            brick_lo,
            brick_hi,
        )


@dataclass(frozen=True)
class RectDomain(_DomainMixin):
    """Rectangle of ``n * m`` sites: ``0 <= t+x <= 2(m-1)``, ``0 <= t-x <= 2(n-1)``.

    ``n`` counts sites along the southwest side (anti-diagonal width) and
    ``m`` along the northwest side (diagonal height), matching the bijection
    with the matrix ``{1..n} x {1..m}`` where cell ``(i, j)`` sits at
    ``t - x = 2(i-1)``, ``t + x = 2(j-1)``.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"domain needs n >= 1 and m >= 1, got {self.n}x{self.m}")

    def _column_bounds(self) -> tuple[int, np.ndarray, np.ndarray]:
        t = np.arange(self.n + self.m - 1)
        return 0, np.maximum(-t, t - 2 * (self.n - 1)), np.minimum(t, 2 * (self.m - 1) - t)

    def cell_to_site(self, i: int, j: int) -> Site:
        """Matrix cell ``(i, j)``, 1-based, to lattice coordinates."""
        return (i + j - 2, j - i)

    def site_to_cell(self, y: Site) -> tuple[int, int]:
        t, x = y
        return ((t - x) // 2 + 1, (t + x) // 2 + 1)

    def to_dict(self) -> dict:
        return {"type": "rect", "N": self.n, "M": self.m}


@dataclass(frozen=True)
class HexDomain(_DomainMixin):
    """Hexagonal domain bounded by two kinked paths ``x_lower <= x <= x_upper``.

    The upper path ascends until ``kink_upper`` and descends afterwards; the
    lower path descends until ``kink_lower`` then ascends.  The side rule of
    :class:`_DomainMixin` makes the southwest side the first column plus the
    lower path up to its kink, the northwest side the first column plus the
    upper path up to its kink, and the northeast and southeast sides the last
    column plus the upper and lower paths from their kinks.  Only membership,
    boundary queries and the Markov evolution are supported here; the
    decomposition machinery requires a rectangle.
    """

    t0: int
    t1: int
    kink_lower: int
    kink_upper: int
    x_lower: tuple[int, ...]
    x_upper: tuple[int, ...]

    def __post_init__(self) -> None:
        width = self.t1 - self.t0 + 1
        if self.t1 < self.t0:
            raise ValueError("t1 must be >= t0")
        if len(self.x_lower) != width or len(self.x_upper) != width:
            raise ValueError("boundary paths must cover t0..t1")
        if not (self.t0 <= self.kink_lower <= self.t1):
            raise ValueError("kink_lower outside [t0, t1]")
        if not (self.t0 <= self.kink_upper <= self.t1):
            raise ValueError("kink_upper outside [t0, t1]")
        for t in range(self.t0, self.t1 + 1):
            lo, hi = self._x_at(t)
            if lo > hi or (t + lo) % 2 != 0 or (hi - lo) % 2 != 0:
                raise ValueError(f"invalid column at t={t}")
        for t in range(self.t0, self.t1):
            i = t - self.t0
            dlo = self.x_lower[i + 1] - self.x_lower[i]
            dhi = self.x_upper[i + 1] - self.x_upper[i]
            if dlo != (-1 if t < self.kink_lower else 1):
                raise ValueError(f"lower path has wrong slope at t={t}")
            if dhi != (1 if t < self.kink_upper else -1):
                raise ValueError(f"upper path has wrong slope at t={t}")

    def _x_at(self, t: int) -> tuple[int, int]:
        i = t - self.t0
        return self.x_lower[i], self.x_upper[i]

    def _column_bounds(self) -> tuple[int, np.ndarray, np.ndarray]:
        return self.t0, np.array(self.x_lower), np.array(self.x_upper)

    def to_dict(self) -> dict:
        return {
            "type": "hex",
            "t0": self.t0,
            "t1": self.t1,
            "t01": [self.kink_lower, self.kink_upper],
            "xminus": list(self.x_lower),
            "xplus": list(self.x_upper),
        }


Domain = RectDomain | HexDomain


def require_rect(domain: Domain, what: str) -> RectDomain:
    """``domain`` itself when it is a rectangle; ``what`` names the operation that needs one."""
    if not isinstance(domain, RectDomain):
        raise ValueError(f"{what} is defined on rectangular domains only")
    return domain


def as_integer(value, what: str) -> int:
    """``value`` as an ``int`` when it is an integer (an integral float counts); else ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, not {value!r}")


def as_integers(values, what: str) -> list[int]:
    """``values`` as a list of ints when it is a list of integers (see :func:`as_integer`)."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of integers, not {values!r}")
    if set(map(type, values)) <= {int}:
        return values
    return [as_integer(v, what) for v in values]


def domain_from_dict(d: dict) -> Domain:
    """Read ``to_dict`` output; ValueError on a value of the wrong type or size."""
    if not isinstance(d, dict):
        raise ValueError(f"a domain must be a JSON object, not {d!r}")
    kind = d.get("type")
    if kind == "rect":
        return RectDomain(as_integer(d["N"], "N"), as_integer(d["M"], "M"))
    if kind == "hex":
        kinks = as_integers(d["t01"], "t01")
        if len(kinks) != 2:
            raise ValueError(f"t01 must hold the two kinks, not {kinks!r}")
        return HexDomain(
            as_integer(d["t0"], "t0"),
            as_integer(d["t1"], "t1"),
            *kinks,
            tuple(as_integers(d["xminus"], "xminus")),
            tuple(as_integers(d["xplus"], "xplus")),
        )
    raise ValueError(f"unknown domain type {kind!r}")


def midpoints(domain: Domain) -> tuple[Site, ...]:
    """Odd-parity points at unit distance from the domain, sorted by ``(t, x)``.

    These are the interval boundaries of the brick diagram: one per face
    corner of the site grid.  The brick diagram sweeps them in this order
    (see :class:`MidpointPlan`), so every midpoint comes after the midpoints
    of the column ``t - 1``.
    """
    return domain.plan.points(domain.midpoint_plan.keys)
