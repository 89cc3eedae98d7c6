"""Geometry of the tilted integer lattice and its rectangular domains.

Sites are pairs ``(t, x)`` with ``t + x`` even; edges join sites at diagonal
distance 1 in each coordinate.  A domain is an ``n x m`` rectangle: the
cells of an ``n x m`` matrix turned by 45 degrees, cell ``(i, j)``, 0-based,
at ``(i + j, j - i)``.  Each ``t``-column of sites is an anti-diagonal of the
matrix, each matrix row a chain of ascending edges and each matrix column a
chain of descending ones, which is the front that ``flow.front`` moves one
anti-diagonal at a time.  The index arrays are built from the column bounds
(:class:`ColumnPlan`).  The midpoints of an ``n x m`` rectangle, where the
brick diagram's heights live, are the face corners of its site grid: the
sites of the ``(n + 1) x (m + 1)`` rectangle one step earlier in ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
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


def _side(k: int, name: str) -> cached_property:
    def side(self) -> tuple[Site, ...]:
        return self.plan.points(self.plan.site_keys[self._on_side[k]])

    side.__doc__ = f"The sites of the {name} side, sorted by ``(t, x)``."
    return cached_property(side)


@dataclass(frozen=True)
class RectDomain:
    """Rectangle of ``n * m`` sites: ``0 <= t+x <= 2(m-1)``, ``0 <= t-x <= 2(n-1)``.

    ``n`` counts sites along the southwest side (anti-diagonal width) and
    ``m`` along the northwest side (diagonal height), matching the bijection
    with the matrix ``{1..n} x {1..m}`` where cell ``(i, j)`` sits at
    ``t - x = 2(i-1)``, ``t + x = 2(j-1)``.  The ``t``-column of the sites at
    ``t = d`` is therefore the matrix's anti-diagonal ``i + j = d + 2``.

    Everything else is derived from the column bounds: column ``t`` holds the
    sites ``x = lo, lo + 2, .., hi``.  The :class:`ColumnPlan` is built once
    per domain with numpy and cached with the tuples read off it.  The
    boundary too: a site lies on the southwest, northwest, northeast or
    southeast side when its neighbour across its edge of that direction lies
    outside the domain.  Flows enter through the southwest and northwest
    sides and leave through the other two.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"domain needs n >= 1 and m >= 1, got {self.n}x{self.m}")

    @cached_property
    def plan(self) -> ColumnPlan:
        t = np.arange(self.n + self.m - 1)
        lo, hi = np.maximum(-t, t - 2 * (self.n - 1)), np.minimum(t, 2 * (self.m - 1) - t)
        x_lo = int(lo.min()) - 2
        width = int(hi.max()) - x_lo + 3
        counts = (hi - lo) // 2 + 1
        ends = np.cumsum(counts)
        starts = ends - counts
        # column k's keys run from its lowest site's key up in steps of 2
        first = ((t + 2) * width + lo - x_lo) - 2 * starts
        s = np.repeat(first, counts) + 2 * np.arange(ends[-1])
        # each site and its four diagonal neighbours
        near = np.array([[0], [width + 1], [width - 1], [1 - width], [-1 - width]])
        closure = _distinct(s + near)
        # twice the key of each edge's base, plus one when it descends
        incident = 2 * s + np.array([[-2 * width - 2], [-2 * width + 3], [0], [1]])
        edge_keys = _distinct(incident)
        columns = tuple(map(slice, starts.tolist(), ends.tolist()))
        return ColumnPlan(
            -2, x_lo, width, s, closure, edge_keys, np.searchsorted(edge_keys, incident), columns
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

    def cell_to_site(self, i: int, j: int) -> Site:
        """Matrix cell ``(i, j)``, 1-based, to lattice coordinates."""
        return (i + j - 2, j - i)

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0-based matrix row and column of each site of ``sites``, as index arrays."""
        t, x = self.plan.decode(self.plan.site_keys)
        return (t - x) // 2, (t + x) // 2

    def to_dict(self) -> dict:
        return {"type": "rect", "N": self.n, "M": self.m}


def as_integer(value, what: str) -> int:
    """``value`` as an ``int`` if it is an integer, numpy's or an integral float; else ValueError."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
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


def domain_from_dict(d: dict) -> RectDomain:
    """Read ``to_dict`` output; ValueError on a value of the wrong type or size."""
    if not isinstance(d, dict):
        raise ValueError(f"a domain must be a JSON object, not {d!r}")
    kind = d.get("type")
    if kind == "rect":
        return RectDomain(as_integer(d["N"], "N"), as_integer(d["M"], "M"))
    raise ValueError(f"unknown domain type {kind!r}")


def in_midpoint_order(corners: np.ndarray) -> np.ndarray:
    """The values ``corners[a, b]`` on the face corners of an ``n x m``
    rectangle's site grid, an ``(n + 1, m + 1)`` array, in :func:`midpoints` order.

    Corner ``(a, b)`` lies between matrix rows ``a - 1`` and ``a`` and columns
    ``b - 1`` and ``b``, 0-based: it is the midpoint ``(a + b - 1, b - a)``.
    Sorted by ``(t, x)``, the corners run along the anti-diagonals, ``a``
    falling within each: the diagonals of the array turned upside down.
    """
    n, m = corners.shape[0] - 1, corners.shape[1] - 1
    return np.concatenate([corners[::-1].diagonal(k) for k in range(-n, m + 1)])


def midpoints(domain: RectDomain) -> tuple[Site, ...]:
    """Odd-parity points at unit distance from a rectangle's sites, sorted by ``(t, x)``.

    These are the interval boundaries of the brick diagram, one per face
    corner of the site grid (see :func:`in_midpoint_order`): the sites of the
    ``(n + 1) x (m + 1)`` rectangle one step earlier in ``t``, in the same order.
    """
    a, b = np.indices((domain.n + 1, domain.m + 1))
    return tuple(zip(in_midpoint_order(a + b - 1).tolist(), in_midpoint_order(b - a).tolist()))
