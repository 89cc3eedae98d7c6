"""Geometry of the tilted integer lattice and its rectangular domains.

Sites are pairs ``(t, x)`` with ``t + x`` even; edges join sites at diagonal
distance 1 in each coordinate.  A domain is an ``n x m`` rectangle, an
``n x m`` matrix turned by 45 degrees.  The cell rule: cell ``(i, j)``,
0-based, sits at ``(i + j, j - i)``, and a point of even parity is the cell
``((t - x) / 2, (t + x) / 2)``.  Each ``t``-column of sites is an
anti-diagonal, each matrix row a chain of ascending edges and each column one
of descending edges.  Every index array of a domain follows from the rule,
each built on first read (:class:`RectDomain`).
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


def _box(a: int, b: int, origin: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each cell of an ``a x b`` box from ``(origin, origin)``, in
    ``(t, x)`` order: diagonal ``d`` holds ``(i, d - i)``, ``i`` falling from ``min(d,
    a - 1)`` to ``max(0, d - b + 1)``, both shifted by ``origin``.  Each is a running
    sum, in place, of steps of -1 or +1 save at a diagonal's first cell."""
    d = np.arange(a + b - 1)
    top = np.minimum(d, a - 1)
    counts = top - np.maximum(d - b + 1, 0) + 1
    starts = counts.cumsum() - counts
    i = np.full(a * b, -1)
    i[starts] = top - np.append(0, (top - counts + 1)[:-1])
    j = np.negative(i)
    j[starts[1:]] += 1
    i[0] = j[0] = origin
    return np.cumsum(i, out=i), np.cumsum(j, out=j)


def _clipped(values, lo: int, hi: int) -> np.ndarray:
    """Integers ``values`` as a fresh int64 array, clipped to ``[lo, hi]``: exact
    for Python ints of any size."""
    try:
        values = np.array(values, dtype=np.int64)
    except OverflowError:  # a Python int beyond 64 bits
        values = np.array(values, dtype=object)
    # a fresh array, clipped in place: two ufuncs cost less than np.clip's wrapper
    np.maximum(values, lo, out=values)
    return np.minimum(values, hi, out=values).astype(np.int64, copy=False)


def _side(k: int, name: str) -> cached_property:
    def side(self) -> tuple[Site, ...]:
        return self.sites_of(self.neighbours[k] < 0)

    side.__doc__ = f"The sites of the {name} side, sorted by ``(t, x)``."
    return cached_property(side)


@dataclass(frozen=True)
class RectDomain:
    """Rectangle of ``n * m`` sites: ``0 <= t+x <= 2(m-1)``, ``0 <= t-x <= 2(n-1)``.

    ``n`` counts sites along the southwest side and ``m`` along the northwest
    side: the sites are the cells of the matrix ``{1..n} x {1..m}``, cell
    ``(i, j)`` at ``t - x = 2(i-1)``, ``t + x = 2(j-1)``.  A site is on a side
    when its neighbour across that side's edge is outside; flows enter
    through the southwest and northwest sides.

    Each index array is built on first read from boxes of cells in ``(t, x)``
    order (:func:`_box`): the sites are the ``n x m`` box, the closure the
    ``(n + 2) x (m + 2)`` box from ``(-1, -1)`` less its corners, and the edge
    bases the ``(n + 1) x (m + 1)`` box from ``(-1, -1)``, a base ``(i, j)``
    having an ascending edge where ``i >= 0``, then a descending one where
    ``j >= 0``.  Lookups gather from grids on a frame two cells wider than the
    domain on every side, holding the index of each site, closure point or
    edge (two slots a cell) at its cell and -1 elsewhere.
    """

    n: int
    m: int

    _TURN = np.array([[-1], [1]])  # the sign of x in t - x and t + x

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"domain needs n >= 1 and m >= 1, got {self.n}x{self.m}")

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The matrix cell ``(i, j)``, 0-based, of each site, in site order."""
        return _box(self.n, self.m)

    @cached_property
    def columns(self) -> tuple[slice, ...]:
        """The slice of ``sites`` of each ``t``, in ``t`` order."""
        n, m = self.n, self.m
        ends = list(accumulate(min(d + 1, n, m, n + m - 1 - d) for d in range(n + m - 1)))
        return tuple(map(slice, [0, *ends[:-1]], ends))

    @property
    def edge_count(self) -> int:
        """The number of ``edges``."""
        return 2 * self.n * self.m + self.n + self.m

    @cached_property
    def _last(self) -> np.ndarray:
        return np.array([[self.n + 1], [self.m + 1]])  # the frame's last row and column

    def _position(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The frame position of each cell ``(i, j)``, rows and columns from -2."""
        return (i + 2) * (self.m + 4) + j + 2

    def _grid(self, at: np.ndarray, slots: int = 1) -> np.ndarray:
        grid = np.full((self.n + 4) * (self.m + 4) * slots, -1)
        grid[at] = np.arange(len(at))
        return grid

    @cached_property
    def _at(self) -> np.ndarray:
        return self._position(*self.cells)

    @cached_property
    def _sites(self) -> np.ndarray:
        return self._grid(self._at)

    def _bases(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells of the edge bases, and whether each has an ascending and a descending edge."""
        i, j = _box(self.n + 1, self.m + 1, -1)
        return i, j, np.array((i >= 0, j >= 0)).T

    @cached_property
    def _edges(self) -> np.ndarray:
        i, j, has = self._bases()
        at = self._position(i, j)
        at <<= 1  # each base's ascending slot, its descending one next
        return self._grid((at[:, None] + (0, 1))[has], slots=2)

    @cached_property
    def incident(self) -> np.ndarray:
        """(4, sites): each site's sw, nw, ne, se edge index in ``edges``."""
        return self._edges.take(2 * self._at + np.array([[-2], [1 - 2 * (self.m + 4)], [0], [1]]))

    @cached_property
    def neighbours(self) -> np.ndarray:
        """(4, sites): each site's sw, nw, ne, se neighbour's index in ``sites``, or -1."""
        w = self.m + 4
        return self._sites.take(self._at + np.array([[-1], [-w], [1], [w]]))

    @cached_property
    def closure_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The matrix cell of each closure point, in closure order."""
        i, j = _box(self.n + 2, self.m + 2, -1)
        corner = ((i == -1) | (i == self.n)) & ((j == -1) | (j == self.m))
        return i[~corner], j[~corner]

    @cached_property
    def _closure(self) -> np.ndarray:
        return self._grid(self._position(*self.closure_cells))

    def _positions(self, t, x) -> np.ndarray:
        """The frame position of each point ``(t, x)``: the rim corner 0 where
        ``t + x`` is odd, else its cell clipped onto the rim.  Each coordinate is
        first clipped beyond the frame, so the cell is exact for any integers."""
        reach = self.n + self.m + 3
        t, x = _clipped((t, x), -reach, reach)
        cells = t + x * self._TURN
        odd = cells[1] & 1
        cells >>= 1
        np.maximum(cells, -2, out=cells)
        np.minimum(cells, self._last, out=cells)
        return np.where(odd, 0, self._position(*cells))

    def find_sites(self, t, x) -> np.ndarray:
        """Index in ``sites`` of each point ``(t, x)``, -1 where it is none."""
        return self._sites.take(self._positions(t, x))

    def find_closure(self, t, x) -> np.ndarray:
        """Index in ``closure`` of each point ``(t, x)``, -1 where it is none."""
        return self._closure.take(self._positions(t, x))

    def find_edges(self, t, x, down) -> np.ndarray:
        """Canonical index of each edge from ``(t, x)``, descending where ``down``; -1 if none."""
        return self._edges.take(2 * self._positions(t, x) + down)

    def step_edges(self, t, x) -> np.ndarray:
        """Canonical index of the edge of each step ``(t, x)[k] -> (t, x)[k + 1]``
        between diagonal neighbours, ``x`` rising by one, -1 where it is no domain edge."""
        # a step up in t moves one cell along a row, a step down one back up a column,
        # so the base is the end placed first, its descending edge where that is the
        # second end; a clipped end has the other on the rim
        at = 2 * self._positions(t, x)
        return self._edges.take(np.minimum(at[:-1], at[1:] + 1))

    def edge_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Base ``t``, base ``x`` and descending bit (1 or 0) of every edge, in canonical order."""
        i, j, has = self._bases()
        edge = np.flatnonzero(has)
        return *self.points((i[edge >> 1], j[edge >> 1])), edge & 1

    @staticmethod
    def points(cells: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The ``t`` and ``x`` of the matrix cells ``(i, j)``."""
        return cells[0] + cells[1], cells[1] - cells[0]

    def sites_of(self, at) -> tuple[Site, ...]:
        """The sites ``sites[at]``, for an index array, mask or slice ``at``."""
        t, x = self.points((self.cells[0][at], self.cells[1][at]))
        return tuple(zip(t.tolist(), x.tolist()))

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        """The sites sorted by ``(t, x)``: column by column."""
        return self.sites_of(slice(None))

    @cached_property
    def site_set(self) -> frozenset[Site]:
        return frozenset(self.sites)

    @cached_property
    def closure(self) -> tuple[Site, ...]:
        """S plus all its diagonal neighbours, sorted."""
        t, x = self.points(self.closure_cells)
        return tuple(zip(t.tolist(), x.tolist()))

    @cached_property
    def closure_set(self) -> frozenset[Site]:
        return frozenset(self.closure)

    def contains(self, y: Site) -> bool:
        """Whether ``y`` is a site of the domain."""
        return y in self.site_set

    southwest_side = _side(0, "southwest")
    northwest_side = _side(1, "northwest")
    northeast_side = _side(2, "northeast")
    southeast_side = _side(3, "southeast")

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Edges with at least one endpoint in the domain, canonical order."""
        t, x, down = self.edge_points()
        edge = partial(tuple.__new__, Edge)  # Edge's own __new__, without its Python frame
        return tuple(map(edge, zip(t.tolist(), x.tolist(), (down == 0).tolist())))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def side_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Edge indices, in side order, of the inflow of the southwest and the
        northwest sides and of the outflow of the northeast and southeast sides."""
        return tuple(edges[on] for edges, on in zip(self.incident, self.neighbours < 0))

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

    Corner ``(a, b)``, between matrix rows ``a - 1`` and ``a`` and columns ``b - 1``
    and ``b``, is the midpoint ``(a + b - 1, b - a)``: the box's cells in order.
    """
    return corners[_box(*corners.shape)]


def midpoints(domain: RectDomain) -> tuple[Site, ...]:
    """Odd-parity points at unit distance from a rectangle's sites, sorted by ``(t, x)``.

    These are the interval boundaries of the brick diagram, one per face
    corner of the site grid (see :func:`in_midpoint_order`): the sites of the
    ``(n + 1) x (m + 1)`` rectangle one step earlier in ``t``, in the same order.
    """
    t, x = RectDomain.points(_box(domain.n + 1, domain.m + 1))
    return tuple(zip((t - 1).tolist(), x.tolist()))
