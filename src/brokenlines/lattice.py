"""Geometry of the tilted integer lattice and its rectangular domains.

Sites are pairs ``(t, x)`` with ``t + x`` even; edges join sites at diagonal
distance 1 in each coordinate.  A domain is an ``n x m`` rectangle, an
``n x m`` matrix turned by 45 degrees.  The cell rule: cell ``(i, j)``,
0-based, sits at ``(i + j, j - i)``, and a point of even parity is the cell
``((t - x) / 2, (t + x) / 2)``.  Each ``t``-column of sites is an
anti-diagonal, each matrix row a chain of ascending edges and each column one
of descending edges.  Every index array follows from the rule (:class:`ColumnPlan`).
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


def _box(a: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column of each cell of an ``a x b`` box, 0-based, in ``(t, x)`` order,
    and the cell count of each anti-diagonal: diagonal ``d`` holds the cells
    ``(i, d - i)``, ``i`` falling from ``min(d, a - 1)`` to ``max(0, d - b + 1)``."""
    d = np.arange(a + b - 1)
    top = np.minimum(d, a - 1)
    counts = top - np.maximum(d - b + 1, 0) + 1
    i = np.repeat(top + counts.cumsum() - counts, counts) - np.arange(a * b)
    return i, np.repeat(d, counts) - i, counts


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


class ColumnPlan:
    """Index arrays of an ``n x m`` rectangle, for sweeps one ``t``-column at a time.

    Every array follows from the cell rule, boxes of cells read in ``(t, x)``
    order (:func:`_box`): the sites are the ``n x m`` box, the closure the
    ``(n + 2) x (m + 2)`` box from ``(-1, -1)`` less its corners, and the edge
    bases the ``(n + 1) x (m + 1)`` box from ``(-1, -1)``, a base ``(i, j)``
    having an ascending edge where ``i >= 0``, then a descending one where
    ``j >= 0``.  Lookups gather from grids on a frame of cells two wider than
    the domain on every side, holding the index of a site, closure point or
    edge (two slots a cell) at its cell and -1 elsewhere.  Only this module
    turns coordinates into cells or positions.
    """

    _TURN = np.array([[-1], [1]])  # the sign of x in t - x and t + x

    def __init__(self, n: int, m: int) -> None:
        i, j, counts = _box(n, m)
        ends = counts.cumsum()
        self.n, self.m, self.cells = n, m, (i, j)  # the matrix cell of each site
        self.columns = tuple(map(slice, (ends - counts).tolist(), ends.tolist()))  # the sites of each t
        self.edge_count = 2 * n * m + n + m
        self._width = w = m + 4
        self._last = np.array([[n + 1], [m + 1]])  # the frame's last row and column
        self._at = self._position(i, j)
        self._sites = self._grid(self._at)
        i, j, has = self._bases()
        at = 2 * self._position(i, j)  # each base's ascending slot, its descending one next
        self._edges = self._grid(np.array((at, at + 1)).T[has], slots=2)
        # the sw, nw, ne, se edge index of each site
        self.incident = self._edges.take(2 * self._at + np.array([[-2], [1 - 2 * w], [0], [1]]))

    def _position(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The frame position of each cell ``(i, j)``, rows and columns from -2."""
        return i * self._width + j + 2 * (self._width + 1)

    def _grid(self, at: np.ndarray, slots: int = 1) -> np.ndarray:
        grid = np.full((self.n + 4) * self._width * slots, -1)
        grid[at] = np.arange(len(at))
        return grid

    def _bases(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells of the edge bases, and whether each has an ascending and a descending edge."""
        i, j, _ = _box(self.n + 1, self.m + 1)
        return i - 1, j - 1, np.array((i, j)).T > 0

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

    @cached_property
    def closure_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The matrix cell of each closure point, in closure order."""
        i, j, _ = _box(self.n + 2, self.m + 2)
        corner = ((i == 0) | (i == self.n + 1)) & ((j == 0) | (j == self.m + 1))
        return i[~corner] - 1, j[~corner] - 1

    @cached_property
    def _closure(self) -> np.ndarray:
        return self._grid(self._position(*self.closure_cells))

    @cached_property
    def neighbours(self) -> np.ndarray:
        """(4, sites): each site's sw, nw, ne, se neighbour's index in ``domain.sites``, or -1."""
        w = self._width
        return self._sites.take(self._at + np.array([[-1], [-w], [1], [w]]))

    def find_sites(self, t, x) -> np.ndarray:
        """Index in ``domain.sites`` of each point ``(t, x)``, -1 where it is none."""
        return self._sites.take(self._positions(t, x))

    def find_closure(self, t, x) -> np.ndarray:
        """Index in ``domain.closure`` of each point ``(t, x)``, -1 where it is none."""
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
        """The sites ``domain.sites[at]``, for an index array, mask or slice ``at``."""
        t, x = self.points((self.cells[0][at], self.cells[1][at]))
        return tuple(zip(t.tolist(), x.tolist()))


def _side(k: int, name: str) -> cached_property:
    def side(self) -> tuple[Site, ...]:
        return self.plan.sites_of(self._on_side[k])

    side.__doc__ = f"The sites of the {name} side, sorted by ``(t, x)``."
    return cached_property(side)


@dataclass(frozen=True)
class RectDomain:
    """Rectangle of ``n * m`` sites: ``0 <= t+x <= 2(m-1)``, ``0 <= t-x <= 2(n-1)``.

    ``n`` counts sites along the southwest side and ``m`` along the northwest
    side: the sites are the cells of the matrix ``{1..n} x {1..m}``, cell
    ``(i, j)`` at ``t - x = 2(i-1)``, ``t + x = 2(j-1)``, and everything else
    follows through the :class:`ColumnPlan`.  A site is on the southwest,
    northwest, northeast or southeast side when its neighbour across its edge
    of that direction is outside; flows enter through the first two.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"domain needs n >= 1 and m >= 1, got {self.n}x{self.m}")

    @cached_property
    def plan(self) -> ColumnPlan:
        return ColumnPlan(self.n, self.m)

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        """The sites sorted by ``(t, x)``: column by column."""
        return self.plan.sites_of(slice(None))

    @cached_property
    def site_set(self) -> frozenset[Site]:
        return frozenset(self.sites)

    @cached_property
    def closure(self) -> tuple[Site, ...]:
        """S plus all its diagonal neighbours, sorted."""
        t, x = self.plan.points(self.plan.closure_cells)
        return tuple(zip(t.tolist(), x.tolist()))

    @cached_property
    def closure_set(self) -> frozenset[Site]:
        return frozenset(self.closure)

    def contains(self, y: Site) -> bool:
        """Whether ``y`` is a site of the domain."""
        return y in self.site_set

    @cached_property
    def _on_side(self) -> np.ndarray:
        """(4, sites): whether each site's sw, nw, ne, se neighbour lies outside."""
        return self.plan.neighbours < 0

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
    a, b, _ = _box(*corners.shape)
    return corners[a, b]


def midpoints(domain: RectDomain) -> tuple[Site, ...]:
    """Odd-parity points at unit distance from a rectangle's sites, sorted by ``(t, x)``.

    These are the interval boundaries of the brick diagram, one per face
    corner of the site grid (see :func:`in_midpoint_order`): the sites of the
    ``(n + 1) x (m + 1)`` rectangle one step earlier in ``t``, in the same order.
    """
    a, b, _ = _box(domain.n + 1, domain.m + 1)
    t, x = ColumnPlan.points((a, b))
    return tuple(zip((t - 1).tolist(), x.tolist()))
