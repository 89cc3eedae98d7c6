"""Geometry of the tilted integer lattice and its finite domains.

Sites are pairs ``(t, x)`` with ``t + x`` even; edges join sites at diagonal
distance 1 in each coordinate.  A rectangular domain is the degenerate case
of a hexagonal one and is the only shape on which the decomposition
machinery operates; hexagonal domains support membership, boundary queries
and the Markov evolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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

    @property
    def head(self) -> Site:
        return (self.t + 1, self.x + 1 if self.up else self.x - 1)


def edge_ne(y: Site) -> Edge:
    """Edge leaving ``y`` to the northeast (ascending outflow)."""
    return Edge(y[0], y[1], True)


def edge_se(y: Site) -> Edge:
    """Edge leaving ``y`` to the southeast (descending outflow)."""
    return Edge(y[0], y[1], False)


def edge_sw(y: Site) -> Edge:
    """Edge reaching ``y`` from the southwest (ascending inflow)."""
    return Edge(y[0] - 1, y[1] - 1, True)


def edge_nw(y: Site) -> Edge:
    """Edge reaching ``y`` from the northwest (descending inflow)."""
    return Edge(y[0] - 1, y[1] + 1, False)


def incident_edges(y: Site) -> tuple[Edge, Edge, Edge, Edge]:
    """The four edges at ``y``, ordered (sw, nw, ne, se)."""
    return edge_sw(y), edge_nw(y), edge_ne(y), edge_se(y)


def edge_between(a: Site, b: Site) -> Edge:
    """Canonical id of the edge joining two diagonal neighbours."""
    if abs(a[0] - b[0]) != 1 or abs(a[1] - b[1]) != 1:
        raise ValueError(f"{a} and {b} are not diagonal neighbours")
    base, head = (a, b) if a[0] < b[0] else (b, a)
    return Edge(base[0], base[1], head[1] > base[1])


def _edge_sort_key(e: Edge) -> tuple[int, int, bool]:
    # base-lexicographic, up before down
    return (e.t, e.x, not e.up)


def _neighbours(y: Site) -> tuple[Site, Site, Site, Site]:
    t, x = y
    return ((t + 1, x + 1), (t + 1, x - 1), (t - 1, x + 1), (t - 1, x - 1))


class _DomainMixin:
    """Derived geometry shared by rectangular and hexagonal domains."""

    @cached_property
    def site_set(self) -> frozenset[Site]:
        return frozenset(self.sites)

    @cached_property
    def closure(self) -> tuple[Site, ...]:
        """S plus all its diagonal neighbours, sorted."""
        out = set(self.sites)
        for y in self.sites:
            out.update(_neighbours(y))
        return tuple(sorted(out))

    @cached_property
    def closure_set(self) -> frozenset[Site]:
        return frozenset(self.closure)

    @cached_property
    def outer_sites(self) -> tuple[Site, ...]:
        return tuple(y for y in self.closure if y not in self.site_set)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Edges with at least one endpoint in the domain, canonical order."""
        seen = set()
        for y in self.sites:
            seen.update(incident_edges(y))
        return tuple(sorted(seen, key=_edge_sort_key))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def contains(self, y: Site) -> bool:
        return y in self.site_set

    def in_closure(self, y: Site) -> bool:
        return y in self.closure_set


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

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        out = []
        for i in range(1, self.n + 1):
            for j in range(1, self.m + 1):
                out.append(self.cell_to_site(i, j))
        return tuple(sorted(out))

    def contains(self, y: Site) -> bool:
        t, x = y
        return (
            (t + x) % 2 == 0
            and 0 <= t + x <= 2 * (self.m - 1)
            and 0 <= t - x <= 2 * (self.n - 1)
        )

    def cell_to_site(self, i: int, j: int) -> Site:
        """Matrix cell ``(i, j)``, 1-based, to lattice coordinates."""
        return (i + j - 2, j - i)

    def site_to_cell(self, y: Site) -> tuple[int, int]:
        t, x = y
        return ((t - x) // 2 + 1, (t + x) // 2 + 1)

    @property
    def west_corner(self) -> Site:
        return (0, 0)

    @property
    def east_corner(self) -> Site:
        return (self.n + self.m - 2, self.m - self.n)

    # Entry sides (flows come in from the west half of the boundary) and
    # exit sides.  For the degenerate hexagon these are:
    @cached_property
    def southwest_side(self) -> tuple[Site, ...]:
        return tuple((t, -t) for t in range(self.n))

    @cached_property
    def northwest_side(self) -> tuple[Site, ...]:
        return tuple((t, t) for t in range(self.m))

    @cached_property
    def northeast_side(self) -> tuple[Site, ...]:
        m = self.m
        return tuple((m - 1 + k, m - 1 - k) for k in range(self.n))

    @cached_property
    def southeast_side(self) -> tuple[Site, ...]:
        n = self.n
        return tuple((n - 1 + k, -(n - 1) + k) for k in range(self.m))

    # Outer boundary classes: the sites of ``closure - S`` adjacent to each
    # side.  Exactly one class holds each outer site of a rectangle.
    @cached_property
    def outer_southwest(self) -> tuple[Site, ...]:
        return tuple(y for y in self.outer_sites if self.contains((y[0] + 1, y[1] + 1)))

    @cached_property
    def outer_northwest(self) -> tuple[Site, ...]:
        return tuple(y for y in self.outer_sites if self.contains((y[0] + 1, y[1] - 1)))

    @cached_property
    def outer_northeast(self) -> tuple[Site, ...]:
        return tuple(y for y in self.outer_sites if self.contains((y[0] - 1, y[1] - 1)))

    @cached_property
    def outer_southeast(self) -> tuple[Site, ...]:
        return tuple(y for y in self.outer_sites if self.contains((y[0] - 1, y[1] + 1)))

    def to_dict(self) -> dict:
        return {"type": "rect", "N": self.n, "M": self.m}


@dataclass(frozen=True)
class HexDomain(_DomainMixin):
    """Hexagonal domain bounded by two kinked paths ``x_lower <= x <= x_upper``.

    The upper path ascends until ``kink_upper`` and descends afterwards; the
    lower path descends until ``kink_lower`` then ascends.  Only membership,
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

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        out = []
        for t in range(self.t0, self.t1 + 1):
            lo, hi = self._x_at(t)
            out.extend((t, x) for x in range(lo, hi + 1, 2))
        return tuple(sorted(out))

    def contains(self, y: Site) -> bool:
        t, x = y
        if not (self.t0 <= t <= self.t1) or (t + x) % 2 != 0:
            return False
        lo, hi = self._x_at(t)
        return lo <= x <= hi

    @cached_property
    def southwest_side(self) -> tuple[Site, ...]:
        out = {(self.t0, x) for x in range(*self._west_range(), 2)}
        out.update((t, self.x_lower[t - self.t0]) for t in range(self.t0, self.kink_lower + 1))
        return tuple(sorted(out))

    @cached_property
    def northwest_side(self) -> tuple[Site, ...]:
        out = {(self.t0, x) for x in range(*self._west_range(), 2)}
        out.update((t, self.x_upper[t - self.t0]) for t in range(self.t0, self.kink_upper + 1))
        return tuple(sorted(out))

    @cached_property
    def northeast_side(self) -> tuple[Site, ...]:
        out = {(self.t1, x) for x in range(*self._east_range(), 2)}
        out.update((t, self.x_upper[t - self.t0]) for t in range(self.kink_upper, self.t1 + 1))
        return tuple(sorted(out))

    @cached_property
    def southeast_side(self) -> tuple[Site, ...]:
        out = {(self.t1, x) for x in range(*self._east_range(), 2)}
        out.update((t, self.x_lower[t - self.t0]) for t in range(self.kink_lower, self.t1 + 1))
        return tuple(sorted(out))

    def _west_range(self) -> tuple[int, int]:
        lo, hi = self._x_at(self.t0)
        return lo, hi + 1

    def _east_range(self) -> tuple[int, int]:
        lo, hi = self._x_at(self.t1)
        return lo, hi + 1

    @classmethod
    def from_rect(cls, rect: RectDomain) -> "HexDomain":
        """The same site set presented as a (degenerate) hexagon."""
        t1 = rect.n + rect.m - 2
        x_lower = tuple(max(-t, t - 2 * (rect.n - 1)) for t in range(t1 + 1))
        x_upper = tuple(min(t, 2 * (rect.m - 1) - t) for t in range(t1 + 1))
        return cls(0, t1, rect.n - 1, rect.m - 1, x_lower, x_upper)

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


def domain_from_dict(d: dict) -> Domain:
    kind = d.get("type")
    if kind == "rect":
        return RectDomain(int(d["N"]), int(d["M"]))
    if kind == "hex":
        t01 = d["t01"]
        return HexDomain(
            int(d["t0"]),
            int(d["t1"]),
            int(t01[0]),
            int(t01[1]),
            tuple(int(v) for v in d["xminus"]),
            tuple(int(v) for v in d["xplus"]),
        )
    raise ValueError(f"unknown domain type {kind!r}")


def midpoints(domain: Domain) -> tuple[Site, ...]:
    """Odd-parity points at unit distance from the domain, sorted by ``(t, x)``.

    These are the interval boundaries of the brick diagram: one per face
    corner of the site grid.  The brick diagram sweeps them in this order,
    so every midpoint comes after the midpoints of the column ``t - 1``.
    """
    out: set[Site] = set()
    for (t, x) in domain.sites:
        out.update(((t - 1, x), (t + 1, x), (t, x - 1), (t, x + 1)))
    return tuple(sorted(out))
