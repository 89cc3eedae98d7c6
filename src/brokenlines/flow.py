"""Flow fields: nonnegative edge masses obeying the conservation law.

A field is built forward from boundary inflows and a birth field, or taken
apart again into exactly those data.  Masses are integers in ``"int"`` mode
(the discrete process, every identity exact) and reals in ``"float"`` mode.
The numeric policy lives here alone: :func:`as_mass` decides what a mass is,
:func:`infer_mode` which mode values are in, and :func:`tolerance` when two
numbers made of masses up to ``scale`` are equal.  The scale is the site's
four masses for conservation, ``max(left, right)`` for the crossing-flow
sums, the crossing flow ``C`` for brick heights, the largest interval
endpoint for line widths, and the largest mass for the backward path's
inflow check.  Brick heights within the rounding level ``ABS_TOL * max(1,
max height)`` share a breakpoint; that width stays below the tolerance
because real strips narrower than ``REL_TOL * C`` occur.

Layout: one storage form, views on read.  A field holds its masses only
as ``FlowField.values``, one flat array in canonical edge order (the order
of ``domain.edges`` and of the domain's edge grid), which the field
operations, JSON included, read with the domain's index arrays; an
``Edge``-keyed dict is read into it at once, and the dict ``FlowField.mass``
is a view built on first read.  Births are read in site order and each
inflow in its side's order, a site-keyed dict put in that order first, zero
at each site it omits.  The forward evolution, :func:`front`, moves one
ascending mass per matrix row and one descending mass per matrix column
across the rectangle, one ``t``-column (an anti-diagonal of the matrix) at a
time, with an optional trailing replica axis, and updates it in place;
:func:`sweep` has it write each column's outflows straight into the
canonical edge array, where they form one run.  The dtype is float64
in float mode; in int mode int64 when the sum of the masses' sizes (for a
sweep, of its inflows and births) is below ``2**63``, which bounds every
mass, height and sum the operations form, else exact Python ints in an
object array.  Values handed out are Python ``int`` and ``float`` either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from numbers import Real

import numpy as np

from .lattice import Edge, RectDomain, Site, as_integers, diagonal_rows, domain_from_dict

REL_TOL = 1e-9
ABS_TOL = 1e-12
_OUTSIDE = "births outside the domain"


def tolerance(scale, mode: str):
    """Largest gap at which two quantities made of masses up to ``scale`` count as equal.

    ``scale`` may be an array, for one tolerance per element.
    """
    if mode == "int":
        return 0
    return np.maximum(ABS_TOL, REL_TOL * scale)


@dataclass(frozen=True)
class BoundaryFlow:
    """Inflow data, ascending on the southwest side and descending on the northwest side:
    arrays in side order, or dicts keyed by side site, zero at every site they omit."""

    up_in: dict[Site, float] | np.ndarray
    down_in: dict[Site, float] | np.ndarray


@dataclass(frozen=True, init=False)
class BirthField:
    """Mass of pair creation per site; support inside the domain.

    ``BirthField(domain, births)`` takes a site-keyed dict, zero at every site it omits;
    :meth:`from_values` a 1-D array, one mass per site of ``domain.sites``, and ``births``
    is then :meth:`masses` keyed by site.  Either way ``_values`` holds the data as given,
    unchecked until :meth:`masses`, the one read other modules make.
    """

    domain: RectDomain
    births: dict[Site, float]

    def __init__(self, domain: RectDomain, births: dict[Site, float]) -> None:
        self.__dict__.update(domain=domain, births=births, _values=births)

    @classmethod
    def from_values(cls, domain: RectDomain, values: np.ndarray) -> "BirthField":
        """The births ``values``, in the order of ``domain.sites``."""
        field = cls.__new__(cls)
        field.__dict__.update(domain=domain, _values=values)
        return field

    @cached_property
    def births(self) -> dict[Site, float]:
        return dict(zip(self.domain.sites, self.masses().tolist()))

    def masses(self, mode: str | None = None) -> np.ndarray:
        """One mass per site of ``domain.sites`` in ``mode`` (inferred when
        None), read and checked as :func:`field_from_birth` reads births."""
        return _site_masses(self.domain, [(self._values, None, _OUTSIDE)], mode)[0][0]


@dataclass(frozen=True)
class ExitFlow:
    """Outflow read off the exit sides: ascending on the northeast side,
    descending on the southeast side."""

    up_out: dict[Site, float]
    down_out: dict[Site, float]


@dataclass(frozen=True, init=False)
class FlowField:
    """Mass per edge of the domain closure.

    Conservation holds at every inner site: the two outgoing edges carry as
    much as the two incoming ones.  Instances are immutable after
    construction and safe to share.  A field holds one array, ``values``,
    the masses in canonical edge order (see :func:`mass_array`).
    :meth:`from_values` takes that array; ``FlowField(domain, mass, mode)``
    reads an ``Edge``-keyed dict into it at once, through :func:`as_masses`,
    and refuses a key that is no edge of the domain.  ``mass`` is a view of
    ``values`` built on first read; it stays a dataclass field, so
    ``dataclasses.replace(field, mass=d)`` gives the field of the dict ``d``
    and ``==`` compares domains, masses and modes.
    """

    domain: RectDomain
    mass: dict[Edge, float]
    mode: str = "float"

    def __init__(self, domain: RectDomain, mass: dict[Edge, float], mode: str = "float") -> None:
        try:
            values = list(map(mass.__getitem__, domain.edges))
        except KeyError:
            missing = [e for e in domain.edges if e not in mass]
            raise ValueError(f"mass missing at the edges: {missing}") from None
        values = as_masses(values, mode, domain.edges.__getitem__)
        if len(mass) > len(values):  # every edge is a key, so the others are no edge
            raise ValueError(f"mass keyed off the edges: {[k for k in mass if k not in domain.edge_set]}")
        self._hold(domain, values, mode)

    @classmethod
    def from_values(cls, domain: RectDomain, values: np.ndarray, mode: str) -> "FlowField":
        """The field whose masses are ``values`` in canonical edge order."""
        field = cls.__new__(cls)
        field._hold(domain, values, mode)
        return field

    def _hold(self, domain: RectDomain, values: np.ndarray, mode: str) -> None:
        if mode not in ("int", "float"):
            raise ValueError(f"mode must be 'int' or 'float', not {mode!r}")
        self.__dict__.update(domain=domain, values=values, mode=mode)

    @cached_property
    def mass(self) -> dict[Edge, float]:
        """``values`` keyed by ``domain.edges``."""
        return dict(zip(self.domain.edges, self.values.tolist()))

    @property
    def max_mass(self):
        return self.values.max(keepdims=True).tolist()[0]


def infer_mode(values) -> str:
    """``"int"`` when every value is an ``int`` (a bool is not), else ``"float"``."""
    kinds = set(map(type, values))
    return "int" if all(issubclass(k, int) and k is not bool for k in kinds) else "float"


def as_mass(value, mode: str, where):
    """``value`` cast to the mode's number type, once it is a mass a field can carry.

    Masses are real numbers (numpy's too, but not bools or strings), finite
    and nonnegative, and integral in int mode; anything else raises
    ValueError.  A negative zero is read as zero.
    """
    mass = _cast_mass(value, mode)
    if mass is None:
        kind = "integer" if mode == "int" else "number"
        raise ValueError(f"mass {value!r} at {where} is not a finite nonnegative {kind}")
    return mass


def _cast_mass(value, mode: str):
    """:func:`as_mass` of ``value``, or None where it raises."""
    # int and float first: the Real ABC check is several times slower
    real = type(value) is not bool and isinstance(value, (int, float, Real))
    try:
        if real and 0 <= value < math.inf and (mode != "int" or value == int(value)):
            return int(value) if mode == "int" else float(value) + 0.0
    except OverflowError:  # too large for a float
        pass
    return None


def as_masses(values, mode: str, where) -> np.ndarray:
    """:func:`as_mass` on every value of a list or a 1-D array, as one array.

    The rule, finite and nonnegative, is checked at once on an int64 array in int mode or a
    float64 one in float mode, kept as it is, and on one :func:`mass_array` of a list of
    Python ints, or in float mode ints and floats; other arrays are read as their ``tolist()``.
    Any other list, or a value breaking the rule, goes value by value through ``as_mass``:
    it casts every value, or raises for the first offender, named by ``where(i)``, the one
    call of ``where``.
    """
    if isinstance(values, np.ndarray) and values.dtype != (np.int64 if mode == "int" else np.float64):
        values = values.tolist()
    array = isinstance(values, np.ndarray)
    if array or set(map(type, values)) <= ({int} if mode == "int" else {int, float}):
        try:
            masses = values if array else mass_array(values, mode)
        except OverflowError:  # an int too large for a float
            masses = None
        if masses is not None and ((masses >= 0) & (masses < math.inf)).all():
            return masses if mode == "int" else masses + 0.0  # no negative zero
    values = values.tolist() if array else values
    masses = [_cast_mass(v, mode) for v in values]
    if None in masses:
        i = masses.index(None)
        as_mass(values[i], mode, where(i))  # raises, naming the first offender
    return mass_array(masses, mode)


def mass_array(values: list, mode: str) -> np.ndarray:
    """``values`` as an array: float64 in float mode; in int mode int64 when
    the sum of their sizes is below ``2**63``, else an object array of the
    Python ints themselves, so that no sum of them can wrap."""
    if mode != "int":
        return np.array(values, dtype=np.float64)
    exact = set(map(type, values)) <= {int} and sum(map(abs, values)) < 1 << 63
    return np.array(values, dtype=np.int64 if exact else object)


def site_outflows(in_up, in_down, born, out=None):
    """The site update: ``born + [in_up - in_down]^+`` and its mirror image.

    Elementwise, so it runs on plain numbers and on per-replica arrays alike.
    Given ``out``, a pair of arrays that may be ``in_up`` and ``in_down``
    themselves, the same operations write the outflows there and return them.
    """
    up = in_up - in_down
    if out is None:
        down = in_down - in_up
        return born + up * (up > 0), born + down * (down > 0)
    down = np.subtract(in_down, in_up, out=out[1])
    up *= up > 0
    down *= down > 0
    return np.add(born, up, out=out[0]), np.add(born, down, out=down)


def front(domain: RectDomain, up_in: np.ndarray, down_in: np.ndarray, births, mass=None):
    """Forward evolution of complete, already checked data on a moving front; no validation.

    The front holds one ascending mass per matrix row, ``ups[i]``, and one
    descending mass per matrix column, ``downs[j]``, at first copies of the
    inflows ``up_in`` and ``down_in`` at each site of the southwest and
    northwest sides, in their order.  ``births`` yields the births of each
    ``t``-column in turn, in site order: anti-diagonal ``d``, rows ``lo`` to
    ``hi`` (:func:`lattice.diagonal_rows`) from the last, so its inflows are
    the views ``ups[lo:hi + 1][::-1]`` and ``downs[d - hi:d - lo + 1]``, which
    :func:`site_outflows` updates in place.  A trailing replica axis is
    allowed.  Given ``mass``, an array with one row per edge in canonical
    order, each column's outflows are also written there: the ``k`` sites of
    a column leave by the edges ``ne, ne + 1, .., ne + 2k - 1`` from the
    first site's ascending edge ``ne``, ascending and descending in turn.
    The front's dtype is the ``np.result_type`` of the inflows and the first
    column's births.  Returns the final ``ups`` and ``downs``: the outflows
    of the northeast and southeast sides, in their order.
    """
    if mass is not None:  # the ascending edge of each column's first site
        firsts = domain.incident[2][[column.start for column in domain.columns]].tolist()
    rows = zip(*(bound.tolist() for bound in diagonal_rows(domain.n, domain.m)))
    for d, ((lo, hi), born) in enumerate(zip(rows, births)):
        if d == 0:
            dtype = np.result_type(up_in, down_in, born)
            ups, downs = up_in.astype(dtype), down_in.astype(dtype)
        up, down = ups[lo : hi + 1][::-1], downs[d - hi : d - lo + 1]
        site_outflows(up, down, born, out=(up, down))
        if mass is not None:
            k, end = firsts[d], firsts[d] + 2 * len(up)
            mass[k:end:2], mass[k + 1 : end : 2] = up, down
    return ups, downs


def sweep(domain: RectDomain, up_in: np.ndarray, down_in: np.ndarray, born: np.ndarray) -> np.ndarray:
    """The mass of every edge in canonical order, from :func:`front` on the
    births ``born`` of every site of ``domain.sites``.

    Every edge either enters a west side or leaves a site, so the inflows are
    placed through their edge indices and the front writes the rest, one
    column's outflows at a time.
    """
    mass = np.empty((domain.edge_count, *born.shape[1:]), np.result_type(up_in, down_in, born))
    mass[domain.side_edges[0]], mass[domain.side_edges[1]] = up_in, down_in
    front(domain, up_in, down_in, (born[column] for column in domain.columns), mass)
    return mass


def _site_index(domain: RectDomain, values: dict, on: np.ndarray | None, what: str) -> list:
    """The values of the site-keyed dict ``values`` in the order of ``domain.sites``, or of
    the sites where the mask ``on`` holds, with 0 at every site it omits; ValueError
    ``what: [keys]`` listing the keys that are no site, or no site where ``on`` holds."""
    keys = list(values)
    if not (set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {2}):
        raise ValueError(f"{what}: {[k for k in keys if type(k) is not tuple or len(k) != 2]}")
    flat = as_integers(list(chain.from_iterable(keys)), "a site coordinate")
    index = domain.find_sites(flat[0::2], flat[1::2])
    bad = index < 0
    if on is not None:
        bad[~bad] = ~on[index[~bad]]
    if bad.any():
        raise ValueError(f"{what}: {sorted(k for k, b in zip(keys, bad.tolist()) if b)}")
    placed = np.zeros(domain.n * domain.m, object)
    placed[index] = np.fromiter(values.values(), object, len(keys))
    return (placed if on is None else placed[on]).tolist()


def _site_masses(domain: RectDomain, entries: list, mode: str | None) -> tuple[list, str]:
    """An array of masses per ``(values, on, what)`` entry, and the mode.  ``values``, a list,
    a 1-D array whose numbers share one type or a site-keyed dict (see :func:`_site_index`),
    holds one mass per site where ``on`` holds (every site if None), in site order, and goes
    through :func:`as_masses` in ``mode``, by default the :func:`infer_mode` of every value.
    Int-mode masses are int64 when all of them sum below ``2**63``, else exact Python ints."""
    read, sample = [], []
    for values, on, what in entries:
        if isinstance(values, dict):
            values = _site_index(domain, values, on, what)
        at = range(domain.n * domain.m) if on is None else np.flatnonzero(on)  # the sites, in order
        if getattr(values, "ndim", 1) != 1 or len(values) != len(at):
            raise ValueError(f"masses of shape {np.shape(values)} for {len(at)} sites")
        read.append((values, at))
        sample.extend(values if getattr(values, "dtype", object) == object else values[:1].astype(object))
    mode = infer_mode(sample) if mode is None else mode
    masses = [as_masses(v, mode, lambda i, at=at: domain.sites_of(at[i : i + 1])[0]) for v, at in read]
    if mode == "int" and sum(int(m.sum(dtype=object)) for m in masses) >= 1 << 63:  # no wrap
        masses = [m.astype(object) for m in masses]
    return masses, mode


def field_from_birth(
    domain: RectDomain,
    boundary: BoundaryFlow | None = None,
    births: BirthField | None = None,
    mode: str | None = None,
) -> FlowField:
    """Run the forward evolution: births plus surviving inflow at each site.

    Sites are swept in increasing t; at each one the outgoing ascending mass
    is ``birth + [in_up - in_down]^+`` and symmetrically for the descending
    one, so the result conserves mass by construction.
    """
    boundary = boundary or BoundaryFlow({}, {})
    births = births or BirthField(domain, {})
    if births.domain != domain:
        raise ValueError("birth field belongs to a different domain")

    sw, nw = domain.neighbours[:2] < 0
    entries = [
        (boundary.up_in, sw, "ascending inflow keyed off the southwest side"),
        (boundary.down_in, nw, "descending inflow keyed off the northwest side"),
        (births._values, None, _OUTSIDE),
    ]
    (up, down, born), mode = _site_masses(domain, entries, mode)
    return FlowField.from_values(domain, sweep(domain, up, down, born), mode)


def check_conservation(field: FlowField) -> list[tuple[Site, float]]:
    """Sites where inflow and outflow disagree beyond tolerance, with residuals."""
    a, b, c, d = field.values[field.domain.incident]
    residual = abs((b + c) - (a + d))
    scale = np.maximum(np.maximum(a, b), np.maximum(c, d))
    bad = np.flatnonzero(residual > tolerance(scale, field.mode))
    sites = field.domain.sites_of(bad)
    return list(zip(sites, residual[bad].tolist()))


def require_conserved(field: FlowField) -> None:
    bad = check_conservation(field)
    if bad:
        raise ValueError(f"conservation fails at {len(bad)} site(s), first: {bad[0]}")


def extract(field: FlowField) -> tuple[BoundaryFlow, BirthField, ExitFlow]:
    """Invert the forward construction: recover inflows, births and exits.

    Births come out as the smaller of the two outgoing masses; the roundtrip
    through :func:`field_from_birth` reproduces the field exactly in integer
    mode and within tolerance in float mode.
    """
    domain = field.domain
    require_conserved(field)

    def side(sites, slope: int) -> dict:
        return dict(zip(sites, side_masses(field, slope)))

    _, _, up, down = field.values[domain.incident]
    smaller = np.where(down < up, down, up)
    born = np.flatnonzero(smaller != 0)
    sites = domain.sites
    births = {sites[i]: b for i, b in zip(born.tolist(), smaller[born].tolist())}
    return (
        BoundaryFlow(side(domain.southwest_side, 0), side(domain.northwest_side, 1)),
        BirthField(domain, births),
        ExitFlow(side(domain.northeast_side, 2), side(domain.southeast_side, 3)),
    )


def side_masses(field: FlowField, side: int) -> list:
    """Masses of ``domain.side_edges[side]``: 0 and 1 the inflow of the
    southwest and northwest sides, 2 and 3 the outflow of the northeast and
    southeast sides, in side order."""
    return field.values[field.domain.side_edges[side]].tolist()


def total_crossing_flow(field: FlowField):
    """Total mass crossing the domain: west-side inflow plus southeast exits.

    The same mass leaves through the other two sides; the two sums are
    compared and a disagreement beyond tolerance signals a corrupt field.
    """
    left = sum(side_masses(field, 0)) + sum(side_masses(field, 3))
    right = sum(side_masses(field, 1)) + sum(side_masses(field, 2))
    if abs(left - right) > tolerance(max(left, right), field.mode):
        raise ValueError(f"crossing-flow sums disagree: {left} vs {right}")
    return left


def field_to_dict(f: FlowField) -> dict:
    t, x, down = f.domain.edge_points()
    slopes = map(("up", "down").__getitem__, down.tolist())
    return {
        "domain": f.domain.to_dict(),
        "mode": f.mode,
        "edges": [
            {"t": t, "x": x, "slope": slope, "mass": mass}
            for t, x, slope, mass in zip(t.tolist(), x.tolist(), slopes, f.values.tolist())
        ],
    }


def field_from_dict(d: dict) -> FlowField:
    """Read :func:`field_to_dict` output; edges it omits carry zero.

    Raises ValueError on a payload that is not an object with a domain and a
    list of edge objects, a missing key, an unknown mode or slope, a
    non-integral coordinate, an edge outside the domain closure or listed
    twice, and a mass :func:`as_mass` refuses.
    """
    if not isinstance(d, dict):
        raise ValueError(f"a field must be a JSON object, not {type(d).__name__}")
    missing = [key for key in ("domain", "edges") if key not in d]
    if missing:
        raise ValueError(f"a field needs the key {missing[0]!r}")
    domain = domain_from_dict(d["domain"])
    mode = d.get("mode", "float")
    rows = d["edges"]
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError("field edges must be a list of objects")
    t = as_integers(_column(rows, "t"), "edge t")
    x = as_integers(_column(rows, "x"), "edge x")
    slopes = _column(rows, "slope")
    bad = [s for s in slopes if s != "up" and s != "down"]
    if bad:
        raise ValueError(f"edge slope must be 'up' or 'down', not {bad[0]!r}")
    down = np.array([s == "down" for s in slopes], dtype=bool)

    def edge(k: int) -> Edge:
        return Edge(t[k], x[k], not down[k])

    found = domain.find_edges(t, x, down)
    if (found < 0).any():
        raise ValueError(f"edge {edge(int(np.argmin(found)))} outside the domain closure")
    order = np.argsort(found, kind="stable")
    repeats = order[1:][found[order[1:]] == found[order[:-1]]]
    if repeats.size:
        raise ValueError(f"edge {edge(int(repeats.min()))} listed twice")
    masses = as_masses(_column(rows, "mass"), mode, edge)
    values = np.zeros(domain.edge_count, masses.dtype)
    values[found] = masses
    return FlowField.from_values(domain, values, mode)


def _column(rows: list, key: str) -> list:
    """``row[key]`` of every edge row; ValueError naming the first row without ``key``."""
    try:
        return [row[key] for row in rows]
    except KeyError:
        first = next(i for i, row in enumerate(rows) if key not in row)
        raise ValueError(f"edge row {first} has no key {key!r}") from None
