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
of the plan's ``edge_keys`` and of ``domain.edges``), which the field
operations, JSON included, read with the domain's index plans; an
``Edge``-keyed dict is read into it at once, and the dict ``FlowField.mass``
is a view built on first read.  Births in site order and inflows in side
order are read as arrays too, each where it lies; a site-keyed dict is
placed by site first.  :func:`sweep` runs on such arrays one ``t``-column
at a time, with an optional trailing replica axis.  The dtype is float64
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

from .lattice import Domain, Edge, Site, as_integers, domain_from_dict, require_rect

REL_TOL = 1e-9
ABS_TOL = 1e-12


def tolerance(scale, mode: str):
    """Largest gap at which two quantities made of masses up to ``scale`` count as equal.

    ``scale`` may be an array, for one tolerance per element.
    """
    if mode == "int":
        return 0
    return np.maximum(ABS_TOL, REL_TOL * scale)


@dataclass(frozen=True)
class BoundaryFlow:
    """Inflow data, ascending on the southwest side and descending on the northwest
    side: keyed by side site, missing sites carrying zero, or arrays in side order."""

    up_in: dict[Site, float] | np.ndarray
    down_in: dict[Site, float] | np.ndarray


@dataclass(frozen=True, init=False)
class BirthField:
    """Mass of pair creation per site; support inside the domain.

    ``BirthField(domain, births)`` takes a site-keyed dict, placed by site on first read;
    :meth:`from_values` a 1-D array, one mass per site of ``domain.sites``, of which
    ``births`` is a view built on first read.  Either way ``_given`` alone holds ``(where,
    masses)``, unchecked until :meth:`masses`, the one read other modules make.
    """

    domain: Domain
    births: dict[Site, float]

    def __init__(self, domain: Domain, births: dict[Site, float]) -> None:
        self.__dict__.update(domain=domain, births=births)

    @classmethod
    def from_values(cls, domain: Domain, values: np.ndarray) -> "BirthField":
        """The births ``values``, in the order of ``domain.sites``."""
        field = cls.__new__(cls)
        field.__dict__.update(domain=domain, _given=(slice(None), values))
        return field

    @cached_property
    def births(self) -> dict[Site, float]:
        return dict(zip(self.domain.sites, self._given[1].tolist()))

    @cached_property
    def _given(self) -> tuple:
        return _site_index(self.domain, self.births, None, "births outside the domain")

    def masses(self, mode: str | None = None) -> np.ndarray:
        """One mass per site of ``domain.sites`` in ``mode`` (inferred when
        None), read and checked as :func:`field_from_birth` reads births."""
        return _site_masses(self.domain, [self._given], mode)[0][0]


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
    reads an ``Edge``-keyed dict into it at once.  ``mass`` is a view of
    ``values`` built on first read; it stays a dataclass field, so
    ``dataclasses.replace(field, mass=d)`` gives the field of the dict ``d``
    and ``==`` compares domains, masses and modes.
    """

    domain: Domain
    mass: dict[Edge, float]
    mode: str = "float"

    def __init__(self, domain: Domain, mass: dict[Edge, float], mode: str = "float") -> None:
        self._hold(domain, mass_array(list(map(mass.__getitem__, domain.edges)), mode), mode)

    @classmethod
    def from_values(cls, domain: Domain, values: np.ndarray, mode: str) -> "FlowField":
        """The field whose masses are ``values`` in canonical edge order."""
        field = cls.__new__(cls)
        field._hold(domain, values, mode)
        return field

    def _hold(self, domain: Domain, values: np.ndarray, mode: str) -> None:
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
    # int and float first: the Real ABC check is several times slower
    real = type(value) is not bool and isinstance(value, (int, float, Real))
    try:
        if real and 0 <= value < math.inf and (mode != "int" or value == int(value)):
            return int(value) if mode == "int" else float(value) + 0.0
    except OverflowError:  # too large for a float
        pass
    kind = "integer" if mode == "int" else "number"
    raise ValueError(f"mass {value!r} at {where} is not a finite nonnegative {kind}")


def as_masses(values, mode: str, where) -> np.ndarray:
    """:func:`as_mass` on every value of a list or a 1-D array, as one array.

    The rule, finite and nonnegative, is checked at once on an int64 array in int mode or a
    float64 one in float mode, kept as it is, and on one :func:`mass_array` of a list of
    Python ints, or in float mode ints and floats; other arrays are read as their ``tolist()``.
    Any other list, or a value breaking the rule, goes value by value through ``as_mass``,
    ``where(i)`` naming value ``i``: it raises for the first offender and casts the rest.
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
    return mass_array([as_mass(v, mode, where(i)) for i, v in enumerate(values)], mode)


def mass_array(values: list, mode: str) -> np.ndarray:
    """``values`` as an array: float64 in float mode; in int mode int64 when
    the sum of their sizes is below ``2**63``, else an object array of the
    Python ints themselves, so that no sum of them can wrap."""
    if mode != "int":
        return np.array(values, dtype=np.float64)
    exact = set(map(type, values)) <= {int} and sum(map(abs, values)) < 1 << 63
    return np.array(values, dtype=np.int64 if exact else object)


def site_outflows(in_up, in_down, born):
    """The site update: ``born + [in_up - in_down]^+`` and its mirror image.

    Elementwise, so it runs on plain numbers and on per-replica arrays alike.
    """
    up = in_up - in_down
    down = in_down - in_up
    return born + up * (up > 0), born + down * (down > 0)


def sweep(domain: Domain, up_in: np.ndarray, down_in: np.ndarray, born: np.ndarray) -> np.ndarray:
    """Forward evolution of complete, already checked data; no validation.

    ``up_in`` and ``down_in`` hold the inflow at each site of the southwest
    and northwest sides, in their order, and ``born`` the birth at each site
    of ``domain.sites``; a trailing replica axis is allowed.  Returns the
    mass of every edge in canonical order, one ``t``-column of sites at a
    time: each column reads only edges written by the column before it.
    """
    sw, nw, ne, se = domain.plan.incident
    entry_up, entry_down, _, _ = domain.side_edges
    mass = np.zeros((len(domain.plan.edge_keys), *born.shape[1:]), np.result_type(up_in, down_in, born))
    mass[entry_up] = up_in
    mass[entry_down] = down_in
    for col in domain.plan.columns:
        mass[ne[col]], mass[se[col]] = site_outflows(mass[sw[col]], mass[nw[col]], born[col])
    return mass


def _site_index(domain: Domain, values: dict, on: np.ndarray | None, what: str) -> tuple:
    """Position in ``domain.sites`` of each key of ``values``, and the values; ValueError
    ``what: [keys]`` listing the keys that are no site, or no site where
    ``on`` holds."""
    keys = list(values)
    if not (set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {2}):
        raise ValueError(f"{what}: {[k for k in keys if type(k) is not tuple or len(k) != 2]}")
    flat = as_integers(list(chain.from_iterable(keys)), "a site coordinate")
    plan = domain.plan
    index = plan.find(plan.site_keys, flat[0::2], flat[1::2])
    bad = index < 0
    if on is not None:
        bad[~bad] = ~on[index[~bad]]
    if bad.any():
        raise ValueError(f"{what}: {sorted(k for k, b in zip(keys, bad.tolist()) if b)}")
    return index, list(values.values())


def _site_masses(domain: Domain, entries: list, mode: str | None) -> tuple[np.ndarray, str]:
    """One row of masses per site for each ``(where, values)`` entry, and the mode.  ``values``
    (a list, or a 1-D array whose numbers share one type) holds one mass per site of
    ``domain.sites[where]`` and goes through :func:`as_masses` in ``mode``, by default the
    :func:`infer_mode` of every value.  Rows are int64 when all masses sum below ``2**63``."""
    plan, sample = domain.plan, []
    keys = [plan.site_keys[where] for where, _ in entries]
    for (_, v), k in zip(entries, keys):
        if getattr(v, "ndim", 1) != 1 or len(v) != len(k):
            raise ValueError(f"masses of shape {np.shape(v)} for {len(k)} sites")
        sample.extend(v if getattr(v, "dtype", object) == object else v[:1].astype(object))
    mode = infer_mode(sample) if mode is None else mode
    masses = [as_masses(v, mode, lambda i, k=k: plan.points(k[i : i + 1])[0])
              for (_, v), k in zip(entries, keys)]
    wide = mode == "int" and sum(int(m.sum(dtype=object)) for m in masses) >= 1 << 63  # no wrap
    out = np.zeros((len(entries), len(plan.site_keys)), object if wide else masses[0].dtype)
    for row, (where, _), m in zip(out, entries, masses):
        row[where] = m
    return out, mode


def field_from_birth(
    domain: Domain,
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
    inflows = (
        (boundary.up_in, sw, "ascending inflow keyed off the southwest side"),
        (boundary.down_in, nw, "descending inflow keyed off the northwest side"),
    )
    entries = [_site_index(domain, d, on, what) if isinstance(d, dict) else (on, d)
               for d, on, what in inflows] + [births._given]
    (up, down, born), mode = _site_masses(domain, entries, mode)
    return FlowField.from_values(domain, sweep(domain, up[sw], down[nw], born), mode)


def check_conservation(field: FlowField) -> list[tuple[Site, float]]:
    """Sites where inflow and outflow disagree beyond tolerance, with residuals."""
    a, b, c, d = field.values[field.domain.plan.incident]
    residual = abs((b + c) - (a + d))
    scale = np.maximum(np.maximum(a, b), np.maximum(c, d))
    bad = np.flatnonzero(residual > tolerance(scale, field.mode))
    sites = field.domain.plan.points(field.domain.plan.site_keys[bad])
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
    domain = require_rect(field.domain, "extraction")
    require_conserved(field)

    def side(sites, slope: int) -> dict:
        return dict(zip(sites, side_masses(field, slope)))

    _, _, up, down = field.values[domain.plan.incident]
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
    domain = require_rect(field.domain, "crossing flow")
    left = sum(side_masses(field, 0)) + sum(side_masses(field, 3))
    right = sum(side_masses(field, 1)) + sum(side_masses(field, 2))
    if abs(left - right) > tolerance(max(left, right), field.mode):
        raise ValueError(f"crossing-flow sums disagree: {left} vs {right}")
    return left


def field_to_dict(f: FlowField) -> dict:
    plan = f.domain.plan
    t, x, down = plan.edge_points()
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

    Raises ValueError on a payload that is not an object with a list of
    edge objects, an unknown mode or slope, a non-integral coordinate, an
    edge outside the domain closure or listed twice, and a mass
    :func:`as_mass` refuses.
    """
    if not isinstance(d, dict):
        raise ValueError(f"a field must be a JSON object, not {type(d).__name__}")
    domain = domain_from_dict(d["domain"])
    mode = d.get("mode", "float")
    rows = d["edges"]
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError("field edges must be a list of objects")
    t = as_integers([row["t"] for row in rows], "edge t")
    x = as_integers([row["x"] for row in rows], "edge x")
    slopes = [row["slope"] for row in rows]
    bad = [s for s in slopes if s != "up" and s != "down"]
    if bad:
        raise ValueError(f"edge slope must be 'up' or 'down', not {bad[0]!r}")
    down = np.array([s == "down" for s in slopes], dtype=bool)

    def edge(k: int) -> Edge:
        return Edge(t[k], x[k], not down[k])

    plan = domain.plan
    found = plan.find_edges(t, x, down)
    if (found < 0).any():
        raise ValueError(f"edge {edge(int(np.argmin(found)))} outside the domain closure")
    order = np.argsort(found, kind="stable")
    repeats = order[1:][found[order[1:]] == found[order[:-1]]]
    if repeats.size:
        raise ValueError(f"edge {edge(int(repeats.min()))} listed twice")
    masses = as_masses([row["mass"] for row in rows], mode, edge)
    values = np.zeros(len(plan.edge_keys), masses.dtype)
    values[found] = masses
    return FlowField.from_values(domain, values, mode)
