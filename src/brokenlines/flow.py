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

Layout: ``FlowField.mass`` is the public ``Edge``-keyed dict that JSON,
tests and callers read.  The field operations read ``FlowField.values``
instead, the same masses as one flat array in canonical edge order
(``domain.edges``), and :func:`sweep` runs on such arrays one ``t``-column
at a time, with an optional trailing replica axis.  :func:`mass_array`
picks the dtype: float64 in float mode; in int mode int64 when the sum of
the masses' sizes (for a sweep, of its inflows and births) is below
``2**63``, which bounds every mass, height and sum the operations form,
and otherwise exact Python ints in an object array.  Values handed out
are Python ``int`` and ``float`` either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

from .lattice import Domain, Edge, Site, _find, as_integers, domain_from_dict, require_rect

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
    """Inflow data: ascending mass keyed by southwest-side site, descending
    by northwest-side site.  Missing sites carry zero."""

    up_in: dict[Site, float]
    down_in: dict[Site, float]

    @classmethod
    def zero(cls) -> "BoundaryFlow":
        return cls({}, {})

    def total(self):
        return sum(self.up_in.values()) + sum(self.down_in.values())


@dataclass(frozen=True)
class BirthField:
    """Mass of pair creation per site; support inside the domain."""

    domain: Domain
    births: dict[Site, float]

    @classmethod
    def zero(cls, domain: Domain) -> "BirthField":
        return cls(domain, {})


@dataclass(frozen=True)
class ExitFlow:
    """Outflow read off the exit sides: ascending on the northeast side,
    descending on the southeast side."""

    up_out: dict[Site, float]
    down_out: dict[Site, float]


@dataclass(frozen=True)
class FlowField:
    """Mass per edge of the domain closure.

    Conservation holds at every inner site: the two outgoing edges carry as
    much as the two incoming ones.  Instances are immutable after
    construction and safe to share.
    """

    domain: Domain
    mass: dict[Edge, float]
    mode: str = "float"

    def __post_init__(self) -> None:
        if self.mode not in ("int", "float"):
            raise ValueError(f"mode must be 'int' or 'float', not {self.mode!r}")

    @classmethod
    def from_values(cls, domain: Domain, values: np.ndarray, mode: str) -> "FlowField":
        """The field whose masses are ``values`` in canonical edge order."""
        field = cls(domain, dict(zip(domain.edges, values.tolist())), mode)
        field.__dict__["values"] = values
        return field

    @cached_property
    def values(self) -> np.ndarray:
        """``mass`` as one array in canonical edge order (see :func:`mass_array`)."""
        edges = self.domain.edges
        if list(self.mass) == list(edges):  # the order every producer builds
            return mass_array(list(self.mass.values()), self.mode)
        return mass_array([self.mass[e] for e in edges], self.mode)

    @property
    def max_mass(self):
        return max(self.values.tolist(), default=0)


def infer_mode(values) -> str:
    """``"int"`` when every value is an ``int`` (a bool is not), else ``"float"``."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            return "float"
    return "int"


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


def mass_array(values: list, mode: str) -> np.ndarray:
    """``values`` as an array: float64 in float mode; in int mode int64 when
    the sum of their sizes is below ``2**63``, else an object array of the
    Python ints themselves, so that no sum of them can wrap."""
    if mode != "int":
        return np.array(values, dtype=np.float64)
    exact = all(type(v) is int for v in values) and sum(map(abs, values)) < 1 << 63
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


def zero_field(domain: Domain, mode: str = "float") -> FlowField:
    return FlowField(domain, dict.fromkeys(domain.edges, 0 if mode == "int" else 0.0), mode)


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
    boundary = boundary or BoundaryFlow.zero()
    births = births or BirthField.zero(domain)
    if births.domain != domain:
        raise ValueError("birth field belongs to a different domain")

    bad = set(boundary.up_in) - set(domain.southwest_side)
    if bad:
        raise ValueError(f"ascending inflow keyed off the southwest side: {sorted(bad)}")
    bad = set(boundary.down_in) - set(domain.northwest_side)
    if bad:
        raise ValueError(f"descending inflow keyed off the northwest side: {sorted(bad)}")
    bad = set(births.births) - domain.site_set
    if bad:
        raise ValueError(f"births outside the domain: {sorted(bad)}")

    if mode is None:
        mode = infer_mode(
            list(boundary.up_in.values())
            + list(boundary.down_in.values())
            + list(births.births.values())
        )

    def checked(values: dict, sites) -> list:
        return [as_mass(values.get(y, 0), mode, y) for y in sites]

    up = checked(boundary.up_in, domain.southwest_side)
    down = checked(boundary.down_in, domain.northwest_side)
    born = checked(births.births, domain.sites)
    # every mass and every sum of masses is bounded by the total input
    inputs = mass_array(up + down + born, mode)
    k = len(up) + len(down)
    mass = sweep(domain, inputs[: len(up)], inputs[len(up) : k], inputs[k:])
    return FlowField.from_values(domain, mass, mode)


def check_conservation(field: FlowField) -> list[tuple[Site, float]]:
    """Sites where inflow and outflow disagree beyond tolerance, with residuals."""
    a, b, c, d = field.values[field.domain.plan.incident]
    residual = abs((b + c) - (a + d))
    scale = np.maximum(np.maximum(a, b), np.maximum(c, d))
    bad = np.flatnonzero(residual > tolerance(scale, field.mode))
    sites = field.domain.sites
    return [(sites[i], r) for i, r in zip(bad.tolist(), residual[bad].tolist())]


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


def max_edge_gap(a: FlowField, b: FlowField):
    """Largest edgewise difference between two fields on one domain."""
    if a.domain != b.domain:
        raise ValueError("fields live on different domains")
    return max(abs(a.values - b.values).tolist())


def field_to_dict(f: FlowField) -> dict:
    return {
        "domain": f.domain.to_dict(),
        "mode": f.mode,
        "edges": [
            {"t": e.t, "x": e.x, "slope": "up" if e.up else "down", "mass": f.mass[e]}
            for e in f.domain.edges
        ],
    }


def _clipped(values: list, lo: int, hi: int) -> np.ndarray:
    """Python ints clipped to ``[lo, hi]``, as int64: exact however large they are."""
    return np.clip(np.array(values, dtype=object), lo, hi).astype(np.int64)


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
    # a coordinate beyond the plan's box is clipped to just outside it, where no edge is
    plan = domain.plan
    t_hi = int(plan.decode(plan.closure_keys[-1])[0]) + 1
    boxed_t = _clipped(t, plan.t_lo - 1, t_hi)
    boxed_x = _clipped(x, plan.x_lo - 1, plan.x_lo + plan.width)
    found = _find(plan.edge_keys, 2 * plan.key(boxed_t, boxed_x) + down)
    if (found < 0).any():
        k = int(np.argmin(found))
        raise ValueError(f"edge {Edge(t[k], x[k], not down[k])} outside the domain closure")
    edges = domain.edges
    values = [None] * len(edges)
    for i, row in zip(found.tolist(), rows):
        if values[i] is not None:
            raise ValueError(f"edge {edges[i]} listed twice")
        values[i] = as_mass(row["mass"], mode, edges[i])
    zero = 0 if mode == "int" else 0.0
    values = [zero if v is None else v for v in values]
    return FlowField.from_values(domain, mass_array(values, mode), mode)
