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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .lattice import (
    Domain,
    Edge,
    Site,
    domain_from_dict,
    edge_ne,
    edge_nw,
    edge_se,
    edge_sw,
    require_rect,
)

REL_TOL = 1e-9
ABS_TOL = 1e-12


def tolerance(scale, mode: str):
    """Largest gap at which two quantities made of masses up to ``scale`` count as equal."""
    if mode == "int":
        return 0
    return max(ABS_TOL, REL_TOL * scale)


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

    @property
    def max_mass(self):
        return max(self.mass.values(), default=0)


def infer_mode(values) -> str:
    """``"int"`` when every value is an ``int`` (a bool is not), else ``"float"``."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            return "float"
    return "int"


def as_mass(value, mode: str, where):
    """``value`` cast to the mode's number type, once it is a mass a field can carry.

    Masses are finite and nonnegative, and integral in int mode; anything
    else raises ValueError.  A negative zero is read as zero.
    """
    try:  # int and float first: the Integral ABC check is several times slower
        number = value if isinstance(value, (int, float, Integral)) else float(value)
        if 0 <= number < math.inf and (mode != "int" or number == int(number)):
            return int(number) if mode == "int" else float(number) + 0.0
    except OverflowError:  # an integer too large for a float
        pass
    kind = "integer" if mode == "int" else "number"
    raise ValueError(f"mass {value!r} at {where} is not a finite nonnegative {kind}")


def site_outflows(in_up, in_down, born):
    """The site update: ``born + [in_up - in_down]^+`` and its mirror image.

    Elementwise, so it runs on plain numbers and on per-replica arrays alike.
    """
    up = in_up - in_down
    down = in_down - in_up
    return born + up * (up > 0), born + down * (down > 0)


def sweep(domain: Domain, up_in: dict, down_in: dict, born: dict) -> dict[Edge, object]:
    """Forward evolution of complete, already checked data; no validation.

    ``up_in`` and ``down_in`` hold a value for every site of the southwest
    and northwest sides, ``born`` one for every site.  Values may be numbers
    or per-replica arrays.  Returns the mass of every edge in canonical order.
    """
    mass: dict[Edge, object] = dict.fromkeys(domain.edges)
    for y in domain.sites:  # sorted by (t, x): predecessors come first
        if y in up_in:
            mass[edge_sw(y)] = up_in[y]
        if y in down_in:
            mass[edge_nw(y)] = down_in[y]
        mass[edge_ne(y)], mass[edge_se(y)] = site_outflows(
            mass[edge_sw(y)], mass[edge_nw(y)], born[y]
        )
    return mass


def zero_field(domain: Domain, mode: str = "float") -> FlowField:
    z = 0 if mode == "int" else 0.0
    return FlowField(domain, {e: z for e in domain.edges}, mode)


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

    def checked(values: dict, sites) -> dict:
        return {y: as_mass(values.get(y, 0), mode, y) for y in sites}

    mass = sweep(
        domain,
        checked(boundary.up_in, domain.southwest_side),
        checked(boundary.down_in, domain.northwest_side),
        checked(births.births, domain.sites),
    )
    return FlowField(domain, mass, mode)


def check_conservation(field: FlowField) -> list[tuple[Site, float]]:
    """Sites where inflow and outflow disagree beyond tolerance, with residuals."""
    bad = []
    for y in field.domain.sites:
        a = field.mass[edge_sw(y)]
        b = field.mass[edge_nw(y)]
        c = field.mass[edge_ne(y)]
        d = field.mass[edge_se(y)]
        residual = abs((b + c) - (a + d))
        if residual > tolerance(max(a, b, c, d), field.mode):
            bad.append((y, residual))
    return bad


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
    up_in = {y: field.mass[edge_sw(y)] for y in domain.southwest_side}
    down_in = {y: field.mass[edge_nw(y)] for y in domain.northwest_side}
    births = {}
    for y in domain.sites:
        b = min(field.mass[edge_ne(y)], field.mass[edge_se(y)])
        if b != 0:
            births[y] = b
    up_out = {y: field.mass[edge_ne(y)] for y in domain.northeast_side}
    down_out = {y: field.mass[edge_se(y)] for y in domain.southeast_side}
    return (
        BoundaryFlow(up_in, down_in),
        BirthField(domain, births),
        ExitFlow(up_out, down_out),
    )


def total_crossing_flow(field: FlowField):
    """Total mass crossing the domain: west-side inflow plus southeast exits.

    The same mass leaves through the other two sides; the two sums are
    compared and a disagreement beyond tolerance signals a corrupt field.
    """
    domain = require_rect(field.domain, "crossing flow")
    left = sum(field.mass[edge_sw(y)] for y in domain.southwest_side) + sum(
        field.mass[edge_se(y)] for y in domain.southeast_side
    )
    right = sum(field.mass[edge_nw(y)] for y in domain.northwest_side) + sum(
        field.mass[edge_ne(y)] for y in domain.northeast_side
    )
    if abs(left - right) > tolerance(max(left, right), field.mode):
        raise ValueError(f"crossing-flow sums disagree: {left} vs {right}")
    return left


def add_fields(a: FlowField, b: FlowField) -> FlowField:
    """Edgewise sum; the conservation law is linear so validity is preserved."""
    if a.domain != b.domain:
        raise ValueError("cannot add fields on different domains")
    if a.mode != b.mode:
        raise ValueError("cannot mix integer and float fields")
    return FlowField(a.domain, {e: a.mass[e] + b.mass[e] for e in a.domain.edges}, a.mode)


def max_edge_gap(a: FlowField, b: FlowField):
    """Largest edgewise difference between two fields on one domain."""
    if a.domain != b.domain:
        raise ValueError("fields live on different domains")
    return max(abs(a.mass[e] - b.mass[e]) for e in a.domain.edges)


def field_to_dict(f: FlowField) -> dict:
    return {
        "domain": f.domain.to_dict(),
        "mode": f.mode,
        "edges": [
            {"t": e.t, "x": e.x, "slope": "up" if e.up else "down", "mass": f.mass[e]}
            for e in f.domain.edges
        ],
    }


def field_from_dict(d: dict) -> FlowField:
    domain = domain_from_dict(d["domain"])
    mode = d.get("mode", "float")
    mass = zero_field(domain, mode).mass
    for row in d["edges"]:
        e = Edge(int(row["t"]), int(row["x"]), row["slope"] == "up")
        if e not in mass:
            raise ValueError(f"edge {e} outside the domain closure")
        mass[e] = as_mass(row["mass"], mode, e)
    return FlowField(domain, mass, mode)
