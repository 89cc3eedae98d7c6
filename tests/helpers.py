"""Shared builders for randomized test instances."""

from __future__ import annotations

import math

from brokenlines import BirthField, BoundaryFlow, FlowField, RectDomain, field_from_birth
from brokenlines.flow import site_outflows
from brokenlines.lattice import edge_ne, edge_nw, edge_se, edge_sw
from brokenlines.lpp import birth_matrix
from brokenlines.streams import uniform


def exp_draw(seed: int, *key: int) -> float:
    return -math.log1p(-uniform(seed, *key))


def geom_draw(seed: int, lam: float, *key: int) -> int:
    return int(math.floor(math.log1p(-uniform(seed, *key)) / math.log(lam)))


def random_inputs(domain: RectDomain, seed: int, mode: str = "float", boundary: bool = True):
    """Random inflows and births: exponential in float mode, geometric in int."""
    if mode == "float":
        up = {y: exp_draw(seed, 1, *y) for y in domain.southwest_side} if boundary else {}
        down = {y: exp_draw(seed, 2, *y) for y in domain.northwest_side} if boundary else {}
        births = {y: exp_draw(seed, 3, *y) for y in domain.sites}
    else:
        up = {y: geom_draw(seed, 0.5, 1, *y) for y in domain.southwest_side} if boundary else {}
        down = {y: geom_draw(seed, 0.5, 2, *y) for y in domain.northwest_side} if boundary else {}
        births = {y: geom_draw(seed, 0.4, 3, *y) for y in domain.sites}
    return BoundaryFlow(up, down), BirthField(domain, births)


def random_field(domain: RectDomain, seed: int, mode: str = "float", boundary: bool = True):
    """Random conserved field grown from :func:`random_inputs`."""
    inflow, births = random_inputs(domain, seed, mode, boundary)
    return field_from_birth(domain, inflow, births, mode=mode)


def random_birth_field(domain: RectDomain, seed: int) -> BirthField:
    return BirthField(domain, {y: exp_draw(seed, 3, *y) for y in domain.sites})


def random_domain(seed: int, max_side: int = 8) -> RectDomain:
    n = 1 + int(uniform(seed, 101) * max_side)
    m = 1 + int(uniform(seed, 102) * max_side)
    return RectDomain(min(n, max_side), min(m, max_side))


def births_to_csv_text(xi: BirthField) -> str:
    """Births as CSV rows of the cell-indexed matrix."""
    matrix = birth_matrix(xi)
    return "\n".join(",".join(repr(float(v)) for v in row) for row in matrix) + "\n"


def dict_sweep(domain, up_in: dict, down_in: dict, born: dict) -> dict:
    """The forward sweep one site at a time over ``Edge``-keyed dicts.

    The reference that ``flow.sweep`` is tested against: sites in sorted
    order, each reading its two incoming edges and writing its two outgoing
    ones.
    """
    mass = dict.fromkeys(domain.edges)
    for y in domain.sites:  # sorted by (t, x): predecessors come first
        if y in up_in:
            mass[edge_sw(y)] = up_in[y]
        if y in down_in:
            mass[edge_nw(y)] = down_in[y]
        mass[edge_ne(y)], mass[edge_se(y)] = site_outflows(
            mass[edge_sw(y)], mass[edge_nw(y)], born[y]
        )
    return mass


def add_fields(a: FlowField, b: FlowField) -> FlowField:
    """Edgewise sum; the conservation law is linear so validity is preserved."""
    if a.domain != b.domain:
        raise ValueError("cannot add fields on different domains")
    if a.mode != b.mode:
        raise ValueError("cannot mix integer and float fields")
    return FlowField(a.domain, {e: a.mass[e] + b.mass[e] for e in a.domain.edges}, a.mode)


# Outer boundary classes of a rectangle: the sites of ``closure - S``
# adjacent to each side.  Exactly one class holds each outer site.
def outer_southwest(domain: RectDomain) -> tuple:
    return tuple(y for y in domain.outer_sites if domain.contains((y[0] + 1, y[1] + 1)))


def outer_northwest(domain: RectDomain) -> tuple:
    return tuple(y for y in domain.outer_sites if domain.contains((y[0] + 1, y[1] - 1)))


def outer_northeast(domain: RectDomain) -> tuple:
    return tuple(y for y in domain.outer_sites if domain.contains((y[0] - 1, y[1] - 1)))


def outer_southeast(domain: RectDomain) -> tuple:
    return tuple(y for y in domain.outer_sites if domain.contains((y[0] - 1, y[1] + 1)))
