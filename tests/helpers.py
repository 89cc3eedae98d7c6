"""Shared builders for randomized test instances."""

from __future__ import annotations

import math

from brokenlines import BirthField, BoundaryFlow, RectDomain, field_from_birth
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
