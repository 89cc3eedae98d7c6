"""Directed last passage percolation on the rectangle.

The passage value is the best total birth mass collected by an oriented
corner-to-corner path.  It equals the total crossing flow of the field grown
from the births alone, which yields a linear-time backward rule for an
optimal path on top of the usual dynamic program.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .flow import (
    BirthField,
    FlowField,
    field_from_birth,
    side_masses,
    tolerance,
    total_crossing_flow,
)
from .lattice import RectDomain, Site, edge_nw, edge_sw, require_rect


@dataclass(frozen=True)
class LatticePath:
    """Oriented path: t advances by one per step, x moves by +-1."""

    sites: tuple[Site, ...]

    def __post_init__(self) -> None:
        for (t0, x0), (t1, x1) in zip(self.sites, self.sites[1:]):
            if t1 != t0 + 1 or abs(x1 - x0) != 1:
                raise ValueError(f"illegal oriented step {(t0, x0)} -> {(t1, x1)}")


@dataclass(frozen=True)
class LppResult:
    value: float
    path: LatticePath | None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "path": [list(y) for y in self.path.sites] if self.path else None,
        }


def birth_matrix(xi: BirthField) -> np.ndarray:
    """Births as the (n, m) matrix indexed by the cell bijection."""
    domain = require_rect(xi.domain, "passage values")
    out = np.zeros((domain.n, domain.m))
    for y, v in xi.births.items():
        i, j = domain.site_to_cell(y)
        out[i - 1, j - 1] = v
    return out


def births_from_matrix(matrix: np.ndarray) -> BirthField:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not ((0 <= matrix) & (matrix < np.inf)).all():
        raise ValueError("birth matrix cells must be finite and nonnegative")
    n, m = matrix.shape
    domain = RectDomain(n, m)
    births = {
        domain.cell_to_site(i + 1, j + 1): float(matrix[i, j])
        for i in range(n)
        for j in range(m)
        if matrix[i, j] != 0
    }
    return BirthField(domain, births)


def _columns(columns):
    """Yield the best-path sums column by column, holding one column.

    ``G[..., i, j] = x[..., i, j] + max(G[..., i-1, j], G[..., i, j-1])``,
    fed one column ``x[..., :, j]`` of shape ``(..., n)`` at a time and
    evaluated for the whole column as a prefix sum plus a running maximum
    along the last axis.  Leading axes are independent matrices.
    """
    columns = iter(columns)
    col = np.cumsum(next(columns), axis=-1)
    yield col
    for x in columns:
        cum = np.cumsum(x, axis=-1)
        gap = col.copy()
        gap[..., 1:] -= cum[..., :-1]
        col = cum + np.maximum.accumulate(gap, axis=-1)
        yield col


def _dp_table(matrix: np.ndarray) -> np.ndarray:
    """Cumulative best-path table G[i, j] over matrix cells."""
    table = np.empty(matrix.shape)
    for j, col in enumerate(_columns(matrix.T)):
        table[:, j] = col
    return table


def passage_value(matrix: np.ndarray) -> float:
    """Best oriented path sum over a matrix, value only, O(n) memory."""
    for col in _columns(np.atleast_2d(np.asarray(matrix, dtype=float)).T):
        pass
    return float(col[-1])


def lpp_dp(xi: BirthField, with_path: bool = True) -> LppResult:
    """Forward dynamic program; ties prefer the predecessor in the first index."""
    domain = require_rect(xi.domain, "passage values")
    table = _dp_table(birth_matrix(xi))
    value = float(table[-1, -1])
    if not with_path:
        return LppResult(value, None)
    i, j = domain.n - 1, domain.m - 1
    cells = [(i, j)]
    while i > 0 or j > 0:
        if j == 0 or (i > 0 and table[i - 1, j] >= table[i, j - 1]):
            i -= 1
        else:
            j -= 1
        cells.append((i, j))
    cells.reverse()
    sites = tuple(domain.cell_to_site(i + 1, j + 1) for i, j in cells)
    return LppResult(value, LatticePath(sites))


def lpp_bruteforce(xi: BirthField) -> float:
    """Exhaustive maximum over all oriented paths; oracle for small domains."""
    domain = require_rect(xi.domain, "passage values")
    n, m = domain.n, domain.m
    if n + m > 14:
        raise ValueError("brute force is limited to n + m <= 14")
    matrix = birth_matrix(xi)
    steps = n + m - 2
    best = -np.inf
    for down_steps in combinations(range(steps), n - 1):
        i = j = 0
        total = matrix[0, 0]
        marks = set(down_steps)
        for s in range(steps):
            if s in marks:
                i += 1
            else:
                j += 1
            total += matrix[i, j]
        best = max(best, total)
    return float(best)


def flow_identity_residual(xi: BirthField) -> float:
    """|passage value - total crossing flow| for the field grown from births."""
    value = lpp_dp(xi, with_path=False).value
    field = field_from_birth(xi.domain, births=xi, mode="float")
    return abs(value - float(total_crossing_flow(field)))


def optimal_path_backward(field: FlowField) -> LatticePath:
    """Walk an optimal path backwards from the east corner.

    At each site step toward the heavier incoming edge, southwest on ties.
    Requires a field grown from births alone: nonzero boundary inflow breaks
    the optimality guarantee and is rejected.
    """
    domain = require_rect(field.domain, "passage values")
    inflow = sum(side_masses(field, 0)) + sum(side_masses(field, 1))
    if inflow > tolerance(field.max_mass, field.mode):
        raise ValueError("backward path needs a field with zero boundary inflow")
    y = domain.east_corner
    rev = [y]
    for _ in range(domain.n + domain.m - 2):
        t, x = y
        if field.mass[edge_sw(y)] >= field.mass[edge_nw(y)]:
            y = (t - 1, x - 1)
        else:
            y = (t - 1, x + 1)
        rev.append(y)
    if rev[-1] != domain.west_corner:
        raise ValueError("backward walk did not reach the west corner")
    return LatticePath(tuple(reversed(rev)))


def path_sum(xi: BirthField, path: LatticePath) -> float:
    """Total birth mass collected along a path inside the domain."""
    domain = xi.domain
    for y in path.sites:
        if not domain.contains(y):
            raise ValueError(f"path leaves the domain at {y}")
    return sum(xi.births.get(y, 0) for y in path.sites)
