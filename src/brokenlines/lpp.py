"""Directed last passage percolation on the rectangle.

The passage value is the best total birth mass collected by an oriented
corner-to-corner path.  It equals the total crossing flow of the field grown
from the births alone, which yields a linear-time backward rule for an
optimal path on top of the usual dynamic program.

The dynamic program has one implementation, :func:`_diagonals`: it sweeps
the ``n + m - 1`` anti-diagonals, each step one maximum and one sum over a
whole diagonal (and over any number of matrices at once), so its cost is a
per-step term in ``n + m`` plus a per-cell term.  Every cell is rounded as
the scalar recurrence ``G = x + max(up, left)`` rounds it, so a passage value
equals that of the textbook loop and of the transposed matrix bit for bit.

Births are read by ``flow``'s checked reader, :meth:`BirthField.masses`, as
``field_from_birth`` reads them, in site order: an anti-diagonal order, which
:func:`lpp_dp` sweeps as it comes and maps to cells only to walk a path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .flow import (
    BirthField,
    FlowField,
    field_from_birth,
    side_masses,
    tolerance,
    total_crossing_flow,
)
from .lattice import RectDomain, Site, as_integers


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
    """The checked births as the (n, m) matrix indexed by the cell bijection."""
    out = np.zeros((xi.domain.n, xi.domain.m))
    out[xi.domain.cells] = xi.masses("float")
    return out


def births_from_matrix(matrix: np.ndarray) -> BirthField:
    """The birth field of every cell of ``matrix``, zeros included."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not ((0 <= matrix) & (matrix < np.inf)).all():
        raise ValueError("birth matrix cells must be finite and nonnegative")
    domain = RectDomain(*matrix.shape)
    return BirthField.from_values(domain, matrix[domain.cells] + 0.0)  # no negative zero


def _diagonals(n: int, m: int, births):
    """Yield the best-path sums anti-diagonal by anti-diagonal, holding one diagonal.

    ``G[i, j] = x[i, j] + max(G[i-1, j], G[i, j-1])`` for the cells
    ``(i, d - i)`` of diagonal ``d``, ``i = lo .. hi`` with
    ``lo = max(0, d - m + 1)`` and ``hi = min(n - 1, d)``; rows ``i`` are the
    index that ascends within a diagonal, so :func:`lpp_dp` passes ``(m, n)``
    and ``experiments.replica_passage`` ``(n, m)``.  ``births`` yields
    runs: the ``(hi - lo + 1, ...)`` births of consecutive whole diagonals,
    ``d = 0, 1, ...`` in order, stacked along the first axis.  Trailing axes
    are independent matrices.  The state ``g[i + 1]`` holds ``G`` at row
    ``i`` of the latest diagonal over a ``-inf`` border ``g[0]``, so a step is
    one maximum and one sum over contiguous rows, in place, rounded as the
    scalar recurrence rounds.  Each yielded view is overwritten by the next
    step.
    """
    d = 0
    for run in births:
        if d == 0:
            g = np.full((n + 1, *run.shape[1:]), -np.inf)
            g[1] = 0.0  # the empty path into cell (0, 0)
            best = np.empty((min(n, m), *run.shape[1:]))
        at = 0
        while at < len(run):
            lo, hi = max(0, d - m + 1), min(n - 1, d)
            k = hi - lo + 1
            np.maximum(g[lo : hi + 1], g[lo + 1 : hi + 2], out=best[:k])
            yield np.add(best[:k], run[at : at + k], out=g[lo + 1 : hi + 2])
            at += k
            d += 1


def passage_value(matrix: np.ndarray) -> float:
    """Best oriented path sum over a matrix of finite nonnegative cells."""
    return lpp_dp(births_from_matrix(matrix), with_path=False).value


def lpp_dp(xi: BirthField, with_path: bool = True) -> LppResult:
    """Forward dynamic program; ties prefer the predecessor in the first index.

    Cell ``(i, j)`` sits at ``t = i + j - 2``, ``x = j - i``, so the sites in
    ``(t, x)`` order are the anti-diagonals of the transposed ``(m, n)``
    matrix, ascending in ``j``: one run of :func:`_diagonals` with rows ``j``,
    each cell rounded as ``x + max(up, left)`` since ``max`` is symmetric.
    """
    domain = xi.domain
    births = xi.masses("float")
    sums = np.empty_like(births)
    at = 0
    for diagonal in _diagonals(domain.m, domain.n, [births]):
        sums[at : at + len(diagonal)] = diagonal
        at += len(diagonal)
    if not with_path:
        return LppResult(float(sums[-1]), None)
    table = np.empty((domain.n, domain.m))
    table[domain.cells] = sums
    i, j = domain.n - 1, domain.m - 1
    cells = [(i, j)]
    while i > 0 or j > 0:
        if j == 0 or (i > 0 and table[i - 1, j] >= table[i, j - 1]):
            i -= 1
        else:
            j -= 1
        cells.append((i, j))
    t, x = domain.points(np.array(cells[::-1]).T)
    return LppResult(float(sums[-1]), LatticePath(tuple(zip(t.tolist(), x.tolist()))))


def lpp_bruteforce(xi: BirthField) -> float:
    """Exhaustive maximum over all oriented paths; oracle for small domains."""
    n, m = xi.domain.n, xi.domain.m
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


def flow_identity_residual(xi: BirthField, value: float) -> float:
    """|value - total crossing flow| for the field grown from births.

    ``value`` is the passage value of ``xi``, as :func:`lpp_dp` returns it.
    """
    field = field_from_birth(xi.domain, births=xi, mode="float")
    return abs(value - float(total_crossing_flow(field)))


def optimal_path_backward(field: FlowField) -> LatticePath:
    """Walk an optimal path backwards from the east corner.

    At each site step toward the heavier incoming edge, southwest on ties,
    but never out of the rectangle: on a west side, step to the one
    neighbour inside.  Requires a field grown from births alone: nonzero
    boundary inflow breaks the optimality guarantee and is rejected.
    """
    domain = field.domain
    inflow = sum(side_masses(field, 0)) + sum(side_masses(field, 1))
    if inflow > tolerance(field.max_mass, field.mode):
        raise ValueError("backward path needs a field with zero boundary inflow")
    mass = field.values
    sw_edge, nw_edge = domain.incident[:2]
    sw, nw = domain.neighbours[:2]
    i = len(sw) - 1  # the east corner, the last site in (t, x) order
    rev = [i]
    for _ in range(domain.n + domain.m - 2):  # down one t-column a step, to the west corner
        i = sw[i] if nw[i] < 0 or sw[i] >= 0 and mass[sw_edge[i]] >= mass[nw_edge[i]] else nw[i]
        rev.append(i)
    return LatticePath(domain.sites_of(rev[::-1]))


def path_sum(xi: BirthField, path: LatticePath) -> float:
    """Total birth mass along a path inside the domain, in path order and the births' mode."""
    flat = as_integers(list(chain.from_iterable(path.sites)), "a path coordinate")
    at = xi.domain.find_sites(flat[0::2], flat[1::2])
    if (at < 0).any():
        raise ValueError(f"path leaves the domain at {path.sites[int(np.argmin(at))]}")
    return sum(xi.masses()[at].tolist())
