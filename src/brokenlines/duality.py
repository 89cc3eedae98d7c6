"""Distributions, the one-site kernel, reversibility and its consequences.

The product law of (ascending inflow, descending inflow, birth) is preserved
by the single-site reversal map exactly for exponential triples with
additive rates and geometric triples with multiplicative parameters; this
module classifies triples analytically and verifies the distributional
claims (kernel duality, invariance, exit laws, consistency) by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .checks import (
    TestReport,
    centred,
    chi2_homogeneity_check,
    correlation_check,
    given,
    ks_check,
    mean_z_check,
)
from .flow import (
    BirthField,
    BoundaryFlow,
    FlowField,
    as_mass,
    field_from_birth,
    front,
    infer_mode,
    site_outflows,
    sweep,
)
from .lattice import RectDomain
from .streams import negated_uniforms, stream_base

EXPONENTIAL = "exponential"
GEOMETRIC = "geometric"
POINTMASS = "pointmass"
UNIFORM = "uniform"

# role tags for per-site streams
ROLE_UP_IN = 1
ROLE_DOWN_IN = 2
ROLE_BIRTH = 3

_TAG_FIELD = 11
_TAG_FRESH = 12
_TAG_OUTER = 13
_TAG_INNER = 14


@dataclass(frozen=True)
class DistSpec:
    """One of the four supported laws on the nonnegative reals."""

    kind: str
    rate: float = 0.0  # exponential
    lam: float = 0.0  # geometric: P(k) = (1-lam) lam^k on k = 0, 1, ...
    value: float = 0.0  # point mass
    low: float = 0.0  # uniform
    high: float = 0.0

    @classmethod
    def exponential(cls, rate: float) -> "DistSpec":
        if not 0 < rate < math.inf:
            raise ValueError("exponential rate must be positive and finite")
        return cls(EXPONENTIAL, rate=rate)

    @classmethod
    def geometric(cls, lam: float) -> "DistSpec":
        if not 0 < lam < 1:
            raise ValueError("geometric parameter must lie in (0, 1)")
        return cls(GEOMETRIC, lam=lam)

    @classmethod
    def pointmass(cls, value: float) -> "DistSpec":
        return cls(POINTMASS, value=as_mass(value, "float", "the point mass"))

    @classmethod
    def uniform(cls, low: float, high: float) -> "DistSpec":
        if not 0 <= low < high < math.inf:
            raise ValueError("uniform needs 0 <= low < high < inf")
        return cls(UNIFORM, low=low, high=high)

    def mean(self) -> float:
        if self.kind == EXPONENTIAL:
            return 1.0 / self.rate
        if self.kind == GEOMETRIC:
            return self.lam / (1.0 - self.lam)
        if self.kind == POINTMASS:
            return self.value
        return 0.5 * (self.low + self.high)

    def min_support(self) -> float:
        if self.kind == POINTMASS:
            return self.value
        if self.kind == UNIFORM:
            return self.low
        return 0.0

    def from_uniform(self, u):
        """Inverse CDF; works on scalars and numpy arrays alike.

        :meth:`from_negated_uniform` on a float64 copy of ``-u``; geometric
        counts come out as int64, every other law as float64.
        """
        x = self.from_negated_uniform(np.negative(u, out=np.empty(np.shape(u))))
        if self.kind == GEOMETRIC:
            x = x.astype(np.int64)
        return x[()]  # a scalar for a scalar ``u``

    def from_negated_uniform(self, v: np.ndarray) -> np.ndarray:
        """The inverse CDF at ``u``, read from ``v = -u`` in place in the float64 array ``v``.

        Each law has this one formula.  ``log1p(v) / -rate`` and
        ``floor(log1p(v) / log(lam))`` are ``-log1p(-u) / rate`` and
        ``floor(log1p(-u) / log(lam))`` rewritten exactly: negating a float
        or a divisor changes only a sign.  So is
        ``v * (low - high) + low`` for ``low + (high - low) * u``.  Geometric
        counts stay integral floats.
        """
        if self.kind == EXPONENTIAL:
            np.log1p(v, out=v)
            v /= -self.rate
        elif self.kind == GEOMETRIC:
            np.log1p(v, out=v)
            v /= math.log(self.lam)
            np.floor(v, out=v)
        elif self.kind == POINTMASS:
            v.fill(self.value)
        else:
            v *= self.low - self.high
            v += self.low
        return v

    def token(self) -> str:
        if self.kind == EXPONENTIAL:
            return f"exp:{self.rate:g}"
        if self.kind == GEOMETRIC:
            return f"geom:{self.lam:g}"
        if self.kind == POINTMASS:
            return f"point:{self.value:g}"
        return f"unif:{self.low:g}:{self.high:g}"


def parse_dist(token: str) -> DistSpec:
    """Parse ``exp:RATE``, ``geom:LAM``, ``point:C`` or ``unif:A:B``."""
    parts = token.strip().lower().split(":")
    kind, args = parts[0], [float(p) for p in parts[1:]]
    if kind in ("exp", "exponential") and len(args) == 1:
        return DistSpec.exponential(args[0])
    if kind in ("geom", "geometric") and len(args) == 1:
        return DistSpec.geometric(args[0])
    if kind in ("point", "pointmass") and len(args) == 1:
        return DistSpec.pointmass(args[0])
    if kind in ("unif", "uniform") and len(args) == 2:
        return DistSpec.uniform(args[0], args[1])
    raise ValueError(f"cannot parse distribution token {token!r}")


@dataclass(frozen=True)
class Triple:
    """Laws of the ascending inflow, descending inflow, and birth mass."""

    pi1: DistSpec
    pi2: DistSpec
    pi3: DistSpec

    def token(self) -> str:
        return ",".join(s.token() for s in (self.pi1, self.pi2, self.pi3))


def parse_triple(text: str) -> Triple:
    tokens = text.split(",")
    if len(tokens) != 3:
        raise ValueError("a triple needs exactly three distribution tokens")
    return Triple(*(parse_dist(t) for t in tokens))


DEGENERATE = "degenerate"
EXPONENTIAL_FAMILY = "exponential_family"
GEOMETRIC_FAMILY = "geometric_family"
NOT_SELF_DUAL = "not_self_dual"


@dataclass(frozen=True)
class Verdict:
    self_dual: bool
    reason: str


def classify_triple(triple: Triple) -> Verdict:
    """Closed-form self-duality check.

    Outside a degenerate birth law, only two families keep the product
    measure invariant under the site reversal: exponentials whose birth rate
    is the sum of the inflow rates, and geometrics (on the same integer
    lattice) whose birth parameter is the product of the inflow parameters.
    Parameter comparisons are exact.
    """
    p1, p2, p3 = triple.pi1, triple.pi2, triple.pi3
    if p3.kind == POINTMASS:
        c = p3.value
        dual = (p1.kind == POINTMASS and p1.value == c and p2.min_support() >= c) or (
            p2.kind == POINTMASS and p2.value == c and p1.min_support() >= c
        )
        return Verdict(dual, DEGENERATE)
    if p1.kind == p2.kind == p3.kind == EXPONENTIAL:
        if p3.rate == p1.rate + p2.rate:
            return Verdict(True, EXPONENTIAL_FAMILY)
        return Verdict(False, NOT_SELF_DUAL)
    if p1.kind == p2.kind == p3.kind == GEOMETRIC:
        if p3.lam == p1.lam * p2.lam:
            return Verdict(True, GEOMETRIC_FAMILY)
        return Verdict(False, NOT_SELF_DUAL)
    return Verdict(False, NOT_SELF_DUAL)


def reverse_through_site(in_up, in_down, birth):
    """Reversal map: (outflows, annihilated mass) of the site seen backwards.

    An involution on nonnegative triples; each must be a mass.
    """
    mode = infer_mode((in_up, in_down, birth))
    for v in (in_up, in_down, birth):
        as_mass(v, mode, "the site")
    return (*site_outflows(in_up, in_down, birth), min(in_up, in_down))


def transition_kernel(out_up: int, out_down: int, in_up: int, in_down: int, lam: float) -> float:
    """Probability of emitting ``(out_up, out_down)`` given the inflows.

    Supported on pairs conserving the difference; normalized geometrically
    in the total outflow.
    """
    if not 0 < lam < 1:
        raise ValueError("kernel parameter must lie in (0, 1)")
    for v in (out_up, out_down, in_up, in_down):
        as_mass(v, "int", "kernel argument")
    if out_up - out_down != in_up - in_down:
        return 0.0
    norm = lam ** abs(in_up - in_down) / (1.0 - lam * lam)
    return lam ** (out_up + out_down) / norm


def kernel_duality_residual(lam: float, kmax: int) -> float:
    """Largest violation of the weighted kernel symmetry up to ``kmax``.

    Both sides of the detailed-balance identity
    ``g(m_up) g(m_down) K(n | m) = g(n_up) g(n_down) K(m' | n')``, with ``g``
    the geometric pmf and the primes swapping up and down, are evaluated
    for all inflow/outflow pairs bounded by ``kmax``.  Off the kernel's
    support both sides are 0; on it ``n_down`` is fixed by the other three
    counts, so the pairs are one ``(kmax + 1)^3`` broadcast.  Powers of
    ``lam`` are Python's ``**``, as in :func:`transition_kernel`, and every
    product and quotient is taken in the kernel's order, so each side has
    the bits of the scalar formula.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if not 0 < lam < 1:
        raise ValueError("kernel parameter must lie in (0, 1)")
    power = np.array([lam**k for k in range(2 * kmax + 1)])
    gpmf = (1.0 - lam) * power[: kmax + 1]
    norm = power[: kmax + 1] / (1.0 - lam * lam)  # by |in_up - in_down|
    m_up, m_down, n_up = np.ix_(*[np.arange(kmax + 1)] * 3)
    n_down = n_up - m_up + m_down
    supported = (n_down >= 0) & (n_down <= kmax)
    n_down = np.where(supported, n_down, 0)  # a valid index off the support, masked below
    kernel_norm = norm[abs(m_up - m_down)]  # = norm[|n_up - n_down|] on the support
    lhs = gpmf[m_up] * gpmf[m_down] * (power[n_up + n_down] / kernel_norm)
    rhs = gpmf[n_up] * gpmf[n_down] * (power[m_down + m_up] / kernel_norm)
    return float(np.max(abs(lhs - rhs), where=supported, initial=0.0))


def reversal_invariance_test(
    triple: Triple,
    nsamples: int = 100_000,
    seed: int = 0,
    significance: float = 0.01,
) -> TestReport:
    """Monte Carlo check that the product law survives the reversal map.

    Each output marginal is KS-compared against fresh draws and the three
    pairwise product moments are z-tested; sub-checks run at a
    Bonferroni-corrected level so the report rejects a truly invariant
    triple with probability at most ``significance``.

    The six samples are the rows of one ``(6, nsamples)`` float64 block,
    each drawn and inverted where it lies.  The field draws ``r`` and ``s``
    go to rows 0 and 1, their minimum, the annihilated mass, to row 2, and
    ``t`` to row 3; the site update then turns rows 0 and 1 into the two
    outflows in place.  Row 3 is free again, and rows 3 to 5 take the
    fresh draws of the three laws.
    """
    if nsamples < 10_000:
        raise ValueError("need at least 10^4 samples")

    block = np.empty((6, nsamples))

    def draw(tag: int, i: int, row: int) -> np.ndarray:
        spec, base = (triple.pi1, triple.pi2, triple.pi3)[i], stream_base(seed, tag, i)
        return spec.from_negated_uniform(negated_uniforms(base, np.arange(nsamples), out=block[row]))

    r, s, t = (draw(_TAG_FIELD, i, row) for i, row in enumerate((0, 1, 3)))
    np.minimum(r, s, out=block[2])
    site_outflows(r, s, t, out=(r, s))
    for i in range(3):
        draw(_TAG_FRESH, i, 3 + i)
    outs, fresh = block[:3], block[3:]

    def marginal(i: int):
        return lambda: (outs[i], fresh[i])

    def moment(i: int, j: int):  # the products are made when their check runs
        return lambda: (outs[i] * outs[j], fresh[i] * fresh[j])

    pending = [(ks_check, f"ks_marginal_{i + 1}", marginal(i)) for i in range(3)]
    pending += [
        (mean_z_check, f"moment_{i + 1}{j + 1}", moment(i, j)) for i, j in combinations(range(3), 2)
    ]
    params = {"triple": triple.token()}
    return TestReport.bonferroni("reversal_invariance", params, seed, nsamples, significance, pending)


def _chain(lam: float) -> Triple:
    """The stationary-boundary chain: Geom(lam) inflows and Geom(lam^2) births."""
    inflow = DistSpec.geometric(lam)
    return Triple(inflow, inflow, DistSpec.geometric(lam * lam))


def _site_draws(domain: RectDomain, triple: Triple, site_ids, *replica) -> tuple:
    """``triple``'s draws on the southwest side and the northwest side, in the
    order :func:`flow.front` reads them, and the function that draws the
    births at the sites ``domain.sites[at]``.

    ``site_ids(t, x)`` hashes the sites' shared key prefix once, on their
    coordinates; the draws of each role fold the role and then ``replica``
    onto those ids, the side sites' taken by index.  Geometric counts are
    cast to the int64 masses the sweep reads.
    """
    ids = site_ids(*domain.points(domain.cells))
    sw, nw = domain.neighbours[:2] < 0

    def draw(spec: DistSpec, at, role: int) -> np.ndarray:
        x = spec.from_negated_uniform(negated_uniforms(ids[at], role, *replica))
        return x.astype(np.int64) if spec.kind == GEOMETRIC else x

    return (draw(triple.pi1, sw, ROLE_UP_IN), draw(triple.pi2, nw, ROLE_DOWN_IN),
            lambda at: draw(triple.pi3, at, ROLE_BIRTH))


def _replica_draws(domain: RectDomain, triple: Triple, seed: int, tag: int, count: int) -> tuple:
    """:func:`_site_draws` of ``count`` replicas at once, the replica axis last.

    Replica ``r`` of the draw of ``role`` at site ``(t, x)`` is keyed
    ``(seed, tag, t, x, role, r)``, so replicas and sites can be sampled in
    any order.  The ids of ``(seed, tag, t, x)`` are hashed once for all
    sites, and each role's draws are :func:`negated_uniforms` calls on them.
    """
    return _site_draws(
        domain, triple, lambda t, x: stream_base(seed, tag, t[:, None], x[:, None]), np.arange(count)
    )


def burke_exit_test(
    domain: RectDomain,
    triple: Triple,
    nsamples: int = 10_000,
    seed: int = 0,
    significance: float = 0.01,
) -> TestReport:
    """Exit-law test for a self-dual triple.

    Ascending exits must be i.i.d. with the ascending-inflow law,
    descending exits with the descending one, and all exit streams mutually
    uncorrelated.  The exits are the final front of :func:`flow.front`,
    whose births are drawn one ``t``-column at a time, so that the sweep
    holds the front and one column's births: the ascending masses leave by
    the northeast side and the descending ones by the southeast side, each
    in side order.  Exit ``i`` of a side is KS-compared with fresh draws of
    its law, keyed by the side, ``i`` and the replica, and every pair of
    exits is z-tested for correlation, each check named by both exits' kinds
    and sites (the corner where the two east sides meet is an exit of both
    kinds); :meth:`TestReport.bonferroni` sets the per-check level.
    Refuses triples that do not classify as self-dual, since nothing is
    claimed there.
    """
    if nsamples < 1_000:
        raise ValueError("need at least 10^3 samples")
    verdict = classify_triple(triple)
    if not verdict.self_dual:
        raise ValueError(f"triple {triple.token()} is not self-dual ({verdict.reason})")

    up, down, births = _replica_draws(domain, triple, seed, _TAG_FIELD, nsamples)
    ups, downs = front(domain, up, down, map(births, domain.columns))
    replica = np.arange(nsamples)
    pending, exits = [], []
    sides = (("up", triple.pi1, domain.northeast_side, ups),
             ("down", triple.pi2, domain.southeast_side, downs))
    for side, (kind, spec, sites, rows) in enumerate(sides, 1):
        ids = stream_base(seed, _TAG_FRESH, side, np.arange(len(sites))[:, None])
        fresh = spec.from_negated_uniform(negated_uniforms(ids, replica))
        pending += [
            (ks_check, f"ks_{kind}_exit_{y}", given(a, b)) for y, a, b in zip(sites, rows, fresh)
        ]
        exits += [(f"{kind}_{y}", c) for y, c in zip(sites, map(centred, rows))]
    pending += [
        (correlation_check, f"corr_{name_a}_{name_b}", given(a, b))
        for (name_a, a), (name_b, b) in combinations(exits, 2)
    ]
    params = {"triple": triple.token(), "domain": domain.to_dict()}
    return TestReport.bonferroni("burke_exit", params, seed, nsamples, significance, pending)


def evolve_chain(domain: RectDomain, lam: float, seed: int) -> FlowField:
    """Sample the stationary-boundary chain: geometric inflows and births.

    Inflows on the west sides are Geom(lam), births Geom(lam^2), the draw of
    ``role`` at site ``(t, x)`` keyed ``(seed, t, x, role)``; the field is the
    forward evolution of those draws and is reproduced bit for bit by the
    same seed.
    """
    up, down, born = _site_draws(domain, _chain(lam), lambda t, x: stream_base(seed, t, x))
    births = BirthField.from_values(domain, born(slice(None)))
    return field_from_birth(domain, BoundaryFlow(up, down), births, mode="int")


def consistency_test(
    n_outer: int,
    m_outer: int,
    lam: float,
    nsamples: int = 10_000,
    seed: int = 0,
    n_inner: int | None = None,
    m_inner: int | None = None,
    inner_lam: float | None = None,
    significance: float = 0.01,
) -> TestReport:
    """Restriction consistency: a sub-rectangle of a bigger chain is the chain.

    The outer rectangle is simulated and restricted to the sub-rectangle cut
    along an ascending/descending line (``n_inner``/``m_inner``); per-edge
    marginals and per-site joint moments are compared against a direct
    simulation of the sub-rectangle.  Passing ``inner_lam`` different from
    ``lam`` turns this into a negative control.
    """
    if nsamples < 1_000:
        raise ValueError("need at least 10^3 samples")
    n_inner = n_outer if n_inner is None else n_inner
    m_inner = m_outer if m_inner is None else m_inner
    if n_inner > n_outer or m_inner > m_outer:
        raise ValueError("the restricted rectangle must fit inside the outer one")
    outer = RectDomain(n_outer, m_outer)
    inner = RectDomain(n_inner, m_inner)
    lam_direct = lam if inner_lam is None else inner_lam

    def sampled(domain: RectDomain, lam: float, tag: int) -> np.ndarray:  # every edge's masses
        up, down, births = _replica_draws(domain, _chain(lam), seed, tag, nsamples)
        return sweep(domain, up, down, births(slice(None)))

    # the inner rectangle's edges, found among the outer rows
    rows = outer.find_edges(*inner.edge_points())
    restricted = sampled(outer, lam, _TAG_OUTER)[rows]
    direct = sampled(inner, lam_direct, _TAG_INNER)

    ne, se = inner.incident[2:]

    def joint(k: int):  # the products are made when their check runs
        return lambda: (restricted[ne[k]] * restricted[se[k]], direct[ne[k]] * direct[se[k]])

    pending = [
        (chi2_homogeneity_check, f"edge_{e.t}_{e.x}_{'up' if e.up else 'down'}", given(a, b))
        for e, a, b in zip(inner.edges, restricted, direct)
    ]
    pending += [(mean_z_check, f"joint_{y}", joint(k)) for k, y in enumerate(inner.sites)]
    params = dict(outer=outer.to_dict(), inner=inner.to_dict(), lam=lam, inner_lam=lam_direct)
    return TestReport.bonferroni("consistency", params, seed, nsamples, significance, pending)
