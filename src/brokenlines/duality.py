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
    infer_mode,
    site_outflows,
    sweep,
)
from .lattice import Domain, RectDomain
from .streams import uniforms_at

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
        """Inverse CDF; works on scalars and numpy arrays alike."""
        if self.kind == EXPONENTIAL:
            return -np.log1p(-u) / self.rate
        if self.kind == GEOMETRIC:
            return np.floor(np.log1p(-u) / math.log(self.lam)).astype(np.int64)
        if self.kind == POINTMASS:
            return np.full_like(np.asarray(u, dtype=float), self.value)
        return self.low + (self.high - self.low) * np.asarray(u)

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
    """
    if nsamples < 10_000:
        raise ValueError("need at least 10^4 samples")

    def draws(tag: int) -> list[np.ndarray]:
        specs = enumerate((triple.pi1, triple.pi2, triple.pi3))
        return [
            np.asarray(p.from_uniform(uniforms_at(seed, tag, i, np.arange(nsamples))), float)
            for i, p in specs
        ]

    r, s, t = draws(_TAG_FIELD)
    out1, out2 = site_outflows(r, s, t)
    out3 = np.minimum(r, s)
    fresh = draws(_TAG_FRESH)

    outs = (out1, out2, out3)

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


def _site_draws(domain: Domain, triple: Triple, keyed) -> list[np.ndarray]:
    """``triple``'s draws on the southwest side, the northwest side and every
    site, in the order :func:`flow.sweep` reads them: the uniforms of each
    role are one call ``keyed(t, x, role)`` on those sites' coordinates."""
    t, x = domain.plan.decode(domain.plan.site_keys)
    sw, nw = domain.neighbours[:2] < 0
    roles = ((triple.pi1, sw, ROLE_UP_IN), (triple.pi2, nw, ROLE_DOWN_IN),
             (triple.pi3, slice(None), ROLE_BIRTH))
    return [spec.from_uniform(keyed(t[on], x[on], role)) for spec, on, role in roles]


def _sampled_mass(domain: Domain, triple: Triple, seed: int, tag: int, count: int) -> np.ndarray:
    """Forward sweep of ``count`` replicas at once: the ``(edges, count)`` masses
    of :func:`flow.sweep`, rows in canonical edge order.

    Replica ``r`` of the draw of ``role`` at site ``(t, x)`` is keyed
    ``(seed, tag, t, x, role, r)``, so replicas and sites can be sampled in
    any order; each role is one :func:`uniforms_at` call.
    """
    replica = np.arange(count)

    def keyed(t, x, role):
        return uniforms_at(seed, tag, t[:, None], x[:, None], role, replica)

    return sweep(domain, *_site_draws(domain, triple, keyed))


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
    uncorrelated.  The exits are the rows ``side_edges[2]`` (northeast) and
    ``side_edges[3]`` (southeast) of the sampled masses.  Exit ``i`` of a
    side is KS-compared with fresh draws of its law, keyed by the side,
    ``i`` and the replica, and every pair of exits is z-tested for
    correlation; :meth:`TestReport.bonferroni` sets the per-check level.
    Refuses triples that do not classify as self-dual, since nothing is
    claimed there.
    """
    if nsamples < 1_000:
        raise ValueError("need at least 10^3 samples")
    verdict = classify_triple(triple)
    if not verdict.self_dual:
        raise ValueError(f"triple {triple.token()} is not self-dual ({verdict.reason})")

    mass = _sampled_mass(domain, triple, seed, _TAG_FIELD, nsamples)
    replica = np.arange(nsamples)
    pending, exits = [], []
    for side, (kind, spec, sites) in enumerate(
        (("up", triple.pi1, domain.northeast_side), ("down", triple.pi2, domain.southeast_side)), 1
    ):
        rows = mass[domain.side_edges[1 + side]]
        fresh = spec.from_uniform(
            uniforms_at(seed, _TAG_FRESH, side, np.arange(len(sites))[:, None], replica)
        )
        pending += [
            (ks_check, f"ks_{kind}_exit_{y}", given(a, b)) for y, a, b in zip(sites, rows, fresh)
        ]
        exits += zip(sites, rows)
    pending += [
        (correlation_check, f"corr_{ya}_{yb}", given(a, b))
        for (ya, a), (yb, b) in combinations(exits, 2)
    ]
    params = {"triple": triple.token(), "domain": domain.to_dict()}
    return TestReport.bonferroni("burke_exit", params, seed, nsamples, significance, pending)


def evolve_chain(domain: Domain, lam: float, seed: int) -> FlowField:
    """Sample the stationary-boundary chain: geometric inflows and births.

    Inflows on the west sides are Geom(lam), births Geom(lam^2), the draw of
    ``role`` at site ``(t, x)`` keyed ``(seed, t, x, role)``; the field is the
    forward evolution of those draws and is reproduced bit for bit by the
    same seed.
    """
    up, down, born = _site_draws(domain, _chain(lam), lambda t, x, role: uniforms_at(seed, t, x, role))
    births = BirthField.from_values(domain, born)
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

    # the inner rectangle's edges, found among the outer rows
    rows = outer.plan.find_edges(*inner.plan.edge_points())
    restricted = _sampled_mass(outer, _chain(lam), seed, _TAG_OUTER, nsamples)[rows]
    direct = _sampled_mass(inner, _chain(lam_direct), seed, _TAG_INNER, nsamples)

    ne, se = inner.plan.incident[2:]

    def joint(k: int):  # the products are made when their check runs
        return lambda: (restricted[ne[k]] * restricted[se[k]], direct[ne[k]] * direct[se[k]])

    pending = [
        (chi2_homogeneity_check, f"edge_{e.t}_{e.x}_{'up' if e.up else 'down'}", given(a, b))
        for e, a, b in zip(inner.edges, restricted, direct)
    ]
    pending += [(mean_z_check, f"joint_{y}", joint(k)) for k, y in enumerate(inner.sites)]
    params = dict(outer=outer.to_dict(), inner=inner.to_dict(), lam=lam, inner_lam=lam_direct)
    return TestReport.bonferroni("consistency", params, seed, nsamples, significance, pending)
