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

import numpy as np

from .checks import (
    Check,
    TestReport,
    chi2_homogeneity_check,
    correlation_check,
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
from .lattice import Domain, RectDomain, edge_ne, edge_se, require_rect
from .streams import stream_base, uniforms, uniforms_at

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

    def sample_array(self, base: int, count: int) -> np.ndarray:
        return self.from_uniform(uniforms(base, count))

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


def flow_through_site(in_up, in_down, birth):
    """Single-site update: keep the inflows, emit the outflows.

    Output differences always match input differences, pairs only.
    """
    mode = infer_mode((in_up, in_down, birth))
    for v in (in_up, in_down, birth):
        as_mass(v, mode, "the site")
    return (in_up, in_down, *site_outflows(in_up, in_down, birth))


def reverse_through_site(in_up, in_down, birth):
    """Reversal map: (outflows, annihilated mass) of the site seen backwards.

    An involution on nonnegative triples.
    """
    return (*flow_through_site(in_up, in_down, birth)[2:], min(in_up, in_down))


def transition_kernel(out_up: int, out_down: int, in_up: int, in_down: int, lam: float) -> float:
    """Probability of emitting ``(out_up, out_down)`` given the inflows.

    Supported on pairs conserving the difference; normalized geometrically
    in the total outflow.
    """
    if not 0 < lam < 1:
        raise ValueError("kernel parameter must lie in (0, 1)")
    for v in (out_up, out_down, in_up, in_down):
        as_mass(v, "int", "kernel argument")
    return _kernel(out_up, out_down, in_up, in_down, lam)


def _kernel(out_up: int, out_down: int, in_up: int, in_down: int, lam: float) -> float:
    if out_up - out_down != in_up - in_down:
        return 0.0
    norm = lam ** abs(in_up - in_down) / (1.0 - lam * lam)
    return lam ** (out_up + out_down) / norm


def kernel_duality_residual(lam: float, kmax: int) -> float:
    """Largest violation of the weighted kernel symmetry up to ``kmax``.

    Both sides of the detailed-balance identity are evaluated exhaustively
    for all inflow/outflow pairs bounded by ``kmax``.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if not 0 < lam < 1:
        raise ValueError("kernel parameter must lie in (0, 1)")

    def gpmf(k: int) -> float:
        return (1.0 - lam) * lam**k

    worst = 0.0
    rng = range(kmax + 1)
    for m_up in rng:
        for m_down in rng:
            left_weight = gpmf(m_up) * gpmf(m_down)
            for n_up in rng:
                for n_down in rng:
                    lhs = left_weight * _kernel(n_up, n_down, m_up, m_down, lam)
                    rhs = (
                        gpmf(n_up)
                        * gpmf(n_down)
                        * _kernel(m_down, m_up, n_down, n_up, lam)
                    )
                    worst = max(worst, abs(lhs - rhs))
    return worst


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
    specs = (triple.pi1, triple.pi2, triple.pi3)
    r, s, t = (
        np.asarray(spec.sample_array(stream_base(seed, _TAG_FIELD, i), nsamples), dtype=float)
        for i, spec in enumerate(specs)
    )
    out1, out2 = site_outflows(r, s, t)
    out3 = np.minimum(r, s)
    fresh = tuple(
        np.asarray(spec.sample_array(stream_base(seed, _TAG_FRESH, i), nsamples), dtype=float)
        for i, spec in enumerate(specs)
    )

    alpha = significance / 6.0
    checks = [
        ks_check("ks_marginal_1", out1, fresh[0], alpha),
        ks_check("ks_marginal_2", out2, fresh[1], alpha),
        ks_check("ks_marginal_3", out3, fresh[2], alpha),
        mean_z_check("moment_12", out1 * out2, fresh[0] * fresh[1], alpha),
        mean_z_check("moment_13", out1 * out3, fresh[0] * fresh[2], alpha),
        mean_z_check("moment_23", out2 * out3, fresh[1] * fresh[2], alpha),
    ]
    return TestReport(
        test="reversal_invariance",
        params={"triple": triple.token()},
        seed=seed,
        nsamples=nsamples,
        significance=significance,
        checks=tuple(checks),
    )


def _sampled_mass(domain: Domain, triple: Triple, seed: int, tag: int, count: int) -> dict:
    """Forward sweep of ``count`` replicas at once: one sample array per edge.

    Every (site, role) draws its own stream, so replicas and sites can be
    sampled in any order.
    """

    def draw(spec: DistSpec, sites, role: int) -> np.ndarray:
        return np.stack([
            spec.sample_array(stream_base(seed, tag, y[0], y[1], role), count) for y in sites
        ])

    return dict(zip(domain.edges, sweep(
        domain,
        draw(triple.pi1, domain.southwest_side, ROLE_UP_IN),
        draw(triple.pi2, domain.northwest_side, ROLE_DOWN_IN),
        draw(triple.pi3, domain.sites, ROLE_BIRTH),
    )))


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
    uncorrelated.  Refuses triples that do not classify as self-dual, since
    nothing is claimed there.
    """
    if nsamples < 1_000:
        raise ValueError("need at least 10^3 samples")
    verdict = classify_triple(triple)
    if not verdict.self_dual:
        raise ValueError(f"triple {triple.token()} is not self-dual ({verdict.reason})")

    mass = _sampled_mass(domain, triple, seed, _TAG_FIELD, nsamples)
    up_exits = [(y, mass[edge_ne(y)]) for y in domain.northeast_side]
    down_exits = [(y, mass[edge_se(y)]) for y in domain.southeast_side]

    n_ks = len(up_exits) + len(down_exits)
    streams = up_exits + down_exits
    n_corr = len(streams) * (len(streams) - 1) // 2
    alpha = significance / (n_ks + n_corr)

    checks: list[Check] = []
    for i, (y, values) in enumerate(up_exits):
        fresh = triple.pi1.sample_array(stream_base(seed, _TAG_FRESH, 1, i), nsamples)
        checks.append(ks_check(f"ks_up_exit_{y}", values, fresh, alpha))
    for i, (y, values) in enumerate(down_exits):
        fresh = triple.pi2.sample_array(stream_base(seed, _TAG_FRESH, 2, i), nsamples)
        checks.append(ks_check(f"ks_down_exit_{y}", values, fresh, alpha))
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            ya, a = streams[i]
            yb, b = streams[j]
            checks.append(correlation_check(f"corr_{ya}_{yb}", a, b, alpha))
    return TestReport(
        test="burke_exit",
        params={"triple": triple.token(), "domain": domain.to_dict()},
        seed=seed,
        nsamples=nsamples,
        significance=significance,
        checks=tuple(checks),
    )


def evolve_chain(domain: Domain, lam: float, seed: int, sampler=None) -> FlowField:
    """Sample the stationary-boundary chain: geometric inflows and births.

    Inflows on the west sides are Geom(lam), births Geom(lam^2); the field
    is the forward evolution of those draws and is reproduced bit for bit by
    the same seed.  ``sampler(site, role) -> int`` overrides the draws (test
    hook).
    """
    inflow = DistSpec.geometric(lam)
    birth = DistSpec.geometric(lam * lam)

    def draws(sites, role: int) -> dict:
        if sampler is not None:
            return {y: sampler(y, role) for y in sites}
        t, x = np.array(sites, dtype=np.int64).reshape(-1, 2).T
        spec = inflow if role != ROLE_BIRTH else birth
        return dict(zip(sites, spec.from_uniform(uniforms_at(seed, t, x, role)).tolist()))

    up_in = draws(domain.southwest_side, ROLE_UP_IN)
    down_in = draws(domain.northwest_side, ROLE_DOWN_IN)
    births = draws(domain.sites, ROLE_BIRTH)
    return field_from_birth(
        domain,
        BoundaryFlow(up_in, down_in),
        BirthField(domain, births),
        mode="int",
    )


def time_reverse(field: FlowField) -> FlowField:
    """Mirror a field in time: ``(t, x) -> (-t, x)`` recentered.

    The image lives on the transposed rectangle with ascending and
    descending slopes exchanged; applying the map twice gives the original
    field back, and conservation and the crossing flow are preserved.
    """
    domain = require_rect(field.domain, "time reversal")
    mirrored = RectDomain(domain.m, domain.n)
    ct = domain.n + domain.m - 2
    cx = domain.n - domain.m

    # edge (t, x, up) goes to (ct - t - 1, x + 1 + cx, down) and a descending
    # one to (ct - t - 1, x - 1 + cx, up); sorted, the images are mirrored.edges
    keys = domain.plan.edge_keys
    t, x = domain.plan.decode(keys >> 1)
    descends = keys & 1
    image = 2 * mirrored.plan.key(ct - t - 1, x + cx + 1 - 2 * descends) + 1 - descends
    return FlowField.from_values(mirrored, field.values[np.argsort(image)], field.mode)


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
    n_inner = n_outer if n_inner is None else n_inner
    m_inner = m_outer if m_inner is None else m_inner
    if n_inner > n_outer or m_inner > m_outer:
        raise ValueError("the restricted rectangle must fit inside the outer one")
    outer = RectDomain(n_outer, m_outer)
    inner = RectDomain(n_inner, m_inner)
    lam_direct = lam if inner_lam is None else inner_lam

    def chain(lam_: float) -> Triple:
        inflow = DistSpec.geometric(lam_)
        return Triple(inflow, inflow, DistSpec.geometric(lam_ * lam_))

    restricted = _sampled_mass(outer, chain(lam), seed, _TAG_OUTER, nsamples)
    direct = _sampled_mass(inner, chain(lam_direct), seed, _TAG_INNER, nsamples)

    alpha = significance / (len(inner.edges) + len(inner.sites))
    checks: list[Check] = []
    for e in inner.edges:
        name = f"edge_{e.t}_{e.x}_{'up' if e.up else 'down'}"
        checks.append(chi2_homogeneity_check(name, restricted[e], direct[e], alpha))
    for y in inner.sites:
        joint_restricted = restricted[edge_ne(y)] * restricted[edge_se(y)]
        joint_direct = direct[edge_ne(y)] * direct[edge_se(y)]
        checks.append(mean_z_check(f"joint_{y}", joint_restricted, joint_direct, alpha))
    return TestReport(
        test="consistency",
        params={
            "outer": outer.to_dict(),
            "inner": inner.to_dict(),
            "lam": lam,
            "inner_lam": lam_direct,
        },
        seed=seed,
        nsamples=nsamples,
        significance=significance,
        checks=tuple(checks),
    )
