"""Monte Carlo reproduction of the passage-time growth constants.

For i.i.d. exponential or geometric births on an ``n x floor(beta n)``
rectangle the scaled passage value converges to an explicit constant; these
experiments estimate the finite-size mean and the tail exceedance rates.
Every draw is addressed by ``(seed, replica, row, col)``, so replicas run
in blocks, anti-diagonal by anti-diagonal, and no birth matrix is ever held.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .duality import EXPONENTIAL, GEOMETRIC, DistSpec
from .lpp import _diagonals
from .lpp import passage_value  # noqa: F401  (traced by benchmarks/tracing.py)
from .streams import negated_uniform_diagonals, stream_base
from .streams import uniform_grid  # noqa: F401  (traced by benchmarks/tracing.py)

# Replicas times the longer side per block, so memory is O(block) for any
# replica count.  Best of nine timings at 2**12, 2**14, 2**16, 2**18 and
# 2**20 on a 2-core x86_64 host: the `scan` sizes (n = 100, 200, 400, 100
# replicas each) took 330, 277, 278, 256 and 262 ms, the `growth` sizes
# 531, 509, 468, 468 and 491 ms, and 34 replicas of a 2100 x 2 rectangle
# 487, 63, 19, 11 and 17 ms: 2**14 and up are within noise on the square
# shapes, so the smallest state that keeps tall shapes fast is kept.
_BLOCK_CELLS = 1 << 16


def _width(n: int, beta: float) -> int:
    """``m = floor(beta * n)``; ValueError unless that product is a finite float."""
    product = beta * n if abs(n) <= sys.float_info.max else math.inf
    if not math.isfinite(product):
        raise ValueError(f"beta * n must be finite, not {beta} * {n}")
    return math.floor(product)


@dataclass(frozen=True)
class LlnConfig:
    n: int
    beta: float
    dist: DistSpec
    replicas: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.replicas < 1:
            raise ValueError("need n >= 1 and replicas >= 1")
        if self.m < 1:
            raise ValueError("beta * n must be at least 1")
        lln_target(self.dist, self.beta)  # refuses a law with no growth constant before any sweep

    @property
    def m(self) -> int:
        return _width(self.n, self.beta)


@dataclass(frozen=True)
class LlnReport:
    config: LlnConfig
    samples: tuple[float, ...]
    mean: float
    stddev: float
    target: float
    abs_error: float
    boundary_params: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "n": self.config.n,
            "beta": self.config.beta,
            "dist": self.config.dist.token(),
            "replicas": self.config.replicas,
            "seed": self.config.seed,
            "samples": list(self.samples),
            "mean": self.mean,
            "stddev": self.stddev,
            "target": self.target,
            "abs_error": self.abs_error,
            "boundary_params": list(self.boundary_params),
        }


def lln_target(dist: DistSpec, beta: float) -> float:
    """Limit of (passage value)/n on the ``n x floor(beta n)`` rectangle."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if dist.kind == EXPONENTIAL:
        return (1.0 + math.sqrt(beta)) ** 2 / dist.rate
    if dist.kind == GEOMETRIC:
        lam = dist.lam
        return (1.0 + math.sqrt(beta * lam)) ** 2 / (1.0 - lam) - 1.0
    raise ValueError("growth constants exist for exponential and geometric births only")


def reversible_boundary_params(dist: DistSpec, beta: float) -> tuple[float, float]:
    """Boundary laws that make the stationary comparison field reversible.

    For exponential births the two inflow rates splitting the birth rate;
    for geometric births the two parameters whose product is the birth one.
    """
    if dist.kind == EXPONENTIAL:
        a = dist.rate
        return (a / (1.0 + math.sqrt(beta)), a / (1.0 + beta ** -0.5))
    if dist.kind == GEOMETRIC:
        lam = dist.lam
        lam_up = (lam + math.sqrt(beta * lam)) / (1.0 + math.sqrt(beta * lam))
        return (lam_up, lam / lam_up)
    raise ValueError("boundary parameters exist for exponential and geometric births only")


def replica_passage(dist: DistSpec, n: int, m: int, seed: int, replicas: range) -> np.ndarray:
    """Passage values of the i.i.d. ``n x m`` birth matrices of ``replicas``.

    Replica ``r`` draws cell ``(i, j)`` from ``(seed, r, i, j)``, so its
    value does not depend on the other replicas.  A block of
    ``_BLOCK_CELLS // max(n, m)`` replicas is swept by anti-diagonals, drawn
    in runs of whole diagonals that hold ``-u`` and are inverted in place by
    :meth:`DistSpec.from_negated_uniform`.  The sweep takes ``n + m - 1``
    steps, so its cost is a per-step term in ``n + m`` plus a per-cell term,
    and each value is the one the scalar recurrence gives, bit for bit.
    """
    values = np.empty(len(replicas))
    block = max(1, _BLOCK_CELLS // max(n, m))
    for start in range(0, len(replicas), block):
        bases = [stream_base(seed, r) for r in replicas[start : start + block]]
        runs = negated_uniform_diagonals(bases, n, m)
        births = (dist.from_negated_uniform(v) for v in runs)
        for last in _diagonals(n, m, births):
            pass
        values[start : start + len(bases)] = last[0]
    return values


def lln_experiment(config: LlnConfig) -> LlnReport:
    """Estimate the scaled passage value over independent replicas."""
    values = replica_passage(
        config.dist, config.n, config.m, config.seed, range(config.replicas)
    )
    samples = tuple((values / config.n).tolist())
    mean = float(np.mean(samples))
    stddev = float(np.std(samples, ddof=1)) if len(samples) > 1 else 0.0
    target = lln_target(config.dist, config.beta)
    return LlnReport(
        config=config,
        samples=samples,
        mean=mean,
        stddev=stddev,
        target=target,
        abs_error=abs(mean - target),
        boundary_params=reversible_boundary_params(config.dist, config.beta),
    )


@dataclass(frozen=True)
class ConcentrationReport:
    ns: tuple[int, ...]
    delta: float
    dist: DistSpec
    beta: float
    replicas: int
    seed: int
    rates: tuple[float, ...]
    exceed_counts: tuple[int, ...]
    slope: float

    def to_dict(self) -> dict:
        return {
            "ns": list(self.ns),
            "delta": self.delta,
            "dist": self.dist.token(),
            "beta": self.beta,
            "replicas": self.replicas,
            "seed": self.seed,
            "rates": list(self.rates),
            "exceed_counts": list(self.exceed_counts),
            "loglinear_slope": self.slope,
        }


def concentration_scan(
    ns: list[int],
    delta: float,
    dist: DistSpec,
    beta: float,
    replicas: int,
    seed: int = 0,
) -> ConcentrationReport:
    """Empirical exceedance rate of |G/n - target| > delta per size.

    The deviation probability decays exponentially in ``n``; the report
    includes the slope of a log-linear fit through the nonzero rates.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, not {delta}")
    if any(n < 1 or _width(n, beta) < 1 for n in ns):
        raise ValueError("need n >= 1 and beta * n >= 1 for every n")
    target = lln_target(dist, beta)
    rates = []
    counts = []
    for idx, n in enumerate(ns):
        base = stream_base(seed, idx, n)
        values = replica_passage(dist, n, _width(n, beta), base, range(replicas))
        exceed = int(np.count_nonzero(np.abs(values / n - target) > delta))
        counts.append(exceed)
        rates.append(exceed / replicas)
    positive = [(n, r) for n, r in zip(ns, rates) if r > 0]
    if len(positive) >= 2:
        xs = np.array([n for n, _ in positive], dtype=float)
        ys = np.log(np.array([r for _, r in positive]))
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return ConcentrationReport(
        ns=tuple(ns),
        delta=delta,
        dist=dist,
        beta=beta,
        replicas=replicas,
        seed=seed,
        rates=tuple(rates),
        exceed_counts=tuple(counts),
        slope=slope,
    )
