"""Statistical checks shared by the distributional test reports.

Each report aggregates named sub-checks.  The Bonferroni rule lives here
alone, in :meth:`TestReport.bonferroni`: a report lists its pending checks
and every one runs at the report's significance divided by their number,
so a whole report rejects a true hypothesis with probability at most its
significance level.  The two checks that need scipy import ``scipy.special``
alone, on their first call, never ``scipy.stats``; the commands that run no
check load no scipy at all.

The two-sample Kolmogorov-Smirnov distance is the largest gap between the
two empirical CDFs over the pooled points.  ``F_a - F_b`` rises only where
``F_a`` steps, so its largest value is taken at the last of a run of equal
values of sorted ``a``, and that of ``F_b - F_a`` at one of ``b``.  Those
run ends are bounded before they are looked up.  They go in stretches, and
the first run end of each is looked up in the other sample, which gives a
best exact gap; a stretch's gaps are at most its last count of ``a`` over
``a``'s size minus its first count of ``b`` over ``b``'s size.  Only the
stretches whose bound beats the best gap are looked up in full.  Counts
are monotone in the value, and rounded division and subtraction are
monotone in their operands, so the computed bound caps every computed gap
of its stretch: no skipped stretch holds a larger gap, and the distance is
the float of evaluating both CDFs at every pooled point, bit for bit.  Two
identical samples keep every stretch open and cost one lookup per run end,
as a full lookup does.  An empty sample or one holding NaN is refused.
Each normal critical value is computed once per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    statistic: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "test": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class TestReport:
    test: str
    params: dict
    seed: int
    nsamples: int
    significance: float
    checks: tuple[Check, ...]

    @classmethod
    def bonferroni(cls, test, params, seed, nsamples, significance, pending) -> "TestReport":
        """Run each pending ``(check, name, samples)`` at ``significance / len(pending)``.

        ``samples()`` returns the check's two samples and is called only when
        that check runs, so samples made for one check (products, say) are
        held only while it runs.
        """
        alpha = significance / len(pending)
        checks = tuple(check(name, *samples(), alpha) for check, name, samples in pending)
        return cls(test, params, seed, nsamples, significance, checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "test": self.test,
            "params": self.params,
            "seed": self.seed,
            "nsamples": self.nsamples,
            "significance": self.significance,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def given(a: np.ndarray, b: np.ndarray):
    """The ``samples`` of a pending check whose two samples already exist."""
    return lambda: (a, b)


@cache
def _z_threshold(alpha: float) -> float:
    """The two-sided normal critical value at level ``alpha``, once per level."""
    from scipy.special import ndtri

    return float(-ndtri(alpha / 2.0))


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance (tie-safe).

    Raises ``ValueError`` on an empty sample or one holding NaN.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("the KS distance needs two nonempty samples")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # NaN sorts last
        raise ValueError("the KS distance of a sample holding NaN is undefined")
    return max(_cdf_rise(a, b), _cdf_rise(b, a))


# Run ends per stretch.  A whole in-process ``verify`` round took 162 ms
# with every run end looked up, and 113, 112, 124, 133 and 147 ms at
# strides 16, 32, 64, 128 and 256 (medians of 11 rounds, 2 cores).
_STRIDE = 32


def _cdf_rise(a: np.ndarray, b: np.ndarray) -> float:
    """Largest ``F_a(x) - F_b(x)`` over the pooled points of sorted ``a`` and ``b``.

    Taken at the last of each run of equal values of ``a``, where ``F_a``
    counts the run's index plus one and ``F_b`` the values of ``b`` up to it.
    The run ends go in stretches of ``_STRIDE``, the last padded with its
    final run end.  Each stretch's first run end is looked up in ``b``, and
    the best of those gaps is exact.  A stretch's gaps are at most its last
    count over ``a.size`` minus its first ``b`` count over ``b.size``, so
    the other run ends are looked up only in stretches whose bound beats
    that best.
    """
    last = np.flatnonzero(np.append(a[1:] != a[:-1], True))
    stretches = np.append(last, np.repeat(last[-1], -last.size % _STRIDE)).reshape(-1, _STRIDE)
    first = stretches[:, 0]
    below = np.searchsorted(b, a[first], side="right") / b.size
    best = np.max((first + 1) / a.size - below)
    rest = stretches[(stretches[:, -1] + 1) / a.size - below > best, 1:].ravel()
    gaps = (rest + 1) / a.size - np.searchsorted(b, a[rest], side="right") / b.size
    return float(np.max(gaps, initial=best))


def ks_threshold(n: int, m: int, alpha: float) -> float:
    """Asymptotic two-sample critical distance at level ``alpha``."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


def ks_check(name: str, a: np.ndarray, b: np.ndarray, alpha: float) -> Check:
    d = ks_statistic(a, b)
    crit = ks_threshold(len(a), len(b), alpha)
    return Check(name, d, crit, d <= crit)


def mean_z_check(name: str, a: np.ndarray, b: np.ndarray, alpha: float) -> Check:
    """Welch z-test that two samples share a mean."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    gap = abs(float(a.mean() - b.mean()))
    if se > 0:
        z = gap / se
    else:  # two constant samples: they share a mean or they do not
        z = math.inf if gap > 0 else 0.0
    crit = _z_threshold(alpha)
    return Check(name, z, crit, z <= crit)


@dataclass(frozen=True)
class Centred:
    """A stream as its float deviations from its mean, and its standard deviation."""

    deviations: np.ndarray
    std: float


def centred(a) -> Centred:
    """``a`` read once for :func:`correlation_check`; a :class:`Centred` stream as it is.

    A stream paired with many others is centred once, not once per pair.
    """
    if isinstance(a, Centred):
        return a
    a = np.asarray(a, dtype=float)
    return Centred(a - a.mean(), a.std())


def correlation_check(name: str, a, b, alpha: float) -> Check:
    """z-test that the sample correlation of two streams is zero.

    Either stream may be given :func:`centred`.  A constant stream is
    uncorrelated with any other: its statistic is 0.
    """
    a, b = centred(a), centred(b)
    crit = _z_threshold(alpha)
    if a.std == 0 or b.std == 0:
        return Check(name, 0.0, crit, True)
    r = float(np.mean(a.deviations * b.deviations) / (a.std * b.std))
    z = abs(r) * math.sqrt(a.deviations.size)
    return Check(name, z, crit, z <= crit)


def chi2_homogeneity_check(
    name: str,
    a: np.ndarray,
    b: np.ndarray,
    alpha: float,
    min_expected: float = 5.0,
) -> Check:
    """Chi-square test that two integer samples follow one law.

    Counts are pooled from the upper tail until every cell's expected count
    reaches ``min_expected``.  The statistic reported is ``1 - p``, with ``p``
    the one ``scipy.stats.chi2_contingency`` gives (Yates-corrected when k = 2).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    top = int(max(a.max(initial=0), b.max(initial=0)))
    ca = np.bincount(a.astype(int), minlength=top + 1).astype(float)
    cb = np.bincount(b.astype(int), minlength=top + 1).astype(float)
    total = ca + cb
    scale = min(ca.sum(), cb.sum()) / (ca.sum() + cb.sum())
    # merge tail bins upward until each kept bin is well populated
    keep = len(total)
    while keep > 1 and total[keep - 1 :].sum() * scale < min_expected:
        keep -= 1
    ca = np.concatenate([ca[: keep - 1], [ca[keep - 1 :].sum()]])
    cb = np.concatenate([cb[: keep - 1], [cb[keep - 1 :].sum()]])
    mask = (ca + cb) > 0
    table = np.vstack([ca[mask], cb[mask]])
    if table.shape[1] < 2:
        return Check(name, 0.0, 1.0 - alpha, True)
    from scipy.special import chdtrc

    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    if table.shape[1] == 2:  # Yates, moving no cell past its expected count
        gap = expected - table
        table = table + np.minimum(0.5, np.abs(gap)) * np.sign(gap)
    p = chdtrc(table.shape[1] - 1, ((table - expected) ** 2 / expected).sum())
    return Check(name, 1.0 - float(p), 1.0 - alpha, bool(p >= alpha))
