"""Statistical checks shared by the distributional test reports.

Each report aggregates named sub-checks.  The Bonferroni rule lives here
alone, in :meth:`TestReport.bonferroni`: a report lists its pending checks
and every one runs at the report's significance divided by their number,
so a whole report rejects a true hypothesis with probability at most its
significance level.

The normal critical value and the chi-square tail are computed here, with
``math`` alone, so that no command loads scipy.  :func:`ndtri` ports the
function of that name in scipy 1.17, operation for operation, and returns
its doubles bit for bit: Stephen L. Moshier's Cephes, as scipy's
BSD-licensed ``xsf`` library carries it.  :func:`chdtrc` is the upper
regularised gamma function ``Q(k/2, x/2)`` at the integer degrees of
freedom ``k >= 1`` that the chi-square check takes, and at a finite
``x >= 0``; it refuses any other input.  There the tail is a finite sum
(DLMF 8.4.10 and 8.4.11): ``exp(-y)`` times the first ``k/2`` terms of the
exponential series in ``y = x/2`` for even ``k``, and ``erfc(sqrt(y))`` plus
``exp(-y)`` times the ``y**(j + 1/2) / gamma(j + 3/2)``, ``j < k // 2``, for
odd ``k``.  It is held to a relative error of at most ``10**-11`` against
``scipy.special.chdtrc``, wherever scipy's value is ``10**-300`` or more, and
not to scipy's bits.  On the test grids the worst relative errors were:

    ============ =============
    k            worst
    ============ =============
    1 to 60      4.9 * 10**-14
    100 to 1 000 3.7 * 10**-13
    100 000      5.4 * 10**-12
    ============ =============

The two-sample Kolmogorov-Smirnov distance is the largest gap between the
two empirical CDFs over the pooled points.  ``F_a - F_b`` rises only where
``F_a`` steps, so its largest value is taken at a position ``r`` of sorted
``a``, with the gap ``(r + 1)/n - F_b(a[r])``, and that of ``F_b - F_a`` at
one of ``b``.  A position's gap is at most that of the last position of its
run of equal values, which is the gap of the pooled point itself, so the
largest gap over positions is the distance.  Positions are bounded before
they are looked up.  They go in stretches, and the first position of each,
``a[::stride]``, is looked up in the other sample, which gives a best exact
gap; a stretch's gaps are at most its end over ``a``'s size minus the count
of ``b`` at its first position over ``b``'s size.  Only the stretches whose
bound beats the best gap are looked up in full.  Counts are monotone in the
value, and rounded division and subtraction are monotone in their operands,
so the computed bound caps every computed gap of its stretch: no skipped
stretch holds a larger gap, and the distance is the float of evaluating both
CDFs at every pooled point, bit for bit.  Two identical samples keep every
stretch open and cost one lookup per position.  An empty sample or one
holding NaN is refused, and so is every sample another check cannot judge.
Each normal critical value is computed once per level, and each sample's
mean is summed once.
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
        held only while it runs.  Raises ``ValueError`` with no pending check
        or a ``significance`` outside the open interval (0, 1), NaN included.
        """
        if not 0 < significance < 1:
            raise ValueError(f"significance must lie strictly between 0 and 1, not {significance!r}")
        if not pending:
            raise ValueError("a Bonferroni report needs at least one pending check")
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
    return -ndtri(alpha / 2.0)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance (tie-safe).

    Raises ``ValueError`` on an empty sample or one holding NaN.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)  # one copy each, sorted in place
    a.sort()
    b.sort()
    if a.size == 0 or b.size == 0:
        raise ValueError("the KS distance needs two nonempty samples")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # NaN sorts last
        raise ValueError("the KS distance of a sample holding NaN is undefined")
    return max(_cdf_rise(a, b), _cdf_rise(b, a))


# Positions per stretch.  A whole in-process ``verify`` round of this code
# took 106.8, 104.6 and 105.4 ms at strides 16, 32 and 64, of which its KS
# checks took 34.4, 31.5 and 35.0 ms (medians of 25 rounds, strides
# interleaved, on a shared 2-core x86_64 host).
_STRIDE = 32


def _cdf_rise(a: np.ndarray, b: np.ndarray) -> float:
    """Largest ``F_a(x) - F_b(x)`` over the pooled points of sorted ``a`` and ``b``.

    Taken over the positions ``r`` of ``a``, where ``F_a`` counts ``r + 1``
    (at most, within a run of equal values) and ``F_b`` the values of ``b``
    up to ``a[r]``.  The positions go in stretches of ``_STRIDE``.  Each
    stretch's first position is looked up in ``b``, and the best of those
    gaps is exact.  A stretch's gaps are at most its end, ``head + _STRIDE``
    or ``a.size``, over ``a.size`` minus its first ``b`` count over
    ``b.size``, so the other positions are looked up only in stretches whose
    bound beats that best.
    """
    n = a.size
    heads = np.arange(0, n, _STRIDE)
    below = np.searchsorted(b, a[::_STRIDE], side="right") / b.size
    best = np.max((heads + 1) / n - below)
    ends = np.minimum(heads + _STRIDE, n)
    rest = heads[ends / n - below > best, None] + np.arange(1, _STRIDE)
    rest = rest[rest < n]
    gaps = (rest + 1) / n - np.searchsorted(b, a[rest], side="right") / b.size
    return float(np.max(gaps, initial=best))


def ks_threshold(n: int, m: int, alpha: float) -> float:
    """Asymptotic two-sample critical distance at level ``alpha``."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


def ks_check(name: str, a: np.ndarray, b: np.ndarray, alpha: float) -> Check:
    d = ks_statistic(a, b)
    crit = ks_threshold(len(a), len(b), alpha)
    return Check(name, d, crit, d <= crit)


def _variance(a: np.ndarray, mean, ddof: int):
    """The variance of ``a``, with ``ddof`` delta degrees of freedom, about its
    ``mean``: ``np.var(a, ddof=ddof)`` bit for bit, which squares the
    deviations in place and sums them in this order."""
    deviations = a - mean
    return np.square(deviations, out=deviations).sum() / (a.size - ddof)


def mean_z_check(name: str, a: np.ndarray, b: np.ndarray, alpha: float) -> Check:
    """Welch z-test that two samples share a mean.

    Raises ``ValueError`` unless each sample holds two values or more.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("the mean z-test needs two samples of two values or more")
    mean_a, mean_b = a.mean(), b.mean()
    se = math.sqrt(_variance(a, mean_a, 1) / a.size + _variance(b, mean_b, 1) / b.size)
    gap = abs(float(mean_a - mean_b))
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

    A stream paired with many others is centred once, not once per pair, and
    its mean is summed once.  Raises ``ValueError`` on an empty stream.
    """
    if isinstance(a, Centred):
        return a
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ValueError("the correlation check needs two nonempty streams")
    mean = a.mean()
    return Centred(a - mean, np.sqrt(_variance(a, mean, 0)))


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
    the one ``scipy.stats.chi2_contingency`` gives (Yates-corrected when k = 2),
    to the accuracy of :func:`chdtrc`.
    Raises ``ValueError`` unless both samples are nonempty and hold
    nonnegative integers.
    """
    a, b = _counted(a), _counted(b)
    top = int(max(a.max(), b.max()))
    try:
        ca = np.bincount(a, minlength=top + 1).astype(float)
        cb = np.bincount(b, minlength=top + 1).astype(float)
    except ValueError:  # bincount's own scan found a negative value
        raise ValueError("the chi-square check counts nonnegative values only") from None
    total = ca + cb
    scale = min(ca.sum(), cb.sum()) / (ca.sum() + cb.sum())
    keep = _cells_kept(total, scale, min_expected)
    ca = np.concatenate([ca[: keep - 1], [ca[keep - 1 :].sum()]])
    cb = np.concatenate([cb[: keep - 1], [cb[keep - 1 :].sum()]])
    mask = (ca + cb) > 0
    table = np.vstack([ca[mask], cb[mask]])
    if table.shape[1] < 2:
        return Check(name, 0.0, 1.0 - alpha, True)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    if table.shape[1] == 2:  # Yates, moving no cell past its expected count
        gap = expected - table
        table = table + np.minimum(0.5, np.abs(gap)) * np.sign(gap)
    p = chdtrc(table.shape[1] - 1, float(((table - expected) ** 2 / expected).sum()))
    return Check(name, 1.0 - p, 1.0 - alpha, bool(p >= alpha))


def _counted(sample) -> np.ndarray:
    """A nonempty sample of the chi-square check as the integers it holds."""
    sample = np.asarray(sample)
    if sample.size == 0:
        raise ValueError("the chi-square check needs two nonempty samples")
    if sample.dtype.kind not in "biu" and not (
        np.isfinite(sample).all() and (np.trunc(sample) == sample).all()
    ):
        raise ValueError("the chi-square check counts integers only")
    return sample.astype(int, copy=False)


def _cells_kept(total: np.ndarray, scale: float, min_expected: float) -> int:
    """How many cells of the pooled ``total`` counts stay once the upper tail is
    merged into one cell: the most such that the last, the tail from it up,
    expects ``min_expected`` at the ``scale`` of the smaller sample.

    The tail sums, from the top cell's down to the second cell's, are one
    ``cumsum`` of the reversed counts, exact for counts below 2**53.  They
    grow downward, so the cells whose tail expects too little are the top
    ones, all merged.
    """
    tails = np.cumsum(total[::-1])[:-1]
    return total.size - int(np.count_nonzero(tails * scale < min_expected))


# ------------------------------------------------ normal and chi-square tails
#
# Python floats are the IEEE doubles that Cephes computes in, and ``math``
# calls the same libm, so ``ndtri``, which keeps Cephes' operations and their
# order, keeps its results.  Each ``Q`` table writes out the leading 1 that
# Cephes' ``p1evl`` leaves implicit.

_MACHEP = 2.0 ** -53


def _polevl(x: float, coef) -> float:
    """The polynomial with coefficients ``coef``, highest power first, at ``x`` (Horner)."""
    coef = iter(coef)
    ans = next(coef)
    for c in coef:
        ans = ans * x + c
    return ans


# ndtri: rational approximations in y - 1/2 for the central
# 0.135 < y < 0.865, and in 1/sqrt(-2 log y) below exp(-32) and above it
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
_NDTRI_P0 = (
    -59.9633501014107895267, 98.0010754185999661536, -56.6762857469070293439,
    13.9312609387279679503, -1.23916583867381258016,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834, 4.67627912898881538453, 86.3602421390890590575,
    -225.462687854119370527, 200.260212380060660359, -82.0372256168333339912,
    15.9056225126211695515, -1.18331621121330003142,
)
_NDTRI_P1 = (
    4.05544892305962419923, 31.5251094599893866154, 57.1628192246421288162, 44.0805073893200834700,
    14.6849561928858024014, 2.18663306850790267539, -0.140256079171354495875,
    -0.0350424626827848203418, -0.000857456785154685413611,
)
_NDTRI_Q1 = (
    1.0, 15.7799883256466749731, 45.3907635128879210584, 41.3172038254672030440,
    15.0425385692907503408, 2.50464946208309415979, -0.142182922854787788574,
    -0.0380806407691578277194, -0.000933259480895457427372,
)
_NDTRI_P2 = (
    3.23774891776946035970, 6.91522889068984211695, 3.93881025292474443415, 1.33303460815807542389,
    0.201485389549179081538, 0.0123716634817820021358, 0.000301581553508235416007,
    0.00000265806974686737550832, 0.00000000623974539184983293730,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255, 3.67983563856160859403, 1.37702099489081330271,
    0.216236993594496635890, 0.0134204006088543189037, 0.000328014464682127739104,
    0.00000289247864745380683936, 0.00000000679019408009981274425,
)


def ndtri(y: float) -> float:
    """The standard normal quantile at ``y``: ``scipy.special.ndtri``, bit for bit."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if y < 0.0 or y > 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return x if upper else -x


# lgamma(z + 1) - (z log z - z + log(2 pi z) / 2), four terms of Stirling's
# series as a polynomial in 1 / z**2, highest power first, to be divided by z
_STIRLING = (-1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_STIRLING_FROM = 40


def chdtrc(df: int, x: float) -> float:
    """The chi-square tail ``P(chi2(df) > x)``, for an integer ``df >= 1``
    and a finite ``x >= 0``; any other raises ``ValueError``.

    The finite sum's terms ``exp(-y) y**(j + h) / gamma(j + h + 1)``, with
    ``y = x / 2`` and ``h`` the half of ``df`` mod 2, have the ratio
    ``y / (j + h)``, so they rise to a largest one, at ``j = m``, and fall
    after it.  The sum starts there, at 1, and goes outward by the ratios
    until a term drops below ``_MACHEP`` of it; then it is scaled by that
    largest term.  Its logarithm comes from ``lgamma`` below ``m = 40``, and
    from Stirling's series at and above, where
    ``(m + h) log(y / (m + h)) - (y - m - h)`` keeps its digits.  No term
    underflows while the tail is a normal double.
    """
    if not (float(df).is_integer() and df >= 1):
        raise ValueError(f"the chi-square tail takes an integer df >= 1, not {df!r}")
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"the chi-square tail takes a finite x >= 0, not {x!r}")
    y = x / 2.0
    if y == 0:
        return 1.0
    h = df % 2 / 2
    head = math.erfc(math.sqrt(y)) if h else 0.0
    count = int(df) // 2
    if count == 0:
        return head
    m = min(count - 1, max(0, math.floor(y - h)))
    nu = m + h
    if m < _STIRLING_FROM:
        log_peak = nu * math.log(y) - y - math.lgamma(nu + 1)
    else:
        stirling = _polevl(1 / (nu * nu), _STIRLING) / nu
        log_peak = nu * math.log(y / nu) - (y - nu) - 0.5 * math.log(2 * math.pi * nu) - stirling
    total = term = 1.0
    for j in range(m, 0, -1):
        term *= (j + h) / y
        total += term
        if term < _MACHEP * total:
            break
    term = 1.0
    for j in range(m + 1, count):
        term *= y / (j + h)
        total += term
        if term < _MACHEP * total:
            break
    return min(1.0, head + math.exp(log_peak) * total)  # rounding lifts a tail near 1 past it
