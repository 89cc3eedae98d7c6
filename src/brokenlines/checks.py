"""Statistical checks shared by the distributional test reports.

Each report aggregates named sub-checks.  The Bonferroni rule lives here
alone, in :meth:`TestReport.bonferroni`: a report lists its pending checks
and every one runs at the report's significance divided by their number,
so a whole report rejects a true hypothesis with probability at most its
significance level.

The normal critical value and the chi-square tail are computed here, with
``math`` alone, so that no command loads scipy.  :func:`ndtri` and
:func:`chdtrc` port the functions of those names in scipy 1.17, operation
for operation, and return its doubles bit for bit.  Both are Stephen L.
Moshier's Cephes, as scipy's BSD-licensed ``xsf`` library carries it.
``chdtrc(k, x)`` is the upper regularised gamma function ``Q(k/2, x/2)``,
taken by the power series (DLMF 8.11.4), the continued fraction (DLMF
8.9.2) or the small-``x`` series (DLMF 8.7.3), or, where ``x`` is near a
large ``a``, by Temme's uniform asymptotic expansion (DLMF 8.12.3, with
the coefficients of DLMF 8.12.12), each where scipy takes it.

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
    the one ``scipy.stats.chi2_contingency`` gives (Yates-corrected when k = 2).
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
# calls the same libm, so a port that keeps Cephes' operations and their
# order keeps its results.  Each ``Q`` table writes out the leading 1 that
# Cephes' ``p1evl`` leaves implicit.

_MACHEP = 2.0 ** -53
_MAXLOG = 709.782712893383996843  # log of the largest double
_MAXITER = 2000


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


# erfc for |a| < 8, and erf below 1, for Temme's leading term
_ERFC_P = (
    0.000000000246196981473530512524, 0.564189564831068821977, 7.46321056442269912687,
    48.6371970985681366614, 196.520832956077098242, 526.445194995477358631, 934.528527171957607540,
    1027.55188689515710272, 557.535335369399327526,
)
_ERFC_Q = (
    1.0, 13.2281951154744992508, 86.7072140885989742329, 354.937778887819891062,
    975.708501743205489753, 1823.90916687909736289, 2246.33760818710981792, 1656.66309194161350182,
    557.535340817727675546,
)
_ERF_T = (
    9.60497373987051638749, 90.0260197203842689217, 2232.00534594684319226, 7003.32514112805075473,
    55592.3013010394962768,
)
_ERF_U = (
    1.0, 33.5617141647503099647, 521.357949780152679795, 4594.32382970980127987,
    22629.0000613890934246, 49267.3942608635921086,
)


def _erfc(a: float) -> float:
    """``erfc(a)`` for ``|a| < 8``, the only arguments it is given.

    Temme's leading term asks for ``erfc(eta * sqrt(a / 2))``, which stays
    within 3.6 of 0 over Temme's regime, so Cephes' branch for ``|a| >= 8``
    and its underflow guard are not ported.
    """
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    y = (math.exp(-a * a) * _polevl(x, _ERFC_P)) / _polevl(x, _ERFC_Q)
    return 2.0 - y if a < 0 else y


def _erf(x: float) -> float:
    """``erf(x)`` for ``|x| < 1``."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


# lgam: a rational approximation on [2, 3] reached by the recurrence below
# 13, Stirling's series above
_LGAM_A = (
    0.000811614167470508450300, -0.000595061904284301438324, 0.000793650340457716943945,
    -0.00277777777730099687205, 0.0833333333333331927722,
)
_LGAM_B = (
    -1378.25152569120859100, -38801.6315134637840924, -331612.992738871184744,
    -1162370.97492762307383, -1721737.00820839662146, -853555.664245765465627,
)
_LGAM_C = (
    1.0, -351.815701436523470549, -17064.2106651881159223, -220528.590553854454839,
    -1139334.44367982507207, -2532523.07177582951285, -2018891.41433532773231,
)
_STIRLING = (0.00079365079365079365079365, -0.0027777777777777777777778, 0.0833333333333333333333)
_LOG_SQRT_2PI = 0.91893853320467274178


def _lgam(x: float) -> float:
    """``log(gamma(x))`` for ``x > 0``, the only arguments it is given."""
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + _polevl(p, _STIRLING) / x
    return q + _polevl(p, _LGAM_A) / x


# (2k)! / B_2k, for the Euler-Maclaurin tail of the zeta sum
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1892437580.3183791606, 74724249600.0,
    -2950130727918.164224, 116467828143500.67249, -4597978722407472.6105, 181521054019435467.73,
    -7166165256175667011.3,
)


@cache
def _zeta1(n: int) -> float:
    """Riemann's ``zeta(n)``, as Cephes sums Hurwitz's ``zeta(n, 1)``; once per ``n``."""
    x = float(n)
    s = a = 1.0
    b = 0.0
    i = 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        b /= w
        a *= x + k
        k += 1.0
    return s


_EULER = 0.577215664901532860606512090082402431


def _lgam1p_taylor(x: float) -> float:
    """``log(gamma(1 + x))`` for ``|x| <= 1/2``, by its Taylor series."""
    if x == 0:
        return 0.0
    res = -_EULER * x
    xfac = -x
    for n in range(2, 42):
        xfac *= -x
        coeff = _zeta1(n) * xfac / n
        res += coeff
        if abs(coeff) < _MACHEP * abs(res):
            break
    return res


def _lgam1p(x: float) -> float:
    """``log(gamma(1 + x))``."""
    if abs(x) <= 0.5:
        return _lgam1p_taylor(x)
    if abs(x - 1) < 0.5:
        return math.log(x) + _lgam1p_taylor(x - 1)
    return _lgam(x + 1)


# Cephes' own rational expm1, not libm's: the two differ by an ulp or two
_EXPM1_P = (
    0.00012617719307481059087798, 0.030299440770744196129956, 0.99999999999999999991025,
)
_EXPM1_Q = (
    0.0000030019850513866445504159, 0.0025244834034968410419224, 0.22726554820815502876593,
    2.0000000000000000000897,
)


def _expm1(x: float) -> float:
    """``exp(x) - 1`` for finite ``x``."""
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * _polevl(xx, _EXPM1_P)
    r = r / (_polevl(xx, _EXPM1_Q) - r)
    return r + r


def _log1pmx(x: float) -> float:
    """``log(1 + x) - x`` for ``|x| < 1/2``, by its series.

    Cephes switches to the library logarithm at ``|x| >= 1/2``, which no
    caller reaches: the Lanczos branch of :func:`_igam_fac` has
    ``|x - a| <= 0.4 a``, and Temme's regime ``|x - a| / a < 0.32``.
    """
    xfac = x
    res = 0.0
    for n in range(2, _MAXITER):
        xfac *= -x
        term = xfac / n
        res += term
        if abs(term) < _MACHEP * abs(res):
            break
    return res


# Lanczos' approximation with g = 6.0247 and 13 terms, as the ratio of two
# polynomials, highest power first; the denominator is x (x + 1) ... (x + 11)
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222, 0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208, 449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526, 75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507, 3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571, 43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342, 103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DEN = (
    1, 66, 1925, 32670, 357423, 2637558, 13339535, 45995730, 105258076, 150917976, 120543840,
    39916800, 0,
)
_LANCZOS_NUM_REVERSED = _LANCZOS_NUM[::-1]
_LANCZOS_DEN_REVERSED = _LANCZOS_DEN[::-1]


def _lanczos_sum_expg_scaled(x: float) -> float:
    if abs(x) > 1:  # as polynomials in 1 / x
        y = 1 / x
        return _polevl(y, _LANCZOS_NUM_REVERSED) / _polevl(y, _LANCZOS_DEN_REVERSED)
    return _polevl(x, _LANCZOS_NUM) / _polevl(x, _LANCZOS_DEN)


def _igam_fac(a: float, x: float) -> float:
    """``x**a * exp(-x) / gamma(a)``, by Lanczos where ``x`` is near ``a``."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        return 0.0 if ax < -_MAXLOG else math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.e) / _lanczos_sum_expg_scaled(a)
    if a < 200 and x < 200:
        return res * (math.exp(a - x) * (x / fac) ** a)
    num = x - a - _LANCZOS_G + 0.5
    return res * math.exp(a * _log1pmx(num / fac) + x * (0.5 - _LANCZOS_G) / fac)


def _igam_series(a: float, x: float) -> float:
    """The lower regularised gamma function by its power series (DLMF 8.11.4)."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r = a
    c = ans = 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


# the convergents are scaled down by 2**52 whenever they pass 2**52
_BIG = 2.0**52
_BIG_INV = 2.0**-52


def _igamc_continued_fraction(a: float, x: float) -> float:
    """The upper regularised gamma function by its continued fraction (DLMF 8.9.2)."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1 = pkm1, pk
        qkm2, qkm1 = qkm1, qk
        if abs(pk) > _BIG:
            pkm2 *= _BIG_INV
            pkm1 *= _BIG_INV
            qkm2 *= _BIG_INV
            qkm1 *= _BIG_INV
        if t <= _MACHEP:
            break
    return ans * ax


def _igamc_series(a: float, x: float) -> float:
    """The upper regularised gamma function for small ``x`` (DLMF 8.7.3)."""
    fac = 1.0
    total = 0.0
    for n in range(1, _MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= _MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_expm1(a * logx - _lgam1p(a))
    return term - math.exp(a * logx - _lgam(a)) * total


# Temme's d[k][n] (DLMF 8.12.12), k, n < 25: the 17-digit decimals that
# scipy's _precompute/gammainc_asy.py prints, as the doubles they round
# to, in hex.  Row k is the k-th block of five lines.
_TEMME_HEX = """
    -0x1.5555555555555p-2 0x1.5555555555555p-4 -0x1.e573ac901e574p-7 0x1.2f684bda12f68p-10 0x1.71de3a556c734p-12
    -0x1.76e06fec7273bp-13 0x1.48c5892f7cd83p-15 -0x1.255370652afc2p-19 -0x1.f1b22f594c6b5p-20 0x1.bd6d21e4b4109p-21
    -0x1.7b5f9a2d0465cp-23 0x1.ccf5ceb7f0d9fp-28 0x1.6097d55c37c1cp-27 -0x1.2d2197c7a2faap-28 0x1.f6e66d24d5c8ap-31
    -0x1.c0d9b6edf2b0cp-36 -0x1.0070a87340428p-34 0x1.ac9475c463659p-36 -0x1.61ca701fd754ap-38 0x1.ef98008f5eec2p-44
    0x1.7ba0759769d7dp-42 -0x1.3989bebb193c0p-43 0x1.0104fc4369a3cp-45 -0x1.283fe7950ad7bp-51 -0x1.1ca914d71a27cp-49

    -0x1.e573ac901e574p-10 -0x1.c71c71c71c71cp-9 0x1.5ac056b015ac0p-9 -0x1.0394f6f09e723p-10 0x1.af83440e53dbcp-13
    -0x1.af83440e53dbcp-22 -0x1.2fa4ae89e5af0p-16 0x1.00a9cabd6b83ep-17 -0x1.b0bdfcc629cbap-20 0x1.3f59230a8357cp-28
    0x1.280f2cde3f847p-23 -0x1.ee23d0cba8aeep-25 0x1.9aa7a30de114cp-27 -0x1.349fbca3a377bp-36 -0x1.1564ecff73d58p-30
    0x1.c9b434bf3c34ep-32 -0x1.78a5056f8ce45p-34 0x1.113e3a466db9ep-44 0x1.f8041c5540ea2p-38 -0x1.9ccf2fab4608bp-39
    0x1.519580a10cd82p-41 -0x1.f3b7a5dcd1851p-53 -0x1.c068b448455eap-45 0x1.6d8a9ef5c1827p-46 -0x1.29b03783db2a2p-48

    0x1.0ee643b990ee6p-8 -0x1.5f7268edab4c8p-9 0x1.948b0fcd6e9e0p-11 0x1.0db20a88f4696p-19 -0x1.c253efaa1a933p-14
    0x1.bbf43daf4fe53p-15 -0x1.ac2d05890f2c3p-17 0x1.26154ae39151dp-25 0x1.7058929663936p-20 -0x1.522cb05171911p-21
    0x1.32ac81c15d3d7p-23 -0x1.c24bd0e740a6cp-33 -0x1.e437343a46f5dp-27 0x1.ac0d455e25360p-28 -0x1.77c5829460138p-30
    0x1.0962774f638bbp-40 0x1.1b1056c188672p-33 -0x1.e9778dbc61371p-35 0x1.a55da34225759p-37 -0x1.2c681309d6007p-48
    -0x1.33f39f65c6eeep-40 0x1.0675f56b95f3bp-41 -0x1.be16182b001e8p-44 0x1.5d3b42a398b8fp-56 0x1.3f2fe637bc2b8p-47

    0x1.547d93b34e2b6p-11 0x1.e13ce465fa859p-13 -0x1.ebfb188b7ca00p-12 0x1.18b9b5bf2d984p-12 -0x1.3d2a3a29b5d9dp-14
    -0x1.0152a1871f27ap-22 0x1.73df462204ef4p-17 -0x1.7cd6f27b3f020p-18 0x1.7e0201539310ep-20 -0x1.ea23269c140a7p-36
    -0x1.6c2dcffbefeefp-23 0x1.5bde8ef4c4dc7p-24 -0x1.4853ced169327p-26 0x1.50c3f0dd501ebp-39 0x1.1b66a39794ba9p-29
    -0x1.040c53b2491f0p-30 0x1.d9b15465daec1p-33 -0x1.f46057e1c9d1fp-47 -0x1.812d3d94d533bp-36 0x1.587d7a7c1a668p-37
    -0x1.328e9df2eb8b6p-39 0x1.1e54cdbaa3443p-54 0x1.def3f46a086e5p-43 -0x1.a4d8ed36b49dcp-44 0x1.7075e8dcfddd0p-46

    -0x1.c3e0b02da7bf9p-11 0x1.9b0ff6874f2c4p-11 -0x1.3999a85a4237ap-12 -0x1.88f2ae1def9d0p-20 0x1.16908b48ce058p-14
    -0x1.4ce3fd902bcadp-15 0x1.7db4c02846e81p-17 0x1.13b3c5b7cb45ep-32 -0x1.c71c074985d3fp-20 0x1.de37d9f09164cp-21
    -0x1.ec676cf33153cp-23 0x1.041515bab6adap-35 0x1.efe94304ac16bp-26 -0x1.e78e449f4e3bep-27 0x1.d9a9f1a8b7696p-29
    -0x1.033ba70791e5ep-42 -0x1.b14f212618752p-32 0x1.9911dbca7ce93p-33 -0x1.7f2fac5e22aaep-35 0x1.7088090f49aabp-50
    0x1.49465337812c4p-38 -0x1.2e7ac3cc20208p-39 0x1.14577d11fe2b7p-41 -0x1.d3b49b9fd2152p-58 -0x1.c6716fd28d001p-45

    -0x1.6128ac5a4fa71p-12 -0x1.247604839c039p-14 0x1.22be87360ef1fp-12 -0x1.a2042c5148e27p-13 0x1.1d1e9cb24760bp-14
    0x1.30bdcf208080ep-23 -0x1.c823fc1b3cc36p-17 0x1.0d0e229150428p-17 -0x1.338eb19652fd9p-19 -0x1.659cfde0bb2ebp-32
    0x1.741504e5c87c2p-22 -0x1.8c267becd0c0fp-23 0x1.9e630225a095bp-25 -0x1.4411c5ac40e35p-46 -0x1.b15bbf334c8c3p-28
    0x1.b2a3adb58623dp-29 -0x1.af0f32d677057p-31 0x1.762c060bd9bdap-48 0x1.9b9c5831849dcp-34 -0x1.8d0152b8692bap-35
    0x1.7bf5ea6674b5fp-37 -0x1.51bfdafa33430p-55 -0x1.54d6b090f18dbp-40 0x1.3fcc249cb50d9p-41 -0x1.2a5b16d7de31ep-43

    0x1.168ef1b0931c8p-11 -0x1.36773bdb97b48p-11 0x1.1c0950d3ecb9dp-12 0x1.a8411da6cab49p-21 -0x1.5600945495b37p-14
    0x1.d6bdf83130dc1p-15 -0x1.3382f4cf48618p-16 -0x1.a74243fa27729p-29 0x1.d115d4f5dcc68p-19 -0x1.10587854fcb37p-19
    0x1.36c8903447d35p-21 0x1.074e709bf4b8bp-42 -0x1.7b2f7de505322p-24 0x1.9778c6d79bcc1p-25 -0x1.af0ea334cc20dp-27
    0x1.858ba968e7d04p-44 0x1.cf0f99fa070bcp-30 -0x1.d77155071f99bp-31 0x1.daf3327a51b54p-33 -0x1.b6df73b581619p-51
    -0x1.d4a717ac2b965p-36 0x1.cbb55e3e29ba5p-37 -0x1.bf888fe9ca81cp-39 0x1.5b9bd2acc211fp-58 0x1.9f7d14e8f487bp-42

    0x1.691879c01efb4p-12 0x1.b1d75d3346711p-15 -0x1.5f3385098cebfp-12 0x1.26eeb5ece1d9fp-12 -0x1.cc642787368cep-14
    -0x1.119c70312e0a2p-23 0x1.d179830b113abp-16 -0x1.3269164e3e304p-16 0x1.8467d794bd7f2p-18 0x1.0f82da50cdaeep-31
    -0x1.1c6acec59f442p-20 0x1.4b12ad51452d5p-21 -0x1.7929779607d63p-23 -0x1.6d32eed259534p-40 0x1.cf11fbdf49e99p-26
    -0x1.f4e88c5d1cae1p-27 0x1.0b2830e4dfce1p-28 -0x1.65f59322ddf56p-55 -0x1.24e8da0f96246p-31 0x1.2daf0a8add2abp-32
    -0x1.33ada96417614p-34 0x1.ddc4a629af677p-56 0x1.379df6a52f424p-37 -0x1.35d870109f334p-38 0x1.31d6a00ba6216p-40

    -0x1.5629b3187b744p-11 0x1.b8239c670e690p-11 -0x1.cb967b4446107p-12 -0x1.762676b30cfd6p-21 0x1.5d1157082916dp-13
    -0x1.0c16fcea7ddb2p-13 0x1.84637d3f583cdp-15 0x1.3937992ec9b02p-28 -0x1.6384af9ac219dp-17 0x1.c738f198ab550p-18
    -0x1.1adec9530a7adp-19 -0x1.2ed3c124b7492p-36 0x1.952f970ac9b03p-22 -0x1.d599e3b2187a2p-23 0x1.0b282393d4893p-24
    0x1.7c54ec550bd4bp-51 -0x1.4985ee872fc56p-27 0x1.663fd6d84752ep-28 -0x1.80990f0dfb26ap-30 0x1.36412c0552a81p-51
    0x1.ac79309fc7363p-33 -0x1.bd671f048b194p-34 0x1.cac1ee5de78aap-36 -0x1.779b4a6572e09p-58 -0x1.da96613f7775ap-39

    -0x1.38dff1cc96982p-11 -0x1.2e31f9b7913eap-14 0x1.63969bb825829p-11 -0x1.4f9f2582dd0a5p-11 0x1.22fb20c28e8a0p-12
    0x1.86c71c8cebf16p-23 -0x1.63a803aebc9b7p-14 0x1.00120036172b0p-14 -0x1.618fcc48d37bcp-16 -0x1.e7018e8be3330p-31
    0x1.2fe63d892e1a9p-18 -0x1.7d8d3a891d8bap-19 0x1.d3850f27b27e8p-21 0x1.03901807110d2p-38 -0x1.49865a9b6fd04p-23
    0x1.7ca3da4d350cep-24 -0x1.b0abf9d310d85p-26 -0x1.706d644652279p-47 0x1.0bcbd16605be3p-28 -0x1.244bad2fffd4fp-29
    0x1.3b6549adcccb6p-31 -0x1.bdbb7a0bc6b54p-63 -0x1.63f0cfd72ae16p-34 0x1.74cd688c73fedp-35 -0x1.831b3a872b284p-37

    0x1.5d4ae684527bfp-10 -0x1.f5dbcaf756cdep-10 0x1.22b37f1b46951p-10 0x1.0a9ef61e90004p-20 -0x1.0aba998a532bfp-11
    0x1.c01c0b52c3345p-12 -0x1.618e482f9d22ap-13 -0x1.1759e6f571329p-27 0x1.7bdf837b4e130p-15 -0x1.0650f761692a2p-15
    0x1.5ea3af60786b1p-17 0x1.aa0a6ef89a12ap-35 -0x1.205588c7220b7p-19 0x1.64d9971a80133p-20 -0x1.b0abf52fc4d58p-22
    -0x1.8b97eb7553f43p-43 0x1.2d454a640f7f8p-24 -0x1.5b19dcac0a663p-25 0x1.8a3e9b486f0dap-27 0x1.24830817ba66fp-58
    -0x1.e96b1d57d29c3p-30 0x1.0bf3a2f6afa8ap-30 -0x1.22546bbf739c6p-32 0x1.ab9618d3701bep-58 0x1.4b273207b9023p-35

    0x1.9e1dba8ec5904p-10 0x1.54d241144693fp-13 -0x1.0e7245b5e0240p-9 0x1.185be08721041p-9 -0x1.08fd64cc4d9d6p-10
    -0x1.ac8f35a61360fp-22 0x1.7bf3a7a227118p-12 -0x1.271c35d1a742ap-12 0x1.b648cb8b91d61p-14 0x1.23870b487d429p-29
    -0x1.b081c1069b36ap-16 0x1.21f0d8e42b54dp-16 -0x1.7a962022d07b2p-18 -0x1.83e23f727e2fep-37 0x1.2d456933154b1p-20
    -0x1.70cb7c2ec0c52p-21 0x1.bb865efbb7c49p-23 0x1.a4c4ee6f7598ap-45 -0x1.31e2f7c2057ddp-25 0x1.5fafc6207f6cep-26
    -0x1.8f34113f0801ap-28 -0x1.3353e1d7f8940p-53 0x1.f0bacd0370f00p-31 -0x1.10ac14ad52ebap-31 0x1.2876b3785de06p-33

    -0x1.0ae56a5daa127p-8 0x1.a3a699f4a401bp-8 -0x1.08d50006f5e0ep-8 -0x1.25187cdea1eebp-19 0x1.1cf4d14eb1812p-9
    -0x1.0237b58c76530p-9 0x1.b647f0b161ed3p-11 0x1.4e11fb9ab4d6ep-26 -0x1.0e5103ef55b59p-12 0x1.8eab17b1a5667p-13
    -0x1.1bf09035d225dp-14 -0x1.3d8d849a65517p-33 0x1.079cba3747641p-16 -0x1.59bec2daecc91p-17 0x1.bb865dacf43bap-19
    0x1.c166cf2213dbep-41 -0x1.581f5664ec1e3p-21 0x1.a1a0baff44abep-22 -0x1.f3011553e9943p-24 -0x1.95f1e554e1faap-49
    0x1.55806ce2925ddp-26 -0x1.87f75dac1bcf1p-27 0x1.bcb20d29db62ep-29 0x1.8a682f4d9b20fp-65 -0x1.153438ee8db49p-31

    -0x1.85c7ccbc5fc12p-8 -0x1.1b33b019b3e6fp-11 0x1.2010998f1553ap-7 -0x1.4303ce949bb43p-7 0x1.48900f8e29435p-8
    0x1.57cc9e9a6596fp-20 -0x1.0e596fb46b154p-9 0x1.c0816b1314cf1p-10 -0x1.62eb1c560282dp-11 -0x1.da3e6523aaa76p-28
    0x1.8b6bb2cc02754p-13 -0x1.18eb043924ff5p-13 0x1.84156dd77628dp-15 0x1.602512b27e94cp-35 -0x1.581f634675d03p-17
    0x1.bbbac7672b130p-18 -0x1.18b098b674d56p-19 -0x1.d7cac376be549p-43 0x1.aae08a5f2b88dp-22 -0x1.013a5585a3e12p-22
    0x1.31ba687133284p-24 0x1.01431e3eed54ap-50 -0x1.9fce55cf292a0p-27 0x1.dc92e5d9a0e3bp-28 -0x1.0e39a0cc2ec96p-29

    0x1.1d1d650ed0c93p-6 -0x1.e3c8e8bed86bcp-6 0x1.486e7effed53ep-6 0x1.d7b4780bea3b5p-18 -0x1.95848e63486fep-7
    0x1.88706e55cc0cdp-7 -0x1.62eac168d2782p-8 -0x1.0fd512bea82b1p-24 0x1.ee468e4a5f58fp-10 -0x1.82431e1b8c909p-10
    0x1.23100f1a3a0dbp-11 0x1.201c0ffe9ba4dp-31 -0x1.2d1b761a9f916p-13 0x1.9fff1a4a27ea0p-14 -0x1.18b09870ea0cdp-15
    -0x1.f737fafb85750p-39 0x1.e03c9b879aefcp-18 -0x1.3175457fe1a62p-18 0x1.7e29028144e09p-20 0x1.52ba383effed9p-46
    -0x1.1ddddafb245edp-22 0x1.56899531b5ee8p-23 -0x1.955671300d854p-25 -0x1.2c41bcf1384d4p-54 0x1.122c811c57011p-27

    0x1.ef9a05c03d2e9p-6 0x1.45497f334cd1dp-9 -0x1.9919f49d95e46p-5 0x1.ead435e7cd1d3p-5 -0x1.0a1a394a2e4b2p-5
    -0x1.7ff321b78f2fdp-18 0x1.ee5043853b987p-7 -0x1.b28c0c73a65dep-7 0x1.6bd327be56cf6p-8 0x1.03f5710abeebcp-25
    -0x1.c3a98ac5d2c9ap-10 0x1.51ff48c35df65p-10 -0x1.eb34f5f300209p-12 -0x1.927a79848909ep-33 0x1.e03ca2f459ca1p-14
    -0x1.448c9a0ce370ep-14 0x1.adee20eccfadbp-16 0x1.2f0a65a79906ep-40 -0x1.65555261131cep-18 0x1.c19493d88fea8p-19
    -0x1.16ab6da432b0dp-20 -0x1.942a19a9fab26p-48 0x1.9b42c1c8dde38p-23 -0x1.ea6a427a13918p-24 0x1.2116dd1a9a107p-25

    -0x1.95b685f50d178p-4 0x1.6fb2ba98c8bc4p-3 -0x1.0a06f29064247p-3 -0x1.08105d4f69d94p-15 0x1.72bb47a744982p-4
    -0x1.7c3a13cf8dfb4p-4 0x1.6bd2f38631744p-5 0x1.2a46fbbd016c8p-22 -0x1.1a49f1cad78b9p-6 0x1.d0beffa0aa57bp-7
    -0x1.7067b69432cefp-8 -0x1.494d3b2241201p-29 0x1.a4350e25cd11cp-10 -0x1.3043d03c40f6ap-10 0x1.adee20c4df7f1p-12
    0x1.431836a33e30bp-36 -0x1.91fffca306bb5p-14 0x1.0af037c4544c3p-14 -0x1.5c564909bc45ep-16 -0x1.09d90f67dffe4p-43
    0x1.1abde539275c9p-18 -0x1.607c5fc6f6ddap-19 0x1.b1a24ba743ce1p-21 0x1.59ab634fed715p-51 -0x1.3c51966c10d15p-23

    -0x1.997cfc43300a2p-3 -0x1.ed5bd48e4f389p-7 0x1.75748b67ecf48p-2 -0x1.db7f120e7ea15p-2 0x1.10cd9ca6272d6p-2
    0x1.1d889ea4a1955p-15 -0x1.1a4da23c48dc0p-3 0x1.056ba4744ccfbp-3 -0x1.cc80f182c4e01p-5 -0x1.787c7d3bab1e8p-23
    0x1.3b27ecaac87dap-6 -0x1.ee6e34f7ffc6fp-7 0x1.783054c284396p-8 0x1.23fc5f86b07a3p-30 -0x1.91ffff755a2c9p-10
    0x1.1b9f3b54bf1cdp-10 -0x1.87e11172c9894p-12 -0x1.d1a2e75eb667bp-38 0x1.616d5ec6f63aap-14 -0x1.cea33db7ebd7cp-15
    0x1.2a1f93f1f47d2p-16 0x1.5d65470fbf12bp-45 -0x1.da7a61ada286bp-19 0x1.257a6d571fd19p-19 -0x1.66b2e1918d18fp-21

    0x1.72e2bba1d9e04p-1 -0x1.644d13921c967p+0 0x1.10befe6e8d273p+0 0x1.8976514ed9543p-13 -0x1.a773c127046e4p-1
    0x1.c97c057cf058fp-1 -0x1.cc80c9e91f59ep-2 -0x1.b0613881c041dp-20 0x1.89f1e41653f05p-3 -0x1.53ebc2bd4a5fep-3
    0x1.1a243edb1b5e9p-4 0x1.ddf275f4134aep-27 -0x1.5fbfff5c36b90p-6 0x1.09e5478d507d5p-6 -0x1.87e11163a4d0bp-8
    -0x1.f06d97f84ed74p-34 0x1.8d9b0a9bf8981p-10 -0x1.12b0eca3970e5p-10 0x1.74a778ed1cb38p-12 0x1.cb83b3a49133cp-41
    -0x1.4634232704491p-14 0x1.a5dffd2cf2356p-15 -0x1.0d06292d0add8p-16 -0x1.6a2982bada9f3p-48 0x1.a5076d78fbbd2p-19

    0x1.aab9a101bb71ap+0 0x1.dd5fa0e771b94p-4 -0x1.aa17682be467cp+1 0x1.1e07e7f446f75p+2 -0x1.5950812bad9bfp+1
    -0x1.10b3257317fb1p-12 0x1.89f57741b2958p+0 -0x1.7e696e1cfec61p+0 0x1.60acf7fbade6ap-1 0x1.5f0bc5a441808p-20
    -0x1.07d0100542640p-2 0x1.b01495866b1a0p-3 -0x1.56e4eb61b59bfp-4 -0x1.0bbb8867ea9c0p-27 0x1.8d9b0bf9f084dp-6
    -0x1.23dbfb779356dp-6 0x1.a33c67b185d20p-8 0x1.b2aad7eceee36p-35 -0x1.97c12c0f8bdbfp-10 0x1.14dafe262b643p-10
    -0x1.71e87895ad7adp-12 -0x1.5c57e4cc839d3p-42 0x1.3bc5921d883e8p-14 -0x1.9437c13690629p-15 0x1.fef145d223bf5p-17

    -0x1.a79ae8aaafd02p+2 0x1.acbc4bfe43e00p+3 -0x1.59425c342f48fp+3 -0x1.783c598bad82dp-10 0x1.2777c33a9e5bep+3
    -0x1.4e9c14a89b561p+3 0x1.60ace4d316e22p+2 0x1.93792683cbe67p-17 -0x1.49c412368986fp+1 0x1.290e25fcc2f2fp+1
    -0x1.012bb030da59dp+0 -0x1.b66c4fdbfc0f5p-24 0x1.5be7aa66267f4p-2 -0x1.119e3bb754011p-2 0x1.a33c67aa32439p-4
    0x1.cf7804161ee06p-31 -0x1.cab9518f9f25bp-6 0x1.48c40dcc8bbadp-6 -0x1.ce6296ba73eafp-8 -0x1.ca1a6622e9584p-38
    0x1.b22fa8e86f177p-10 -0x1.228812df25818p-10 0x1.7f34f45d8bd54p-12 0x1.95b3a4f618aa8p-45 -0x1.4031927a9564fp-14

    -0x1.11cda4df23f8fp+4 -0x1.1eed0a9756022p+0 0x1.290e447565b8bp+5 -0x1.a262dbeb59bedp+5 0x1.0877fddff7151p+5
    0x1.44f1cbaa66812p-9 -0x1.49c638d29d8b8p+4 0x1.4e3009704f558p+4 -0x1.41766824d1543p+3 -0x1.9aaa596138d0cp-17
    0x1.04edc9ba0861dp+2 -0x1.bca121cae8027p+1 0x1.6ed4d8666aca4p+0 0x1.3278e4632c7b6p-24 -0x1.cab952622deefp-2
    0x1.5d504eaf33e2cp-2 -0x1.041774ae09a4ap-3 -0x1.eee18ee45c314p-32 0x1.0f5dc99a87796p-5 -0x1.7d5298c548f9dp-6
    0x1.077467fdd45b2p-7 0x1.985903d642ff7p-39 -0x1.e04a5bb98e88dp-10 0x1.3d685b671b414p-10 -0x1.9e0da23141b65p-12

    0x1.278fb311f1460p+6 -0x1.399a52c414c0dp+7 0x1.086f7d7d0b401p+7 0x1.c0b02d3029512p-7 -0x1.eea8ed98bc840p+6
    0x1.2469edffa7c58p+7 -0x1.41765ca0e8764p+6 -0x1.d845bb1cf5d18p-14 0x1.46293b11a1868p+5 -0x1.31aec6beb06aap+5
    0x1.131fa217a9950p+4 0x1.f60dbe00503b1p-21 -0x1.916228098eb04p+2 0x1.477b49befa9b2p+2 -0x1.041774abd5fd9p+1
    -0x1.07e35d548ffe1p-27 0x1.314982cd48b2ep-1 -0x1.c4d21569ce920p-2 0x1.495181fd17e0fp-3 0x1.0c854831d25e2p-34
    -0x1.4a331f0f84b22p-5 0x1.c84603642c327p-6 -0x1.368a39a4ecc87p-7 -0x1.fe281a96e7f46p-42 0x1.13f352bfa1134p-9

    0x1.a85634b8ba3fdp+7 0x1.a3739d2755201p+3 -0x1.f0fb9cab41690p+8 0x1.6d9ba4564ae7ep+9 -0x1.e2236233f8014p+8
    -0x1.d8244d2c3cf85p-6 0x1.462acdd157613p+8 -0x1.57e4b60bc3ef1p+8 0x1.57e76482a5da7p+7 0x1.2666103695936p-13
    -0x1.2d09a54a1d5adp+6 0x1.0a142c31c16b6p+6 -0x1.c7290a7cc84a8p+4 -0x1.aebce4039edb9p-21 0x1.3149831a4a8f7p+3
    -0x1.e11f36c4b72cap+2 0x1.727bb2291897cp+1 0x1.5639815cae5a2p-28 -0x1.9cbfe6da2b75dp-1 0x1.2b6df239e2f2dp-1
    -0x1.aafe0f40f4879p-3 -0x1.1bb66afdffde1p-35 0x1.9decfc200f09ep-5 -0x1.19e74e2c84f99p-5 0x1.7acce4de0427ep-7

    -0x1.eecc57d9b7a22p+9 0x1.1211c6f39f917p+11 -0x1.e216f495b65d9p+10 -0x1.4628bbdfbf5ffp-3 0x1.e93fe8f94aa65p+10
    -0x1.2ce80c1876502p+11 0x1.57e75c17e6b21p+10 0x1.52b542637185cp-10 -0x1.784c0dd0c6d78p+9 0x1.6ddbbc692f9aap+9
    -0x1.555ec7b6bcab0p+8 -0x1.60ecbfc1ad90cp-17 0x1.0b2052b27dce0p+7 -0x1.c30d435490edep+6 0x1.727bb2277c98ap+5
    0x1.6d0cd0f858ce2p-24 -0x1.d057e3b507d98p+3 0x1.63928fa4919cdp+3 -0x1.0adec98886b75p+2 -0x1.752a6dd3fba50p-31
    0x1.1c92ed56057acp+0 -0x1.953c805ffb235p-1 0x1.1c19aba68178dp-2 0x1.6fc246ec465adp-38 -0x1.0b871cba2bd5cp-4
"""
_TEMME_VALUES = [float.fromhex(word) for word in _TEMME_HEX.split()]
_TEMME_D = tuple(tuple(_TEMME_VALUES[25 * k : 25 * k + 25]) for k in range(25))


def _igamc_asymptotic(a: float, x: float) -> float:
    """The upper regularised gamma function by Temme's series (DLMF 8.12.3/8.12.4)."""
    lam = x / a
    sigma = (x - a) / a
    if lam > 1:
        eta = math.sqrt(-2 * _log1pmx(sigma))
    elif lam < 1:
        eta = -math.sqrt(-2 * _log1pmx(sigma))
    else:
        eta = 0.0
    res = 0.5 * _erfc(eta * math.sqrt(a / 2))
    etapow = [1.0]
    for _ in range(1, len(_TEMME_D[0])):
        etapow.append(eta * etapow[-1])
    total = 0.0
    afac = 1.0
    absoldterm = math.inf
    for row in _TEMME_D:
        ck = row[0]
        for n in range(1, len(row)):
            ckterm = row[n] * etapow[n]
            ck += ckterm
            if abs(ckterm) < _MACHEP * abs(ck):
                break
        term = ck * afac
        absterm = abs(term)
        if absterm > absoldterm:
            break
        total += term
        if absterm < _MACHEP * abs(total):
            break
        absoldterm = absterm
        afac /= a
    return res + math.exp(-0.5 * a * eta * eta) * total / math.sqrt(2 * math.pi * a)


def _igamc(a: float, x: float) -> float:
    """The upper regularised gamma function ``Q(a, x)``, by the method scipy picks."""
    if math.isnan(a) or math.isnan(x) or x < 0 or a < 0:
        return math.nan
    if a == 0:
        return 0.0 if x > 0 else math.nan
    if x == 0:
        return 1.0
    if math.isinf(a):
        return math.nan if math.isinf(x) else 1.0
    if math.isinf(x):
        return 0.0
    ratio = abs(x - a) / a
    if (20 < a < 200 and ratio < 0.3) or (a > 200 and ratio < 4.5 / math.sqrt(a)):
        return _igamc_asymptotic(a, x)
    if x > 1.1:
        if x < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_continued_fraction(a, x)
    if (x <= 0.5 and -0.4 / math.log(x) < a) or (x > 0.5 and x * 1.1 < a):
        return 1.0 - _igam_series(a, x)
    return _igamc_series(a, x)


def chdtrc(df: float, x: float) -> float:
    """The chi-square tail ``P(chi2(df) > x)``: ``scipy.special.chdtrc``, bit for bit."""
    return _igamc(df / 2.0, x / 2.0)
