import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import chi2_contingency, norm

from brokenlines import checks
from brokenlines.checks import (
    centred,
    chdtrc,
    chi2_homogeneity_check,
    correlation_check,
    ks_statistic,
    mean_z_check,
    ndtri,
)
from brokenlines.duality import parse_triple, reversal_invariance_test
from helpers import cells_kept_loop, ks_distance

_rng = np.random.default_rng(2024)

KS_CASES = {
    "values 0-2": (_rng.integers(0, 3, 400), _rng.integers(0, 3, 300)),
    "geometric": (_rng.geometric(0.3, 500), _rng.geometric(0.35, 450)),
    "geometric as floats": (_rng.geometric(0.5, 200) * 1.0, _rng.geometric(0.5, 200) * 1.0),
    "continuous": (_rng.exponential(size=500), _rng.exponential(1.1, size=400)),
    "continuous, unequal sizes": (_rng.normal(size=37), _rng.normal(size=1000)),
    "one element against ties": (np.array([1]), _rng.integers(0, 3, 50)),
    "one element against continuous": (np.array([0.25]), _rng.uniform(size=99)),
    "one element each, equal": (np.array([2.0]), np.array([2.0])),
    "one element each, apart": (np.array([2.0]), np.array([3.0])),
    "shared continuous values": (np.repeat(_rng.uniform(size=20), 3), _rng.uniform(size=20)),
    "rounded normals": (np.round(_rng.normal(size=300), 1), np.round(_rng.normal(size=200), 1)),
}

# Thousands of values, so that ``_cdf_rise`` has many stretches of positions.
_same = _rng.exponential(size=3000)
# 30 values of a below all of b, then a and b evenly interleaved: the
# distance, 30/3000, is taken in the first stretch of a; negated, in the
# last stretch of -b
_early = np.concatenate([_rng.uniform(0, 1, 30), np.linspace(2, 3, 2970)])
_late = np.concatenate([_rng.uniform(1, 2, 10), np.linspace(2, 3, 2990)])
_specials = np.array([-np.inf, -0.0, 0.0, np.inf])
KS_CASES |= {
    "identical samples": (_same, _same.copy()),
    "maximum in the first stretch": (_early, _late),
    "maximum in the last stretch": (-_early, -_late),
    "tied runs across stretches": (
        np.repeat(np.arange(150.0), _rng.integers(1, 60, 150)),
        np.repeat(np.arange(0.0, 150.0, 0.5), _rng.integers(1, 20, 300)),
    ),
    "signed zeros and infinities": (
        np.concatenate([_rng.choice(_specials, 500), _rng.normal(size=2500)]),
        np.concatenate([_rng.choice(_specials, 800), _rng.normal(size=1700)]),
    ),
    "one value against ten thousand": (np.array([0.5]), _rng.uniform(size=10_000)),
}


@pytest.mark.parametrize("case", KS_CASES)
def test_ks_statistic_equals_the_brute_force_distance(case):
    a, b = KS_CASES[case]
    d = ks_statistic(a, b)
    assert type(d) is float
    assert d == ks_distance(a, b)
    assert ks_statistic(b, a) == d


@st.composite
def _sample_pairs(draw):
    """Two samples of 1..3 000 values on a grid of 2 to 10^6 levels, some set to ±0.0 or ±inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 10, 100, 10**6]))
    shift = draw(st.sampled_from([0, 1, levels // 10]))

    def sample(offset):
        values = rng.integers(0, levels, draw(st.integers(1, 3000))) + offset - levels / 2
        values[rng.random(values.size) < draw(st.sampled_from([0.0, 0.01, 0.5]))] = 0.0
        if draw(st.booleans()):
            values[rng.integers(0, values.size, 3)] = rng.choice([-np.inf, -0.0, np.inf], 3)
        return values / levels

    return sample(0), sample(shift)


@given(_sample_pairs())
@settings(max_examples=60, deadline=None)
def test_ks_statistic_equals_the_brute_force_distance_on_random_pairs(pair):
    a, b = pair
    d = ks_statistic(a, b)
    assert d == ks_distance(a, b)
    assert ks_statistic(b, a) == d


def test_ks_statistic_looks_up_few_positions_in_one_law(monkeypatch):
    # two continuous 10^5 samples of one law: the bound closes most stretches,
    # and no array of run ends is built
    rng = np.random.default_rng(19)
    a, b = rng.exponential(size=100_000), rng.exponential(size=100_000)
    pooled = np.concatenate([a, b])
    full = np.max(np.abs(
        np.searchsorted(np.sort(a), pooled, side="right") / a.size
        - np.searchsorted(np.sort(b), pooled, side="right") / b.size
    ))
    keys = []
    searchsorted = np.searchsorted

    def counted(sorted_values, values, side):
        keys.append(np.size(values))
        return searchsorted(sorted_values, values, side=side)

    monkeypatch.setattr(np, "searchsorted", counted)
    for name in ("append", "flatnonzero"):
        monkeypatch.setattr(np, name, lambda *args, name=name, **kwargs: pytest.fail(name))
    assert ks_statistic(a, b) == full
    assert sum(keys) < pooled.size / 4


def test_ks_statistic_reads_an_int_sample_as_its_float_copy_and_leaves_both_as_they_are():
    # the burke geometric exits are int64: cast once, then sorted in place
    rng = np.random.default_rng(23)
    a, b = rng.geometric(0.4, 5_000) - 1, rng.exponential(2.0, 4_000).round(0)
    a_before, b_before = a.copy(), b.copy()
    d = ks_statistic(a, b)
    assert d == ks_statistic(a.astype(float), b) == ks_distance(a.astype(float), b)
    assert a.dtype == np.int64 and np.array_equal(a, a_before) and np.array_equal(b, b_before)


@pytest.mark.parametrize("a, b", [
    ([], [1.0]),
    ([1.0], []),
    ([np.nan, 1.0], [1.0, 2.0]),
    ([1.0, 2.0], [2.0, np.nan]),
], ids=["empty a", "empty b", "nan in a", "nan in b"])
def test_ks_statistic_refuses_an_empty_or_nan_sample(a, b):
    with pytest.raises(ValueError, match="KS distance"):
        ks_statistic(np.array(a), np.array(b))


@pytest.mark.parametrize("a, b", [
    ([], [1.0, 2.0, 3.0]),
    ([1.0, 2.0], []),
    ([1.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [2.0]),
], ids=["empty a", "empty b", "one value in a", "one value in b"])
def test_mean_z_check_refuses_a_sample_of_fewer_than_two_values(a, b):
    # with no variance to read, the empty sample passed at 0 and a single
    # value failed at inf
    with pytest.raises(ValueError, match="mean z-test"):
        mean_z_check("m", np.array(a), np.array(b), 0.01)


@pytest.mark.parametrize("a, b", [
    ([], []),
    ([], [1.0, 2.0]),
    ([1.0, 2.0], []),
], ids=["both empty", "empty a", "empty b"])
def test_correlation_check_refuses_an_empty_stream(a, b):
    with pytest.raises(ValueError, match="correlation check"):
        correlation_check("c", np.array(a), np.array(b), 0.01)


@pytest.mark.parametrize("a, b, match", [
    ([], [], "nonempty"),
    ([1, 2], [], "nonempty"),
    ([1.5, 2.0], [1.0, 2.0], "integers"),
    ([1.0, np.nan], [1.0, 2.0], "integers"),
    ([1.0, 2.0], [np.inf, 2.0], "integers"),
    ([0, -1], [0, 1], "nonnegative"),
    ([-2, -1], [-1, -3], "nonnegative"),
], ids=["both empty", "empty b", "a fraction", "nan", "inf", "a negative", "all negative"])
def test_chi2_homogeneity_check_refuses_what_it_cannot_count(a, b, match):
    with pytest.raises(ValueError, match=f"chi-square check .*{match}"):
        chi2_homogeneity_check("c", np.array(a), np.array(b), 0.01)


def test_a_report_refuses_to_split_its_level_over_no_check():
    with pytest.raises(ValueError, match="Bonferroni"):
        checks.TestReport.bonferroni("t", {}, 0, 10, 0.01, [])


@pytest.mark.parametrize("significance", [0, -1, 1, 1.5, math.nan])
def test_a_report_refuses_a_significance_outside_the_open_unit_interval(significance):
    # 0 and -1 once failed in ks_threshold with a math domain error, and 1.5 and NaN
    # made thresholds under which a self-dual triple read as failed
    refusal = re.escape(f"significance must lie strictly between 0 and 1, not {significance!r}")
    pending = [(mean_z_check, "m", lambda: (np.arange(4.0), np.arange(4.0)))]
    with pytest.raises(ValueError, match=refusal):
        checks.TestReport.bonferroni("t", {}, 0, 4, significance, pending)
    with pytest.raises(ValueError, match=refusal):
        reversal_invariance_test(parse_triple("exp:1,exp:2,exp:3"), 10_000,
                                 significance=significance)


def test_mean_z_check_fails_two_constant_samples_with_different_means():
    check = mean_z_check("m", np.ones(10), 2 * np.ones(10), 0.01)
    assert check.statistic == math.inf
    assert not check.passed


def test_a_constant_stream_is_uncorrelated_at_the_z_critical_value():
    # its margin reads 0 over the level's critical value, as every other pair's does
    for a, b in [(np.ones(10), np.arange(10.0)), (np.arange(10.0), np.full(10, 3)), (np.ones(10), np.ones(10))]:
        check = correlation_check("c", a, b, 0.01)
        assert (check.statistic, check.threshold, check.passed) == (0.0, checks._z_threshold(0.01), True)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30), st.integers(0, 2**32 - 1))
def test_a_centred_stream_gives_the_check_of_the_raw_stream(a, seed):
    # burke_exit_test centres each exit once for all of its pairs
    a = np.array(a)
    b = np.random.default_rng(seed).geometric(0.5, size=a.size)
    raw = correlation_check("c", a, b, 0.01)
    assert correlation_check("c", centred(a), centred(b), 0.01) == raw
    assert correlation_check("c", centred(a), b, 0.01) == raw
    once = centred(b)
    assert centred(once) is once


def test_mean_z_check_passes_two_constant_samples_with_one_mean():
    check = mean_z_check("m", np.ones(10), np.ones(12), 0.01)
    assert check.statistic == 0.0
    assert check.passed


def test_z_threshold_is_computed_once_per_level():
    checks._z_threshold.cache_clear()
    for _ in range(3):
        for alpha in (0.01, 0.002):
            mean_z_check("m", np.arange(10.0), np.arange(10.0) + 0.5, alpha)
    info = checks._z_threshold.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_z_threshold_is_the_normal_isf_bit_for_bit():
    # random levels, the levels the reports use (0.01 or 1e-6 over 1..40
    # checks), and a log grid down through the subnormals
    used = [s / k for s in (0.01, 1e-6) for k in range(1, 41)]
    log_grid = np.geomspace(5e-324, 0.1, 3000)
    levels = np.concatenate([np.random.default_rng(16).uniform(0.0, 0.1, 2000), used, log_grid])
    thresholds = np.array([checks._z_threshold(alpha) for alpha in levels.tolist()])
    assert np.array_equal(thresholds, norm.isf(levels / 2))


def bits(values) -> np.ndarray:
    """Doubles as their bit patterns, so that NaNs and signed zeros compare too."""
    return np.asarray(values, dtype=float).view(np.int64)


def test_ndtri_is_scipys_at_the_ends_and_outside_them():
    y = np.array([0.0, -0.0, 1.0, 5e-324, 0.5, 1 - 2**-53, -0.5, 1.5, -np.inf, np.inf, np.nan])
    assert np.array_equal(bits([ndtri(v) for v in y.tolist()]), bits(special.ndtri(y)))


def test_erfc_is_scipys_where_temme_asks_for_it():
    a = np.concatenate([np.linspace(-8, 8, 16001)[1:-1], [-1.0, -0.0, 0.0, 1.0]])
    assert np.array_equal(bits([checks._erfc(v) for v in a.tolist()]), bits(special.erfc(a)))


# Degrees of freedom: 0 to 60, and the edges of Temme's regime, which
# holds for 20 < a < 200 and for a > 200, a being half the dof
DOFS = [*range(61), 100, 399, 400, 401, 1000, 100_000]


def _chdtrc_grid(dof: int) -> np.ndarray:
    """Chi-square values that reach each way scipy computes ``Q(dof / 2, x / 2)``."""
    a = dof / 2
    width = 0.3 if a < 200 else 4.5 / math.sqrt(a)  # Temme's |x - a| / a
    edges = a * (1 + np.multiply.outer([-width, width], [1 - 1e-12, 1, 1 + 1e-12]).ravel())
    x = np.concatenate(
        [
            np.geomspace(1e-300, 0.5, 60),  # x <= 0.5
            np.linspace(0.5, 1.1, 61)[1:],  # 0.5 < x <= 1.1
            np.geomspace(1.1, 10 * a + 50, 200),  # x > 1.1, below and above a
            a * (1 + width * np.linspace(-1, 1, 101)),  # Temme's interior
            edges,
            [0.0, np.inf, np.nan, -1.0],
        ]
    )
    return 2 * x


@pytest.mark.parametrize("dof", DOFS)
def test_chdtrc_is_scipys_bit_for_bit(dof):
    x = _chdtrc_grid(dof)
    assert np.array_equal(bits([chdtrc(dof, v) for v in x.tolist()]), bits(special.chdtrc(dof, x)))


def test_the_chdtrc_grids_reach_each_method_scipy_picks(monkeypatch):
    methods = ("_igamc_asymptotic", "_igam_series", "_igamc_continued_fraction", "_igamc_series")
    called = set()
    for name in methods:
        method = getattr(checks, name)
        monkeypatch.setattr(checks, name, lambda *args, m=method, n=name: called.add(n) or m(*args))
    for dof in DOFS:
        for v in _chdtrc_grid(dof).tolist():
            chdtrc(dof, v)
    assert called == set(methods)


def _tables():
    """1 000 seeded 2 x k tables, k = 2..11, with counts from 1 up to 2 999."""
    rng = np.random.default_rng(17)
    for k in range(2, 12):
        for top in rng.choice([5, 30, 300, 3_000], size=100):
            yield rng.integers(1, top, size=(2, k)).astype(float)


def test_chi2_homogeneity_check_is_chi2_contingency_bit_for_bit():
    yates = set()
    for table in [*_tables(), np.array([[3.0, 5.0], [6.0, 10.0]])]:
        values = np.arange(table.shape[1])
        a, b = (np.repeat(values, row.astype(int)) for row in table)
        # with nothing pooled the check's table is this one
        check = chi2_homogeneity_check("c", a, b, 0.01, min_expected=0.0)
        assert check.statistic == 1 - chi2_contingency(table).pvalue
        if table.shape[1] == 2:
            gap = abs(np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum() - table)
            yates.add(bool(gap[0, 0] < 0.5))
    assert yates == {True, False}  # both branches of Yates' correction ran


def _moment_samples():
    """Random arrays of 2 to 10^5 values, constant ones included."""
    rng = np.random.default_rng(34)
    for size in (2, 3, 7, 100, 1_001, 10_000, 100_000):
        yield rng.exponential(size=size)
        yield rng.normal(1e6, 1e-3, size=size)
        yield rng.geometric(0.3, size=size) * 1.0
        yield np.full(size, rng.uniform(-5, 5))


def test_one_mean_spreads_are_numpys_bit_for_bit():
    # mean_z_check and centred sum each mean once and take the variance or
    # the standard deviation from it; numpy sums the mean again
    for a in _moment_samples():
        assert np.array_equal(bits(checks._variance(a, a.mean(), 1)), bits(np.var(a, ddof=1)))
        assert np.array_equal(bits(centred(a).std), bits(np.std(a)))
        b = a[::-1] + 1.0
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        gap = abs(float(a.mean() - b.mean()))
        z = gap / se if se > 0 else (math.inf if gap > 0 else 0.0)
        assert mean_z_check("m", a, b, 0.01).statistic == z


@pytest.mark.parametrize("min_expected", [1.0, 5.0, 50.0, 1e6])
def test_the_pooled_tail_is_the_merging_loop(monkeypatch, min_expected):
    # the reversed cumsum keeps the cells the one-cell-at-a-time loop keeps;
    # checks compare by repr, since a NaN statistic is not equal to itself
    rng = np.random.default_rng(int(min_expected))
    samples = [
        (rng.geometric(p, rng.integers(1, 3000)) - 1, rng.geometric(q, rng.integers(1, 3000)) - 1)
        for p, q in rng.uniform(0.05, 0.95, size=(100, 2))
    ]
    kept = [repr(chi2_homogeneity_check("c", a, b, 0.01, min_expected)) for a, b in samples]
    monkeypatch.setattr(checks, "_cells_kept", cells_kept_loop)
    assert kept == [repr(chi2_homogeneity_check("c", a, b, 0.01, min_expected)) for a, b in samples]
