import hashlib
import json
import math
import re
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as spstats

from brokenlines import checks, duality
from brokenlines.duality import (
    DistSpec,
    Verdict,
    burke_exit_test,
    classify_triple,
    consistency_test,
    evolve_chain,
    kernel_duality_residual,
    parse_dist,
    parse_triple,
    reversal_invariance_test,
    reverse_through_site,
    transition_kernel,
)
from brokenlines.flow import (
    BirthField,
    BoundaryFlow,
    check_conservation,
    field_from_birth,
    site_outflows,
    sweep,
    total_crossing_flow,
)
from brokenlines.lattice import Edge, RectDomain
from helpers import (
    kernel_residual_loop,
    max_edge_gap,
    plan_sweep,
    time_reverse,
    uniform,
    uniforms,
    uniforms_at,
    zero_field,
)

nonneg = st.floats(min_value=0, max_value=1e6, allow_nan=False)


# ------------------------------------------------------------ sampling


def test_parse_tokens():
    assert parse_dist("exp:2") == DistSpec.exponential(2)
    assert parse_dist("geom:0.5") == DistSpec.geometric(0.5)
    assert parse_dist("point:3") == DistSpec.pointmass(3)
    assert parse_dist("unif:0:1") == DistSpec.uniform(0, 1)
    with pytest.raises(ValueError):
        parse_dist("zeta:1")
    triple = parse_triple("exp:1,exp:2,exp:3")
    assert triple.pi3.rate == 3
    for spec in (triple.pi1, DistSpec.geometric(0.3), DistSpec.uniform(0, 2)):
        assert parse_dist(spec.token()) == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        DistSpec.exponential(0)
    with pytest.raises(ValueError):
        DistSpec.geometric(1.0)
    with pytest.raises(ValueError):
        DistSpec.pointmass(-1)
    with pytest.raises(ValueError):
        DistSpec.uniform(2, 1)


@pytest.mark.parametrize(
    "token",
    ["point:nan", "point:inf", "exp:inf", "exp:nan", "unif:0:inf", "unif:nan:1", "geom:nan"],
)
def test_non_finite_parameters_are_rejected(token):
    with pytest.raises(ValueError):
        parse_dist(token)


def test_point_mass_sampling():
    values = [DistSpec.pointmass(3).from_uniform(uniform(1, k)) for k in range(5)]
    assert all(v == 3.0 for v in values)


def test_geometric_sample_mean():
    values = DistSpec.geometric(0.5).from_uniform(uniforms(123, 100_000))
    assert values.dtype.kind == "i"
    assert abs(values.mean() - 1.0) < 0.02


def test_exponential_sample_mean():
    values = DistSpec.exponential(2.0).from_uniform(uniforms(456, 100_000))
    assert abs(values.mean() - 0.5) < 0.01


def _inverse_cdf_on_u(spec: DistSpec, u: np.ndarray) -> np.ndarray:
    """The inverse CDFs as written on ``u`` itself, before they ran on ``-u``."""
    if spec.kind == "exponential":
        return -np.log1p(-u) / spec.rate
    if spec.kind == "geometric":
        return np.floor(np.log1p(-u) / math.log(spec.lam))
    if spec.kind == "pointmass":
        return np.full_like(u, spec.value)
    return spec.low + (spec.high - spec.low) * u


def _check_in_place_inverse_cdf(spec: DistSpec, u) -> None:
    """from_negated_uniform runs in place on -u, as the replica sweeps hand it
    their draws; from_uniform(u) must agree with it, and both with the
    formulas on u, bit for bit: signs of zeros included (u = 0 gives -0.0)."""
    v = np.array(u, dtype=float)
    np.negative(v, out=v)
    core = spec.from_negated_uniform(v)
    assert core is v and core.dtype == np.float64
    on_u = _inverse_cdf_on_u(spec, np.array(u, dtype=float))
    assert np.array_equal(core.view(np.int64), on_u.view(np.int64))
    got = spec.from_uniform(u)
    assert np.ndim(got) == np.ndim(u) and isinstance(got, np.ndarray) == isinstance(u, list)
    if spec.kind == "geometric":
        assert got.dtype == np.int64
        assert np.array_equal(got, core.astype(np.int64))
    else:
        assert got.dtype == np.float64
        assert np.array_equal(np.asarray(got).view(np.int64), core.view(np.int64))


# the ends of the grid of 2**53 uniforms and its middle
GRID_EDGES = [0.0, 2.0**-53, 0.5, 1 - 2.0**-53]


@pytest.mark.parametrize("u", [*GRID_EDGES, GRID_EDGES], ids=str)
@pytest.mark.parametrize(
    "spec",
    [DistSpec.exponential(2.5), DistSpec.geometric(0.9), DistSpec.pointmass(1.5), DistSpec.uniform(0, 1)],
    ids=lambda d: d.token(),
)
def test_the_in_place_inverse_cdf_at_the_grid_edges(spec, u):
    _check_in_place_inverse_cdf(spec, u)


grid_uniforms = st.sampled_from(GRID_EDGES) | st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53)
positive = st.floats(min_value=1e-6, max_value=1e6)
any_law = st.one_of(
    positive.map(DistSpec.exponential),
    st.floats(min_value=1e-6, max_value=1 - 2.0**-53).map(DistSpec.geometric),
    st.floats(min_value=0, max_value=1e6).map(DistSpec.pointmass),
    st.tuples(st.floats(min_value=0, max_value=1e6), positive).map(lambda a: DistSpec.uniform(a[0], a[0] + a[1])),
)


@given(any_law, st.lists(grid_uniforms, min_size=1, max_size=6) | grid_uniforms)
def test_the_in_place_inverse_cdf_on_minus_u_is_from_uniform_bit_for_bit(spec, u):
    _check_in_place_inverse_cdf(spec, u)


# ------------------------------------------------------------ kernel


def test_kernel_examples():
    assert transition_kernel(1, 0, 1, 0, 0.5) == pytest.approx(0.75)
    assert transition_kernel(2, 1, 1, 0, 0.5) == pytest.approx(0.1875)
    assert transition_kernel(1, 1, 1, 0, 0.5) == 0.0
    assert transition_kernel(1, 1, 1, 0, 0.123) == 0.0


def test_kernel_validation():
    with pytest.raises(ValueError):
        transition_kernel(0, 0, 0, 0, 1.5)
    with pytest.raises(ValueError):
        transition_kernel(-1, 0, 1, 0, 0.5)
    with pytest.raises(ValueError):
        transition_kernel(float("inf"), 0, 1, 0, 0.5)


@pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("diff", [-10, -3, 0, 1, 10])
def test_kernel_rows_sum_to_one(lam, diff):
    total = 0.0
    for out_up in range(max(diff, 0), 400):
        total += transition_kernel(out_up, out_up - diff, max(diff, 0), max(-diff, 0), lam)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_kernel_duality_residual_tiny():
    assert kernel_duality_residual(0.3, 5) <= 1e-12
    assert kernel_duality_residual(0.5, 8) <= 1e-12
    assert kernel_duality_residual(0.5, 0) == 0.0


# 0.1 on purpose: np.power(0.1, k) and Python's 0.1 ** k differ in the last ulp
@pytest.mark.parametrize("lam", [0.01, 0.1, 0.3, 0.37, 0.5, 0.7, 0.9, 0.99])
def test_kernel_duality_residual_equals_the_quadruple_loop(lam):
    for kmax in range(9):
        assert kernel_duality_residual(lam, kmax) == kernel_residual_loop(lam, kmax)


def test_kernel_duality_residual_memory_is_cubic_in_kmax():
    # the CLI takes any --kmax: a (kmax + 1)^4 temporary would be 7.4 MB here
    kernel_duality_residual(0.5, 30)
    tracemalloc.start()
    try:
        kernel_duality_residual(0.5, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * 31**3


# ------------------------------------------------------------ operators


def test_reversal_examples():
    assert reverse_through_site(3, 1, 2) == (4, 2, 1)
    assert reverse_through_site(*reverse_through_site(3, 1, 2)) == (3, 1, 2)
    assert reverse_through_site(2, 2, 5) == (5, 5, 2)


def test_update_examples():
    assert site_outflows(3, 1, 2) == (4, 2)
    assert site_outflows(0, 0, 0) == (0, 0)


@given(nonneg, nonneg, nonneg)
def test_reversal_is_involution(r, s, t):
    twice = reverse_through_site(*reverse_through_site(r, s, t))
    assert twice == pytest.approx((r, s, t), rel=1e-12, abs=1e-9)


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
)
def test_reversal_is_exact_involution_on_integers(r, s, t):
    assert reverse_through_site(*reverse_through_site(r, s, t)) == (r, s, t)


@given(nonneg, nonneg, nonneg)
def test_update_conserves_difference(r, s, t):
    out_up, out_down = site_outflows(r, s, t)
    scale = max(1.0, r, s, t)
    assert abs((out_up - out_down) - (r - s)) <= 1e-9 * scale


def test_operators_reject_negative_inputs():
    with pytest.raises(ValueError):
        reverse_through_site(-1, 0, 0)
    with pytest.raises(ValueError):
        reverse_through_site(0, -2.0, 0)
    with pytest.raises(ValueError):
        reverse_through_site(float("inf"), 1.0, 0.0)
    with pytest.raises(ValueError):
        reverse_through_site(0.0, float("nan"), 0.0)


# ------------------------------------------------------------ classification


def test_classify_families():
    assert classify_triple(parse_triple("exp:1,exp:2,exp:3")) == Verdict(
        True, "exponential_family"
    )
    assert classify_triple(parse_triple("geom:0.4,geom:0.5,geom:0.2")) == Verdict(
        True, "geometric_family"
    )
    assert classify_triple(parse_triple("geom:0.4,geom:0.5,geom:0.3")) == Verdict(
        False, "not_self_dual"
    )
    assert classify_triple(parse_triple("exp:1,exp:2,exp:4")) == Verdict(
        False, "not_self_dual"
    )
    assert classify_triple(parse_triple("unif:0:1,unif:0:1,unif:0:1")) == Verdict(
        False, "not_self_dual"
    )
    assert classify_triple(parse_triple("exp:1,geom:0.5,exp:3")).self_dual is False


# the parameters 0.05, 0.10, ..., 0.95, as the decimals a user types
GRID = [Decimal(5 * k) / 100 for k in range(1, 20)]


def test_every_decimal_split_on_the_grid_is_self_dual():
    # 0.1 + 0.2 is not the float 0.3, nor 0.05 * 0.05 the float 0.0025
    for a in GRID:
        for b in GRID:
            exp = parse_triple(f"exp:{a},exp:{b},exp:{a + b}")
            geom = parse_triple(f"geom:{a},geom:{b},geom:{a * b}")
            assert classify_triple(exp) == Verdict(True, "exponential_family"), (a, b)
            assert classify_triple(geom) == Verdict(True, "geometric_family"), (a, b)


@pytest.mark.parametrize("miss", [1 - 1e-6, 1 + 1e-6])
def test_a_split_missed_by_a_millionth_is_not_self_dual(miss):
    for a in map(float, GRID):
        for b in map(float, GRID):
            exp = duality.Triple(DistSpec.exponential(a), DistSpec.exponential(b), DistSpec.exponential((a + b) * miss))
            geom = duality.Triple(DistSpec.geometric(a), DistSpec.geometric(b), DistSpec.geometric(a * b * miss))
            assert classify_triple(exp) == Verdict(False, "not_self_dual"), (a, b)
            assert classify_triple(geom) == Verdict(False, "not_self_dual"), (a, b)


def test_the_chain_triple_is_self_dual():
    # its birth parameter is the float lam * lam, not the decimal lam squared
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9, *map(float, GRID)):
        assert classify_triple(duality._chain(lam)) == Verdict(True, "geometric_family"), lam


def test_classify_degenerate_birth():
    assert classify_triple(parse_triple("unif:0:1,unif:0:1,point:0")).reason == "degenerate"
    # a degenerate inflow pinned at the birth value is genuinely invariant
    assert classify_triple(parse_triple("point:0,exp:1,point:0")) == Verdict(True, "degenerate")
    assert classify_triple(parse_triple("exp:1,point:0,point:0")) == Verdict(True, "degenerate")
    assert classify_triple(parse_triple("unif:1:2,point:1,point:1")) == Verdict(True, "degenerate")
    # here min(r, s) cannot match the birth law: not invariant
    assert classify_triple(parse_triple("unif:0:1,unif:0:1,point:0")).self_dual is False
    assert classify_triple(parse_triple("unif:0:2,point:1,point:1")).self_dual is False


def test_self_dual_verdicts_pass_invariance():
    for token in ("exp:1,exp:2,exp:3", "geom:0.4,geom:0.5,geom:0.2", "point:0,exp:1,point:0"):
        triple = parse_triple(token)
        assert classify_triple(triple).self_dual
        assert reversal_invariance_test(triple, 20_000, seed=5).passed


def test_non_dual_uniform_fails_invariance():
    report = reversal_invariance_test(parse_triple("unif:0:1,unif:0:1,unif:0:1"), 20_000, seed=5)
    assert not report.passed


def test_invariance_report_shape():
    report = reversal_invariance_test(parse_triple("exp:1,exp:1,exp:2"), 10_000, seed=2)
    d = report.to_dict()
    assert d["test"] == "reversal_invariance"
    assert d["seed"] == 2 and d["nsamples"] == 10_000
    assert len(d["checks"]) == 6
    assert {"test", "statistic", "threshold", "pass"} <= set(d["checks"][0])
    with pytest.raises(ValueError):
        reversal_invariance_test(parse_triple("exp:1,exp:1,exp:2"), 50)


# ------------------------------------------------------------ evolution


def test_evolve_chain_deterministic():
    d = RectDomain(3, 2)
    a = evolve_chain(d, 0.5, seed=9)
    b = evolve_chain(d, 0.5, seed=9)
    assert a == b
    assert a.mode == "int"
    assert not check_conservation(a)
    assert evolve_chain(d, 0.5, seed=10) != a


def test_evolve_chain_rejects_bad_lambda():
    with pytest.raises(ValueError):
        evolve_chain(RectDomain(2, 2), 1.2, seed=0)


def test_exit_edge_is_geometric():
    # stationarity: any fixed exit edge of the chain carries Geom(lam) mass
    lam, runs = 0.5, 10_000
    d = RectDomain(2, 2)
    exit_edge = Edge(2, 0, True)
    values = np.array([evolve_chain(d, lam, seed=s).mass[exit_edge] for s in range(runs)])
    top = int(values.max())
    counts = np.bincount(values, minlength=top + 1).astype(float)
    # pool the tail so expected counts stay healthy
    keep = 8
    obs = np.concatenate([counts[:keep], [counts[keep:].sum()]])
    pmf = (1 - lam) * lam ** np.arange(keep)
    expected = runs * np.concatenate([pmf, [lam**keep]])
    _, p = spstats.chisquare(obs, expected)
    assert p > 0.01


def test_replica_sweep_matches_field_construction():
    # the sweep run on per-replica arrays, as the exit-law and consistency
    # tests run it, equals the one-field forward construction replica by replica
    from brokenlines.duality import ROLE_BIRTH, ROLE_DOWN_IN, ROLE_UP_IN

    d = RectDomain(3, 4)

    def draw(spec, sites, role):
        return {y: spec.from_uniform(uniforms_at(9, *y, role, np.arange(6))) for y in sites}

    for triple in ("exp:1,exp:2,exp:3", "geom:0.5,geom:0.4,geom:0.2"):
        specs = parse_triple(triple)
        up = draw(specs.pi1, d.southwest_side, ROLE_UP_IN)
        down = draw(specs.pi2, d.northwest_side, ROLE_DOWN_IN)
        born = draw(specs.pi3, d.sites, ROLE_BIRTH)
        mass = sweep(d, *(np.stack(list(v.values())) for v in (up, down, born)))
        for r in range(6):
            field = field_from_birth(
                d,
                BoundaryFlow({y: v[r].item() for y, v in up.items()},
                             {y: v[r].item() for y, v in down.items()}),
                BirthField(d, {y: v[r].item() for y, v in born.items()}),
            )
            assert dict(zip(d.edges, mass[:, r].tolist())) == field.mass


# ------------------------------------------------------------ burke


def test_burke_passes_for_self_dual_triples():
    d = RectDomain(3, 3)
    assert burke_exit_test(d, parse_triple("exp:1,exp:1,exp:2"), 2_000, seed=3).passed
    report = burke_exit_test(d, parse_triple("geom:0.5,geom:0.5,geom:0.25"), 2_000, seed=3)
    assert report.passed


def test_burke_refuses_non_dual_triple():
    with pytest.raises(ValueError):
        burke_exit_test(RectDomain(3, 3), parse_triple("exp:1,exp:1,exp:5"), 2_000, seed=3)
    with pytest.raises(ValueError):
        burke_exit_test(RectDomain(3, 3), parse_triple("exp:1,exp:1,exp:2"), 50, seed=3)


def full_mass_front(domain, up_in, down_in, births):
    """The exits read off :func:`helpers.plan_sweep`'s full mass array, every birth held at once."""
    mass = plan_sweep(domain, up_in, down_in, np.concatenate(list(births)))
    return mass[domain.side_edges[2]], mass[domain.side_edges[3]]


# point:0,geom:0.5,point:0 is self-dual and mixes float64 and int64 draws
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 5), (4, 4), (6, 3)], ids=str)
@pytest.mark.parametrize("triple", ["exp:1,exp:1,exp:2", "geom:0.5,geom:0.5,geom:0.25",
                                    "point:0,geom:0.5,point:0"])
def test_burke_report_equals_the_report_on_the_full_mass_array(shape, triple, monkeypatch):
    report = burke_exit_test(RectDomain(*shape), parse_triple(triple), 1_000, seed=2)
    monkeypatch.setattr(duality, "front", full_mass_front)
    expected = burke_exit_test(RectDomain(*shape), parse_triple(triple), 1_000, seed=2)
    assert repr(report.checks) == repr(expected.checks)


@pytest.mark.parametrize("outer, inner", [((1, 7), (1, 4)), ((7, 1), (5, 1)), ((3, 4), (2, 4)),
                                          ((4, 3), (4, 3))], ids=str)
@pytest.mark.parametrize("inner_lam", [None, 0.6])
def test_consistency_report_equals_the_report_on_the_full_mass_array(outer, inner, inner_lam, monkeypatch):
    def run():
        return consistency_test(*outer, 0.5, 1_000, seed=6, n_inner=inner[0], m_inner=inner[1],
                                inner_lam=inner_lam)

    report = run()
    monkeypatch.setattr(duality, "sweep", plan_sweep)
    assert repr(report.checks) == repr(run().checks)


def test_burke_holds_the_front_not_the_field():
    # a sweep into the full (edges, samples) masses, every birth drawn first,
    # peaked at 39.8 MiB here; the front and one column of births take under 1 MiB
    domain, triple = RectDomain(40, 40), parse_triple("exp:1,exp:1,exp:2")
    domain.columns, domain.northeast_side, domain.southeast_side  # the geometry is not counted
    tracemalloc.start()
    try:
        burke_exit_test(domain, triple, 1_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_reversal_holds_its_samples_in_one_block():
    # the six 10^5-sample rows take 4.6 MiB; six separate arrays and the site
    # update's temporaries peaked at 7.75 MiB, the block may not add to that
    triple = parse_triple("exp:1,exp:2,exp:3")
    tracemalloc.start()
    try:
        reversal_invariance_test(triple, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ------------------------------------------------------------ reversal of fields


def test_time_reverse_involution_and_flow():
    from helpers import random_field

    f = random_field(RectDomain(4, 3), seed=31)
    rev = time_reverse(f)
    assert rev.domain == RectDomain(3, 4)
    assert not check_conservation(rev)
    assert total_crossing_flow(rev) == pytest.approx(total_crossing_flow(f))
    assert max_edge_gap(time_reverse(rev), f) == 0


def test_time_reverse_single_birth():
    d = RectDomain(3, 3)
    f = field_from_birth(d, births=BirthField(d, {(2, 0): 1.0}))
    rev = time_reverse(f)
    # the wedge's outgoing edges become incoming edges of the mirrored site
    assert rev.mass[Edge(1, -1, True)] == 1.0
    assert total_crossing_flow(rev) == 1.0
    assert max_edge_gap(time_reverse(rev), f) == 0


def test_time_reverse_turns_birth_into_annihilation():
    from brokenlines.flow import extract
    from brokenlines.lines import decompose

    d = RectDomain(3, 3)
    f = field_from_birth(d, births=BirthField(d, {(2, 0): 1.0}))
    rev = time_reverse(f)
    dec = decompose(rev)
    assert len(dec) == 1
    trace, w = dec.entries[0]
    # the birth wedge reflects into a peak: two inflows that annihilate
    assert trace.sites == ((0, -2), (1, -1), (2, 0), (1, 1), (0, 2))
    assert w == 1.0
    assert trace.left_corners == ()
    boundary, births, _ = extract(rev)
    assert births.births == {}
    assert {y: v for y, v in boundary.up_in.items() if v} == {(1, -1): 1.0}
    assert {y: v for y, v in boundary.down_in.items() if v} == {(1, 1): 1.0}


def test_time_reverse_zero():
    z = zero_field(RectDomain(2, 3))
    assert all(v == 0 for v in time_reverse(z).mass.values())


# ------------------------------------------------------------ consistency


def test_consistency_accepts_matching_laws():
    assert consistency_test(3, 3, 0.5, 4_000, seed=4, n_inner=2).passed
    assert consistency_test(2, 2, 0.5, 4_000, seed=4).passed  # sub-domain equals domain
    assert consistency_test(3, 3, 0.5, 4_000, seed=4, m_inner=2).passed


def test_consistency_rejects_mismatched_lambda():
    report = consistency_test(3, 3, 0.5, 4_000, seed=4, n_inner=2, inner_lam=0.6)
    assert not report.passed


def test_consistency_validation():
    with pytest.raises(ValueError):
        consistency_test(2, 2, 0.5, 1_000, n_inner=3)


# ------------------------------------------------------------ pinned reports

# sha256 of json.dumps(report.to_dict()): every draw, statistic and threshold
# of the Monte Carlo reports, pinned so a refactor must reproduce them exactly
REPORT_DIGESTS = {
    ("burke", 3, "exp:1,exp:1,exp:2"):
        "6726ea48ca8473bcd828317263cd72856b460b4907cf903cc6abbd2535cab141",
    ("burke", 3, "geom:0.5,geom:0.5,geom:0.25"):
        "3c25b70e5a07f3e244a26799bfe5550c6a9ab87867b78f8da468de136599f809",
    ("burke", 6, "exp:1,exp:1,exp:2"):
        "c44c853ba44cdab43bb100ccda95a4e02454f7c2e0d81197319829438986103f",
    ("burke", 6, "geom:0.5,geom:0.5,geom:0.25"):
        "7fd339acb5559ae68de36637b7a70b8bb1b40087bdf704216b8706362e496b53",
    ("consistency", "n_inner", None):
        "01b40699d1c6e9df599e9b289827d5bc69f784c3524543eac466fdfb3801fed5",
    ("consistency", "n_inner", 0.6):
        "b1738e6f86d362b2dc32c0ff7eef8a197e5fa7abe6afb0bc5bfd9c882473c4d3",
    ("consistency", "m_inner", None):
        "74f02b37912db29311a0cc97747b2259729e0863e95a9dcacef842957d14bbcb",
    ("consistency", "m_inner", 0.6):
        "7fd17438b1740f5d767adc2ee7dcc5d6f723dbabf7dfa83dcb6ba044861e9702",
    ("reversal", "exp:1,exp:2,exp:3"):
        "de63962efc38bf276bc37bb39bfad24a4ea050d7ad07a6abe4ad378f908f3c5b",
    ("reversal", "geom:0.4,geom:0.5,geom:0.2"):
        "1c0911709656243a095eda86356dcc35d93f912726788126b220e1a07a440a1c",
    ("reversal", "unif:0:1,unif:0:1,unif:0:1"):
        "747812cdeb311617e30f15f52cd5d53f2231bb9e5acf22e72f93dba74336be62",
}


def _report(case):
    if case[0] == "burke":
        return burke_exit_test(RectDomain(case[1], case[1]), parse_triple(case[2]), 2_000, seed=3)
    if case[0] == "consistency":
        return consistency_test(3, 3, 0.5, 4_000, seed=4, inner_lam=case[2], **{case[1]: 2})
    return reversal_invariance_test(parse_triple(case[1]), 10_000, seed=5)


@pytest.mark.parametrize("case", sorted(REPORT_DIGESTS, key=repr), ids=repr)
def test_report_digest_is_pinned(case):
    text = json.dumps(_report(case).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[case]


def test_reports_and_the_chain_invert_their_draws_in_place(monkeypatch):
    # from_uniform pays for a negated copy of what it inverts; the reports'
    # draws already hold -u and are inverted where they lie
    cases = [("reversal", "geom:0.4,geom:0.5,geom:0.2"), ("burke", 3, "exp:1,exp:1,exp:2"),
             ("consistency", "n_inner", None)]
    chain = evolve_chain(RectDomain(4, 3), 0.5, 2)

    def refuse(*args):
        raise AssertionError("a report or the chain called from_uniform")

    monkeypatch.setattr(DistSpec, "from_uniform", refuse)
    for case in cases:
        text = json.dumps(_report(case).to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[case]
    assert evolve_chain(RectDomain(4, 3), 0.5, 2) == chain


@pytest.mark.parametrize("side", [2, 3, 6])
@pytest.mark.parametrize("triple", ["exp:1,exp:1,exp:2", "geom:0.5,geom:0.5,geom:0.25"])
def test_burke_check_names_are_unique(side, triple):
    # the east corner is an ascending and a descending exit at once
    report = burke_exit_test(RectDomain(side, side), parse_triple(triple), 1_000, seed=1)
    names = [c.name for c in report.checks]
    assert len(set(names)) == len(names)
    corner = f"({2 * side - 2}, 0)"
    assert f"corr_up_{corner}_down_{corner}" in names


def test_a_constant_exit_is_uncorrelated_at_the_z_critical_value():
    report = burke_exit_test(RectDomain(2, 2), parse_triple("point:1,point:2,point:1"), 1000, seed=1)
    alpha = report.significance / len(report.checks)
    corr = [c for c in report.checks if c.name.startswith("corr_")]
    assert len(corr) == 6
    assert all((c.statistic, c.threshold, c.passed) == (0.0, checks._z_threshold(alpha), True) for c in corr)


def test_bonferroni_divisor_lives_in_checks_only():
    # the per-check level has one rule: a divisor written in a report
    # would count its checks by hand
    package = Path(checks.__file__).parent
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "checks.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"significance\s*/", line)
    ]
    assert found == []
