"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Tolerances and sample sizes are fixed here, not configurable:
they are the contract.
"""

import time

from brokenlines.duality import (
    burke_exit_test,
    consistency_test,
    kernel_duality_residual,
    parse_triple,
    reversal_invariance_test,
)
from brokenlines.experiments import (
    DistSpec,
    LlnConfig,
    concentration_scan,
    lln_experiment,
    lln_target,
)
from brokenlines.flow import extract, field_from_birth, total_crossing_flow
from brokenlines.lattice import RectDomain
from brokenlines.lines import compose, decompose, line_fields
from brokenlines.lpp import (
    births_from_matrix,
    lpp_bruteforce,
    lpp_dp,
    optimal_path_backward,
    path_sum,
)
from helpers import max_edge_gap, random_birth_field, random_domain, random_field, uniform

SEED = 2026


def report(number, label, detail, elapsed, limit):
    print(f"[{number:>2}] {label}: {detail} ({elapsed:.2f}s < {limit:.0f}s)  PASS")


def test_criterion_01_kernel_duality():
    t0 = time.perf_counter()
    worst = max(kernel_duality_residual(lam, 8) for lam in (0.1, 0.3, 0.5, 0.7, 0.9))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, "kernel duality", f"max residual {worst:.2e} over five parameters", elapsed, 1)


def test_criterion_02_reversal_invariance():
    t0 = time.perf_counter()
    exp_report = reversal_invariance_test(parse_triple("exp:1,exp:2,exp:3"), 100_000, seed=1)
    geom_report = reversal_invariance_test(
        parse_triple("geom:0.4,geom:0.5,geom:0.2"), 100_000, seed=1
    )
    control = reversal_invariance_test(
        parse_triple("unif:0:1,unif:0:1,unif:0:1"), 100_000, seed=1
    )
    elapsed = time.perf_counter() - t0
    assert exp_report.passed
    assert geom_report.passed
    assert not control.passed
    assert elapsed < 10.0
    report(
        2,
        "reversal invariance",
        "exponential and geometric triples pass, uniform control rejected",
        elapsed,
        10,
    )


def _roundtrip_instances():
    for k in range(1000):
        mode = "float" if k < 500 else "int"
        domain = random_domain(SEED * 1000 + k, max_side=8)
        yield k, domain, random_field(domain, seed=SEED * 1000 + k, mode=mode), mode


def test_criterion_03_decomposition_roundtrips():
    t0 = time.perf_counter()
    worst_gap = 0.0
    for k, domain, field, mode in _roundtrip_instances():
        dec = decompose(field)
        rebuilt = compose(domain, dec, mode=mode)
        gap = max_edge_gap(field, rebuilt)
        assert gap <= 1e-9
        worst_gap = max(worst_gap, gap)
        dec2 = decompose(rebuilt)
        assert dec2.traces() == dec.traces()
        tol = 0 if mode == "int" else 1e-9
        assert all(abs(a - b) <= tol for a, b in zip(dec.weights(), dec2.weights()))
        # additivity of the extracted data over the weighted lines
        boundary, births, _ = extract(field)
        sum_births, sum_up, sum_down = {}, {}, {}
        for trace, w in dec:
            line_births, line_boundary, _ = line_fields(domain, trace, w)
            for y, v in line_births.births.items():
                sum_births[y] = sum_births.get(y, 0) + v
            for y, v in line_boundary.up_in.items():
                sum_up[y] = sum_up.get(y, 0) + v
            for y, v in line_boundary.down_in.items():
                sum_down[y] = sum_down.get(y, 0) + v
        scale = 1e-9 * max(1.0, float(field.max_mass))
        assert all(
            abs(births.births.get(y, 0) - sum_births.get(y, 0)) <= scale
            for y in domain.sites
        )
        assert all(
            abs(boundary.up_in.get(y, 0) - sum_up.get(y, 0)) <= scale
            for y in domain.southwest_side
        )
        assert all(
            abs(boundary.down_in.get(y, 0) - sum_down.get(y, 0)) <= scale
            for y in domain.northwest_side
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        3,
        "decomposition roundtrips",
        f"1000 instances both ways, worst edge gap {worst_gap:.2e}",
        elapsed,
        30,
    )


def test_criterion_04_crossing_flow_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for k, domain, field, mode in _roundtrip_instances():
        total = total_crossing_flow(field)  # validates left sum == right sum
        gap = abs(total - decompose(field).total_weight())
        assert gap <= 1e-9 * max(1.0, float(total))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    report(
        4,
        "crossing-flow identity",
        f"boundary sums equal total line weight, worst gap {worst:.2e}",
        elapsed,
        30,
    )


def test_criterion_05_passage_value_equals_crossing_flow():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(500):
        xi = random_birth_field(RectDomain(8, 8), seed=50_000 + k)
        value = lpp_dp(xi, with_path=False).value
        field = field_from_birth(xi.domain, births=xi)
        residual = abs(value - total_crossing_flow(field))
        assert residual <= 1e-9 * max(1.0, value)
        worst = max(worst, residual)
    for k in range(100):
        xi = random_birth_field(RectDomain(16, 16), seed=60_000 + k)
        value = lpp_dp(xi, with_path=False).value
        field = field_from_birth(xi.domain, births=xi)
        residual = abs(value - total_crossing_flow(field))
        assert residual <= 1e-9 * max(1.0, value)
        worst = max(worst, residual)
    exact = 0
    for k in range(200):
        n = 1 + int(uniform(70_000 + k, 1) * 6)
        m = max(1, min(12 - n, 1 + int(uniform(70_000 + k, 2) * 6)))
        if k < 100:
            grid = [
                [int(uniform(70_000 + k, i, j) * 10) for j in range(m)] for i in range(n)
            ]
            xi = births_from_matrix(grid)
            assert lpp_dp(xi, with_path=False).value == lpp_bruteforce(xi)
            exact += 1
        else:
            xi = random_birth_field(RectDomain(n, m), seed=70_000 + k)
            assert abs(lpp_dp(xi, with_path=False).value - lpp_bruteforce(xi)) <= 1e-12
    elapsed = time.perf_counter() - t0
    report(
        5,
        "passage value = crossing flow",
        f"600 fields, worst residual {worst:.2e}; dp = brute force on 200 ({exact} exact)",
        elapsed,
        60,
    )


def test_criterion_06_backward_algorithm():
    t0 = time.perf_counter()
    for k in range(500):
        xi = random_birth_field(RectDomain(20, 20), seed=80_000 + k)
        field = field_from_birth(xi.domain, births=xi)
        value = lpp_dp(xi, with_path=False).value
        walked = path_sum(xi, optimal_path_backward(field))
        assert abs(walked - value) <= 1e-9 * max(1.0, value)
    hits = 0
    for k in range(200):
        domain = random_domain(90_000 + k, max_side=10)
        xi = random_birth_field(domain, seed=90_000 + k)
        field = field_from_birth(domain, births=xi)
        path_sites = set(optimal_path_backward(field).sites)
        for trace, w in decompose(field):
            assert w > 0
            assert path_sites & set(trace.left_corners)
            hits += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        "backward optimal path",
        f"500 walks attain the optimum; left corner met on {hits} lines",
        elapsed,
        60,
    )


def test_criterion_07_exit_laws():
    t0 = time.perf_counter()
    domain = RectDomain(3, 3)
    exp_report = burke_exit_test(domain, parse_triple("exp:1,exp:1,exp:2"), 10_000, seed=1)
    geom_report = burke_exit_test(
        domain, parse_triple("geom:0.5,geom:0.5,geom:0.25"), 10_000, seed=1
    )
    elapsed = time.perf_counter() - t0
    assert exp_report.passed
    assert geom_report.passed
    assert elapsed < 30.0
    report(7, "exit laws", "exponential and geometric exit tests pass on 3x3", elapsed, 30)


def test_criterion_08_consistency():
    t0 = time.perf_counter()
    matched = consistency_test(3, 3, 0.5, 10_000, seed=1, n_inner=2)
    control = consistency_test(3, 3, 0.5, 10_000, seed=1, n_inner=2, inner_lam=0.6)
    elapsed = time.perf_counter() - t0
    assert matched.passed
    assert not control.passed
    report(
        8,
        "restriction consistency",
        "3x3 restricted to 2x3 matches; mismatched parameter rejected",
        elapsed,
        30,
    )


def test_criterion_09_growth_constants():
    t0 = time.perf_counter()
    lines = []
    for dist in (DistSpec.exponential(1), DistSpec.geometric(0.5)):
        target = lln_target(dist, 1.0)
        gaps = []
        for n, replicas in ((250, 80), (500, 40), (1000, 20)):
            rep = lln_experiment(LlnConfig(n, 1.0, dist, replicas, seed=SEED))
            gaps.append(target - rep.mean)
            if n == 1000:
                # pilot-calibrated bracket, closed at the limiting constant
                lower = 3.80 if dist.kind == "exponential" else target - 0.25
                assert lower <= rep.mean <= target
                lines.append(f"{dist.token()} mean {rep.mean:.4f} in [{lower:.4f}, {target:.4f}]")
        assert all(g > 0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]  # finite-size gap shrinks monotonically
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(9, "growth constants", "; ".join(lines), elapsed, 300)


def test_criterion_10_concentration():
    t0 = time.perf_counter()
    scan = concentration_scan(
        [100, 200, 400], 0.5, DistSpec.exponential(1), 1.0, replicas=500, seed=SEED
    )
    elapsed = time.perf_counter() - t0
    assert scan.rates[0] >= scan.rates[1] >= scan.rates[2]
    assert elapsed < 300.0
    report(
        10,
        "concentration",
        f"exceedance rates {list(scan.rates)} non-increasing over n = 100, 200, 400",
        elapsed,
        300,
    )
