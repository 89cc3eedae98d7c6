import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brokenlines import experiments
from brokenlines.duality import DistSpec, parse_dist
from brokenlines.experiments import (
    _BLOCK_CELLS,
    LlnConfig,
    concentration_scan,
    lln_experiment,
    lln_target,
    replica_passage,
    reversible_boundary_params,
)
from brokenlines.lpp import passage_value
from brokenlines.streams import stream_base, uniform_grid

EXP1 = DistSpec.exponential(1)
GEOM5 = DistSpec.geometric(0.5)


def test_targets_from_closed_forms():
    assert lln_target(EXP1, 1.0) == pytest.approx(4.0)
    assert lln_target(DistSpec.exponential(2), 4.0) == pytest.approx(4.5)
    assert lln_target(GEOM5, 1.0) == pytest.approx((1 + math.sqrt(0.5)) ** 2 / 0.5 - 1)
    assert lln_target(GEOM5, 1.0) == pytest.approx(4.82842712, abs=1e-7)


def test_target_rejects_other_laws():
    with pytest.raises(ValueError):
        lln_target(DistSpec.pointmass(1), 1.0)
    with pytest.raises(ValueError):
        lln_target(EXP1, 0.0)


@given(st.floats(0.1, 10), st.floats(0.1, 10))
def test_target_scales_with_rate(alpha, beta):
    scaled = lln_target(DistSpec.exponential(alpha), beta)
    assert scaled == pytest.approx(lln_target(EXP1, beta) / alpha)


def test_boundary_params_split_the_rate():
    up, down = reversible_boundary_params(EXP1, 2.0)
    assert up + down == pytest.approx(1.0)
    lam_up, lam_down = reversible_boundary_params(GEOM5, 2.0)
    assert lam_up * lam_down == pytest.approx(0.5)
    assert 0.5 < lam_up < 1 and 0.5 < lam_down < 1


def test_config_validation():
    with pytest.raises(ValueError):
        LlnConfig(0, 1.0, EXP1, 1)
    with pytest.raises(ValueError):
        LlnConfig(5, 0.1, EXP1, 1)  # floor(0.5) = 0 columns
    assert LlnConfig(10, 0.55, EXP1, 1).m == 5
    for token in ("unif:0:1", "point:1"):
        with pytest.raises(ValueError, match="growth constants exist for exponential and geometric"):
            LlnConfig(10, 1.0, parse_dist(token), 1)


def test_single_site_reports_distribution_mean():
    report = lln_experiment(LlnConfig(1, 1.0, EXP1, replicas=800, seed=3))
    se = report.stddev / math.sqrt(len(report.samples))
    assert report.mean == pytest.approx(EXP1.mean(), abs=4 * se)


def test_experiment_is_deterministic():
    config = LlnConfig(40, 1.0, GEOM5, replicas=6, seed=11)
    a = lln_experiment(config)
    b = lln_experiment(config)
    assert a.samples == b.samples
    assert a.abs_error == abs(a.mean - a.target)


def test_replica_values_are_addressed_not_sequenced():
    # replica 3 alone equals replica 3 inside a batch
    (one,) = replica_passage(EXP1, 16, 16, 7, range(3, 4))
    report = lln_experiment(LlnConfig(16, 1.0, EXP1, replicas=5, seed=7))
    assert report.samples[3] == one / 16


LAWS = [EXP1, GEOM5, DistSpec.pointmass(1.5), DistSpec.uniform(0.5, 2.0)]
# (n, m, replicas): a single row, a single column, wide, tall, and a tall
# shape whose replicas span two blocks at the module's own block size
BATCHES = [(1, 1, 9), (1, 6, 9), (6, 1, 9), (3, 5, 9), (5, 3, 9),
           (2100, 2, _BLOCK_CELLS // 2100 + 3)]


def replica_alone(dist, n, m, seed, r):
    u = uniform_grid(stream_base(seed, r), n, m)
    return passage_value(np.asarray(dist.from_uniform(u), dtype=float))


@pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.token())
@pytest.mark.parametrize("n, m, replicas", BATCHES)
@pytest.mark.parametrize("block_cells", [_BLOCK_CELLS, 4])
def test_batched_replicas_equal_each_replica_alone(monkeypatch, dist, n, m, replicas, block_cells):
    # a block of 4 cells splits every batch above into several blocks
    monkeypatch.setattr(experiments, "_BLOCK_CELLS", block_cells)
    batch = replica_passage(dist, n, m, 5, range(replicas))
    alone = [replica_alone(dist, n, m, 5, r) for r in range(replicas)]
    assert batch.tolist() == alone


@pytest.mark.parametrize("dist", [EXP1, GEOM5], ids=lambda d: d.token())
def test_replica_sweeps_invert_their_draws_in_place(monkeypatch, dist):
    # from_uniform pays for a negated copy of what it inverts; the sweeps'
    # runs already hold -u and are inverted where they lie
    values = replica_passage(dist, 37, 53, 3, range(6))

    def refuse(*args):
        raise AssertionError("a replica sweep called from_uniform")

    monkeypatch.setattr(DistSpec, "from_uniform", refuse)
    again = replica_passage(dist, 37, 53, 3, range(6))
    assert np.array_equal(again.view(np.int64), values.view(np.int64))


@pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.token())
def test_replica_subrange_equals_its_slice_of_the_batch(monkeypatch, dist):
    monkeypatch.setattr(experiments, "_BLOCK_CELLS", 8)
    whole = replica_passage(dist, 4, 3, 2, range(0, 8))
    part = replica_passage(dist, 4, 3, 2, range(3, 6))
    assert part.tolist() == whole[3:6].tolist()


def test_split_seed_replica_doubling_is_stable():
    base = lln_experiment(LlnConfig(30, 1.0, EXP1, replicas=200, seed=13))
    doubled = lln_experiment(LlnConfig(30, 1.0, EXP1, replicas=400, seed=14))
    tolerance = 3 * base.stddev / math.sqrt(200) + 3 * doubled.stddev / math.sqrt(400)
    assert abs(base.mean - doubled.mean) < tolerance


def test_transposition_symmetry():
    # G(n, floor(beta n)) and its transpose share a distribution
    wide = lln_experiment(LlnConfig(12, 2.0, EXP1, replicas=400, seed=5))
    tall = lln_experiment(LlnConfig(24, 0.5, EXP1, replicas=400, seed=6))
    mean_wide = wide.mean * 12  # unscale to raw passage values
    mean_tall = tall.mean * 24
    spread = math.hypot(wide.stddev * 12, tall.stddev * 24) / math.sqrt(400)
    assert abs(mean_wide - mean_tall) < 5 * spread


@pytest.mark.parametrize("ns, beta", [([1, 4], 0.5), ([0], 1.0)])
def test_concentration_rejects_empty_matrices(ns, beta):
    with pytest.raises(ValueError):
        concentration_scan(ns, 0.5, EXP1, beta, replicas=3)


@pytest.mark.parametrize("beta", [math.inf, math.nan])
def test_non_finite_beta_is_rejected(beta):
    with pytest.raises(ValueError, match="beta"):
        LlnConfig(5, beta, EXP1, 1)
    with pytest.raises(ValueError, match="beta"):
        concentration_scan([5], 0.5, EXP1, beta, replicas=3)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -0.5])
def test_concentration_rejects_a_bad_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        concentration_scan([5], delta, EXP1, 1.0, replicas=3)


def test_concentration_single_replica_rate_is_binary():
    report = concentration_scan([30], 0.5, EXP1, 1.0, replicas=1, seed=1)
    assert report.rates[0] in (0.0, 1.0)


def test_concentration_rates_decrease_at_tight_delta():
    report = concentration_scan([30, 60, 120], 0.25, EXP1, 1.0, replicas=300, seed=21)
    assert report.rates[0] >= report.rates[1] >= report.rates[2]
    assert report.rates[0] > 0  # delta tight enough to see deviations at n=30
    assert sorted(report.rates, reverse=True) == list(report.rates)


def test_concentration_rates_fall_strictly_with_size():
    # unlike criterion 10, whose rates are all zero, these rates can fail
    report = concentration_scan([25, 50, 100], 0.3, EXP1, 1.0, replicas=200, seed=0)
    assert report.rates[0] > report.rates[1] > report.rates[2] > 0
    assert report.slope < 0


def test_concentration_wide_delta_never_exceeds():
    report = concentration_scan([20, 40], 10.0, EXP1, 1.0, replicas=50, seed=2)
    assert report.rates == (0.0, 0.0)
    assert math.isnan(report.slope)


def test_reports_serialize():
    report = lln_experiment(LlnConfig(8, 1.0, EXP1, replicas=3, seed=0))
    d = report.to_dict()
    assert d["dist"] == "exp:1" and len(d["samples"]) == 3
    scan = concentration_scan([10, 20], 0.5, GEOM5, 1.0, replicas=20, seed=0)
    d = scan.to_dict()
    assert d["ns"] == [10, 20] and len(d["rates"]) == 2


# sha256 of json.dumps(report.samples) for geometric births, whose passage
# values are sums of integers and so exact under any recurrence order
GEOMETRIC_DIGESTS = {
    ("geom:0.5", 1, 1.0): "e6c603f76e00f1cfad5dac88037ab3cdfe7285348a2e39ba79bf9e556f7b6490",
    ("geom:0.5", 7, 2.0): "0181289c3f93c456d4d210c989acc59a29848274a81c1467ba5e16df26f34b81",
    ("geom:0.5", 40, 0.5): "635f84870c2426a97fa26f85fba638da3d47c3bc3001325d088412a9027f7dbe",
    ("geom:0.5", 120, 1.0): "822563190dcb000cdeaaa5bf17f1b233f66431f5de10fae466a352242826363e",
    ("geom:0.9", 1, 1.0): "948c4f666281d72486a74c4ab6405f1da0955ad422d4a5a92723db2507b2840f",
    ("geom:0.9", 7, 2.0): "be7c1c2f9b6f4120c4ad977cf7d6da7792ecee79d055642b78680e2597d27e2e",
    ("geom:0.9", 40, 0.5): "18990b0f911f9aa495f83c23311dc3e57a7b46c4d7877abb5f884029981f9c79",
    ("geom:0.9", 120, 1.0): "801f9dbcf5e3b43d130441bd1f373322b2de603c2be0bb4179e2ffe65ae2d8f6",
}


@pytest.mark.parametrize("case", sorted(GEOMETRIC_DIGESTS), ids=repr)
def test_geometric_samples_are_pinned(case):
    token, n, beta = case
    replicas = {1: 5, 7: 9, 40: 12, 120: 6}[n]
    report = lln_experiment(LlnConfig(n, beta, parse_dist(token), replicas, seed=21))
    digest = hashlib.sha256(json.dumps(report.samples).encode()).hexdigest()
    assert digest == GEOMETRIC_DIGESTS[case]
