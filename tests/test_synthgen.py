from __future__ import annotations

import math

import numpy as np
import pytest

from rtbsim.logdata import EVENT_LOG, join_events, load_log
from rtbsim.synthgen import DegenerateConfig, SynthConfig, generate, write_dataset


@pytest.fixture(scope="module")
def flat_big():
    """n=1e5 with all-zero weights and bias at logit(0.001)."""
    config = SynthConfig(seed=5, n_train=100_000, n_test=1000)
    w = np.zeros(config.weight_dim)
    w[0] = math.log(0.001 / 0.999)
    config = SynthConfig(seed=5, n_train=100_000, n_test=1000, true_weights=w)
    return config, generate(config)


def test_flat_model_realized_ctr_in_band(flat_big):
    _, (train, _, truth) = flat_big
    assert 0.0005 <= truth.realized_base_ctr <= 0.002
    assert np.allclose(truth.train_p, 0.001)


def test_market_price_median_near_target(flat_big):
    config, (train, _, _) = flat_big
    median = float(np.median([c.paying_price for c in train]))
    target = math.exp(config.market_mu)  # 70
    assert abs(median - target) <= 0.10 * target


def test_same_seed_is_byte_identical(tmp_path):
    config = SynthConfig(seed=11, n_train=300, n_test=100)
    train1, test1, truth1 = generate(config)
    train2, test2, truth2 = generate(config)
    assert train1 == train2 and test1 == test2
    assert np.array_equal(truth1.true_weights, truth2.true_weights)
    a = write_dataset(train1, tmp_path / "a")
    b = write_dataset(train2, tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()


def test_different_seeds_differ():
    t1, _, _ = generate(SynthConfig(seed=1, n_train=200, n_test=50))
    t2, _, _ = generate(SynthConfig(seed=2, n_train=200, n_test=50))
    assert t1 != t2


def test_timestamps_strictly_increasing(small_synth):
    train, test, _ = small_synth
    for block in (train, test):
        stamps = [c.timestamp for c in block]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))
    assert train[-1].timestamp < test[0].timestamp


def test_conversions_only_on_clicked(small_synth):
    train, test, _ = small_synth
    assert all(c.clicked for c in train + test if c.converted)


def test_realized_ctr_tracks_mean_true_probability(small_synth):
    train, _, truth = small_synth
    expect = float(truth.train_p.mean())
    sd = math.sqrt(expect * (1 - expect) / len(train))
    assert abs(truth.realized_base_ctr - expect) <= 5 * sd


def test_write_dataset_counts(tmp_path, small_synth):
    train, _, _ = small_synth
    cases = train[:10]
    paths = write_dataset(cases, tmp_path)
    n_clk = sum(1 for c in cases if c.clicked)
    n_cnv = sum(1 for c in cases if c.converted)
    assert len(paths["imp"].read_text().splitlines()) == 10
    assert len(paths["clk"].read_text().splitlines()) == n_clk
    assert len(paths["cnv"].read_text().splitlines()) == n_cnv


def test_write_dataset_empty(tmp_path):
    paths = write_dataset([], tmp_path)
    for p in paths.values():
        assert p.read_text() == ""


def test_round_trip_through_files(tmp_path, small_synth):
    train, _, _ = small_synth
    cases = train[:200]
    paths = write_dataset(cases, tmp_path)
    imps = list(load_log(paths["imp"], EVENT_LOG))
    clks = list(load_log(paths["clk"], EVENT_LOG))
    cnvs = list(load_log(paths["cnv"], EVENT_LOG))
    assert join_events(imps, clks, cnvs) == cases


def test_degenerate_config_rejected():
    config = SynthConfig(seed=0, n_train=100, n_test=10)
    w = np.zeros(config.weight_dim)
    w[0] = -60.0  # p numerically 0 everywhere
    with pytest.raises(DegenerateConfig):
        generate(SynthConfig(seed=0, n_train=100, n_test=10, true_weights=w))


@pytest.mark.parametrize("kwargs", [
    dict(n_train=0),
    dict(n_test=0),
    dict(base_ctr=1.5),
    dict(floor_rate=-0.1),
    dict(market_sigma=0.0),
    dict(tags_per_case=99),
])
def test_invalid_config_fields(kwargs):
    with pytest.raises(ValueError):
        SynthConfig(seed=0, **kwargs)


def test_wrong_weight_length_rejected():
    with pytest.raises(ValueError):
        SynthConfig(seed=0, true_weights=np.zeros(3))


def test_ground_truth_weight_lookup(small_synth):
    _, _, truth = small_synth
    sl = truth.weight_layout["region"]
    assert truth.weight_for("region", 0) == truth.true_weights[sl.start]
    # tag ids are 1-based
    tsl = truth.weight_layout["tag"]
    assert truth.weight_for("tag", 1) == truth.true_weights[tsl.start]
