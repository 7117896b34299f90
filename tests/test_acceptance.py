"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget (run with -s to see them).

The published campaign statistics of the iPinYou 2013 benchmark release
serve as formula vectors; everything not pinned by published numbers is
checked against independent oracles (straight-line replay, pairwise AUC,
finite differences) or against the generator's known ground truth.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from rtbsim import synthgen
from rtbsim.bidding import CampaignSpec, ConstBid, LinBid, McpcBid, RandBid, tune
from rtbsim.features import (
    SparseBatch,
    binarize_cases,
    build_encodings,
    build_vocabulary,
    densify_cases,
    encoding_split,
)
from rtbsim.logdata import BID_LOG, EVENT_LOG, parse_record, serialize_record
from rtbsim.models import (
    GbrtHyper,
    LrHyper,
    LrModel,
    auc,
    lr_gradient,
    predict,
    train_gbrt,
    train_lr,
)
from rtbsim.replay import ReplayData, make_budget, simulate
from rtbsim.stats import CampaignSummary

from oracles import finite_difference_gradient, pairwise_auc, reference_simulate


@contextmanager
def criterion(name: str, limit: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if limit is not None:
            assert elapsed < limit, f"{name} exceeded its {limit}s budget ({elapsed:.1f}s)"
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


# (adv, bids, imps, clicks, convs, cost_fen, win%, ctr%, cvr%, cpm, ecpc)
TRAIN_ROWS = [
    ("1458", 14_701_496, 3_083_056, 2454, 1, 212_400, 20.97, 0.080, 0.041, 68.89, 86.55),
    ("2259", 2_987_731, 835_556, 280, 89, 77_754, 27.97, 0.034, 31.786, 93.06, 277.70),
    ("2261", 2_159_708, 687_617, 207, 0, 61_610, 31.84, 0.030, 0.000, 89.60, 297.64),
    ("2821", 5_292_053, 1_322_561, 843, 450, 118_082, 24.99, 0.064, 53.381, 89.28, 140.07),
    ("2997", 1_017_927, 312_437, 1386, 0, 19_689, 30.69, 0.444, 0.000, 63.02, 14.21),
    ("3358", 3_751_016, 1_742_104, 1358, 369, 160_943, 46.44, 0.078, 27.172, 92.38, 118.51),
    ("3386", 14_091_931, 2_847_802, 2076, 0, 219_066, 20.21, 0.073, 0.000, 76.92, 105.52),
    ("3427", 14_032_619, 2_593_765, 1926, 0, 210_239, 18.48, 0.074, 0.000, 81.06, 109.16),
    ("3476", 6_712_268, 1_970_360, 1027, 26, 156_088, 29.35, 0.052, 2.532, 79.22, 151.98),
    ("Total", 64_746_749, 15_395_258, 11_557, 935, 1_235_875, 23.78, 0.075, 8.090, 80.28, 106.94),
]

# (adv, imps, clicks, convs, cost_fen, ctr%, cvr%, cpm, ecpc)
TEST_ROWS = [
    ("1458", 614_638, 543, 0, 45_216, 0.088, 0.000, 73.57, 83.27),
    ("2259", 417_197, 131, 32, 43_497, 0.031, 24.427, 104.26, 332.04),
    ("2261", 343_862, 97, 0, 28_795, 0.028, 0.000, 83.74, 296.87),
    ("2821", 661_964, 394, 217, 68_257, 0.060, 55.076, 103.11, 173.24),
    ("2997", 156_063, 533, 0, 8_617, 0.342, 0.000, 55.22, 16.17),
    ("3358", 300_928, 339, 58, 34_159, 0.113, 17.109, 113.51, 100.77),
    ("3386", 545_421, 496, 0, 45_715, 0.091, 0.000, 83.82, 92.17),
    ("3427", 536_795, 395, 0, 46_356, 0.074, 0.000, 86.36, 117.36),
    ("3476", 523_848, 302, 11, 43_627, 0.058, 3.642, 83.28, 144.46),
    ("Total", 4_100_716, 3230, 318, 364_243, 0.079, 9.845, 88.82, 112.77),
]

TOL = 0.01 + 1e-9


def _close(computed: float, published: float, digits: int) -> bool:
    # The published table prints 2-3 decimals and its cost column is a
    # rounded integer, so computed values are compared on the same print
    # grid (advertiser 2261's test eCPC differs from its own cost/clicks
    # columns by 0.014 raw; rounded to 2 decimals it is one grid step off).
    return abs(round(computed, digits) - published) <= TOL


def test_c01_campaign_summary_formula_vectors():
    with criterion("C1 campaign summary reproduces published statistics", limit=1.0):
        for adv, bids, imps, clicks, convs, cost, win, ctr, cvr, cpm, ecpc in TRAIN_ROWS:
            s = CampaignSummary.from_tallies(bids, imps, clicks, convs, cost)
            assert _close(100 * s.win_ratio, win, 2), f"{adv} win ratio"
            assert _close(100 * s.ctr, ctr, 3), f"{adv} ctr"
            if clicks:
                assert _close(100 * s.cvr, cvr, 3), f"{adv} cvr"
            assert _close(s.cpm_fen, cpm, 2), f"{adv} cpm"
            assert _close(s.ecpc_fen, ecpc, 2), f"{adv} ecpc"
        for adv, imps, clicks, convs, cost, ctr, cvr, cpm, ecpc in TEST_ROWS:
            s = CampaignSummary.from_tallies(0, imps, clicks, convs, cost)
            assert s.win_ratio is None
            assert _close(100 * s.ctr, ctr, 3), f"{adv} test ctr"
            if clicks:
                assert _close(100 * s.cvr, cvr, 3), f"{adv} test cvr"
            assert _close(s.cpm_fen, cpm, 2), f"{adv} test cpm"
            assert _close(s.ecpc_fen, ecpc, 2), f"{adv} test ecpc"


def test_c02_kpi_score_cross_table_vector():
    with criterion("C2 KPI score matches the published cross-table triple", limit=1.0):
        # advertiser 3476 (N=10), tuned linear bidder at budget 1/32:
        # 205 clicks and 3 conversions score 235
        clicks, convs, n_weight = 205, 3, 10
        assert clicks + n_weight * convs == 235


def _synth_cases(seed: int, n: int):
    config = synthgen.SynthConfig(seed=seed, n_train=1, n_test=n, base_ctr=0.03,
                                  conversion_given_click=0.3)
    _, cases, truth = synthgen.generate(config)
    return cases, truth.test_p


def test_c03_replay_matches_reference_simulator():
    with criterion("C3 replay equals the straight-line reference exactly", limit=30.0):
        rng = np.random.default_rng(1234)
        fractions = [Fraction(1, 32), Fraction(1, 8), Fraction(1, 2), Fraction(1)]
        for seed in range(50):
            n = int(rng.integers(5, 1001))
            cases, pctr = _synth_cases(seed, n)
            data = ReplayData.from_cases(cases)
            budget = make_budget(data, fractions[seed % 4])
            avg = max(float(np.mean([c.clicked for c in cases])), 1e-3)
            strategies = [
                (ConstBid(int(rng.integers(1, 200))), None),
                (RandBid(upper=int(rng.integers(1, 250)), seed=seed), None),
                (McpcBid(float(rng.uniform(5, 150))), pctr),
                (LinBid(int(rng.integers(1, 200)), avg_ctr=avg), pctr),
            ]
            for strategy, p in strategies:
                res = simulate(data, strategy, budget, CampaignSpec(1, 2), pctr=p)
                ref = reference_simulate(cases, strategy, budget, pctr=p)
                assert (res.wins, res.clicks, res.convs, res.cost_milli) == ref, (
                    f"seed {seed} {strategy.name}"
                )


def test_c04_budget_monotonicity_and_win_set_nesting():
    with criterion("C4 counts grow with budget and win sets nest", limit=30.0):
        fractions = [Fraction(1, 32), Fraction(1, 8), Fraction(1, 2), Fraction(1)]
        for campaign_idx in range(10):
            cases, pctr = _synth_cases(1000 + campaign_idx, 2000)
            data = ReplayData.from_cases(cases)
            avg = max(float(np.mean([c.clicked for c in cases])), 1e-3)
            strategy, p = [
                (ConstBid(90), None),
                (RandBid(upper=160, seed=campaign_idx), None),
                (McpcBid(60.0), pctr),
                (LinBid(80, avg_ctr=avg), pctr),
            ][campaign_idx % 4]
            prev = None
            prev_set: set | None = None
            for frac in fractions:
                res = simulate(data, strategy, make_budget(data, frac),
                               CampaignSpec(1, 2), pctr=p, keep_trace=True)
                win_set = set(np.flatnonzero(res.trace.win).tolist())
                if prev is not None:
                    for field in ("wins", "clicks", "convs", "cost_milli", "score"):
                        assert getattr(res, field) >= getattr(prev, field), (
                            f"campaign {campaign_idx} {field} not monotone"
                        )
                    assert prev_set <= win_set, f"campaign {campaign_idx} win set not nested"
                prev, prev_set = res, win_set


def test_c05_lr_gradient_matches_finite_differences():
    with criterion("C5 LR gradient matches central finite differences", limit=10.0):
        rng = np.random.default_rng(55)
        checked = 0
        for _ in range(24):
            dim = int(rng.integers(6, 20))
            n = int(rng.integers(5, 40))
            rows = [np.sort(rng.choice(np.arange(1, dim), size=min(4, dim - 2),
                                       replace=False)).astype(np.int32) for _ in range(n)]
            labels = rng.integers(0, 2, size=n).astype(np.float64)
            batch = SparseBatch.from_vectors(rows, labels, dim)
            l2 = float(rng.choice([0.0, 1e-3, 1e-2]))
            weights = rng.normal(0, 1, size=dim)
            model = LrModel(weights, LrHyper(l2=l2))
            grad = lr_gradient(model, batch)
            coords = list(range(dim))
            fd = finite_difference_gradient(weights, l2, batch.indptr, batch.indices,
                                            batch.labels, coords, h=1e-5)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-4
            checked += 1
        assert checked >= 20


@pytest.fixture(scope="module")
def recovery_models():
    """Generate n=1e5 data and train both models, timing the whole build
    so the criterion's runtime budget covers it."""
    t0 = time.perf_counter()
    config = synthgen.SynthConfig(seed=7, n_train=100_000, n_test=20_000, base_ctr=0.01)
    train, test, truth = synthgen.generate(config)
    labels = test.clicked.astype(np.float64)

    vocab = build_vocabulary(train)
    lr_model = train_lr(binarize_cases(train, vocab), LrHyper(0.5, 1e-6, 20, 1))
    lr_scores = predict(lr_model, binarize_cases(test, vocab))

    enc = build_encodings(encoding_split(train))
    x, y = densify_cases(train, enc)
    gbrt_model = train_gbrt(x, y, GbrtHyper())  # 50 rounds, depth 5, shrinkage 0.05
    xt, _ = densify_cases(test, enc)
    gbrt_scores = predict(gbrt_model, xt)
    elapsed = time.perf_counter() - t0
    return truth, labels, lr_scores, gbrt_model, gbrt_scores, elapsed


def test_c06_ctr_model_recovery(recovery_models):
    truth, labels, lr_scores, _, gbrt_scores, build_seconds = recovery_models
    with criterion("C6 CTR models recover the generator's ranking"):
        bayes = auc(truth.test_p, labels)
        lr_auc = auc(lr_scores, labels)
        gbrt_auc = auc(gbrt_scores, labels)
        assert lr_auc >= bayes - 0.03, f"LR {lr_auc:.4f} vs Bayes {bayes:.4f}"
        assert abs(gbrt_auc - lr_auc) <= 0.05, f"GBRT {gbrt_auc:.4f} vs LR {lr_auc:.4f}"
        assert build_seconds < 120.0, f"model build took {build_seconds:.1f}s"


def test_c07_gbrt_mse_non_increasing_everywhere(recovery_models):
    with criterion("C7 GBRT training MSE never increases across 50 rounds"):
        gbrt_model = recovery_models[3]
        fixtures = [gbrt_model.train_mse]
        rng = np.random.default_rng(77)
        x = rng.normal(size=(800, 5))
        y = (rng.random(800) < 0.25).astype(float)  # pure noise labels
        fixtures.append(train_gbrt(x, y, GbrtHyper(rounds=50, min_leaf=5)).train_mse)
        y2 = ((x[:, 0] > 0) & (x[:, 1] < 0.5)).astype(float)  # learnable rule
        fixtures.append(train_gbrt(x, y2, GbrtHyper(rounds=50, min_leaf=5)).train_mse)
        for mse in fixtures:
            assert len(mse) == 50
            assert all(a >= b for a, b in zip(mse, mse[1:]))


def test_c08_auc_equals_pairwise_brute_force():
    with criterion("C8 AUC equals the O(n^2) pairwise count"):
        rng = np.random.default_rng(88)
        for i in range(100):
            n = int(rng.integers(2, 201))
            if i % 3 == 0:
                scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=n)  # heavy ties
            else:
                scores = rng.random(n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            fast = auc(scores, labels)
            brute = pairwise_auc(scores.tolist(), labels.tolist())
            assert abs(fast - brute) <= 1e-12


def test_c09_linear_bidding_beats_constant_bidding():
    with criterion("C9 tuned Lin gets >= 1.5x tuned Const clicks at 1/32", limit=120.0):
        config = synthgen.SynthConfig(seed=7, n_train=50_000, n_test=20_000, base_ctr=0.01)
        train, test, truth = synthgen.generate(config)
        vocab = build_vocabulary(train)
        batch = binarize_cases(train, vocab)
        model = train_lr(batch, LrHyper(0.5, 1e-6, 20, 1))
        pctr_train = predict(model, batch)
        pctr_test = predict(model, binarize_cases(test, vocab))

        campaign = CampaignSpec(config.advertiser_id, 0)
        frac = Fraction(1, 32)
        best_const, _ = tune("const", train, frac, campaign=campaign)
        best_lin, _ = tune("lin", train, frac, campaign=campaign, pctr=pctr_train)

        data = ReplayData.from_cases(test)
        budget = make_budget(data, frac)
        const_clicks = simulate(data, best_const, budget, campaign).clicks
        lin_clicks = simulate(data, best_lin, budget, campaign, pctr=pctr_test).clicks
        assert const_clicks > 0
        assert lin_clicks >= 1.5 * const_clicks, (
            f"lin {lin_clicks} vs const {const_clicks}"
        )


def test_c10_parser_round_trip_on_generated_lines():
    with criterion("C10 parse/serialize round-trip on 10^4 lines per schema"):
        config = synthgen.SynthConfig(seed=31, n_train=10_000, n_test=1, base_ctr=0.02)
        train, _, _ = synthgen.generate(config)
        mismatches = 0
        for case in train:
            line = serialize_record(case.record, EVENT_LOG)
            back = parse_record(line, EVENT_LOG)
            if back != case.record or serialize_record(back, EVENT_LOG) != line:
                mismatches += 1
        assert mismatches == 0

        import dataclasses
        for case in train:
            bid_rec = dataclasses.replace(case.record, log_type=None,
                                          paying_price=None, key_page_url=None)
            line = serialize_record(bid_rec, BID_LOG)
            back = parse_record(line, BID_LOG)
            if back != bid_rec or serialize_record(back, BID_LOG) != line:
                mismatches += 1
        assert mismatches == 0
