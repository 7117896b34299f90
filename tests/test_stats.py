from __future__ import annotations

import math
import random
from datetime import datetime

import numpy as np
import pytest

from rtbsim import synthgen
from rtbsim.stats import (
    FEATURE_KEYS,
    METRICS,
    CampaignSummary,
    campaign_summary,
    feature_breakdowns,
    write_breakdown_csv,
    write_summary_csv,
    write_summary_markdown,
)

from conftest import breakdown, epoch_ms, make_case


class TestCampaignSummary:
    def test_known_training_row(self):
        # Advertiser 1458, training split of the iPinYou benchmark release.
        s = CampaignSummary.from_tallies(14_701_496, 3_083_056, 2454, 1, 212_400)
        assert abs(100 * s.win_ratio - 20.97) <= 0.01
        assert abs(100 * s.ctr - 0.080) <= 0.01
        assert abs(100 * s.cvr - 0.041) <= 0.01
        assert abs(s.cpm_fen - 68.89) <= 0.01
        assert abs(s.ecpc_fen - 86.55) <= 0.01

    def test_known_test_row_cvr(self):
        # Advertiser 2259, test split: CVR is relative to clicks.
        s = CampaignSummary.from_tallies(0, 417_197, 131, 32, 43_497)
        assert abs(100 * s.cvr - 24.427) <= 0.01
        assert s.win_ratio is None

    def test_zero_clicks_gives_absent_ratios(self):
        s = CampaignSummary.from_tallies(100, 50, 0, 0, 3.0)
        assert s.ecpc_fen is None and s.cvr is None
        assert s.ctr == 0.0

    def test_zero_everything(self):
        s = CampaignSummary.from_tallies(0, 0, 0, 0, 0.0)
        assert s.win_ratio is None and s.ctr is None
        assert s.cpm_fen is None and s.ecpc_fen is None and s.cvr is None

    def test_from_cases_and_order_invariance(self):
        cases = [
            make_case(paying=1000, clicked=True, bid_id="a"),
            make_case(paying=3000, clicked=False, bid_id="b"),
            make_case(paying=2000, clicked=True, converted=True, bid_id="c"),
        ]
        s = campaign_summary(10, cases)
        assert s.imps == 3 and s.clicks == 2 and s.convs == 1
        assert s.cost_fen == pytest.approx(6.0)
        assert s.win_ratio == pytest.approx(0.3)
        assert s.ecpc_fen == pytest.approx(3.0)
        shuffled = list(cases)
        random.Random(0).shuffle(shuffled)
        assert campaign_summary(10, shuffled) == s

    @pytest.mark.parametrize("bids", [-5, 1, 2])
    def test_bid_count_below_the_impressions(self, bids):
        cases = [make_case(bid_id=str(i)) for i in range(3)]
        with pytest.raises(ValueError, match=rf"^bid count {bids} must be 0 \(unknown\) or at "
                                             rf"least the 3 impressions$"):
            campaign_summary(bids, cases)
        assert campaign_summary(0, cases).win_ratio is None
        assert campaign_summary(3, cases).win_ratio == 1.0


class TestFeatureBreakdown:
    def test_weekday_hand_case(self):
        ts = epoch_ms(datetime(2013, 2, 18, 10))  # a Monday
        cases = [make_case(ts=ts, clicked=True, bid_id="a"),
                 make_case(ts=ts, clicked=False, bid_id="b")]
        bd = breakdown(cases, "weekday", "ctr")
        assert len(bd.rows) == 1
        row = bd.rows[0]
        assert row.label == "Mon" and row.n == 2
        assert row.mean == pytest.approx(0.5)
        assert row.se == pytest.approx(math.sqrt(0.25 / 2))

    def test_single_group_mean_equals_campaign_ctr(self, small_synth):
        train, _, _ = small_synth
        bd = breakdown(train, "exchange", "ctr")
        summary = campaign_summary(0, train)
        total_clicks = sum(r.n * r.mean for r in bd.rows)
        assert total_clicks == pytest.approx(summary.clicks)

    def test_market_price_se_is_sample_se(self):
        cases = [make_case(paying=p, bid_id=str(i)) for i, p in enumerate((10, 20, 30))]
        bd = breakdown(cases, "exchange", "market_price")
        row = bd.rows[0]
        assert row.mean == pytest.approx(20.0)
        assert row.se == pytest.approx(np.std([10, 20, 30], ddof=1) / math.sqrt(3))

    def test_market_price_singleton_group_se_zero(self):
        bd = breakdown([make_case(paying=10)], "exchange", "market_price")
        assert bd.rows[0].se == 0.0

    def test_ecpc_zero_click_group_absent(self):
        cases = [make_case(paying=5000, clicked=False, bid_id="a")]
        bd = breakdown(cases, "exchange", "ecpc")
        assert bd.rows[0].mean is None and bd.rows[0].se is None

    def test_ecpc_value(self):
        cases = [make_case(paying=5000, clicked=True, bid_id="a"),
                 make_case(paying=3000, clicked=False, bid_id="b")]
        bd = breakdown(cases, "exchange", "ecpc")
        assert bd.rows[0].mean == pytest.approx(8.0)  # 8 fen over 1 click

    def test_group_counts_partition_cases(self, small_synth):
        train, _, _ = small_synth
        for key in FEATURE_KEYS:
            bd = breakdown(train, key, "ctr")
            total = sum(r.n for r in bd.rows)
            if key == "user_tag":
                assert total >= len(train)
            else:
                assert total == len(train)
            clicks = sum(r.n * r.mean for r in bd.rows)
            if key != "user_tag":
                assert clicks == pytest.approx(sum(c.clicked for c in train))

    def test_sorted_labels(self, small_synth):
        train, _, _ = small_synth
        hours = [int(r.label) for r in breakdown(train, "hour", "ctr").rows]
        assert hours == sorted(hours)
        sizes = [r.label for r in breakdown(train, "slot_size", "ctr").rows]
        parsed = [tuple(map(int, s.split("×"))) for s in sizes]
        assert parsed == sorted(parsed)

    def test_user_tag_rank_reindexed_by_frequency(self, small_synth):
        train, _, _ = small_synth
        bd = breakdown(train, "user_tag", "ctr")
        ns = [r.n for r in bd.rows]
        assert ns == sorted(ns, reverse=True)
        assert [r.label for r in bd.rows] == [str(i) for i in range(1, len(bd.rows) + 1)]
        assert all(r.raw_label is not None for r in bd.rows)

    def test_informative_tag_lifts_ctr(self):
        # tag 7's weight doubles the click odds; everything else is flat.
        config = SynthConfigFactory(seed=13, n=100_000, tag=7, log_odds=math.log(2.0))
        train, _, truth = synthgen.generate(config)
        global_ctr = truth.realized_base_ctr
        bd = breakdown(train, "user_tag", "ctr")
        row = next(r for r in bd.rows if r.raw_label == "7")
        z = (row.mean - global_ctr) / row.se
        assert z > 3.0

    def test_slot_sizes_past_what_a_byte_holds(self):
        # 17 widths by 17 heights: 289 sizes, each held twice.  A table
        # holds each side's codes in one byte; the size keys pass 255.
        size = {k: (100 + k % 17, 50 + k // 17) for k in range(289)}
        cases = [make_case(paying=i + 1, clicked=i < 289 and i % 4 == 0, bid_id=f"b{i}",
                           slot_width=size[i % 289][0], slot_height=size[i % 289][1]) for i in range(578)]
        order = sorted(size, key=size.get)
        rows = {metric: breakdown(cases, "slot_size", metric).rows for metric in METRICS}
        for metric in METRICS:
            assert [r.label for r in rows[metric]] == [f"{w}×{h}" for w, h in map(size.get, order)]
            assert [r.n for r in rows[metric]] == [2] * 289
        assert [r.mean for r in rows["ctr"]] == [0.5 if k % 4 == 0 else 0.0 for k in order]
        assert [r.mean for r in rows["market_price"]] == [(2 * k + 291) / 2 for k in order]

    def test_repeated_tag_counts_once(self):
        cases = [make_case(user_tags=(5, 5, 7), bid_id="a")]
        bd = breakdown(cases, "user_tag", "ctr")
        assert sorted((r.raw_label, r.n) for r in bd.rows) == [("5", 1), ("7", 1)]

    def test_every_key_and_metric_in_order(self, small_synth):
        train, _, _ = small_synth
        got = [(bd.feature_key, bd.metric) for bd in feature_breakdowns(train)]
        assert got == [(key, metric) for key in FEATURE_KEYS for metric in METRICS]

    def test_empty_cases_rejected(self):
        with pytest.raises(ValueError):
            feature_breakdowns([])


def SynthConfigFactory(seed: int, n: int, tag: int, log_odds: float) -> synthgen.SynthConfig:
    config = synthgen.SynthConfig(seed=seed, n_train=n, n_test=100)
    w = np.zeros(config.weight_dim)
    w[0] = math.log(0.02 / 0.98)
    w[config.weight_layout()["tag"].start + (tag - 1)] = log_odds
    return synthgen.SynthConfig(seed=seed, n_train=n, n_test=100, true_weights=w)


class TestWriters:
    def test_breakdown_csv(self, tmp_path, small_synth):
        train, _, _ = small_synth
        for key in ("weekday", "user_tag"):
            for metric in METRICS:
                bd = breakdown(train, key, metric)
                path = tmp_path / f"{key}_{metric}.csv"
                write_breakdown_csv(bd, path)
                lines = path.read_text().splitlines()
                assert lines[0] == "label,n,mean,se,raw_label"
                assert len(lines) == len(bd.rows) + 1
                assert "nan" not in path.read_text().lower()

    def test_summary_writers(self, tmp_path):
        s = CampaignSummary.from_tallies(14_701_496, 3_083_056, 2454, 1, 212_400)
        rows = [("1458", s)]
        write_summary_csv(rows, tmp_path / "summary.csv")
        write_summary_markdown(rows, tmp_path / "summary.md")
        md = (tmp_path / "summary.md").read_text()
        assert "20.97%" in md and "0.080%" in md and "68.89" in md and "86.55" in md
        csv = (tmp_path / "summary.csv").read_text().splitlines()
        assert csv[0].startswith("campaign,bids,imps,")
        assert csv[1].startswith("1458,14701496,3083056,2454,1,")
