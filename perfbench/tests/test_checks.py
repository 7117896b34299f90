"""Hand-worked cases for the benchmark's reference computations.

A fault in a check must never pass as a program fault or hide one, so each
reference is pinned here on inputs small enough to work out on paper.

Run:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_strict_win_rule_and_budget():
    # Case by case, budget 25, spend before each case:
    #   0: bid 10 > pay 5, > floor 0          -> win, spent 5, click
    #   1: bid 10 == pay 10                   -> lose (strictly above)
    #   2: bid 10 > pay 8 but floor 10        -> lose (not above floor)
    #   3: bid 30 > pay 20, > floor 0         -> win, spent 25, conv
    #   4: spent 25 >= budget 25              -> stop
    bids = [10, 10, 10, 30, 99]
    paying = [5, 10, 8, 20, 1]
    floor = [0, 0, 10, 0, 0]
    clicked = [True, True, True, False, True]
    converted = [False, False, False, True, False]
    assert checks.replay(bids, paying, floor, clicked, converted, 25) == (2, 1, 1, 25, 20)


def test_replay_last_win_may_pass_budget_by_one_price():
    # Budget 6: the first win leaves 5 spent (< 6), so the second case is
    # still bid on and its 20 is paid; spend ends 19 above the budget,
    # less than the one price (20) that crossed it.
    wins, _, _, spent, last = checks.replay([50, 50, 50], [5, 20, 7], [0, 0, 0],
                                            [False] * 3, [False] * 3, 6)
    assert (wins, spent, last) == (2, 25, 20)
    assert spent - last < 6


def test_replay_zero_budget_buys_nothing():
    assert checks.replay([9], [1], [0], [True], [True], 0) == (0, 0, 0, 0, 0)


def test_budget_is_floor_of_fraction_of_total_cost():
    assert checks.budget_of([10, 20, 3], "1/8") == 4  # 33/8 = 4.125
    assert checks.budget_of([10, 20, 3], "1/2") == 16


def test_best_parameter_ties_go_to_smaller():
    class Split:
        paying = [5, 5]
        floor = [0, 0]
        clicked = [True, False]
        converted = [False, False]

        def __len__(self):
            return 2

    # Budget 1/2 of 10 = 5: any constant bid above 5 wins case 0 (the
    # click) and then stops at spend 5.  Every grid point from 10 up
    # scores 1, so 10 -- the smallest -- is chosen; 2 and 5 score 0.
    assert checks.best_parameter("const", Split(), "1/2", 0) == 10


# ---------------------------------------------------------------------------
# bids
# ---------------------------------------------------------------------------

def test_lin_bid_rounds_half_up():
    # 100 * 0.003 / 0.002 = 150 exactly; 7 * 0.5 / 1 = 3.5 -> 4; 0.49 -> 0
    assert checks.lin_bid(100, 0.003, 0.002) == 150
    assert checks.lin_bid(7, 0.5, 1.0) == 4
    assert checks.lin_bid(1, 0.49, 1.0) == 0


def test_mcpc_bid_bridges_fen_per_click_to_cpm():
    # 50 fen per click * 0.002 clicks = 0.1 fen per impression = 100 per mille
    assert checks.mcpc_bid(50.0, 0.002) == 100


def test_rand_bids_follow_pcg64_stream():
    want = np.random.Generator(np.random.PCG64(0)).integers(0, 301, size=5)
    assert checks.rand_bids(300, 5) == [int(b) for b in want]
    assert all(0 <= b <= 300 for b in checks.rand_bids(300, 1000))


def test_strategy_bids_by_family():
    assert checks.strategy_bids("const", 7, 3) == [7, 7, 7]
    assert checks.strategy_bids("lin", 10, 2, pctr=[0.01, 0.02], avg_ctr=0.01) == [10, 20]
    assert checks.strategy_bids("mcpc", 50.0, 1, pctr=[0.002]) == [100]
    with pytest.raises(ValueError):
        checks.strategy_bids("other", 1, 1)


# ---------------------------------------------------------------------------
# AUC and helpers
# ---------------------------------------------------------------------------

def test_pairwise_auc_counts_ties_half():
    # Positives 0.8, 0.4; negatives 0.4, 0.1.  Pairs: (0.8,0.4)=1,
    # (0.8,0.1)=1, (0.4,0.4)=0.5, (0.4,0.1)=1 -> 3.5 / 4.
    assert checks.pairwise_auc([0.8, 0.4, 0.4, 0.1], [1, 1, 0, 0]) == 0.875


def test_pairwise_auc_extremes_and_single_class():
    assert checks.pairwise_auc([0.9, 0.1], [1, 0]) == 1.0
    assert checks.pairwise_auc([0.1, 0.9], [1, 0]) == 0.0
    assert checks.pairwise_auc([0.5, 0.5, 0.5], [1, 0, 0]) == 0.5
    with pytest.raises(checks.CheckFailed):
        checks.pairwise_auc([0.1, 0.2], [0, 0])


def test_sigmoid_and_close():
    assert checks.sigmoid(0.0) == 0.5
    assert checks.close(checks.sigmoid(2.0), 1.0 / (1.0 + np.exp(-2.0)))
    assert checks.close(checks.sigmoid(-800.0), 0.0, rel=1.0)
    assert not checks.close(1.0, 1.0 + 1e-9)


def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert checks.percentile(values, 50) == 50
    assert checks.percentile(values, 99) == 99
    assert checks.percentile([7], 99) == 7


# ---------------------------------------------------------------------------
# log columns
# ---------------------------------------------------------------------------

def _line(bid_id, ts, floor, paying):
    cols = ["x"] * 24
    cols[checks.COL_BID_ID] = bid_id
    cols[checks.COL_TIMESTAMP] = ts
    cols[checks.COL_FLOOR] = str(floor)
    cols[checks.COL_PAYING] = str(paying)
    return "\t".join(cols) + "\n"


def test_log_split_orders_by_time_and_joins_events(tmp_path):
    (tmp_path / "imp.txt").write_text(
        _line("b", "20130606000000002", 3, 40) + _line("a", "20130606000000001", 0, 25),
        encoding="utf-8")
    (tmp_path / "clk.txt").write_text(_line("b", "20130606000000009", 3, 40), encoding="utf-8")
    (tmp_path / "cnv.txt").write_text("", encoding="utf-8")
    split = checks.LogSplit(tmp_path)
    assert split.bid_ids == ["a", "b"]
    assert split.paying == [25, 40]
    assert split.floor == [0, 3]
    assert split.clicked == [False, True]
    assert split.converted == [False, False]
    assert (split.click_lines, split.conv_lines) == (1, 0)
