from __future__ import annotations

from datetime import datetime, timedelta
from fractions import Fraction

import numpy as np
import pytest

from rtbsim.bidding import CampaignSpec, ConstBid, LinBid, McpcBid, MissingPctr, RandBid
from rtbsim.replay import (
    CampaignRun,
    FractionOutOfRange,
    ReplayData,
    StrategyEntry,
    UnsortedInput,
    budget_fraction,
    make_budget,
    run_experiment,
    simulate,
)

from conftest import make_case
from oracles import reference_simulate

BIG = 10 ** 15
T0 = datetime(2013, 6, 6)


def timed_cases(case_kwargs):
    """case_kwargs: iterable of dicts for make_case; timestamps auto-increment."""
    return [
        make_case(ts=T0 + timedelta(seconds=i), bid_id=f"r{i:05d}", **kw)
        for i, kw in enumerate(case_kwargs)
    ]


class TestMakeBudget:
    def test_fraction_of_total(self):
        cases = timed_cases([dict(paying=100_000)] * 32)
        assert make_budget(cases, Fraction(1, 32)) == 100_000

    def test_fraction_one_is_total(self):
        cases = timed_cases([dict(paying=7)] * 3)
        assert make_budget(cases, 1) == 21

    def test_floor_division(self):
        cases = timed_cases([dict(paying=10)] * 10)  # total 100
        assert make_budget(cases, Fraction(1, 3)) == 33

    @pytest.mark.parametrize("fraction", [2, Fraction(33, 32), 0, -1, "5/4"])
    def test_out_of_range_rejected(self, fraction):
        cases = timed_cases([dict(paying=10)])
        with pytest.raises(FractionOutOfRange):
            make_budget(cases, fraction)
        with pytest.raises(FractionOutOfRange):
            budget_fraction(fraction)


class TestSimulate:
    def test_hand_simulation(self):
        cases = timed_cases([dict(paying=10), dict(paying=20), dict(paying=30)])
        res = simulate(cases, ConstBid(25), BIG, CampaignSpec(1, 0))
        assert res.wins == 2
        assert res.cost_milli == 30
        assert res.cost_fen == pytest.approx(0.03)
        assert res.exhausted_at is None

    def test_zero_budget(self):
        cases = timed_cases([dict(paying=1)] * 5)
        res = simulate(cases, ConstBid(100), 0, CampaignSpec(1, 0))
        assert res.wins == 0 and res.cost_milli == 0
        assert res.exhausted_at == 0

    def test_strict_win_rule_on_floor_and_price(self):
        cases = timed_cases([
            dict(paying=10, floor=0),    # bid 10: not > paying -> lose
            dict(paying=9, floor=10),    # bid 10: not > floor -> lose
            dict(paying=9, floor=9),     # bid 10: wins both comparisons
            dict(paying=0, floor=0),     # bid 10: wins, pays 0
        ])
        res = simulate(cases, ConstBid(10), BIG, CampaignSpec(1, 0), keep_trace=True)
        assert res.trace.win.tolist() == [False, False, True, True]
        assert res.cost_milli == 9

    def test_kpi_score(self):
        cases = timed_cases([
            dict(paying=1, clicked=True, converted=True),
            dict(paying=1, clicked=True),
        ])
        res = simulate(cases, ConstBid(5), BIG, CampaignSpec(1, 10))
        assert res.clicks == 2 and res.convs == 1
        assert res.score == 2 + 10 * 1

    def test_terminal_overshoot_tolerated(self):
        cases = timed_cases([dict(paying=60), dict(paying=60), dict(paying=60)])
        res = simulate(cases, ConstBid(100), 100, CampaignSpec(1, 0))
        # first win leaves spend 60 < 100, second overshoots to 120, third is skipped
        assert res.wins == 2 and res.cost_milli == 120
        assert res.exhausted_at == 2

    def test_unsorted_input_rejected(self):
        cases = timed_cases([dict(paying=1), dict(paying=1)])[::-1]
        with pytest.raises(UnsortedInput):
            simulate(cases, ConstBid(5), BIG, CampaignSpec(1, 0))

    def test_missing_ctr_model(self):
        cases = timed_cases([dict(paying=1)])
        with pytest.raises(MissingPctr):
            simulate(cases, McpcBid(50.0), BIG, CampaignSpec(1, 0))

    def test_nan_pctr_rejected(self):
        cases = timed_cases([dict(paying=1), dict(paying=1)])
        with pytest.raises(ValueError, match="pctr must be in"):
            simulate(cases, LinBid(10, avg_ctr=0.1), BIG, CampaignSpec(1, 0),
                     pctr=np.array([0.1, np.nan]))

    def test_unclicked_conversion_reported(self):
        cases = timed_cases([dict(paying=1, clicked=False, converted=True)])
        res = simulate(cases, ConstBid(5), BIG, CampaignSpec(1, 1))
        assert res.convs == 1 and res.clicks == 0
        assert res.score == 1

    def test_determinism_including_rand(self):
        cases = timed_cases([dict(paying=int(p)) for p in np.random.default_rng(0).integers(1, 120, 300)])
        a = simulate(cases, RandBid(upper=150, seed=3), 2000, CampaignSpec(1, 0))
        b = simulate(cases, RandBid(upper=150, seed=3), 2000, CampaignSpec(1, 0))
        assert a == b


class TestAgainstReference:
    def test_all_strategy_families_match_reference(self, small_synth):
        train, test, truth = small_synth
        cases = test[:700]
        pctr = truth.test_p[:700]
        budget = make_budget(cases, Fraction(1, 8))
        camp = CampaignSpec(1, 3)
        strategies = [
            (ConstBid(70), None),
            (RandBid(upper=140, seed=11), None),
            (McpcBid(55.0), pctr),
            (LinBid(60, avg_ctr=0.05), pctr),
        ]
        for strategy, p in strategies:
            res = simulate(cases, strategy, budget, camp, pctr=p)
            ref = reference_simulate(cases, strategy, budget, pctr=p)
            assert (res.wins, res.clicks, res.convs, res.cost_milli) == ref

    def test_sum_rule_with_full_budget(self, small_synth):
        _, test, _ = small_synth
        data = ReplayData.from_cases(test)
        top = int(max(data.paying.max(), data.floor.max())) + 1
        res = simulate(data, ConstBid(top), make_budget(data, 1), CampaignSpec(1, 0))
        assert res.wins == len(test)
        assert res.clicks == int(data.clicked.sum())
        assert res.convs == int(data.converted.sum())
        assert res.cost_milli == data.total_cost_milli

    def test_budget_monotonicity_and_subset(self, small_synth):
        _, test, truth = small_synth
        data = ReplayData.from_cases(test)
        pctr = truth.test_p
        camp = CampaignSpec(1, 2)
        prev = None
        prev_set = None
        for frac in (Fraction(1, 32), Fraction(1, 8), Fraction(1, 2), Fraction(1)):
            budget = make_budget(data, frac)
            res = simulate(data, LinBid(70, avg_ctr=0.05), budget, camp, pctr=pctr, keep_trace=True)
            win_set = set(np.flatnonzero(res.trace.win).tolist())
            if prev is not None:
                assert res.wins >= prev.wins and res.clicks >= prev.clicks
                assert res.convs >= prev.convs and res.cost_milli >= prev.cost_milli
                assert prev_set <= win_set
            prev, prev_set = res, win_set

    def test_zero_bid_absorption(self, small_synth):
        _, test, _ = small_synth
        data = ReplayData.from_cases(test)
        budget = make_budget(data, Fraction(1, 16))
        res = simulate(data, ConstBid(200), budget, CampaignSpec(1, 0), keep_trace=True)
        assert res.exhausted_at is not None
        assert not res.trace.win[res.exhausted_at:].any()
        assert res.trace.spent_after[-1] == res.cost_milli


class TestRunExperiment:
    def _run(self, cases, n_weight=0, season=None, entries=None):
        camp = CampaignSpec(9001, n_weight, season)
        data = ReplayData.from_cases(cases)
        return CampaignRun(camp, data, entries)

    def test_single_cell_matches_simulate(self, small_synth):
        _, test, _ = small_synth
        entries = [StrategyEntry("Const", ConstBid(80))]
        run = self._run(test, entries=entries)
        tables = run_experiment([run], [Fraction(1, 2)])
        table = tables.get("clicks", Fraction(1, 2))
        direct = simulate(run.test, ConstBid(80), make_budget(run.test, Fraction(1, 2)),
                          run.campaign)
        assert table.rows[0] == ("9001", [direct.clicks])
        assert table.rows[-1] == ("Total", [direct.clicks])

    def test_totals_and_season_rows(self, small_synth):
        _, test, _ = small_synth
        half = len(test) // 2
        entries_a = [StrategyEntry("Const", ConstBid(80)), StrategyEntry("Rand", RandBid(90, seed=1))]
        entries_b = [StrategyEntry("Const", ConstBid(80)), StrategyEntry("Rand", RandBid(90, seed=1))]
        run_a = CampaignRun(CampaignSpec(1, 0, season=2), ReplayData.from_cases(test[:half]), entries_a)
        run_b = CampaignRun(CampaignSpec(2, 0, season=3), ReplayData.from_cases(test[half:]), entries_b)
        tables = run_experiment([run_a, run_b], [Fraction(1, 8)])
        table = tables.get("clicks", Fraction(1, 8))
        names = [name for name, _ in table.rows]
        assert names == ["1", "2", "S2", "S3", "Total"]
        by_name = dict(table.rows)
        assert by_name["Total"] == [a + b for a, b in zip(by_name["1"], by_name["2"])]
        assert by_name["S2"] == by_name["1"] and by_name["S3"] == by_name["2"]

    def test_score_cells_print_as_integers(self, small_synth):
        _, test, _ = small_synth
        half = len(test) // 2
        entries = [StrategyEntry("Const", ConstBid(80)), StrategyEntry("Rand", RandBid(90, seed=1))]
        run_a = CampaignRun(CampaignSpec(1, 2, season=2), ReplayData.from_cases(test[:half]), entries)
        run_b = CampaignRun(CampaignSpec(2, 0, season=3), ReplayData.from_cases(test[half:]), entries)
        table = run_experiment([run_a, run_b], [Fraction(1, 8)]).get("score", Fraction(1, 8))
        for line in table.to_csv().splitlines()[1:]:
            assert all("." not in cell for cell in line.split(",")[1:]), line
        for line in table.to_markdown().splitlines()[4:]:
            assert all("." not in cell for cell in line.strip("|").split("|")[1:]), line

    def test_callable_entries_resolved_per_fraction(self, small_synth):
        _, test, _ = small_synth
        seen = []

        def factory(fraction):
            seen.append(fraction)
            return ConstBid(60)

        run = self._run(test, entries=[StrategyEntry("Const", factory)])
        run_experiment([run], [Fraction(1, 32), Fraction(1, 8)])
        assert seen == [Fraction(1, 32), Fraction(1, 8)]

    def test_mismatched_labels_rejected(self, small_synth):
        _, test, _ = small_synth
        run_a = self._run(test, entries=[StrategyEntry("Const", ConstBid(1))])
        run_b = self._run(test, entries=[StrategyEntry("Rand", RandBid(5))])
        with pytest.raises(ValueError):
            run_experiment([run_a, run_b], [Fraction(1, 2)])

    def test_table_files(self, tmp_path, small_synth):
        _, test, _ = small_synth
        run = self._run(test, entries=[StrategyEntry("Const", ConstBid(80))])
        tables = run_experiment([run], [Fraction(1, 32)])
        written = tables.write(tmp_path)
        assert sorted(p.name for p in written) == [
            "table_clicks_1_32.csv", "table_clicks_1_32.md",
            "table_convs_1_32.csv", "table_convs_1_32.md",
            "table_score_1_32.csv", "table_score_1_32.md",
        ]
        csv = (tmp_path / "table_clicks_1_32.csv").read_text().splitlines()
        assert csv[0] == "campaign,Const"
        md = (tmp_path / "table_clicks_1_32.md").read_text()
        assert "| campaign | Const |" in md
