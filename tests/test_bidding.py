from __future__ import annotations

import math
import re
from datetime import datetime, timedelta

import numpy as np
import pytest

from rtbsim import bidding, kernels, kvfile, replay
from rtbsim.bidding import (
    DEFAULT_GRID,
    BidOverflow,
    CampaignSpec,
    ConstBid,
    GridRow,
    IPINYOU_CAMPAIGNS,
    LinBid,
    McpcBid,
    MissingPctr,
    NoClicks,
    RandBid,
    bid_vector,
    compute_bid,
    estimate_max_ecpc,
    tune,
    write_grid_csv,
)
from rtbsim.logdata import CaseTable
from rtbsim.models import EvalReport, GbrtHyper, LrHyper

from conftest import make_case


def test_campaign_spec_rejects_a_negative_conversion_weight():
    assert CampaignSpec(1, 0).n_weight == 0
    with pytest.raises(ValueError, match="^conversion weight must be >= 0, got -1$"):
        CampaignSpec(1, -1)


class TestMaxEcpc:
    def test_published_scale_ratio(self):
        # 212,400 fen over 2,454 clicks, the training cost/clicks of the
        # benchmark's advertiser 1458, comes out at eCPC 86.55.
        cases = [make_case(paying=50_000, clicked=True, bid_id=f"c{i}") for i in range(2454)]
        cases.append(make_case(paying=212_400_000 - 2454 * 50_000, clicked=False, bid_id="rest"))
        assert estimate_max_ecpc(cases) == pytest.approx(86.55, abs=0.01)

    def test_single_click(self):
        cases = [make_case(paying=1000, clicked=True)]
        assert estimate_max_ecpc(cases) == pytest.approx(1.0)

    def test_no_clicks(self):
        with pytest.raises(NoClicks):
            estimate_max_ecpc([make_case(paying=10)])


class TestComputeBid:
    def test_const(self):
        assert compute_bid(ConstBid(300)) == 300

    def test_lin_identity_at_average(self):
        assert compute_bid(LinBid(69, avg_ctr=0.0008), pctr=0.0008) == 69

    def test_mcpc_unit_bridge(self):
        # 86.55 fen/click * 0.0008 * 1000 = 69.24 -> 69 milli-fen
        assert compute_bid(McpcBid(86.55), pctr=0.0008) == 69

    def test_half_up_rounding(self):
        assert compute_bid(LinBid(5, avg_ctr=0.1), pctr=0.05) == 3  # 2.5 rounds up

    def test_lin_multiplies_before_it_divides(self):
        # 3 * 0.35 / 0.3 is one ulp below 3.5, and 3 * (0.35 / 0.3) is 3.5:
        # Lin's order of operations decides the rounding.
        assert 3 * 0.35 / 0.3 == math.nextafter(3.5, 0) and 3 * (0.35 / 0.3) == 3.5
        strategy = LinBid(3, avg_ctr=0.3)
        assert compute_bid(strategy, pctr=0.35) == 3
        assert bid_vector(strategy, 2, pctr=np.array([0.35, 0.35])).tolist() == [3, 3]

    def test_missing_pctr(self):
        with pytest.raises(MissingPctr):
            compute_bid(McpcBid(50.0))
        with pytest.raises(MissingPctr):
            compute_bid(LinBid(10, avg_ctr=0.01))

    def test_rand_reproducible_and_bounded(self):
        s = RandBid(upper=200, seed=9)
        a = bid_vector(s, 1000)
        b = bid_vector(s, 1000)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() <= 200

    def test_rand_mean_near_half_upper(self):
        draws = bid_vector(RandBid(upper=200, seed=1), 100_000)
        assert abs(draws.mean() - 100.0) <= 0.01 * 200

    def test_rand_lower_bound_override(self):
        draws = bid_vector(RandBid(upper=50, seed=2, lower=40), 5000)
        assert draws.min() >= 40 and draws.max() <= 50

    def test_lin_monotone_in_pctr(self):
        s = LinBid(80, avg_ctr=0.01)
        bids = [compute_bid(s, pctr=p) for p in np.linspace(0.001, 0.5, 100)]
        assert all(a <= b for a, b in zip(bids, bids[1:]))


class TestBidVector:
    def test_matches_scalar_path_all_families(self):
        rng = np.random.default_rng(6)
        n = 500
        pctr = rng.uniform(0.0001, 0.2, size=n)
        strategies = [
            ConstBid(77),
            RandBid(upper=120, seed=5),
            McpcBid(90.5),
            LinBid(60, avg_ctr=0.05),
        ]
        for s in strategies:
            vec = bid_vector(s, n, pctr=pctr)
            stream = s.stream() if isinstance(s, RandBid) else None
            scalars = [
                compute_bid(s, pctr=float(pctr[i]), rng=stream) for i in range(n)
            ]
            assert vec.tolist() == scalars

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, 1.0, 1.5])
    @pytest.mark.parametrize("strategy", [McpcBid(90.5), LinBid(60, avg_ctr=0.05)])
    def test_both_paths_reject_pctr_outside_unit_interval(self, strategy, bad):
        with pytest.raises(ValueError, match=rf"pctr must be in \(0, 1\), got {bad!r}") as scalar:
            compute_bid(strategy, pctr=bad)
        with pytest.raises(ValueError) as vector:
            bid_vector(strategy, 3, pctr=np.array([0.01, bad, 0.5]))
        assert str(vector.value) == str(scalar.value)

    @pytest.mark.parametrize("strategy", [LinBid(3 * 10**18, avg_ctr=0.05), McpcBid(5e16)])
    def test_both_paths_reject_a_bid_beyond_int64(self, strategy):
        # pCTR 0.2 bids about 1.2e19 and 1e19: no int64 holds either, so
        # neither path may return a bid, and the vector path no cast one.
        pctr = np.array([0.01, 0.2, 0.001])
        with pytest.raises(bidding.BidOverflow, match=r"not below 2\*\*63") as scalar:
            compute_bid(strategy, pctr=0.2)
        with pytest.raises(bidding.BidOverflow) as vector:
            bid_vector(strategy, 3, pctr=pctr)
        assert str(vector.value) == str(scalar.value)
        assert bid_vector(strategy, 2, pctr=pctr[[0, 2]]).tolist() == [
            compute_bid(strategy, pctr=float(p)) for p in pctr[[0, 2]]]

    def test_the_greatest_int64_bid_is_kept(self):
        top = 2**63 - 1
        for strategy in (ConstBid(top), RandBid(upper=top, lower=top)):
            assert compute_bid(strategy) == top
            assert bid_vector(strategy, 2).tolist() == [top, top]
        for make in (ConstBid, lambda bid: RandBid(upper=bid)):
            with pytest.raises(bidding.BidOverflow, match=r"9223372036854775808 is not below 2\*\*63"):
                make(top + 1)


def _tune_fixture():
    """Lin grid {10, 50, 300}: 300 exhausts the budget on early cases,
    50 wins exactly the high-pCTR (clicked) cases, 10 wins nothing.

    Every fourth case is hot (clicked, pctr 0.5); realized avg_ctr is 0.25,
    so base b bids 2b on hot cases and 0.4b on the rest against price 30.
    """
    t0 = datetime(2013, 6, 6)
    cases = []
    pctr = []
    for i in range(200):
        hot = i % 4 == 0
        cases.append(make_case(
            paying=30, floor=0, clicked=hot,
            ts=t0 + timedelta(seconds=i), bid_id=f"b{i:04d}",
        ))
        pctr.append(0.5 if hot else 0.1)
    return cases, np.array(pctr)


class TestTune:
    def test_budget_adaptive_parameter_wins(self):
        cases, pctr = _tune_fixture()
        campaign = CampaignSpec(1, 0)
        best, rows = tune("lin", cases, "1/8", (10, 50, 300), campaign, pctr=pctr)
        assert best.parameter == 50
        # exhaustive oracle: replay each grid point directly
        data = replay.ReplayData.from_cases(cases)
        budget = replay.make_budget(cases, "1/8")
        scores = {}
        for param in (10, 50, 300):
            s = LinBid(param, avg_ctr=float(np.mean([c.clicked for c in cases])))
            scores[param] = replay.simulate(data, s, budget, campaign, pctr=pctr).score
        assert max(scores, key=lambda p: (scores[p], -p)) == 50
        assert {r.parameter: r.score for r in rows} == scores

    def test_single_point_grid(self):
        cases, pctr = _tune_fixture()
        best, rows = tune("lin", cases, "1/2", (42,), CampaignSpec(1, 0), pctr=pctr)
        assert best.parameter == 42 and len(rows) == 1

    def test_tie_breaks_to_smaller_parameter(self):
        # both constants clear every price, so scores tie
        cases = [make_case(paying=5, clicked=(i % 2 == 0),
                           ts=datetime(2013, 6, 6) + timedelta(seconds=i), bid_id=f"t{i}")
                 for i in range(10)]
        best, rows = tune("const", cases, 1, (20, 10), CampaignSpec(1, 0))
        assert rows[0].score == rows[1].score
        assert best.parameter == 10

    @pytest.mark.parametrize("family", ["const", "rand", "lin"])
    def test_prebuilt_columns_match_case_list(self, family):
        cases, pctr = _tune_fixture()
        p = pctr if family == "lin" else None
        kwargs = dict(campaign=CampaignSpec(1, 0), pctr=p, seed=4)
        from_list = tune(family, cases, "1/8", (10, 50, 300), **kwargs)
        from_data = tune(family, replay.ReplayData.from_cases(cases), "1/8", (10, 50, 300), **kwargs)
        assert from_data == from_list

    def test_mcpc_not_tunable(self):
        with pytest.raises(ValueError):
            tune("mcpc", [make_case()], "1/8", DEFAULT_GRID, CampaignSpec(1, 0))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            tune("const", [make_case()], "1/8", (), CampaignSpec(1, 0))

    def test_kpi_weight_changes_winner(self):
        # the expensive first case converts; a large N makes winning it
        # worth exhausting the whole budget on it
        t0 = datetime(2013, 6, 6)
        cases = [
            make_case(paying=100, clicked=True, converted=True, ts=t0, bid_id="a"),
            make_case(paying=10, clicked=True, ts=t0 + timedelta(seconds=1), bid_id="b"),
            make_case(paying=10, clicked=True, ts=t0 + timedelta(seconds=2), bid_id="c"),
        ] + [
            make_case(paying=1, ts=t0 + timedelta(seconds=3 + i), bid_id=f"f{i}")
            for i in range(7)
        ]
        pctr = np.array([0.5, 0.3, 0.3] + [0.0001] * 7)  # avg_ctr = 3/10
        budget_fraction = "100/127"  # 100 milli of the 127 total
        best_plain, _ = tune("lin", cases, budget_fraction, (20, 300), CampaignSpec(1, 0), pctr=pctr)
        best_weighted, _ = tune("lin", cases, budget_fraction, (20, 300), CampaignSpec(1, 50), pctr=pctr)
        assert best_plain.parameter == 20   # two cheap clicks beat one
        assert best_weighted.parameter == 300  # one click + weighted conversion wins


def _tune_point_by_point(family, train, fraction, grid, campaign, pctr=None, seed=0):
    """``tune`` as one ``simulate`` per grid point, in grid order, keeping
    the first point of the best score."""
    data = replay.ReplayData.from_cases(train)
    budget = replay.make_budget(data, fraction)
    avg_ctr = int(data.clicked.sum()) / len(data)
    rows, best = [], None
    for param in sorted(grid):
        strategy = {"const": lambda: ConstBid(param),
                    "rand": lambda: RandBid(upper=param, seed=seed),
                    "lin": lambda: LinBid(param, avg_ctr=avg_ctr)}[family]()
        r = replay.simulate(data, strategy, budget, campaign, pctr=pctr)
        rows.append(GridRow(param, r.wins, r.clicks, r.convs, r.cost_fen, r.score))
        if best is None or r.score > best[1]:
            best = (strategy, r.score)
    return best[0], rows


# Const 300, 10**4 and 2 * 10**4 outbid every case of small_synth until the
# budget runs out, so their scores tie at the top; 300 is listed twice.
TIED_GRID = (20_000, 1, 2, 5, 20, 300, 300, 10_000)


class TestTuneOneScan:
    @pytest.fixture(scope="class")
    def train(self, small_synth):
        train, _, truth = small_synth
        return CaseTable.of(train), truth.train_p

    @pytest.mark.parametrize("cells", [None, 10_000])
    @pytest.mark.parametrize("n_weight", [0, 4])
    @pytest.mark.parametrize("family", ["const", "rand", "lin"])
    def test_equals_one_simulate_per_point(self, train, family, n_weight, cells, monkeypatch):
        # With 10,000 cells to a block the 4,000 training cases are scanned
        # two grid points at a time.
        if cells:
            monkeypatch.setattr(kernels, "SCAN_CELLS", cells)
        table, train_p = train
        pctr = train_p if family == "lin" else None
        campaign = CampaignSpec(1, n_weight)
        for fraction in ("1/32", "1/2"):
            want = _tune_point_by_point(family, table, fraction, TIED_GRID, campaign, pctr, seed=3)
            got = tune(family, table, fraction, TIED_GRID, campaign, pctr=pctr, seed=3)
            assert got == want
            if family == "const":
                scores = [r.score for r in got[1]]
                assert scores.count(max(scores)) == 4 and got[0].parameter == 300

    @pytest.mark.parametrize("seed", [0, 3, 2**40])
    @pytest.mark.parametrize("cells", [None, 3 * 4000], ids=["one-block", "blocks-of-3"])
    def test_rand_rows_equal_each_points_fresh_stream(self, train, seed, cells, monkeypatch):
        # tune draws every point's bids from one generator, its seeded state
        # restored per point; each row must be the point's own stream.
        if cells:
            monkeypatch.setattr(kernels, "SCAN_CELLS", cells)
        table, _ = train
        grid = (2, 3, 255, 256, 1000, 2**20, 2**31, 2**40)
        campaign = CampaignSpec(1, 2)
        budget = replay.make_budget(replay.ReplayData.of(table), "1/4")
        want = []
        for upper in grid:  # simulate draws from RandBid.stream(), a fresh generator
            r = replay.simulate(table, RandBid(upper=upper, seed=seed), budget, campaign)
            want.append(GridRow(upper, r.wins, r.clicks, r.convs, r.cost_fen, r.score))
        assert len({row.score for row in want}) > 2
        assert tune("rand", table, "1/4", grid, campaign, seed=seed)[1] == want

    @pytest.mark.parametrize("family", ["const", "rand", "lin"])
    def test_each_row_is_the_points_bid_vector(self, train, family, monkeypatch):
        # The rows that reach the kernel, in order, are bid_vector's bids
        # for each grid point.
        table, train_p = train
        pctr = train_p if family == "lin" else None
        scanned = []
        scan = kernels.win_scan

        def spy(bids, *args):
            scanned.append(np.array(bids))
            return scan(bids, *args)

        monkeypatch.setattr(kernels, "win_scan", spy)
        best, rows = tune(family, table, "1/8", TIED_GRID, CampaignSpec(1, 0), pctr=pctr, seed=3)
        avg_ctr = float(table.clicked.sum()) / len(table)
        make = {"const": ConstBid, "rand": lambda b: RandBid(upper=b, seed=3),
                "lin": lambda b: LinBid(b, avg_ctr=avg_ctr)}[family]
        want = [bid_vector(make(r.parameter), len(table), pctr=pctr) for r in rows]
        assert len(scanned) == 1 and np.array_equal(scanned[0], np.array(want))

    @pytest.mark.parametrize("cells", [None, 1])
    def test_lin_overflow_at_the_same_point(self, train, cells, monkeypatch):
        # The two greatest base bids both pass 2**63 on the greatest pCTR;
        # the error names the smaller one's bid, as one simulate per point.
        if cells:
            monkeypatch.setattr(kernels, "SCAN_CELLS", cells)
        table, train_p = train
        avg_ctr = float(table.clicked.sum()) / len(table)
        over = int(2.0 ** 63 * avg_ctr / train_p.max()) * 2
        grid = (10, 50, over, 2 * over)
        with pytest.raises(BidOverflow, match=r"not below 2\*\*63") as want:
            _tune_point_by_point("lin", table, "1/8", grid, CampaignSpec(1, 0), train_p)
        with pytest.raises(BidOverflow) as got:
            tune("lin", table, "1/8", grid, CampaignSpec(1, 0), pctr=train_p)
        assert str(got.value) == str(want.value)
        with pytest.raises(BidOverflow) as last:
            tune("lin", table, "1/8", grid[-1:], CampaignSpec(1, 0), pctr=train_p)
        assert str(last.value) != str(got.value)

    def test_bad_pctr_named_before_any_overflow(self, train):
        table, train_p = train
        pctr = train_p.copy()
        pctr[7] = 1.5
        with pytest.raises(ValueError, match=r"pctr must be in \(0, 1\), got 1.5"):
            tune("lin", table, "1/8", (10, 2**70), CampaignSpec(1, 0), pctr=pctr)


class TestScalingInvariance:
    def test_doubling_base_bid_doubles_bids_exactly(self):
        # power-of-two scaling commutes with IEEE rounding, so the raw
        # bid function doubles exactly; with integral raw bids the
        # half-up rounding is the identity and the doubling is visible
        # in the emitted integers too
        rng = np.random.default_rng(8)
        avg = 0.01
        pctr = rng.integers(1, 40, size=500) * avg  # raw bids are integral
        b1 = bid_vector(LinBid(37, avg_ctr=avg), 500, pctr=pctr)
        b2 = bid_vector(LinBid(74, avg_ctr=avg), 500, pctr=pctr)
        assert np.array_equal(b2, 2 * b1)

    def test_win_set_unchanged_on_doubled_price_log(self, small_synth):
        train, _, _ = small_synth
        cases = train[:800]
        rng = np.random.default_rng(8)
        pctr = rng.integers(1, 40, size=len(cases)) * 0.01
        data = replay.ReplayData.from_cases(cases)
        doubled = replay.ReplayData(
            paying=data.paying * 2, floor=data.floor * 2,
            clicked=data.clicked, converted=data.converted,
        )
        big = 10 ** 15
        camp = CampaignSpec(1, 0)
        r1 = replay.simulate(data, LinBid(37, avg_ctr=0.01), big, camp, pctr=pctr, keep_trace=True)
        r2 = replay.simulate(doubled, LinBid(74, avg_ctr=0.01), big, camp, pctr=pctr, keep_trace=True)
        assert np.array_equal(r1.trace.win, r2.trace.win)
        assert r1.clicks == r2.clicks and r1.wins == r2.wins


def _seeded_records():
    """Each dataclass written in kvfile form, with floats of any exponent."""
    rng = np.random.default_rng(17)

    def num():
        return float(rng.random() * 10.0 ** rng.integers(-300, 300))

    def count():
        return int(rng.integers(0, 10 ** 9))

    return [
        ConstBid(count()),
        RandBid(upper=count(), seed=count()),
        McpcBid(num(), model="lr"),
        McpcBid(num()),
        LinBid(count(), avg_ctr=float(rng.random()) or 1.0, model="gbrt"),
        LrHyper(num(), num(), count(), count()),
        GbrtHyper(count(), num(), count() % 21, count()),  # max_depth <= 20
        EvalReport(float(rng.random()), num(), count()),
    ]


_SEEDED = _seeded_records()


class TestStrategyFiles:
    @pytest.mark.parametrize("record", [
        ConstBid(44),
        RandBid(upper=90, seed=3, lower=5),
        McpcBid(86.55, model="lr"),
        LinBid(69, avg_ctr=0.0008, model="gbrt"),
        *_SEEDED,
    ], ids=[f"strategy{i}" for i in range(4)] + [f"seeded-{type(r).__name__}" for r in _SEEDED])
    def test_round_trip(self, record):
        loaded = kvfile.load(type(record), kvfile.dump(record))
        assert loaded == record and repr(loaded) == repr(record)  # floats bit-equal

    def test_unknown_key_rejected(self):
        # a misspelt key must not load the field's default (seed=0) silently
        with pytest.raises(ValueError, match="seeed"):
            kvfile.load(RandBid, ["upper=5", "seeed=3"])

    @pytest.mark.parametrize("cls, pairs, named", [
        (LinBid, ["avg_ctr=0.01"], "base_bid"),  # a field without a default
        (RandBid, ["upper=5"], "seed"),  # a field dump always writes
        (ConstBid, ["price"], "'price'"),  # no '='
        (ConstBid, ["price=4.5"], "price='4.5'"),  # not an int
        (ConstBid, ["price=4", "price=5"], "'price' is set more than once"),
    ], ids=["missing", "missing-default", "no-equals", "not-int", "twice"])
    def test_bad_pair_named(self, cls, pairs, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            kvfile.load(cls, pairs)

    def test_grid_csv(self, tmp_path):
        cases, pctr = _tune_fixture()
        _, rows = tune("lin", cases, "1/8", (10, 50), CampaignSpec(1, 0), pctr=pctr)
        write_grid_csv(rows, tmp_path / "grid.csv")
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "parameter,wins,clicks,convs,cost_fen,score"
        assert len(lines) == 3


def test_known_campaign_catalog():
    assert IPINYOU_CAMPAIGNS[3476].n_weight == 10
    assert IPINYOU_CAMPAIGNS[3358].n_weight == 2
    assert IPINYOU_CAMPAIGNS[2259].n_weight == 1
    assert IPINYOU_CAMPAIGNS[1458].n_weight == 0
    assert IPINYOU_CAMPAIGNS[1458].season == 2
    assert IPINYOU_CAMPAIGNS[2997].season == 3
    assert len(IPINYOU_CAMPAIGNS) == 9
