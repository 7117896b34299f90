from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest

from conftest import make_case
from rtbsim.logdata import EVENT_LOG, AuctionCase, CaseTable, MissingValue, join_events, load_log
from rtbsim.synthgen import (
    _DENSE_SPAN,
    DegenerateConfig,
    SynthConfig,
    _coded,
    _numbered,
    _rank,
    generate,
    write_dataset,
)


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
    median = float(np.median(train.ints("paying_price")))
    target = math.exp(config.market_mu)  # 70
    assert abs(median - target) <= 0.10 * target


def test_same_seed_is_byte_identical(tmp_path):
    config = SynthConfig(seed=11, n_train=300, n_test=100)
    train1, test1, truth1 = generate(config)
    train2, test2, truth2 = generate(config)
    assert train1.cases() == train2.cases() and test1.cases() == test2.cases()
    assert np.array_equal(truth1.true_weights, truth2.true_weights)
    a = write_dataset(train1, tmp_path / "a")
    b = write_dataset(train2, tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()


# sha256 of each file write_dataset makes from a block, per config; the
# default config's bytes are pinned by tests/gbrt_chain_seed3.sha256.
SYNTH_PINS = [
    (dict(seed=5, n_train=1, n_test=1), {
        "train/imp.txt": "4775cab0e579cda68ea89133eaf1294f62c612cd3ae77e5283c2acfc26afa442",
        "train/clk.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "train/cnv.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "test/imp.txt": "094d1653178bebdc54ad31a59a27024316abde2c8411d8c0569ee736a5847b21",
        "test/clk.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "test/cnv.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    # every tag in every case, all ten slot sizes, prices that follow the
    # click logit, and a training block that crosses into 2014
    (dict(seed=8, n_train=300, n_test=100, n_tags=4, tags_per_case=4, n_slot_sizes=10,
          price_click_correlation=0.5, base_ctr=0.2, conversion_given_click=0.5,
          start_time="20131231235950000"), {
        "train/imp.txt": "38ec2459b755ab4015f35059bbf2c3a127579867181f0618644d95bebb6c1d30",
        "train/clk.txt": "ac8ca3b94e683b8f8eb1a7045f8586421c4aa9754e1488d625d4d9115f1f8fe4",
        "train/cnv.txt": "657186ac0c8a177af14433709c56270b20cbfda7f04a29bb2b11f983d278d118",
        "test/imp.txt": "e3564cb0a3131fd10274ac42f457b6a10b50ab6587d45433427e58af9052f155",
        "test/clk.txt": "ae763769febec7645a05186c8055512a8dd673009b2539b1d42da3554f8f8e90",
        "test/cnv.txt": "08f569d5cdaca690689fe4318234b6c563de05208977185aa64b0c9a1c6479a7",
    }),
]


@pytest.mark.parametrize("kwargs, digests", SYNTH_PINS, ids=["one-case", "all-tags"])
def test_dataset_bytes_pinned(tmp_path, kwargs, digests):
    train, test, _ = generate(SynthConfig(**kwargs))
    assert all(type(ts) is datetime for ts in train.column("timestamp") + test.column("timestamp"))
    for name, cases in (("train", train), ("test", test)):
        write_dataset(cases, tmp_path / name)
    found = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() for rel in digests}
    assert found == digests


LATEST_START = dict(seed=1, n_train=1, n_test=1, start_time="99991231235859201")


def test_latest_start_time():
    # Two cases may take up to 399 ms each, plus the minute before the test
    # block: 60.798 s before datetime.max is the last start allowed.
    train, test, _ = generate(SynthConfig(**LATEST_START))
    assert all(type(ts) is datetime for ts in train.column("timestamp") + test.column("timestamp"))
    assert test.column("timestamp")[0].year == 9999
    with pytest.raises(ValueError, match="^start_time 99991231235859202 is too late"):
        SynthConfig(seed=1, n_train=1, n_test=1, start_time="99991231235859202")
    with pytest.raises(ValueError, match="^start_time 99991231235959000 is too late"):
        SynthConfig(seed=1, start_time="99991231235959000")


def assert_same_table(got: CaseTable, want: CaseTable) -> None:
    """Equal codes, values in the same order and of the same types, lists
    timestamps and flags; ``repr`` tells an int from a numpy integer and a
    tuple from a list."""
    assert list(got.codes) == list(want.codes) == list(got.values) == list(want.values)
    for name, codes in want.codes.items():
        assert got.codes[name].dtype == codes.dtype == np.int64, name
        assert np.array_equal(got.codes[name], codes), name
        assert repr(got.values[name]) == repr(want.values[name]), name
    assert list(got.lists) == list(want.lists)
    for name, items in want.lists.items():
        assert type(got.lists[name]) is list and repr(got.lists[name]) == repr(items), name
    assert got.timestamp_ms.dtype == want.timestamp_ms.dtype == np.int64
    assert np.array_equal(got.timestamp_ms, want.timestamp_ms)
    for got_flags, want_flags in ((got.clicked, want.clicked), (got.converted, want.converted)):
        assert got_flags.dtype == want_flags.dtype == bool
        assert np.array_equal(got_flags, want_flags)


@pytest.mark.parametrize("kwargs", [kwargs for kwargs, _ in SYNTH_PINS] + [
    LATEST_START,
    dict(seed=2, n_train=300, n_test=100, n_tags=40, tags_per_case=40),
    dict(seed=3, n_train=300, n_test=100, n_tags=40, tags_per_case=20),
    dict(seed=4, n_train=300, n_test=100, max_floor=2**62 - 1),
], ids=["one-case", "all-tags", "latest-start", "40-of-40-tags", "20-of-40-tags", "floors-near-2**62"])
def test_tables_equal_the_tables_of_their_logs(tmp_path, kwargs):
    # A generated table is the table its written logs read back to, and the
    # table CaseTable.of makes of its cases.
    for name, table in zip(("train", "test"), generate(SynthConfig(**kwargs))):
        write_dataset(table, tmp_path / name)
        assert_same_table(table, CaseTable.read(tmp_path / name, strict=True))
        assert_same_table(table, CaseTable.of(table.cases()))
        assert list(table) == table.cases()


def first_seen(keys: np.ndarray, pool=None) -> tuple[list, list]:
    """Reference coding: each row's index into its distinct rows (tuples,
    when ``keys`` is 2-D) in the order each first appears, and those rows,
    or their ``pool`` entries."""
    rows = keys.tolist()
    if keys.ndim == 2:
        rows = list(map(tuple, rows))
    held = list(dict.fromkeys(rows))
    at = {row: code for code, row in enumerate(held)}
    return [at[row] for row in rows], held if pool is None else [pool[k] for k in held]


_rng = np.random.default_rng(12)


def _spanning(span: int, n: int) -> np.ndarray:
    """``n`` keys from 5 to ``5 + span - 1``, both ends held."""
    keys = _rng.integers(5, 5 + span, n)
    keys[[3, n - 2]] = 5, 5 + span - 1
    return keys


CODED_KEYS = {
    "one-row": np.array([7]),
    "one-row-tags": np.array([[2, 5, 9]]),
    "one-value": np.full(50, 3),
    "one-value-tags": np.tile([1, 2, 3], (50, 1)),
    "all-distinct": _rng.permutation(500),
    "all-distinct-tags": np.column_stack([np.arange(500), np.arange(500)[::-1]]),
    "near-2**62": _rng.integers(2**62 - 40, 2**62, 500),
    "near-2**62-tags": np.sort(_rng.integers(2**62 - 3, 2**62, (500, 4)), axis=1),
    "zipf-like": _rng.geometric(0.3, 2000),
    "tag-rows": np.sort(np.argsort(_rng.random((2000, 12)), axis=1)[:, :3], axis=1) + 1,
    "every-tag": np.tile(np.arange(1, 41), (30, 1)),
    "half-the-tags": np.sort(np.argsort(_rng.random((300, 40)), axis=1)[:, :20], axis=1) + 1,
    # either side of the counting coder's span bound (_DENSE_SPAN rows' worth)
    "span-at-the-bound": _spanning(_DENSE_SPAN * 300, 300),
    "span-past-the-bound": _spanning(_DENSE_SPAN * 300 + 1, 300),
    "near-2**62-wide": _rng.integers(2**62 - 10**6, 2**62, 500),
    "int64-extremes": np.array([2**63 - 1, -2**63, 0, 2**63 - 1, -1, -2**63]),
    "negative": _rng.integers(-50, 50, 300),
    "one-row-wide-tags": np.array([[1, 2**40, 2**62]]),
    # a first tag column counted, its re-ranks past the bound and sorted
    "few-rows-many-tags": np.sort(np.argsort(_rng.random((20, 40)), axis=1)[:, :3], axis=1) + 1,
    "wide-tag-rows": np.sort(_rng.integers(0, 10**9, (400, 3)), axis=1),
}


@pytest.mark.parametrize("keys", CODED_KEYS.values(), ids=CODED_KEYS)
def test_coded_codes_in_first_seen_order(keys):
    codes, values = _coded(keys)
    want_codes, want_values = first_seen(keys)
    assert codes.dtype == np.int64 and codes.tolist() == want_codes
    assert repr(values) == repr(want_values)  # ints and tuples, not numpy scalars or lists


@pytest.mark.parametrize("span, sorts", [(_DENSE_SPAN * 300, 0), (_DENSE_SPAN * 300 + 1, 1)],
                         ids=["at-the-bound", "past-the-bound"])
def test_rank_sorts_only_past_the_dense_span(monkeypatch, span, sorts):
    unique, calls = np.unique, []
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: calls.append(args) or unique(*args, **kwargs))
    keys = _spanning(span, 300)
    rank, count = _rank(keys)
    assert len(calls) == sorts
    monkeypatch.undo()
    distinct, want = np.unique(keys, return_inverse=True)
    assert rank.dtype == np.int64 and rank.tolist() == want.tolist() and count == len(distinct)


def test_coded_with_a_pool():
    pool = ("a", "b", "c", "d")
    keys = np.array([2, 2, 0, 3, 0, 2])
    codes, values = _coded(keys, pool)
    assert (codes.tolist(), values) == first_seen(keys, pool) == ([0, 0, 1, 2, 1, 0], ["c", "a", "d"])


@pytest.mark.parametrize("n", [0, 1, 999, 1000, 1001, 2345])
def test_numbered_ids(n):
    assert _numbered("u1", 12, n) == [f"u1{i:012d}" for i in range(n)]


def test_write_dataset_refuses_an_absent_value(tmp_path):
    absent = AuctionCase(replace(make_case(bid_id="b").record, city=None), False, False)
    cases = [make_case(bid_id="a"), absent]
    expected = "column 8: the record has no city, and only optional text may be absent"
    with pytest.raises(MissingValue, match=f"^{expected}$"):
        write_dataset(cases, tmp_path)


def test_write_dataset_ignores_an_absent_value_no_row_holds(tmp_path):
    # The rows taken share the table's values, which still hold the absent
    # city of the row left out.
    absent = AuctionCase(replace(make_case(bid_id="b").record, city=None), False, False)
    table = CaseTable.of([make_case(bid_id="a"), absent, make_case(bid_id="c")])
    assert None in table.values["city"]
    write_dataset(table.take(np.array([0, 2])), tmp_path)
    assert [c.bid_id for c in CaseTable.read(tmp_path, strict=True)] == ["a", "c"]


def test_write_dataset_writes_only_the_values_a_row_holds(tmp_path):
    # The row taken shares the table's log types, which still hold the
    # absent log type of the row left out: no writer may see that value.
    absent = AuctionCase(replace(make_case(bid_id="b").record, log_type=None), False, False)
    table = CaseTable.of([make_case(bid_id="a"), absent]).take(np.array([0]))
    assert None in table.values["log_type"]
    write_dataset(table, tmp_path)
    assert [c.bid_id for c in CaseTable.read(tmp_path, strict=True)] == ["a"]


def test_different_seeds_differ():
    t1, _, _ = generate(SynthConfig(seed=1, n_train=200, n_test=50))
    t2, _, _ = generate(SynthConfig(seed=2, n_train=200, n_test=50))
    assert t1.cases() != t2.cases()


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
