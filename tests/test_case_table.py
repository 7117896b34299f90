"""The column table against the per-record paths it replaces.

``CaseTable.read`` is checked against ``load_log`` + ``join_events`` over a
matrix of malformed splits, and every batch consumer of a table against a
copy of the per-record loop it replaced, kept here as the reference.
"""

from __future__ import annotations

import bz2
import calendar
import gzip
import re
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta
from functools import partial
from itertools import chain

import numpy as np
import pytest

from rtbsim import cli, logdata, synthgen
from rtbsim.features import (
    _FIELDS,
    CategoryEncodings,
    SparseBatch,
    Vocabulary,
    _spell,
    binarize,
    binarize_cases,
    build_encodings,
    build_vocabulary,
    densify,
    densify_cases,
    encoding_split,
    field_columns,
    field_values,
)
from rtbsim.logdata import (
    EVENT_LOG,
    AuctionCase,
    CaseTable,
    LogParseError,
    LogType,
    _find_logs,
    _parse_timestamp,
    _parse_timestamps,
    as_event,
    join_events,
    load_log,
    parse_record,
    serialize_record,
)
from rtbsim.stats import _breakdown, campaign_summary, feature_breakdowns, FEATURE_KEYS, METRICS

from conftest import epoch_ms, make_record
from test_logdata import MALFORMED

STEMS = (("imp",), ("clk",), ("cnv", "conv"))


def per_line(directory, strict):
    """The cases, skipped lines and join issues of the per-line path."""
    skipped, issues = [], []
    streams = [[record for path in _find_logs(directory, stems)
                for record in load_log(path, EVENT_LOG, strict, skipped)] for stems in STEMS]
    return join_events(*streams, issues), skipped, issues


def named(errors):
    return [(type(e), str(e), e.line_no) for e in errors]


def assert_reads_as_per_line(directory, capsys):
    """Strict mode raises what the per-line path raises, or both read the
    same cases; lenient mode reads the same cases and warns the same line."""
    try:
        expected = per_line(directory, True)[0]
    except LogParseError as exc:
        with pytest.raises(LogParseError) as err:
            CaseTable.read(directory, strict=True)
        assert named([err.value]) == named([exc])
    else:
        assert CaseTable.read(directory, strict=True).cases() == expected
    cases, skipped, issues = per_line(directory, False)
    got_skipped, got_issues = [], []
    table = CaseTable.read(directory, False, None, got_skipped, got_issues)
    assert table.cases() == cases
    assert named(got_skipped) == named(skipped) and got_issues == issues
    warnings = []
    for sink, found in ((skipped, issues), (got_skipped, got_issues)):
        cli._warn_input_issues(directory, sink, found)
        warnings.append(capsys.readouterr().err)
    assert warnings[0] == warnings[1]
    return skipped, issues


def _lines(records):
    return [serialize_record(r, EVENT_LOG) for r in records]


def _split(n=6):
    """Impressions b0..b5 a second apart, clicks on b1 and b3, a conversion on b3."""
    imps = [make_record(bid_id=f"b{i}", timestamp=epoch_ms(datetime(2013, 6, 6, 12, 0, i)), region=i % 3,
                        user_tags=((5, 5, 7), (), (9,))[i % 3]) for i in range(n)]
    clks = [as_event(imps[i], LogType.CLICK) for i in (1, 3)]
    cnvs = [as_event(imps[3], LogType.CONVERSION)]
    return _lines(imps), _lines(clks), _lines(cnvs)


def _write(directory, imp, clk, cnv, end="\n"):
    directory.mkdir(parents=True, exist_ok=True)
    for name, lines in (("imp.txt", imp), ("clk.txt", clk), ("cnv.txt", cnv)):
        (directory / name).write_bytes("".join(line + end for line in lines).encode("utf-8"))
    return directory


def _with(line, column, text):
    parts = line.split("\t")
    parts[EVENT_LOG.columns.index(column)] = text
    return "\t".join(parts)


BAD_TIMESTAMPS = ["20130230001203638", "20130606241203638", "20130606126003638",
                  "20130606120060638", "2013060612000x638"]

# Each malformed variant: (id, function of the clean (imp, clk, cnv) lines).
VARIANTS = [
    ("clean", lambda imp, clk, cnv: (imp, clk, cnv)),
    ("too-few-columns", lambda imp, clk, cnv: (imp[:2] + ["a\tb\tc"] + imp[2:], clk, cnv)),
    ("too-many-columns", lambda imp, clk, cnv: (imp[:3] + [imp[3] + "\textra"] + imp[4:], clk, cnv)),
    ("bad-click-line", lambda imp, clk, cnv: (imp, clk + ["x\ty"], cnv)),
    *[(f"{column}-{bad}", lambda imp, clk, cnv, c=column, b=bad: (
        imp[:2] + [_with(imp[2], c, b)] + imp[3:], clk, cnv)) for column, bad, _ in MALFORMED],
    *[(f"timestamp-{bad}", lambda imp, clk, cnv, b=bad: (
        imp[:4] + [_with(imp[4], "timestamp", b)] + imp[5:], clk, cnv)) for bad in BAD_TIMESTAMPS],
    ("two-bad-values", lambda imp, clk, cnv: (
        [_with(imp[0], "region", "x"), imp[1], _with(imp[2], "city", "y")] + imp[3:], clk, cnv)),
    ("negative-paying", lambda imp, clk, cnv: (imp[:1] + [_with(imp[1], "paying_price", "-1")]
                                               + imp[2:], clk, cnv)),
    ("absent-text-and-tags", lambda imp, clk, cnv: ([
        _with(_with(line, "anonymous_url_id", sentinel), "user_tags", sentinel)
        for line, sentinel in zip(imp, ["Null", "null", "", "NULL", "Null", ""])], clk, cnv)),
    ("blank-lines", lambda imp, clk, cnv: (imp[:2] + ["", ""] + imp[2:] + [""], [""] + clk, cnv)),
    ("duplicates-and-orphans", lambda imp, clk, cnv: (
        imp + [_with(imp[2], "region", "99"), _with(imp[0], "timestamp", "20130606115959000")],
        clk + clk[:1] + [_with(clk[0], "bid_id", "nobody")],
        cnv + [_with(cnv[0], "bid_id", "nobody"), _with(cnv[0], "bid_id", "ghost")])),
    ("price-invariant", lambda imp, clk, cnv: (
        imp[:5] + [_with(_with(imp[5], "bid_price", "15"), "paying_price", "15")], clk, cnv)),
]


class TestReadEqualsPerLine:
    @pytest.mark.parametrize("variant", [v for _, v in VARIANTS], ids=[name for name, _ in VARIANTS])
    @pytest.mark.parametrize("block", [None, 700], ids=["one-block", "blocks-of-700-chars"])
    def test_variant(self, tmp_path, capsys, monkeypatch, variant, block):
        # a line is about 230 characters, so small blocks split the files
        if block is not None:
            monkeypatch.setattr(logdata, "_line_blocks", partial(logdata._line_blocks, size=block))
        assert_reads_as_per_line(_write(tmp_path, *variant(*_split())), capsys)

    def test_crlf_line_ends_keep_line_numbers(self, tmp_path, capsys):
        imp, clk, cnv = _split()
        imp = imp[:2] + [""] + [_with(imp[2], "region", "x")] + imp[3:]
        skipped, _ = assert_reads_as_per_line(_write(tmp_path, imp, clk, cnv, end="\r\n"), capsys)
        assert [e.line_no for e in skipped] == [4]

    @pytest.mark.parametrize("opener", [gzip.open, bz2.open], ids=["gzip", "bzip2"])
    def test_compressed_day_files(self, tmp_path, capsys, opener):
        imp, clk, cnv = _split()
        imp = imp[:3] + ["short\tline"] + imp[3:]
        for stem, lines in (("imp", imp), ("clk", clk), ("conv", cnv)):
            for day, chunk in (("20130606", lines[:2]), ("20130607", lines[2:])):
                with opener(tmp_path / f"{stem}.{day}.txt.z", "wt", encoding="utf-8") as f:
                    f.writelines(line + "\n" for line in chunk)
        skipped, _ = assert_reads_as_per_line(tmp_path, capsys)
        assert [e.line_no for e in skipped] == [2]

    def test_reported_counts(self, tmp_path, capsys):
        _, issues = assert_reads_as_per_line(
            _write(tmp_path, *dict(VARIANTS)["duplicates-and-orphans"](*_split())), capsys)
        assert Counter(i.kind for i in issues) == {
            "duplicate_impression": 2, "orphan_click": 1, "orphan_conversion": 2}

    def test_advertiser_filtered_before_records(self, tmp_path):
        imp, clk, cnv = _split()
        imp = [_with(line, "advertiser_id", str(7 + i % 2)) for i, line in enumerate(imp)]
        directory = _write(tmp_path, imp, clk, cnv)
        cases = per_line(directory, True)[0]
        for adv in (7, 8, 9):
            got = CaseTable.read(directory, advertiser=adv)
            assert got.cases() == [c for c in cases if c.record.advertiser_id == adv]
        assert sorted(CaseTable.read(directory).distinct("advertiser_id")) == [7, 8]

    def test_values_are_python_objects(self, tmp_path):
        directory = _write(tmp_path, *dict(VARIANTS)["absent-text-and-tags"](*_split()))
        for got, want in zip(CaseTable.read(directory).cases(), per_line(directory, True)[0]):
            values = EVENT_LOG.values(got.record)
            assert list(map(type, values)) == list(map(type, EVENT_LOG.values(want.record)))
            assert not any(isinstance(v, np.generic) for v in values)
            assert type(got.clicked) is bool and type(got.converted) is bool


@pytest.mark.parametrize("bad", [False, True], ids=["clean", "one-bad-timestamp"])
def test_per_line_parser_reads_only_a_block_with_a_bad_line(tmp_path, monkeypatch, bad):
    monkeypatch.setattr(logdata, "_line_blocks", partial(logdata._line_blocks, size=700))
    parse, calls = logdata.parse_record, []

    def spy(line, *args):
        calls.append(line)
        return parse(line, *args)

    monkeypatch.setattr(logdata, "parse_record", spy)
    imp, clk, cnv = _split(12)
    if bad:
        imp[7] = _with(imp[7], "timestamp", BAD_TIMESTAMPS[0])
    skipped = []
    CaseTable.read(_write(tmp_path, imp, clk, cnv), error_sink=skipped)
    # A 700-character read ends the block of each line whose newline it holds.
    text = "".join(line + "\n" for line in imp)
    block_of = [at // 700 for at, char in enumerate(text) if char == "\n"]
    block = [line for line, b in zip(imp, block_of) if b == block_of[7]]
    assert len(block) > 1
    assert calls == (block if bad else [])
    assert [e.line_no for e in skipped] == ([8] if bad else [])


# ---------------------------------------------------------------------------
# Timestamps at the edges of the calendar
# ---------------------------------------------------------------------------

# A yyyyMMddHHmmssSSS text at each validity edge: the first and last day of
# every month, 29 February in leap years (2000, 2012) and 28 February in
# years that are not (1900, 2013), the last millisecond of a day, and the
# first and last years a timestamp can hold.
EDGE_TIMESTAMPS = [
    *[f"2013{month:02d}01000000000" for month in range(1, 13)],
    *[f"2013{month:02d}{calendar.monthrange(2013, month)[1]:02d}235959999" for month in range(1, 13)],
    "20000229120000000", "20120229235959999", "19000228000000000", "20130228000000001",
    "00010101000000000", "00011231235959999", "09990615083000500", "99991231235959999",
]

def _in_digits(text, zero):
    """``text``'s ASCII digits written as the ten digits from ``zero`` on."""
    return text.translate({ord("0") + d: zero + d for d in range(10)})


# Texts the column reader must send to the per-line parser, which rejects
# each: year 0, 30 February, 29 February of 1900 and of 2013, hour 24,
# minute 60, second 60, month 0 and 13, day 0, 16 and 18 digits, one
# digit that is no digit, a text of 16 digits next to one of 18, whose
# lengths add up as two of 17 do, and 17 decimal digits that are not all
# ASCII, which str.isdigit and int accept: Arabic-Indic, fullwidth and
# Devanagari digits, and one Arabic-Indic digit among ASCII ones.
REJECTED_TIMESTAMPS = [
    ["00000101000000000"], ["20130230000000000"], ["19000229000000000"], ["20130229000000000"],
    ["20130606240000000"], ["20130606126000000"], ["20130606120060000"], ["20130006120000000"],
    ["20131306120000000"], ["20130600120000000"], ["2013060612000000"], ["201306061200000000"],
    ["2013060612000000\u00b2"], ["2013060612000000", "201306061200000000"],
    [_in_digits("20130606120000500", 0x0660)], [_in_digits("20130606120000500", 0xFF10)],
    [_in_digits("20130606120000500", 0x0966)], ["2013060612000050" + _in_digits("0", 0x0660)],
]


def _with_timestamps(stamps):
    """The split of one impression per text of ``stamps``, in that order."""
    imp, clk, cnv = _split(len(stamps))
    return [_with(line, "timestamp", stamp) for line, stamp in zip(imp, stamps)], clk, cnv


def test_timestamps_at_each_validity_edge(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(logdata, "parse_record", lambda *args: calls.append(args) or parse_record(*args))
    table = CaseTable.read(_write(tmp_path, *_with_timestamps(EDGE_TIMESTAMPS)), strict=True)
    assert calls == []  # every text was parsed as one array
    want = sorted(map(_parse_timestamp, EDGE_TIMESTAMPS))
    assert table.column("timestamp") == want
    assert table.timestamp_ms.tolist() == want
    assert sorted(map(logdata.format_timestamp, want)) == sorted(EDGE_TIMESTAMPS)
    monkeypatch.undo()
    assert_reads_as_per_line(tmp_path, capsys)


@pytest.mark.parametrize("bad", REJECTED_TIMESTAMPS, ids="+".join)
def test_rejected_timestamps_are_named_by_the_per_line_parser(tmp_path, capsys, bad):
    stamps = EDGE_TIMESTAMPS[:5] + bad + EDGE_TIMESTAMPS[5:9]
    directory = _write(tmp_path, *_with_timestamps(stamps))
    with pytest.raises(logdata.TimestampFormatError) as err:
        CaseTable.read(directory, strict=True)
    assert (err.value.line_no, err.value.raw) == (6, bad[0])
    skipped, _ = assert_reads_as_per_line(directory, capsys)
    assert [e.line_no for e in skipped] == list(range(6, 6 + len(bad)))
    assert len(CaseTable.read(directory)) == len(stamps) - len(bad)


def test_format_timestamps_equals_format_timestamp():
    stamps = list(map(_parse_timestamp, EDGE_TIMESTAMPS))
    got = logdata.format_timestamps(np.array(stamps, np.int64))
    assert got == list(map(logdata.format_timestamp, stamps)) == EDGE_TIMESTAMPS
    assert logdata.format_timestamps(np.empty(0, np.int64)) == []


def make_case_at(ts):
    return AuctionCase(make_record(bid_id=str(ts), timestamp=ts), False, False)


def _random_instants(n, seed):
    """``n`` naive datetimes of whole milliseconds, uniform over years 1 to
    9999, so about a fifth of them fall before 1970."""
    rng = np.random.default_rng(seed)
    days = rng.integers(1, datetime(9999, 12, 31).toordinal() + 1, n).tolist()
    ms = rng.integers(0, 86_400_000, n).tolist()
    return [datetime.fromordinal(day) + timedelta(milliseconds=m) for day, m in zip(days, ms)]


def test_both_parsers_and_formatters_agree_with_datetime_arithmetic():
    # The texts at each edge, the last millisecond before 1970 and the first
    # of it, and 2,000 random instants, each with its milliseconds and its
    # text computed here by datetime arithmetic.
    instants = [datetime(int(t[:4]), int(t[4:6]), int(t[6:8]), int(t[8:10]), int(t[10:12]),
                         int(t[12:14]), int(t[14:]) * 1000) for t in EDGE_TIMESTAMPS]
    instants += [datetime(1969, 12, 31, 23, 59, 59, 999000), datetime(1970, 1, 1)]
    instants += _random_instants(2000, seed=35)
    assert sum(ts.year < 1970 for ts in instants) > 300
    texts = [f"{ts.year:04d}{ts:%m%d%H%M%S}{ts.microsecond // 1000:03d}" for ts in instants]
    ms = list(map(epoch_ms, instants))
    assert _parse_timestamps(texts).tolist() == [_parse_timestamp(t) for t in texts] == ms
    assert all(type(m) is int for m in map(_parse_timestamp, texts))
    assert logdata.format_timestamps(np.array(ms, np.int64)) == texts
    assert list(map(logdata.format_timestamp, ms)) == texts


FIRST_MS = epoch_ms(datetime(1, 1, 1))
LAST_MS = epoch_ms(datetime(9999, 12, 31, 23, 59, 59, 999000))


def test_the_first_and_last_instant_of_a_log_line_make_a_table():
    table = CaseTable.of([make_case_at(FIRST_MS), make_case_at(LAST_MS)])
    assert table.timestamp_ms.tolist() == [FIRST_MS, LAST_MS]
    assert logdata.format_timestamps(table.timestamp_ms) == ["00010101000000000", "99991231235959999"]


@pytest.mark.parametrize("bad", [1370520000000.0, datetime(2013, 6, 6), FIRST_MS - 1, LAST_MS + 1],
                         ids=["float", "datetime", "before-year-1", "after-year-9999"])
def test_a_timestamp_no_log_line_holds_fails_by_name(bad):
    named = (f"timestamp {bad!r} is not an int from {FIRST_MS} to {LAST_MS}, the milliseconds "
             f"since 1970-01-01 of a yyyyMMddHHmmssSSS log line")
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        CaseTable.of([make_case_at(epoch_ms(datetime(2013, 6, 6))), make_case_at(bad)])


def test_an_absent_timestamp_fails_by_name():
    with pytest.raises(logdata.MissingValue, match="^a record has no timestamp"):
        CaseTable.of([make_case_at(None)])


# ---------------------------------------------------------------------------
# Consumers of a table against the per-record loops they replaced
# ---------------------------------------------------------------------------

def reference_vocabulary(cases):
    keys = dict.fromkeys(chain.from_iterable(field_values(c.record) for c in cases))
    return Vocabulary({key: i for i, key in enumerate(keys, 1)})


def reference_encodings(cases):
    counts, clicks = Counter(), Counter()
    for case in cases:
        pairs = field_values(case.record)
        counts.update(pairs)
        if case.clicked:
            clicks.update(pairs)
    prior = sum(1 for c in cases if c.clicked) / len(cases)
    alpha, beta = 20.0 * prior, 20.0 * (1.0 - prior)
    denom = alpha + beta
    table = {key: (0 if key[0] == "tag" else n, (clicks[key] + alpha) / (n + denom))
             for key, n in counts.items()}
    return CategoryEncodings(table, prior, alpha, beta)


def reference_breakdowns(cases):
    field_key = {"weekday": "weekday", "hour": "hour", "os": "os", "browser": "browser",
                 "region": "region", "slot_size": "slot_size", "slot_visibility": "visibility",
                 "slot_format": "format", "ad_exchange": "exchange", "tag": "user_tag"}
    acc = {key: {} for key in FEATURE_KEYS}
    for case in cases:
        r = case.record
        pairs = field_values(r) + [("slot_size", f"{r.slot_width}×{r.slot_height}")]
        for field, label in pairs:
            if field in field_key:
                a = acc[field_key[field]].setdefault(label, [0, 0, 0, 0])
                a[0] += 1
                a[1] += 1 if case.clicked else 0
                a[2] += case.paying_price
                a[3] += case.paying_price ** 2
    return [_breakdown(key, metric, acc[key]) for key in FEATURE_KEYS for metric in METRICS]


def edge_cases(seed):
    """A synth split whose first records hold every floor-bucket edge, an
    empty tag list, a repeated tag and a user agent labelled other."""
    train = synthgen.generate(synthgen.SynthConfig(seed=seed, n_train=600, n_test=10))[0].cases()
    edits = [dict(slot_floor_price=price) for price in (0, 10, 11, 50, 51, 100, 101)]
    edits += [dict(user_tags=()), dict(user_tags=(5, 5, 7, 5)), dict(user_agent="weird bot/1.0")]
    return [AuctionCase(replace(c.record, **edit), c.clicked, c.converted)
            for c, edit in zip(train, edits)] + train[len(edits):]


@pytest.mark.parametrize("seed", [1001, 1002, 1003])
def test_consumers_of_a_table_equal_the_per_record_loops(tmp_path, seed):
    cases = edge_cases(seed)
    synthgen.write_dataset(cases, tmp_path)
    read = CaseTable.read(tmp_path)
    assert read.cases() == cases
    for table in (read, CaseTable.of(cases)):
        columns = field_columns(table)
        for i, case in enumerate(cases):
            tags = columns.codes["tag"][columns.tag_ptr[i]:columns.tag_ptr[i + 1]]
            pairs = [(name, _spell(name, columns.keys[name][columns.codes[name][i]])) for name in _FIELDS]
            pairs += [("tag", _spell("tag", columns.keys["tag"][code])) for code in tags]
            assert pairs == field_values(case.record), i

        vocab = build_vocabulary(table)
        assert vocab == reference_vocabulary(cases)
        assert list(vocab.index) == list(reference_vocabulary(cases).index)
        half = encoding_split(table)
        assert half.cases() == encoding_split(cases)
        enc = build_encodings(half)
        assert enc == reference_encodings(encoding_split(cases))

        batch = binarize_cases(table, vocab)
        expected = SparseBatch.from_vectors([binarize(c.record, vocab) for c in cases],
                                            [1.0 if c.clicked else 0.0 for c in cases], vocab.dimension)
        for got, want in ((batch.indptr, expected.indptr), (batch.indices, expected.indices),
                          (batch.labels, expected.labels)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert batch.dimension == expected.dimension

        x, y = densify_cases(table, enc)
        assert x.tobytes() == np.array([densify(c.record, enc) for c in cases]).tobytes()
        assert y.tobytes() == np.array([1.0 if c.clicked else 0.0 for c in cases]).tobytes()

        summary = campaign_summary(0, table)
        assert (summary.imps, summary.clicks, summary.convs) == (
            len(cases), sum(c.clicked for c in cases), sum(c.converted for c in cases))
        assert summary.cost_fen == sum(c.paying_price for c in cases) / 1000.0
        assert feature_breakdowns(table) == reference_breakdowns(cases)


def test_prices_beyond_int64_sum_exactly():
    # The table's price sums stay exact where int64 would overflow.
    cases = edge_cases(1001)[:40]
    cases[3] = AuctionCase(replace(cases[3].record, paying_price=10**20, bid_price=10**21),
                           True, False)
    table = CaseTable.of(cases)
    assert feature_breakdowns(table) == reference_breakdowns(cases)
    assert campaign_summary(0, table).cost_fen == sum(c.paying_price for c in cases) / 1000.0


# ---------------------------------------------------------------------------
# Code dtypes at their limits
# ---------------------------------------------------------------------------

def _wide_split(count):
    """The imp, clk and cnv lines of ``count`` impressions, in a shuffled
    order, whose bid and paying prices each hold ``count`` distinct values.
    Impressions 2k and 2k + 1 share a timestamp, 37 ms after the last pair's,
    so that their bid ids break the tie."""
    head = ("1\tu1\tMozilla/5.0 (Windows NT 6.1) Chrome/31.0\t118.81.189.*", "16",
            "d1\tu2\tNull\ts1\t300\t250\tFirstView\tFixed")
    imp, clk, cnv = [], [], []
    for i in np.random.default_rng(count).permutation(count).tolist():
        second, ms = divmod(37 * (i // 2), 1000)
        minute, second = divmod(second, 60)
        stamp = f"20130606{12 + minute // 60:02d}{minute % 60:02d}{second:02d}{ms:03d}"
        line = (f"b{i:06d}\t{stamp}\t{head[0]}\t{i % 7}\t{head[1]}\t{1 + i % 3}\t{head[2]}\t{i % 40 * 3}\tc1"
                f"\t{2 * i + 1000}\t{2 * i + 1}\tNull\t1458\t{'10006,10063' if i % 2 else 'null'}")
        imp.append(line)
        if i % 11 == 0:
            clk.append(_with(line, "log_type", "2"))
        if i % 33 == 0:
            cnv.append(_with(line, "log_type", "3"))
    return imp, clk, cnv


@pytest.mark.parametrize("count, dtype", [(255, np.uint8), (256, np.uint16), (65_535, np.uint16),
                                          (65_536, np.uint32)])
def test_codes_at_each_dtype_limit_read_and_write_as_the_text(tmp_path, count, dtype):
    imp, clk, cnv = _wide_split(count)
    table = CaseTable.read(_write(tmp_path / "in", imp, clk, cnv), strict=True)
    assert logdata.code_dtype(count) == dtype
    for name in ("bid_price", "paying_price"):
        assert table.codes[name].dtype == dtype, name
    for name in ("region", "slot_floor_price", "user_tags"):
        assert table.codes[name].dtype == np.uint8, name

    # The reference: the lines in (timestamp, bid id) order, and their texts.
    lines = sorted(imp, key=lambda line: line.split("\t")[1::-1])
    cells = [line.split("\t") for line in lines]
    at = EVENT_LOG.columns.index
    paying = [int(c[at("paying_price")]) for c in cells]
    clicks, conversions = ({_with(line, "log_type", "1") for line in events} for events in (clk, cnv))
    clicked = [line in clicks for line in lines]
    assert table.lists["bid_id"] == [c[0] for c in cells]
    assert table.column("paying_price") == paying
    ints = table.ints("paying_price")
    assert ints.dtype == np.int64 and ints.tolist() == paying
    assert table.total("paying_price") == sum(paying)
    in_file = [int(line.split("\t")[at("paying_price")]) for line in imp]
    assert table.distinct("paying_price") == in_file
    last = paying.index(in_file[-1])  # the row that holds the greatest code
    for row in (0, last, count - 1):
        assert table.record(row).paying_price == paying[row]
        assert serialize_record(table.record(row), EVENT_LOG) == lines[row]

    rows = np.arange(count - 1, -1, -3)
    part = table.take(rows)
    assert part.codes["paying_price"].dtype == dtype
    assert part.column("paying_price") == [paying[r] for r in rows.tolist()]
    held = set(part.column("paying_price"))
    assert part.distinct("paying_price") == [v for v in in_file if v in held]
    assert part.total("paying_price") == sum(paying[r] for r in rows.tolist())

    groups = {"region": {}, "exchange": {}}
    for c, click, price in zip(cells, clicked, paying):
        for key, label in (("region", c[at("region")]), ("exchange", c[at("ad_exchange")])):
            tally = groups[key].setdefault(label, [0, 0, 0, 0])
            for j, add in enumerate((1, click, price, price * price)):
                tally[j] += add
    got = {(bd.feature_key, bd.metric): bd for bd in feature_breakdowns(table)}
    for key, tallies in groups.items():
        for metric in METRICS:
            assert got[key, metric] == _breakdown(key, metric, tallies)

    paths = synthgen.write_dataset(table, tmp_path / "out")
    flagged = {"clk": clicked, "cnv": [line in conversions for line in lines]}
    assert paths["imp"].read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)
    for key, log_type in (("clk", "2"), ("cnv", "3")):
        want = [_with(line, "log_type", log_type) + "\n" for line, f in zip(lines, flagged[key]) if f]
        assert paths[key].read_text(encoding="utf-8") == "".join(want)


def test_a_generated_grid_table_holds_at_most_24_code_bytes_a_case():
    # The nine benchmark grid campaigns' shape; int64 codes took 160 bytes.
    train = synthgen.generate(synthgen.SynthConfig(seed=1, n_train=4000, n_test=10, base_ctr=0.004,
                                                   advertiser_id=1458))[0]
    assert sum(c.nbytes for c in train.codes.values()) / len(train) <= 24
