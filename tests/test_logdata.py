from __future__ import annotations

import dataclasses
import gzip
import random
from dataclasses import replace
from datetime import datetime
from itertools import product

import pytest

from rtbsim.logdata import (
    BID_LOG,
    EVENT_COLUMNS,
    EVENT_LOG,
    EVENT_ONLY_COLUMNS,
    AuctionCase,
    ColumnCountMismatch,
    FieldParseError,
    LogRecord,
    LogType,
    MissingValue,
    SchemaMismatch,
    TimestampFormatError,
    _make_case,
    _make_record,
    as_event,
    join_events,
    load_log,
    parse_record,
    serialize_record,
)

from conftest import make_record

# (column, text that is not of its kind, error): one or two per column kind
MALFORMED = [
    ("timestamp", "2013021800120363", TimestampFormatError),
    ("timestamp", "20131318001203638", TimestampFormatError),
    ("log_type", "9", FieldParseError),
    ("log_type", "click", FieldParseError),
    ("region", "fifteen", FieldParseError),
    ("slot_width", "1.5", FieldParseError),
    ("bid_price", "-3", FieldParseError),
    ("paying_price", "12a", FieldParseError),
    ("user_tags", "1,,2", FieldParseError),
    ("user_tags", "a", FieldParseError),
]

# A full event-log line in the documented 24-column order, with the
# well-known example values (timestamp, region 15, city 16, exchange 2,
# 300x250 SecondView Fixed slot, floor 0, bid 753, paying 15, tag list).
EXAMPLE_EVENT_LINE = "\t".join([
    "0153000083f5a4f5121",
    "20130218001203638",
    "1",
    "35605620124122340227135",
    "Mozilla/5.0 (compatible; MSIE 9.0; Windows NT 6.1; WOW64; Trident/5.0)",
    "118.81.189.*",
    "15",
    "16",
    "2",
    "e80f4ec7c01cd1a049",
    "hz55b000003d6f275121",
    "Null",
    "2147689_8764813",
    "300",
    "250",
    "SecondView",
    "Fixed",
    "0",
    "e39e178ffd1ee56bcd",
    "753",
    "15",
    "a8be178ffd1ee56bcd",
    "2345",
    "123,5678,3456",
])


class TestParseRecord:
    def test_example_line_fields(self):
        rec = parse_record(EXAMPLE_EVENT_LINE, EVENT_LOG)
        assert rec.timestamp == datetime(2013, 2, 18, 0, 12, 3, 638000)
        assert rec.log_type is LogType.IMPRESSION
        assert rec.region == 15 and rec.city == 16 and rec.ad_exchange == 2
        assert (rec.slot_width, rec.slot_height) == (300, 250)
        assert rec.slot_visibility == "SecondView"
        assert rec.slot_format == "Fixed"
        assert rec.slot_floor_price == 0
        assert rec.bid_price == 753
        assert rec.paying_price == 15
        assert rec.user_tags == (123, 5678, 3456)

    def test_null_sentinel_maps_to_absent(self):
        rec = parse_record(EXAMPLE_EVENT_LINE, EVENT_LOG)
        assert rec.anonymous_url_id is None

    def test_null_any_case_and_empty(self):
        for sentinel in ("null", "NULL", "Null", ""):
            parts = EXAMPLE_EVENT_LINE.split("\t")
            parts[11] = sentinel
            rec = parse_record("\t".join(parts), EVENT_LOG)
            assert rec.anonymous_url_id is None

    def test_column_count_mismatch(self):
        with pytest.raises(ColumnCountMismatch) as err:
            parse_record(EXAMPLE_EVENT_LINE + "\textra", EVENT_LOG)
        assert err.value.expected == 24 and err.value.got == 25

    def test_bad_integer_field(self):
        parts = EXAMPLE_EVENT_LINE.split("\t")
        parts[6] = "fifteen"  # region
        with pytest.raises(FieldParseError) as err:
            parse_record("\t".join(parts), EVENT_LOG)
        assert err.value.column == 7

    def test_negative_price_rejected(self):
        parts = EXAMPLE_EVENT_LINE.split("\t")
        parts[19] = "-3"  # bid price
        with pytest.raises(FieldParseError):
            parse_record("\t".join(parts), EVENT_LOG)

    def test_bad_timestamp(self):
        parts = EXAMPLE_EVENT_LINE.split("\t")
        for bad in ("2013021800120363", "20130218001203ABC", "20131318001203638"):
            parts[1] = bad
            with pytest.raises(TimestampFormatError):
                parse_record("\t".join(parts), EVENT_LOG)

    def test_bad_log_type_code(self):
        parts = EXAMPLE_EVENT_LINE.split("\t")
        parts[2] = "9"
        with pytest.raises(FieldParseError):
            parse_record("\t".join(parts), EVENT_LOG)

    def test_bid_schema_has_21_columns(self):
        assert BID_LOG.column_count == 21
        assert EVENT_LOG.column_count == 24
        parts = EXAMPLE_EVENT_LINE.split("\t")
        bid_line = "\t".join(p for i, p in enumerate(parts) if i not in (2, 20, 21))
        rec = parse_record(bid_line, BID_LOG)
        assert rec.log_type is None
        assert rec.paying_price is None
        assert rec.key_page_url is None
        assert rec.bid_price == 753


class TestSerializeRecord:
    def test_round_trip_example_line(self):
        rec = parse_record(EXAMPLE_EVENT_LINE, EVENT_LOG)
        assert serialize_record(rec, EVENT_LOG) == EXAMPLE_EVENT_LINE

    def test_empty_tags_render_null(self):
        rec = make_record(user_tags=())
        line = serialize_record(rec, EVENT_LOG)
        assert line.split("\t")[23] == "null"
        assert parse_record(line, EVENT_LOG).user_tags == ()

    def test_bid_schema_rejects_event_fields(self):
        for field in EVENT_ONLY_COLUMNS:
            rec = make_record(**{f: None for f in EVENT_ONLY_COLUMNS if f != field})
            with pytest.raises(SchemaMismatch, match=field):
                serialize_record(rec, BID_LOG)

    @pytest.mark.parametrize("schema, field, column", [
        (EVENT_LOG, "log_type", 3), (EVENT_LOG, "paying_price", 21), (EVENT_LOG, "user_tags", 24),
        (EVENT_LOG, "bid_id", 1), (EVENT_LOG, "region", 7), (BID_LOG, "bid_price", 19),
    ], ids=lambda v: getattr(v, "column_count", v))
    def test_absent_value_outside_optional_text_named(self, schema, field, column):
        # parse_record reads back no line that holds it, so none is written
        absent = dict.fromkeys(EVENT_ONLY_COLUMNS) if schema is BID_LOG else {}
        expected = f"column {column}: the record has no {field}, and only optional text may be absent"
        with pytest.raises(MissingValue, match=f"^{expected}$"):
            serialize_record(make_record(**absent, **{field: None}), schema)

    def test_bid_schema_round_trips_without_event_fields(self):
        rec = make_record(**dict.fromkeys(EVENT_ONLY_COLUMNS))
        line = serialize_record(rec, BID_LOG)
        assert len(line.split("\t")) == 21
        assert parse_record(line, BID_LOG) == rec

    def test_random_records_round_trip_both_schemas(self):
        # every log type, with and without each absent optional, empty tags
        # and zero prices, each with seeded values in the other columns
        rng = random.Random(17)
        for i, (log_type, anon, key_page, tagged, zero) in enumerate(product(
                list(LogType) * 4, (False, True), (False, True), (False, True), (False, True))):
            rec = make_record(
                bid_id=f"b{i}",
                timestamp=datetime(2013, rng.randrange(1, 13), rng.randrange(1, 29),
                                   rng.randrange(24), rng.randrange(60), rng.randrange(60),
                                   rng.randrange(1000) * 1000),
                log_type=log_type,
                region=rng.randrange(400),
                slot_floor_price=0 if zero else rng.randrange(1, 300),
                bid_price=0 if zero else rng.randrange(1, 1000),
                paying_price=0 if zero else rng.randrange(1, 300),
                anonymous_url_id=f"anon{i}" if anon else None,
                key_page_url=f"kp{i}" if key_page else None,
                user_tags=tuple(rng.randrange(1, 20) for _ in range(rng.randrange(1, 4)))
                if tagged else (),
            )
            bid_rec = replace(rec, **dict.fromkeys(EVENT_ONLY_COLUMNS))
            for schema, r in ((EVENT_LOG, rec), (BID_LOG, bid_rec)):
                line = serialize_record(r, schema)
                assert parse_record(line, schema) == r
                assert serialize_record(parse_record(line, schema), schema) == line


class TestMakeRecord:
    """``_make_record`` sets the slots without ``LogRecord.__init__``."""

    @staticmethod
    def _values(line, schema):
        parts = line.split("\t")
        if schema is BID_LOG:
            parts = [p for i, p in enumerate(parts) if i not in (2, 20, 21)]
        return EVENT_LOG.values(parse_record("\t".join(parts), schema))

    @pytest.mark.parametrize("schema", [EVENT_LOG, BID_LOG], ids=["event", "bid"])
    def test_equals_the_constructed_record(self, schema):
        values = self._values(EXAMPLE_EVENT_LINE, schema)
        made, built = _make_record(values), LogRecord(*values)
        assert type(made) is LogRecord
        assert made == built and hash(made) == hash(built)
        assert list(map(type, EVENT_LOG.values(made))) == list(map(type, EVENT_LOG.values(built)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.region = 1

    def test_as_event_copies_every_other_field(self):
        rec = parse_record(EXAMPLE_EVENT_LINE, EVENT_LOG)
        for log_type in LogType:
            event, replaced = as_event(rec, log_type), replace(rec, log_type=log_type)
            assert event == replaced and hash(event) == hash(replaced)
        assert rec.log_type is LogType.IMPRESSION

    def test_fields_are_the_event_columns_and_nothing_runs_after_init(self):
        # The two facts that make a slot-set record equal LogRecord(*values).
        assert tuple(f.name for f in dataclasses.fields(LogRecord)) == EVENT_COLUMNS
        assert not hasattr(LogRecord, "__post_init__")
        assert LogRecord.__slots__ == EVENT_COLUMNS

    @pytest.mark.parametrize("clicked, converted", [(False, False), (True, False), (True, True)])
    def test_make_case_equals_the_constructed_case(self, clicked, converted):
        rec = parse_record(EXAMPLE_EVENT_LINE, EVENT_LOG)
        made, built = _make_case(rec, clicked, converted), AuctionCase(rec, clicked, converted)
        assert type(made) is AuctionCase
        assert made == built and hash(made) == hash(built)
        assert (made.record, made.clicked, made.converted) == (rec, clicked, converted)
        assert tuple(f.name for f in dataclasses.fields(AuctionCase)) == AuctionCase.__slots__
        assert not hasattr(AuctionCase, "__post_init__") and not hasattr(made, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.clicked = not clicked


class TestLoadLog:
    def _write(self, path, lines):
        path.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "imp.txt"
        p.write_text("")
        assert list(load_log(p, EVENT_LOG)) == []

    def test_three_lines_in_order(self, tmp_path):
        recs = [make_record(bid_id=f"b{i}") for i in range(3)]
        p = tmp_path / "imp.txt"
        self._write(p, [serialize_record(r, EVENT_LOG) for r in recs])
        assert [r.bid_id for r in load_log(p, EVENT_LOG)] == ["b0", "b1", "b2"]

    def test_lenient_mode_collects_errors(self, tmp_path):
        good = serialize_record(make_record(), EVENT_LOG)
        p = tmp_path / "imp.txt"
        self._write(p, [good, "not\ta\trecord", good])
        sink = []
        out = list(load_log(p, EVENT_LOG, strict=False, error_sink=sink))
        assert len(out) == 2
        assert len(sink) == 1
        assert sink[0].line_no == 2

    def test_strict_mode_raises_with_line_number(self, tmp_path):
        good = serialize_record(make_record(), EVENT_LOG)
        p = tmp_path / "imp.txt"
        self._write(p, [good, "broken line"])
        with pytest.raises(ColumnCountMismatch) as err:
            list(load_log(p, EVENT_LOG))
        assert err.value.line_no == 2

    @pytest.mark.parametrize("schema, column, bad, error", [
        pytest.param(schema, column, bad, error, id=f"{name}-{column}-{bad}")
        for name, schema in (("event", EVENT_LOG), ("bid", BID_LOG))
        for column, bad, error in MALFORMED if column in schema.columns
    ])
    def test_malformed_value_named_in_strict_mode(self, tmp_path, schema, column, bad, error):
        rec = make_record()
        if schema is BID_LOG:
            rec = replace(rec, **dict.fromkeys(EVENT_ONLY_COLUMNS))
        good = serialize_record(rec, schema)
        parts = good.split("\t")
        parts[schema.columns.index(column)] = bad
        p = tmp_path / "imp.txt"
        self._write(p, [good, good, "\t".join(parts)])
        with pytest.raises(error) as err:
            list(load_log(p, schema))
        assert type(err.value) is error
        assert err.value.column == schema.columns.index(column) + 1
        assert err.value.line_no == 3
        assert repr(bad) in str(err.value)

    def test_gzip_detected_by_magic_bytes(self, tmp_path):
        line = serialize_record(make_record(), EVENT_LOG)
        p = tmp_path / "imp.txt.gz"
        with gzip.open(p, "wt", encoding="utf-8") as f:
            f.write(line + "\n")
        out = list(load_log(p, EVENT_LOG))
        assert len(out) == 1 and out[0].bid_id == "bid000000000001"

    def test_streaming_is_lazy(self, tmp_path):
        p = tmp_path / "imp.txt"
        self._write(p, [serialize_record(make_record(bid_id=f"b{i}"), EVENT_LOG) for i in range(50)])
        it = load_log(p, EVENT_LOG)
        assert next(it).bid_id == "b0"  # nothing materialized up front
        it.close()


class TestJoinEvents:
    def test_duplicate_clicks_count_once(self):
        imp = make_record(bid_id="x1", log_type=LogType.IMPRESSION)
        clk = make_record(bid_id="x1", log_type=LogType.CLICK)
        cases = join_events([imp], [clk, clk], [])
        assert len(cases) == 1
        assert cases[0].clicked and not cases[0].converted

    def test_no_events(self):
        cases = join_events([make_record(bid_id="x1")], [], [])
        assert cases == [AuctionCase(make_record(bid_id="x1"), False, False)]

    def test_conversion_requires_matching_impression(self):
        imp = make_record(bid_id="x1")
        cnv = make_record(bid_id="x2", log_type=LogType.CONVERSION)
        sink = []
        cases = join_events([imp], [], [cnv], issue_sink=sink)
        assert not cases[0].converted
        assert [i.kind for i in sink] == ["orphan_conversion"]

    def test_duplicate_impressions_keep_first(self):
        a = make_record(bid_id="x1", region=1)
        b = make_record(bid_id="x1", region=2)
        sink = []
        cases = join_events([a, b], [], [], issue_sink=sink)
        assert len(cases) == 1 and cases[0].record.region == 1
        assert [i.kind for i in sink] == ["duplicate_impression"]

    def test_shuffled_input_sorted_by_timestamp(self):
        rng = random.Random(3)
        recs = [
            make_record(bid_id=f"b{i:03d}",
                        timestamp=datetime(2013, 6, 6, rng.randrange(24), rng.randrange(60)))
            for i in range(100)
        ]
        rng.shuffle(recs)
        cases = join_events(recs, [], [])
        stamps = [c.timestamp for c in cases]
        assert stamps == sorted(stamps)
        # distinct ids -> cardinality preserved
        assert len(cases) == 100

    def test_price_invariant_reported(self):
        bad = make_record(bid_id="x9", bid_price=10, paying_price=10)
        sink = []
        join_events([bad], [], [], issue_sink=sink)
        assert [i.kind for i in sink] == ["price_invariant"]


def test_generated_cases_satisfy_record_invariants(small_synth):
    train, test, _ = small_synth
    for case in list(train)[:500] + list(test)[:500]:
        rec = case.record
        assert rec.paying_price is not None
        assert rec.bid_price > rec.paying_price >= 0
        assert rec.log_type is LogType.IMPRESSION
