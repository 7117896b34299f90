"""Bid/impression/click/conversion log schema, parsing, and event joining.

The on-disk format is tab-separated text, one record per line, UTF-8,
optionally gzipped or bzip2ed.  Event logs (impressions, clicks,
conversions) carry 24 columns; bid logs omit the three event-only columns
(log type, paying price, key page URL) and keep the relative order of the
rest, giving 21.

:data:`COLUMN_KINDS` (each column, in line order, with its kind) and
:data:`TEXT_FORMS` (each kind's parse and write functions) are the one
definition of the line: :func:`parse_record` and :func:`serialize_record`
are loops over them.

All price columns are integers under the CPM convention: the logged value
is the price of one thousand impressions expressed in Chinese fen, so the
cost of a single impression in fen is ``paying_price / 1000``.  Derived
money figures elsewhere in the package (cost, CPM, eCPC) are plain fen.
"""

from __future__ import annotations

import enum
import gzip
import io
from dataclasses import dataclass, replace
from datetime import datetime
from operator import attrgetter
from typing import Iterable, Iterator

__all__ = [
    "MoneyMilli",
    "LogType",
    "LogRecord",
    "AuctionCase",
    "LogSchema",
    "COLUMN_KINDS",
    "TEXT_FORMS",
    "EVENT_LOG",
    "BID_LOG",
    "LogParseError",
    "ColumnCountMismatch",
    "FieldParseError",
    "TimestampFormatError",
    "SchemaMismatch",
    "JoinIssue",
    "parse_record",
    "serialize_record",
    "load_log",
    "join_events",
]

NULL_SENTINELS = {"", "null"}
TIMESTAMP_DIGITS = 17

# Non-negative integer price in the CPM log convention: fen per thousand
# impressions. Divide a sum of these by 1000 to get fen.
MoneyMilli = int


class LogType(enum.Enum):
    """Row type of an event log; the value is its code in the log."""

    IMPRESSION = 1
    CLICK = 2
    CONVERSION = 3


_LOG_TYPES = {t.value: t for t in LogType}


class LogParseError(ValueError):
    """Base class for per-line parse failures."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


class ColumnCountMismatch(LogParseError):
    def __init__(self, expected: int, got: int, line_no: int | None = None):
        super().__init__(f"expected {expected} tab-separated columns, got {got}", line_no)
        self.expected = expected
        self.got = got


class FieldParseError(LogParseError):
    def __init__(self, column: int, reason: str, line_no: int | None = None):
        super().__init__(f"column {column}: {reason}", line_no)
        self.column = column
        self.reason = reason


class TimestampFormatError(FieldParseError):
    def __init__(self, raw: str, line_no: int | None = None):
        super().__init__(2, f"timestamp {raw!r} is not yyyyMMddHHmmssSSS", line_no)
        self.raw = raw


class SchemaMismatch(ValueError):
    """Record sets an event-only field that a bid-log line has no column for."""


def _parse_timestamp(raw: str) -> datetime:
    if len(raw) != TIMESTAMP_DIGITS or not raw.isdigit():
        raise TimestampFormatError(raw)
    try:
        return datetime(
            int(raw[0:4]), int(raw[4:6]), int(raw[6:8]),
            int(raw[8:10]), int(raw[10:12]), int(raw[12:14]),
            int(raw[14:17]) * 1000,
        )
    except ValueError:
        raise TimestampFormatError(raw) from None


def format_timestamp(ts: datetime) -> str:
    return (
        f"{ts.year:04d}{ts.month:02d}{ts.day:02d}"
        f"{ts.hour:02d}{ts.minute:02d}{ts.second:02d}"
        f"{ts.microsecond // 1000:03d}"
    )


def _parse_price(raw: str) -> MoneyMilli:
    price = int(raw)
    if price < 0:
        raise ValueError(f"negative price {price}")
    return price


# Column kind -> (parse, write).  A parse raises ValueError or KeyError on
# text that is not of its kind.  "Null" (any case) and the empty string
# are an absent optional text and an empty tag list.  serialize_record
# writes an absent value (None) as "Null" without calling a write.  Text
# is kept as written: str.__str__ returns its argument, and is a cheaper
# call than str.
TEXT_FORMS = {
    "text": (str.__str__, str),
    "timestamp": (_parse_timestamp, format_timestamp),
    "log type": (lambda raw: _LOG_TYPES[int(raw)], lambda t: str(t.value)),
    "integer": (int, str),
    "price": (_parse_price, str),
    "optional text": (lambda raw: None if raw.lower() in NULL_SENTINELS else raw, str),
    "tag list": (
        lambda raw: () if raw.lower() in NULL_SENTINELS else tuple(map(int, raw.split(","))),
        lambda tags: ",".join(map(str, tags)) if tags else "null",
    ),
}

# Every column of the event-log line, in line order (also LogRecord's field
# order), with its kind in TEXT_FORMS.
COLUMN_KINDS = {
    "bid_id": "text",
    "timestamp": "timestamp",
    "log_type": "log type",
    "ipinyou_id": "text",
    "user_agent": "text",
    "ip": "text",
    "region": "integer",
    "city": "integer",
    "ad_exchange": "integer",
    "domain": "text",
    "url": "text",
    "anonymous_url_id": "optional text",
    "slot_id": "text",
    "slot_width": "integer",
    "slot_height": "integer",
    "slot_visibility": "text",
    "slot_format": "text",
    "slot_floor_price": "price",
    "creative_id": "text",
    "bid_price": "price",
    "paying_price": "price",
    "key_page_url": "optional text",
    "advertiser_id": "integer",
    "user_tags": "tag list",
}

EVENT_COLUMNS = tuple(COLUMN_KINDS)

EVENT_ONLY_COLUMNS = ("log_type", "paying_price", "key_page_url")

BID_COLUMNS = tuple(c for c in EVENT_COLUMNS if c not in EVENT_ONLY_COLUMNS)

SLOT_VISIBILITIES = (
    "FirstView", "SecondView", "ThirdView", "FourthView", "FifthView",
    "SixthView", "SeventhView", "EighthView", "NinthView", "TenthView", "Na",
)
SLOT_FORMATS = ("Fixed", "Pop", "Background", "Float", "Na")


class LogSchema:
    """A line of some of the event-log columns, in their order: the 24 of
    :data:`EVENT_LOG` or the 21 of :data:`BID_LOG`.

    Each column's parse and write functions are looked up once, here;
    ``absent`` holds the :class:`LogRecord` positions of the columns the
    line leaves out.
    """

    def __init__(self, columns: tuple[str, ...]):
        self.columns = columns
        self.column_count = len(columns)
        self.parsers, self.writers = zip(*(TEXT_FORMS[COLUMN_KINDS[c]] for c in columns))
        self.values = attrgetter(*columns)
        self.absent = tuple(i for i, c in enumerate(EVENT_COLUMNS) if c not in columns)


EVENT_LOG = LogSchema(EVENT_COLUMNS)
BID_LOG = LogSchema(BID_COLUMNS)


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One parsed log row.  Prices are :data:`MoneyMilli` integers."""

    bid_id: str
    timestamp: datetime
    log_type: LogType | None
    ipinyou_id: str
    user_agent: str
    ip: str
    region: int
    city: int
    ad_exchange: int
    domain: str
    url: str
    anonymous_url_id: str | None
    slot_id: str
    slot_width: int
    slot_height: int
    slot_visibility: str
    slot_format: str
    slot_floor_price: MoneyMilli
    creative_id: str
    bid_price: MoneyMilli
    paying_price: MoneyMilli | None
    key_page_url: str | None
    advertiser_id: int
    user_tags: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class AuctionCase:
    """An impression joined with its deduplicated click/conversion outcome."""

    record: LogRecord
    clicked: bool
    converted: bool

    @property
    def bid_id(self) -> str:
        return self.record.bid_id

    @property
    def timestamp(self) -> datetime:
        return self.record.timestamp

    @property
    def paying_price(self) -> int:
        p = self.record.paying_price
        return 0 if p is None else p

    @property
    def floor_price(self) -> int:
        return self.record.slot_floor_price


def parse_record(line: str, schema: LogSchema, line_no: int | None = None) -> LogRecord:
    """Parse one tab-separated line into a record.

    A wrong column count or a column whose text is not of its kind raises
    instead of producing a partial record.  Columns the schema leaves out
    are absent (None) in the record.
    """
    parts = line.split("\t")
    if len(parts) != schema.column_count:
        raise ColumnCountMismatch(schema.column_count, len(parts), line_no)
    try:
        values = [parse(raw) for parse, raw in zip(schema.parsers, parts)]
    except (ValueError, KeyError):
        raise _field_error(schema, parts, line_no) from None
    for i in schema.absent:
        values.insert(i, None)
    return LogRecord(*values)


def _field_error(schema: LogSchema, parts: list[str], line_no: int | None) -> FieldParseError:
    """The error of the first column whose text does not parse."""
    for column, (name, parse, raw) in enumerate(zip(schema.columns, schema.parsers, parts), 1):
        try:
            parse(raw)
        except (ValueError, KeyError):
            break
    kind = COLUMN_KINDS[name]
    if kind == "timestamp":
        return TimestampFormatError(raw, line_no)
    return FieldParseError(column, f"bad {kind} {raw!r}", line_no)


def serialize_record(record: LogRecord, schema: LogSchema) -> str:
    """Render a record back to its tab-separated line form.

    Bit-exact inverse of :func:`parse_record` on canonically-written lines.
    A record that sets a field the schema leaves out raises
    :class:`SchemaMismatch`.
    """
    dropped = [EVENT_COLUMNS[i] for i in schema.absent
               if getattr(record, EVENT_COLUMNS[i]) is not None]
    if dropped:
        raise SchemaMismatch(
            f"a {schema.column_count}-column line has no column for the record's "
            f"{', '.join(dropped)}"
        )
    return "\t".join([
        "Null" if value is None else write(value)
        for write, value in zip(schema.writers, schema.values(record))
    ])


def _open_maybe_gzip(path) -> io.TextIOBase:
    f = open(path, "rb")
    magic = f.read(3)
    f.seek(0)
    if magic[:2] == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.GzipFile(fileobj=f), encoding="utf-8")
    if magic == b"BZh":
        import bz2

        return io.TextIOWrapper(bz2.BZ2File(f), encoding="utf-8")
    return io.TextIOWrapper(f, encoding="utf-8")


def load_log(
    path,
    schema: LogSchema,
    strict: bool = True,
    error_sink: list | None = None,
) -> Iterator[LogRecord]:
    """Stream records from a (possibly gzipped) log file.

    Records are yielded in file order without materializing the file.  In
    strict mode the first bad line raises, with the 1-based line number
    attached; otherwise bad lines are appended to ``error_sink`` (when
    given) and skipped.
    """
    with _open_maybe_gzip(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                yield parse_record(line, schema, line_no)
            except LogParseError as exc:
                if strict:
                    raise
                if error_sink is not None:
                    error_sink.append(exc)


@dataclass(frozen=True)
class JoinIssue:
    """Non-fatal anomaly found while joining event streams."""

    kind: str  # orphan_click | orphan_conversion | duplicate_impression | price_invariant
    bid_id: str


def join_events(
    impressions: Iterable[LogRecord],
    clicks: Iterable[LogRecord],
    conversions: Iterable[LogRecord],
    issue_sink: list[JoinIssue] | None = None,
) -> list[AuctionCase]:
    """Join impressions with click/conversion events on bid_id.

    One case per unique impression; duplicate impression ids keep the first
    occurrence, repeated click/conversion rows count once, and events with
    no matching impression are reported as orphans rather than failing.
    Output is sorted by ascending timestamp with bid_id as the tie-break.
    """
    def report(kind: str, bid_id: str) -> None:
        if issue_sink is not None:
            issue_sink.append(JoinIssue(kind, bid_id))

    by_id: dict[str, LogRecord] = {}
    for rec in impressions:
        if rec.bid_id in by_id:
            report("duplicate_impression", rec.bid_id)
            continue
        if rec.paying_price is None or rec.bid_price <= rec.paying_price:
            report("price_invariant", rec.bid_id)
        by_id[rec.bid_id] = rec

    clicked: set[str] = set()
    for rec in clicks:
        if rec.bid_id in by_id:
            clicked.add(rec.bid_id)
        else:
            report("orphan_click", rec.bid_id)
    converted: set[str] = set()
    for rec in conversions:
        if rec.bid_id in by_id:
            converted.add(rec.bid_id)
        else:
            report("orphan_conversion", rec.bid_id)

    cases = [
        AuctionCase(rec, rec.bid_id in clicked, rec.bid_id in converted)
        for rec in by_id.values()
    ]
    cases.sort(key=lambda c: (c.record.timestamp, c.record.bid_id))
    return cases


def as_event(record: LogRecord, log_type: LogType) -> LogRecord:
    """Copy of the record with the given event type code."""
    return replace(record, log_type=log_type)
