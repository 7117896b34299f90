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

Every :class:`LogRecord` the package makes, parsed, copied by
:func:`as_event` or built back from a :class:`CaseTable`, is built by
``_make_record`` from its values in :data:`EVENT_COLUMNS` order, and every
:class:`AuctionCase` by ``_make_case``.  They set each slot directly,
without the frozen dataclass ``__init__`` and its ``object.__setattr__``
call per field.

The commands read a split into a :class:`CaseTable`, its joined cases as
columns, without making a record per line.  :func:`read_columns` reads a
log in blocks of whole lines.  A block whose every line holds 24 columns is
split at tabs once and parsed column by column, each column's distinct
texts once by that column's parser, and the near-distinct timestamps as
one array by :func:`_parse_timestamps`.  A block with another column count
on some line, or with a text its column's parser rejects, goes line by line
through :func:`parse_record`, as :func:`load_log` reads a file, so the
per-line parser is the one definition of a bad line: strict mode raises
the first, lenient mode skips each.  The table and :func:`join_events`
share one join, and a table read from text and one made from cases share
one column builder.  :meth:`CaseTable.cases` builds the records back, equal
to the per-line path's, their timestamps as datetimes.

All price columns are integers under the CPM convention: the logged value
is the price of one thousand impressions expressed in Chinese fen, so the
cost of a single impression in fen is ``paying_price / 1000``.  Derived
money figures elsewhere in the package (cost, CPM, eCPC) are plain fen.
"""

from __future__ import annotations

import enum
import gzip
import io
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

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
    "TimestampPrecisionError",
    "SchemaMismatch",
    "MissingValue",
    "JoinIssue",
    "CaseTable",
    "code_dtype",
    "parse_record",
    "serialize_record",
    "load_log",
    "read_columns",
    "join_events",
]

NULL_SENTINELS = {"", "null"}
TIMESTAMP_DIGITS = 17
# A table's timestamps are int64 milliseconds since this instant, on the
# logs' own naive clock.
_EPOCH = datetime(1970, 1, 1)
_MILLISECOND = timedelta(milliseconds=1)
_DIGIT_PLACES = 10 ** np.arange(TIMESTAMP_DIGITS - 1, -1, -1, dtype=np.int64)

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


class TimestampPrecisionError(ValueError):
    """A timestamp finer than the millisecond a log line holds."""


class SchemaMismatch(ValueError):
    """Record sets an event-only field that a bid-log line has no column for."""


class MissingValue(ValueError):
    """Record leaves a column absent (None) that is not optional text."""


def _parse_timestamp(raw: str) -> datetime:
    if len(raw) != TIMESTAMP_DIGITS or not (raw.isascii() and raw.isdigit()):
        raise TimestampFormatError(raw)
    try:  # the digits as one int, then each field's digits from its low end
        stamp, millisecond = divmod(int(raw), 1000)
        stamp, second = divmod(stamp, 100)
        stamp, minute = divmod(stamp, 100)
        stamp, hour = divmod(stamp, 100)
        year_month, day = divmod(stamp, 100)
        return datetime(*divmod(year_month, 100), day, hour, minute, second, millisecond * 1000)
    except ValueError:
        raise TimestampFormatError(raw) from None


def format_timestamp(ts: datetime) -> str:
    return (
        f"{ts.year:04d}{ts.month:02d}{ts.day:02d}"
        f"{ts.hour:02d}{ts.minute:02d}{ts.second:02d}"
        f"{ts.microsecond // 1000:03d}"
    )


def _parse_timestamps(texts: list[str]) -> np.ndarray:
    """The texts as :func:`_parse_timestamp` reads them, as int64
    milliseconds since 1970-01-01.  Raises ValueError if any text is not 17
    ASCII digits of a valid instant; :func:`_parse_timestamp` then names it."""
    # Each text and a tab, as a row of bytes.  No text holds a tab, so when
    # every row's first 17 bytes are digits, each row is one whole text.
    rows = np.frombuffer("\t".join(texts + [""]).encode("ascii"), np.uint8).reshape(len(texts), -1)
    digits = rows[:, :TIMESTAMP_DIGITS] - np.uint8(ord("0"))  # a byte below "0" wraps above 9
    if rows.shape[1] != TIMESTAMP_DIGITS + 1 or (digits > 9).any():
        raise ValueError("a timestamp is not 17 ASCII digits")
    stamp, millisecond = np.divmod(digits @ _DIGIT_PLACES, 1000)
    stamp, second = np.divmod(stamp, 100)
    stamp, minute = np.divmod(stamp, 100)
    stamp, hour = np.divmod(stamp, 100)
    year_month, day = np.divmod(stamp, 100)
    year, month = np.divmod(year_month, 100)
    months = ((year - 1970) * 12 + month - 1).astype("M8[M]")
    first_day = months.astype("M8[D]").view(np.int64)
    month_days = (months + 1).astype("M8[D]").view(np.int64) - first_day
    if not ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
            & (hour < 24) & (minute < 60) & (second < 60)).all():
        raise ValueError("a timestamp is not a valid instant")
    return (((first_day + day - 1) * 24 + hour) * 60 + minute) * 60_000 + second * 1000 + millisecond


def format_timestamps(ms: np.ndarray) -> list[str]:
    """:func:`format_timestamp` of each of ``ms``, int64 milliseconds since
    1970-01-01."""
    days, of_day = np.divmod(ms, 86_400_000)
    months = days.astype("M8[D]").astype("M8[M]")
    year, month = np.divmod(months.view(np.int64), 12)
    day = days - months.astype("M8[D]").view(np.int64)
    hour, of_hour = np.divmod(of_day, 3_600_000)
    minute, of_minute = np.divmod(of_hour, 60_000)
    date = ((year + 1970) * 100 + month + 1) * 100 + day + 1
    stamps = (date * 100 + hour) * 10**7 + minute * 10**5 + of_minute
    return list(map("{:017d}".format, stamps.tolist()))


def _milliseconds(stamps) -> np.ndarray:
    """The int64 milliseconds since 1970-01-01 of naive datetimes; one with
    a sub-millisecond part raises :class:`TimestampPrecisionError`, and an
    absent one (None) :class:`MissingValue`."""
    if None in stamps:
        raise MissingValue("a record has no timestamp, and only optional text may be absent")
    finer = next((ts for ts in stamps if ts.microsecond % 1000), None)
    if finer is not None:
        raise TimestampPrecisionError(f"timestamp {finer} is finer than the millisecond "
                                      f"of a yyyyMMddHHmmssSSS log line")
    return np.array([(ts - _EPOCH) // _MILLISECOND for ts in stamps], np.int64)


def _datetimes(ms: np.ndarray) -> list[datetime]:
    """The naive datetimes of int64 milliseconds since 1970-01-01."""
    return ms.astype("M8[ms]").tolist()


def _parse_price(raw: str) -> MoneyMilli:
    price = int(raw)
    if price < 0:
        raise ValueError(f"negative price {price}")
    return price


# Column kind -> (parse, write).  A parse raises ValueError or KeyError on
# text that is not of its kind.  "Null" (any case) and the empty string
# are an absent optional text and an empty tag list, and an absent
# optional text (None) is written as "Null"; no other kind may be absent.  Text
# is kept as written: str.__str__ returns its argument, and is a cheaper
# call than str.
TEXT_FORMS = {
    "text": (str.__str__, str),
    "timestamp": (_parse_timestamp, format_timestamp),
    "log type": (lambda raw: _LOG_TYPES[int(raw)], lambda t: str(t.value)),
    "integer": (int, str),
    "price": (_parse_price, str),
    "optional text": (
        lambda raw: None if raw.lower() in NULL_SENTINELS else raw,
        lambda text: "Null" if text is None else str(text),
    ),
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

_LOG_TYPE_AT = EVENT_COLUMNS.index("log_type")

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
    line leaves out, and ``required`` reads the values of the line's columns
    that must not be None.
    """

    def __init__(self, columns: tuple[str, ...]):
        self.columns = columns
        self.column_count = len(columns)
        self.parsers, self.writers = zip(*(TEXT_FORMS[COLUMN_KINDS[c]] for c in columns))
        self.values = attrgetter(*columns)
        self.absent = tuple(i for i, c in enumerate(EVENT_COLUMNS) if c not in columns)
        self.required = attrgetter(*(c for c in columns if COLUMN_KINDS[c] != "optional text"))


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


# Each field's slot setter, in EVENT_COLUMNS order.  A slot's member
# descriptor writes the field without the frozen class's __setattr__.
_SLOT_SETTERS = tuple(LogRecord.__dict__[name].__set__ for name in EVENT_COLUMNS)


def _make_record(values) -> LogRecord:
    """The record whose fields are ``values``, in :data:`EVENT_COLUMNS` order.

    It equals ``LogRecord(*values)``: LogRecord has no ``__post_init__``, so
    setting the fields is all its ``__init__`` does.
    """
    record = object.__new__(LogRecord)
    for set_field, value in zip(_SLOT_SETTERS, values):
        set_field(record, value)
    return record


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


_SET_RECORD, _SET_CLICKED, _SET_CONVERTED = (
    AuctionCase.__dict__[name].__set__ for name in ("record", "clicked", "converted"))


def _make_case(record: LogRecord, clicked: bool, converted: bool) -> AuctionCase:
    """``AuctionCase(record, clicked, converted)``, its slots set as
    :func:`_make_record` sets a record's."""
    case = object.__new__(AuctionCase)
    _SET_RECORD(case, record)
    _SET_CLICKED(case, clicked)
    _SET_CONVERTED(case, converted)
    return case


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
    return _make_record(values)


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
    :class:`SchemaMismatch`, and one that leaves a column absent that is not
    optional text raises :class:`MissingValue`.
    """
    dropped = [EVENT_COLUMNS[i] for i in schema.absent
               if getattr(record, EVENT_COLUMNS[i]) is not None]
    if dropped:
        raise SchemaMismatch(
            f"a {schema.column_count}-column line has no column for the record's "
            f"{', '.join(dropped)}"
        )
    values = schema.values(record)
    if None in schema.required(record):
        column = next(i for i, (name, value) in enumerate(zip(schema.columns, values), 1)
                      if value is None and COLUMN_KINDS[name] != "optional text")
        raise MissingValue(f"column {column}: the record has no {schema.columns[column - 1]}, "
                           f"and only optional text may be absent")
    return "\t".join([write(value) for write, value in zip(schema.writers, values)])


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
        numbered = ((line_no, line.rstrip("\r\n")) for line_no, line in enumerate(fh, start=1))
        yield from _parse_lines(numbered, schema, strict, error_sink)


def _parse_lines(numbered, schema: LogSchema, strict: bool, error_sink: list | None) -> Iterator[LogRecord]:
    """:func:`load_log`'s records of ``(line_no, line)`` pairs, blank lines skipped."""
    for line_no, line in numbered:
        if line:
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
    imps = list(impressions)
    rows, clicked, converted = _join(
        [r.bid_id for r in imps], [r.timestamp for r in imps], [r.bid_price for r in imps],
        [r.paying_price for r in imps], [r.bid_id for r in clicks], [r.bid_id for r in conversions],
        issue_sink)
    return [_make_case(imps[row], c, v) for row, c, v in zip(rows, clicked, converted)]


def _join(bid_ids, timestamps, bid_prices, paying_prices, click_ids, conversion_ids,
          issue_sink: list[JoinIssue] | None) -> tuple[list[int], list[bool], list[bool]]:
    """The join of :func:`join_events` over impression columns, one value
    per impression: the rows kept, in (timestamp, bid_id) order, and each
    one's clicked and converted flags."""
    def report(kind: str, bid_id: str) -> None:
        if issue_sink is not None:
            issue_sink.append(JoinIssue(kind, bid_id))

    first: dict[str, int] = {}  # bid_id -> the row of its first impression
    for row, (bid_id, bid, paying) in enumerate(zip(bid_ids, bid_prices, paying_prices)):
        if bid_id in first:
            report("duplicate_impression", bid_id)
            continue
        if paying is None or bid <= paying:
            report("price_invariant", bid_id)
        first[bid_id] = row

    flagged = []
    for kind, ids in (("orphan_click", click_ids), ("orphan_conversion", conversion_ids)):
        hit: set[str] = set()
        for bid_id in ids:
            if bid_id in first:
                hit.add(bid_id)
            else:
                report(kind, bid_id)
        flagged.append(hit)

    keys = list(zip(timestamps, bid_ids))
    rows = sorted(first.values(), key=keys.__getitem__)
    return rows, *([bid_ids[row] in hit for row in rows] for hit in flagged)


def as_event(record: LogRecord, log_type: LogType) -> LogRecord:
    """Copy of the record with the given event type code."""
    values = list(EVENT_LOG.values(record))
    values[_LOG_TYPE_AT] = log_type
    return _make_record(values)


# ---------------------------------------------------------------------------
# Column tables
# ---------------------------------------------------------------------------

# The text columns a CaseTable holds as plain lists, one value per row:
# nearly every row holds its own value, so codes would save nothing.  The
# timestamps, as near-distinct, are one int64 array (CaseTable.timestamp_ms).
LIST_COLUMNS = ("bid_id", "ipinyou_id", "ip")


# code_dtype's choices, each with the largest value it holds; a read asks
# for one per column of each block.
_CODE_DTYPES = tuple((np.dtype(d), np.iinfo(d).max) for d in (np.uint8, np.uint16, np.uint32))


def code_dtype(count: int) -> np.dtype:
    """The dtype of a table's codes into ``count`` distinct values: the
    narrowest of uint8, uint16 and uint32 that holds ``count`` itself, so
    255 values take uint8 and 256 uint16 (int64 past uint32).  A gather,
    ``bincount``, ``unique``, ``isin`` or ``tolist`` of such codes is exact
    at any of these widths; arithmetic on them widens to int64 first."""
    return next((d for d, top in _CODE_DTYPES if count <= top), np.dtype(np.int64))


def _code(items, narrow: bool = False) -> tuple[np.ndarray, list]:
    """Each item's code into the list of the distinct items, in the order
    each first appears: int64, or with ``narrow`` of :func:`code_dtype` of
    their count."""
    index = {item: code for code, item in enumerate(dict.fromkeys(items))}
    dtype = code_dtype(len(index)) if narrow else np.int64
    return np.fromiter(map(index.__getitem__, items), dtype, len(items)), list(index)


def _find_logs(directory: Path, stems: tuple[str, ...]) -> list[Path]:
    # Accepts both the generator's single files (imp.txt) and the public
    # dataset's day-partitioned dumps (imp.20130606.txt.bz2, conv.* stem).
    for stem in stems:
        found = sorted(
            p for p in directory.glob(f"{stem}*")
            if p.is_file() and (p.name == stem or p.name.startswith(f"{stem}."))
        )
        if found:
            return found
    raise FileNotFoundError(f"no {stems[0]} log found under {directory}")


def _columns(columns, parse: bool) -> list:
    """Event-log columns as a :class:`CaseTable` holds them: a list column
    as a list, the timestamps as int64 milliseconds, any other as (codes,
    distinct values), the codes of :func:`code_dtype` of their count.  With
    ``parse`` the columns hold texts, the timestamps parsed as one array and
    each coded column's distinct ones once, and a rejected text raises
    ValueError or KeyError; without, they hold values."""
    pieces = []
    for name, parser, column in zip(EVENT_COLUMNS, EVENT_LOG.parsers, columns):
        if name in LIST_COLUMNS:
            pieces.append(column)
        elif name == "timestamp":
            pieces.append(_parse_timestamps(column) if parse else _milliseconds(column))
        else:
            codes, distinct = _code(column, narrow=True)
            pieces.append((codes, list(map(parser, distinct)) if parse else distinct))
    return pieces


def _table(blocks: list, clicked: np.ndarray, converted: np.ndarray) -> CaseTable:
    """The table of the rows of ``blocks``, each :func:`_columns` of some
    rows, in order.  A coded column's codes are mapped into the distinct
    values of all the blocks, so texts that parse to one value (``Null`` and
    ``null``, ``7`` and ``07``) share a code, of :func:`code_dtype` of the
    count of those values."""
    codes, values, lists = {}, {}, {}
    for name, pieces in zip(EVENT_COLUMNS, zip(*blocks) if blocks else [()] * len(EVENT_COLUMNS)):
        if name in LIST_COLUMNS:
            lists[name] = list(chain.from_iterable(pieces))
        elif name == "timestamp":
            timestamp_ms = np.concatenate([np.empty(0, np.int64), *pieces])
        else:
            index: dict = {}
            remaps = [[index.setdefault(v, len(index)) for v in distinct] for _, distinct in pieces]
            dtype = code_dtype(len(index))
            # A block whose values take the codes they hold (the first block,
            # unless two of its texts parse to one value) needs no gather.
            codes[name] = np.concatenate([np.empty(0, dtype)] + [
                c if remap == list(range(len(remap))) else np.array(remap, dtype)[c]
                for remap, (c, _) in zip(remaps, pieces)], dtype=dtype)
            values[name] = list(index)
    return CaseTable(codes, values, lists, timestamp_ms, clicked, converted)


def _value_columns(records: Iterable[LogRecord]) -> list:
    """:func:`_columns` of the records' values."""
    return _columns(list(zip(*map(EVENT_LOG.values, records))) or [()] * len(EVENT_COLUMNS), False)


def _line_blocks(fh, size: int = 1 << 22) -> Iterator[list[str]]:
    """The lines of a text file, without their newlines, in blocks of whole
    lines read about ``size`` characters at a time."""
    rest = ""
    while block := fh.read(size):
        lines = (rest + block).split("\n")
        rest = lines.pop()
        yield lines
    if rest:
        yield [rest]


def _block_columns(lines: list[str], first_line: int, strict: bool,
                   error_sink: list | None) -> list:
    """:func:`_columns` of the good ones of ``lines``, the first of which
    is line ``first_line`` of its file: split at tabs once and parsed column
    by column, or, if a line is bad, parsed line by line as by :func:`load_log`."""
    width = EVENT_LOG.column_count
    if lines and all(tabs == width - 1 for tabs in map(str.count, lines, repeat("\t"))):
        cells = "\t".join(lines).split("\t")  # one list: no list per line for the GC to track
        try:
            return _columns([cells[j::width] for j in range(width)], True)
        except (ValueError, KeyError):
            pass  # a text its column rejects: parse_record names the line
    return _value_columns(_parse_lines(enumerate(lines, first_line), EVENT_LOG, strict, error_sink))


def read_columns(paths, strict: bool = True, error_sink: list | None = None) -> CaseTable:
    """The event-log lines of ``paths``, in file order, as a table of
    unjoined rows (none clicked or converted), without the bad lines.

    Each file is read in blocks of whole lines, about 4 MB at a time, with
    lines as :func:`load_log` reads them, and each block as
    :func:`_block_columns` reads it; text is kept as written.  Strict mode
    raises the first bad line in file order, and lenient mode appends each
    to ``error_sink`` (when given) and drops it.
    """
    blocks = []
    for path in paths:
        with _open_maybe_gzip(path) as fh:
            first_line = 1
            for lines in _line_blocks(fh):
                blocks.append(_block_columns(lines, first_line, strict, error_sink))
                first_line += len(lines)
    n = sum(len(block[0]) for block in blocks)
    return _table(blocks, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))


class CaseTable:
    """A split's joined, time-sorted cases, as columns.

    Each of :data:`LIST_COLUMNS` is ``lists[name]``, a list with one value
    per row; the timestamps are ``timestamp_ms``, int64 milliseconds since
    1970-01-01; every other column is ``codes[name]``, a code per row into
    ``values[name]``, the list of the column's distinct values.  The codes
    are unsigned, of :func:`code_dtype` of ``len(values[name])``: a column
    of at most 255 values takes one byte a row.  The table narrows any
    integer codes it is given to that dtype, so every way of making one
    (:meth:`read`, :meth:`of`, :meth:`take` and the synthetic generator)
    ends narrow.  Arithmetic on codes widens them to int64 first:
    :func:`rtbsim.features.field_columns` gathers them into int64 codes,
    and ``stats`` computes its slot-size keys from those.  Values are those
    :func:`parse_record` gives, and :meth:`column` gives the timestamps as
    its datetimes.  ``clicked`` and ``converted`` are bool arrays.

    :meth:`read` builds a table from the log text, :meth:`of` from cases,
    and :meth:`cases` builds the cases back, each record by
    ``_make_record``.
    """

    def __init__(self, codes: dict[str, np.ndarray], values: dict[str, list], lists: dict[str, list],
                 timestamp_ms: np.ndarray, clicked: np.ndarray, converted: np.ndarray):
        self.codes = {name: column.astype(code_dtype(len(values[name])), copy=False)
                      for name, column in codes.items()}
        self.values = values
        self.lists = lists
        self.timestamp_ms = timestamp_ms
        self.clicked = clicked
        self.converted = converted

    def __len__(self) -> int:
        return len(self.clicked)

    def __iter__(self) -> Iterator[AuctionCase]:
        """The rows as cases, in order, as :meth:`cases` builds them."""
        return iter(self.cases())

    @classmethod
    def read(cls, directory, strict: bool = False, advertiser: int | None = None,
             error_sink: list | None = None, issue_sink: list | None = None) -> "CaseTable":
        """The joined cases of the event logs (imp, clk, cnv) under
        ``directory``, or only ``advertiser``'s.

        The logs are read by :func:`read_columns`, which parses each
        column's distinct texts once and names bad lines, and joined as
        :func:`join_events` joins records.  Skipped lines go to
        ``error_sink`` and join issues to ``issue_sink``.
        """
        directory = Path(directory)
        imps, clicks, conversions = (read_columns(_find_logs(directory, stems), strict, error_sink)
                                     for stems in (("imp",), ("clk",), ("cnv", "conv")))
        rows, clicked, converted = _join(
            imps.lists["bid_id"], imps.timestamp_ms.tolist(), imps.column("bid_price"),
            imps.column("paying_price"), clicks.lists["bid_id"], conversions.lists["bid_id"],
            issue_sink)
        table = imps.take(np.array(rows, dtype=np.int64))
        table.clicked, table.converted = np.array(clicked, dtype=bool), np.array(converted, dtype=bool)
        if advertiser is not None:
            ids = [code for code, value in enumerate(table.values["advertiser_id"]) if value == advertiser]
            table = table.take(np.flatnonzero(np.isin(table.codes["advertiser_id"], ids)))
        return table

    @classmethod
    def of(cls, cases: Iterable[AuctionCase]) -> "CaseTable":
        """``cases`` itself if it is a CaseTable, else the table of the
        cases, in their order.  A timestamp finer than a millisecond raises
        :class:`TimestampPrecisionError`: a log line cannot hold it."""
        if isinstance(cases, cls):
            return cases
        cases = list(cases)
        n = len(cases)
        return _table([_value_columns(c.record for c in cases)],
                      np.fromiter((c.clicked for c in cases), bool, n),
                      np.fromiter((c.converted for c in cases), bool, n))

    def take(self, rows) -> "CaseTable":
        """The table of ``rows``, an index array or a slice, in that order."""
        at = range(len(self))[rows] if isinstance(rows, slice) else rows.tolist()
        return CaseTable({name: c[rows] for name, c in self.codes.items()}, self.values,
                         {name: list(map(items.__getitem__, at)) for name, items in self.lists.items()},
                         self.timestamp_ms[rows], self.clicked[rows], self.converted[rows])

    def column(self, name: str) -> list:
        """Each row's value of column ``name``."""
        if name in self.lists:
            return self.lists[name]
        if name == "timestamp":
            return _datetimes(self.timestamp_ms)
        return list(map(self.values[name].__getitem__, self.codes[name].tolist()))

    def ints(self, name: str) -> np.ndarray:
        """Each row's value of an integer column, as int64; an absent value
        (a bid log's paying price) reads 0, as in
        :attr:`AuctionCase.paying_price`."""
        present = [0 if value is None else value for value in self.values[name]]
        return np.array(present, dtype=np.int64)[self.codes[name]]

    def total(self, name: str) -> int:
        """The exact sum of an integer column, as a Python int; an absent
        value reads 0."""
        counts = np.bincount(self.codes[name], minlength=len(self.values[name])).tolist()
        return sum(count * value for count, value in zip(counts, self.values[name]) if value is not None)

    def distinct(self, name: str) -> list:
        """The values of column ``name`` that some row holds, in code order."""
        return list(map(self.values[name].__getitem__, np.unique(self.codes[name]).tolist()))

    def record(self, row: int) -> LogRecord:
        """Row ``row``'s record."""
        return _make_record([self.lists[name][row] if name in self.lists
                             else _datetimes(self.timestamp_ms[[row]])[0] if name == "timestamp"
                             else self.values[name][self.codes[name][row]] for name in EVENT_COLUMNS])

    def cases(self) -> list[AuctionCase]:
        """The rows as cases, in order."""
        records = map(_make_record, zip(*map(self.column, EVENT_COLUMNS)))
        return list(map(_make_case, records, self.clicked.tolist(), self.converted.tolist()))
