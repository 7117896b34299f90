"""Model inputs from log records.

Two encodings are produced: sparse binary one-hot vectors (for the linear
CTR model) and dense frequency/CTR category encodings (for the boosted
trees).  Index 0 of the one-hot space is reserved for the bias and never
appears in a vector.

A record's ``(field, value)`` keys are its fields in ``_FIELDS`` order,
then one per distinct tag, each value spelled by ``_spell``: these two
define the keys that the vocabulary, the encodings and the per-feature
breakdowns of :mod:`rtbsim.stats` count, through :func:`field_columns`.
:func:`field_values` spells one record's pairs on its own, the per-record
reference that the tests compare the batch keys against.
:class:`CategoryEncodings` is one ``(field, value) -> (count, ctr)`` table.

One record is encoded from its own values: the vocabulary and the encodings
split their tables once into one dict per field, keyed by the value a record
holds (an int column or tag, the weekday and hour of ``_weekday_hour``, a
label, a string), which :func:`binarize` and :func:`densify` look up.  Each
dict is the exact inverse of ``_spell``, so a loaded entry that no record is
spelled as (``hour 07``, ``region +5``) matches nothing.

A batch is encoded from the columns of a :class:`~rtbsim.logdata.CaseTable`
(a case list is made into one): :func:`field_columns` codes each row's value
of every field into the field's distinct values, deriving weekday and hour
once per distinct hour of the timestamps, OS and browser once per distinct
user agent and the floor bucket once per distinct floor price, each by
:func:`derive_fields` on the first row that holds it.  The vocabulary and
the encodings count those codes, and :func:`binarize_cases` and
:func:`densify_cases` look each distinct value up once and gather, so a
batch row equals its case's :func:`binarize` or :func:`densify` vector.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import kvfile
from .logdata import AuctionCase, CaseTable, LogRecord, _code

__all__ = [
    "Vocabulary",
    "CategoryEncodings",
    "SparseBatch",
    "EmptyTrainingSet",
    "DimensionMismatch",
    "derive_fields",
    "field_values",
    "FieldColumns",
    "field_columns",
    "classify_user_agent",
    "floor_price_bucket",
    "build_vocabulary",
    "binarize",
    "index_array",
    "binarize_cases",
    "build_encodings",
    "densify",
    "densify_cases",
    "feature_manifest",
    "encoding_split",
]

WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
OS_LABELS = ("windows", "mac", "ios", "android", "linux", "other")
BROWSER_LABELS = ("chrome", "ie", "firefox", "safari", "opera", "maxthon", "sogou", "theworld", "other")

# Ordered, case-insensitive substring rules; first match wins.  android must
# precede linux (android UAs contain "linux") and ios must precede mac
# (iPhone UAs contain "mac os x").
_OS_RULES = (
    ("android", ("android",)),
    ("ios", ("iphone", "ipad", "ipod")),
    ("windows", ("windows",)),
    ("mac", ("mac os", "macintosh")),
    ("linux", ("linux", "x11")),
)
_BROWSER_RULES = (
    ("maxthon", ("maxthon",)),
    ("sogou", ("sogou", "metasr")),
    ("theworld", ("theworld", "the world")),
    ("opera", ("opera", "opr/")),
    ("ie", ("msie", "trident")),
    ("firefox", ("firefox",)),
    ("chrome", ("chrome",)),
    ("safari", ("safari",)),
)

FLOOR_BUCKETS = ("0", "[1,10]", "[11,50]", "[51,100]", "[101,+inf)")
_FLOOR_BUCKET_TOPS = (0, 10, 50, 100)  # the highest price in each bounded bucket

# Dense manifest for the tree model: (frequency, ctr) per categorical
# field, one aggregate ctr over the case's tags, then raw continuous values.
GBRT_CATEGORICAL_FIELDS = (
    "weekday", "os", "browser", "region", "city", "ad_exchange",
    "domain", "slot_id", "slot_visibility", "slot_format", "creative_id",
)
GBRT_CONTINUOUS_FIELDS = ("slot_width", "slot_height", "slot_floor_price", "hour")
# A record's fields before its tags, in key order; and the fields, tags too,
# whose value a record holds as an int, which _spell spells with str.
_FIELDS = ("weekday", "hour", "os", "browser", "region", "city", "ad_exchange", "domain",
           "slot_id", "slot_width", "slot_height", "slot_visibility", "slot_format",
           "floor_bucket", "creative_id")
_INT_FIELDS = frozenset(("hour", "region", "city", "ad_exchange", "slot_width", "slot_height", "tag"))


# Distinct user-agent strings whose labels are kept: a log holds few (10 in
# a 2000-record synthetic split), and the bound caps memory on one that
# holds many.
USER_AGENT_MEMO = 4096


class EmptyTrainingSet(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


@lru_cache(maxsize=USER_AGENT_MEMO)
def classify_user_agent(user_agent: str) -> tuple[str, str]:
    """(os, browser) labels from ordered substring matching; unknown -> other.

    Memoized per distinct string, the last ``USER_AGENT_MEMO`` of them.
    """
    ua = user_agent.lower()
    return _first_match(ua, _OS_RULES), _first_match(ua, _BROWSER_RULES)


def _first_match(ua: str, rules) -> str:
    return next((label for label, needles in rules if any(nd in ua for nd in needles)), "other")


def floor_price_bucket(price: int) -> str:
    return FLOOR_BUCKETS[bisect_left(_FLOOR_BUCKET_TOPS, price)]


def _weekday_hour(ms: int) -> tuple[int, int]:
    """The weekday (Monday 0) and hour of day of a timestamp, int
    milliseconds since 1970-01-01, a Thursday.  Floor division counts an
    instant before 1970 in the day and hour it falls in."""
    hours = ms // 3_600_000
    return (hours // 24 + 3) % 7, hours % 24


def derive_fields(record: LogRecord) -> tuple[str, int, str, str, str]:
    """A record's ``(weekday, hour, os, browser, floor_bucket)``."""
    weekday, hour = _weekday_hour(record.timestamp)
    return (WEEKDAYS[weekday], hour, *classify_user_agent(record.user_agent),
            floor_price_bucket(record.slot_floor_price))


def field_values(record: LogRecord) -> list[tuple[str, str]]:
    """A record's (field, value) pairs in canonical order, then one per
    distinct tag, in the order the record first lists it.

    Identifier-like and price/label columns are deliberately absent.
    """
    weekday, hour, os_label, browser, floor_bucket = derive_fields(record)
    values = (weekday, str(hour), os_label, browser, str(record.region), str(record.city),
              str(record.ad_exchange), record.domain, record.slot_id, str(record.slot_width),
              str(record.slot_height), record.slot_visibility, record.slot_format, floor_bucket,
              record.creative_id)
    pairs = list(zip(_FIELDS, values))
    for tag in dict.fromkeys(record.user_tags):
        pairs.append(("tag", str(tag)))
    return pairs


def _spell(name: str, key):
    """How :func:`field_values` spells field ``name``'s value ``key``, the
    value a record holds: an int with ``str``, the weekday (Monday 0) by
    its name, and a label or string as itself.  :func:`_by_field` is its
    inverse."""
    return WEEKDAYS[key] if name == "weekday" else str(key) if name in _INT_FIELDS else key


@dataclass(frozen=True)
class FieldColumns:
    """:func:`field_values`' pairs of a table's rows, as columns.

    For each field of field_values (``tag`` too), ``keys[name]`` holds the
    distinct values the rows hold, each as a record holds it (the value
    :func:`binarize` and :func:`densify` look up, the weekday Monday 0),
    and ``codes[name]`` the int64 code of each row's value into it,
    gathered from the table's narrow codes.  A row's distinct tags, in
    the order it first lists them, are
    ``codes["tag"][tag_ptr[i]:tag_ptr[i + 1]]`` for row i.
    """

    codes: dict[str, np.ndarray]
    keys: dict[str, list]
    tag_ptr: np.ndarray

    def spelled(self, name: str) -> list[str]:
        """``keys[name]`` spelled as field_values spells them."""
        return [_spell(name, key) for key in self.keys[name]]

    def tag_rows(self) -> np.ndarray:
        """The row of each entry of ``codes["tag"]``."""
        return np.repeat(np.arange(len(self.tag_ptr) - 1), np.diff(self.tag_ptr))


# Each table's FieldColumns, made once while the table lives.
_FIELD_COLUMNS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# derive_fields' fields, each with its place in derive_fields' tuple and the
# table column whose distinct values it is derived from ("hour key", a
# timestamp to the hour, is no column: field_columns makes it).
_DERIVED = {"weekday": (0, "hour key"), "hour": (1, "hour key"), "os": (2, "user_agent"),
            "browser": (3, "user_agent"), "floor_bucket": (4, "slot_floor_price")}


def field_columns(cases) -> FieldColumns:
    """The field columns of ``cases``, a :class:`CaseTable` or a case list.

    Weekday and hour are derived once per distinct hour of the timestamps,
    OS and browser once per distinct user agent, and the floor bucket once
    per distinct floor price: each by :func:`derive_fields`, on the first
    row that holds the value.
    """
    table = CaseTable.of(cases)
    columns = _FIELD_COLUMNS.get(table)
    if columns is None:
        columns = _FIELD_COLUMNS[table] = _field_columns(table)
    return columns


def _field_columns(table: CaseTable) -> FieldColumns:
    sources = dict(table.codes)
    sources["hour key"], _ = _code((table.timestamp_ms // 3_600_000).tolist())
    firsts = {source: np.unique(sources[source], return_index=True)
              for source in dict.fromkeys(source for _, source in _DERIVED.values())}
    rows = sorted(set().union(*(first.tolist() for _, first in firsts.values())))
    derived = {row: derive_fields(table.record(row)) for row in rows}
    codes, keys = {}, {}
    for name in _FIELDS:
        if name in _DERIVED:
            at, source = _DERIVED[name]
            present, first = firsts[source]
            held = [derived[row][at] for row in first.tolist()]
            if name == "weekday":
                held = list(map(WEEKDAYS.index, held))
        else:
            source, present = name, np.unique(sources[name])
            held = list(map(table.values[name].__getitem__, present.tolist()))
        codes[name], keys[name] = _recode(sources[source], present, held)
    # Each distinct tag list that rows hold, its distinct tags laid end to
    # end; then each row's run of them.
    lists = table.codes["user_tags"]
    present = np.unique(lists)
    tags = [list(dict.fromkeys(table.values["user_tags"][code])) for code in present.tolist()]
    length = np.zeros(len(table.values["user_tags"]), np.int64)
    length[present] = list(map(len, tags))
    start = np.zeros_like(length)
    start[present] = np.cumsum(length[present]) - length[present]
    tag_codes, keys["tag"] = _code([tag for listed in tags for tag in listed])
    tag_ptr = np.zeros(len(table) + 1, np.int64)
    np.cumsum(length[lists], out=tag_ptr[1:])
    codes["tag"] = tag_codes[np.repeat(start[lists] - tag_ptr[:-1], length[lists]) + np.arange(tag_ptr[-1])]
    return FieldColumns(codes, keys, tag_ptr)


def _recode(codes: np.ndarray, present: np.ndarray, held: list) -> tuple[np.ndarray, list]:
    """``codes`` as codes into the distinct values of ``held``, which holds
    the value of each code of ``present``."""
    held_codes, distinct = _code(held)
    remap = np.zeros(int(present[-1]) + 1 if len(present) else 0, np.int64)
    remap[present] = held_codes
    return remap[codes], distinct


def _by_field(table: dict, names: tuple[str, ...]) -> tuple[dict, ...]:
    """``table``'s ``(field, value) -> entry`` items as one ``record value ->
    entry`` dict per field of ``names``, in that order.  An item is kept only
    where field_values spells its key back as its value."""
    tables = {name: {} for name in names}
    for (name, value), entry in table.items():
        try:
            key = int(value) if name in _INT_FIELDS else WEEKDAYS.index(value) if name == "weekday" else value
        except ValueError:
            continue
        if name in tables and (name not in _INT_FIELDS or str(key) == value):
            tables[name][key] = entry
    return tuple(tables.values())


class Vocabulary:
    """Injective (field, value) -> index map; index 0 is the bias.  ``tables``
    splits it by field, in field_values' order, for :func:`binarize`."""

    def __init__(self, index: dict[tuple[str, str], int]):
        self.index = index
        self.dimension = len(index) + 1
        self.tables = _by_field(index, (*_FIELDS, "tag"))

    def lookup(self, field: str, value: str) -> int | None:
        return self.index.get((field, value))

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.index == other.index

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("#rtbsim-vocab v1\n")
            f.write(f"dimension\t{self.dimension}\n")
            for (field, value), idx in sorted(self.index.items(), key=lambda kv: kv[1]):
                f.write(f"{idx}\t{field}\t{value}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """The saved map: line i + 2 must list index i, for i = 1 .. dimension-1,
        and no (field, value) twice."""
        index: dict[tuple[str, str], int] = {}
        with open(path, encoding="utf-8") as f:
            kvfile.check_header(f, "#rtbsim-vocab v1")
            dim = kvfile.read_dimension(f)
            for i, line in enumerate(f, 1):
                text = line.rstrip("\n")
                idx, _, key = text.partition("\t")
                field, tab, value = key.partition("\t")
                if idx != str(i) or not tab or i >= dim or (field, value) in index:
                    raise ValueError(f"line {i + 2}: expected '{i}\\t<field>\\t<value>' below dimension "
                                     f"{dim}, with a (field, value) not listed before, found {text!r}")
                index[(field, value)] = i
        if len(index) != dim - 1:
            raise ValueError(f"line {len(index) + 3}: the file ends after index {len(index)}, "
                             f"but dimension {dim} needs indices up to {dim - 1}")
        return cls(index)


def build_vocabulary(train: Iterable[AuctionCase] | CaseTable) -> Vocabulary:
    """Every (field, value) pair of :func:`field_values` over the cases,
    indexed in first-seen order: by the first row that holds it, then by
    its place in that row's pairs."""
    columns = field_columns(train)
    if len(columns.tag_ptr) == 1:
        raise EmptyTrainingSet("cannot build a vocabulary from zero cases")
    first = []  # (row, place in the row's pairs, field, key code)
    for place, name in enumerate(_FIELDS):
        present, rows = np.unique(columns.codes[name], return_index=True)
        first += zip(rows.tolist(), [place] * len(present), [name] * len(present), present.tolist())
    present, at = np.unique(columns.codes["tag"], return_index=True)
    rows = np.searchsorted(columns.tag_ptr, at, side="right") - 1
    places = len(_FIELDS) + at - columns.tag_ptr[rows]
    first += zip(rows.tolist(), places.tolist(), ["tag"] * len(present), present.tolist())
    first.sort()
    return Vocabulary({(name, _spell(name, columns.keys[name][code])): i
                       for i, (_, _, name, code) in enumerate(first, 1)})


def binarize(record: LogRecord, vocab: Vocabulary) -> np.ndarray:
    """Sorted active one-hot indices (bias excluded, implicit index 0), as
    the int64 that ``models.predict`` reads without a copy.

    Out-of-vocabulary values contribute nothing, so a fully unseen record
    yields an empty vector.
    """
    (weekday, hour, os_label, browser, region, city, ad_exchange, domain, slot_id, width, height,
     visibility, slot_format, floor_bucket, creative_id, tag) = vocab.tables
    day, hour_of_day = _weekday_hour(record.timestamp)
    os_key, browser_key = classify_user_agent(record.user_agent)
    found = {weekday.get(day), hour.get(hour_of_day), os_label.get(os_key), browser.get(browser_key),
             region.get(record.region), city.get(record.city), ad_exchange.get(record.ad_exchange),
             domain.get(record.domain), slot_id.get(record.slot_id), width.get(record.slot_width),
             height.get(record.slot_height), visibility.get(record.slot_visibility),
             slot_format.get(record.slot_format), floor_bucket.get(floor_price_bucket(record.slot_floor_price)),
             creative_id.get(record.creative_id), *map(tag.get, record.user_tags)}
    found.discard(None)  # a miss; indices start at 1
    return np.fromiter(sorted(found), np.int64, len(found))


def index_array(vector, row: int | None = None) -> np.ndarray:
    """``vector`` as an integer array of one-hot indices.  A non-empty one
    of another dtype (bool included) fails, naming its first value and
    ``row``: numpy would truncate a float index without a word."""
    arr = np.asarray(vector)
    if arr.dtype.kind in "iu":
        return arr
    if arr.size:
        at = "" if row is None else f"row {row}: "
        raise DimensionMismatch(f"{at}feature index {arr.flat[0].item()!r} is not an integer")
    return arr.astype(np.int64)


@dataclass
class SparseBatch:
    """CSR container for one-hot rows plus 0/1 labels."""

    indptr: np.ndarray
    indices: np.ndarray
    labels: np.ndarray
    dimension: int

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @classmethod
    def from_vectors(cls, vectors: Sequence[np.ndarray], labels: Sequence[float], dimension: int) -> "SparseBatch":
        vectors = [index_array(v, row) for row, v in enumerate(vectors)]
        lengths = np.fromiter((len(v) for v in vectors), dtype=np.int64, count=len(vectors))
        indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.concatenate([np.empty(0, np.int32), *vectors], dtype=np.int32)
        return cls(indptr, indices, np.asarray(labels, dtype=np.float64), dimension)


def binarize_cases(cases: Sequence[AuctionCase] | CaseTable, vocab: Vocabulary) -> SparseBatch:
    """Each case's :func:`binarize` vector, and its click label, as one
    batch: each field's distinct values are looked up once in
    ``vocab.tables``.  The rows' indices are put in order by one sort of
    the int64 key ``row * dimension + index``, which holds while rows times
    dimension is below 2**63."""
    table = CaseTable.of(cases)
    columns = field_columns(table)
    n = len(table)
    keys = []
    for name, lookup in zip((*_FIELDS, "tag"), vocab.tables):
        index = np.array([lookup.get(key, 0) for key in columns.keys[name]], dtype=np.int64)
        found = index[columns.codes[name]]  # 0 for a miss; indices start at 1
        rows = columns.tag_rows() if name == "tag" else np.arange(n)
        hit = found > 0
        keys.append(rows[hit] * vocab.dimension + found[hit])
    key = np.concatenate(keys)
    key.sort()
    rows, found = np.divmod(key, vocab.dimension)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return SparseBatch(indptr, found.astype(np.int32), table.clicked.astype(np.float64),
                       vocab.dimension)


# Pseudo-observation mass of the CTR smoothing: alpha + beta = 20 at the
# subset's global CTR.
SMOOTHING_PSEUDO_COUNT = 20.0


@dataclass
class CategoryEncodings:
    """One table, (field, value) -> (frequency, smoothed empirical CTR).

    Tag values carry count 0: only their CTR is a feature.  Unseen values
    fall back to (0, prior).  ``by_field`` and ``tag_ctr`` are the table
    again, split once for :func:`densify`: one ``record value -> (count,
    ctr)`` dict per :data:`GBRT_CATEGORICAL_FIELDS` entry, in that order,
    and ``tag -> ctr`` keyed by the int tag.
    """

    table: dict[tuple[str, str], tuple[int, float]]
    prior: float
    alpha: float
    beta: float
    by_field: tuple = field(init=False, repr=False, compare=False)
    tag_ctr: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        *by_field, tags = _by_field(self.table, (*GBRT_CATEGORICAL_FIELDS, "tag"))
        self.by_field = tuple(by_field)
        self.tag_ctr = {tag: ctr for tag, (_, ctr) in tags.items()}

    def lookup(self, field: str, value: str) -> tuple[int, float]:
        return self.table.get((field, value), (0, self.prior))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("#rtbsim-encodings v1\n")
            f.write(f"prior\t{self.prior!r}\talpha\t{self.alpha!r}\tbeta\t{self.beta!r}\n")
            for (field, value), (n, ctr) in sorted(self.table.items()):
                f.write(f"{field}\t{value}\t{n}\t{ctr!r}\n")

    @classmethod
    def load(cls, path) -> "CategoryEncodings":
        """The saved encodings; a body line must read field, value, a count of
        0 or more (0 for a tag) and a CTR in [0, 1], tab-separated, with no
        (field, value) twice."""
        with open(path, encoding="utf-8") as f:
            kvfile.check_header(f, "#rtbsim-encodings v1")
            texts = kvfile.read_labeled(f, "prior", "alpha", "beta")
            try:
                prior, alpha, beta = map(kvfile.finite_float, texts)
            except ValueError:
                line = "prior\t{}\talpha\t{}\tbeta\t{}".format(*texts)
                raise ValueError("line 2: expected 'prior\\t<float>\\talpha\\t<float>\\tbeta\\t<float>', "
                                 f"found {line!r}") from None
            table: dict[tuple[str, str], tuple[int, float]] = {}
            for line_no, line in enumerate(f, 3):
                text = line.rstrip("\n")
                parts = text.split("\t")
                try:
                    field, value = parts[0], parts[1]
                    n, c = kvfile.ascii_int(parts[2]), kvfile.finite_float(parts[3])
                except (IndexError, ValueError):
                    n = c = -1  # fails the check below
                if (len(parts) != 4 or n < 0 or (n and field == "tag") or not 0.0 <= c <= 1.0
                        or (field, value) in table):
                    raise ValueError(f"line {line_no}: expected '<field>\\t<value>\\t<count >= 0, "
                                     f"0 for a tag>\\t<ctr in [0, 1]>' with a (field, value) not "
                                     f"listed before, found {text!r}")
                table[(field, value)] = (n, c)
        return cls(table, prior, alpha, beta)


def build_encodings(train_subset: Sequence[AuctionCase] | CaseTable) -> CategoryEncodings:
    """Fit frequency/CTR encodings on a training subset.

    Each category's CTR is smoothed toward the subset's global CTR p with
    SMOOTHING_PSEUDO_COUNT (20) pseudo-observations: alpha = 20 p clicks
    and beta = 20 (1 - p) non-clicks, so a category seen n times with k
    clicks encodes (k + alpha) / (n + alpha + beta).
    """
    table = CaseTable.of(train_subset)
    if not len(table):
        raise EmptyTrainingSet("cannot fit encodings on zero cases")
    columns = field_columns(table)
    prior = int(np.count_nonzero(table.clicked)) / len(table)
    alpha = SMOOTHING_PSEUDO_COUNT * prior
    beta = SMOOTHING_PSEUDO_COUNT * (1.0 - prior)
    denom = alpha + beta  # n + (alpha + beta): n + alpha + beta rounds differently
    encoded = {}
    for name in (*_FIELDS, "tag"):
        codes, size = columns.codes[name], len(columns.keys[name])
        clicked = table.clicked[columns.tag_rows()] if name == "tag" else table.clicked
        counts = np.bincount(codes, minlength=size).tolist()
        clicks = np.bincount(codes[clicked], minlength=size).tolist()
        for value, n, k in zip(columns.spelled(name), counts, clicks):
            encoded[(name, value)] = (0 if name == "tag" else n, (k + alpha) / (n + denom))
    return CategoryEncodings(encoded, prior, alpha, beta)


def feature_manifest() -> tuple[str, ...]:
    return (*(f"{f}_{stat}" for f in GBRT_CATEGORICAL_FIELDS for stat in ("freq", "ctr")),
            "tag_ctr", *GBRT_CONTINUOUS_FIELDS)


DEFAULT_MANIFEST = feature_manifest()


def densify(record: LogRecord, encodings: CategoryEncodings) -> np.ndarray:
    """Fixed-length dense vector in :data:`DEFAULT_MANIFEST` order."""
    (weekday, os_label, browser, region, city, ad_exchange, domain, slot_id, visibility,
     slot_format, creative_id) = encodings.by_field
    prior = encodings.prior
    unseen, (day, hour) = (0, prior), _weekday_hour(record.timestamp)
    os_key, browser_key = classify_user_agent(record.user_agent)
    row = (*weekday.get(day, unseen), *os_label.get(os_key, unseen), *browser.get(browser_key, unseen),
           *region.get(record.region, unseen), *city.get(record.city, unseen),
           *ad_exchange.get(record.ad_exchange, unseen), *domain.get(record.domain, unseen),
           *slot_id.get(record.slot_id, unseen), *visibility.get(record.slot_visibility, unseen),
           *slot_format.get(record.slot_format, unseen), *creative_id.get(record.creative_id, unseen),
           _tag_mean(record.user_tags, encodings.tag_ctr, prior), record.slot_width, record.slot_height,
           record.slot_floor_price, hour)
    return np.fromiter(row, np.float64, len(row))


def _tag_mean(user_tags, tag_ctr: dict, prior: float) -> float:
    """The mean CTR of the distinct tags, ``prior`` for an unseen one, or
    ``prior`` without tags."""
    # Added in sequence from 0.0: builtin sum compensates from Python 3.12
    # on, which would change the column, and so the model files.
    total, tags = 0.0, dict.fromkeys(user_tags)
    for tag in tags:
        total += tag_ctr.get(tag, prior)
    return total / len(tags) if tags else prior


def densify_cases(
    cases: Sequence[AuctionCase] | CaseTable, encodings: CategoryEncodings,
) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, labels) for a batch of cases: each row the case's
    :func:`densify` vector.  Each field's distinct values are looked up once
    in ``encodings.by_field``, and the tag mean is taken once per distinct
    tag list."""
    table = CaseTable.of(cases)
    columns = field_columns(table)
    x = np.empty((len(table), len(DEFAULT_MANIFEST)), dtype=np.float64)
    unseen = (0, encodings.prior)
    for j, (name, lookup) in enumerate(zip(GBRT_CATEGORICAL_FIELDS, encodings.by_field)):
        entries = np.array([lookup.get(key, unseen) for key in columns.keys[name]], dtype=np.float64)
        x[:, 2 * j:2 * j + 2] = entries.reshape(-1, 2)[columns.codes[name]]
    at = 2 * len(GBRT_CATEGORICAL_FIELDS)
    means = [_tag_mean(tags, encodings.tag_ctr, encodings.prior) for tags in table.values["user_tags"]]
    x[:, at] = np.array(means, dtype=np.float64)[table.codes["user_tags"]]
    for j, name in enumerate(("slot_width", "slot_height", "slot_floor_price"), at + 1):
        x[:, j] = np.array(table.values[name], dtype=np.float64)[table.codes[name]]
    x[:, -1] = np.array(columns.keys["hour"], dtype=np.float64)[columns.codes["hour"]]
    return x, table.clicked.astype(np.float64)


def encoding_split(cases: Sequence[AuctionCase] | CaseTable) -> list[AuctionCase] | CaseTable:
    """The first half of the training cases in time order, reserved for
    fitting encodings, so the encoded period is disjoint from the fitted one."""
    half = slice(0, max(1, len(cases) // 2))
    return cases.take(half) if isinstance(cases, CaseTable) else list(cases[half])
