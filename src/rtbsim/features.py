"""Model inputs from log records.

Two encodings are produced: sparse binary one-hot vectors (for the linear
CTR model) and dense frequency/CTR category encodings (for the boosted
trees).  Index 0 of the one-hot space is reserved for the bias and never
appears in a vector.

:func:`field_values` is the one definition of a record's fields and of how
each value is spelled, as a list of ``(field, value)`` pairs; the
vocabulary, the encodings and the per-feature breakdowns of
:mod:`rtbsim.stats` count its pairs.  :class:`CategoryEncodings` is one
``(field, value) -> (count, ctr)`` table.

One record is encoded from its own values: the vocabulary and the encodings
split their tables once into one dict per field, keyed by the value a record
holds (an int column or tag, ``weekday()`` and ``hour``, a label, a string),
which :func:`binarize` and :func:`densify` look up.  Each dict is the exact
inverse of field_values' spelling, so a loaded entry that no record is
spelled as (``hour 07``, ``region +5``) matches nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import kvfile
from .logdata import AuctionCase, LogRecord

__all__ = [
    "Vocabulary",
    "CategoryEncodings",
    "SparseBatch",
    "EmptyTrainingSet",
    "DimensionMismatch",
    "derive_fields",
    "field_values",
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
# field_values' fields before the tags, in its order; and the fields, tags
# too, whose value a record holds as an int, which field_values spells with str.
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


def derive_fields(record: LogRecord) -> tuple[str, int, str, str, str]:
    """A record's ``(weekday, hour, os, browser, floor_bucket)``."""
    ts = record.timestamp
    return (WEEKDAYS[ts.weekday()], ts.hour, *classify_user_agent(record.user_agent),
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


def build_vocabulary(train: Iterable[AuctionCase]) -> Vocabulary:
    """First-seen value order over the canonical field order, one pass."""
    keys = dict.fromkeys(chain.from_iterable(field_values(c.record) for c in train))
    if not keys:
        raise EmptyTrainingSet("cannot build a vocabulary from zero cases")
    return Vocabulary({key: i for i, key in enumerate(keys, 1)})


def binarize(record: LogRecord, vocab: Vocabulary) -> np.ndarray:
    """Sorted active one-hot indices (bias excluded, implicit index 0), as
    the int64 that ``models.predict`` reads without a copy.

    Out-of-vocabulary values contribute nothing, so a fully unseen record
    yields an empty vector.
    """
    (weekday, hour, os_label, browser, region, city, ad_exchange, domain, slot_id, width, height,
     visibility, slot_format, floor_bucket, creative_id, tag) = vocab.tables
    ts = record.timestamp
    os_key, browser_key = classify_user_agent(record.user_agent)
    found = {weekday.get(ts.weekday()), hour.get(ts.hour), os_label.get(os_key), browser.get(browser_key),
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


def binarize_cases(cases: Sequence[AuctionCase], vocab: Vocabulary) -> SparseBatch:
    vectors = [binarize(c.record, vocab) for c in cases]
    labels = [1.0 if c.clicked else 0.0 for c in cases]
    return SparseBatch.from_vectors(vectors, labels, vocab.dimension)


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
            prior, alpha, beta = map(float, kvfile.read_labeled(f, "prior", "alpha", "beta"))
            table: dict[tuple[str, str], tuple[int, float]] = {}
            for line_no, line in enumerate(f, 3):
                text = line.rstrip("\n")
                parts = text.split("\t")
                try:
                    field, value, n, c = parts[0], parts[1], int(parts[2]), float(parts[3])
                except (IndexError, ValueError):
                    n = c = -1  # fails the check below
                if (len(parts) != 4 or n < 0 or (n and field == "tag") or not 0.0 <= c <= 1.0
                        or (field, value) in table):
                    raise ValueError(f"line {line_no}: expected '<field>\\t<value>\\t<count >= 0, "
                                     f"0 for a tag>\\t<ctr in [0, 1]>' with a (field, value) not "
                                     f"listed before, found {text!r}")
                table[(field, value)] = (n, c)
        return cls(table, prior, alpha, beta)


def build_encodings(train_subset: Sequence[AuctionCase]) -> CategoryEncodings:
    """Fit frequency/CTR encodings on a training subset.

    Each category's CTR is smoothed toward the subset's global CTR p with
    SMOOTHING_PSEUDO_COUNT (20) pseudo-observations: alpha = 20 p clicks
    and beta = 20 (1 - p) non-clicks, so a category seen n times with k
    clicks encodes (k + alpha) / (n + alpha + beta).
    """
    if not train_subset:
        raise EmptyTrainingSet("cannot fit encodings on zero cases")
    counts: Counter[tuple[str, str]] = Counter()
    clicks: Counter[tuple[str, str]] = Counter()
    for case in train_subset:
        pairs = field_values(case.record)
        counts.update(pairs)
        if case.clicked:
            clicks.update(pairs)
    prior = sum(1 for c in train_subset if c.clicked) / len(train_subset)
    alpha = SMOOTHING_PSEUDO_COUNT * prior
    beta = SMOOTHING_PSEUDO_COUNT * (1.0 - prior)
    denom = alpha + beta  # n + (alpha + beta): n + alpha + beta rounds differently
    table = {key: (0 if key[0] == "tag" else n, (clicks[key] + alpha) / (n + denom))
             for key, n in counts.items()}
    return CategoryEncodings(table, prior, alpha, beta)


def feature_manifest() -> tuple[str, ...]:
    return (*(f"{f}_{stat}" for f in GBRT_CATEGORICAL_FIELDS for stat in ("freq", "ctr")),
            "tag_ctr", *GBRT_CONTINUOUS_FIELDS)


DEFAULT_MANIFEST = feature_manifest()


def densify(record: LogRecord, encodings: CategoryEncodings) -> np.ndarray:
    """Fixed-length dense vector in :data:`DEFAULT_MANIFEST` order."""
    (weekday, os_label, browser, region, city, ad_exchange, domain, slot_id, visibility,
     slot_format, creative_id) = encodings.by_field
    prior = encodings.prior
    unseen, ts = (0, prior), record.timestamp
    os_key, browser_key = classify_user_agent(record.user_agent)
    # The distinct tags' CTRs added in sequence from 0.0: builtin sum compensates
    # from Python 3.12 on, which would change the column, and so the model files.
    tag_ctr, tag_sum, tags = encodings.tag_ctr, 0.0, dict.fromkeys(record.user_tags)
    for tag in tags:
        tag_sum += tag_ctr.get(tag, prior)
    row = (*weekday.get(ts.weekday(), unseen), *os_label.get(os_key, unseen), *browser.get(browser_key, unseen),
           *region.get(record.region, unseen), *city.get(record.city, unseen),
           *ad_exchange.get(record.ad_exchange, unseen), *domain.get(record.domain, unseen),
           *slot_id.get(record.slot_id, unseen), *visibility.get(record.slot_visibility, unseen),
           *slot_format.get(record.slot_format, unseen), *creative_id.get(record.creative_id, unseen),
           tag_sum / len(tags) if tags else prior, record.slot_width, record.slot_height,
           record.slot_floor_price, ts.hour)
    return np.fromiter(row, np.float64, len(row))


def densify_cases(
    cases: Sequence[AuctionCase], encodings: CategoryEncodings,
) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, labels) for a batch of cases."""
    x = np.empty((len(cases), len(DEFAULT_MANIFEST)), dtype=np.float64)
    y = np.empty(len(cases), dtype=np.float64)
    for i, case in enumerate(cases):
        x[i] = densify(case.record, encodings)
        y[i] = 1.0 if case.clicked else 0.0
    return x, y


def encoding_split(cases: Sequence[AuctionCase]) -> list[AuctionCase]:
    """The first half of the training cases in time order, reserved for
    fitting encodings, so the encoded period is disjoint from the fitted one."""
    return list(cases[:max(1, len(cases) // 2)])
