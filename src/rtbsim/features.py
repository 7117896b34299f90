"""Model inputs from log records.

Two encodings are produced: sparse binary one-hot vectors (for the linear
CTR model) and dense frequency/CTR category encodings (for the boosted
trees).  Index 0 of the one-hot space is reserved for the bias and never
appears in a vector.

:func:`field_values` is the one definition of a record's fields and of how
each value is spelled; the vocabulary, the encodings, :func:`densify` and
the per-feature breakdowns of :mod:`rtbsim.stats` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import kvfile
from .logdata import AuctionCase, LogRecord

__all__ = [
    "DerivedFields",
    "Vocabulary",
    "CategoryEncodings",
    "SparseBatch",
    "EmptyTrainingSet",
    "derive_fields",
    "field_values",
    "classify_user_agent",
    "floor_price_bucket",
    "build_vocabulary",
    "binarize",
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

# Dense manifest for the tree model: (frequency, ctr) per categorical
# field, one aggregate ctr over the case's tags, then raw continuous values.
GBRT_CATEGORICAL_FIELDS = (
    "weekday", "os", "browser", "region", "city", "ad_exchange",
    "domain", "slot_id", "slot_visibility", "slot_format", "creative_id",
)
GBRT_CONTINUOUS_FIELDS = ("slot_width", "slot_height", "slot_floor_price", "hour")


# Distinct user-agent strings whose labels are kept: a log holds few (10 in
# a 2000-record synthetic split), and the bound caps memory on one that
# holds many.
USER_AGENT_MEMO = 4096


class EmptyTrainingSet(ValueError):
    pass


@lru_cache(maxsize=USER_AGENT_MEMO)
def classify_user_agent(user_agent: str) -> tuple[str, str]:
    """(os, browser) labels from ordered substring matching; unknown -> other.

    Memoized per distinct string, the last ``USER_AGENT_MEMO`` of them.
    """
    ua = user_agent.lower()
    os_label = "other"
    for label, needles in _OS_RULES:
        if any(nd in ua for nd in needles):
            os_label = label
            break
    browser = "other"
    for label, needles in _BROWSER_RULES:
        if any(nd in ua for nd in needles):
            browser = label
            break
    return os_label, browser


def floor_price_bucket(price: int) -> str:
    if price <= 0:
        return FLOOR_BUCKETS[0]
    if price <= 10:
        return FLOOR_BUCKETS[1]
    if price <= 50:
        return FLOOR_BUCKETS[2]
    if price <= 100:
        return FLOOR_BUCKETS[3]
    return FLOOR_BUCKETS[4]


@dataclass(frozen=True, slots=True)
class DerivedFields:
    weekday: str
    hour: int
    os: str
    browser: str
    floor_bucket: str


def derive_fields(record: LogRecord) -> DerivedFields:
    os_label, browser = classify_user_agent(record.user_agent)
    return DerivedFields(
        weekday=WEEKDAYS[record.timestamp.weekday()],
        hour=record.timestamp.hour,
        os=os_label,
        browser=browser,
        floor_bucket=floor_price_bucket(record.slot_floor_price),
    )


def field_values(record: LogRecord) -> list[tuple[str, str]]:
    """A record's (field, value) pairs in canonical order, then one per
    distinct tag, in the order the record first lists it.

    Identifier-like and price/label columns are deliberately absent.
    """
    d = derive_fields(record)
    pairs = [
        ("weekday", d.weekday),
        ("hour", str(d.hour)),
        ("os", d.os),
        ("browser", d.browser),
        ("region", str(record.region)),
        ("city", str(record.city)),
        ("ad_exchange", str(record.ad_exchange)),
        ("domain", record.domain),
        ("slot_id", record.slot_id),
        ("slot_width", str(record.slot_width)),
        ("slot_height", str(record.slot_height)),
        ("slot_visibility", record.slot_visibility),
        ("slot_format", record.slot_format),
        ("floor_bucket", d.floor_bucket),
        ("creative_id", record.creative_id),
    ]
    for tag in dict.fromkeys(record.user_tags):
        pairs.append(("tag", str(tag)))
    return pairs


class Vocabulary:
    """Injective (field, value) -> index map; index 0 is the bias."""

    def __init__(self, index: dict[tuple[str, str], int]):
        self.index = index
        self.dimension = len(index) + 1

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
    index: dict[tuple[str, str], int] = {}
    next_idx = 1
    empty = True
    for case in train:
        empty = False
        for key in field_values(case.record):
            if key not in index:
                index[key] = next_idx
                next_idx += 1
    if empty:
        raise EmptyTrainingSet("cannot build a vocabulary from zero cases")
    return Vocabulary(index)


def binarize(record: LogRecord, vocab: Vocabulary) -> np.ndarray:
    """Sorted active one-hot indices (bias excluded, implicit index 0), as
    the int64 that ``models.predict`` reads without a copy.

    Out-of-vocabulary values contribute nothing, so a fully unseen record
    yields an empty vector.
    """
    found = {
        idx for key in field_values(record)
        if (idx := vocab.index.get(key)) is not None
    }
    return np.array(sorted(found), dtype=np.int64)


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
        lengths = np.fromiter((len(v) for v in vectors), dtype=np.int64, count=len(vectors))
        indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = (
            np.concatenate(vectors).astype(np.int32)
            if len(vectors) else np.empty(0, dtype=np.int32)
        )
        return cls(indptr, indices, np.asarray(labels, dtype=np.float64), dimension)


def binarize_cases(cases: Sequence[AuctionCase], vocab: Vocabulary) -> SparseBatch:
    vectors = [binarize(c.record, vocab) for c in cases]
    labels = [1.0 if c.clicked else 0.0 for c in cases]
    return SparseBatch.from_vectors(vectors, labels, vocab.dimension)


# Pseudo-observation mass of the CTR smoothing: alpha + beta = 20 at the
# subset's global CTR.
SMOOTHING_PSEUDO_COUNT = 20.0


class CategoryEncodings:
    """Per-(field, value) frequency and smoothed empirical CTR.

    Tag values carry CTR only.  Unseen values fall back to (0, prior).
    """

    def __init__(
        self,
        freq: dict[tuple[str, str], int],
        ctr: dict[tuple[str, str], float],
        prior: float,
        alpha: float,
        beta: float,
    ):
        self.freq = freq
        self.ctr = ctr
        self.prior = prior
        self.alpha = alpha
        self.beta = beta

    def lookup(self, field: str, value: str) -> tuple[int, float]:
        key = (field, value)
        return self.freq.get(key, 0), self.ctr.get(key, self.prior)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("#rtbsim-encodings v1\n")
            f.write(f"prior\t{self.prior!r}\talpha\t{self.alpha!r}\tbeta\t{self.beta!r}\n")
            for (field, value) in sorted(self.ctr):
                n = self.freq.get((field, value), 0)
                f.write(f"{field}\t{value}\t{n}\t{self.ctr[(field, value)]!r}\n")

    @classmethod
    def load(cls, path) -> "CategoryEncodings":
        """The saved encodings; a body line must read field, value, a count of
        0 or more and a CTR in [0, 1], tab-separated, with no (field, value) twice."""
        with open(path, encoding="utf-8") as f:
            kvfile.check_header(f, "#rtbsim-encodings v1")
            prior, alpha, beta = map(float, kvfile.read_labeled(f, "prior", "alpha", "beta"))
            freq: dict[tuple[str, str], int] = {}
            ctr: dict[tuple[str, str], float] = {}
            for line_no, line in enumerate(f, 3):
                text = line.rstrip("\n")
                parts = text.split("\t")
                try:
                    field, value, n, c = parts[0], parts[1], int(parts[2]), float(parts[3])
                except (IndexError, ValueError):
                    n = c = -1  # fails the check below
                if len(parts) != 4 or n < 0 or not 0.0 <= c <= 1.0 or (field, value) in ctr:
                    raise ValueError(f"line {line_no}: expected '<field>\\t<value>\\t<count >= 0>\\t"
                                     f"<ctr in [0, 1]>' with a (field, value) not listed before, "
                                     f"found {text!r}")
                if field != "tag":
                    freq[(field, value)] = n
                ctr[(field, value)] = c
        return cls(freq, ctr, prior, alpha, beta)


def build_encodings(train_subset: Sequence[AuctionCase]) -> CategoryEncodings:
    """Fit frequency/CTR encodings on a training subset.

    Each category's CTR is smoothed toward the subset's global CTR p with
    SMOOTHING_PSEUDO_COUNT (20) pseudo-observations: alpha = 20 p clicks
    and beta = 20 (1 - p) non-clicks, so a category seen n times with k
    clicks encodes (k + alpha) / (n + alpha + beta).
    """
    if not train_subset:
        raise EmptyTrainingSet("cannot fit encodings on zero cases")
    counts: dict[tuple[str, str], int] = {}
    clicks: dict[tuple[str, str], int] = {}
    total = 0
    total_clicks = 0
    for case in train_subset:
        total += 1
        is_click = 1 if case.clicked else 0
        total_clicks += is_click
        for key in field_values(case.record):
            counts[key] = counts.get(key, 0) + 1
            if is_click:
                clicks[key] = clicks.get(key, 0) + 1
    prior = total_clicks / total
    alpha = SMOOTHING_PSEUDO_COUNT * prior
    beta = SMOOTHING_PSEUDO_COUNT * (1.0 - prior)
    denom_add = alpha + beta
    freq: dict[tuple[str, str], int] = {}
    ctr: dict[tuple[str, str], float] = {}
    for key, n in counts.items():
        k = clicks.get(key, 0)
        ctr[key] = (k + alpha) / (n + denom_add)
        if key[0] != "tag":
            freq[key] = n
    return CategoryEncodings(freq, ctr, prior, alpha, beta)


def feature_manifest() -> tuple[str, ...]:
    names: list[str] = []
    for f in GBRT_CATEGORICAL_FIELDS:
        names.append(f"{f}_freq")
        names.append(f"{f}_ctr")
    names.append("tag_ctr")
    names.extend(GBRT_CONTINUOUS_FIELDS)
    return tuple(names)


DEFAULT_MANIFEST = feature_manifest()


# Column of each categorical field's frequency; its CTR is the next column.
_FREQ_COLUMN = {f: 2 * i for i, f in enumerate(GBRT_CATEGORICAL_FIELDS)}
_TAG_CTR_COLUMN = 2 * len(GBRT_CATEGORICAL_FIELDS)


def densify(record: LogRecord, encodings: CategoryEncodings) -> np.ndarray:
    """Fixed-length dense vector in :data:`DEFAULT_MANIFEST` order."""
    out = np.empty(len(DEFAULT_MANIFEST), dtype=np.float64)
    # The tag CTRs added in sequence from 0.0: builtin sum compensates from
    # Python 3.12 on, which would change the column, and so the model files.
    tag_sum, n_tags = 0.0, 0
    for field, value in field_values(record):
        col = _FREQ_COLUMN.get(field)
        if col is not None:
            out[col], out[col + 1] = encodings.lookup(field, value)
        elif field == "tag":
            tag_sum += encodings.lookup(field, value)[1]
            n_tags += 1
    out[_TAG_CTR_COLUMN] = tag_sum / n_tags if n_tags else encodings.prior
    out[_TAG_CTR_COLUMN + 1:] = (
        record.slot_width, record.slot_height, record.slot_floor_price, record.timestamp.hour,
    )
    return out


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
