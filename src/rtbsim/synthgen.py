"""Ground-truth synthetic log generator.

Produces train/test auction cases whose click labels follow a known
logistic model over the sampled categorical features, with market prices
drawn from a truncated log-normal.  Everything is a deterministic function
of the config seed, which makes end-to-end tests possible without any real
log data.

Each block draws its random columns with numpy, in a fixed order from its
own seeded generator, and is returned as a :class:`~rtbsim.logdata.CaseTable`
built straight from those draws: each coded column is coded with numpy, in
the order its values first appear, so the table equals ``CaseTable.of`` of
the block's cases; the timestamps are the start's milliseconds plus the
cumulated gaps, and only the per-row ids and IPs are lists.  No record is
made per case.  A column is coded from integer ranks among its distinct
values, a tag row's one tag column at a time, so no key reaches rows times
distinct values; the codes number the ranks in the order of their first
rows.  Keys that span at most :data:`_DENSE_SPAN` times the rows are ranked
by marking each held key in an array of the span and counting the marks,
with no sort; a wider span is ranked by ``np.unique``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import islice, product
from pathlib import Path

import numpy as np

from .logdata import (
    COLUMN_KINDS,
    EVENT_COLUMNS,
    EVENT_LOG,
    AuctionCase,
    CaseTable,
    LogType,
    _LAST_MS,
    _LOG_TYPE_AT,
    _parse_timestamp,
    format_timestamps,
    serialize_record,
)

__all__ = ["SynthConfig", "GroundTruth", "DegenerateConfig", "generate", "write_dataset"]

ZIPF_EXPONENT = 1.1

MAX_GAP_MS = 399  # cases in a block are 1 to MAX_GAP_MS ms apart
BLOCK_GAP_MS = 60_000  # from the last training case to the first test case
_DENSE_SPAN = 4  # _rank counts keys that span at most this many times the rows

# Pool of user-agent strings with a spread of OS/browser classes.
USER_AGENTS = (
    "Mozilla/5.0 (compatible; MSIE 9.0; Windows NT 6.1; WOW64; Trident/5.0)",
    "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/31.0 Safari/537.36",
    "Mozilla/5.0 (Windows NT 5.1; rv:25.0) Gecko/20100101 Firefox/25.0",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_9) AppleWebKit/537.71 Version/7.0 Safari/537.71",
    "Mozilla/5.0 (iPhone; CPU iPhone OS 7_0 like Mac OS X) AppleWebKit/537.51 Version/7.0 Mobile Safari/9537.53",
    "Mozilla/5.0 (Linux; Android 4.2.2; GT-I9505) AppleWebKit/537.36 Chrome/30.0 Mobile Safari/537.36",
    "Mozilla/5.0 (X11; Linux x86_64; rv:24.0) Gecko/20100101 Firefox/24.0",
    "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.36 Maxthon/4.1 Chrome/26.0 Safari/537.36",
    "Mozilla/5.0 (compatible; MSIE 7.0; Windows NT 5.1; SE 2.X MetaSr 1.0; SogouMSE)",
    "Opera/9.80 (Windows NT 6.1; U; zh-cn) Presto/2.9.168 Version/11.50",
)

SLOT_SIZE_POOL = (
    (300, 250), (728, 90), (160, 600), (336, 280), (950, 90),
    (300, 600), (1000, 90), (640, 90), (200, 200), (360, 300),
)
VISIBILITY_POOL = ("FirstView", "SecondView", "ThirdView", "FourthView", "Na")
FORMAT_POOL = ("Fixed", "Pop", "Background", "Float", "Na")


class DegenerateConfig(ValueError):
    """Config whose true click probabilities carry no usable signal."""


DOMAIN_POOL, URL_POOL, CREATIVE_POOL = (tuple(hashlib.md5(f"{prefix}{i}".encode()).hexdigest() for i in range(n))
                                        for prefix, n in (("domain", 15), ("url", 25), ("creative", 6)))
_LOW_DIGITS = tuple(f"{i:03d}" for i in range(1000))
_OCTETS = np.array([str(i) for i in range(256)], object)


@dataclass
class SynthConfig:
    seed: int = 0
    n_train: int = 10_000
    n_test: int = 2_000

    # Category counts per feature domain.
    n_regions: int = 12
    n_cities: int = 30
    n_exchanges: int = 3
    n_slot_sizes: int = 5
    n_tags: int = 20
    tags_per_case: int = 3

    # Ground-truth click model: logit(p) = bias + sum of category weights.
    # When true_weights is None a vector is drawn from the seed with
    # N(0, weight_scale^2) entries and bias = logit(base_ctr).
    true_weights: np.ndarray | None = None
    base_ctr: float = 0.01
    weight_scale: float = 0.6

    max_price: int = 300
    floor_rate: float = 0.25
    max_floor: int = 40
    conversion_given_click: float = 0.2
    # Optional shift of the price location with the case's click logit
    # (z-scored); 0 keeps price and label independent.
    price_click_correlation: float = 0.0

    advertiser_id: int = 9001
    start_time: str = "20130606000000000"

    # Location and scale of the log-normal market price, truncated to
    # [1, max_price] and rounded to integer milli-fen.  Declared last, so
    # synth_config.txt lists them last.
    market_mu: float = math.log(70.0)
    market_sigma: float = 0.4

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        for name in ("n_regions", "n_cities", "n_exchanges", "n_slot_sizes", "n_tags"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_slot_sizes > len(SLOT_SIZE_POOL):
            raise ValueError(f"n_slot_sizes must be <= {len(SLOT_SIZE_POOL)}")
        if not (1 <= self.tags_per_case <= self.n_tags):
            raise ValueError("tags_per_case must be in [1, n_tags]")
        for name in ("floor_rate", "conversion_given_click"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 < self.base_ctr < 1.0:
            raise ValueError("base_ctr must be in (0, 1)")
        if self.market_sigma <= 0:
            raise ValueError("market_sigma must be > 0")
        if self.max_price < 1:
            raise ValueError("max_price must be >= 1")
        if self.true_weights is not None:
            w = np.asarray(self.true_weights, dtype=np.float64)
            if w.shape != (self.weight_dim,):
                raise ValueError(
                    f"true_weights must have length {self.weight_dim} "
                    f"(bias + regions + cities + exchanges + slot sizes + tags), got {w.shape}"
                )
            object.__setattr__(self, "true_weights", w)
        start = _parse_timestamp(self.start_time)  # validates the format
        span_ms = MAX_GAP_MS * (self.n_train + self.n_test) + BLOCK_GAP_MS
        if _LAST_MS - start < span_ms:
            raise ValueError(f"start_time {self.start_time} is too late: the last case may fall "
                             f"up to {span_ms} ms after it, past 99991231235959999")

    @property
    def weight_dim(self) -> int:
        return 1 + self.n_regions + self.n_cities + self.n_exchanges + self.n_slot_sizes + self.n_tags

    def weight_layout(self) -> dict[str, slice]:
        """Slices of the weight vector per domain; index 0 is the bias."""
        out: dict[str, slice] = {}
        lo = 1
        for name, n in (
            ("region", self.n_regions),
            ("city", self.n_cities),
            ("ad_exchange", self.n_exchanges),
            ("slot_size", self.n_slot_sizes),
            ("tag", self.n_tags),
        ):
            out[name] = slice(lo, lo + n)
            lo += n
        return out


@dataclass
class GroundTruth:
    """What the generator knows and a model should recover."""

    true_weights: np.ndarray
    weight_layout: dict[str, slice]
    train_p: np.ndarray
    test_p: np.ndarray
    realized_base_ctr: float

    def weight_for(self, domain: str, value: int) -> float:
        sl = self.weight_layout[domain]
        return float(self.true_weights[sl][value if domain != "tag" else value - 1])


def _zipf_probs(n: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    return p / p.sum()


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    zc = np.clip(z, -30.0, 30.0)
    return 1.0 / (1.0 + np.exp(-zc))


def _resolve_weights(config: SynthConfig) -> np.ndarray:
    if config.true_weights is not None:
        return config.true_weights
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 7))))
    w = rng.normal(0.0, config.weight_scale, size=config.weight_dim)
    w[0] = math.log(config.base_ctr / (1.0 - config.base_ctr))
    return w


def _sample_block(
    config: SynthConfig,
    weights: np.ndarray,
    n: int,
    phase: int,
    start_ms: int,
) -> tuple[CaseTable, np.ndarray, int]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, phase))))
    layout = config.weight_layout()

    region = rng.choice(config.n_regions, size=n, p=_zipf_probs(config.n_regions))
    city = rng.choice(config.n_cities, size=n, p=_zipf_probs(config.n_cities))
    exchange = rng.choice(config.n_exchanges, size=n, p=_zipf_probs(config.n_exchanges))
    slot_idx = rng.choice(config.n_slot_sizes, size=n, p=_zipf_probs(config.n_slot_sizes))

    # Weighted sampling without replacement via the exponential race trick:
    # the k smallest Exp(w) arrivals per row are the chosen tags.
    tag_w = _zipf_probs(config.n_tags)
    race = rng.exponential(size=(n, config.n_tags)) / tag_w
    tag_cols = np.sort(np.argpartition(race, config.tags_per_case - 1, axis=1)[:, : config.tags_per_case], axis=1)

    ua_idx = rng.integers(0, len(USER_AGENTS), size=n)
    vis_idx = rng.integers(0, len(VISIBILITY_POOL), size=n)
    fmt_idx = rng.integers(0, len(FORMAT_POOL), size=n)
    dom_idx = rng.integers(0, len(DOMAIN_POOL), size=n)
    url_idx = rng.integers(0, len(URL_POOL), size=n)
    cre_idx = rng.integers(0, len(CREATIVE_POOL), size=n)
    ip_a = rng.integers(1, 223, size=n)
    ip_b = rng.integers(0, 255, size=n)

    z = np.full(n, weights[0])
    z += weights[layout["region"]][region]
    z += weights[layout["city"]][city]
    z += weights[layout["ad_exchange"]][exchange]
    z += weights[layout["slot_size"]][slot_idx]
    tag_weights = weights[layout["tag"]]
    for k in range(config.tags_per_case):
        z += tag_weights[tag_cols[:, k]]
    p = _stable_sigmoid(z)

    loc = config.market_mu
    if config.price_click_correlation != 0.0:
        zs = (z - z.mean()) / max(z.std(), 1e-12)
        loc = loc + config.price_click_correlation * zs
    paying = np.clip(np.rint(rng.lognormal(loc, config.market_sigma, size=n)),
                     1, config.max_price).astype(np.int64)

    floor_mask = rng.random(n) < config.floor_rate
    floor_draw = rng.integers(1, config.max_floor + 1, size=n)
    floor = np.where(floor_mask, floor_draw, 0).astype(np.int64)

    clicked = rng.random(n) < p
    converted = clicked & (rng.random(n) < config.conversion_given_click)

    gaps = rng.integers(1, MAX_GAP_MS + 1, size=n)
    offsets = np.cumsum(gaps)

    prefix = f"{config.seed & 0xFFFFFFFF:08x}{phase}"
    stamps = start_ms + offsets  # up to year 9999, as SynthConfig ensures
    lists = {
        "bid_id": _numbered(prefix, 11, n),
        "ipinyou_id": _numbered(f"u{phase}", 12, n),
        "ip": list(map(".".join, zip(_OCTETS[ip_a], _OCTETS[ip_b], _OCTETS[np.arange(n) >> 8 & 255] + ".*"))),
    }
    widths, heights = (np.array(side)[slot_idx] for side in zip(*SLOT_SIZE_POOL))
    slot_ids = [f"{w}_{h}_{k}" for k, (w, h) in enumerate(SLOT_SIZE_POOL)]
    coded = {
        "log_type": _constant(n, LogType.IMPRESSION),
        "user_agent": _coded(ua_idx, USER_AGENTS),
        "region": _coded(region),
        "city": _coded(city),
        "ad_exchange": _coded(exchange),
        "domain": _coded(dom_idx, DOMAIN_POOL),
        "url": _coded(url_idx, URL_POOL),
        "anonymous_url_id": _constant(n, None),
        "slot_id": _coded(slot_idx, slot_ids),
        "slot_width": _coded(widths),
        "slot_height": _coded(heights),
        "slot_visibility": _coded(vis_idx, VISIBILITY_POOL),
        "slot_format": _coded(fmt_idx, FORMAT_POOL),
        "slot_floor_price": _coded(floor),
        "creative_id": _coded(cre_idx, CREATIVE_POOL),
        "bid_price": _constant(n, config.max_price + 1),  # every generated case is a valid historical win
        "paying_price": _coded(paying),
        "key_page_url": _constant(n, None),
        "advertiser_id": _constant(n, config.advertiser_id),
        "user_tags": _coded(tag_cols + 1),  # tag ids are 1-based
    }
    table = CaseTable({name: codes for name, (codes, _) in coded.items()},
                      {name: values for name, (_, values) in coded.items()}, lists, stamps,
                      clicked, converted)
    return table, p, int(stamps[-1])


def _numbered(head: str, width: int, n: int) -> list[str]:
    """``f"{head}{i:0{width}d}"`` for each ``i < n``, from its thousands and last three digits."""
    highs = [f"{head}{i:0{width - 3}d}" for i in range(-(-n // 1000))]
    return list(map("".join, islice(product(highs, _LOW_DIGITS), n)))


def _coded(keys: np.ndarray, pool=None) -> tuple[np.ndarray, list]:
    """A column as :meth:`CaseTable.of` codes it: each row's int64 code into
    the list of the distinct values, in the order each first appears.  Row
    ``i`` holds ``keys[i]`` (as a tuple, when ``keys`` is 2-D), or
    ``pool[keys[i]]`` when a pool of distinct values is given."""
    columns = keys.reshape(len(keys), -1).T
    rank, count = _rank(columns[0])
    for column in columns[1:]:  # the rows' ranks so far, re-ranked with this column's
        ranks, distinct = _rank(column)
        rank, count = _rank(rank * distinct + ranks)
    first = np.full(count, len(keys))
    np.minimum.at(first, rank, np.arange(len(keys)))
    order = np.argsort(first)
    code = np.empty(count, np.int64)
    code[order] = np.arange(count)
    held = keys[first[order]].tolist()
    if keys.ndim == 2:
        held = list(map(tuple, held))
    return code[rank], held if pool is None else [pool[k] for k in held]


def _rank(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Each key's int64 rank among the distinct keys, and their count."""
    low = int(keys.min())
    span = int(keys.max()) - low + 1
    if span > _DENSE_SPAN * len(keys):
        distinct, rank = np.unique(keys, return_inverse=True)
        return rank, len(distinct)
    held = np.zeros(span, bool)
    offset = keys - low
    held[offset] = True
    ranks = np.cumsum(held) - 1
    return ranks[offset], int(ranks[-1]) + 1


def _constant(n: int, value) -> tuple[np.ndarray, list]:
    """The codes and values of a column whose ``n`` rows all hold ``value``."""
    return np.zeros(n, np.int64), [value]


def generate(config: SynthConfig) -> tuple[CaseTable, CaseTable, GroundTruth]:
    """Sample (train, test, ground truth) deterministically from the config."""
    weights = _resolve_weights(config)
    start = _parse_timestamp(config.start_time)
    train, train_p, train_end = _sample_block(config, weights, config.n_train, 0, start)
    test, test_p, _ = _sample_block(config, weights, config.n_test, 1, train_end + BLOCK_GAP_MS)

    eps = 1e-9
    all_p = np.concatenate([train_p, test_p])
    if all_p.max() < eps or all_p.min() > 1.0 - eps:
        raise DegenerateConfig(
            "true click probabilities are numerically 0 or 1 everywhere; "
            "adjust bias/weights"
        )
    truth = GroundTruth(
        true_weights=weights,
        weight_layout=config.weight_layout(),
        train_p=train_p,
        test_p=test_p,
        realized_base_ctr=float(np.mean(train.clicked)),
    )
    return train, test, truth


def write_dataset(cases: CaseTable | list[AuctionCase], directory) -> dict[str, Path]:
    """Write imp/clk/cnv event-log files consumable by the log parser.

    ``cases`` is a :class:`CaseTable` or a case list.  Each line is the
    case's :func:`serialize_record` line, with log type 2 in the click log
    and 3 in the conversion log, as :func:`as_event` sets it; each coded
    column's values that some row holds are written once each.  A case that leaves a column
    absent that is not optional text raises :class:`MissingValue`.
    """
    table = CaseTable.of(cases)
    _check_required(table)
    texts = []
    for name, write in zip(EVENT_COLUMNS, EVENT_LOG.writers):
        if name in table.lists:
            texts.append(list(map(write, table.lists[name])))
        elif name == "timestamp":
            texts.append(format_timestamps(table.timestamp_ms))
        else:
            codes, values = table.codes[name], table.values[name]
            held = np.bincount(codes, minlength=len(values)).tolist()
            written = [write(value) if count else None for value, count in zip(values, held)]
            texts.append(list(map(written.__getitem__, codes.tolist())))
    # Each line around its log type column, which the event logs differ in.
    heads = list(map("\t".join, zip(*texts[:_LOG_TYPE_AT])))
    tails = list(map("\t".join, zip(*texts[_LOG_TYPE_AT + 1:])))
    write_type = EVENT_LOG.writers[_LOG_TYPE_AT]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "imp": directory / "imp.txt",
        "clk": directory / "clk.txt",
        "cnv": directory / "cnv.txt",
    }
    with open(paths["imp"], "w", encoding="utf-8") as f:
        f.writelines(map("{}\t{}\t{}\n".format, heads, texts[_LOG_TYPE_AT], tails))
    for key, flags, log_type in (("clk", table.clicked, LogType.CLICK),
                                 ("cnv", table.converted, LogType.CONVERSION)):
        text = write_type(log_type)
        with open(paths[key], "w", encoding="utf-8") as f:
            f.writelines(f"{heads[row]}\t{text}\t{tails[row]}\n" for row in np.flatnonzero(flags).tolist())
    return paths


def _check_required(table: CaseTable) -> None:
    """Raise :func:`serialize_record`'s :class:`MissingValue` for the first
    row that leaves a column absent that is not optional text (not for a
    coded column's absent value that no row holds, as a taken table's).
    A table's timestamps are never absent."""
    first = [table.column(name).index(None) for name, kind in COLUMN_KINDS.items()
             if kind not in ("optional text", "timestamp") and (None in table.lists[name] if name in table.lists
                  else None in (values := table.values[name]) and values.index(None) in table.codes[name])]
    if first:
        serialize_record(table.record(min(first)), EVENT_LOG)
