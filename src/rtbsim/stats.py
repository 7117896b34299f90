"""Campaign-level summaries and per-feature metric breakdowns.

Money figures are fen throughout: cost = sum(paying) / 1000, CPM is cost
per thousand impressions, eCPC is cost per click.  Ratios with an empty
denominator come back absent (None), never NaN.

Breakdowns group cases by their ``(field, value)`` keys, read as the
columns of :func:`rtbsim.features.field_columns`, whose fields and spelling
``features._FIELDS`` and ``features._spell`` define
(:func:`rtbsim.features.field_values` is the per-record reference the tests
compare against): each breakdown key groups by one of its fields, except
``slot_size``, which joins each distinct (width, height).  Each group's
tallies are sums over its codes: ``bincount`` for cases and clicks, and
``add.at`` for the prices, exact where float weights would round.  Both functions take a case
list or a :class:`~rtbsim.logdata.CaseTable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import BROWSER_LABELS, OS_LABELS, WEEKDAYS, field_columns
from .logdata import SLOT_FORMATS, SLOT_VISIBILITIES, AuctionCase, CaseTable

__all__ = [
    "CampaignSummary",
    "FeatureBreakdown",
    "BreakdownRow",
    "FEATURE_KEYS",
    "METRICS",
    "campaign_summary",
    "feature_breakdowns",
    "write_breakdown_csv",
    "write_summary_csv",
    "write_summary_markdown",
]

# field -> the breakdown key that groups by it, in breakdown order;
# slot_size joins the slot_width and slot_height fields.
_FIELD_KEY = {
    "weekday": "weekday", "hour": "hour", "os": "os", "browser": "browser",
    "region": "region", "slot_size": "slot_size", "slot_visibility": "visibility",
    "slot_format": "format", "ad_exchange": "exchange", "tag": "user_tag",
}
FEATURE_KEYS = tuple(_FIELD_KEY.values())
METRICS = ("ctr", "market_price", "ecpc")


@dataclass(frozen=True)
class CampaignSummary:
    bids: int
    imps: int
    clicks: int
    convs: int
    cost_fen: float
    win_ratio: float | None
    ctr: float | None
    cvr: float | None
    cpm_fen: float | None
    ecpc_fen: float | None

    @classmethod
    def from_tallies(cls, bids: int, imps: int, clicks: int, convs: int, cost_fen: float) -> "CampaignSummary":
        return cls(
            bids=bids,
            imps=imps,
            clicks=clicks,
            convs=convs,
            cost_fen=cost_fen,
            win_ratio=imps / bids if bids > 0 else None,
            ctr=clicks / imps if imps > 0 else None,
            cvr=convs / clicks if clicks > 0 else None,
            cpm_fen=1000.0 * cost_fen / imps if imps > 0 else None,
            ecpc_fen=cost_fen / clicks if clicks > 0 else None,
        )


def campaign_summary(bid_count: int, cases: Sequence[AuctionCase] | CaseTable) -> CampaignSummary:
    """Summary over joined cases; bid_count 0 means win ratio unknown, and
    any other count must be at least the impressions won."""
    table = CaseTable.of(cases)
    imps = len(table)
    if bid_count != 0 and bid_count < imps:
        raise ValueError(f"bid count {bid_count} must be 0 (unknown) or at least the "
                         f"{imps} impressions")
    clicks = int(np.count_nonzero(table.clicked))
    convs = int(np.count_nonzero(table.converted))
    cost_milli = table.total("paying_price")
    return CampaignSummary.from_tallies(bid_count, imps, clicks, convs, cost_milli / 1000.0)


@dataclass(frozen=True)
class BreakdownRow:
    label: str
    n: int
    mean: float | None
    se: float | None
    raw_label: str | None = None  # original tag id for re-indexed user_tag rows


@dataclass
class FeatureBreakdown:
    feature_key: str
    metric: str
    rows: list[BreakdownRow]


def _tally(cases: Sequence[AuctionCase] | CaseTable) -> dict[str, dict[str, list]]:
    """key -> label -> [n, clicks, sum_price, sum_price_sq] for every
    FEATURE_KEYS key, over the labels some case holds.

    A case counts once in each tag group it carries: field_columns gives
    each distinct tag once.
    """
    table = CaseTable.of(cases)
    columns = field_columns(table)
    clicked, paying = table.clicked, [0 if p is None else p for p in table.values["paying_price"]]
    # A group's price sums are exact in int64 unless a sum of squares could
    # pass 2**63; Python ints (object) are exact at any size.
    exact = np.int64 if max(paying, default=0) ** 2 * len(table) < 2**63 else object
    price = np.array(paying, dtype=exact)[table.codes["paying_price"]]
    width, height = columns.codes["slot_width"], columns.codes["slot_height"]
    sizes = len(columns.keys["slot_height"])
    size_keys, size_codes = np.unique(width * sizes + height, return_inverse=True)
    widths, heights = columns.keys["slot_width"], columns.keys["slot_height"]
    size_labels = [f"{widths[k // sizes]}×{heights[k % sizes]}" for k in size_keys.tolist()]
    acc = {}
    for field, key in _FIELD_KEY.items():
        if field == "slot_size":
            codes, labels, rows = size_codes, size_labels, slice(None)
        else:
            codes, labels = columns.codes[field], columns.spelled(field)
            rows = columns.tag_rows() if field == "tag" else slice(None)
        tallies = [np.bincount(codes, minlength=len(labels)),
                   np.bincount(codes[clicked[rows]], minlength=len(labels))]
        for weight in (price[rows], price[rows] * price[rows]):
            tallies.append(np.zeros(len(labels), exact))
            np.add.at(tallies[-1], codes, weight)
        acc[key] = {label: list(t) for label, *t in zip(labels, *(t.tolist() for t in tallies))}
    return acc


# Breakdown key -> the rank of each label it knows; labels it does not
# know sort after those, by label.  Tag rows are ranked by _breakdown.
_LABEL_ORDER = {
    key: {label: i for i, label in enumerate(labels)}
    for key, labels in (("weekday", WEEKDAYS), ("os", OS_LABELS), ("browser", BROWSER_LABELS),
                        ("visibility", SLOT_VISIBILITIES), ("format", SLOT_FORMATS))
}


def _sort_key(key: str):
    if key in ("hour", "region", "exchange"):
        return int
    if key == "slot_size":
        return lambda label: tuple(int(p) for p in label.split("×"))
    order = _LABEL_ORDER[key]
    return lambda label: (order.get(label, len(order)), label)


def feature_breakdowns(cases: Sequence[AuctionCase] | CaseTable) -> list[FeatureBreakdown]:
    """Every (key, metric) breakdown, in FEATURE_KEYS x METRICS order, from
    one tally of the cases: per group, (n, mean, standard error).

    CTR uses the Bernoulli standard error sqrt(m(1-m)/n); market price uses
    the sample standard error; eCPC groups without a click are reported
    absent.  A case with k distinct tags contributes to k tag groups, and
    tag groups are re-indexed 1..K by descending frequency (original id
    kept in raw_label).
    """
    table = CaseTable.of(cases)
    if not len(table):
        raise ValueError("breakdown needs at least one case")
    acc = _tally(table)
    return [_breakdown(key, metric, acc[key]) for key in FEATURE_KEYS for metric in METRICS]


def _breakdown(key: str, metric: str, groups: dict[str, list]) -> FeatureBreakdown:
    rows: list[BreakdownRow] = []
    for label, (n, clicks, s, s2) in groups.items():
        if metric == "ctr":
            mean = clicks / n
            se = math.sqrt(mean * (1.0 - mean) / n)
        elif metric == "market_price":
            mean = s / n
            var = (s2 - s * s / n) / (n - 1) if n > 1 else 0.0
            se = math.sqrt(max(var, 0.0) / n)
        else:  # ecpc
            if clicks == 0:
                mean, se = None, None
            else:
                mean, se = (s / 1000.0) / clicks, None
        rows.append(BreakdownRow(label, n, mean, se))

    if key == "user_tag":
        rows.sort(key=lambda r: (-r.n, int(r.label)))
        rows = [
            BreakdownRow(str(rank), r.n, r.mean, r.se, raw_label=r.label)
            for rank, r in enumerate(rows, start=1)
        ]
    else:
        rows.sort(key=lambda r, k=_sort_key(key): k(r.label))
    return FeatureBreakdown(key, metric, rows)


def _fmt(value, none="") -> str:
    return none if value is None else repr(value)


def write_breakdown_csv(breakdown: FeatureBreakdown, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("label,n,mean,se,raw_label\n")
        for r in breakdown.rows:
            f.write(f"{r.label},{r.n},{_fmt(r.mean)},{_fmt(r.se)},{r.raw_label or ''}\n")


SUMMARY_COLUMNS = ("bids", "imps", "clicks", "convs", "cost_fen",
                   "win_ratio", "ctr", "cvr", "cpm_fen", "ecpc_fen")


def write_summary_csv(rows: list[tuple[str, CampaignSummary]], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("campaign," + ",".join(SUMMARY_COLUMNS) + "\n")
        for name, s in rows:
            f.write(name + "," + ",".join(_fmt(getattr(s, c)) for c in SUMMARY_COLUMNS) + "\n")


def _pct(value, digits) -> str:
    return "-" if value is None else f"{100.0 * value:.{digits}f}%"


def write_summary_markdown(rows: list[tuple[str, CampaignSummary]], path) -> None:
    lines = [
        "| Adv. | Bids | Imps | Clicks | Convs | Cost | Win Ratio | CTR | CVR | CPM | eCPC |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for name, s in rows:
        lines.append(
            f"| {name} | {s.bids:,} | {s.imps:,} | {s.clicks:,} | {s.convs:,} "
            f"| {s.cost_fen:,.0f} | {_pct(s.win_ratio, 2)} | {_pct(s.ctr, 3)} "
            f"| {_pct(s.cvr, 3)} "
            f"| {'-' if s.cpm_fen is None else f'{s.cpm_fen:.2f}'} "
            f"| {'-' if s.ecpc_fen is None else f'{s.ecpc_fen:.2f}'} |"
        )
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
