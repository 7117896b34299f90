"""Campaign-level summaries and per-feature metric breakdowns.

Money figures are fen throughout: cost = sum(paying) / 1000, CPM is cost
per thousand impressions, eCPC is cost per click.  Ratios with an empty
denominator come back absent (None), never NaN.

Breakdowns group cases by the ``(field, value)`` pairs that
:func:`rtbsim.features.field_values` gives, the one definition of a
record's fields, walked once per case: each breakdown key groups by one of
its fields, except ``slot_size``, which joins the record's width and height.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .features import BROWSER_LABELS, OS_LABELS, WEEKDAYS, field_values
from .logdata import SLOT_FORMATS, SLOT_VISIBILITIES, AuctionCase

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

# field_values field -> the breakdown key that groups by it, in breakdown
# order; _tally adds the slot_size pair.
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


def campaign_summary(bid_count: int, cases: Sequence[AuctionCase]) -> CampaignSummary:
    """Summary over joined cases; bid_count 0 means win ratio unknown, and
    any other count must be at least the impressions won."""
    imps = len(cases)
    if bid_count != 0 and bid_count < imps:
        raise ValueError(f"bid count {bid_count} must be 0 (unknown) or at least the "
                         f"{imps} impressions")
    clicks = sum(1 for c in cases if c.clicked)
    convs = sum(1 for c in cases if c.converted)
    cost_milli = sum(c.paying_price for c in cases)
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


def _tally(cases: Sequence[AuctionCase]) -> dict[str, dict[str, list]]:
    """key -> label -> [n, clicks, sum_price, sum_price_sq] for every
    FEATURE_KEYS key, in one pass.

    A case counts once in each tag group it carries: field_values gives
    each distinct tag once.
    """
    acc = {key: defaultdict(lambda: [0, 0, 0, 0]) for key in FEATURE_KEYS}
    groups_of = {field: acc[key] for field, key in _FIELD_KEY.items()}
    for case in cases:
        r = case.record
        pairs = field_values(r)
        pairs.append(("slot_size", f"{r.slot_width}×{r.slot_height}"))
        clicked = 1 if case.clicked else 0
        price = case.paying_price
        for field, label in pairs:
            groups = groups_of.get(field)
            if groups is not None:
                a = groups[label]
                a[0] += 1
                a[1] += clicked
                a[2] += price
                a[3] += price * price
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


def feature_breakdowns(cases: Sequence[AuctionCase]) -> list[FeatureBreakdown]:
    """Every (key, metric) breakdown, in FEATURE_KEYS x METRICS order, from
    one pass over the cases: per group, (n, mean, standard error).

    CTR uses the Bernoulli standard error sqrt(m(1-m)/n); market price uses
    the sample standard error; eCPC groups without a click are reported
    absent.  A case with k distinct tags contributes to k tag groups, and
    tag groups are re-indexed 1..K by descending frequency (original id
    kept in raw_label).
    """
    if not cases:
        raise ValueError("breakdown needs at least one case")
    acc = _tally(cases)
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
