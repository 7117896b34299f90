"""Campaign-level summaries and per-feature metric breakdowns.

Money figures are fen throughout: cost = sum(paying) / 1000, CPM is cost
per thousand impressions, eCPC is cost per click.  Ratios with an empty
denominator come back absent (None), never NaN.

Breakdowns group cases by the values :func:`rtbsim.features.field_values`
gives, the one definition of a record's fields; every breakdown key names
one of its fields, except ``slot_size``, which joins width and height.
"""

from __future__ import annotations

import math
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
    "UnknownFeatureKey",
    "campaign_summary",
    "feature_breakdown",
    "feature_breakdowns",
    "write_breakdown_csv",
    "write_summary_csv",
    "write_summary_markdown",
]

FEATURE_KEYS = (
    "weekday", "hour", "os", "browser", "region",
    "slot_size", "visibility", "format", "exchange", "user_tag",
)
METRICS = ("ctr", "market_price", "ecpc")


class UnknownFeatureKey(ValueError):
    pass


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
    """Summary over joined cases; bid_count 0 means win ratio unknown."""
    imps = len(cases)
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


# Breakdown key -> the field_values field it groups by; _tally joins
# slot_size from slot_width and slot_height.
_KEY_FIELD = {
    "weekday": "weekday", "hour": "hour", "os": "os", "browser": "browser",
    "region": "region", "slot_size": "slot_size", "visibility": "slot_visibility",
    "format": "slot_format", "exchange": "ad_exchange",
}


def _tally(cases: Sequence[AuctionCase], keys) -> dict[str, dict[str, list]]:
    """key -> label -> [n, clicks, sum_price, sum_price_sq], in one pass.

    A case counts once in each distinct tag group it carries.
    """
    acc: dict[str, dict[str, list]] = {key: {} for key in keys}
    for case in cases:
        fields: dict[str, str] = {}
        tags: set[str] = set()
        for field, value in field_values(case.record):
            if field == "tag":
                tags.add(value)
            else:
                fields[field] = value
        fields["slot_size"] = f"{fields['slot_width']}×{fields['slot_height']}"
        clicked = 1 if case.clicked else 0
        price = case.paying_price
        for key, groups in acc.items():
            for label in tags if key == "user_tag" else (fields[_KEY_FIELD[key]],):
                a = groups.get(label)
                if a is None:
                    a = groups[label] = [0, 0, 0, 0]
                a[0] += 1
                a[1] += clicked
                a[2] += price
                a[3] += price * price
    return acc


def _sort_key(key: str):
    if key in ("hour", "region", "exchange", "user_tag"):
        return lambda label: int(label)
    if key == "weekday":
        order = {w: i for i, w in enumerate(WEEKDAYS)}
        return lambda label: order.get(label, len(order))
    if key == "os":
        order = {w: i for i, w in enumerate(OS_LABELS)}
        return lambda label: order.get(label, len(order))
    if key == "browser":
        order = {w: i for i, w in enumerate(BROWSER_LABELS)}
        return lambda label: order.get(label, len(order))
    if key == "visibility":
        order = {w: i for i, w in enumerate(SLOT_VISIBILITIES)}
        return lambda label: (order.get(label, len(order)), label)
    if key == "format":
        order = {w: i for i, w in enumerate(SLOT_FORMATS)}
        return lambda label: (order.get(label, len(order)), label)
    if key == "slot_size":
        return lambda label: tuple(int(p) for p in label.split("×"))
    return lambda label: label


def feature_breakdown(cases: Sequence[AuctionCase], key: str, metric: str) -> FeatureBreakdown:
    """Per-group (n, mean, standard error) of the chosen metric.

    CTR uses the Bernoulli standard error sqrt(m(1-m)/n); market price uses
    the sample standard error; eCPC groups without a click are reported
    absent.  A case with k distinct tags contributes to k tag groups, and
    tag groups are re-indexed 1..K by descending frequency (original id
    kept in raw_label).
    """
    if key not in FEATURE_KEYS:
        raise UnknownFeatureKey(f"unknown feature key {key!r}")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if not cases:
        raise ValueError("breakdown needs at least one case")
    return _breakdown(key, metric, _tally(cases, (key,))[key])


def feature_breakdowns(cases: Sequence[AuctionCase]) -> list[FeatureBreakdown]:
    """Every (key, metric) breakdown, in FEATURE_KEYS x METRICS order, from
    one pass over the cases; each equals :func:`feature_breakdown`'s."""
    if not cases:
        raise ValueError("breakdown needs at least one case")
    acc = _tally(cases, FEATURE_KEYS)
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
