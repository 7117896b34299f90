"""Offline auction replay under a budget.

Simulation walks the time-ordered impression cases once.  Before each case
the budget is checked: once spend reaches it, every remaining bid is zero.
Otherwise the strategy's bid wins iff it is strictly above both the logged
paying price and the floor price; a win pays the logged price and credits
the case's click/conversion flags.  The KPI score of a run is
clicks + N * conversions with N the campaign's conversion weight.  Budgets
are a fraction of a log's total cost, and :func:`budget_fraction` is the one
rule for reading such a fraction: it must lie in (0, 1].
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import bidding, kernels
from .bidding import CampaignSpec, Strategy
from .logdata import AuctionCase

__all__ = [
    "STANDARD_FRACTIONS",
    "FractionOutOfRange",
    "UnsortedInput",
    "ReplayData",
    "ReplayTrace",
    "ReplayResult",
    "budget_fraction",
    "make_budget",
    "simulate",
    "StrategyEntry",
    "CampaignRun",
    "ExperimentTables",
    "run_experiment",
]

STANDARD_FRACTIONS = (Fraction(1, 32), Fraction(1, 8), Fraction(1, 2))


class FractionOutOfRange(ValueError):
    pass


class UnsortedInput(ValueError):
    pass


@dataclass
class ReplayData:
    """Column view of time-sorted auction cases for fast repeated replay."""

    paying: np.ndarray
    floor: np.ndarray
    clicked: np.ndarray
    converted: np.ndarray

    def __len__(self) -> int:
        return len(self.paying)

    @classmethod
    def from_cases(cls, cases: Sequence[AuctionCase]) -> "ReplayData":
        # The records' slots, read directly: AuctionCase's properties cost a call each.
        records = [c.record for c in cases]
        ts = [r.timestamp for r in records]
        if not all(map(operator.le, ts, ts[1:])):
            raise UnsortedInput("cases must be sorted by ascending timestamp")
        n = len(records)
        return cls(
            paying=np.fromiter((0 if r.paying_price is None else r.paying_price for r in records),
                               dtype=np.int64, count=n),
            floor=np.fromiter((r.slot_floor_price for r in records), dtype=np.int64, count=n),
            clicked=np.fromiter((c.clicked for c in cases), dtype=bool, count=n),
            converted=np.fromiter((c.converted for c in cases), dtype=bool, count=n),
        )

    @classmethod
    def of(cls, cases) -> "ReplayData":
        """``cases`` itself if it is a ReplayData, else its columns."""
        return cases if isinstance(cases, cls) else cls.from_cases(cases)

    @property
    def total_cost_milli(self) -> int:
        return int(self.paying.sum())


def budget_fraction(value) -> Fraction:
    """``value`` ("1/8", 0.5, a Fraction, ...) as a Fraction in (0, 1].

    Fractions above 1 are rejected: with more budget than the log's total
    cost the constraint is vacuous and the replay degenerates.
    """
    frac = Fraction(value)
    if frac <= 0 or frac > 1:
        raise FractionOutOfRange(f"budget fraction must be in (0, 1], got {value}")
    return frac


def make_budget(cases, fraction) -> int:
    """floor(fraction * total logged cost), in milli-fen."""
    frac = budget_fraction(fraction)
    data = ReplayData.of(cases)
    if len(data) == 0:
        raise ValueError("cannot size a budget from zero cases")
    return int(frac * data.total_cost_milli)


@dataclass
class ReplayTrace:
    """Per-case log of a run: bid, win flag, running spend after the case."""

    bids: np.ndarray
    win: np.ndarray
    spent_after: np.ndarray


@dataclass
class ReplayResult:
    wins: int
    clicks: int
    convs: int
    cost_milli: int
    score: int
    exhausted_at: int | None
    trace: ReplayTrace | None = None

    @property
    def cost_fen(self) -> float:
        return self.cost_milli / 1000.0


def simulate(
    cases,
    strategy: Strategy,
    budget: int,
    campaign: CampaignSpec | None = None,
    pctr: np.ndarray | None = None,
    keep_trace: bool = False,
) -> ReplayResult:
    """Replay one strategy against the logged prices under a budget.

    ``cases`` is a time-sorted case sequence or a prebuilt
    :class:`ReplayData`.  Strategies that price on pCTR need a ``pctr``
    array aligned with the cases; without one they raise
    :class:`bidding.MissingPctr`.
    """
    campaign = campaign or CampaignSpec(advertiser_id=0, n_weight=0)
    data = ReplayData.of(cases)
    bids = bidding.bid_vector(strategy, len(data), pctr=pctr)
    win_u8, spent, exhausted = kernels.win_scan(bids, data.paying, data.floor, np.int64(budget))
    win = win_u8.astype(bool)

    wins = int(win.sum())
    clicks = int((win & data.clicked).sum())
    convs = int((win & data.converted).sum())
    exhausted_at = None if exhausted < 0 else int(exhausted)
    trace = None
    if keep_trace:
        pay_won = np.where(win, data.paying, 0)
        trace = ReplayTrace(bids=bids, win=win, spent_after=np.cumsum(pay_won))
    return ReplayResult(
        wins=wins,
        clicks=clicks,
        convs=convs,
        cost_milli=int(spent),
        score=clicks + campaign.n_weight * convs,
        exhausted_at=exhausted_at,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Cross-product experiment: campaigns x strategies x budget fractions.
# ---------------------------------------------------------------------------

@dataclass
class StrategyEntry:
    """A labelled strategy column; the strategy may depend on the fraction
    (e.g. re-tuned per budget), in which case pass a callable."""

    label: str
    strategy: Strategy | Callable[[Fraction], Strategy]
    pctr: np.ndarray | None = None

    def resolve(self, fraction: Fraction) -> Strategy:
        return self.strategy(fraction) if callable(self.strategy) else self.strategy


@dataclass
class CampaignRun:
    campaign: CampaignSpec
    test: ReplayData
    entries: list[StrategyEntry]


@dataclass
class Table:
    """One metric at one budget fraction, rows per campaign plus totals."""

    title: str
    columns: list[str]
    rows: list[tuple[str, list]] = field(default_factory=list)

    def to_csv(self) -> str:
        out = ["campaign," + ",".join(self.columns)]
        for name, values in self.rows:
            out.append(name + "," + ",".join(str(v) for v in values))
        return "\n".join(out) + "\n"

    def to_markdown(self) -> str:
        head = "| campaign | " + " | ".join(self.columns) + " |"
        sep = "|" + "---|" * (len(self.columns) + 1)
        lines = [f"**{self.title}**", "", head, sep]
        for name, values in self.rows:
            lines.append("| " + name + " | " + " | ".join(str(v) for v in values) + " |")
        return "\n".join(lines) + "\n"


@dataclass
class ExperimentTables:
    # keyed by (metric, fraction) with metric in {"clicks", "convs", "score"}
    tables: dict[tuple[str, Fraction], Table]

    def get(self, metric: str, fraction) -> Table:
        return self.tables[(metric, Fraction(fraction))]

    def write(self, directory) -> list[Path]:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for (metric, frac), table in self.tables.items():
            stem = f"table_{metric}_{frac.numerator}_{frac.denominator}"
            csv_path = directory / f"{stem}.csv"
            csv_path.write_text(table.to_csv(), encoding="utf-8")
            md_path = directory / f"{stem}.md"
            md_path.write_text(table.to_markdown(), encoding="utf-8")
            written += [csv_path, md_path]
        return written


def run_experiment(
    runs: Sequence[CampaignRun],
    fractions: Sequence = STANDARD_FRACTIONS,
) -> ExperimentTables:
    """Simulate every (campaign, strategy, fraction) cell independently.

    Emits one table per metric per fraction with one row per campaign,
    per-season subtotal rows for seasons present, and a grand-total row
    equal to the column sums.
    """
    if not runs:
        raise ValueError("no campaigns to run")
    fractions = [budget_fraction(f) for f in fractions]
    labels = [e.label for e in runs[0].entries]
    for run in runs:
        if [e.label for e in run.entries] != labels:
            raise ValueError("all campaigns must share the same strategy labels")

    seasons = sorted({run.campaign.season for run in runs} - {None})
    tables: dict[tuple[str, Fraction], Table] = {}
    for frac in fractions:
        # One ReplayResult per (campaign, entry), simulated in that order.
        results = []
        for run in runs:
            budget = make_budget(run.test, frac)
            results.append([simulate(run.test, entry.resolve(frac), budget, run.campaign,
                                     pctr=entry.pctr) for entry in run.entries])
        for m in ("clicks", "convs", "score"):
            grid = [[getattr(r, m) for r in row] for row in results]
            rows = [(str(run.campaign.advertiser_id), values) for run, values in zip(runs, grid)]
            for s in seasons:
                rows.append((f"S{s}", _column_sums(
                    values for run, values in zip(runs, grid) if run.campaign.season == s)))
            rows.append(("Total", _column_sums(grid)))
            tables[(m, frac)] = Table(
                title=f"{m} at budget {frac}", columns=list(labels), rows=rows,
            )
    return ExperimentTables(tables)


def _column_sums(rows) -> list[int]:
    return [sum(column) for column in zip(*rows)]
