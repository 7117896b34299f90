"""Offline auction replay under a budget.

Simulation walks the time-ordered impression cases once.  Before each case
the budget is checked: once spend reaches it, every remaining bid is zero.
Otherwise the strategy's bid wins iff it is strictly above both the logged
paying price and the floor price; a win pays the logged price and credits
the case's click/conversion flags.  The KPI score of a run is
clicks + N * conversions with N the campaign's conversion weight.  Budgets
are a fraction of a log's total cost, and :func:`budget_fraction` is the one
rule for reading such a fraction: it must lie in (0, 1].

:func:`simulate_each` replays many bid rows under one budget in one
``kernels.win_scan`` per block of at most ``kernels.SCAN_CELLS`` cells (rows
times cases): ``bidding.tune`` scans a grid that way, and
:func:`run_experiment` a campaign's strategies at one fraction, each in one
scan while the rows times cases stay within the bound; :func:`simulate` is
its one-row case.  :meth:`ReplayData.of`
keeps each :class:`CaseTable`'s columns while the table lives, so a table
tuned at many fractions has its order checked once; a table is taken not to
change after it has been replayed.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import bidding, kernels
from .bidding import CampaignSpec, Strategy
from .logdata import AuctionCase, CaseTable

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
    "simulate_each",
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
    def from_cases(cls, cases: CaseTable | Sequence[AuctionCase]) -> "ReplayData":
        """The columns of a :class:`CaseTable`, or of a case list's table."""
        table = CaseTable.of(cases)
        ts = table.lists["timestamp"]
        if not all(map(operator.le, ts, ts[1:])):
            raise UnsortedInput("cases must be sorted by ascending timestamp")
        return cls(table.ints("paying_price"), table.ints("slot_floor_price"), table.clicked,
                   table.converted)

    @classmethod
    def of(cls, cases) -> "ReplayData":
        """``cases`` itself if it is a ReplayData, else its columns.

        A :class:`CaseTable`'s columns are built once while the table lives,
        so a table must not change once it has been replayed; a case list's
        are built on each call.
        """
        if isinstance(cases, cls):
            return cases
        if not isinstance(cases, CaseTable):
            return cls.from_cases(cases)
        data = _TABLE_COLUMNS.get(cases)
        if data is None:
            data = _TABLE_COLUMNS[cases] = cls.from_cases(cases)
        return data

    @property
    def total_cost_milli(self) -> int:
        return int(self.paying.sum())


# Each table's ReplayData, made once while the table lives.
_TABLE_COLUMNS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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

    ``cases`` is a time-sorted :class:`CaseTable` or case list, or a
    prebuilt :class:`ReplayData`.  Strategies that price on pCTR need a
    ``pctr`` array aligned with the cases; without one they raise
    :class:`bidding.MissingPctr`.  This is the one-row case of
    :func:`simulate_each`.
    """
    data = ReplayData.of(cases)
    bids = bidding.bid_vector(strategy, len(data), pctr=pctr)
    return _replay_block(data, bids[None], budget, campaign, keep_trace)[0]


def simulate_each(cases, items: Sequence, bids_of: Callable[[Sequence], np.ndarray], budget: int,
                  campaign: CampaignSpec | None = None) -> list[ReplayResult]:
    """:func:`simulate`'s result for each of ``items``, all under ``budget``.

    ``bids_of(items[lo:hi])`` gives those items' bids as a block of shape
    ``(hi - lo, len(cases))``, a row per item.  It is asked for blocks of at
    most ``kernels.SCAN_CELLS`` cells (one row at least), in order, and each
    block is one ``kernels.win_scan``.
    """
    data = ReplayData.of(cases)
    step = max(1, kernels.SCAN_CELLS // max(1, len(data)))
    results: list[ReplayResult] = []
    for lo in range(0, len(items), step):
        results += _replay_block(data, bids_of(items[lo:lo + step]), budget, campaign)
    return results


def _replay_block(data: ReplayData, bids: np.ndarray, budget: int,
                  campaign: CampaignSpec | None, keep_trace: bool = False) -> list[ReplayResult]:
    n_weight = campaign.n_weight if campaign else 0
    win_u8, spent, exhausted = kernels.win_scan(bids, data.paying, data.floor, np.int64(budget))
    win = win_u8.view(bool)
    won_clicks = win[:, np.flatnonzero(data.clicked)]
    won_convs = win[:, np.flatnonzero(data.converted)]
    results = []
    for r, (s, e) in enumerate(zip(spent.tolist(), exhausted.tolist())):
        clicks, convs = int(np.count_nonzero(won_clicks[r])), int(np.count_nonzero(won_convs[r]))
        trace = None
        if keep_trace:
            trace = ReplayTrace(bids=bids[r], win=win[r],
                                spent_after=np.cumsum(np.where(win[r], data.paying, 0)))
        results.append(ReplayResult(wins=int(np.count_nonzero(win[r])), clicks=clicks, convs=convs,
                                    cost_milli=s, score=clicks + n_weight * convs,
                                    exhausted_at=None if e < 0 else e, trace=trace))
    return results


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
    """Simulate every (campaign, strategy, fraction) cell independently;
    a campaign's strategies at one fraction are one :func:`simulate_each`.

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
        # One ReplayResult per (campaign, entry): a campaign's entries are
        # resolved and replayed in order, in one scan.
        results = []
        for run in runs:
            def bids_of(entries, frac=frac, n=len(run.test)):
                return np.stack([bidding.bid_vector(e.resolve(frac), n, pctr=e.pctr) for e in entries])

            results.append(simulate_each(run.test, run.entries, bids_of, make_budget(run.test, frac),
                                         run.campaign))
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
