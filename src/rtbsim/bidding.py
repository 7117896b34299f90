"""Benchmark bidding strategies and their training-data tuning.

Four families: a constant bid, a uniform random bid, bidding the campaign's
historical max eCPC scaled by pCTR, and a linear-in-pCTR bid.  Bids are
emitted in the same CPM milli-fen units as the logs; the eCPC family
carries an explicit x1000 bridge from fen-per-click to those units.  Each
pCTR strategy class holds its own bid formula (``raw_bid``), which
:func:`compute_bid` and :func:`bid_vector` only round, after one pCTR
validity check; :func:`tune` applies Lin's formula to a column of base
bids.  Bids are int64 columns, so a bid of 2**63 or more fails both paths
with :class:`BidOverflow` (:func:`check_bid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .logdata import AuctionCase, CaseTable

__all__ = [
    "CampaignSpec",
    "IPINYOU_CAMPAIGNS",
    "Strategy",
    "ConstBid",
    "RandBid",
    "McpcBid",
    "LinBid",
    "NoClicks",
    "MissingPctr",
    "BidOverflow",
    "check_bid",
    "estimate_max_ecpc",
    "compute_bid",
    "bid_vector",
    "tune",
    "DEFAULT_GRID",
    "GridRow",
    "write_grid_csv",
]


class NoClicks(ValueError):
    pass


class MissingPctr(ValueError):
    pass


class BidOverflow(ValueError):
    """A bid of 2**63 or more, beyond an int64 bid column."""


# The least bid an int64 cannot hold.  A float compares with it exactly, and
# an int too: 2**63 - 1 is below it, 2**63 is not.
_BID_LIMIT = 2.0 ** 63


def check_bid(bid, what: str = "bid") -> None:
    """``bid``, an int or a float not yet rounded down, must be below 2**63;
    inf and NaN fail."""
    if not bid < _BID_LIMIT:
        raise BidOverflow(f"{what} {bid} is not below 2**63, the bound of an int64 bid")


@dataclass(frozen=True)
class CampaignSpec:
    """Per-advertiser evaluation setup: conversion weight and season."""

    advertiser_id: int
    n_weight: int = 0  # KPI score = clicks + n_weight * conversions
    season: int | None = None

    def __post_init__(self) -> None:
        if self.n_weight < 0:
            raise ValueError(f"conversion weight must be >= 0, got {self.n_weight}")


# Published conversion weights and seasons for the iPinYou 2013 dataset.
IPINYOU_CAMPAIGNS: dict[int, CampaignSpec] = {
    1458: CampaignSpec(1458, 0, 2),
    2259: CampaignSpec(2259, 1, 3),
    2261: CampaignSpec(2261, 0, 3),
    2821: CampaignSpec(2821, 1, 3),
    2997: CampaignSpec(2997, 0, 3),
    3358: CampaignSpec(3358, 2, 2),
    3386: CampaignSpec(3386, 0, 2),
    3427: CampaignSpec(3427, 0, 2),
    3476: CampaignSpec(3476, 10, 2),
}


class Strategy:
    # Unannotated on purpose: subclasses are dataclasses and must not
    # inherit these as fields.
    name = "base"
    parameter = None


@dataclass(frozen=True)
class ConstBid(Strategy):
    """Same bid for every request."""

    price: int
    name = "const"

    def __post_init__(self):
        if self.price < 0:
            raise ValueError("price must be >= 0")
        check_bid(self.price, "price")

    @property
    def parameter(self):
        return self.price


@dataclass(frozen=True)
class RandBid(Strategy):
    """Uniform integer bid in [lower, upper] from a per-run stream."""

    upper: int
    seed: int = 0
    lower: int = 0
    name = "rand"

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper:
            raise ValueError("need 0 <= lower <= upper")
        check_bid(self.upper, "upper")

    @property
    def parameter(self):
        return self.upper

    def stream(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))


@dataclass(frozen=True)
class McpcBid(Strategy):
    """bid = max_ecpc (fen/click) * pctr * 1000 (into CPM milli-fen units).

    Non-parametric and budget-oblivious: the bid never looks at the
    budget state.
    """

    max_ecpc_fen: float
    model: str | None = None  # label of the pctr source, e.g. "lr"
    name = "mcpc"

    def __post_init__(self):
        if self.max_ecpc_fen < 0:
            raise ValueError("max_ecpc_fen must be >= 0")

    def raw_bid(self, pctr):
        """Unrounded bid for a pCTR float or array."""
        return self.max_ecpc_fen * pctr * 1000.0


@dataclass(frozen=True)
class LinBid(Strategy):
    """bid = base_bid * pctr / avg_ctr."""

    base_bid: int
    avg_ctr: float
    model: str | None = None
    name = "lin"

    def __post_init__(self):
        if self.base_bid < 0:
            raise ValueError("base_bid must be >= 0")
        if not 0.0 < self.avg_ctr <= 1.0:
            raise ValueError("avg_ctr must be in (0, 1]")

    @property
    def parameter(self):
        return self.base_bid

    def raw_bid(self, pctr):
        """Unrounded bid for a pCTR float or array."""
        return _lin_raw(self.base_bid, pctr, self.avg_ctr)


def _lin_raw(base_bid, pctr, avg_ctr):
    """Lin's unrounded bid; ``tune`` passes a column of base bids."""
    return base_bid * pctr / avg_ctr


def estimate_max_ecpc(train: CaseTable | Sequence[AuctionCase]) -> float:
    """Historical cost per click in fen: (sum paying / 1000) / clicks, over
    a :class:`CaseTable` or a case list's table."""
    train = CaseTable.of(train)
    clicks, cost_milli = int(np.count_nonzero(train.clicked)), train.total("paying_price")
    if clicks == 0:
        raise NoClicks("training data has no clicks; max eCPC undefined")
    return cost_milli / 1000.0 / clicks


def _check_pctr(low, high) -> None:
    """The least and greatest pCTR of a call must lie in (0, 1); NaN fails."""
    if not (0.0 < low and high < 1.0):
        raise ValueError(f"pctr must be in (0, 1), got {float(high if 0.0 < low else low)!r}")


def compute_bid(
    strategy: Strategy,
    pctr: float | None = None,
    rng: np.random.Generator | None = None,
) -> int:
    """One bid in milli-fen; half-up rounded, floored at zero.

    Rand draws from the caller-owned ``rng`` stream (one stream per replay
    run, never shared); Mcpc/Lin require ``pctr``.
    """
    if isinstance(strategy, ConstBid):
        return strategy.price
    if isinstance(strategy, RandBid):
        if rng is None:
            rng = strategy.stream()
        return int(rng.integers(strategy.lower, strategy.upper + 1))
    if pctr is None:
        raise MissingPctr(f"{strategy.name} bidding requires a pctr")
    _check_pctr(pctr, pctr)
    bid = strategy.raw_bid(pctr) + 0.5  # rounded half up below
    check_bid(bid)
    return max(0, math.floor(bid))


def bid_vector(
    strategy: Strategy,
    n: int,
    pctr: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Bids for n cases at once; elementwise equal to :func:`compute_bid`."""
    if isinstance(strategy, ConstBid):
        return np.full(n, strategy.price, dtype=np.int64)
    if isinstance(strategy, RandBid):
        if rng is None:
            rng = strategy.stream()
        return rng.integers(strategy.lower, strategy.upper + 1, size=n).astype(np.int64)
    return _rounded(strategy.raw_bid(_pctr_column(strategy, n, pctr)) + 0.5)


def _pctr_column(strategy: Strategy, n: int, pctr) -> np.ndarray:
    """``pctr`` as n float64 values in (0, 1), for ``strategy``."""
    if pctr is None:
        raise MissingPctr(f"{strategy.name} bidding requires a pctr array")
    p = np.asarray(pctr, dtype=np.float64)
    if p.shape != (n,):
        raise ValueError(f"pctr must have shape ({n},), got {p.shape}")
    if n:
        _check_pctr(p.min(), p.max())  # NaN propagates through min and max
    return p


def _rounded(bids: np.ndarray) -> np.ndarray:
    """Bids not yet rounded down, of shape (n,) or (rows, n), as int64 bids
    floored at zero; each row's greatest bid is checked, in row order."""
    if bids.shape[-1]:
        for top in bids.reshape(-1, bids.shape[-1]).max(axis=1):
            check_bid(top)
    return np.maximum(0, np.floor(bids)).astype(np.int64)


DEFAULT_GRID = (2, 5, 10, 20, 50, 100, 200, 300)


@dataclass
class GridRow:
    parameter: int
    wins: int
    clicks: int
    convs: int
    cost_fen: float
    score: int


def tune(
    family: str,
    train,
    budget_fraction,
    grid: Sequence[int] = DEFAULT_GRID,
    campaign: CampaignSpec | None = None,
    pctr: np.ndarray | None = None,
    seed: int = 0,
    model_label: str | None = None,
) -> tuple[Strategy, list[GridRow]]:
    """Pick the grid point maximizing the KPI score on a training replay.

    ``train`` is a time-sorted :class:`CaseTable` or case list, or a
    prebuilt :class:`replay.ReplayData`; a table's columns are built once
    (see :meth:`replay.ReplayData.of`).  The budget is ``budget_fraction``
    of the training total cost.  The grid's bids are built a block of
    points at a time, a row per point, and :func:`replay.simulate_each`
    replays each block in one scan, each row as :func:`replay.simulate`
    replays it: the whole grid is one scan while points times cases stay
    within ``kernels.SCAN_CELLS``, and takes more scans past it.  Const is
    one column of prices, Rand each point's own stream, and Lin each base
    bid times the pCTR column, checked point by point in grid order.  Ties
    go to the smaller parameter.  Mcpc is non-parametric and not tunable.
    """
    from . import replay  # local import; replay also uses this module

    if family == "mcpc":
        raise ValueError("mcpc is non-parametric; nothing to tune")
    if family not in ("const", "rand", "lin"):
        raise ValueError(f"unknown strategy family {family!r}")
    if not grid:
        raise ValueError("tuning grid is empty")
    if not train:
        raise ValueError("tuning needs training cases")
    if family == "lin" and pctr is None:
        raise MissingPctr("lin tuning requires pctr values for the training cases")

    data = replay.ReplayData.of(train)
    budget = replay.make_budget(data, budget_fraction)
    n = len(data)
    params = sorted(int(g) for g in grid)
    if family == "const":
        strategies: list[Strategy] = [ConstBid(param) for param in params]

        def block(points):
            prices = np.array([s.price for s in points], dtype=np.int64)
            return np.broadcast_to(prices[:, None], (len(points), n))
    elif family == "rand":
        strategies = [RandBid(upper=param, seed=seed) for param in params]

        def block(points):
            return np.stack([bid_vector(s, n) for s in points])
    else:
        clicks = int(data.clicked.sum())
        if clicks == 0:
            raise NoClicks("lin tuning needs at least one training click for avg_ctr")
        avg_ctr = clicks / n
        strategies = [LinBid(base_bid=param, avg_ctr=avg_ctr, model=model_label) for param in params]
        p = _pctr_column(strategies[0], n, pctr)

        def block(points):
            base = np.array([s.base_bid for s in points], dtype=np.float64)
            return _rounded(_lin_raw(base[:, None], p, avg_ctr) + 0.5)

    results = replay.simulate_each(data, strategies, block, budget, campaign)
    rows = [GridRow(s.parameter, r.wins, r.clicks, r.convs, r.cost_fen, r.score)
            for s, r in zip(strategies, results)]
    best = max(range(len(rows)), key=lambda i: rows[i].score)  # the first of equals
    return strategies[best], rows


def write_grid_csv(rows: list[GridRow], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("parameter,wins,clicks,convs,cost_fen,score\n")
        for r in rows:
            f.write(f"{r.parameter},{r.wins},{r.clicks},{r.convs},{r.cost_fen!r},{r.score!r}\n")
