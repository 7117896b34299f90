"""Benchmark bidding strategies and their training-data tuning.

Four families: a constant bid, a uniform random bid, bidding the campaign's
historical max eCPC scaled by pCTR, and a linear-in-pCTR bid.  Bids are
emitted in the same CPM milli-fen units as the logs; the eCPC family
carries an explicit x1000 bridge from fen-per-click to those units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .logdata import AuctionCase

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
    "estimate_max_ecpc",
    "compute_bid",
    "bid_vector",
    "needs_pctr",
    "tune",
    "DEFAULT_GRID",
    "GridRow",
    "save_strategy",
    "load_strategy",
    "write_grid_csv",
]


class NoClicks(ValueError):
    pass


class MissingPctr(ValueError):
    pass


@dataclass(frozen=True)
class CampaignSpec:
    """Per-advertiser evaluation setup: conversion weight and season."""

    advertiser_id: int
    n_weight: int = 0  # KPI score = clicks + n_weight * conversions
    season: int | None = None


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


def needs_pctr(strategy: Strategy) -> bool:
    return isinstance(strategy, (McpcBid, LinBid))


def estimate_max_ecpc(train: Sequence[AuctionCase]) -> float:
    """Historical cost per click in fen: (sum paying / 1000) / clicks."""
    clicks = sum(1 for c in train if c.clicked)
    if clicks == 0:
        raise NoClicks("training data has no clicks; max eCPC undefined")
    cost_fen = sum(c.paying_price for c in train) / 1000.0
    return cost_fen / clicks


def _round_half_up(x: float) -> int:
    return max(0, int(math.floor(x + 0.5)))


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
    if not 0.0 < pctr < 1.0:
        raise ValueError("pctr must be in (0, 1)")
    if isinstance(strategy, McpcBid):
        return _round_half_up(strategy.max_ecpc_fen * pctr * 1000.0)
    if isinstance(strategy, LinBid):
        return _round_half_up(strategy.base_bid * pctr / strategy.avg_ctr)
    raise TypeError(f"unknown strategy {type(strategy).__name__}")


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
    if pctr is None:
        raise MissingPctr(f"{strategy.name} bidding requires a pctr array")
    p = np.asarray(pctr, dtype=np.float64)
    if p.shape != (n,):
        raise ValueError(f"pctr must have shape ({n},), got {p.shape}")
    if isinstance(strategy, McpcBid):
        raw = strategy.max_ecpc_fen * p * 1000.0
    elif isinstance(strategy, LinBid):
        raw = strategy.base_bid * p / strategy.avg_ctr
    else:
        raise TypeError(f"unknown strategy {type(strategy).__name__}")
    return np.maximum(0, np.floor(raw + 0.5)).astype(np.int64)


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
    train: Sequence[AuctionCase],
    budget_fraction,
    grid: Sequence[int] = DEFAULT_GRID,
    campaign: CampaignSpec | None = None,
    pctr: np.ndarray | None = None,
    seed: int = 0,
    model_label: str | None = None,
) -> tuple[Strategy, list[GridRow]]:
    """Pick the grid point maximizing the KPI score on a training replay.

    The budget is ``budget_fraction`` of the training total cost.  Ties go
    to the smaller parameter.  Mcpc is non-parametric and not tunable.
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

    campaign = campaign or CampaignSpec(advertiser_id=0, n_weight=0)
    data = replay.ReplayData.from_cases(train)
    budget = replay.make_budget(data, budget_fraction)
    avg_ctr = None
    if family == "lin":
        clicks = int(data.clicked.sum())
        if clicks == 0:
            raise NoClicks("lin tuning needs at least one training click for avg_ctr")
        avg_ctr = clicks / len(train)

    rows: list[GridRow] = []
    best: tuple[int, int] | None = None  # (score, parameter), ties -> smaller param
    best_strategy: Strategy | None = None
    for param in sorted(int(g) for g in grid):
        if family == "const":
            strategy: Strategy = ConstBid(param)
        elif family == "rand":
            strategy = RandBid(upper=param, seed=seed)
        else:
            strategy = LinBid(base_bid=param, avg_ctr=avg_ctr, model=model_label)
        result = replay.simulate(data, strategy, budget, campaign, pctr=pctr)
        rows.append(GridRow(param, result.wins, result.clicks, result.convs,
                            result.cost_fen, result.score))
        if best is None or result.score > best[0]:
            best = (result.score, param)
            best_strategy = strategy
    return best_strategy, rows


def save_strategy(strategy: Strategy, path) -> None:
    lines = [f"variant={strategy.name}"]
    if isinstance(strategy, ConstBid):
        lines.append(f"price={strategy.price}")
    elif isinstance(strategy, RandBid):
        lines += [f"upper={strategy.upper}", f"seed={strategy.seed}", f"lower={strategy.lower}"]
    elif isinstance(strategy, McpcBid):
        lines.append(f"max_ecpc_fen={float(strategy.max_ecpc_fen)!r}")
        if strategy.model:
            lines.append(f"model={strategy.model}")
    elif isinstance(strategy, LinBid):
        lines += [f"base_bid={strategy.base_bid}", f"avg_ctr={float(strategy.avg_ctr)!r}"]
        if strategy.model:
            lines.append(f"model={strategy.model}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_strategy(path) -> Strategy:
    kv = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            k, v = line.split("=", 1)
            kv[k] = v
    variant = kv["variant"]
    if variant == "const":
        return ConstBid(int(kv["price"]))
    if variant == "rand":
        return RandBid(int(kv["upper"]), int(kv.get("seed", 0)), int(kv.get("lower", 0)))
    if variant == "mcpc":
        return McpcBid(float(kv["max_ecpc_fen"]), kv.get("model"))
    if variant == "lin":
        return LinBid(int(kv["base_bid"]), float(kv["avg_ctr"]), kv.get("model"))
    raise ValueError(f"unknown strategy variant {variant!r}")


def write_grid_csv(rows: list[GridRow], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("parameter,wins,clicks,convs,cost_fen,score\n")
        for r in rows:
            f.write(f"{r.parameter},{r.wins},{r.clicks},{r.convs},{r.cost_fen!r},{r.score!r}\n")
