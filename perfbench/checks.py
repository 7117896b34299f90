"""Reference computations the benchmark checks rtbsim's outputs against.

Everything here is straight-line Python over plain values (log columns,
ints, floats) and imports nothing from rtbsim, so a fault in the program
cannot also hide in its check.  The log layout is the iPinYou 2013
event-log layout, restated here from the dataset's documentation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Column positions in a 24-column event-log line.
COL_BID_ID = 0
COL_TIMESTAMP = 1
COL_FLOOR = 17
COL_PAYING = 20

# Published conversion weights N and seasons of the nine iPinYou campaigns.
IPINYOU_N = {1458: 0, 2259: 1, 2261: 0, 2821: 1, 2997: 0, 3358: 2, 3386: 0, 3427: 0, 3476: 10}
IPINYOU_SEASON = {1458: 2, 2259: 3, 2261: 3, 2821: 3, 2997: 3, 3358: 2, 3386: 2, 3427: 2, 3476: 2}

# Bid-side settings shared with the CLI's defaults: the tuning grid and the
# seed of Rand's PCG64 stream.
GRID = (2, 5, 10, 20, 50, 100, 200, 300)
RAND_SEED = 0


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Log files
# ---------------------------------------------------------------------------

def read_columns(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


class LogSplit:
    """One split (imp/clk/cnv files) read as plain columns, in time order."""

    def __init__(self, directory):
        rows = read_columns(f"{directory}/imp.txt")
        rows.sort(key=lambda r: (r[COL_TIMESTAMP], r[COL_BID_ID]))
        clicks = read_columns(f"{directory}/clk.txt")
        convs = read_columns(f"{directory}/cnv.txt")
        clicked = {r[COL_BID_ID] for r in clicks}
        converted = {r[COL_BID_ID] for r in convs}
        self.bid_ids = [r[COL_BID_ID] for r in rows]
        self.paying = [int(r[COL_PAYING]) for r in rows]
        self.floor = [int(r[COL_FLOOR]) for r in rows]
        self.clicked = [b in clicked for b in self.bid_ids]
        self.converted = [b in converted for b in self.bid_ids]
        self.click_lines = len(clicks)
        self.conv_lines = len(convs)

    def __len__(self) -> int:
        return len(self.paying)


def read_kv(path) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if "=" in line:
                k, v = line.rstrip("\n").split("=", 1)
                out[k] = v
    return out


def read_csv(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n").split(",") for line in f if line.strip()]


# ---------------------------------------------------------------------------
# Bids, replay and AUC
# ---------------------------------------------------------------------------

def round_half_up(x: float) -> int:
    return max(0, math.floor(x + 0.5))


def lin_bid(base_bid: int, pctr: float, avg_ctr: float) -> int:
    """bid = floor(base_bid * pctr / avg_ctr + 0.5), floored at zero."""
    return round_half_up(base_bid * pctr / avg_ctr)


def mcpc_bid(max_ecpc_fen: float, pctr: float) -> int:
    return round_half_up(max_ecpc_fen * pctr * 1000.0)


def rand_bids(upper: int, n: int, seed: int = RAND_SEED) -> list[int]:
    """Rand's stream: uniform integers in [0, upper] from PCG64(seed)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [int(b) for b in rng.integers(0, upper + 1, size=n)]


def strategy_bids(family: str, param, n: int, pctr=None, avg_ctr=None) -> list[int]:
    """Bids of one strategy for n cases; param is the price, upper bound,
    max eCPC (fen per click) or base bid, by family."""
    if family == "const":
        return [param] * n
    if family == "rand":
        return rand_bids(param, n)
    if family == "mcpc":
        return [mcpc_bid(param, float(p)) for p in pctr]
    if family == "lin":
        return [lin_bid(param, float(p), avg_ctr) for p in pctr]
    raise ValueError(f"unknown family {family!r}")


def budget_of(paying, fraction) -> int:
    return int(Fraction(fraction) * sum(paying))


def replay(bids, paying, floor, clicked, converted, budget: int) -> tuple[int, int, int, int, int]:
    """Straight-line second-price replay under a pre-bid budget check.

    Returns (wins, clicks, convs, spent, last_paid), where last_paid is the
    price of the last won case (0 if none).
    """
    wins = clicks = convs = spent = last_paid = 0
    for i in range(len(bids)):
        if spent >= budget:
            break
        if bids[i] > paying[i] and bids[i] > floor[i]:
            wins += 1
            spent += paying[i]
            last_paid = paying[i]
            clicks += clicked[i]
            convs += converted[i]
    return wins, clicks, convs, spent, last_paid


def best_parameter(family: str, split, fraction, n_weight: int, pctr=None, avg_ctr=None) -> int:
    """Grid point with the highest KPI score on a replay; ties -> smaller."""
    budget = budget_of(split.paying, fraction)
    best = None
    for param in sorted(GRID):
        bids = strategy_bids(family, param, len(split), pctr, avg_ctr)
        _, clicks, convs, _, _ = replay(bids, split.paying, split.floor,
                                        split.clicked, split.converted, budget)
        score = clicks + n_weight * convs
        if best is None or score > best[0]:
            best = (score, param)
    return best[1]


def pairwise_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked right, ties counting half.

    Counts pairs exactly with a sorted negative list: for each positive,
    the negatives strictly below it plus half of those equal to it.
    """
    neg = np.sort(np.asarray([s for s, y in zip(scores, labels) if not y], dtype=np.float64))
    pos = np.asarray([s for s, y in zip(scores, labels) if y], dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise CheckFailed("AUC needs both classes")
    below = np.searchsorted(neg, pos, side="left")
    equal = np.searchsorted(neg, pos, side="right") - below
    twice = 2 * int(below.sum()) + int(equal.sum())
    return twice / (2.0 * len(pos) * len(neg))


def sigmoid(m: float) -> float:
    if m >= 0:
        return 1.0 / (1.0 + math.exp(-m))
    e = math.exp(m)
    return e / (1.0 + e)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]
