"""The benchmark's three workloads over rtbsim's public functions.

A run sets up its inputs from the seed, then runs passes of three kinds:

* ``pipeline`` -- the README walkthrough through ``rtbsim.cli.main``:
  ``stats``, ``train-ctr --model lr``, ``train-ctr --model gbrt`` and
  ``replay --model both``, all at the CLI's defaults, on a campaign that
  set-up wrote to disk with ``synthgen``.
* ``grid`` -- ``bidding.tune`` of Const, Rand and Lin at every standard
  fraction on nine in-memory campaigns, then one ``replay.run_experiment``
  of Const, Rand, Mcpc and Lin over all nine, with the generator's true
  click probabilities as pCTR.
* ``bids`` -- one round of a closed loop with one caller that bids on
  test-split records one at a time: ``features.binarize`` ->
  ``models.predict`` -> ``bidding.compute_bid`` with a ``LinBid`` for LR,
  and the same with ``features.densify`` for GBRT, using the models the
  first pipeline pass wrote.

A workload repeats its own kind of pass for the run's measured seconds and
runs the other kinds as companions spread over the run (see ``schedule``),
so that every run reports every end-to-end metric.  The first pass of each
kind (every bids round) is checked against the reference computations in
``checks``, outside the timed regions; later pipeline and grid passes must
reproduce the first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
from checks import require
from clock import SpeedClock
from rtbsim import bidding, cli, features, models, replay, synthgen

# Pipeline campaign, written to disk by synthgen (what `rtbsim synth` runs).
# Its click model is fixed and the seed draws the impressions: `rtbsim synth`
# would also draw the model's weights from the seed, and the test AUC would
# then swing by 0.1 from seed to seed.  A high base CTR gives the 2000-case
# test split about 150 clicks, enough for a steady AUC; the small size lets
# a run repeat the pipeline, whose command times vary with the host's speed.
PIPE_TRAIN, PIPE_TEST, PIPE_BASE_CTR = 3000, 2000, 0.1
PIPE_MODEL_SEED = 20130606


def pipeline_config(seed: int) -> synthgen.SynthConfig:
    shape = synthgen.SynthConfig()
    weights = np.random.default_rng(PIPE_MODEL_SEED).normal(0.0, shape.weight_scale, shape.weight_dim)
    weights[0] = np.log(PIPE_BASE_CTR / (1.0 - PIPE_BASE_CTR))
    return synthgen.SynthConfig(seed=seed, n_train=PIPE_TRAIN, n_test=PIPE_TEST, true_weights=weights)


# Grid campaigns: the nine iPinYou ids (with their N and season), each with
# its own base CTR.
GRID_TRAIN, GRID_TEST = 4000, 2000
GRID_BASE_CTR = {1458: 0.004, 2259: 0.005, 2261: 0.006, 2821: 0.008, 2997: 0.01,
                 3358: 0.012, 3386: 0.015, 3427: 0.02, 3476: 0.025}

FRACTIONS = (Fraction(1, 32), Fraction(1, 8), Fraction(1, 2))
# GBRT requests per bids round (LR bids on the whole test split, 2000).
# Percentiles are taken in each round (see `latency_percentile`): 20 LR
# samples lie beyond a round's p99 and 30 GBRT samples beyond its p90.  Every
# run has at least ten rounds.
GBRT_PER_ROUND = 300
SETUP_REPEATS = 3
# Own passes per run: at least MIN_OWN, then more until the run's seconds
# are spent; a traced run makes exactly TRACE_OWN, so its counts repeat.
MIN_OWN = {"paper_pipeline": 3, "replay_grid": 10, "online_bid": 10}
TRACE_OWN = {"paper_pipeline": 2, "replay_grid": 12, "online_bid": 10}

COMMANDS = ("stats", "train_lr", "train_gbrt", "replay")


def grid_seeds(seed: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(len(GRID_BASE_CTR))]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class GridCampaign:
    spec: bidding.CampaignSpec
    train: list
    test: list
    train_p: np.ndarray
    test_p: np.ndarray


@dataclass
class Inputs:
    data_dir: Path
    grid: list[GridCampaign]
    pipe_test_p: np.ndarray  # true click probabilities of the test split, in file order


def setup(seed: int, work: Path) -> Inputs:
    data_dir = work / "data"
    shutil.rmtree(data_dir, ignore_errors=True)
    train, test, pipe_truth = synthgen.generate(pipeline_config(seed))
    synthgen.write_dataset(train, data_dir / "train")
    synthgen.write_dataset(test, data_dir / "test")
    grid = []
    for (adv, ctr), s in zip(sorted(GRID_BASE_CTR.items()), grid_seeds(seed)):
        config = synthgen.SynthConfig(seed=s, n_train=GRID_TRAIN, n_test=GRID_TEST,
                                      base_ctr=ctr, advertiser_id=adv)
        train, test, truth = synthgen.generate(config)
        grid.append(GridCampaign(bidding.IPINYOU_CAMPAIGNS[adv], train, test,
                                 truth.train_p, truth.test_p))
    return Inputs(data_dir, grid, pipe_truth.test_p)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def grid_cases_replayed(campaigns: list[GridCampaign]) -> int:
    """9 tunings per campaign over the grid on train, then 4 strategies at
    three fractions on test."""
    return sum(9 * len(checks.GRID) * len(c.train) + 3 * 4 * len(c.test) for c in campaigns)


def run_pipeline(data_dir: Path, out: Path, clock: SpeedClock) -> tuple[dict, int]:
    """The four commands; returns ((raw, reference) seconds per command,
    failures)."""
    argvs = {
        "stats": ["stats", "--input", data_dir / "train", "--out", out / "stats"],
        "train_lr": ["train-ctr", "--input", data_dir, "--model", "lr", "--out", out / "models"],
        "train_gbrt": ["train-ctr", "--input", data_dir, "--model", "gbrt", "--out", out / "models"],
        "replay": ["replay", "--input", data_dir, "--models", out / "models", "--model", "both",
                   "--out", out / "replay"],
    }
    times, failed = {}, 0
    for name, argv in argvs.items():
        sink = io.StringIO()
        mark = clock.now()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main([str(a) for a in argv])
        times[name] = clock.elapsed(mark)
        if rc != 0:
            failed += 1
            print(f"pipeline {name} failed: {sink.getvalue().strip()}", file=sys.stderr)
    return times, failed


@dataclass
class GridResult:
    tables: replay.ExperimentTables
    tuned: dict  # (advertiser, family, fraction) -> Strategy
    seconds: tuple[float, float]  # raw, reference


def run_grid(campaigns: list[GridCampaign], clock: SpeedClock) -> GridResult:
    mark = clock.now()
    tuned = {}
    runs = []
    for c in campaigns:
        adv = c.spec.advertiser_id
        for family in ("const", "rand", "lin"):
            for frac in FRACTIONS:
                tuned[(adv, family, frac)], _ = bidding.tune(
                    family, c.train, frac, checks.GRID, c.spec,
                    pctr=c.train_p if family == "lin" else None, seed=checks.RAND_SEED)

        def pick(family, adv=adv):
            return lambda frac: tuned[(adv, family, frac)]

        mcpc = bidding.McpcBid(bidding.estimate_max_ecpc(c.train))
        entries = [
            replay.StrategyEntry("Const", pick("const")),
            replay.StrategyEntry("Rand", pick("rand")),
            replay.StrategyEntry("Mcpc", mcpc, pctr=c.test_p),
            replay.StrategyEntry("Lin", pick("lin"), pctr=c.test_p),
        ]
        runs.append(replay.CampaignRun(c.spec, replay.ReplayData.from_cases(c.test), entries))
    tables = replay.run_experiment(runs, FRACTIONS)
    return GridResult(tables, tuned, clock.elapsed(mark))


@dataclass
class Bidder:
    """The deployed bid path: models and Lin strategies from a pipeline pass."""

    lr: models.CtrScorer
    gbrt: models.CtrScorer
    lin_lr: bidding.LinBid
    lin_gbrt: bidding.LinBid
    cases: list  # test split, in time order


def read_tuned(replay_dir: Path) -> dict[str, int]:
    """`tuned_parameters.txt` of `rtbsim replay`: e.g. {"lin-L@1/8": 100}."""
    tuned = {}
    for line in (replay_dir / "tuned_parameters.txt").read_text(encoding="utf-8").splitlines():
        key, value = line.split(": ")
        tuned[key] = int(value)
    return tuned


def load_bidder(data_dir: Path, models_dir: Path, replay_dir: Path) -> Bidder:
    """Lin at 1/8 with the base bids the pipeline's replay tuned, and the
    training split's CTR as avg_ctr (as `bidding.tune` sets it)."""
    tuned = read_tuned(replay_dir)
    train = checks.LogSplit(data_dir / "train")
    avg_ctr = sum(train.clicked) / len(train)
    return Bidder(
        lr=models.CtrScorer.load(models_dir, "lr"),
        gbrt=models.CtrScorer.load(models_dir, "gbrt"),
        lin_lr=bidding.LinBid(tuned["lin-L@1/8"], avg_ctr, "lr"),
        lin_gbrt=bidding.LinBid(tuned["lin-G@1/8"], avg_ctr, "gbrt"),
        cases=cli.load_cases(data_dir / "test"),
    )


@dataclass
class BidLog:
    """One bids pass: per path, the test-record index, (pctr, bid) and
    (raw, reference) latency in microseconds of each request."""

    lr_at: list = field(default_factory=list)
    lr_idx: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    lr_us: list = field(default_factory=list)
    gbrt_at: list = field(default_factory=list)
    gbrt: list = field(default_factory=list)
    gbrt_us: list = field(default_factory=list)


def run_bids(bidder: Bidder, k: int, clock: SpeedClock) -> BidLog:
    """Bids round k: LR bids on every test record, then GBRT on the k-th
    block of GBRT_PER_ROUND records.  Each path runs as its own loop:
    interleaved, each request would find the other path's code and data
    cold in the caches, and LR's latency would then follow the other
    tenants of the host."""
    log = BidLog()
    lr_model, vocab = bidder.lr.model, bidder.lr.vocabulary
    gb_model, enc = bidder.gbrt.model, bidder.gbrt.encodings
    cases = bidder.cases
    now = time.perf_counter
    lr_marks, gb_marks = [], []  # (t0, t1, bursts at t0, bursts at t1)
    for i, case in enumerate(cases):
        s0, t0 = clock.spent, now()
        idx = features.binarize(case.record, vocab)
        p = models.predict(lr_model, idx)
        b = bidding.compute_bid(bidder.lin_lr, p)
        lr_marks.append((t0, now(), s0, clock.spent))
        log.lr_at.append(i)
        log.lr_idx.append(idx)
        log.lr.append((p, b))
    for j in range(k * GBRT_PER_ROUND, (k + 1) * GBRT_PER_ROUND):
        i = j % len(cases)
        s0, t0 = clock.spent, now()
        x = features.densify(cases[i].record, enc)
        p = models.predict(gb_model, x)
        b = bidding.compute_bid(bidder.lin_gbrt, p)
        gb_marks.append((t0, now(), s0, clock.spent))
        log.gbrt_at.append(i)
        log.gbrt.append((p, b))
    log.lr_us = _latencies(lr_marks, clock)
    log.gbrt_us = _latencies(gb_marks, clock)
    return log


def _latencies(marks, clock: SpeedClock) -> list[tuple[float, float]]:
    out = []
    for t0, t1, s0, s1 in marks:
        raw = 1e6 * ((t1 - t0) - (s1 - s0))
        out.append((raw, raw * clock.speed(t0, t1)))
    return out


# ---------------------------------------------------------------------------
# Checks (run outside the timed regions)
# ---------------------------------------------------------------------------

def check_pipeline(data_dir: Path, out: Path) -> checks.LogSplit:
    """Checks one pipeline pass's outputs; returns the test split as read."""
    train = checks.LogSplit(data_dir / "train")
    test = checks.LogSplit(data_dir / "test")

    # stats: summary against line counts and a plain column sum.
    header, row = checks.read_csv(out / "stats" / "summary.csv")
    summary = dict(zip(header, row))
    require(int(summary["imps"]) == len(train), "stats: imps != impression lines")
    require(int(summary["clicks"]) == train.click_lines, "stats: clicks != click lines")
    require(int(summary["convs"]) == train.conv_lines, "stats: convs != conversion lines")
    require(float(summary["cost_fen"]) == sum(train.paying) / 1000.0, "stats: cost != paying sum")
    for key in ("weekday", "hour", "os", "browser", "region", "slot_size",
                "visibility", "format", "exchange"):
        for metric in ("ctr", "market_price", "ecpc"):
            rows = checks.read_csv(out / "stats" / f"breakdown_{key}_{metric}.csv")[1:]
            require(sum(int(r[1]) for r in rows) == len(train),
                    f"stats: breakdown {key}/{metric} n does not sum to imps")

    # train-ctr: reported AUC against a pairwise count over written scores.
    labels = test.clicked
    order = {b: i for i, b in enumerate(test.bid_ids)}
    scores = {}
    for kind in ("lr", "gbrt"):
        rows = checks.read_csv(out / "models" / f"scores_test_{kind}.csv")[1:]
        s = [0.0] * len(test)
        for bid_id, p in rows:
            s[order[bid_id]] = float(p)
        require(len(rows) == len(test), f"train-ctr {kind}: score count != test size")
        scores[kind] = s
        reported = float(checks.read_kv(out / "models" / f"eval_{kind}.txt")["auc"])
        ref = checks.pairwise_auc(s, labels)
        require(abs(reported - ref) <= 1e-12, f"train-ctr {kind}: auc {reported} != pairwise {ref}")

    # replay: every cell against a straight-line replay of the test log.
    tuned = read_tuned(out / "replay")
    n_weight = 0  # advertiser 9001 is not one of the iPinYou campaigns
    train_clicks = sum(train.clicked)
    avg_ctr = train_clicks / len(train)
    max_ecpc = (sum(train.paying) / 1000.0) / train_clicks
    # Train-split pCTR for the Lin tuning check comes from the written
    # models, scored by the program's own CtrScorer: the CLI writes no
    # train scores.
    train_cases = cli.load_cases(data_dir / "train")
    require([c.bid_id for c in train_cases] == train.bid_ids, "train split order differs")
    train_pctr = {kind: models.CtrScorer.load(out / "models", kind).score_cases(train_cases)
                  for kind in ("lr", "gbrt")}
    columns = [("Const", "const", None), ("Rand", "rand", None), ("Mcpc-L", "mcpc", "lr"),
               ("Mcpc-G", "mcpc", "gbrt"), ("Lin-L", "lin", "lr"), ("Lin-G", "lin", "gbrt")]
    suffix = {"lr": "L", "gbrt": "G"}
    for frac in FRACTIONS:
        tag = f"{frac.numerator}_{frac.denominator}"
        tables = {m: checks.read_csv(out / "replay" / f"table_{m}_{tag}.csv")
                  for m in ("clicks", "convs", "score")}
        for m, t in tables.items():
            require([r[0] for r in t] == ["campaign", "9001", "Total"], f"replay: rows of {m} {frac}")
            require(t[0][1:] == [c[0] for c in columns], f"replay: columns of {m} {frac}")
        budget = checks.budget_of(test.paying, frac)
        for j, (label, family, kind) in enumerate(columns):
            pctr = None if kind is None else scores[kind]
            if family == "mcpc":
                param = max_ecpc
            else:
                key = f"{family}{'-' + suffix[kind] if kind else ''}@{frac}"
                param = tuned[key]
                best = checks.best_parameter(
                    family, train, frac, n_weight,
                    None if kind is None else train_pctr[kind], avg_ctr)
                require(param == best, f"replay: tuned {key}={param}, training replay best is {best}")
            bids = checks.strategy_bids(family, param, len(test), pctr, avg_ctr)
            _, clicks, convs, _, _ = checks.replay(bids, test.paying, test.floor,
                                                   test.clicked, test.converted, budget)
            want = {"clicks": clicks, "convs": convs, "score": clicks + n_weight * convs}
            for m, t in tables.items():
                got = float(t[1][j + 1])
                require(got == want[m], f"replay: {m} {label} @ {frac}: {got} != {want[m]}")
                require(float(t[2][j + 1]) == got, f"replay: Total {m} {label} @ {frac} != row sum")

    return test


def check_grid(campaigns: list[GridCampaign], result: GridResult) -> None:
    labels = ["Const", "Rand", "Mcpc", "Lin"]
    for frac in FRACTIONS:
        for m in ("clicks", "convs", "score"):
            table = result.tables.get(m, frac)
            require(table.columns == labels, f"grid: columns of {m} {frac}")
            rows = dict(table.rows)
            seasons: dict[str, list[float]] = {}
            total = [0.0] * len(labels)
            for c in campaigns:
                adv = c.spec.advertiser_id
                values = rows[str(adv)]
                for j, v in enumerate(values):
                    seasons.setdefault(f"S{checks.IPINYOU_SEASON[adv]}", [0.0] * len(labels))[j] += v
                    total[j] += v
            for name, sums in seasons.items():
                require([float(v) for v in rows[name]] == sums, f"grid: {name} {m} {frac} != row sums")
            require([float(v) for v in rows["Total"]] == total, f"grid: Total {m} {frac} != row sums")
            require(len(table.rows) == len(campaigns) + len(seasons) + 1, f"grid: extra rows in {m} {frac}")

    for c in campaigns:
        adv = c.spec.advertiser_id
        n_weight = checks.IPINYOU_N[adv]
        paying = [x.record.paying_price for x in c.test]
        floor = [x.record.slot_floor_price for x in c.test]
        clicked = [x.clicked for x in c.test]
        converted = [x.converted for x in c.test]
        train_clicks = sum(x.clicked for x in c.train)
        avg_ctr = train_clicks / len(c.train)
        max_ecpc = (sum(x.record.paying_price for x in c.train) / 1000.0) / train_clicks
        data = replay.ReplayData.from_cases(c.test)
        for frac in FRACTIONS:
            budget = checks.budget_of(paying, frac)
            cells = [
                ("Const", "const", result.tuned[(adv, "const", frac)], None),
                ("Rand", "rand", result.tuned[(adv, "rand", frac)], None),
                ("Mcpc", "mcpc", bidding.McpcBid(max_ecpc), c.test_p),
                ("Lin", "lin", result.tuned[(adv, "lin", frac)], c.test_p),
            ]
            for j, (label, family, strategy, pctr) in enumerate(cells):
                param = max_ecpc if family == "mcpc" else strategy.parameter
                bids = checks.strategy_bids(family, param, len(paying), pctr, avg_ctr)
                _, clicks, convs, spent, last_paid = checks.replay(
                    bids, paying, floor, clicked, converted, budget)
                want = {"clicks": clicks, "convs": convs, "score": clicks + n_weight * convs}
                for m, v in want.items():
                    got = dict(result.tables.get(m, frac).rows)[str(adv)][j]
                    require(got == v, f"grid: {adv} {label} {m} @ {frac}: {got} != {v}")
                res = replay.simulate(data, strategy, budget, c.spec, pctr=pctr)
                require(res.cost_milli == spent, f"grid: {adv} {label} @ {frac}: spend {res.cost_milli} != {spent}")
                cost = res.cost_milli
                require(cost <= budget or cost - last_paid < budget,
                        f"grid: {adv} {label} @ {frac}: spend passes the budget by more than one price")


def check_bids(bidder: Bidder, log: BidLog, batch: dict) -> None:
    """Every request against batch scoring of its record (`batch` holds
    the program's batch scores of the test split), LR also against a
    plain sigmoid of its summed weights, and every bid against the Lin
    formula."""
    w = bidder.lr.model.weights
    base, avg = bidder.lin_lr.base_bid, bidder.lin_lr.avg_ctr
    for (p, b), idx, i in zip(log.lr, log.lr_idx, log.lr_at):
        q = float(batch["lr"][i])
        require(checks.close(p, q), f"bids: LR pctr {p} != batch {q}")
        m = float(w[0]) + sum(float(w[j]) for j in idx)
        plain = min(max(checks.sigmoid(m), 1e-12), 1.0 - 1e-12)
        require(checks.close(p, plain), f"bids: LR pctr {p} != plain sigmoid {plain}")
        require(b == checks.lin_bid(base, p, avg), f"bids: LR bid {b} != {checks.lin_bid(base, p, avg)}")
    base, avg = bidder.lin_gbrt.base_bid, bidder.lin_gbrt.avg_ctr
    for (p, b), i in zip(log.gbrt, log.gbrt_at):
        q = float(batch["gbrt"][i])
        require(checks.close(p, q), f"bids: GBRT pctr {p} != batch {q}")
        require(b == checks.lin_bid(base, p, avg), f"bids: GBRT bid {b} != {checks.lin_bid(base, p, avg)}")


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(directory)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def tables_text(tables: replay.ExperimentTables) -> str:
    return "".join(t.to_csv() for _, t in sorted(tables.tables.items(), key=lambda kv: (kv[0][0], kv[0][1])))


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

@dataclass
class Session:
    """State of one run: inputs, measurements, operation counts, checks.

    Timings are kept as (raw, reference-speed) pairs; see ``clock``.
    """

    inputs: Inputs
    work: Path
    clock: SpeedClock
    check: bool = True
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)
    cmd_times: dict = field(default_factory=lambda: {k: [] for k in COMMANDS})
    auc: dict = field(default_factory=dict)
    truth_auc: float | None = None
    grid_times: list = field(default_factory=list)
    bid_rounds: list = field(default_factory=list)  # (LR latencies, GBRT latencies)
    busy_s: float = 0.0  # wall time inside set-up and passes
    passes: dict = field(default_factory=lambda: {"pipeline": 0, "grid": 0, "bids": 0})
    bidder: Bidder | None = None
    batch_scores: dict | None = None
    first_pipeline: Path | None = None
    pipeline_digest: str | None = None
    grid_text: str | None = None

    def _region(self, name):
        return self.tracer.region(name) if self.tracer else contextlib.nullcontext()

    def _unchecked(self):
        return self.tracer.pause() if self.tracer else contextlib.nullcontext()

    def _verify(self, what: str, fn, *args):
        with self._unchecked():
            try:
                return fn(*args)
            except Exception as exc:  # any fault in a check fails the run
                self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
                return None

    def pipeline(self) -> None:
        k = self.passes["pipeline"]
        self.passes["pipeline"] += 1
        out = self.work / f"pipeline{k}"
        t0 = time.perf_counter()
        with self._region("pipeline"):
            times, failed = run_pipeline(self.inputs.data_dir, out, self.clock)
        self.busy_s += time.perf_counter() - t0
        self.attempted += len(COMMANDS)
        self.failed += failed
        if failed:
            return
        for name, t in times.items():
            self.cmd_times[name].append(t)
        digest = self._verify("pipeline outputs", tree_digest, out)
        if self.first_pipeline is None:
            self.first_pipeline, self.pipeline_digest = out, digest
            for kind in ("lr", "gbrt"):
                self.auc[kind] = float(checks.read_kv(out / "models" / f"eval_{kind}.txt")["auc"])
            if self.check:
                test = self._verify("pipeline", check_pipeline, self.inputs.data_dir, out)
                if test is not None:  # the generator writes the test split in time order
                    self.truth_auc = checks.pairwise_auc(self.inputs.pipe_test_p, test.clicked)
        else:
            if digest != self.pipeline_digest:
                self.errors.append(f"pipeline pass {k}: outputs differ from the first pass")
            shutil.rmtree(out, ignore_errors=True)

    def grid(self) -> None:
        campaigns = self.inputs.grid
        ops = len(campaigns) * (9 * len(checks.GRID) + 3 * 4)  # simulate calls
        self.attempted += ops
        t0 = time.perf_counter()
        try:
            with self._region("grid"):
                result = run_grid(campaigns, self.clock)
        except Exception as exc:
            self.failed += ops
            self.errors.append(f"grid pass failed: {type(exc).__name__}: {exc}")
            return
        finally:
            self.busy_s += time.perf_counter() - t0
        self.passes["grid"] += 1
        self.grid_times.append(result.seconds)
        text = tables_text(result.tables)
        if self.grid_text is None:
            self.grid_text = text
            if self.check:
                self._verify("grid", check_grid, campaigns, result)
        elif text != self.grid_text:
            self.errors.append("grid pass: tables differ from the first pass")

    def bids(self) -> None:
        requests = PIPE_TEST + GBRT_PER_ROUND
        if self.first_pipeline is None:  # no pipeline pass wrote models
            self.attempted += requests
            self.failed += requests
            return
        if self.bidder is None:
            out = self.first_pipeline
            with self._unchecked():
                self.bidder = load_bidder(self.inputs.data_dir, out / "models", out / "replay")
        k = self.passes["bids"]
        self.passes["bids"] += 1
        self.attempted += requests
        t0 = time.perf_counter()
        try:
            with self._region("bids"):
                log = run_bids(self.bidder, k, self.clock)
        except Exception as exc:
            self.failed += requests
            self.errors.append(f"bids round failed: {type(exc).__name__}: {exc}")
            return
        finally:
            self.busy_s += time.perf_counter() - t0
        self.bid_rounds.append((log.lr_us, log.gbrt_us))
        if self.check:
            if self.batch_scores is None:
                with self._unchecked():
                    self.batch_scores = {kind: getattr(self.bidder, kind).score_cases(self.bidder.cases)
                                         for kind in ("lr", "gbrt")}
            self._verify("bids", check_bids, self.bidder, log, self.batch_scores)


def set_up(session_args: dict, seed: int, work: Path, clock: SpeedClock, repeats: int) -> Session:
    """Set up `repeats` times (each from scratch) and keep the last inputs."""
    times = []
    t0 = time.perf_counter()
    for _ in range(repeats):
        mark = clock.now()
        inputs = setup(seed, work)
        times.append(clock.elapsed(mark))
    session = Session(inputs, work, clock, **session_args)
    session.setup_times = times
    session.busy_s = time.perf_counter() - t0
    return session


def schedule(workload: str):
    """(passes first, own pass, companion passes spread over the run).

    As companions the pipeline (about 3 s) and the grid pass (about half a
    second) run three times and bids rounds (about 1 s) ten times; each
    reports its median or percentiles.  Companions are spread evenly over
    the own passes, so that they sample the host's speed across the whole
    run rather than in one spell.  The pipeline comes first wherever it is
    a companion: bids use the models it writes."""
    if workload == "paper_pipeline":
        return (), "pipeline", ("grid", "bids", "bids", "bids") * 3 + ("bids",)
    if workload == "replay_grid":
        return ("pipeline",) * 3, "grid", ("bids",) * 10
    return ("pipeline",) * 3, "bids", ("grid",) * 3


def run_schedule(session: Session, workload: str, seconds: float | None, rounds: int | None) -> None:
    """Own passes until MIN_OWN have run and `seconds` of them are spent,
    or exactly `rounds`; companion j runs once the own passes are
    j / len(companions) of the way, the rest after the last own pass."""
    first, own, companions = schedule(workload)
    for name in first:
        getattr(session, name)()
    spent, done, j = 0.0, 0, 0
    while (done < rounds) if rounds is not None else (done < MIN_OWN[workload] or spent < seconds):
        t0 = time.perf_counter()
        getattr(session, own)()
        spent += time.perf_counter() - t0
        done += 1
        progress = done / rounds if rounds is not None else min(done / MIN_OWN[workload], spent / seconds)
        while j < len(companions) and j / len(companions) < progress:
            getattr(session, companions[j])()
            j += 1
    for name in companions[j:]:
        getattr(session, name)()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def faster_half(samples: list) -> list:
    """The faster half (rounded up) of a run's samples.  Other tenants of a
    shared host slow the same instructions down for seconds at a time and
    never speed them up, so the slower half says more about the host than
    about the program."""
    return sorted(samples)[:(len(samples) + 1) // 2]


def latency_percentile(session: Session, path: int, q: float, which: int) -> float:
    """Nearest-rank percentile of one path's request latency (path 0 is LR,
    1 is GBRT) in each bids round; the median over the faster half of the
    rounds.  A round that meets a slow spell of the host lifts its own
    tail, not the run's: pooled, the requests of one such round would make
    up most of the samples beyond a p99."""
    per_round = [checks.percentile(sorted(x[which] for x in r[path]), q) for r in session.bid_rounds]
    return statistics.median(faster_half(per_round)) if per_round else 0.0


def end_to_end(session: Session, which: int) -> dict[str, float]:
    """The end-to-end metrics from reference-speed (which=1) or raw
    (which=0) timings: medians over the faster half of the run's passes.

    GBRT's tail is taken at p90: a 3 ms request meets one of the host's
    millisecond stalls about one time in a hundred, so its p99 reads the
    host more than the program (see the README)."""
    def med(pairs):
        return statistics.median(faster_half([p[which] for p in pairs])) if pairs else 0.0

    grid_s = med(session.grid_times)
    return {
        "setup_s": med(session.setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "cmd_stats_s": med(session.cmd_times["stats"]),
        "cmd_train_lr_s": med(session.cmd_times["train_lr"]),
        "cmd_train_gbrt_s": med(session.cmd_times["train_gbrt"]),
        "cmd_replay_s": med(session.cmd_times["replay"]),
        "auc_lr": session.auc.get("lr", 0.0),
        "auc_gbrt": session.auc.get("gbrt", 0.0),
        "replay_auctions_per_s": grid_cases_replayed(session.inputs.grid) / grid_s if grid_s else 0.0,
        "bid_lr_p50_us": latency_percentile(session, 0, 50, which),
        "bid_lr_p99_us": latency_percentile(session, 0, 99, which),
        "bid_gbrt_p50_us": latency_percentile(session, 1, 50, which),
        "bid_gbrt_p90_us": latency_percentile(session, 1, 90, which),
    }
