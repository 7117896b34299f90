"""Command-line entry point wiring the pipeline into reproducible runs.

Subcommands: ``synth`` (generate a dataset), ``stats`` (campaign summary
and per-feature breakdowns), ``train-ctr`` (fit and evaluate a CTR model),
``tune`` (grid-search one bidding strategy), ``replay`` (the full
strategy x budget experiment).  Every run is a pure function of its flags
and input files; on failure a single ``error: <Type>: <message>`` line
goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bidding, features, kvfile, models, replay, stats, synthgen
from .logdata import EVENT_LOG, AuctionCase, join_events, load_log

__all__ = ["main"]


def _find_logs(directory: Path, stems: tuple[str, ...]) -> list[Path]:
    # Accepts both the generator's single files (imp.txt) and the public
    # dataset's day-partitioned dumps (imp.20130606.txt.bz2, conv.* stem).
    for stem in stems:
        found = sorted(
            p for p in directory.glob(f"{stem}*")
            if p.is_file() and (p.name == stem or p.name.startswith(f"{stem}."))
        )
        if found:
            return found
    raise FileNotFoundError(f"no {stems[0]} log found under {directory}")


def _tally(names) -> str:
    return ", ".join(f"{k} {n}" for k, n in sorted(Counter(names).items()))


def _warn_input_issues(directory: Path, skipped: list, issues: list) -> None:
    """One stderr line counting the skipped lines by error class and the join
    anomalies by kind; nothing when both are empty."""
    parts = []
    if skipped:
        parts.append(f"skipped {len(skipped)} unparseable lines "
                     f"({_tally(type(e).__name__ for e in skipped)})")
    if issues:
        parts.append(f"{len(issues)} join issues ({_tally(i.kind for i in issues)})")
    if parts:
        print(f"warning: {directory}: {'; '.join(parts)}", file=sys.stderr)


def load_cases(directory, strict: bool = False, advertiser: int | None = None) -> list[AuctionCase]:
    """The joined cases of the event logs (imp, clk, cnv) under ``directory``."""
    directory = Path(directory)
    sink: list = []

    def read_all(stems: tuple[str, ...]):
        records = []
        for path in _find_logs(directory, stems):
            records.extend(load_log(path, EVENT_LOG, strict, sink))
        return records

    imps = read_all(("imp",))
    clks = read_all(("clk",))
    cnvs = read_all(("cnv", "conv"))
    issues: list = []
    cases = join_events(imps, clks, cnvs, issues)
    _warn_input_issues(directory, sink, issues)
    if advertiser is not None:
        cases = [c for c in cases if c.record.advertiser_id == advertiser]
    return cases


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _build_synth_config(args) -> synthgen.SynthConfig:
    text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    lines = [ln for raw in text.splitlines() if (ln := raw.split("#", 1)[0].strip())]
    params = kvfile.parse(synthgen.SynthConfig, lines)
    # Flags override the config file.
    flags = {"seed": args.seed, "n_train": args.n_train, "n_test": args.n_test,
             "base_ctr": args.base_ctr, "advertiser_id": args.advertiser}
    params.update((key, value) for key, value in flags.items() if value is not None)
    return synthgen.SynthConfig(**params)


def _write_truth(cases, p, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("bid_id,true_ctr\n")
        for case, prob in zip(cases, p):
            f.write(f"{case.bid_id},{float(prob)!r}\n")


def cmd_synth(args) -> int:
    config = _build_synth_config(args)
    out = Path(args.out)
    train, test, truth = synthgen.generate(config)
    synthgen.write_dataset(train, out / "train")
    synthgen.write_dataset(test, out / "test")
    _write_truth(train, truth.train_p, out / "truth_train.csv")
    _write_truth(test, truth.test_p, out / "truth_test.csv")
    (out / "synth_config.txt").write_text("\n".join(kvfile.dump(config)) + "\n", encoding="utf-8")
    print(f"synth: wrote {len(train)} train / {len(test)} test cases to {out} "
          f"(realized train CTR {truth.realized_base_ctr:.5f})")
    return 0


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def cmd_stats(args) -> int:
    cases = load_cases(args.input, args.strict, args.advertiser)
    if not cases:
        raise ValueError("no cases after loading/filtering")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = stats.campaign_summary(args.bid_count, cases)
    label = str(args.advertiser) if args.advertiser is not None else "all"
    stats.write_summary_csv([(label, summary)], out / "summary.csv")
    stats.write_summary_markdown([(label, summary)], out / "summary.md")
    for bd in stats.feature_breakdowns(cases):
        stats.write_breakdown_csv(bd, out / f"breakdown_{bd.feature_key}_{bd.metric}.csv")
    print(f"stats: {summary.imps} imps, {summary.clicks} clicks; wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# train-ctr
# ---------------------------------------------------------------------------

def _load_split(args) -> tuple[list[AuctionCase], list[AuctionCase]]:
    root = Path(args.input)
    train = load_cases(root / "train", args.strict, args.advertiser)
    test = load_cases(root / "test", args.strict, args.advertiser)
    if not train or not test:
        raise ValueError("train and test splits must both be nonempty")
    return train, test


def _fit_scorer(kind: str, train, args) -> models.CtrScorer:
    if kind == "lr":
        vocab = features.build_vocabulary(train)
        batch = features.binarize_cases(train, vocab)
        hyper = models.LrHyper(args.learning_rate, args.l2, args.epochs, args.seed)
        model = models.train_lr(batch, hyper)
        return models.CtrScorer("lr", model, vocabulary=vocab)
    subset = features.encoding_split(train)
    enc = features.build_encodings(subset)
    x, y = features.densify_cases(train, enc)
    hyper = models.GbrtHyper(args.rounds, args.shrinkage, args.depth, args.min_leaf)
    model = models.train_gbrt(x, y, hyper)
    return models.CtrScorer("gbrt", model, encodings=enc)


def cmd_train_ctr(args) -> int:
    train, test = _load_split(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scorer = _fit_scorer(args.model, train, args)
    scorer.save(out)
    scores = scorer.score_cases(test)
    labels = [1.0 if c.clicked else 0.0 for c in test]
    report = models.evaluate(scores, labels)
    report.save(out / f"eval_{args.model}.txt")
    models.write_scores_csv([c.bid_id for c in test], scores, out / f"scores_test_{args.model}.csv")
    print(f"train-ctr[{args.model}]: auc={report.auc:.4f} rmse={report.rmse:.5f} n={report.n}")
    return 0


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def _parse_grid(text: str | None):
    if not text:
        return bidding.DEFAULT_GRID
    return tuple(int(p) for p in text.split(","))


def _campaign_for(cases, kpi_n: int | None) -> bidding.CampaignSpec:
    adv = cases[0].record.advertiser_id
    if kpi_n is not None:
        return bidding.CampaignSpec(adv, kpi_n)
    known = bidding.IPINYOU_CAMPAIGNS.get(adv)
    return known if known is not None else bidding.CampaignSpec(adv, 0)


def cmd_tune(args) -> int:
    fractions = [replay.budget_fraction(f) for f in args.budget_fraction or ["1/8"]]
    train = load_cases(Path(args.input) / "train", args.strict, args.advertiser)
    if not train:
        raise ValueError("the train split must be nonempty")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    campaign = _campaign_for(train, args.kpi_n)
    pctr = None
    if args.strategy == "lin":
        if not args.models:
            raise ValueError("lin tuning needs --models pointing at a train-ctr output dir")
        scorer = models.CtrScorer.load(args.models, args.model)
        pctr = scorer.score_cases(train)
    train_data = replay.ReplayData.from_cases(train)
    grid = _parse_grid(args.grid)
    for fraction in fractions:
        strategy, rows = bidding.tune(
            args.strategy, train_data, fraction, grid,
            campaign, pctr=pctr, seed=args.seed, model_label=args.model,
        )
        frac_tag = f"{fraction.numerator}_{fraction.denominator}"
        bidding.save_strategy(strategy, out / f"strategy_{args.strategy}_{frac_tag}.txt")
        bidding.write_grid_csv(rows, out / f"grid_{args.strategy}_{frac_tag}.csv")
        print(f"tune[{args.strategy} @ {fraction}]: best parameter {strategy.parameter}")
    return 0


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def cmd_replay(args) -> int:
    fractions = [replay.budget_fraction(f)
                 for f in args.budget_fraction or replay.STANDARD_FRACTIONS]
    train, test = _load_split(args)
    train_data = replay.ReplayData.from_cases(train)
    campaign = _campaign_for(test, args.kpi_n)
    grid = _parse_grid(args.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    strategy_names = args.strategy or ["const", "rand", "mcpc", "lin"]
    model_kinds = {"lr": ["lr"], "gbrt": ["gbrt"], "both": ["lr", "gbrt"]}[args.model]
    scorers: dict[str, models.CtrScorer] = {}
    pctr_train: dict[str, np.ndarray] = {}
    pctr_test: dict[str, np.ndarray] = {}
    if any(s in ("mcpc", "lin") for s in strategy_names):
        if not args.models:
            raise ValueError("mcpc/lin strategies need --models pointing at train-ctr output")
        for kind in model_kinds:
            scorers[kind] = models.CtrScorer.load(args.models, kind)
            pctr_train[kind] = scorers[kind].score_cases(train)
            pctr_test[kind] = scorers[kind].score_cases(test)

    suffix = {"lr": "L", "gbrt": "G"}
    entries: list[replay.StrategyEntry] = []
    tuned_log: list[str] = []

    def tuned(family: str, kind: str | None):
        def factory(fraction: Fraction) -> bidding.Strategy:
            strategy, _ = bidding.tune(
                family, train_data, fraction, grid, campaign,
                pctr=pctr_train.get(kind), seed=args.seed, model_label=kind,
            )
            tuned_log.append(
                f"{family}{'-' + suffix[kind] if kind else ''}@{fraction}: {strategy.parameter}"
            )
            return strategy
        return factory

    for name in strategy_names:
        if name == "const":
            entries.append(replay.StrategyEntry("Const", tuned("const", None)))
        elif name == "rand":
            entries.append(replay.StrategyEntry("Rand", tuned("rand", None)))
        elif name == "mcpc":
            max_ecpc = bidding.estimate_max_ecpc(train)
            for kind in model_kinds:
                entries.append(replay.StrategyEntry(
                    f"Mcpc-{suffix[kind]}", bidding.McpcBid(max_ecpc, kind), pctr=pctr_test[kind]))
        elif name == "lin":
            for kind in model_kinds:
                entries.append(replay.StrategyEntry(
                    f"Lin-{suffix[kind]}", tuned("lin", kind), pctr=pctr_test[kind]))
        else:
            raise ValueError(f"unknown strategy {name!r}")

    run = replay.CampaignRun(campaign, replay.ReplayData.from_cases(test), entries)
    tables = replay.run_experiment([run], fractions)
    written = tables.write(out)
    if tuned_log:
        (out / "tuned_parameters.txt").write_text("\n".join(sorted(tuned_log)) + "\n", encoding="utf-8")
    print(f"replay: wrote {len(written)} table files to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="dataset directory")
    p.add_argument("--advertiser", type=int, default=None, help="filter to one advertiser id")
    p.add_argument("--strict", action="store_true", help="fail on the first unparseable line")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rtbsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic train/test dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--n-test", type=int, default=None)
    p.add_argument("--base-ctr", type=float, default=None)
    p.add_argument("--advertiser", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="campaign summary and feature breakdowns")
    _add_common_io(p)
    p.add_argument("--bid-count", type=int, default=0,
                   help="bid-log row count for the win ratio (0 = unknown)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train-ctr", help="train and evaluate a CTR model")
    _add_common_io(p)
    p.add_argument("--model", choices=("lr", "gbrt"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--learning-rate", type=float, default=0.05)
    p.add_argument("--l2", type=float, default=1e-6)
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--shrinkage", type=float, default=0.05)
    p.add_argument("--min-leaf", type=int, default=20)
    p.set_defaults(func=cmd_train_ctr)

    p = sub.add_parser("tune", help="grid-search one bidding strategy on training data")
    _add_common_io(p)
    p.add_argument("--strategy", choices=("const", "rand", "lin"), required=True)
    p.add_argument("--budget-fraction", action="append", default=None, metavar="FRAC",
                   help="e.g. 1/8; repeat to tune each (default 1/8)")
    p.add_argument("--grid", default=None, help="comma-separated parameter grid")
    p.add_argument("--models", default=None, help="train-ctr output dir (for lin)")
    p.add_argument("--model", choices=("lr", "gbrt"), default="lr")
    p.add_argument("--kpi-n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("replay", help="strategy x budget experiment on the test split")
    _add_common_io(p)
    p.add_argument("--models", default=None, help="train-ctr output dir")
    p.add_argument("--strategy", action="append", default=None,
                   choices=("const", "rand", "mcpc", "lin"))
    p.add_argument("--model", choices=("lr", "gbrt", "both"), default="lr")
    p.add_argument("--budget-fraction", action="append", default=None, metavar="FRAC")
    p.add_argument("--grid", default=None)
    p.add_argument("--kpi-n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single machine-readable failure line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
