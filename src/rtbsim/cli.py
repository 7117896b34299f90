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
    """The joined cases of the event logs (imp, clk, cnv) under ``directory``:
    ``advertiser``'s, or all of them when they are one advertiser's."""
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
        return [c for c in cases if c.record.advertiser_id == advertiser]
    ids = sorted({c.record.advertiser_id for c in cases})
    if len(ids) > 1:
        raise ValueError(f"{directory} holds advertisers {', '.join(map(str, ids))}; "
                         "choose one with --advertiser")
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
    summary = stats.campaign_summary(args.bid_count, cases)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    ids = train[0].record.advertiser_id, test[0].record.advertiser_id
    if ids[0] != ids[1]:
        raise ValueError(f"the train split holds advertiser {ids[0]} and the test split {ids[1]}")
    return train, test


# train-ctr's hyperparameter flags: each model's hyper class, and its flag
# for each field.
_HYPER_FLAGS = {
    "lr": (models.LrHyper, {"learning_rate": "--learning-rate", "l2": "--l2",
                            "epochs": "--epochs", "seed": "--seed"}),
    "gbrt": (models.GbrtHyper, {"rounds": "--rounds", "shrinkage": "--shrinkage",
                                "max_depth": "--depth", "min_leaf": "--min-leaf"}),
}


def _hyper(args) -> models.LrHyper | models.GbrtHyper:
    """The model's hyper from the flags given, with its own defaults for the
    rest; a flag of the other model fails."""
    given = {}
    for model, (_, flags) in _HYPER_FLAGS.items():
        for field, flag in flags.items():
            if getattr(args, field) is not None:
                if model != args.model:
                    raise ValueError(f"{flag} is a --model {model} flag, not --model {args.model}")
                given[field] = getattr(args, field)
    return _HYPER_FLAGS[args.model][0](**given)


def _fit_scorer(hyper, train) -> models.CtrScorer:
    if isinstance(hyper, models.LrHyper):
        vocab = features.build_vocabulary(train)
        model = models.train_lr(features.binarize_cases(train, vocab), hyper)
        return models.CtrScorer("lr", model, vocabulary=vocab)
    enc = features.build_encodings(features.encoding_split(train))
    x, y = features.densify_cases(train, enc)
    return models.CtrScorer("gbrt", models.train_gbrt(x, y, hyper), encodings=enc)


def cmd_train_ctr(args) -> int:
    hyper = _hyper(args)  # the flags, checked before any input is read
    train, test = _load_split(args)
    scorer = _fit_scorer(hyper, train)
    out = Path(args.out)
    scorer.save(out)  # creates out
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


def _score_splits(args, strategy: str, kinds, *splits) -> list[dict[str, np.ndarray]]:
    """For each split, each model kind's pCTR from the scorer in ``--models``;
    empty dicts when ``kinds`` is empty, which needs no ``--models``."""
    if kinds and not args.models:
        raise ValueError(f"{strategy} needs --models pointing at a train-ctr output dir")
    scorers = {kind: models.CtrScorer.load(args.models, kind) for kind in kinds}
    return [{kind: s.score_cases(split) for kind, s in scorers.items()} for split in splits]


def _tuner(args, train, campaign, pctr_train):
    """``tune(family, fraction, kind)``: ``bidding.tune`` on the train split's
    columns over ``--grid``, with model ``kind``'s train pCTR (None: none)."""
    data = replay.ReplayData.from_cases(train)
    grid = _parse_grid(args.grid)

    def tune(family: str, fraction: Fraction, kind: str | None):
        return bidding.tune(family, data, fraction, grid, campaign,
                            pctr=pctr_train.get(kind), seed=args.seed, model_label=kind)
    return tune


def cmd_tune(args) -> int:
    fractions = [replay.budget_fraction(f) for f in args.budget_fraction or ["1/8"]]
    train = load_cases(Path(args.input) / "train", args.strict, args.advertiser)
    if not train:
        raise ValueError("the train split must be nonempty")
    kind = args.model if args.strategy == "lin" else None
    pctr_train = _score_splits(args, "lin", [kind] if kind else [], train)[0]
    tune = _tuner(args, train, _campaign_for(train, args.kpi_n), pctr_train)
    tuned = [(fraction, *tune(args.strategy, fraction, kind)) for fraction in fractions]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for fraction, strategy, rows in tuned:
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
    campaign = _campaign_for(test, args.kpi_n)
    families = args.strategy or ["const", "rand", "mcpc", "lin"]
    model_kinds = {"lr": ["lr"], "gbrt": ["gbrt"], "both": ["lr", "gbrt"]}[args.model]
    priced = "/".join(f for f in ("mcpc", "lin") if f in families)  # the families that read pCTR
    pctr_train, pctr_test = _score_splits(args, priced, model_kinds if priced else [], train, test)
    tune = _tuner(args, train, campaign, pctr_train)
    max_ecpc = bidding.estimate_max_ecpc(train) if "mcpc" in families else None
    tuned_log: list[str] = []

    def tuned(family: str, kind: str | None, key: str):
        def factory(fraction: Fraction) -> bidding.Strategy:
            strategy, _ = tune(family, fraction, kind)
            tuned_log.append(f"{key}@{fraction}: {strategy.parameter}")
            return strategy
        return factory

    entries = []
    for family in families:
        for kind in model_kinds if family in ("mcpc", "lin") else [None]:
            tag = {"lr": "-L", "gbrt": "-G", None: ""}[kind]
            strategy = (bidding.McpcBid(max_ecpc, kind) if family == "mcpc"
                        else tuned(family, kind, family + tag))
            entries.append(replay.StrategyEntry(family.capitalize() + tag, strategy,
                                                pctr=pctr_test.get(kind)))

    run = replay.CampaignRun(campaign, replay.ReplayData.from_cases(test), entries)
    out = Path(args.out)
    written = replay.run_experiment([run], fractions).write(out)  # creates out
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
    for cls, flags in _HYPER_FLAGS.values():
        for field, flag in flags.items():  # parsed as the type of the field's default
            p.add_argument(flag, dest=field, type=type(getattr(cls, field)), default=None,
                           help=f"{cls.__name__}.{field} (default {getattr(cls, field)})")
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
