"""Command-line entry point wiring the pipeline into reproducible runs.

Subcommands: ``synth`` (generate a dataset), ``stats`` (campaign summary
and per-feature breakdowns), ``train-ctr`` (fit and evaluate a CTR model),
``replay`` (tune each bidding strategy on the train split, then the
strategy x budget experiment on the test split).  Every run is a pure
function of its flags and input files; on failure a single
``error: <Type>: <message>`` line goes to stderr and the exit code is
nonzero.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import bidding, features, kvfile, models, replay, stats, synthgen
from .logdata import AuctionCase, CaseTable

__all__ = ["main"]


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


def _read_split(directory, strict: bool = False, advertiser: int | None = None) -> CaseTable:
    """The joined cases of the event logs (imp, clk, cnv) under ``directory``:
    ``advertiser``'s, or all of them when they are one advertiser's."""
    directory = Path(directory)
    skipped: list = []
    issues: list = []
    table = CaseTable.read(directory, strict, advertiser, skipped, issues)
    _warn_input_issues(directory, skipped, issues)
    ids = table.distinct("advertiser_id")
    if len(ids) > 1:
        raise ValueError(f"{directory} holds advertisers {', '.join(map(str, sorted(ids)))}; "
                         "choose one with --advertiser")
    return table


def load_cases(directory, strict: bool = False, advertiser: int | None = None) -> list[AuctionCase]:
    """The cases of :func:`_read_split`'s table, as records."""
    return _read_split(directory, strict, advertiser).cases()


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


def _write_truth(table: CaseTable, p, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("bid_id,true_ctr\n")
        f.writelines([f"{bid_id},{prob!r}\n" for bid_id, prob in zip(table.lists["bid_id"], p.tolist())])


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
    cases = _read_split(args.input, args.strict, args.advertiser)
    if not len(cases):
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

def _load_split(args) -> tuple[CaseTable, CaseTable]:
    root = Path(args.input)
    train = _read_split(root / "train", args.strict, args.advertiser)
    test = _read_split(root / "test", args.strict, args.advertiser)
    if not len(train) or not len(test):
        raise ValueError("train and test splits must both be nonempty")
    ids = train.record(0).advertiser_id, test.record(0).advertiser_id
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
    report = models.evaluate(scores, test.clicked.astype(np.float64))
    report.save(out / f"eval_{args.model}.txt")
    models.write_scores_csv(test.lists["bid_id"], scores, out / f"scores_test_{args.model}.csv")
    print(f"train-ctr[{args.model}]: auc={report.auc:.4f} rmse={report.rmse:.5f} n={report.n}")
    return 0


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _once(flag: str, values, parse) -> list:
    """``parse`` of each of a flag's values, which must differ."""
    parsed = [parse(text) for text in values]
    for i, value in enumerate(parsed):
        if value in parsed[:i]:
            raise ValueError(f"{flag} lists {value} twice")
    return parsed


def _grid(text: str | None) -> tuple[int, ...]:
    """``--grid``'s comma-separated integers >= 0 and below 2**63, or the
    default grid."""
    if text is None:
        return bidding.DEFAULT_GRID
    parts = [part.strip() for part in text.split(",")]
    if not all(part.isdecimal() for part in parts):
        raise ValueError(f"--grid {text!r} is not a comma-separated list of integers >= 0")
    grid = tuple(_once("--grid", parts, int))
    for value in grid:
        bidding.check_bid(value, "--grid value")
    return grid


def _campaign_for(cases: CaseTable, kpi_n: int | None) -> bidding.CampaignSpec:
    adv = cases.record(0).advertiser_id
    if kpi_n is not None:
        return bidding.CampaignSpec(adv, kpi_n)
    known = bidding.IPINYOU_CAMPAIGNS.get(adv)
    return known if known is not None else bidding.CampaignSpec(adv, 0)


def cmd_replay(args) -> int:
    # The flags, checked before any input is read.
    fractions = _once("--budget-fraction", args.budget_fraction or replay.STANDARD_FRACTIONS,
                      replay.budget_fraction)
    families = _once("--strategy", args.strategy or ["const", "rand", "mcpc", "lin"], str)
    grid = _grid(args.grid)
    if args.kpi_n is not None and args.kpi_n < 0:
        raise ValueError(f"--kpi-n {args.kpi_n} must be >= 0: it weighs conversions in the score")
    model_kinds = {"lr": ["lr"], "gbrt": ["gbrt"], "both": ["lr", "gbrt"]}[args.model or "lr"]
    priced = "/".join(f for f in ("mcpc", "lin") if f in families)
    if priced and not args.models:
        raise ValueError(f"{priced} needs --models pointing at a train-ctr output dir")
    unread = [flag for flag, value in (("--models", args.models), ("--model", args.model)) if value is not None]
    if not priced and unread:
        raise ValueError(f"{unread[0]} is read only with --strategy mcpc or lin")
    kinds = model_kinds if priced else []

    train, test = _load_split(args)
    campaign = _campaign_for(test, args.kpi_n)
    scorers = {kind: models.CtrScorer.load(args.models, kind) for kind in kinds}
    pctr_train = {kind: s.score_cases(train) for kind, s in scorers.items()}
    pctr_test = {kind: s.score_cases(test) for kind, s in scorers.items()}
    train_data = replay.ReplayData.from_cases(train)
    max_ecpc = bidding.estimate_max_ecpc(train) if "mcpc" in families else None

    # (key, fraction) -> (strategy, grid rows) for each tunable family; key
    # is the family with its model's tag, e.g. lin-L.
    tuned = {}
    entries = []
    for family in families:
        for kind in model_kinds if family in ("mcpc", "lin") else [None]:
            tag = {"lr": "-L", "gbrt": "-G", None: ""}[kind]
            if family == "mcpc":
                strategy = bidding.McpcBid(max_ecpc, kind)
            else:
                key = family + tag
                for fraction in fractions:
                    tuned[key, fraction] = bidding.tune(
                        family, train_data, fraction, grid, campaign,
                        pctr=pctr_train.get(kind), seed=args.seed, model_label=kind)
                strategy = lambda fraction, key=key: tuned[key, fraction][0]
            entries.append(replay.StrategyEntry(family.capitalize() + tag, strategy,
                                                pctr=pctr_test.get(kind)))

    run = replay.CampaignRun(campaign, replay.ReplayData.from_cases(test), entries)
    out = Path(args.out)
    written = replay.run_experiment([run], fractions).write(out)  # creates out
    if tuned:
        lines = sorted(f"{key}@{fraction}: {strategy.parameter}"
                       for (key, fraction), (strategy, _) in tuned.items())
        (out / "tuned_parameters.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for (key, fraction), (_, rows) in tuned.items():
        bidding.write_grid_csv(rows, out / f"grid_{key}_{fraction.numerator}_{fraction.denominator}.csv")
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

    p = sub.add_parser("replay", help="tune strategies on the train split, then the "
                                      "strategy x budget experiment on the test split")
    _add_common_io(p)
    p.add_argument("--models", default=None, help="train-ctr output dir")
    p.add_argument("--strategy", action="append", default=None,
                   choices=("const", "rand", "mcpc", "lin"))
    p.add_argument("--model", choices=("lr", "gbrt", "both"), default=None,
                   help="for mcpc and lin (default lr)")
    p.add_argument("--budget-fraction", action="append", default=None, metavar="FRAC")
    p.add_argument("--grid", default=None, help="comma-separated tuning grid")
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
