from __future__ import annotations

import hashlib
import re
import shlex
import shutil
import time
import warnings
from pathlib import Path

import pytest

from rtbsim import models, replay
from rtbsim.cli import _hyper, build_parser, cmd_replay, cmd_stats, cmd_synth, cmd_train_ctr, main


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rc = main(["synth", "--out", str(root), "--seed", "21",
               "--n-train", "6000", "--n-test", "2000", "--base-ctr", "0.02"])
    assert rc == 0
    return root


class TestSynth:
    def test_outputs_exist(self, dataset):
        for rel in ("train/imp.txt", "train/clk.txt", "train/cnv.txt",
                    "test/imp.txt", "truth_train.csv", "synth_config.txt"):
            assert (dataset / rel).exists()
        assert len((dataset / "train/imp.txt").read_text().splitlines()) == 6000

    def test_idempotent(self, dataset, tmp_path):
        rc = main(["synth", "--out", str(tmp_path), "--seed", "21",
                   "--n-train", "6000", "--n-test", "2000", "--base-ctr", "0.02"])
        assert rc == 0
        for rel in ("train/imp.txt", "test/imp.txt", "truth_test.csv"):
            assert (tmp_path / rel).read_bytes() == (dataset / rel).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("n_train=500\nn_test=100\nseed=3\nbase_ctr=0.05\n# comment\n")
        rc = main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg), "--seed", "4"])
        assert rc == 0
        echoed = (tmp_path / "d" / "synth_config.txt").read_text()
        assert "seed=4" in echoed and "n_train=500" in echoed

    def test_echoed_config_reproduces_dataset(self, dataset, tmp_path):
        rc = main(["synth", "--out", str(tmp_path), "--config", str(dataset / "synth_config.txt")])
        assert rc == 0
        files = sorted(p.relative_to(dataset) for p in dataset.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
        for rel in files:
            assert (tmp_path / rel).read_bytes() == (dataset / rel).read_bytes(), rel

    @pytest.mark.parametrize("line, named", [
        ("n_trian=50", "'n_trian'"),
        ("n_train", "'n_train'"),
        ("n_train=abc", "n_train='abc'"),
        ("base_ctr=0.0.1", "base_ctr='0.0.1'"),
        ("true_weights=1,2", "'true_weights'"),
        ("market_price_params=4.2,0.4", "'market_price_params'"),
        ("market_mu=high", "market_mu='high'"),
        ("seed=1\nseed=2", "'seed' is set more than once"),
        ("start_time=99991231235959000", "start_time 99991231235959000 is too late"),
    ])
    def test_bad_config_line_named(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(f"n_test=10\n{line}\n", encoding="utf-8")
        rc = main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ValueError: ") and named in err[0]
        assert not (tmp_path / "d").exists()

    def test_degenerate_config_fails_cleanly(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "x"), "--base-ctr", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")


class TestStats:
    def test_summary_tracks_generator(self, dataset, tmp_path, capsys):
        rc = main(["stats", "--input", str(dataset / "train"), "--out", str(tmp_path)])
        assert rc == 0
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        row = dict(zip(header, summary[1].split(",")))
        imps, clicks = int(row["imps"]), int(row["clicks"])
        assert imps == 6000
        # summary CTR must sit within sampling noise of the generator's
        # mean true probability (read back from the truth file)
        truth = [float(ln.split(",")[1])
                 for ln in (dataset / "truth_train.csv").read_text().splitlines()[1:]]
        expect = sum(truth) / len(truth)
        sd = (expect * (1 - expect) / imps) ** 0.5
        assert abs(clicks / imps - expect) <= 5 * sd
        for key in ("weekday", "user_tag", "slot_size"):
            assert (tmp_path / f"breakdown_{key}_ctr.csv").exists()
            assert (tmp_path / f"breakdown_{key}_market_price.csv").exists()
            assert (tmp_path / f"breakdown_{key}_ecpc.csv").exists()

    def test_missing_input_fails(self, tmp_path, capsys):
        rc = main(["stats", "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error: FileNotFoundError" in capsys.readouterr().err

    def test_day_partitioned_bz2_layout(self, dataset, tmp_path):
        # the public dumps split each stream by day, bzip2-compressed, and
        # name conversions conv.*; the loader must accept that layout
        import bz2

        src = dataset / "train"
        alt = tmp_path / "alt"
        alt.mkdir()
        for stem, out_stem in (("imp", "imp"), ("clk", "clk"), ("cnv", "conv")):
            lines = (src / f"{stem}.txt").read_text().splitlines(keepends=True)
            half = len(lines) // 2
            for day, chunk in (("20130606", lines[:half]), ("20130607", lines[half:])):
                with bz2.open(alt / f"{out_stem}.{day}.txt.bz2", "wt", encoding="utf-8") as f:
                    f.writelines(chunk)
        out_a = tmp_path / "stats_alt"
        out_b = tmp_path / "stats_plain"
        assert main(["stats", "--input", str(alt), "--out", str(out_a)]) == 0
        assert main(["stats", "--input", str(src), "--out", str(out_b)]) == 0
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_join_issues_and_bad_lines_warned_once(self, dataset, tmp_path, capsys):
        # A duplicated impression, a click on an unknown bid_id and a line
        # with too few columns: each is dropped, so every output file equals
        # the clean split's, and one stderr line counts them by kind.
        src = dataset / "train"
        noisy = tmp_path / "noisy"
        noisy.mkdir()
        imps = (src / "imp.txt").read_text().splitlines(keepends=True)
        clks = (src / "clk.txt").read_text().splitlines(keepends=True)
        orphan = "orphan0000000001" + clks[0][clks[0].index("\t"):]
        (noisy / "imp.txt").write_text("".join(imps + [imps[0], "not\ta\tlog\tline\n"]))
        (noisy / "clk.txt").write_text("".join(clks + [orphan]))
        (noisy / "cnv.txt").write_bytes((src / "cnv.txt").read_bytes())
        assert main(["stats", "--input", str(src), "--out", str(tmp_path / "clean")]) == 0
        assert capsys.readouterr().err == ""
        assert main(["stats", "--input", str(noisy), "--out", str(tmp_path / "noisy_out")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: {noisy}: skipped 1 unparseable lines (ColumnCountMismatch 1); "
                       "2 join issues (duplicate_impression 1, orphan_click 1)"]
        clean = sorted(p.name for p in (tmp_path / "clean").iterdir())
        assert clean == sorted(p.name for p in (tmp_path / "noisy_out").iterdir())
        for name in clean:
            assert (tmp_path / "noisy_out" / name).read_bytes() == \
                (tmp_path / "clean" / name).read_bytes(), name


@pytest.fixture(scope="module")
def models_dir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    for kind, flags in (("lr", ["--seed", "1"]), ("gbrt", ["--rounds", "20"])):
        rc = main(["train-ctr", "--input", str(dataset), "--model", kind,
                   "--out", str(out), *flags])
        assert rc == 0
    return out


class TestTrainCtr:
    def test_artifacts(self, models_dir):
        for name in ("vocab.txt", "model_lr.txt", "eval_lr.txt", "scores_test_lr.csv",
                     "encodings.txt", "model_gbrt.txt", "eval_gbrt.txt"):
            assert (models_dir / name).exists()
        eval_lr = (models_dir / "eval_lr.txt").read_text()
        auc = float(dict(l.split("=") for l in eval_lr.splitlines())["auc"])
        assert 0.5 < auc <= 1.0
        scores = (models_dir / "scores_test_lr.csv").read_text().splitlines()
        assert scores[0] == "bid_id,pctr"
        assert len(scores) == 2001

    def test_tune_and_replay(self, dataset, models_dir, tmp_path):
        out = tmp_path / "replay"
        argv = ["replay", "--input", str(dataset), "--models", str(models_dir),
                "--model", "both", "--budget-fraction", "1/32", "--budget-fraction", "1/8",
                "--grid", "10,50,100", "--out", str(out)]
        assert main(argv) == 0
        clicks = (out / "table_clicks_1_32.csv").read_text().splitlines()
        assert clicks[0] == "campaign,Const,Rand,Mcpc-L,Mcpc-G,Lin-L,Lin-G"
        assert clicks[-1].startswith("Total,")
        assert (out / "tuned_parameters.txt").exists()
        grid = (out / "grid_lin-L_1_8.csv").read_text().splitlines()
        assert grid[0] == "parameter,wins,clicks,convs,cost_fen,score" and len(grid) == 4
        # idempotence: byte-identical tables on a second run
        out2 = tmp_path / "replay2"
        assert main(argv[:-1] + [str(out2)]) == 0
        assert (out2 / "table_clicks_1_32.csv").read_bytes() == (out / "table_clicks_1_32.csv").read_bytes()
        assert (out2 / "table_score_1_8.csv").read_bytes() == (out / "table_score_1_8.csv").read_bytes()

    def test_replay_builds_each_split_once(self, dataset, models_dir, tmp_path, monkeypatch):
        from_cases = replay.ReplayData.from_cases
        calls = []

        def counted(cases):
            calls.append(len(cases))
            return from_cases(cases)

        monkeypatch.setattr(replay.ReplayData, "from_cases", staticmethod(counted))
        rc = main(["replay", "--input", str(dataset), "--models", str(models_dir),
                   "--model", "both", "--grid", "10,50,100", "--out", str(tmp_path)])
        assert rc == 0
        assert calls == [6000, 2000]  # train columns for every tune call, then test


# The sha256 of each grid file of replay_argv's run at 1/32 and 1/8 on the
# dataset and models_dir fixtures, as the retired `rtbsim tune` command wrote
# it for the same family, model, fraction and grid, and of tuned_parameters.txt.
TUNED_SHA256 = {
    "grid_const_1_32.csv": "35e6372b94435cfcb03b2faecd9a849b5d80fc384197356debdc27802ddda2ee",
    "grid_const_1_8.csv": "2f382085eee1d245e2d32bb4d2e7df87bc12f2c583402865c30c0b5fa812a1fc",
    "grid_rand_1_32.csv": "b0ff5ea5b1fcef2e27e693a60f768081f23a0136581a0633f2386935bd199153",
    "grid_rand_1_8.csv": "8f6ae86ccaf4c7c283df91fb55a40dac8e796c82769e7ecaeed7a108da4cff1e",
    "grid_lin-L_1_32.csv": "b2a079d5a1bc7df22b04deadb6c5cdc153e1ba57775295ff69434f859014f2fa",
    "grid_lin-L_1_8.csv": "ea1c5e1e336b6fc89edc5ccfa7dfef127c5689107126e39a97f25aac1055530b",
    "grid_lin-G_1_32.csv": "dfb546966ab80d16c9d42727e37ab50c1712bcbbbb20f128852889a98a22478b",
    "grid_lin-G_1_8.csv": "16705523879564eac9a017b0e7f4500830f3e8674e6e2f827e30e5270bfa5c5a",
    "tuned_parameters.txt": "2c9127415c3c7f052c51a027a43d5871d0f9c9661d1807a8e61c6e783688e06c",
}


def replay_argv(dataset, models_dir, out, *flags):
    return ["replay", "--input", str(dataset), "--models", str(models_dir), "--model", "both",
            "--grid", "5,20,50,100,300", "--out", str(out), *flags]


class TestReplayTuning:
    def test_grid_files_pinned(self, dataset, models_dir, tmp_path):
        argv = replay_argv(dataset, models_dir, tmp_path, "--budget-fraction", "1/32",
                           "--budget-fraction", "1/8")
        assert main(argv) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
                   if not p.name.startswith("table_")}
        assert written == TUNED_SHA256

    def test_each_fraction_tuned_from_one_scoring(self, dataset, models_dir, tmp_path, monkeypatch):
        for frac in ("1/32", "1/8"):
            argv = replay_argv(dataset, models_dir, tmp_path / frac[2:], "--budget-fraction", frac)
            assert main(argv) == 0
        from_cases, score_cases = replay.ReplayData.from_cases, models.CtrScorer.score_cases
        calls = []

        def columns(cases):
            calls.append(("columns", len(cases)))
            return from_cases(cases)

        def scores(scorer, cases):
            calls.append((scorer.kind, len(cases)))
            return score_cases(scorer, cases)

        monkeypatch.setattr(replay.ReplayData, "from_cases", staticmethod(columns))
        monkeypatch.setattr(models.CtrScorer, "score_cases", scores)
        out = tmp_path / "both"
        argv = replay_argv(dataset, models_dir, out, "--budget-fraction", "1/32",
                           "--budget-fraction", "1/8")
        assert main(argv) == 0
        assert sorted(calls) == sorted([("lr", 6000), ("lr", 2000), ("gbrt", 6000), ("gbrt", 2000),
                                        ("columns", 6000), ("columns", 2000)])
        grids = sorted(p.name for p in out.glob("grid_*.csv"))
        assert len(grids) == 8
        for name in grids:
            single = tmp_path / name.rsplit("_", 1)[1].removesuffix(".csv") / name
            assert (out / name).read_bytes() == single.read_bytes(), name

    def test_tune_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(["tune", "--input", "d", "--out", "o", "--strategy", "const"])
        assert exit_.value.code == 2
        assert "invalid choice: 'tune'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--grid", ""], "--grid ''"),
        (["--grid", " "], "--grid ' '"),
        (["--grid", "10,x"], "--grid '10,x'"),
        (["--grid", "10,-5"], "--grid '10,-5'"),
        (["--grid", "2.5"], "--grid '2.5'"),
        (["--grid", "10,50,10"], "--grid lists 10 twice"),
        (["--strategy", "const", "--strategy", "const"], "--strategy lists const twice"),
        (["--budget-fraction", "1/8", "--budget-fraction", "0.125"], "--budget-fraction lists 1/8 twice"),
        # Decimal digits, but not ASCII ones: Arabic-Indic three, fullwidth seven.
        (["--grid", "\u0663,5"], "--grid '\u0663,5'"),
        (["--grid", "10,\uff17"], "--grid '10,\uff17'"),
    ])
    def test_bad_tuning_flag_fails_before_input(self, tmp_path, capsys, flags, named):
        argv = ["replay", "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "o"), *flags]
        rc = main(argv + ([] if "--strategy" in flags else ["--strategy", "const"]))
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ValueError: ") and named in err[0]
        assert not (tmp_path / "o").exists()


def test_grid_beyond_int64_fails_before_input(tmp_path, capsys):
    # A grid value is a Const or Rand bid, which an int64 bid column holds.
    argv = ["replay", "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
            "--strategy", "const", "--grid", "10,9223372036854775807,9223372036854775808"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: BidOverflow: --grid value 9223372036854775808 is not below 2**63, "
        "the bound of an int64 bid"]
    assert not (tmp_path / "o").exists()


def test_lin_bid_beyond_int64_is_an_error(dataset, models_dir, tmp_path, capsys):
    # At base bid 9e18, a pCTR 1.025 times the average CTR bids 2**63; no
    # bid may wrap.
    argv = ["replay", "--input", str(dataset), "--models", str(models_dir), "--strategy", "lin",
            "--grid", "10,9000000000000000000", "--budget-fraction", "1/2", "--out", str(tmp_path / "o")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: BidOverflow: bid ")


def test_negative_kpi_n_fails_before_input(dataset, tmp_path, capsys):
    # A negative conversion weight would tune toward fewer conversions.
    argv = ["replay", "--input", str(dataset), "--out", str(tmp_path / "o"), "--strategy", "const",
            "--grid", "10,50", "--budget-fraction", "1/8", "--kpi-n", "-5"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: ValueError: --kpi-n -5 must be >= 0: it weighs conversions in the score"]
    assert not (tmp_path / "o").exists()


class TestReplayErrors:
    def test_fraction_out_of_range(self, dataset, capsys):
        rc = main(["replay", "--input", str(dataset), "--budget-fraction", "2",
                   "--out", "/tmp/unused"])
        assert rc != 0
        err = capsys.readouterr().err
        assert "error: FractionOutOfRange:" in err

    def test_fraction_checked_before_input(self, tmp_path, capsys):
        rc = main(["replay", "--input", str(tmp_path / "nope"), "--strategy", "const",
                   "--budget-fraction", "3/2", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error: FractionOutOfRange:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_lin_without_models(self, dataset, tmp_path, capsys):
        rc = main(["replay", "--input", str(dataset), "--strategy", "lin",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error: ValueError" in capsys.readouterr().err

    def test_no_out_before_the_models_check(self, dataset, tmp_path, capsys):
        rc = main(["replay", "--input", str(dataset), "--strategy", "lin", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ValueError: ") and "lin" in err[0]
        assert "--models" in err[0] and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["replay", "--strategy", "rand", "--model", "gbrt"],
         "--model is read only with --strategy mcpc or lin"),
        (["replay", "--strategy", "rand", "--models", "/nonexistent"],
         "--models is read only with --strategy mcpc or lin"),
        (["replay", "--strategy", "const", "--model", "both", "--models", "/nonexistent"],
         "--models is read only with --strategy mcpc or lin"),
        (["replay", "--strategy", "const", "--strategy", "rand", "--model", "lr"],
         "--model is read only with --strategy mcpc or lin"),
        (["replay", "--strategy", "lin"], "lin needs --models"),
        (["replay", "--strategy", "mcpc", "--model", "gbrt"], "mcpc needs --models"),
    ])
    def test_model_flags_checked_before_input(self, tmp_path, capsys, argv, message):
        rc = main([*argv, "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith(f"error: ValueError: {message}")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, named", [
    (["--model", "gbrt", "--shrinkage", "nan"], "shrinkage=nan"),
    (["--model", "gbrt", "--shrinkage", "-1"], "shrinkage=-1.0"),
    (["--model", "gbrt", "--rounds", "-2"], "rounds=-2"),
    (["--model", "gbrt", "--depth", "-1"], "max_depth=-1"),
    (["--model", "gbrt", "--min-leaf", "0"], "min_leaf=0"),
    (["--model", "lr", "--epochs", "-1"], "epochs=-1"),
    (["--model", "lr", "--learning-rate", "-1"], "learning_rate=-1.0"),
    (["--model", "lr", "--l2", "inf"], "l2=inf"),
    (["--model", "gbrt", "--depth", "21"], "max_depth=21"),
])
def test_train_ctr_hyperparameter_out_of_range(dataset, tmp_path, capsys, flags, named):
    rc = main(["train-ctr", "--input", str(dataset), "--out", str(tmp_path), *flags])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ValueError: ") and named in err[0]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags, named", [
    (["--model", "gbrt", "--shrinkage", "nan"], "shrinkage=nan"),
    (["--model", "gbrt", "--depth", "30"], "max_depth=30"),
    (["--model", "lr", "--epochs", "0"], "epochs=0"),
    (["--model", "gbrt", "--seed", "1"], "--seed"),
    (["--model", "gbrt", "--learning-rate", "0.1"], "--learning-rate"),
    (["--model", "lr", "--depth", "3"], "--depth"),
    (["--model", "lr", "--rounds", "5", "--epochs", "2"], "--rounds"),
])
def test_train_ctr_flags_checked_before_input(tmp_path, capsys, flags, named):
    # the input does not exist: the flag must fail first, and create no --out
    rc = main(["train-ctr", "--input", str(tmp_path / "missing"), "--out", str(tmp_path / "out"),
               *flags])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ValueError: ") and named in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bids", ["-5", "10", "5999"])
def test_stats_bid_count_below_the_impressions(dataset, tmp_path, capsys, bids):
    rc = main(["stats", "--input", str(dataset / "train"), "--out", str(tmp_path / "s"),
               "--bid-count", bids])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: ValueError: bid count {bids} must be 0 (unknown) "
                                       "or at least the 6000 impressions\n")
    assert not (tmp_path / "s").exists()


def test_stats_bid_count_at_the_impressions(dataset, tmp_path):
    assert main(["stats", "--input", str(dataset / "train"), "--out", str(tmp_path),
                 "--bid-count", "6000"]) == 0
    assert (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")[6] == "1.0"


def test_full_pipeline_completes_quickly(tmp_path):
    """synth -> stats -> train both models -> replay, at full desk scale."""
    t0 = time.perf_counter()
    root = tmp_path / "data"
    assert main(["synth", "--out", str(root), "--seed", "99",
                 "--n-train", "100000", "--n-test", "20000"]) == 0
    assert main(["stats", "--input", str(root / "train"), "--out", str(tmp_path / "stats")]) == 0
    models_dir = tmp_path / "models"
    assert main(["train-ctr", "--input", str(root), "--model", "lr", "--out", str(models_dir),
                 "--epochs", "10", "--learning-rate", "0.3", "--seed", "1"]) == 0
    assert main(["train-ctr", "--input", str(root), "--model", "gbrt", "--out", str(models_dir)]) == 0
    assert main(["replay", "--input", str(root), "--models", str(models_dir),
                 "--model", "both", "--out", str(tmp_path / "replay")]) == 0
    elapsed = time.perf_counter() - t0
    assert (tmp_path / "replay" / "table_score_1_2.csv").exists()
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"


# Their floats go through exp or log, whose last bit can differ between
# libm and numpy's SIMD builds.
UNPINNED = {"data/synth_config.txt", "data/truth_train.csv", "data/truth_test.csv",
            "models/model_lr.txt", "models/eval_lr.txt", "models/scores_test_lr.csv"}


def test_gbrt_chain_output_bytes_pinned(tmp_path, monkeypatch):
    """The GBRT chain, and the LR vocabulary, write the bytes listed in
    gbrt_chain_seed3.sha256 on every Python version and kernel backend.  A
    change that alters them on purpose records the new ``sha256sum`` lines
    and says so."""
    monkeypatch.chdir(tmp_path)
    for argv in (["synth", "--out", "data", "--seed", "3", "--n-train", "2000", "--n-test", "1000"],
                 ["stats", "--input", "data/train", "--out", "stats"],
                 ["train-ctr", "--input", "data", "--model", "lr", "--out", "models"],
                 ["train-ctr", "--input", "data", "--model", "gbrt", "--out", "models"],
                 ["replay", "--input", "data", "--models", "models", "--model", "gbrt",
                  "--out", "replay"]):
        assert main(argv) == 0, argv
    listing = (Path(__file__).parent / "gbrt_chain_seed3.sha256").read_text(encoding="utf-8")
    pinned = {path: digest for digest, path in (ln.split("  ") for ln in listing.splitlines())}
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    # and the grid of each tuned parameter, whose bytes TestReplayTuning pins
    tuned = (line.split(": ")[0].split("@") for line in
             (tmp_path / "replay/tuned_parameters.txt").read_text(encoding="utf-8").splitlines())
    grids = {f"replay/grid_{key}_{fraction.replace('/', '_')}.csv" for key, fraction in tuned}
    assert written - UNPINNED == set(pinned) | grids
    changed = [path for path, digest in pinned.items()
               if hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() != digest]
    assert changed == []


def test_readme_walkthrough_commands_parse():
    """Every ``rtbsim ...`` line of README's walkthrough, its ``\\``
    continuations joined, parses, and together they run every command, so a
    removed or renamed command or flag cannot stay in the docs."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Pipeline walkthrough\n\n```bash\n(.*?)^```$", text, flags=re.M | re.S)
    commands = re.findall(r"^rtbsim (.*)$", block[1].replace("\\\n", " "), flags=re.M)
    parser = build_parser()
    run = {parser.parse_args(shlex.split(command)).func for command in commands}
    assert run == {cmd_synth, cmd_stats, cmd_train_ctr, cmd_replay}


def test_train_ctr_flag_defaults_are_the_hyper_defaults():
    for model, hyper in (("lr", models.LrHyper()), ("gbrt", models.GbrtHyper())):
        args = build_parser().parse_args(["train-ctr", "--input", "d", "--out", "o", "--model", model])
        assert _hyper(args) == hyper


def test_schema_flag_is_a_usage_error(capsys):
    # commands read event logs only; the bid-log schema has no flag
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(["stats", "--input", "d", "--out", "o", "--schema", "event"])
    assert exit_.value.code == 2
    assert "--schema" in capsys.readouterr().err


@pytest.fixture(scope="module")
def two_advertisers(tmp_path_factory):
    """Advertisers 1458 and 3386 from two synth runs: each on its own, both
    merged into one directory in time order, and 1458's train split beside
    3386's test split."""
    root = tmp_path_factory.mktemp("advertisers")
    for adv, seed in ((1458, 1), (3386, 2)):
        assert main(["synth", "--out", str(root / str(adv)), "--seed", str(seed), "--advertiser",
                     str(adv), "--n-train", "1500", "--n-test", "500"]) == 0
    for split in ("train", "test"):
        (root / "merged" / split).mkdir(parents=True)
        for log in ("imp.txt", "clk.txt", "cnv.txt"):
            lines = [ln for adv in ("1458", "3386")
                     for ln in (root / adv / split / log).read_text().splitlines(keepends=True)]
            lines.sort(key=lambda ln: ln.split("\t")[1])
            (root / "merged" / split / log).write_text("".join(lines))
    shutil.copytree(root / "1458" / "train", root / "mixed" / "train")
    shutil.copytree(root / "3386" / "test", root / "mixed" / "test")
    return root


def _advertiser_commands(data, out):
    models_dir = str(out / "models")
    return [
        ["stats", "--input", str(data / "train"), "--out", str(out / "stats")],
        ["train-ctr", "--input", str(data), "--model", "lr", "--out", models_dir],
        ["train-ctr", "--input", str(data), "--model", "gbrt", "--rounds", "5", "--out", models_dir],
        ["replay", "--input", str(data), "--models", models_dir, "--model", "both",
         "--grid", "10,50,100", "--out", str(out / "replay")],
    ]


def test_two_advertisers_in_one_split_fail_by_name(two_advertisers, tmp_path, capsys):
    for argv in _advertiser_commands(two_advertisers / "merged", tmp_path):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ValueError: "), err
        assert "1458, 3386" in err[0] and "--advertiser" in err[0]
    assert not any(tmp_path.iterdir())


def test_advertiser_flag_on_a_merged_split_writes_its_own_bytes(two_advertisers, tmp_path):
    for data in ("merged", "1458"):
        for argv in _advertiser_commands(two_advertisers / data, tmp_path / data):
            assert main(argv + ["--advertiser", "1458"]) == 0, argv
    written = sorted(p.relative_to(tmp_path / "1458") for p in (tmp_path / "1458").rglob("*")
                     if p.is_file())
    assert len(written) > 20
    assert written == sorted(p.relative_to(tmp_path / "merged")
                             for p in (tmp_path / "merged").rglob("*") if p.is_file())
    for rel in written:
        assert (tmp_path / "merged" / rel).read_bytes() == (tmp_path / "1458" / rel).read_bytes(), rel


@pytest.mark.parametrize("command", ["train-ctr", "replay"])
def test_train_and_test_of_different_advertisers_fail_by_name(two_advertisers, tmp_path, capsys,
                                                              command):
    argv = [command, "--input", str(two_advertisers / "mixed"), "--out", str(tmp_path / "o")]
    rc = main(argv + (["--model", "lr"] if command == "train-ctr" else ["--strategy", "const"]))
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == ["error: ValueError: the train split holds advertiser 1458 and the test split 3386"]
    assert not (tmp_path / "o").exists()
