#!/usr/bin/env python3
"""rtbsim benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_pipeline --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload's schedule untraced and then traced, and prints every per-layer
metric, the tracing overhead among them.  The program is imported from
``src/`` of the checkout; without it the run fails before measuring.
The last line of standard output is the result object; the line before it
records the kernel backend, the versions and the seeds of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "cmd_stats_s": "s", "cmd_train_lr_s": "s", "cmd_train_gbrt_s": "s", "cmd_replay_s": "s",
    "auc_lr": "1", "auc_gbrt": "1", "replay_auctions_per_s": "cases/s",
    "bid_lr_p50_us": "us", "bid_lr_p99_us": "us", "bid_gbrt_p50_us": "us", "bid_gbrt_p90_us": "us",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("paper_pipeline", "replay_grid", "online_bid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time spent in the workload's own passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    import workloads
    from rtbsim import kernels

    return {
        "workload": workload,
        "seed": seed,
        "pipeline_synth_seed": seed,
        "grid_campaign_seeds": dict(zip(sorted(workloads.GRID_BASE_CTR), workloads.grid_seeds(seed))),
        "numba_enabled": kernels.NUMBA_ENABLED,
        "have_numba": kernels.HAVE_NUMBA,
        "RTBSIM_NO_NUMBA": os.environ.get("RTBSIM_NO_NUMBA"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run(args) -> tuple[dict, dict]:
    import spans
    import workloads as w
    from clock import SpeedClock

    out_dir = HERE / "_out"
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    info = environment(args.workload, args.seed)
    try:
        if args.trace == 0:
            clock = SpeedClock()
            clock.start()
            try:
                session = w.set_up({}, args.seed, work, clock, w.SETUP_REPEATS)
                w.run_schedule(session, args.workload, args.seconds, None)
            finally:
                clock.stop()
            values = w.end_to_end(session, 1)
            info["raw_wall_times"] = {k: v for k, v in w.end_to_end(session, 0).items()
                                      if k not in ("peak_rss_mb", "auc_lr", "auc_gbrt")}
            info["bid_gbrt_p99_us"] = {"reference": w.latency_percentile(session, 1, 99, 1),
                                       "raw": w.latency_percentile(session, 1, 99, 0)}
            info["speed_samples"] = len(clock.cost)
            units = END_TO_END_UNITS
        else:
            rounds = w.TRACE_OWN[args.workload]
            clock = SpeedClock()  # not started: timings stay raw
            plain = w.set_up({"check": False}, args.seed, work / "plain", clock, 1)
            w.run_schedule(plain, args.workload, None, rounds)
            shutil.rmtree(work / "plain", ignore_errors=True)

            import rtbsim

            tracer = spans.Tracer()
            tracer.install(rtbsim)
            try:
                with tracer.region("setup"):
                    session = w.set_up({"tracer": tracer}, args.seed, work / "traced", clock, 1)
                w.run_schedule(session, args.workload, None, rounds)
            finally:
                tracer.uninstall()
            overhead = 100.0 * (session.busy_s - plain.busy_s) / plain.busy_s
            values = tracer.metrics(overhead)
            units = spans.per_layer_units()
            out_dir.mkdir(exist_ok=True)
            stem = f"{args.workload}_seed{args.seed}"
            tracer.save_spans(out_dir / f"spans_{stem}.npz")
            write_layer_table(out_dir / f"layers_{stem}.md", args, tracer, values, units,
                              plain.busy_s, session.busy_s, rounds)
        info["passes"] = session.passes
        if session.truth_auc is not None:
            info["truth_auc"] = session.truth_auc
        if session.errors:
            info["errors"] = session.errors
        result = {
            "correct": not session.errors,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
            json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="utf-8")
        return info, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_layer_table(path, args, tracer, values, units, plain_s, traced_s, rounds) -> None:
    lines = [
        f"# Per-layer trace: {args.workload}, seed {args.seed}",
        "",
        f"Own passes: {rounds}.  Untraced {plain_s:.3f} s, traced {traced_s:.3f} s "
        f"(overhead {values['trace.overhead_pct']:.1f}%).",
        "",
        "| metric | value | unit |",
        "|---|---|---|",
    ]
    lines += [f"| {k} | {values[k]:.6g} | {u} |" for k, u in units.items()]
    lines += ["", "| function | calls | total s |", "|---|---|---|"]
    lines += [f"| {n} | {c} | {t:.4f} |" for n, c, t in tracer.function_table()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rtbsim" / "__init__.py").is_file():
        print(f"error: rtbsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    info, result = run(args)
    print(json.dumps({"info": info}))
    if info.get("errors"):
        for e in info["errors"]:
            print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
