#!/usr/bin/env python3
"""Timings of the njit kernels against their pure-numpy/python fallbacks.

Run:  python3 benchmarks/bench_kernels.py

The two backends are bit-identical (see tests/test_kernels.py); which one
runs is whether numba is installed, and this script measures the speed gap
between them.  A second table compares models.predict on one GBRT vector,
which scores it with the installed backend's one-row scorer, against
models.predict on a one-row batch.
Without numba the loop forms run as plain Python, minutes at these sizes,
so they are only checked against the fallbacks on a slice and their times
print as n/a.
"""

from __future__ import annotations

import time

import numpy as np

from rtbsim import features, kernels, models, synthgen


TIME_LOOPS = kernels.HAVE_NUMBA
SMALL = 500  # rows on which an untimed loop form is checked


def timeit(fn, *args, repeats=5):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def compare(rows, name, loop_fn, fallback_fn, args, n, same, repeats=5):
    """Time ``fallback_fn(*args(n))``, and ``loop_fn`` on the same input when
    numba compiles it, and assert that the two forms agree.  ``args(m)``
    builds fresh arguments for the first m rows.  Returns the fallback's
    output on all n rows."""
    t_slow, out_slow = timeit(fallback_fn, *args(n), repeats=repeats)
    if TIME_LOOPS:
        t_fast, out_fast = timeit(loop_fn, *args(n), repeats=repeats)
        assert same(out_fast, out_slow), name
    else:
        t_fast = None
        assert same(loop_fn(*args(SMALL)), fallback_fn(*args(SMALL))), name
    rows.append((name, t_fast, t_slow))
    return out_slow


def same_arrays(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def bench_win_scan(rows):
    n = 1_000_000
    rng = np.random.default_rng(0)
    bids = rng.integers(0, 200, size=n).astype(np.int64)
    paying = rng.integers(0, 150, size=n).astype(np.int64)
    floor = rng.integers(0, 60, size=n).astype(np.int64)

    def args(m):
        return bids[:m], paying[:m], floor[:m], np.int64(paying[:m].sum() // 8)

    compare(rows, "win_scan (n=1e6)", kernels.win_scan_loop, kernels.win_scan_numpy,
            args, n, lambda a, b: np.array_equal(a[0], b[0]) and a[1:] == b[1:])


def bench_sgd_epoch(rows):
    n, dim, active = 200_000, 200, 16
    rng = np.random.default_rng(1)
    indices = rng.integers(1, dim, size=n * active).astype(np.int32)
    labels = (rng.random(n) < 0.01).astype(np.float64)
    order = rng.permutation(n).astype(np.int64)

    def args(m):
        indptr = np.arange(0, m * active + 1, active, dtype=np.int64)
        return indptr, indices[:m * active], labels[:m], order[order < m]

    def epoch(fn, operand):
        # A one-epoch fit: the operands in the form fn reads, made as
        # train_lr makes them, then the epoch, which updates v in place.
        def run(indptr, indices, labels, order):
            ops = [operand(a) for a in (indptr, indices, labels, np.zeros(dim - 1))]
            return fn(*ops, order, 0.0, 1.0, 0, 0.05, 1e-6), np.asarray(ops[3])
        return run

    compare(rows, "sgd_epoch (n=2e5, 16 active)", epoch(kernels.sgd_epoch_loop, np.asarray),
            epoch(kernels.sgd_epoch_python, np.ndarray.tolist), args, n,
            lambda a, b: a[0] == b[0] and np.array_equal(a[1], b[1]), repeats=1)


def bench_grow_tree(rows):
    # The shape GBRT trains on in perfbench's paper_pipeline: a densified
    # 3000-case campaign, whose 27 columns hold few distinct values each.
    train, _, _ = synthgen.generate(synthgen.SynthConfig(seed=1, n_train=3000, n_test=10,
                                                         base_ctr=0.1))
    xd, yd = features.densify_cases(train, features.build_encodings(features.encoding_split(train)))
    hyper = models.GbrtHyper()

    def dense_args(m):
        return (xd[:m], *kernels.bin_columns(xd[:m]), yd[:m] - yd[:m].mean(),
                hyper.min_leaf, hyper.max_depth)

    compare(rows, f"grow_tree (densified n=3000, {xd.shape[1]} feat, depth 5)",
            kernels.grow_tree_loop, kernels.grow_tree_numpy, dense_args, len(yd), same_arrays)

    # Continuous columns: almost every position is a candidate threshold.
    n, nfeat = 100_000, 15
    rng = np.random.default_rng(2)
    x = rng.normal(size=(n, nfeat))
    resid = rng.normal(size=n)

    def args(m):
        return x[:m], *kernels.bin_columns(x[:m]), resid[:m], 20, 5

    compare(rows, "grow_tree (continuous n=1e5, 15 feat, depth 5)", kernels.grow_tree_loop,
            kernels.grow_tree_numpy, args, n, same_arrays, repeats=3)


def bench_apply_forest(rows, one_row):
    """A 50-tree GBRT ensemble on one row and on 1e5 rows: apply_forest's two
    forms.  Then one impression as ``models.predict`` scores it, with the
    one-row scorer that its first vector builds, against ``models.predict``
    on a one-row batch."""
    n, nfeat = 100_000, 15
    rng = np.random.default_rng(3)
    x = rng.normal(size=(n, nfeat))
    y = (rng.random(5000) < 1.0 / (1.0 + np.exp(-x[:5000, :3].sum(axis=1)))).astype(np.float64)
    model = models.train_gbrt(x[:5000], y, models.GbrtHyper(rounds=50))
    f = model.forest
    packed = (f.feature, f.threshold, f.left, f.right, f.value, f.roots, model.base,
              model.hyper.shrinkage)

    shape = f"{len(f.roots)} trees, depth {model.hyper.max_depth}"
    for label, rows_in, repeats in (("n=1", 1, 200), ("n=1e5", n, 1)):
        compare(rows, f"apply_forest ({shape}, {label})", kernels.apply_forest_loop,
                kernels.apply_forest_numpy, lambda m: (x[:m], *packed), rows_in, np.array_equal,
                repeats=repeats)

    score = kernels.forest_row_scorer(*packed)
    assert [score(row) for row in x[:1000]] == kernels.apply_forest(x[:1000], *packed).tolist()
    vectors = [models.predict(model, row) for row in x[:1000]]  # the first builds the scorer
    assert vectors == models.predict(model, x[:1000]).tolist()
    t_vector, _ = timeit(models.predict, model, x[0], repeats=200)
    t_batch, _ = timeit(models.predict, model, x[:1], repeats=200)
    one_row.append((f"{shape}, one row", t_vector, t_batch))


def print_table(title, head, rows):
    width = max(len(r[0]) for r in rows)
    print(f"\n{title:<{width}}  {head[0]:>10}  {head[1]:>10}  {'speedup':>8}")
    for name, fast, slow in rows:
        if fast is None:
            print(f"{name:<{width}}  {'n/a':>10}  {slow * 1e3:>8.3f}ms  {'n/a':>8}")
        else:
            print(f"{name:<{width}}  {fast * 1e3:>8.3f}ms  {slow * 1e3:>8.3f}ms  {slow / fast:>7.1f}x")


def main() -> None:
    backend = "numba" if kernels.HAVE_NUMBA else "python (numba unavailable)"
    print(f"loop backend: {backend}; fallback: numpy/python")
    kernels.warmup()
    rows: list[tuple[str, float, float]] = []
    bench_win_scan(rows)
    bench_sgd_epoch(rows)
    bench_grow_tree(rows)
    one_row: list[tuple[str, float, float]] = []
    bench_apply_forest(rows, one_row)
    print_table("kernel", ("loop", "fallback"), rows)
    print_table("models.predict", ("vector", "batch"), one_row)


if __name__ == "__main__":
    main()
