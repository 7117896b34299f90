#!/usr/bin/env python3
"""Timings of the njit kernels against their pure-numpy/python fallbacks.

Run:  python3 benchmarks/bench_kernels.py

The two backends are bit-identical (see tests/test_kernels.py); this
script only measures the speed gap that RTBSIM_NO_NUMBA trades away.  A
second table compares scoring a GBRT ensemble with one apply_forest call
against one apply_tree call per tree, and a third scoring one row with
apply_forest_row against apply_forest.  Without numba the loop forms run as
plain Python, minutes at these sizes, so they are only checked against the
fallbacks on a slice and their times print as n/a.
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


def presort(x):
    """grow_tree's presorted operands: each column's row ids in ascending
    order and their values, which train_gbrt gathers once per model."""
    sorted_ids = np.argsort(x, axis=0, kind="stable").T.copy()
    return sorted_ids, np.take_along_axis(x.T, sorted_ids, axis=1)


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

    def epoch(fn):
        # The epoch updates v in place; return it with the scalars it yields.
        def run(indptr, indices, labels, order):
            v = np.zeros(dim - 1)
            return fn(indptr, indices, labels, v, order, 0.0, 1.0, 0, 0.05, 1e-6), v
        return run

    compare(rows, "sgd_epoch (n=2e5, 16 active)", epoch(kernels.sgd_epoch_loop),
            epoch(kernels.sgd_epoch_python), args, n,
            lambda a, b: a[0] == b[0] and np.array_equal(a[1], b[1]), repeats=1)


def bench_grow_tree(rows):
    # The shape GBRT trains on in perfbench's paper_pipeline: a densified
    # 3000-case campaign, whose 27 columns hold few distinct values each.
    train, _, _ = synthgen.generate(synthgen.SynthConfig(seed=1, n_train=3000, n_test=10,
                                                         base_ctr=0.1))
    xd, yd = features.densify_cases(train, features.build_encodings(features.encoding_split(train)))
    hyper = models.GbrtHyper()

    def dense_args(m):
        return (xd[:m], *presort(xd[:m]), yd[:m] - yd[:m].mean(), hyper.min_leaf, hyper.max_depth)

    compare(rows, f"grow_tree (densified n=3000, {xd.shape[1]} feat, depth 5)",
            kernels.grow_tree_loop, kernels.grow_tree_numpy, dense_args, len(yd), same_arrays)

    # Continuous columns: almost every position is a candidate threshold.
    n, nfeat = 100_000, 15
    rng = np.random.default_rng(2)
    x = rng.normal(size=(n, nfeat))
    resid = rng.normal(size=n)

    def args(m):
        return x[:m], *presort(x[:m]), resid[:m], 20, 5

    tree = compare(rows, "grow_tree (continuous n=1e5, 15 feat, depth 5)", kernels.grow_tree_loop,
                   kernels.grow_tree_numpy, args, n, same_arrays, repeats=3)
    compare(rows, "apply_tree (n=1e5)", kernels.apply_tree_loop, kernels.apply_tree_numpy,
            lambda m: (x[:m], *tree), n, np.array_equal)


def bench_apply_forest(rows, vs_per_tree, one_row):
    """A 50-tree GBRT ensemble on one row and on 1e5 rows: apply_forest's two
    forms, and the dispatched apply_forest against one apply_tree call per
    tree, the way GBRT predictions were made before the forest kernel.  Then
    one impression as ``models.predict`` scores it, the dispatched row walk
    over the nodes packed once, against apply_forest on a one-row batch."""
    n, nfeat = 100_000, 15
    rng = np.random.default_rng(3)
    x = rng.normal(size=(n, nfeat))
    y = (rng.random(5000) < 1.0 / (1.0 + np.exp(-x[:5000, :3].sum(axis=1)))).astype(np.float64)
    model = models.train_gbrt(x[:5000], y, models.GbrtHyper(rounds=50))
    f = model.forest
    packed = (f.feature, f.threshold, f.left, f.right, f.value, f.roots, model.base,
              model.hyper.shrinkage)

    def per_tree(xs):
        total = np.full(xs.shape[0], model.base)
        for t in model.trees:
            total += model.hyper.shrinkage * kernels.apply_tree(
                xs, t.feature, t.threshold, t.left, t.right, t.value)
        return total

    for label, rows_in, repeats in (("n=1", 1, 200), ("n=1e5", n, 1)):
        name = f"apply_forest ({len(model.trees)} trees, depth {model.hyper.max_depth}, {label})"
        o2 = compare(rows, name, kernels.apply_forest_loop, kernels.apply_forest_numpy,
                     lambda m: (x[:m], *packed), rows_in, np.array_equal, repeats=repeats)
        xs = x[:rows_in]
        t_tree, o3 = timeit(per_tree, xs, repeats=repeats)
        t_forest, o4 = timeit(kernels.apply_forest, xs, *packed, repeats=repeats)
        assert np.array_equal(o3, o4) and np.array_equal(o4, o2)
        vs_per_tree.append((name, t_forest, t_tree))

    def walk(row):
        return kernels.apply_forest_row(kernels.row_operand(row), *f.nodes, model.base,
                                        model.hyper.shrinkage)

    assert [walk(row) for row in x[:1000]] == kernels.apply_forest(x[:1000], *packed).tolist()
    t_walk, _ = timeit(walk, x[0], repeats=200)
    t_batch, _ = timeit(kernels.apply_forest, x[:1], *packed, repeats=200)
    one_row.append((f"{len(model.trees)} trees, depth {model.hyper.max_depth}, one row", t_walk, t_batch))


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
    vs_per_tree: list[tuple[str, float, float]] = []
    one_row: list[tuple[str, float, float]] = []
    bench_apply_forest(rows, vs_per_tree, one_row)
    print_table("kernel", ("loop", "fallback"), rows)
    active = "loop" if kernels.NUMBA_ENABLED else "fallback"
    print_table(f"forest vs per tree ({active})", ("forest", "per tree"), vs_per_tree)
    print_table(f"row walk ({active})", ("row walk", "forest"), one_row)


if __name__ == "__main__":
    main()
