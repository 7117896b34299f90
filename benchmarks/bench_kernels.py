#!/usr/bin/env python3
"""Timings of the njit kernels against their pure-numpy/python fallbacks.

Run:  python3 benchmarks/bench_kernels.py

The two backends are bit-identical (see tests/test_kernels.py); this
script only measures the speed gap that RTBSIM_NO_NUMBA trades away.  A
second table compares scoring a GBRT ensemble with one apply_forest call
against one apply_tree call per tree.
"""

from __future__ import annotations

import time

import numpy as np

from rtbsim import kernels, models


def timeit(fn, *args, repeats=5):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_win_scan(rows):
    n = 1_000_000
    rng = np.random.default_rng(0)
    bids = rng.integers(0, 200, size=n).astype(np.int64)
    paying = rng.integers(0, 150, size=n).astype(np.int64)
    floor = rng.integers(0, 60, size=n).astype(np.int64)
    budget = np.int64(paying.sum() // 8)
    t_fast, out_fast = timeit(kernels.win_scan_loop, bids, paying, floor, budget)
    t_slow, out_slow = timeit(kernels.win_scan_numpy, bids, paying, floor, budget)
    assert np.array_equal(out_fast[0], out_slow[0]) and out_fast[1:] == out_slow[1:]
    rows.append(("win_scan (n=1e6)", t_fast, t_slow))


def bench_sgd_epoch(rows):
    n, dim, active = 200_000, 200, 16
    rng = np.random.default_rng(1)
    indices = rng.integers(1, dim, size=n * active).astype(np.int32)
    indptr = np.arange(0, n * active + 1, active, dtype=np.int64)
    labels = (rng.random(n) < 0.01).astype(np.float64)
    order = rng.permutation(n).astype(np.int64)

    v1 = np.zeros(dim - 1)
    t_fast, out_fast = timeit(kernels.sgd_epoch_loop, indptr, indices, labels, v1,
                              order, 0.0, 1.0, 0, 0.05, 1e-6, repeats=1)
    v2 = np.zeros(dim - 1)
    t_slow, out_slow = timeit(kernels.sgd_epoch_python, indptr, indices, labels, v2,
                              order, 0.0, 1.0, 0, 0.05, 1e-6, repeats=1)
    assert out_fast == out_slow and np.array_equal(v1, v2)
    rows.append(("sgd_epoch (n=2e5, 16 active)", t_fast, t_slow))


def bench_grow_tree(rows):
    n, nfeat = 100_000, 15
    rng = np.random.default_rng(2)
    x = rng.normal(size=(n, nfeat))
    resid = rng.normal(size=n)
    sorted_ids = np.argsort(x, axis=0, kind="stable").T.copy()
    t_fast, out_fast = timeit(kernels.grow_tree_loop, x, sorted_ids, resid, 20, 5, repeats=3)
    t_slow, out_slow = timeit(kernels.grow_tree_numpy, x, sorted_ids, resid, 20, 5, repeats=1)
    for a, b in zip(out_fast, out_slow):
        assert np.array_equal(a, b)
    rows.append(("grow_tree (n=1e5, 15 feat, depth 5)", t_fast, t_slow))

    tree = out_fast
    t_fast, o1 = timeit(kernels.apply_tree_loop, x, *tree)
    t_slow, o2 = timeit(kernels.apply_tree_numpy, x, *tree)
    assert np.array_equal(o1, o2)
    rows.append(("apply_tree (n=1e5)", t_fast, t_slow))


def bench_apply_forest(rows, vs_per_tree):
    """A 50-tree GBRT ensemble on one row and on 1e5 rows: apply_forest's two
    forms, and the dispatched apply_forest against one apply_tree call per
    tree, the way GBRT predictions were made before the forest kernel."""
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

    for label, xs, repeats in (("n=1", x[:1], 200), ("n=1e5", x, 1)):
        name = f"apply_forest ({len(model.trees)} trees, depth {f.depth}, {label})"
        t_fast, o1 = timeit(kernels.apply_forest_loop, xs, *packed, repeats=repeats)
        t_slow, o2 = timeit(kernels.apply_forest_numpy, xs, *packed, repeats=repeats)
        assert np.array_equal(o1, o2)
        rows.append((name, t_fast, t_slow))
        t_tree, o3 = timeit(per_tree, xs, repeats=repeats)
        t_forest, o4 = timeit(kernels.apply_forest, xs, *packed, repeats=repeats)
        assert np.array_equal(o3, o4) and np.array_equal(o4, o1)
        vs_per_tree.append((name, t_forest, t_tree))


def print_table(title, head, rows):
    width = max(len(r[0]) for r in rows)
    print(f"\n{title:<{width}}  {head[0]:>10}  {head[1]:>10}  {'speedup':>8}")
    for name, fast, slow in rows:
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
    bench_apply_forest(rows, vs_per_tree)
    print_table("kernel", ("loop", "fallback"), rows)
    active = "loop" if kernels.NUMBA_ENABLED else "fallback"
    print_table(f"forest vs per tree ({active})", ("forest", "per tree"), vs_per_tree)


if __name__ == "__main__":
    main()
