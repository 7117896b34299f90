"""The kernels against the straight-line references of ``oracles.py``: the
win scan, the SGD epoch, tree growth and forest scoring, bit for bit."""

from __future__ import annotations

import importlib.util
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rtbsim import features, kernels, models, synthgen
from rtbsim.bidding import RandBid, compute_bid

from conftest import make_case
from oracles import (reference_grow_tree, reference_node_splits, reference_sgd_epoch,
                     reference_simulate, reference_tree_leaves, reference_value_sums,
                     reference_win_scan)


def random_auction_arrays(rng, n):
    bids = rng.integers(0, 200, size=n).astype(np.int64)
    paying = rng.integers(0, 150, size=n).astype(np.int64)
    floor = rng.integers(0, 60, size=n).astype(np.int64)
    return bids, paying, floor


class TestWinScan:
    @pytest.mark.parametrize("budget", [0, 1, 500, 10_000, 10 ** 12])
    def test_backends_agree(self, budget):
        # The kernel and the straight-line scan agree on the wins, the spend
        # and the exhaustion index.
        rng = np.random.default_rng(budget % 97)
        for n in (1, 7, 500):
            bids, paying, floor = random_auction_arrays(rng, n)
            win, spent, exhausted = kernels.win_scan(bids, paying, floor, np.int64(budget))
            assert (win.tolist(), spent, exhausted) == reference_win_scan(
                *lists(bids, paying, floor), budget)

    @pytest.mark.parametrize("seed", range(6))
    def test_forms_match_reference_simulate(self, seed):
        # Random cases replayed by the straight-line oracle: the kernel wins
        # the same cases (wins and clicks) and spends the same, from a zero
        # budget to one above the total paying price.
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 150))
        paying = rng.integers(0, 150, size=n).astype(np.int64)
        floor = rng.integers(0, 60, size=n).astype(np.int64)
        clicked = rng.random(n) < 0.3
        cases = [make_case(paying=int(p), floor=int(f), clicked=bool(c))
                 for p, f, c in zip(paying, floor, clicked)]
        strategy = RandBid(upper=200, seed=seed)
        stream = strategy.stream()
        bids = np.array([compute_bid(strategy, rng=stream) for _ in cases], dtype=np.int64)
        total = int(paying.sum())
        for budget in (0, 1, int(rng.integers(0, total + 1)), total, total + 1, 10 * total + 7):
            wins, clicks, _, spent = reference_simulate(cases, strategy, budget)
            win, got_spent, _ = kernels.win_scan(bids, paying, floor, np.int64(budget))
            won = win.astype(bool)
            assert (int(won.sum()), int((won & clicked).sum()), int(got_spent)) == \
                (wins, clicks, spent), budget

    def test_many_seeds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            bids, paying, floor = random_auction_arrays(rng, n)
            budget = int(rng.integers(0, int(paying.sum()) + 2))
            win, spent, exhausted = kernels.win_scan(bids, paying, floor, np.int64(budget))
            assert (win.tolist(), spent, exhausted) == reference_win_scan(
                *lists(bids, paying, floor), budget)

    @staticmethod
    def _rand_block(rng, n, rows):
        """n cases and a (rows, n) block of RandBid rows, row r a RandBid of
        seed r.  Prices, floors and bids lie in 0..6, so bids equal to a
        paying or a floor price are common."""
        paying = rng.integers(0, 7, size=n).astype(np.int64)
        floor = rng.integers(0, 7, size=n).astype(np.int64)
        clicked = rng.random(n) < 0.3
        converted = clicked & (rng.random(n) < 0.5)
        cases = [make_case(paying=int(p), floor=int(f), clicked=bool(c), converted=bool(v))
                 for p, f, c, v in zip(paying, floor, clicked, converted)]
        strategies = [RandBid(upper=int(rng.integers(0, 8)), seed=r) for r in range(rows)]
        bids = np.zeros((rows, n), dtype=np.int64)
        for row, strategy in zip(bids, strategies):
            stream = strategy.stream()
            row[:] = [compute_bid(strategy, rng=stream) for _ in range(n)]
        return cases, strategies, bids, paying, floor, clicked, converted

    @pytest.mark.parametrize("n", [0, 1, 60])
    def test_each_row_of_a_block_is_its_own_scan(self, n):
        # Each row of a 2-D block equals the 1-D scan of that row and the
        # straight-line oracles.
        rows = 7
        rng = np.random.default_rng(300 + n)
        cases, strategies, bids, paying, floor, clicked, converted = self._rand_block(rng, n, rows)
        if n == 60:
            assert ((bids == paying) & (paying >= floor)).any()
            assert ((bids == floor) & (floor > paying)).any()
        total = int(paying.sum())
        for budget in (0, 1, total, total + 1):
            win, spent, exhausted = kernels.win_scan(bids, paying, floor, np.int64(budget))
            assert win.shape == (rows, n) and win.dtype == np.uint8
            assert spent.shape == exhausted.shape == (rows,)
            for r, strategy in enumerate(strategies):
                one = kernels.win_scan(bids[r], paying, floor, np.int64(budget))
                assert np.array_equal(win[r], one[0]) and (spent[r], exhausted[r]) == one[1:]
                assert (win[r].tolist(), spent[r], exhausted[r]) == reference_win_scan(
                    *lists(bids[r], paying, floor), budget)
                won = win[r].astype(bool)
                got = (int(won.sum()), int((won & clicked).sum()), int((won & converted).sum()),
                       int(spent[r]))
                assert got == reference_simulate(cases, strategy, budget), (budget, r)

    def test_a_broadcast_column_of_bids(self):
        # tune's Const block: a column of prices broadcast over the cases
        # (read-only, stride 0) scans as the same block written out.
        rng = np.random.default_rng(5)
        _, paying, floor = random_auction_arrays(rng, 300)
        prices = np.array([0, 20, 90, 150, 400], dtype=np.int64)
        column = np.broadcast_to(prices[:, None], (5, 300))
        budget = np.int64(paying.sum() // 4)
        got = kernels.win_scan(column, paying, floor, budget)
        want = kernels.win_scan(column.copy(), paying, floor, budget)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def lists(*arrays):
    """The plain-list copies of arrays, as the SGD kernel and the
    straight-line references read them."""
    return [a.tolist() for a in arrays]


class TestSgdEpoch:
    @pytest.mark.parametrize("lam", [0.0, 1e-6, 1e-2, 1e6])
    def test_list_form_matches_array_body_over_epochs(self, lam):
        # The kernel over list copies made once, as train_lr makes them,
        # against the reference epoch over the arrays, with (w0, s, t) and
        # the weights carried from each epoch into the next.
        rng = np.random.default_rng(6)
        n, dim, lr0 = 300, 20, 0.1
        rows = [np.sort(rng.choice(np.arange(1, dim), size=int(rng.integers(0, 7)), replace=False))
                for _ in range(n)]
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(r) for r in rows])
        indices = np.concatenate(rows).astype(np.int32)
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        assert (np.diff(indptr) == 0).any()  # empty rows touch only the bias
        operands = {"array": (indptr, indices, labels, np.zeros(dim - 1)),
                    "list": (*lists(indptr, indices, labels), [0.0] * (dim - 1))}
        forms = {"array": reference_sgd_epoch, "list": kernels.sgd_epoch}
        state = {name: (0.0, 1.0, 0) for name in forms}
        for _ in range(4):
            order = rng.permutation(n).astype(np.int64)
            for name, epoch in forms.items():
                state[name] = epoch(*operands[name], order, *state[name], lr0, lam)
            for name in forms:
                assert state[name] == state["array"]
                assert list(operands[name][3]) == operands["array"][3].tolist()
        assert state["array"][2] == 4 * n and np.isfinite(operands["list"][3]).all()
        if lam == 1e6:
            # The same shrinks without the rescale branch fall below 1e-130
            # (to 0.0), so a scale still at or above it was reset on the way.
            plain = 1.0
            for t in range(1, 4 * n + 1):
                plain /= 1.0 + lr0 / math.sqrt(t) * lam
            assert plain < 1e-130 <= state["list"][1]


class TestGrowTree:
    def _random_problem(self, rng, n, nfeat, discrete=False):
        if discrete:
            x = rng.integers(0, 6, size=(n, nfeat)).astype(np.float64)
        else:
            x = rng.normal(size=(n, nfeat))
        resid = rng.normal(size=n)
        return x, kernels.bin_columns(x), resid

    @pytest.mark.parametrize("discrete", [False, True])
    def test_backends_agree(self, discrete):
        rng = np.random.default_rng(3 if discrete else 4)
        for _ in range(20):
            n = int(rng.integers(10, 400))
            nfeat = int(rng.integers(1, 6))
            x, binned, resid = self._random_problem(rng, n, nfeat, discrete)
            min_leaf = int(rng.integers(1, 5))
            depth = int(rng.integers(1, 5))
            got = kernels.grow_tree(x, *binned, resid, min_leaf, depth)
            for a, b in zip(got, reference_grow_tree(x, resid, min_leaf, depth)):
                assert np.array_equal(a, b)

    def test_backends_agree_on_near_ties(self):
        # Columns 1 and 2 split the rows into the same two sets at every
        # value, so their scores tie in exact arithmetic and the last bits of
        # the per-bin sums pick the winner: the kernel must fill the child of
        # each pair that the sum rule names and give each cell its sum.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 240))
            v = rng.integers(0, 6, n).astype(np.float64)
            x = np.c_[rng.integers(0, 3, n), v, 5.0 - v, rng.integers(0, 4, n)]
            resid = np.round(rng.normal(size=n), 1) if seed % 2 else v / 7 + rng.normal(size=n)
            self._same(x, resid, int(rng.integers(1, 5)), 5)

    @staticmethod
    def _same(x, resid, min_leaf, max_depth):
        """The kernel grows the reference tree bit for bit; returns it."""
        x = np.asarray(x, dtype=np.float64).reshape(len(resid), -1)
        resid = np.asarray(resid, dtype=np.float64)
        got = kernels.grow_tree(x, *kernels.bin_columns(x), resid, min_leaf, max_depth)
        for a, b in zip(got, reference_grow_tree(x, resid, min_leaf, max_depth)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        return got

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    def test_rows_exactly_twice_min_leaf(self, min_leaf):
        # One candidate position: k = min_leaf - 1, the middle of the node.
        n = 2 * min_leaf
        feat, thr, *_ = self._same(np.arange(n), np.r_[np.zeros(min_leaf), np.ones(min_leaf)],
                                   min_leaf, 3)
        assert feat[0] == 0 and thr[0] == min_leaf - 0.5

    def test_value_changes_only_outside_leaf_bounds(self):
        # n = 20, min_leaf = 5: values that change after 4 and after 16 rows
        # leave 4 rows on one side, so no split is legal; after 5 and after
        # 15 rows both splits are legal.
        resid = np.r_[np.ones(10), -np.ones(10)]
        outside = np.r_[np.zeros(4), np.ones(12), 2 * np.ones(4)]
        assert len(self._same(outside, resid, 5, 3)[0]) == 1
        edges = np.r_[np.zeros(5), np.ones(10), 2 * np.ones(5)]
        feat, thr, *_ = self._same(np.c_[outside, edges], resid, 5, 3)
        assert feat[0] == 1 and thr[0] in (0.5, 1.5)

    def test_constant_columns(self):
        rng = np.random.default_rng(11)
        resid = rng.normal(size=60)
        x = np.c_[np.full(60, 3.0), rng.integers(0, 4, 60), np.zeros(60)]
        feat = self._same(x, resid, 2, 4)[0]
        assert set(feat[feat >= 0]) == {1}
        for x in (np.full((60, 3), 7.0), np.zeros((60, 0))):  # no column to split on
            tree = self._same(x, resid, 2, 4)
            assert len(tree[0]) == 1 and tree[4][0] == pytest.approx(resid.mean())

    def test_duplicated_column_lowest_feature_wins(self):
        rng = np.random.default_rng(12)
        col = rng.integers(0, 5, 80).astype(np.float64)
        x = np.c_[np.zeros(80), col, col, col]
        feat = self._same(x, col + rng.normal(size=80) * 0.1, 3, 4)[0]
        assert feat[0] == 1 and set(feat[feat >= 0]) <= {1}

    @pytest.mark.parametrize("max_depth", [0, 1])
    def test_shallow_trees(self, max_depth):
        rng = np.random.default_rng(13)
        x = rng.integers(0, 6, size=(50, 3))
        left = self._same(x, rng.normal(size=50), 2, max_depth)[2]
        assert len(left) == 2 * max_depth + 1

    @pytest.mark.parametrize("discrete", [False, True])
    def test_min_leaf_one(self, discrete):
        rng = np.random.default_rng(14)
        x = rng.integers(0, 3, size=(40, 4)) if discrete else rng.normal(size=(40, 4))
        self._same(x, rng.normal(size=40), 1, 6)

    def test_node_of_is_each_rows_leaf(self):
        # The leaves boosting adds: each row's leaf, also for a tree that is
        # only its root
        rng = np.random.default_rng(6)
        x, binned, resid = self._random_problem(rng, 300, 4)
        for min_leaf in (2, 200):  # a deep tree, then a root-only one
            *tree, node_of = kernels.grow_tree(x, *binned, resid, min_leaf, 4)
            assert (len(tree[0]) > 1) == (min_leaf == 2)
            leaves = reference_tree_leaves(x, *tree)
            assert np.array_equal(kernels.apply_tree(node_of, tree[4]), leaves)
            assert np.array_equal(node_of, reference_grow_tree(x, resid, min_leaf, 4)[5])

    @pytest.mark.parametrize("a, b", [(1e308, 1.7e308), (-1.7e308, -1e308), (1 + 2**-52, 1 + 2**-51)],
                             ids=["overflow", "negative-overflow", "adjacent"])
    def test_threshold_below_the_right_value(self, tmp_path, a, b):
        # The midpoint of a and b overflows or rounds to b, where every row
        # would go left; the threshold is a, so each value keeps its side.
        x = np.r_[np.full(10, a), np.full(10, b)].reshape(-1, 1)
        y = np.r_[np.zeros(10), np.ones(10)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._same(x, y - 0.5, 2, 1)[1][0] == a
            model = models.train_gbrt(x, y, models.GbrtHyper(rounds=1, max_depth=1, min_leaf=2))
            scores = models.predict(model, x)
        f = model.forest
        assert f.threshold[0] == a
        assert np.isfinite(f.threshold).all() and np.isfinite(f.value).all()
        assert scores[0] < scores[-1] and len(set(scores[:10])) == len(set(scores[10:])) == 1
        models.save_gbrt(model, tmp_path / "gb.txt")
        loaded = models.load_gbrt(tmp_path / "gb.txt")
        models.save_gbrt(loaded, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == (tmp_path / "gb.txt").read_bytes()
        assert np.array_equal(models.predict(loaded, x), scores)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(7)
        x, binned, resid = self._random_problem(rng, 100, 3)
        for min_leaf in (1, 10, 30):
            feat, thr, left, right, value, node_of = kernels.grow_tree(x, *binned, resid,
                                                                       min_leaf, 5)
            counts = np.zeros(len(feat), dtype=int)
            node = np.zeros(100, dtype=int)
            for i in range(100):
                nd = 0
                while left[nd] >= 0:
                    nd = left[nd] if x[i, feat[nd]] <= thr[nd] else right[nd]
                counts[nd] += 1
                node[i] = nd
            leaf_counts = counts[left[:len(feat)] < 0]
            assert leaf_counts.min() >= min_leaf
            assert np.array_equal(node, node_of)

    def test_node_arrays_sized_by_rows(self):
        # A tree of n rows has at most n // min_leaf leaves, so 2 * (n //
        # min_leaf) - 1 nodes.  At max_depth 20 this tree reaches depth 20
        # with 325 nodes; arrays for a full tree of that depth, 2**21 - 1
        # nodes, took 128 MiB here.
        rng = np.random.default_rng(15)
        x = np.c_[rng.normal(size=600), rng.integers(0, 8, size=(600, 2))]
        resid = rng.normal(size=600)
        binned = kernels.bin_columns(x)
        tracemalloc.start()
        try:
            kernels.grow_tree(x, *binned, resid, 3, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        assert TestSplitOracle._agree(x, resid, 3, 20) > 0
        left, right = self._same(x, resid, 3, 20)[2:4]
        depth = np.zeros(len(left), dtype=int)
        for nd in np.flatnonzero(left >= 0):
            depth[[left[nd], right[nd]]] = depth[nd] + 1
        assert depth.max() == 20 and len(left) <= 2 * (600 // 3) - 1

    def test_each_level_fills_only_the_smaller_children(self, monkeypatch):
        # The root fills its sums from every row and takes its counts from
        # bin_columns; each later level reads only the rows of the smaller
        # child of each split (the left one on equal rows), at most half the
        # rows of the nodes just split.
        fills = []
        fill = kernels._fill

        def spy(bins, weights, rows, slot, k, nbins, counts=True):
            fills.append((np.arange(bins.shape[1]) if rows is None else rows.copy(), counts))
            return fill(bins, weights, rows, slot, k, nbins, counts)

        monkeypatch.setattr(kernels, "_fill", spy)
        rng = np.random.default_rng(16)
        x, binned, resid = self._random_problem(rng, 500, 4, discrete=True)
        feat, thr, left, right, *_ = kernels.grow_tree(x, *binned, resid, 5, 5)
        level, levels = {0: np.arange(500)}, []
        while level:  # each level's (left, right) children and their rows
            nxt = {}
            for nd, rows in level.items():
                if left[nd] >= 0:
                    go = x[rows, feat[nd]] <= thr[nd]
                    nxt[left[nd]], nxt[right[nd]] = rows[go], rows[~go]
            levels.append(sorted(nxt.items()))
            level = nxt
        assert len(fills[0][0]) == 500 and not fills[0][1]
        assert len(fills) == len([lv for lv in levels if lv]) == 5  # every level searched
        for (read, counts), children in zip(fills[1:], levels):
            smaller = [min(a, b, key=len) for (_, a), (_, b) in zip(children[::2], children[1::2])]
            assert counts and read.tolist() == sorted(np.concatenate(smaller).tolist())
            assert len(read) <= sum(len(rows) for _, rows in children) // 2
        # Each split of this tree halves its node, so each level fills the
        # left child of every pair.
        fills.clear()
        x = np.repeat(np.arange(8.0), 32).reshape(-1, 1)
        resid = 4.0 * (x[:, 0] >= 4) + 2.0 * (x[:, 0] % 4 >= 2) + (x[:, 0] % 2 >= 1)
        thr = kernels.grow_tree(x, *kernels.bin_columns(x), resid, 1, 3)[1]
        assert thr.tolist() == [3.5, 1.5, 5.5, 0.5, 2.5, 4.5, 6.5] + [0.0] * 8
        assert [r.tolist() for r, _ in fills[1:]] == [list(range(128)),
                                                      list(range(64)) + list(range(128, 192))]

    def test_root_counts_once_per_model(self, monkeypatch):
        # train_gbrt bins the columns, and so counts the root's rows, once
        # for all its trees; no tree counts the root again.
        binnings, root_fills = [], []
        bin_columns, fill = kernels.bin_columns, kernels._fill

        def bin_spy(x):
            binnings.append(x.shape)
            return bin_columns(x)

        def fill_spy(bins, weights, rows, slot, k, nbins, counts=True):
            if rows is None:
                root_fills.append(counts)
            return fill(bins, weights, rows, slot, k, nbins, counts)

        monkeypatch.setattr(kernels, "bin_columns", bin_spy)
        monkeypatch.setattr(kernels, "_fill", fill_spy)
        rng = np.random.default_rng(17)
        x = rng.integers(0, 5, size=(300, 3)).astype(np.float64)
        y = (rng.random(300) < 0.3).astype(np.float64)
        models.train_gbrt(x, y, models.GbrtHyper(rounds=4, min_leaf=5))
        assert binnings == [(300, 3)] and root_fills == [False] * 4

    def test_continuous_columns_peak_memory(self):
        # Histograms of columns whose values are all distinct hold about
        # n * nfeat cells a node, so a level's nodes go in chunks.  One call
        # peaks near 23 MiB here; presorted per-node blocks take 21 MiB on
        # this input, and a whole level's histograms at once 355 MiB.
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20_000, 15))
        resid = rng.normal(size=20_000)
        binned = kernels.bin_columns(x)
        tracemalloc.start()
        try:
            kernels.grow_tree(x, *binned, resid, 20, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_continuous_columns_match_the_reference(self):
        # Fifteen columns of distinct values: each level below the root
        # outgrows n * nfeat cells, so it is filled directly, its nodes in
        # chunks, and almost every position is a candidate threshold.
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1500, 15))
        resid = np.sin(3 * x[:, 0]) + x[:, 4] * x[:, 7] + rng.normal(size=1500)
        feat = self._same(x, resid, 20, 5)[0]
        assert (feat >= 0).sum() > 15


class TestSplitOracle:
    """The grower takes the brute-force oracle's split at every node: the
    same feature and threshold where it splits, and no split where the
    oracle finds none above the node's own score, short of the depth limit;
    so it grows the reference tree."""

    @staticmethod
    def _agree(x, resid, min_leaf, max_depth):
        splits = 0
        tree = kernels.grow_tree(x, *kernels.bin_columns(x), resid, min_leaf, max_depth)
        assert all(np.array_equal(a, b) for a, b in zip(
            tree, reference_grow_tree(x, resid, min_leaf, max_depth)))
        feat, thr, left, right, _, _ = tree
        want = reference_node_splits(x, resid, min_leaf, max_depth, feat, thr, left, right)
        assert sorted(want) == list(range(len(feat)))
        for nd, choice in want.items():
            if left[nd] < 0:
                assert choice is None, nd
                continue
            assert choice == (feat[nd], thr[nd]), nd
            splits += 1
        return splits

    @pytest.mark.parametrize("seed", range(4))
    def test_random_columns(self, seed):
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(30, 300))
        x = np.c_[rng.normal(size=(n, 2)), rng.integers(0, 5, size=(n, 2))]
        x = np.c_[x, x[:, 3]]  # a duplicated column: ties between features
        resid = rng.normal(size=n)
        if seed % 2:
            resid = np.round(resid)  # ties between scores
        assert self._agree(x, resid, int(rng.integers(1, 6)), 4) > 0

    @pytest.mark.parametrize("a, b", [(1e308, 1.7e308), (1 + 2**-52, 1 + 2**-51), (-1.0, 2.0)],
                             ids=["overflow", "adjacent", "midpoint"])
    def test_threshold_rule(self, a, b):
        x = np.r_[np.full(10, a), np.full(10, b)].reshape(-1, 1)
        assert self._agree(x, np.r_[np.zeros(10), np.ones(10)] - 0.5, 2, 1) == 1

    def test_mirrored_columns(self):
        # Columns 1 and 2 split the rows into the same two sets at every
        # value, in opposite value orders, so their scores are equal in exact
        # arithmetic; the sum rule's float sums pick the winner.
        rng = np.random.default_rng(44)
        v = rng.integers(0, 6, 240).astype(np.float64)
        x = np.c_[rng.integers(0, 3, 240), v, 5.0 - v]
        for resid in (v / 7 + rng.normal(size=240), np.round(rng.normal(size=240), 1)):
            assert self._agree(x, resid, 4, 4) > 0

    def test_high_cardinality_chunks(self, monkeypatch):
        # One column of distinct values and three with few: from the second
        # level on, a level's histograms and its parents' outgrow n * nfeat
        # cells, so the level is filled directly, its nodes in several
        # chunks.  At min_leaf 40 only one node of such a level splits, and
        # the level of its two children subtracts again.
        rng = np.random.default_rng(45)
        x = np.c_[rng.normal(size=400), rng.integers(0, 5, size=(400, 3))]
        resid = rng.normal(size=400) + x[:, 1]
        calls = []
        split_chunk, subtract = kernels._chunk_splits, kernels._subtract

        def chunk_spy(lo, hi, *args):
            calls.append(("score", lo))
            return split_chunk(lo, hi, *args)

        def subtract_spy(lo, hi, *args):
            calls.append(("subtract", lo))
            return subtract(lo, hi, *args)

        monkeypatch.setattr(kernels, "_chunk_splits", chunk_spy)
        monkeypatch.setattr(kernels, "_subtract", subtract_spy)
        for min_leaf in (6, 40):
            calls.clear()
            assert self._agree(x, resid, min_leaf, 5) > 0
            scored = [lo for kind, lo in calls if kind == "score"]
            subtracted = [lo for kind, lo in calls if kind == "subtract"]
            direct = sorted(set(scored) - set(subtracted) - {0})
            assert len(scored) > 5  # more calls than the levels searched
            assert subtracted[0] == 1 and direct  # the root's children subtract, later levels not
            assert (subtracted[-1] > direct[0]) == (min_leaf == 40)

    def test_one_value_columns_between_splitting_columns(self):
        # bin_columns drops the columns of one value, 0, 2 and 4, and maps
        # the kept ones back to their features, which the splits name.
        rng = np.random.default_rng(46)
        x = np.c_[np.full(200, 3.0), rng.integers(0, 6, 200), np.zeros(200),
                  rng.normal(size=200), np.full(200, -1.0), rng.integers(0, 4, 200)]
        bins, bin_start, bin_value, bin_rows, column = kernels.bin_columns(x)
        assert column.tolist() == [1, 3, 5] and bins.shape == (3, 200)
        assert np.array_equal(bin_rows, np.bincount(bins.ravel()))
        assert np.array_equal(bin_value[bins[1]], x[:, 3]) and bin_start.tolist() == [0, 6, 206, 210]
        resid = rng.normal(size=200) + x[:, 1] - x[:, 5]
        assert self._agree(x, resid, 4, 4) > 0
        feat = kernels.grow_tree(x, *kernels.bin_columns(x), resid, 4, 4)[0]
        assert {3, 5} <= set(feat[feat >= 0].tolist()) <= {1, 3, 5}

    @pytest.mark.parametrize("high_cardinality", [False, True])
    def test_histograms_follow_the_sum_rule(self, monkeypatch, high_cardinality):
        # Each node's histograms, as grow_tree scores them, hold its
        # rows per value, the oracle's per-value sums bit for bit, and 0.0
        # in every cell without rows, on subtracting and direct levels.
        rng = np.random.default_rng(47)
        x = rng.integers(0, 6, size=(400, 4)).astype(np.float64)
        if high_cardinality:
            x[:, 0] = rng.normal(size=400)
        resid = rng.normal(size=400)
        seen = {}
        split_chunk = kernels._chunk_splits

        def spy(lo, hi, h_cnt, h_sum, *args):
            seen.update((lo + r, (h_cnt[r].copy(), h_sum[r].copy())) for r in range(hi - lo))
            return split_chunk(lo, hi, h_cnt, h_sum, *args)

        monkeypatch.setattr(kernels, "_chunk_splits", spy)
        binned = kernels.bin_columns(x)
        _, bin_start, bin_value, _, column = binned
        feat, thr, left, right, *_ = kernels.grow_tree(x, *binned, resid, 3, 6)
        want = reference_value_sums(x, resid, feat, thr, left, right)
        assert len(seen) > 30
        for nd, (h_cnt, h_sum) in seen.items():
            rows, sums = want[nd]
            for j, f in enumerate(column.tolist()):
                a, b = bin_start[j], bin_start[j + 1]
                values, counts = np.unique(x[rows, f], return_counts=True)
                held = np.zeros(b - a, dtype=np.int64)
                held[np.searchsorted(bin_value[a:b], values)] = counts
                assert np.array_equal(h_cnt[a:b], held), (nd, f)
                assert h_sum[a:b][held > 0].tolist() == [sums[f][v] for v in values.tolist()]
                assert not h_sum[a:b][held == 0].any(), (nd, f)

    def test_densified_campaign(self):
        train, _, _ = synthgen.generate(synthgen.SynthConfig(seed=5, n_train=1200, n_test=10))
        encodings = features.build_encodings(features.encoding_split(train))
        x, y = features.densify_cases(train, encodings)
        model = models.train_gbrt(x, y, models.GbrtHyper(rounds=3, max_depth=3, min_leaf=5))
        for resid in (y - y.mean(), y - models.predict(model, x)):
            assert self._agree(x, resid, 5, 4) > 0


class TestApplyForest:
    """The packed-forest kernel and the one-row scorer against the per-tree
    sum of the reference tree walk."""

    @staticmethod
    def _leaf(v):
        return np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1]), np.array([v])

    def _random_forest(self, rng, x, n_trees):
        trees = []
        binned = kernels.bin_columns(x)
        for _ in range(n_trees):
            if rng.random() < 0.25:
                trees.append(self._leaf(float(rng.normal())))
                continue
            resid = rng.normal(size=x.shape[0])
            depth = int(rng.integers(1, 6))
            trees.append(kernels.grow_tree(x, *binned, resid, 2, depth)[:5])
        return trees

    @staticmethod
    def _per_tree_sum(x, trees, base, shrinkage):
        total = np.full(x.shape[0], base)
        for t in trees:
            total += shrinkage * reference_tree_leaves(x, *t)
        return total

    @staticmethod
    def _score(x, forest, base, shrinkage):
        return kernels.apply_forest(x, forest.feature, forest.threshold, forest.left, forest.right,
                                    forest.value, forest.roots, base, shrinkage)

    def test_backends_agree_on_random_forests(self):
        # The batch kernel, on many rows and on one, and the one-row scorer
        # equal the per-tree reference sum.
        rng = np.random.default_rng(8)
        for _ in range(15):
            nfeat = int(rng.integers(1, 6))
            x = rng.normal(size=(int(rng.integers(20, 200)), nfeat))
            trees = self._random_forest(rng, x, int(rng.integers(1, 12)))
            forest = models.PackedForest.of(trees)
            base, shrinkage = float(rng.random()), float(rng.random())
            xq = rng.normal(size=(int(rng.integers(1, 60)), nfeat))
            want = self._per_tree_sum(xq, trees, base, shrinkage)
            assert np.array_equal(self._score(xq, forest, base, shrinkage), want)
            assert np.array_equal(self._score(xq[:1], forest, base, shrinkage), want[:1])
            score = kernels.compile_forest_row(*forest._arrays(), base, shrinkage)
            assert [score(row) for row in xq] == want.tolist()

    def test_root_only_forest_reads_no_column(self):
        # no split reads x, so an input without columns is fine
        trees = [self._leaf(0.5), self._leaf(-0.25), self._leaf(0.125)]
        forest = models.PackedForest.of(trees)
        assert forest.max_feature == -1
        x = np.empty((3, 0))
        assert np.array_equal(self._score(x, forest, 0.1, 0.3),
                              np.full(3, ((0.1 + 0.3 * 0.5) + 0.3 * -0.25) + 0.3 * 0.125))

    def test_no_trees_is_base(self):
        forest = models.PackedForest.of([])
        assert forest.roots.shape == (0,) and forest.max_feature == -1
        assert np.array_equal(self._score(np.zeros((2, 3)), forest, 0.2, 0.5), [0.2, 0.2])

    def _row_forms_agree(self, trees, xq, base, shrinkage):
        """Each row of xq scores the same, bit for bit, by the compiled
        straight-line scorer, the batch kernel and the per-tree reference
        sum."""
        forest = models.PackedForest.of(trees)
        batch = self._score(xq, forest, base, shrinkage)
        reference = self._per_tree_sum(xq, trees, base, shrinkage)
        compiled = kernels.compile_forest_row(*forest._arrays(), base, shrinkage)
        for i, row in enumerate(xq):
            assert compiled(row) == batch[i] == reference[i]

    def test_row_walk_equals_batch_forms(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(150, 4))
        forests = [[], [self._leaf(0.5), self._leaf(-0.25)]]
        forests += [self._random_forest(rng, x, int(rng.integers(1, 12))) for _ in range(12)]
        for trees in forests:
            base, shrinkage = float(rng.random()), float(rng.random())
            # exactly the slots that the splits read: max_feature + 1 of them
            width = max((int(t[0].max()) for t in trees), default=-1) + 1
            xq = rng.normal(size=(25, width))
            self._row_forms_agree(trees, xq, base, shrinkage)
            # and wider rows, whose extra slots no split reads
            self._row_forms_agree(trees, rng.normal(size=(5, width + 3)), base, shrinkage)

    def test_row_forms_at_edge_thresholds(self):
        # Signed zeros, the smallest subnormal, huge and infinite values, and
        # rows that equal a threshold exactly (x <= t goes left).
        edges = [-np.inf, -1e308, -0.75, -0.0, 0.0, 5e-324, 1e-323, 0.75, 1e308, np.inf, np.nan]

        def node(feature, threshold, left, right, value=0.0):
            return feature, threshold, left, right, value

        def tree(*nodes):
            return tuple(np.array(c) for c in zip(*nodes))

        trees = [
            tree(node(0, -0.0, 1, 2), node(1, 5e-324, 3, 4), node(2, 1e308, 5, 6),
                 node(-1, 0.0, -1, -1, 5e-324), node(-1, 0.0, -1, -1, -0.0),
                 node(-1, 0.0, -1, -1, 1e308), node(-1, 0.0, -1, -1, -0.3)),
            tree(node(1, 0.75, 1, 2), node(-1, 0.0, -1, -1, 0.1), node(2, -np.inf, 3, 4),
                 node(-1, 0.0, -1, -1, -1e-300), node(-1, 0.0, -1, -1, 0.7)),
            tree(node(0, np.inf, 1, 2), node(-1, 0.0, -1, -1, 1.0), node(-1, 0.0, -1, -1, 2.0)),
            self._leaf(-0.0),
        ]
        xq = np.array([[a, b, c] for a in edges for b in edges for c in edges[::3]])
        self._row_forms_agree(trees, xq, 0.25, 0.5)
        self._row_forms_agree(trees, xq, -0.0, 1e-308)

    def test_blocks_of_a_large_batch_agree(self, monkeypatch):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(300, 4))
        trees = self._random_forest(rng, x, 10)
        forest = models.PackedForest.of(trees)
        whole = self._score(x, forest, 0.3, 0.05)
        monkeypatch.setattr(kernels, "FOREST_BLOCK", 70)  # 7 rows per block
        assert np.array_equal(self._score(x, forest, 0.3, 0.05), whole)

    @staticmethod
    def _chain(depth, feature, thresholds):
        """Split i sends x <= thresholds[i] to the leaf i + 1 and the rest
        on to split i + 1; the last right child is the leaf depth + 1."""
        feat, thr, left, right, value = [], [], [], [], []
        for i in range(depth):
            feat += [feature, -1]
            thr += [thresholds[i], 0.0]
            left += [2 * i + 1, -1]
            right += [2 * i + 2, -1]
            value += [0.0, float(i + 1)]
        return tuple(np.array(c) for c in (feat + [-1], thr + [0.0], left + [-1], right + [-1],
                                           value + [float(depth + 1)]))

    @staticmethod
    def _full_tree(rng, depth, nfeat, thresholds):
        """A complete tree of the given depth: node k splits into 2k + 1 and
        2k + 2, on random columns at thresholds drawn from ``thresholds``."""
        splits, nodes = 2 ** depth - 1, 2 ** (depth + 1) - 1
        k = np.arange(nodes)
        inner = k < splits
        return (np.where(inner, rng.integers(0, nfeat, nodes), -1),
                np.where(inner, rng.choice(thresholds, nodes), 0.0),
                np.where(inner, 2 * k + 1, -1), np.where(inner, 2 * k + 2, -1),
                np.where(inner, 0.0, rng.normal(size=nodes)))

    def test_trees_of_mixed_depth_in_any_order(self, monkeypatch):
        # A root-only tree, stumps, a depth-20 chain and a full depth-5 tree,
        # shuffled so that the deepest-first walk order is not the tree order.
        rng = np.random.default_rng(12)
        edges = np.array([-np.inf, -1e308, -0.75, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                          0.75, 1e308, np.inf])
        thresholds = np.concatenate([edges, rng.normal(size=20)])
        stump = (np.array([1, -1, -1]), np.array([-0.0, 0.0, 0.0]), np.array([1, -1, -1]),
                 np.array([2, -1, -1]), np.array([0.0, -0.5, 0.25]))
        stump_at_subnormal = (np.array([2, -1, -1]), np.array([5e-324, 0.0, 0.0]),
                              np.array([1, -1, -1]), np.array([2, -1, -1]), np.array([0.0, 1.5, -2.0]))
        trees = [self._leaf(0.125), stump, stump_at_subnormal,
                 self._chain(20, 0, np.sort(rng.choice(thresholds, 20))),
                 self._full_tree(rng, 5, 3, thresholds), self._leaf(-0.0)]
        depths = np.array([0, 1, 1, 20, 5, 0])
        order = rng.permutation(len(trees))
        trees = [trees[i] for i in order]
        assert not np.array_equal(np.argsort(-depths[order], kind="stable"), np.arange(len(trees)))
        forest = models.PackedForest.of(trees)
        # each column holds NaN, the edges and the thresholds themselves
        pool = np.concatenate([edges, thresholds, [np.nan, -5e-324, 1e-323]])
        x = rng.choice(pool, size=(400, 3))
        want = self._per_tree_sum(x, trees, 0.3, 0.05)
        assert np.array_equal(self._score(x, forest, 0.3, 0.05), want)
        monkeypatch.setattr(kernels, "FOREST_BLOCK", 70)  # 11 rows per block
        assert np.array_equal(self._score(x, forest, 0.3, 0.05), want)

    def test_a_chain_deeper_than_the_row_scorer_compiles(self):
        # 250 levels nest more parentheses than CPython compiles; the batch
        # walk has no such bound.
        trees = [self._leaf(0.5), self._chain(250, 0, np.arange(250) + 0.5)]
        forest = models.PackedForest.of(trees)
        with pytest.raises(SyntaxError):
            kernels.compile_forest_row(*forest._arrays(), 0.0, 1.0)
        x = np.arange(-1.0, 252.0, 0.25)[:, None]
        want = self._per_tree_sum(x, trees, 0.0, 1.0)
        assert np.array_equal(self._score(x, forest, 0.0, 1.0), want)
        assert want[0] == 0.5 + 1.0 and want[-1] == 0.5 + 251.0

    def test_no_rows_is_an_empty_float64_array(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(50, 3))
        forest = models.PackedForest.of(self._random_forest(rng, x, 5))
        out = self._score(np.empty((0, 3)), forest, 0.2, 0.5)
        assert out.dtype == np.float64 and out.shape == (0,)

    def test_max_feature_is_the_largest_split_slot(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(200, 3))
        trees = self._random_forest(rng, x, 8)
        forest = models.PackedForest.of(trees)
        assert forest.max_feature == max(int(t[0].max()) for t in trees)

    def test_fifty_tree_model_scores_a_row_as_its_batch_row(self):
        # A 50-tree, depth-5 model on continuous columns: each of 1,000 rows
        # scores the same by the one-row scorer, the batch kernel and the
        # per-tree reference sum, and models.predict of each vector, whose
        # first call builds the scorer, equals its batch row.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3000, 15))
        y = (rng.random(2000) < 1.0 / (1.0 + np.exp(-x[:2000, :3].sum(axis=1)))).astype(np.float64)
        model = models.train_gbrt(x[:2000], y, models.GbrtHyper(rounds=50))
        f, rows = model.forest, x[2000:]
        assert len(f.roots) == 50 and (f.left[f.roots] >= 0).all()
        args = (*f._arrays(), model.base, model.hyper.shrinkage)
        batch = kernels.apply_forest(rows, *args)
        score = kernels.compile_forest_row(*args)
        assert [score(row) for row in rows] == batch.tolist()
        want = np.full(len(rows), model.base)
        for root in f.roots.tolist():
            want += model.hyper.shrinkage * reference_tree_leaves(rows, *f._arrays()[:5], root)
        assert np.array_equal(batch, want)
        assert model.row_scorer is None
        assert [models.predict(model, row) for row in rows] == models.predict(model, rows).tolist()


def test_compiled_scorer_is_straight_line_python():
    # one conditional expression per tree, nested by level, each leaf times
    # shrinkage; no builtin is reachable
    forest = models.PackedForest.of([
        (np.array([1, -1, -1]), np.array([0.5, 0.0, 0.0]), np.array([1, -1, -1]),
         np.array([2, -1, -1]), np.array([0.0, 0.25, -0.5])),
        (np.array([0, 1, -1, -1, -1]), np.array([-0.0, 1e308, 0.0, 0.0, 0.0]),
         np.array([1, 3, -1, -1, -1]), np.array([2, 4, -1, -1, -1]),
         np.array([0.0, 0.0, 3.0, 5e-324, 1.0])),
        (np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1]), np.array([0.75])),
    ])
    arrays = (forest.feature, forest.threshold, forest.left, forest.right, forest.value, forest.roots)
    assert kernels._forest_source(*arrays, 0.125, 0.5).splitlines() == [
        "def score(x):",
        "    x0, x1, *_ = x.tolist()",
        "    s = 0.125",
        "    s += (0.125 if x1 <= 0.5 else -0.25)",
        "    s += ((0.0 if x1 <= 1e+308 else 0.5) if x0 <= -0.0 else 1.5)",
        "    s += 0.375",
        "    return s",
    ]
    score = kernels.compile_forest_row(*arrays, 0.125, 0.5)
    assert score(np.array([0.0, 0.5])) == 0.125 + 0.125 + 0.0 + 0.375
    assert score(np.array([1.0, 0.75])) == 0.125 - 0.25 + 1.5 + 0.375
    assert score.__globals__["__builtins__"] == {}


def test_perfbench_tracer_finds_every_name_it_wraps():
    # perfbench/spans.py wraps rtbsim's functions by name, the kernels in
    # KERNELS and the methods in METHODS among them, and its install raises
    # AttributeError on a name that is gone.  Its counts read the kernels'
    # arguments by position: sgd_epoch's ndarray order (args[4]) and
    # apply_tree's node_of (args[0]).  perfbench/run.py records
    # kernels.HAVE_NUMBA and NUMBA_ENABLED in every run's environment.
    import rtbsim
    import rtbsim.cli  # noqa: F401 - the command layer, as the benchmark loads it

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = {name: getattr(kernels, name) for name in spans.KERNELS}
    rng = np.random.default_rng(20)
    indptr = np.arange(0, 121, 2, dtype=np.int64)
    batch = features.SparseBatch(indptr, rng.integers(1, 9, size=120).astype(np.int32),
                                 (rng.random(60) < 0.5).astype(np.float64), 9)
    x, y = rng.integers(0, 4, size=(60, 3)).astype(np.float64), batch.labels
    tracer = spans.Tracer()
    try:
        tracer.install(rtbsim)
        assert all(getattr(kernels, n).__wrapped__ is fn for n, fn in originals.items())
        models.train_lr(batch, models.LrHyper(epochs=3))
        models.train_gbrt(x, y, models.GbrtHyper(rounds=2, min_leaf=5))
    finally:
        tracer.uninstall()
    assert all(getattr(kernels, n) is fn for n, fn in originals.items())
    assert tracer.calls["kernels.sgd_epoch"] == 3 and tracer.counts["models.sgd_updates"] == 180
    assert tracer.counts["models.trees_grown"] == 2 and tracer.counts["kernels.apply_tree.rows"] == 120
    assert (kernels.HAVE_NUMBA, kernels.NUMBA_ENABLED) == (False, False)
