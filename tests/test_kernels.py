"""Backend equivalence: the njit loop kernels and the numpy fallbacks must
produce bit-identical results, since the env flag that selects between them
must never change experiment outputs."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rtbsim import kernels, models
from rtbsim.bidding import RandBid, compute_bid

from conftest import make_case
from oracles import reference_simulate


def presort(x):
    """The row ids of each column in ascending order, and their values."""
    sorted_ids = np.argsort(x, axis=0, kind="stable").T.copy()
    return sorted_ids, np.take_along_axis(x.T, sorted_ids, axis=1)


def random_auction_arrays(rng, n):
    bids = rng.integers(0, 200, size=n).astype(np.int64)
    paying = rng.integers(0, 150, size=n).astype(np.int64)
    floor = rng.integers(0, 60, size=n).astype(np.int64)
    return bids, paying, floor


class TestWinScan:
    @pytest.mark.parametrize("budget", [0, 1, 500, 10_000, 10 ** 12])
    def test_backends_agree(self, budget):
        rng = np.random.default_rng(budget % 97)
        for n in (1, 7, 500):
            bids, paying, floor = random_auction_arrays(rng, n)
            w1, s1, e1 = kernels.win_scan_loop(bids, paying, floor, np.int64(budget))
            w2, s2, e2 = kernels.win_scan_numpy(bids, paying, floor, np.int64(budget))
            assert np.array_equal(w1, w2)
            assert s1 == s2 and e1 == e2

    @pytest.mark.parametrize("seed", range(6))
    def test_forms_match_reference_simulate(self, seed):
        # Random cases replayed by the straight-line oracle: both forms win
        # the same cases (wins and clicks) and spend the same, from a zero
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
            for scan in (kernels.win_scan_loop, kernels.win_scan_numpy):
                win, got_spent, _ = scan(bids, paying, floor, np.int64(budget))
                won = win.astype(bool)
                assert (int(won.sum()), int((won & clicked).sum()), int(got_spent)) == \
                    (wins, clicks, spent), (scan.__name__, budget)

    def test_many_seeds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            bids, paying, floor = random_auction_arrays(rng, n)
            budget = np.int64(rng.integers(0, int(paying.sum()) + 2))
            out1 = kernels.win_scan_loop(bids, paying, floor, budget)
            out2 = kernels.win_scan_numpy(bids, paying, floor, budget)
            assert np.array_equal(out1[0], out2[0]) and out1[1:] == out2[1:]


class TestSgdEpoch:
    def test_jit_matches_python_source(self):
        rng = np.random.default_rng(5)
        n, dim = 400, 25
        rows = [np.sort(rng.choice(np.arange(1, dim), size=6, replace=False)) for _ in range(n)]
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(r) for r in rows])
        indices = np.concatenate(rows).astype(np.int32)
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        order = rng.permutation(n).astype(np.int64)

        for lam in (0.0, 1e-6, 1e-2, 1e6):
            v1 = np.zeros(dim - 1)
            v2 = np.zeros(dim - 1)
            out1 = kernels.sgd_epoch_loop(indptr, indices, labels, v1, order, 0.0, 1.0, 0, 0.1, lam)
            out2 = kernels.sgd_epoch_python(indptr, indices, labels, v2, order, 0.0, 1.0, 0, 0.1, lam)
            assert out1 == out2
            assert np.array_equal(v1, v2)

    @pytest.mark.parametrize("lam", [0.0, 1e-6, 1e-2, 1e6])
    def test_list_form_matches_array_body_over_epochs(self, lam):
        # The list form against the one loop body run over the arrays, with
        # (w0, s, t) carried from each epoch into the next, as train_lr does.
        rng = np.random.default_rng(6)
        n, dim, lr0 = 300, 20, 0.1
        rows = [np.sort(rng.choice(np.arange(1, dim), size=int(rng.integers(0, 7)), replace=False))
                for _ in range(n)]
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(r) for r in rows])
        indices = np.concatenate(rows).astype(np.int32)
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        assert (np.diff(indptr) == 0).any()  # empty rows touch only the bias
        forms = {"array": kernels._sgd_epoch_py, "list": kernels.sgd_epoch_python}
        if kernels.HAVE_NUMBA:
            forms["compiled"] = kernels.sgd_epoch_loop
        v = {name: np.zeros(dim - 1) for name in forms}
        state = {name: (0.0, 1.0, 0) for name in forms}
        for _ in range(4):
            order = rng.permutation(n).astype(np.int64)
            for name, epoch in forms.items():
                state[name] = epoch(indptr, indices, labels, v[name], order, *state[name],
                                    lr0, lam)
            for name in forms:
                assert state[name] == state["array"] and np.array_equal(v[name], v["array"])
        assert state["array"][2] == 4 * n and np.isfinite(v["list"]).all()
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
        return x, presort(x), resid

    @pytest.mark.parametrize("discrete", [False, True])
    def test_backends_agree(self, discrete):
        rng = np.random.default_rng(3 if discrete else 4)
        for _ in range(20):
            n = int(rng.integers(10, 400))
            nfeat = int(rng.integers(1, 6))
            x, presorted, resid = self._random_problem(rng, n, nfeat, discrete)
            min_leaf = int(rng.integers(1, 5))
            depth = int(rng.integers(1, 5))
            t1 = kernels.grow_tree_loop(x, *presorted, resid, min_leaf, depth)
            t2 = kernels.grow_tree_numpy(x, *presorted, resid, min_leaf, depth)
            for a, b in zip(t1, t2):
                assert np.array_equal(a, b)

    @staticmethod
    def _same(x, resid, min_leaf, max_depth):
        """Both forms grow the same tree bit for bit; returns it."""
        x = np.asarray(x, dtype=np.float64).reshape(len(resid), -1)
        resid = np.asarray(resid, dtype=np.float64)
        presorted = presort(x)
        t1 = kernels.grow_tree_loop(x, *presorted, resid, min_leaf, max_depth)
        t2 = kernels.grow_tree_numpy(x, *presorted, resid, min_leaf, max_depth)
        for a, b in zip(t1, t2):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        return t2

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
        tree = self._same(np.full((60, 3), 7.0), resid, 2, 4)
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

    def test_apply_backends_agree(self):
        rng = np.random.default_rng(6)
        x, presorted, resid = self._random_problem(rng, 300, 4)
        tree = kernels.grow_tree_loop(x, *presorted, resid, 2, 4)
        out1 = kernels.apply_tree_loop(x, *tree)
        out2 = kernels.apply_tree_numpy(x, *tree)
        assert np.array_equal(out1, out2)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(7)
        x, presorted, resid = self._random_problem(rng, 100, 3)
        for min_leaf in (1, 10, 30):
            feat, thr, left, right, value = kernels.grow_tree(x, *presorted, resid, min_leaf, 5)
            counts = np.zeros(len(feat), dtype=int)
            node = np.zeros(100, dtype=int)
            for i in range(100):
                nd = 0
                while left[nd] >= 0:
                    nd = left[nd] if x[i, feat[nd]] <= thr[nd] else right[nd]
                counts[nd] += 1
            leaf_counts = counts[left[:len(feat)] < 0]
            assert leaf_counts.min() >= min_leaf


class TestApplyForest:
    """The packed-forest kernel against its twin and the per-tree sum."""

    @staticmethod
    def _leaf(v):
        return models.Tree(np.array([-1]), np.array([0.0]), np.array([-1]),
                           np.array([-1]), np.array([v]))

    def _random_forest(self, rng, x, n_trees):
        trees = []
        presorted = presort(x)
        for _ in range(n_trees):
            if rng.random() < 0.25:
                trees.append(self._leaf(float(rng.normal())))
                continue
            resid = rng.normal(size=x.shape[0])
            depth = int(rng.integers(1, 6))
            trees.append(models.Tree(*kernels.grow_tree_numpy(x, *presorted, resid, 2, depth)))
        return trees

    @staticmethod
    def _per_tree_sum(x, trees, base, shrinkage):
        total = np.full(x.shape[0], base)
        for t in trees:
            total += shrinkage * kernels.apply_tree_numpy(x, t.feature, t.threshold,
                                                          t.left, t.right, t.value)
        return total

    @staticmethod
    def _both(x, forest, base, shrinkage):
        args = (x, forest.feature, forest.threshold, forest.left, forest.right,
                forest.value, forest.roots, base, shrinkage)
        return kernels.apply_forest_loop(*args), kernels.apply_forest_numpy(*args)

    def test_backends_agree_on_random_forests(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            nfeat = int(rng.integers(1, 6))
            x = rng.normal(size=(int(rng.integers(20, 200)), nfeat))
            trees = self._random_forest(rng, x, int(rng.integers(1, 12)))
            forest = models.PackedForest.of(trees)
            base, shrinkage = float(rng.random()), float(rng.random())
            xq = rng.normal(size=(int(rng.integers(1, 60)), nfeat))
            for rows in (xq, xq[:1]):
                loop, vec = self._both(rows, forest, base, shrinkage)
                assert np.array_equal(loop, vec)
                assert np.array_equal(vec, self._per_tree_sum(rows, trees, base, shrinkage))

    def test_root_only_forest_reads_no_column(self):
        # no split reads x, so an input without columns is fine
        trees = [self._leaf(0.5), self._leaf(-0.25), self._leaf(0.125)]
        forest = models.PackedForest.of(trees)
        assert forest.max_feature == -1
        x = np.empty((3, 0))
        loop, vec = self._both(x, forest, 0.1, 0.3)
        assert np.array_equal(loop, vec)
        assert np.array_equal(vec, np.full(3, ((0.1 + 0.3 * 0.5) + 0.3 * -0.25) + 0.3 * 0.125))

    def test_no_trees_is_base(self):
        forest = models.PackedForest.of([])
        assert forest.roots.shape == (0,) and forest.max_feature == -1
        loop, vec = self._both(np.zeros((2, 3)), forest, 0.2, 0.5)
        assert np.array_equal(loop, [0.2, 0.2]) and np.array_equal(vec, [0.2, 0.2])

    def test_row_walk_equals_batch_forms(self):
        rng = np.random.default_rng(11)
        nfeat = 4
        x = rng.normal(size=(150, nfeat))
        forests = [[], [self._leaf(0.5), self._leaf(-0.25)]]
        forests += [self._random_forest(rng, x, int(rng.integers(1, 12))) for _ in range(12)]
        for trees in forests:
            forest = models.PackedForest.of(trees)
            base, shrinkage = float(rng.random()), float(rng.random())
            # exactly the slots that the splits read: max_feature + 1 of them
            xq = rng.normal(size=(25, forest.max_feature + 1))
            loop, vec = self._both(xq, forest, base, shrinkage)
            nodes = (forest.feature, forest.threshold, forest.left, forest.right,
                     forest.value, forest.roots)
            for i, row in enumerate(xq):
                compiled = kernels.apply_forest_row_loop(row, *nodes, base, shrinkage)
                plain = kernels.apply_forest_row_python(
                    row.tolist(), *(a.tolist() for a in nodes), base, shrinkage)
                assert compiled == plain == loop[i] == vec[i]

    def test_blocks_of_a_large_batch_agree(self, monkeypatch):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(300, 4))
        trees = self._random_forest(rng, x, 10)
        forest = models.PackedForest.of(trees)
        whole = self._both(x, forest, 0.3, 0.05)[1]
        monkeypatch.setattr(kernels, "FOREST_BLOCK", 70)  # 7 rows per block
        assert np.array_equal(self._both(x, forest, 0.3, 0.05)[1], whole)

    def test_max_feature_is_the_largest_split_slot(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(200, 3))
        trees = self._random_forest(rng, x, 8)
        forest = models.PackedForest.of(trees)
        assert forest.max_feature == max(int(t.feature.max()) for t in trees)


def test_env_flag_selects_numpy_backend():
    code = (
        "from rtbsim import kernels\n"
        "assert kernels.NUMBA_ENABLED is False\n"
        "assert kernels.win_scan is kernels.win_scan_numpy\n"
        "assert kernels.sgd_epoch is kernels.sgd_epoch_python\n"
        "assert kernels.grow_tree is kernels.grow_tree_numpy\n"
        "assert kernels.apply_forest is kernels.apply_forest_numpy\n"
        "assert kernels.apply_forest_row is kernels.apply_forest_row_python\n"
        "from rtbsim import models\n"
        "assert all(type(a) is list for a in models.PackedForest.of([]).nodes)\n"
        "print('fallback ok')\n"
    )
    env = dict(os.environ, RTBSIM_NO_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "fallback ok" in out.stdout


def test_default_backend_uses_numba_when_available():
    if not kernels.HAVE_NUMBA or kernels._flag_disabled():
        pytest.skip("numba unavailable or disabled in this environment")
    assert kernels.NUMBA_ENABLED
    assert kernels.win_scan is kernels.win_scan_loop
