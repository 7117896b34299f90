from __future__ import annotations

import math
import re

import numpy as np
import pytest

from rtbsim import kernels, kvfile, models, synthgen
from rtbsim.features import (
    CategoryEncodings,
    SparseBatch,
    Vocabulary,
    binarize,
    binarize_cases,
    build_encodings,
    build_vocabulary,
    densify_cases,
    encoding_split,
)
from rtbsim.models import (
    CtrScorer,
    DimensionMismatch,
    EmptyInput,
    GbrtHyper,
    GbrtModel,
    InsufficientData,
    LrHyper,
    LrModel,
    NonBinaryLabel,
    PackedForest,
    SingleClassInput,
    auc,
    evaluate,
    load_gbrt,
    load_lr,
    lr_gradient,
    lr_loss,
    predict,
    rmse,
    save_gbrt,
    save_lr,
    train_gbrt,
    train_lr,
)

from oracles import (
    finite_difference_gradient,
    pairwise_auc,
    reference_grow_tree,
    reference_lr_loss,
    reference_tree_leaves,
)


def batch_of(rows, labels, dim) -> SparseBatch:
    return SparseBatch.from_vectors([np.array(r, dtype=np.int32) for r in rows],
                                    labels, dim)


class TestTrainLr:
    def test_separable_singleton(self):
        batch = batch_of([[1]], [1.0], dim=2)
        model = train_lr(batch, LrHyper(learning_rate=0.5, l2=0.0, epochs=200, seed=0))
        assert predict(model, np.array([1])) > 0.9

    def test_huge_l2_kills_non_bias_weights(self):
        rows = [[1], [2], [1, 2], []] * 50
        labels = ([1.0, 0.0, 0.0, 0.0] * 50)
        batch = batch_of(rows, labels, dim=3)
        model = train_lr(batch, LrHyper(learning_rate=0.1, l2=1e6, epochs=40, seed=0))
        assert np.all(np.abs(model.weights[1:]) < 1e-6)
        base_rate = sum(labels) / len(labels)
        assert predict(model, np.array([], dtype=np.int64)) == pytest.approx(base_rate, abs=0.05)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        rows = [sorted(rng.choice(np.arange(1, 30), size=5, replace=False).tolist()) for _ in range(200)]
        labels = rng.integers(0, 2, size=200).astype(float).tolist()
        batch = batch_of(rows, labels, dim=30)
        m1 = train_lr(batch, LrHyper(epochs=3, seed=7))
        m2 = train_lr(batch, LrHyper(epochs=3, seed=7))
        m3 = train_lr(batch, LrHyper(epochs=3, seed=8))
        assert np.array_equal(m1.weights, m2.weights)
        assert not np.array_equal(m1.weights, m3.weights)

    def test_non_binary_label_rejected(self):
        with pytest.raises(NonBinaryLabel):
            train_lr(batch_of([[1]], [0.5], dim=2))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            train_lr(batch_of([], [], dim=2))


class TestLrGradient:
    def test_closed_form_at_zero(self):
        model = LrModel(np.zeros(4), LrHyper(l2=0.0))
        batch = batch_of([[1, 3]], [1.0], dim=4)
        grad = lr_gradient(model, batch)
        assert grad[0] == pytest.approx(-0.5)
        assert grad[1] == pytest.approx(-0.5)
        assert grad[3] == pytest.approx(-0.5)
        assert grad[2] == 0.0

    def test_empty_feature_example_hits_only_bias(self):
        model = LrModel(np.zeros(4), LrHyper(l2=0.0))
        batch = batch_of([[]], [0.0], dim=4)
        grad = lr_gradient(model, batch)
        assert grad[0] == pytest.approx(0.5)
        assert np.all(grad[1:] == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        dim = 12
        for _ in range(5):
            rows = [sorted(rng.choice(np.arange(1, dim), size=4, replace=False).tolist())
                    for _ in range(20)]
            labels = rng.integers(0, 2, size=20).astype(float).tolist()
            batch = batch_of(rows, labels, dim=dim)
            w = rng.normal(0, 1, size=dim)
            model = LrModel(w, LrHyper(l2=1e-3))
            grad = lr_gradient(model, batch)
            coords = list(range(dim))
            fd = finite_difference_gradient(w, 1e-3, batch.indptr, batch.indices,
                                            batch.labels, coords)
            rel = np.abs(grad[coords] - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-4

    def test_bincount_sums_equal_add_at(self):
        # lr_gradient's per-index sums, against the np.add.at form it replaced
        rng = np.random.default_rng(6)
        dim, n = 40, 300
        rows = [sorted(rng.choice(np.arange(1, dim), size=rng.integers(0, 9), replace=False).tolist())
                for _ in range(n)]
        batch = batch_of(rows, rng.integers(0, 2, size=n).astype(float).tolist(), dim=dim)
        model = LrModel(rng.normal(0, 1, size=dim), LrHyper(l2=1e-3))
        err = (predict(model, batch) - batch.labels) / n  # no row's pCTR is clamped here
        old = np.zeros(dim)
        old[0] = err.sum()
        np.add.at(old, batch.indices, err[np.repeat(np.arange(n), np.diff(batch.indptr))])
        old[1:] += model.hyper.l2 * model.weights[1:]
        assert lr_gradient(model, batch).tobytes() == old.tobytes()

    def test_loss_matches_reference(self):
        rng = np.random.default_rng(4)
        batch = batch_of([[1, 2], [2], []], [1.0, 0.0, 1.0], dim=4)
        w = rng.normal(0, 1, size=4)
        model = LrModel(w, LrHyper(l2=0.01))
        assert lr_loss(model, batch) == pytest.approx(
            reference_lr_loss(w, 0.01, batch.indptr, batch.indices, batch.labels))


class TestTrainGbrt:
    def test_constant_labels_degenerate(self):
        x = np.arange(40, dtype=float).reshape(-1, 1)
        y = np.ones(40)
        model = train_gbrt(x, y, GbrtHyper(rounds=5, min_leaf=1))
        assert model.base == 1.0
        forest = model.forest
        assert np.array_equal(forest.roots, np.arange(5))  # five root-only trees
        assert (forest.left == -1).all() and (forest.value == 0.0).all()
        assert model.train_mse == [0.0] * 5

    def test_step_function_exact_split(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        model = train_gbrt(x, y, GbrtHyper(rounds=1, shrinkage=1.0, max_depth=1, min_leaf=1))
        forest = model.forest
        # exhaustive check: every candidate midpoint scored by hand
        best = None
        for t in (1.5, 2.5, 3.5, 4.5):
            left = y[x[:, 0] <= t]
            right = y[x[:, 0] > t]
            sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            if best is None or sse < best[0]:
                best = (sse, t)
        assert forest.threshold[0] == best[1] == 3.5
        assert model.train_mse[-1] == pytest.approx(0.0, abs=1e-30)

    def test_mse_non_increasing(self, small_synth):
        train, _, _ = small_synth
        enc = build_encodings(encoding_split(train))
        x, y = densify_cases(train, enc)
        model = train_gbrt(x, y, GbrtHyper(rounds=30))
        assert all(a >= b for a, b in zip(model.train_mse, model.train_mse[1:]))

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 3))
        y = (x[:, 0] + x[:, 1] * x[:, 2] > 0).astype(float)
        model = train_gbrt(x, y, GbrtHyper(rounds=3, max_depth=2, min_leaf=5))
        forest = model.forest
        # depth-2 tree has at most 7 nodes
        assert (np.diff(forest.roots, append=len(forest.feature)) <= 7).all()

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            train_gbrt(np.zeros((3, 1)), np.array([0.0, 1.0, 0.0]), GbrtHyper(min_leaf=10))

    def test_non_binary_labels(self):
        with pytest.raises(NonBinaryLabel):
            train_gbrt(np.zeros((4, 1)), np.array([0.0, 2.0, 0.0, 1.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 4))
        y = (rng.random(300) < 0.3).astype(float)
        m1 = train_gbrt(x, y, GbrtHyper(rounds=5, min_leaf=5))
        m2 = train_gbrt(x, y, GbrtHyper(rounds=5, min_leaf=5))
        assert m1.forest == m2.forest and m1.train_mse == m2.train_mse

    def test_every_round_grows_the_reference_tree(self, monkeypatch):
        # Each round's tree, grown on that round's residuals, is the
        # straight-line reference grower's, bit for bit.
        train, _, _ = synthgen.generate(synthgen.SynthConfig(seed=5, n_train=400, n_test=10,
                                                             base_ctr=0.1))
        x, y = densify_cases(train, build_encodings(encoding_split(train)))
        hyper = GbrtHyper(rounds=5, min_leaf=5)
        grow, rounds = kernels.grow_tree, []

        def checked(x, bins, bin_start, bin_value, bin_rows, column, resid, min_leaf, max_depth):
            tree = grow(x, bins, bin_start, bin_value, bin_rows, column, resid, min_leaf, max_depth)
            rounds.append(all(np.array_equal(a, b) for a, b in zip(
                tree, reference_grow_tree(x, resid, min_leaf, max_depth))))
            return tree

        monkeypatch.setattr(kernels, "grow_tree", checked)
        model = train_gbrt(x, y, hyper)
        assert len(model.forest.feature) > len(model.forest.roots)  # some tree splits
        assert rounds == [True] * 5


class TestPredict:
    def test_lr_zero_weights_is_half(self):
        model = LrModel(np.zeros(5), LrHyper())
        assert predict(model, np.array([1, 2])) == 0.5

    def test_gbrt_no_trees_is_base(self):
        model = GbrtModel(0.001, PackedForest.of([]), GbrtHyper())
        assert predict(model, np.zeros(4)) == 0.001
        assert np.array_equal(predict(model, np.zeros((3, 4))), np.full(3, 0.001))

    def test_lr_closed_form(self):
        w = np.zeros(3)
        w[1] = 2.0
        model = LrModel(w, LrHyper())
        assert predict(model, np.array([1])) == pytest.approx(1 / (1 + math.exp(-2)))

    def test_outputs_strictly_inside_unit_interval(self):
        model = LrModel(np.array([0.0, 800.0, -800.0]), LrHyper())
        hi = predict(model, np.array([1]))
        lo = predict(model, np.array([2]))
        assert 0.0 < lo < hi < 1.0
        gb = GbrtModel(5.0, PackedForest.of([]), GbrtHyper())  # base outside [0,1] gets clamped
        assert predict(gb, np.zeros(2)) == 1.0 - models.GBRT_CLAMP

    def test_lr_dimension_mismatch(self):
        model = LrModel(np.zeros(3), LrHyper())
        with pytest.raises(DimensionMismatch):
            predict(model, np.array([7]))


class TestLrIndexRule:
    """A batch's feature indices lie in [1, dimension): 0 is the bias and a
    negative index would count from the end of the weights."""

    @pytest.mark.parametrize("bad", [0, -1, 3, 50])
    def test_train_lr_names_the_index(self, bad):
        batch = batch_of([[1], [1, bad], [2]], [0.0, 1.0, 1.0], dim=3)
        with pytest.raises(DimensionMismatch, match=rf"row 1: feature index {bad} outside \[1, 3\)"):
            train_lr(batch, LrHyper(epochs=2))

    def test_first_bad_index_is_named(self):
        batch = batch_of([[1], [2, -1], [0]], [0.0, 1.0, 1.0], dim=3)
        with pytest.raises(DimensionMismatch, match="row 1: feature index -1"):
            train_lr(batch)

    @pytest.mark.parametrize("bad", [0, -1, 3])
    def test_batch_scoring_paths_reject(self, bad):
        model = LrModel(np.array([0.0, 0.0, 3.0]), LrHyper())
        batch = batch_of([[1, 2], [bad]], [0.0, 1.0], dim=3)
        for score in (predict, lr_loss, lr_gradient):
            with pytest.raises(DimensionMismatch, match=f"row 1: feature index {bad}"):
                score(model, batch)

    @pytest.mark.parametrize("bad", [0, -1, 3, 50])
    def test_vector_scoring_rejects(self, bad):
        # 0 would add the bias twice and -1 read the last weight
        model = LrModel(np.array([0.0, 0.0, 3.0]), LrHyper())
        with pytest.raises(DimensionMismatch, match=rf"^feature index {bad} outside \[1, 3\)$"):
            predict(model, np.array([1, bad, 2]))

    def test_vector_names_its_first_bad_index(self):
        model = LrModel(np.array([0.0, 0.0, 3.0]), LrHyper())
        with pytest.raises(DimensionMismatch, match=r"^feature index 7 outside \[1, 3\)$"):
            predict(model, np.array([2, 7, -1, 0]))

    @pytest.mark.parametrize("bad, named", [
        (np.array([1.7, 2.2]), "1.7"), ([1.0], "1.0"), (np.array([True]), "True"),
    ])
    def test_vector_indices_must_be_integers(self, bad, named):
        # numpy would truncate 1.7 to 1 and score it as [1]
        model = LrModel(np.array([0.0, 0.0, 3.0]), LrHyper())
        with pytest.raises(DimensionMismatch, match=rf"^feature index {named} is not an integer$"):
            predict(model, bad)

    @pytest.mark.parametrize("bad, named", [
        (np.array([1.7, 2.2]), "1.7"), (np.array([True]), "True"), ([2.0], "2.0"),
    ])
    def test_batch_indices_must_be_integers(self, bad, named):
        with pytest.raises(DimensionMismatch, match=rf"^row 1: feature index {named} is not an integer$"):
            SparseBatch.from_vectors([np.array([1]), bad], [0.0, 1.0], 3)

    def test_empty_vector_scores_bias_only(self):
        model = LrModel(np.array([0.5, 0.0, 3.0]), LrHyper())
        assert predict(model, []) == predict(model, np.array([], dtype=np.int64))
        assert predict(model, []) == 1.0 / (1.0 + math.exp(-0.5))
        batch = SparseBatch.from_vectors([np.array([]), np.array([2])], [0.0, 1.0], 3)
        assert batch.indices.tolist() == [2] and batch.indptr.tolist() == [0, 0, 1]

    def test_valid_edges_and_empty_rows_pass(self):
        batch = batch_of([[], [1, 2], [2], []], [0.0, 1.0, 1.0, 0.0], dim=3)
        model = train_lr(batch, LrHyper(epochs=3))
        assert predict(model, batch).shape == (4,)


class TestHyperRanges:
    @pytest.mark.parametrize("hyper, field, value", [
        (LrHyper, "learning_rate", 0.0), (LrHyper, "learning_rate", -1.0),
        (LrHyper, "learning_rate", math.inf), (LrHyper, "l2", -1e-9), (LrHyper, "l2", math.nan),
        (LrHyper, "epochs", 0), (LrHyper, "epochs", -1), (GbrtHyper, "rounds", -2),
        (GbrtHyper, "shrinkage", math.nan), (GbrtHyper, "shrinkage", -1.0),
        (GbrtHyper, "max_depth", -1), (GbrtHyper, "max_depth", 21), (GbrtHyper, "min_leaf", 0),
    ])
    def test_out_of_range_named(self, hyper, field, value):
        with pytest.raises(ValueError, match=rf"^{hyper.__name__}: {field}={value!r} is not "):
            hyper(**{field: value})

    def test_model_file_hyper_line_checked(self, tmp_path):
        save_gbrt(GbrtModel(0.25, PackedForest.of([]), GbrtHyper()), tmp_path / "m.txt")
        text = (tmp_path / "m.txt").read_text(encoding="utf-8")
        (tmp_path / "m.txt").write_text(text.replace("max_depth=5", "max_depth=-1"), encoding="utf-8")
        with pytest.raises(ValueError, match=r"GbrtHyper: max_depth=-1 is not >= 0"):
            load_gbrt(tmp_path / "m.txt")

    def test_edges_pass(self):
        LrHyper(l2=0.0, epochs=1)
        GbrtHyper(rounds=1, max_depth=0, min_leaf=1)
        GbrtHyper(max_depth=20)


class TestPredictLr:
    def test_vector_equals_batch_row(self, small_synth):
        train, test, _ = small_synth
        vocab = build_vocabulary(train)
        model = train_lr(binarize_cases(train, vocab), LrHyper(learning_rate=0.05, epochs=5))
        batch = predict(model, binarize_cases(test, vocab))
        singles = [predict(model, binarize(c.record, vocab)) for c in test]
        assert all(isinstance(p, float) for p in singles)
        assert np.array_equal(singles, batch)
        assert predict(model, []) == predict(model, batch_of([[]], [0.0], model.dimension))[0]


class TestPredictGbrt:
    @pytest.fixture(scope="class")
    def fitted(self, small_synth):
        train, test, _ = small_synth
        enc = build_encodings(encoding_split(train))
        x, y = densify_cases(train, enc)
        model = train_gbrt(x, y, GbrtHyper(rounds=12, max_depth=4))
        return model, densify_cases(test[:300], enc)[0]

    def test_vector_equals_batch_row_and_per_tree_sum(self, fitted):
        model, xt = fitted
        f = model.forest
        total = np.full(len(xt), model.base)
        for root in f.roots:
            total += model.hyper.shrinkage * reference_tree_leaves(
                xt, f.feature, f.threshold, f.left, f.right, f.value, root)
        reference = np.clip(total, models.GBRT_CLAMP, 1.0 - models.GBRT_CLAMP)
        batch = predict(model, xt)
        assert np.array_equal(batch, reference)
        singles = [predict(model, row) for row in xt]
        assert all(isinstance(p, float) for p in singles)
        assert np.array_equal(singles, batch)

    def test_short_vector_is_dimension_mismatch(self, fitted):
        model, xt = fitted
        short = xt[0, :model.forest.max_feature]
        with pytest.raises(DimensionMismatch):
            predict(model, short)
        with pytest.raises(DimensionMismatch):
            predict(model, xt[:, :model.forest.max_feature])
        predict(model, xt[0, :model.forest.max_feature + 1])  # the highest slot read is present

    def test_scorer_is_built_by_the_first_vector(self, tmp_path, small_synth, fitted):
        # Loading a model and scoring batches compiles no one-row scorer; the
        # first vector does, once, and the model still equals one without it.
        train, test, _ = small_synth
        model, _ = fitted
        enc = build_encodings(encoding_split(train))
        CtrScorer("gbrt", model, encodings=enc).save(tmp_path)
        loaded = CtrScorer.load(tmp_path, "gbrt")
        batch = loaded.score_cases(test[:300])
        assert loaded.model.row_scorer is None
        xt = densify_cases(test[:300], enc)[0]
        assert [predict(loaded.model, row) for row in xt] == batch.tolist()
        built = loaded.model.row_scorer
        assert built is not None
        predict(loaded.model, xt[0])
        assert loaded.model.row_scorer is built
        assert loaded.model == load_gbrt(tmp_path / "model_gbrt.txt")


class TestMetrics:
    def test_auc_four_points(self):
        scores = [0.9, 0.8, 0.3, 0.2]
        labels = [1, 0, 1, 0]
        assert auc(scores, labels) == pytest.approx(0.75)
        assert pairwise_auc(scores, labels) == pytest.approx(0.75)

    def test_auc_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_auc_all_ties_is_half(self):
        assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_auc_single_class_rejected(self):
        with pytest.raises(SingleClassInput):
            auc([0.1, 0.2], [1, 1])

    def test_auc_matches_brute_force_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            scores = rng.choice([0.1, 0.2, 0.5, 0.7, 0.9], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)

    def test_auc_heavy_ties_match_pairwise_and_loop_ranks(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 400))
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=n, p=[0.7, 0.1, 0.1, 0.1])
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[-1] = 0, 1
            got = auc(scores, labels)
            assert got == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)
            # average ranks run by run, as a scalar loop assigns them
            order = np.argsort(scores, kind="mergesort")
            s = scores[order]
            ranks = np.empty(n)
            i = 0
            while i < n:
                j = i
                while j + 1 < n and s[j + 1] == s[i]:
                    j += 1
                ranks[i:j + 1] = 0.5 * (i + j) + 1.0
                i = j + 1
            n_pos = int(labels.sum())
            expect = (ranks[labels[order] == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
            assert got == expect

    @pytest.mark.parametrize("seed", range(4))
    def test_auc_matches_pairwise_on_tied_and_unbalanced_scores(self, seed):
        # Few distinct scores, some one ULP apart (distinct, not tied), in
        # random order, from balanced down to a single positive or negative.
        rng = np.random.default_rng(300 + seed)
        levels = np.array([0.0, 0.1, np.nextafter(0.1, 1.0), 0.5, 1.0])
        for n_pos in (1, 2, int(rng.integers(3, 100)), 150):
            n = 151
            scores = rng.choice(levels[:int(rng.integers(1, 6))], size=n)
            labels = np.zeros(n, dtype=np.int64)
            labels[rng.permutation(n)[:n_pos]] = 1
            expect = pairwise_auc(scores.tolist(), labels.tolist())
            assert auc(scores, labels) == pytest.approx(expect, abs=1e-12)
            assert auc(scores.tolist(), labels.astype(bool).tolist()) == auc(scores, labels)

    def test_auc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(13)
        scores = rng.random(200)
        labels = rng.integers(0, 2, size=200)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(scores ** 3, labels) == pytest.approx(base, abs=1e-12)

    def test_rmse(self):
        assert rmse([0.0, 1.0], [0, 1]) == 0.0
        assert rmse([0.5, 0.5], [1, 0]) == pytest.approx(0.5)
        assert rmse([0.2], [0]) == pytest.approx(0.2)
        with pytest.raises(EmptyInput):
            rmse([], [])


class TestSerialization:
    def test_lr_round_trip(self, tmp_path, small_synth):
        train, test, _ = small_synth
        vocab = build_vocabulary(train)
        batch = binarize_cases(train, vocab)
        model = train_lr(batch, LrHyper(0.3, 1e-6, 3, 1))
        save_lr(model, tmp_path / "lr.txt")
        loaded = load_lr(tmp_path / "lr.txt")
        assert loaded.hyper == model.hyper
        assert np.array_equal(loaded.weights, model.weights)

    def test_gbrt_round_trip(self, tmp_path, small_synth):
        train, test, _ = small_synth
        enc = build_encodings(encoding_split(train))
        x, y = densify_cases(train, enc)
        model = train_gbrt(x, y, GbrtHyper(rounds=8))
        save_gbrt(model, tmp_path / "gb.txt")
        loaded = load_gbrt(tmp_path / "gb.txt")
        assert loaded.base == model.base and loaded.hyper == model.hyper
        # trained nodes are numbered in level order and loaded ones in
        # preorder, so the node arrays differ; the file and scores may not
        save_gbrt(loaded, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == (tmp_path / "gb.txt").read_bytes()
        assert np.array_equal(loaded.forest.roots, model.forest.roots)
        assert loaded.forest.max_feature == model.forest.max_feature
        xt, _ = densify_cases(test[:200], enc)
        assert np.array_equal(predict(loaded, xt), predict(model, xt))
        assert [predict(loaded, r) for r in xt[:50]] == [predict(model, r) for r in xt[:50]]

    def test_scorer_round_trip(self, tmp_path, small_synth):
        train, test, _ = small_synth
        vocab = build_vocabulary(train)
        model = train_lr(binarize_cases(train, vocab), LrHyper(0.3, 1e-6, 3, 1))
        scorer = CtrScorer("lr", model, vocabulary=vocab)
        scorer.save(tmp_path)
        loaded = CtrScorer.load(tmp_path, "lr")
        assert np.array_equal(loaded.score_cases(test[:100]), scorer.score_cases(test[:100]))

    @pytest.mark.parametrize("load, header", [
        (load_lr, "#rtbsim-lr v1"),
        (load_gbrt, "#rtbsim-gbrt v1"),
        (Vocabulary.load, "#rtbsim-vocab v1"),
        (CategoryEncodings.load, "#rtbsim-encodings v1"),
    ])
    def test_wrong_header_named(self, tmp_path, load, header):
        (tmp_path / "f.txt").write_text("#rtbsim-other v2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"expected header '{header}', found '#rtbsim-other v2'"):
            load(tmp_path / "f.txt")

    @pytest.mark.parametrize("save, load, model, drop", [
        (save_lr, load_lr, LrModel(np.array([0.5, -1.0]), LrHyper()), "seed"),
        (save_gbrt, load_gbrt, GbrtModel(0.25, PackedForest.of([]), GbrtHyper()), "shrinkage"),
    ])
    def test_missing_hyper_key_named(self, tmp_path, save, load, model, drop):
        save(model, tmp_path / "m.txt")
        lines = (tmp_path / "m.txt").read_text(encoding="utf-8").split("\n")
        lines[2] = "\t".join(p for p in lines[2].split("\t") if not p.startswith(drop + "="))
        (tmp_path / "m.txt").write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=f"missing '{drop}'"):
            load(tmp_path / "m.txt")

    @pytest.mark.parametrize("save, load, model, key", [
        (save_lr, load_lr, LrModel(np.array([0.5, -1.0]), LrHyper()), "seed"),
        (save_gbrt, load_gbrt, GbrtModel(0.25, PackedForest.of([]), GbrtHyper()), "rounds"),
    ])
    def test_repeated_hyper_key_named(self, tmp_path, save, load, model, key):
        save(model, tmp_path / "m.txt")
        lines = (tmp_path / "m.txt").read_text(encoding="utf-8").split("\n")
        lines[2] += f"\t{key}=7"
        (tmp_path / "m.txt").write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=f"'{key}' is set more than once"):
            load(tmp_path / "m.txt")

    @pytest.mark.parametrize("save, load, model", [
        (save_lr, load_lr, LrModel(np.array([0.5, -1.0]), LrHyper())),
        (save_gbrt, load_gbrt, GbrtModel(0.25, PackedForest.of([]), GbrtHyper())),
    ])
    def test_wrong_hyper_label_named(self, tmp_path, save, load, model):
        save(model, tmp_path / "m.txt")
        lines = (tmp_path / "m.txt").read_text(encoding="utf-8").split("\n")
        lines[2] = lines[2].replace("hyper\t", "weights\t", 1)
        (tmp_path / "m.txt").write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=r"expected a 'hyper' line, found 'weights\\t"):
            load(tmp_path / "m.txt")

    @pytest.mark.parametrize("load, header, labels", [
        (load_lr, "#rtbsim-lr v1", "dimension"),
        (load_gbrt, "#rtbsim-gbrt v1", "base"),
        (Vocabulary.load, "#rtbsim-vocab v1", "dimension"),
        (CategoryEncodings.load, "#rtbsim-encodings v1", "prior alpha beta"),
    ])
    def test_file_cut_after_header_named(self, tmp_path, load, header, labels):
        (tmp_path / "f.txt").write_text(header + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"expected a '{labels}' line, found ''"):
            load(tmp_path / "f.txt")

    LR_FILE_WEIGHTS = np.array([0.5, -1.0, 0.0, 2.0])  # lines 4-6 of its file

    # The file's own dimension, 4, in decimal digits that are not ASCII:
    # Arabic-Indic and fullwidth, which str.isdecimal and int accept.
    @pytest.mark.parametrize("dimension", ["x", "-1", "0", "\u0664", "\uff14"],
                             ids=["x", "-1", "0", "arabic-indic-4", "fullwidth-4"])
    def test_lr_bad_dimension_named(self, tmp_path, dimension):
        # 0 would load a model without its bias weight
        path = tmp_path / "lr.txt"
        save_lr(LrModel(self.LR_FILE_WEIGHTS, LrHyper()), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[1] = f"dimension\t{dimension}"
        path.write_text("\n".join(lines), encoding="utf-8")
        expected = rf"line 2: expected 'dimension\\t<integer >= 1>', found 'dimension\\t{dimension}'"
        with pytest.raises(ValueError, match=f"^{expected}$"):
            load_lr(path)

    # The rows from "arabic-indic index" on are numbers that int and float
    # read but the writers never write.
    @pytest.mark.parametrize("line", ["-1\t0.25", "7\t0.25", "2 0.25", "2\tnan", "2\tinf", "2\t-inf",
                                      "\u0662\t0.5", "+2\t0.5", " 2\t0.5", "0_2\t0.5",
                                      "2\t1_0.5", "2\t 0.5", "2\t0.5 ", "2\t\u0660.\u0665"],
                             ids=["negative index", "index past dimension", "no tab", "nan weight",
                                  "inf weight", "-inf weight", "arabic-indic index", "signed index",
                                  "spaced index", "underscored index", "underscored weight",
                                  "leading space weight", "trailing space weight", "arabic-indic weight"])
    def test_lr_bad_weight_line_named(self, tmp_path, line):
        path = tmp_path / "lr.txt"
        save_lr(LrModel(self.LR_FILE_WEIGHTS, LrHyper()), path)
        with open(path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        expected = rf"line 7: expected '<index in \[0, 4\)>\\t<weight>', found {re.escape(repr(line))}"
        with pytest.raises(ValueError, match=f"^{expected}$"):
            load_lr(path)

    # A hyper pair as int and float read it, stripped, but as the writers
    # never write it: digits of another script, a sign, underscores and
    # whitespace around the name or the value.
    @pytest.mark.parametrize("kind, written, edited", [
        ("lr", "epochs=5", "epochs=\u0663"), ("lr", "seed=0", "seed=+7"), ("lr", "seed=0", "seed=0_0"),
        ("lr", "l2=1e-06", "l2=1_0.5"), ("lr", "learning_rate=0.05", "learning_rate= 0.5"),
        ("lr", "l2=1e-06", " l2=1e-6"), ("lr", "epochs=5", "epochs=5 "),
        ("gbrt", "rounds=50", "rounds=+5"), ("gbrt", "shrinkage=0.05", "shrinkage=0.0_5"),
        ("gbrt", "shrinkage=0.05", "shrinkage=\u0660.\u0665"), ("gbrt", "max_depth=5", "max_depth=\uff15"),
        ("gbrt", "min_leaf=20", "min_leaf=20\u00a0"), ("gbrt", "min_leaf=20", " min_leaf=20"),
    ], ids=["arabic-indic epochs", "signed seed", "underscored seed", "underscored l2", "spaced learning_rate",
            "spaced l2 name", "trailing space epochs", "signed rounds", "underscored shrinkage",
            "arabic-indic shrinkage", "fullwidth max_depth", "no-break space min_leaf", "spaced min_leaf name"])
    def test_hyper_pair_not_as_written_named(self, tmp_path, kind, written, edited):
        save, load, model = {"lr": (save_lr, load_lr, LrModel(self.LR_FILE_WEIGHTS, LrHyper())),
                             "gbrt": (save_gbrt, load_gbrt, GbrtModel(0.25, PackedForest.of([]), GbrtHyper()))}[kind]
        save(model, tmp_path / "m.txt")
        lines = (tmp_path / "m.txt").read_text(encoding="utf-8").split("\n")
        assert written in lines[2].split("\t")
        lines[2] = lines[2].replace(written, edited)
        (tmp_path / "m.txt").write_text("\n".join(lines), encoding="utf-8")
        name, _, text = edited.partition("=")
        named = (f"has no scalar field {name!r}" if name != name.strip()
                 else f"{name}={text!r} is not a valid ")
        with pytest.raises(ValueError, match=f"^line 3: .*{re.escape(named)}"):
            load(tmp_path / "m.txt")

    @staticmethod
    def _gbrt_lines(tmp_path) -> list[str]:
        """A two-tree model file whose trees both split, as lines."""
        x = np.arange(40, dtype=np.float64).reshape(-1, 1)
        y = (x[:, 0] >= 20).astype(np.float64)
        save_gbrt(train_gbrt(x, y, GbrtHyper(rounds=2, max_depth=2, min_leaf=2)), tmp_path / "gb.txt")
        lines = (tmp_path / "gb.txt").read_text(encoding="utf-8").splitlines()
        assert lines[3].startswith("tree\t") and lines[4].startswith("split\t0\t")
        return lines

    @staticmethod
    def _load_gbrt_lines(tmp_path, lines):
        (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return load_gbrt(tmp_path / "bad.txt")

    def test_gbrt_truncated_tree_named(self, tmp_path):
        lines = self._gbrt_lines(tmp_path)
        with pytest.raises(ValueError, match="^tree 1: the file ends inside the tree$"):
            self._load_gbrt_lines(tmp_path, lines[:-1])

    def test_gbrt_wrong_node_count_named(self, tmp_path):
        lines = self._gbrt_lines(tmp_path)
        n = int(lines[3].split("\t")[1])
        lines[3] = f"tree\t{n + 2}"
        with pytest.raises(ValueError, match=f"^tree 0: its header says {n + 2} nodes, but it lists {n}$"):
            self._load_gbrt_lines(tmp_path, lines)

    # The tree's own node count in digits that are not ASCII: Arabic-Indic
    # and fullwidth, which str.isdigit and int accept, and superscript, which
    # str.isdigit accepts and int does not.
    @pytest.mark.parametrize("digits", ["\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                                        "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19",
                                        "\u2070\u00b9\u00b2\u00b3\u2074\u2075\u2076\u2077\u2078\u2079"],
                             ids=["arabic-indic", "fullwidth", "superscript"])
    def test_gbrt_tree_count_in_other_digits_named(self, tmp_path, digits):
        lines = self._gbrt_lines(tmp_path)
        lines[3] = lines[3].translate(str.maketrans("0123456789", digits))
        expected = rf"tree 0: line 4: expected 'tree\\t<nodes>', found {re.escape(repr(lines[3]))}"
        with pytest.raises(ValueError, match=f"^{expected}$"):
            self._load_gbrt_lines(tmp_path, lines)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", ["base", "threshold", "leaf"])
    def test_gbrt_non_finite_float_named(self, tmp_path, kind, text):
        # a nan base would score nan, and a nan threshold send every row right
        lines = self._gbrt_lines(tmp_path)
        at = {"base": 1, "threshold": 4,
              "leaf": next(i for i, ln in enumerate(lines) if ln.startswith("leaf\t"))}[kind]
        lines[at] = lines[at].rpartition("\t")[0] + "\t" + text
        expected = (rf"line 2: expected 'base\\t<finite float>', found 'base\\t{text}'"
                    if kind == "base" else rf"tree 0: line {at + 1}: expected .* found "
                    + re.escape(repr(lines[at])))
        with pytest.raises(ValueError, match=f"^{expected}$"):
            self._load_gbrt_lines(tmp_path, lines)

    # Numbers that int and float read but the writers never write: digits
    # of another script, a sign on a feature, whitespace and underscores.
    @pytest.mark.parametrize("kind, text", [
        ("feature", "\u0660"), ("feature", "\uff10"), ("feature", "+0"), ("feature", " 0"),
        ("feature", "0 "), ("feature", "0_0"),
        ("threshold", "\u0661\u0669.\u0665"), ("threshold", "1_9.5"), ("threshold", " 19.5"),
        ("leaf", "0.2_5"), ("leaf", "0.25 "), ("leaf", "\u0660.\u0662\u0665"),
        ("base", "0.5_0"), ("base", " 0.5"), ("base", "\u0660.\u0665"),
    ])
    def test_gbrt_number_not_as_written_named(self, tmp_path, kind, text):
        lines = self._gbrt_lines(tmp_path)
        at = {"base": 1, "feature": 4, "threshold": 4,
              "leaf": next(i for i, ln in enumerate(lines) if ln.startswith("leaf\t"))}[kind]
        parts = lines[at].split("\t")
        parts[1 if kind == "feature" else -1] = text
        lines[at] = "\t".join(parts)
        expected = (re.escape(f"line 2: expected 'base\\t<finite float>', found {lines[at]!r}")
                    if kind == "base" else rf"tree 0: line {at + 1}: expected .* found "
                    + re.escape(repr(lines[at])))
        with pytest.raises(ValueError, match=f"^{expected}$"):
            self._load_gbrt_lines(tmp_path, lines)

    def test_gbrt_negative_split_feature_named(self, tmp_path):
        lines = self._gbrt_lines(tmp_path)
        lines[4] = lines[4].replace("split\t0\t", "split\t-2\t")
        with pytest.raises(ValueError, match=r"^tree 0: line 5: expected .* found 'split\\t-2\\t"):
            self._load_gbrt_lines(tmp_path, lines)

    def test_lr_repeated_index_named(self, tmp_path):
        path = tmp_path / "lr.txt"
        save_lr(LrModel(self.LR_FILE_WEIGHTS, LrHyper()), path)
        with open(path, "a", encoding="utf-8") as f:
            f.write("1\t0.7\n")
        with pytest.raises(ValueError, match="^line 7: index 1 is listed twice$"):
            load_lr(path)

    @staticmethod
    def _hand_gbrt_lines(max_depth, tree) -> list[str]:
        # the hyper line by hand: GbrtHyper itself refuses a max_depth past 20
        hyper = f"hyper\trounds=1\tshrinkage=1.0\tmax_depth={max_depth}\tmin_leaf=20"
        return ["#rtbsim-gbrt v1", "base\t0.0", hyper, f"tree\t{len(tree)}", *tree]

    @staticmethod
    def _chain(depth) -> list[str]:
        """Split i sends x <= i + 0.5 to a leaf of (i + 1) / 64; the last
        right child is the leaf (depth + 1) / 64."""
        return [ln for i in range(depth) for ln in (f"split\t0\t{i + 0.5!r}",
                                                    f"leaf\t{(i + 1) / 64!r}")] + [
            f"leaf\t{(depth + 1) / 64!r}"]

    def test_gbrt_deep_chain_reads_without_recursion(self, tmp_path):
        # a chain at the largest max_depth, 20
        lines = self._hand_gbrt_lines(20, self._chain(20))
        model = self._load_gbrt_lines(tmp_path, lines)
        f = model.forest
        assert len(f.feature) == 41 and f.roots.tolist() == [0]
        rows = np.array([[0.0], [7.0], [19.0], [5000.0]])
        leaves = reference_tree_leaves(rows, f.feature, f.threshold, f.left, f.right, f.value)
        assert leaves.tolist() == [1 / 64, 8 / 64, 20 / 64, 21 / 64]
        assert [predict(model, row) for row in rows] == (0.0 + 1.0 * leaves).tolist()
        # and writes it back, byte for byte
        save_gbrt(model, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == (tmp_path / "bad.txt").read_bytes()

    def test_gbrt_max_depth_past_20_named(self, tmp_path):
        # a 1,200-split chain would need max_depth=1200
        lines = self._hand_gbrt_lines(1200, self._chain(1200))
        with pytest.raises(ValueError, match=r"^GbrtHyper: max_depth=1200 is not >= 0 and <= 20$"):
            self._load_gbrt_lines(tmp_path, lines)

    def test_gbrt_split_at_max_depth_named(self, tmp_path):
        tree = ["split\t0\t0.5", "split\t0\t0.25", "leaf\t1.0", "leaf\t2.0", "leaf\t3.0"]
        assert len(self._load_gbrt_lines(tmp_path, self._hand_gbrt_lines(2, tree)).forest.feature) == 5
        with pytest.raises(ValueError, match="^tree 0: line 6: a split at depth 1, but max_depth is 1$"):
            self._load_gbrt_lines(tmp_path, self._hand_gbrt_lines(1, tree))

    def test_scores_csv(self, tmp_path):
        models.write_scores_csv(["a", "b"], [0.25, 0.5], tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines == ["bid_id,pctr", "a,0.25", "b,0.5"]


def test_evaluate_report(tmp_path):
    report = evaluate([0.9, 0.1], [1, 0])
    assert report.auc == 1.0 and report.n == 2
    report.save(tmp_path / "eval.txt")
    text = (tmp_path / "eval.txt").read_text()
    assert "auc=1.0" in text and "n=2" in text
