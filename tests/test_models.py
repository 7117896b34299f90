from __future__ import annotations

import math

import numpy as np
import pytest

from rtbsim import kernels, models, synthgen
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

from oracles import finite_difference_gradient, pairwise_auc, reference_lr_loss


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
        for tree in model.trees:
            assert len(tree.feature) == 1 and tree.left[0] == -1
            assert tree.value[0] == 0.0
        assert model.train_mse == [0.0] * 5

    def test_step_function_exact_split(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        model = train_gbrt(x, y, GbrtHyper(rounds=1, shrinkage=1.0, max_depth=1, min_leaf=1))
        tree = model.trees[0]
        # exhaustive check: every candidate midpoint scored by hand
        best = None
        for t in (1.5, 2.5, 3.5, 4.5):
            left = y[x[:, 0] <= t]
            right = y[x[:, 0] > t]
            sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            if best is None or sse < best[0]:
                best = (sse, t)
        assert tree.threshold[0] == best[1] == 3.5
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
        for tree in model.trees:
            # depth-2 tree has at most 7 nodes
            assert len(tree.feature) <= 7

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
        assert m1.trees == m2.trees and m1.train_mse == m2.train_mse

    def test_kernel_forms_grow_equal_ensembles(self, monkeypatch):
        train, _, _ = synthgen.generate(synthgen.SynthConfig(seed=5, n_train=400, n_test=10,
                                                             base_ctr=0.1))
        x, y = densify_cases(train, build_encodings(encoding_split(train)))
        hyper = GbrtHyper(rounds=5, min_leaf=5)
        fits = []
        for form in ("loop", "numpy"):
            monkeypatch.setattr(kernels, "grow_tree", getattr(kernels, f"grow_tree_{form}"))
            monkeypatch.setattr(kernels, "apply_tree", getattr(kernels, f"apply_tree_{form}"))
            fits.append(train_gbrt(x, y, hyper))
        loop, numpy_ = fits
        assert any(len(t.feature) > 1 for t in loop.trees)
        assert loop.trees == numpy_.trees and loop.train_mse == numpy_.train_mse


class TestPredict:
    def test_lr_zero_weights_is_half(self):
        model = LrModel(np.zeros(5), LrHyper())
        assert predict(model, np.array([1, 2])) == 0.5

    def test_gbrt_no_trees_is_base(self):
        model = GbrtModel(0.001, [], GbrtHyper())
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
        gb = GbrtModel(5.0, [], GbrtHyper())  # base outside [0,1] gets clamped
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

    def test_valid_edges_and_empty_rows_pass(self):
        batch = batch_of([[], [1, 2], [2], []], [0.0, 1.0, 1.0, 0.0], dim=3)
        model = train_lr(batch, LrHyper(epochs=3))
        assert predict(model, batch).shape == (4,)


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
        total = np.full(len(xt), model.base)
        for t in model.trees:
            total += model.hyper.shrinkage * kernels.apply_tree(
                xt, t.feature, t.threshold, t.left, t.right, t.value)
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
        # preorder listing renumbers nodes; the trees must stay equivalent
        assert [len(t.feature) for t in loaded.trees] == [len(t.feature) for t in model.trees]
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
        (save_gbrt, load_gbrt, GbrtModel(0.25, [], GbrtHyper()), "shrinkage"),
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
        (save_gbrt, load_gbrt, GbrtModel(0.25, [], GbrtHyper()), "rounds"),
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
        (save_gbrt, load_gbrt, GbrtModel(0.25, [], GbrtHyper())),
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
