"""CTR estimators and their evaluation.

Two model families share one predict contract: an L2-regularized logistic
regression trained by SGD on sparse one-hot rows, and gradient-boosted
regression trees (squared-error boosting on the 0/1 click label) on dense
encoded rows.  AUC here is the Mann-Whitney rank statistic with half
credit for ties, so it agrees exactly with a pairwise count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels, kvfile
from .features import (
    CategoryEncodings,
    SparseBatch,
    Vocabulary,
    binarize_cases,
    densify_cases,
)

__all__ = [
    "LrHyper",
    "LrModel",
    "GbrtHyper",
    "Tree",
    "PackedForest",
    "GbrtModel",
    "EvalReport",
    "CtrScorer",
    "NonBinaryLabel",
    "DivergenceDetected",
    "InsufficientData",
    "DimensionMismatch",
    "SingleClassInput",
    "EmptyInput",
    "train_lr",
    "lr_gradient",
    "lr_loss",
    "train_gbrt",
    "predict",
    "auc",
    "rmse",
    "evaluate",
]

LR_CLAMP = 1e-12
GBRT_CLAMP = 1e-6


class NonBinaryLabel(ValueError):
    pass


class DivergenceDetected(RuntimeError):
    pass


class InsufficientData(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class SingleClassInput(ValueError):
    pass


class EmptyInput(ValueError):
    pass


def _check_labels(labels: np.ndarray) -> None:
    if labels.size == 0:
        raise EmptyInput("need at least one example")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise NonBinaryLabel("labels must be 0 or 1")


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------

@dataclass
class LrHyper:
    learning_rate: float = 0.01  # decayed as lr / sqrt(t)
    l2: float = 1e-6
    epochs: int = 1
    seed: int = 0


@dataclass
class LrModel:
    weights: np.ndarray  # index 0 is the bias
    hyper: LrHyper

    @property
    def dimension(self) -> int:
        return len(self.weights)


def _check_indices(batch: SparseBatch) -> None:
    """Every feature index of a batch lies in [1, dimension): index 0 is the
    bias, which no row lists, and numpy would read a negative index, or the
    SGD kernel update one, from the end of the weights."""
    idx = batch.indices
    if idx.size and (idx.min() < 1 or idx.max() >= batch.dimension):
        at = int(np.flatnonzero((idx < 1) | (idx >= batch.dimension))[0])
        row = int(np.searchsorted(batch.indptr, at, side="right")) - 1
        raise DimensionMismatch(
            f"row {row}: feature index {int(idx[at])} outside [1, {batch.dimension})"
        )


def train_lr(batch: SparseBatch, hyper: LrHyper | None = None) -> LrModel:
    """SGD over cross-entropy with an L2 penalty on the non-bias weights.

    The L2 term is applied as a proximal shrink (w /= 1 + lr*l2) after each
    gradient step, which stays stable for arbitrarily large l2: in the
    l2 -> inf limit the non-bias weights go to zero instead of diverging.
    Deterministic given the seed; non-finite weights abort.
    """
    hyper = hyper or LrHyper()
    _check_labels(batch.labels)
    _check_indices(batch)
    rng = np.random.Generator(np.random.PCG64(hyper.seed))
    n = len(batch)
    v = np.zeros(batch.dimension - 1, dtype=np.float64)
    w0, s, t = 0.0, 1.0, 0
    for _ in range(hyper.epochs):
        order = rng.permutation(n).astype(np.int64)
        w0, s, t = kernels.sgd_epoch(
            batch.indptr, batch.indices, batch.labels, v, order,
            w0, s, t, hyper.learning_rate, hyper.l2,
        )
        if not (math.isfinite(w0) and math.isfinite(s) and np.isfinite(v).all()):
            raise DivergenceDetected("non-finite weights during SGD")
    weights = np.empty(batch.dimension, dtype=np.float64)
    weights[0] = w0
    weights[1:] = v * s
    if not np.isfinite(weights).all():
        raise DivergenceDetected("non-finite weights after training")
    return LrModel(weights, hyper)


def _margins(model: LrModel, batch: SparseBatch) -> np.ndarray:
    if batch.dimension != model.dimension:
        raise DimensionMismatch(
            f"batch dimension {batch.dimension} != model dimension {model.dimension}"
        )
    _check_indices(batch)
    n = len(batch)
    row_ids = np.repeat(np.arange(n), np.diff(batch.indptr))
    m = np.bincount(row_ids, weights=model.weights[batch.indices], minlength=n)
    return m + model.weights[0]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lr_loss(model: LrModel, batch: SparseBatch) -> float:
    """Mean cross-entropy plus (l2/2)*||w[1:]||^2; the quantity SGD descends."""
    _check_labels(batch.labels)
    p = np.clip(_sigmoid(_margins(model, batch)), 1e-300, 1.0 - 1e-16)
    ce = -np.mean(batch.labels * np.log(p) + (1.0 - batch.labels) * np.log(1.0 - p))
    reg = 0.5 * model.hyper.l2 * float(model.weights[1:] @ model.weights[1:])
    return float(ce + reg)


def lr_gradient(model: LrModel, batch: SparseBatch) -> np.ndarray:
    """Analytic gradient of :func:`lr_loss` with respect to the weights."""
    _check_labels(batch.labels)
    n = len(batch)
    p = _sigmoid(_margins(model, batch))
    err = (p - batch.labels) / n
    grad = np.zeros(model.dimension, dtype=np.float64)
    grad[0] = err.sum()
    row_ids = np.repeat(np.arange(n), np.diff(batch.indptr))
    np.add.at(grad, batch.indices, err[row_ids])
    grad[1:] += model.hyper.l2 * model.weights[1:]
    return grad


# ---------------------------------------------------------------------------
# Gradient-boosted regression trees
# ---------------------------------------------------------------------------

@dataclass
class GbrtHyper:
    rounds: int = 50
    shrinkage: float = 0.05
    max_depth: int = 5
    min_leaf: int = 20


@dataclass
class Tree:
    """Flat node arrays; left < 0 marks a leaf whose output is value."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("feature", "threshold", "left", "right", "value")
        )


@dataclass(frozen=True, eq=False)
class PackedForest:
    """An ensemble's trees in one set of flat node arrays.

    Tree t's nodes start at ``roots[t]``, and child indices are global, so
    :func:`kernels.apply_forest` scores every tree in one call.
    ``max_feature`` is the largest feature slot that any split reads (-1 if
    none).  ``nodes`` holds feature, threshold, left, right, value and roots
    again in the form :func:`kernels.apply_forest_row` walks one row over,
    made once here: plain-list copies without numba, the arrays with it.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    max_feature: int
    nodes: tuple = field(repr=False)

    @classmethod
    def of(cls, trees: list[Tree]) -> "PackedForest":
        sizes = np.array([len(t.feature) for t in trees], dtype=np.int64)
        roots = np.cumsum(sizes) - sizes

        def cat(arrays, dtype):
            return np.concatenate([np.empty(0, dtype), *arrays], dtype=dtype)

        feature = cat([t.feature for t in trees], np.int64)
        left = cat([np.where(t.left >= 0, t.left + r, -1) for t, r in zip(trees, roots)], np.int64)
        right = cat([np.where(t.right >= 0, t.right + r, -1) for t, r in zip(trees, roots)], np.int64)
        threshold = cat([t.threshold for t in trees], np.float64)
        value = cat([t.value for t in trees], np.float64)
        nodes = tuple(map(kernels.row_operand, (feature, threshold, left, right, value, roots)))
        return cls(feature, threshold, left, right, value, roots,
                   int(feature.max(initial=-1)), nodes)


@dataclass
class GbrtModel:
    """``forest`` packs ``trees`` once, when the model is made; the tree
    list is not meant to change afterwards."""

    base: float
    trees: list[Tree]
    hyper: GbrtHyper
    train_mse: list[float] = field(default_factory=list)  # after each round
    forest: PackedForest = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.forest = PackedForest.of(self.trees)


def train_gbrt(x: np.ndarray, y: np.ndarray, hyper: GbrtHyper | None = None) -> GbrtModel:
    """Fit one depth-limited tree per round to the squared-loss residuals.

    Split search is exact greedy over midpoints of consecutive distinct
    values, ties broken toward the lowest feature then lowest threshold.
    Training MSE is recorded per round and is non-increasing.
    """
    hyper = hyper or GbrtHyper()
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_labels(y)
    if hyper.min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    if len(y) < hyper.min_leaf:
        raise InsufficientData(f"need at least min_leaf={hyper.min_leaf} examples, got {len(y)}")
    sorted_ids = np.argsort(x, axis=0, kind="stable").T.copy()
    sorted_vals = np.take_along_axis(x.T, sorted_ids, axis=1)  # the same for every round
    base = float(np.mean(y))
    pred = np.full(len(y), base)
    trees: list[Tree] = []
    mse: list[float] = []
    for _ in range(hyper.rounds):
        resid = y - pred
        tree = kernels.grow_tree(x, sorted_ids, sorted_vals, resid, hyper.min_leaf,
                                 hyper.max_depth)
        trees.append(Tree(*tree))
        pred = pred + hyper.shrinkage * kernels.apply_tree(x, *tree)
        mse.append(float(np.mean((y - pred) ** 2)))
    return GbrtModel(base, trees, hyper, mse)


# ---------------------------------------------------------------------------
# Unified prediction
# ---------------------------------------------------------------------------

def predict(model, features):
    """Predicted click probability, strictly inside (0, 1).

    LR takes a sparse index vector or a :class:`SparseBatch`; GBRT takes a
    dense vector or matrix.  Scalar in, scalar out; batch in, array out.
    A vector's score equals its row of the batch's, bit for bit.
    """
    if isinstance(model, LrModel):
        if isinstance(features, SparseBatch):
            p = _sigmoid(_margins(model, features))
            return np.clip(p, LR_CLAMP, 1.0 - LR_CLAMP)
        try:
            terms = model.weights.take(np.asarray(features, dtype=np.int64)).tolist()
        except IndexError as e:
            raise DimensionMismatch(f"feature {e}") from None
        # The batch's float operations on one row, as plain Python: the
        # weights added in sequence from 0.0 (bincount's order; builtin sum
        # compensates from Python 3.12 on), then the bias, then _sigmoid's
        # branch with np.exp, whose last bit math.exp does not always match.
        m = 0.0
        for w in terms:
            m += w
        m += float(model.weights[0])
        if m >= 0.0:
            p = 1.0 / (1.0 + float(np.exp(-m)))
        else:
            em = float(np.exp(m))
            p = em / (1.0 + em)
        return min(max(p, LR_CLAMP), 1.0 - LR_CLAMP)
    if isinstance(model, GbrtModel):
        arr = np.asarray(features, dtype=np.float64)
        f = model.forest
        if arr.shape[-1] <= f.max_feature:
            raise DimensionMismatch("dense vector shorter than tree feature slots")
        base, shrinkage = float(model.base), float(model.hyper.shrinkage)
        if arr.ndim == 1:
            s = kernels.apply_forest_row(kernels.row_operand(arr), *f.nodes, base, shrinkage)
            return min(max(s, GBRT_CLAMP), 1.0 - GBRT_CLAMP)
        total = kernels.apply_forest(np.ascontiguousarray(arr), f.feature, f.threshold, f.left,
                                     f.right, f.value, f.roots, base, shrinkage)
        return np.clip(total, GBRT_CLAMP, 1.0 - GBRT_CLAMP)
    raise TypeError(f"unsupported model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def auc(scores, labels) -> float:
    """P(score+ > score-) + 0.5 P(score+ = score-) via average ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.size == 0:
        raise EmptyInput("auc of empty input")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInput("auc needs at least one positive and one negative label")
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))  # each run of ties
    last = np.append(first[1:], len(s)) - 1
    ranks = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)  # mean 1-based rank
    pos_rank_sum = ranks[np.asarray(labels)[order] == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def rmse(predictions, labels) -> float:
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.size == 0:
        raise EmptyInput("rmse of empty input")
    return float(np.sqrt(np.mean((p - y) ** 2)))


@dataclass
class EvalReport:
    auc: float
    rmse: float
    n: int

    def save(self, path) -> None:
        Path(path).write_text("\n".join(kvfile.dump(self)) + "\n", encoding="utf-8")


def evaluate(scores, labels) -> EvalReport:
    return EvalReport(auc(scores, labels), rmse(scores, labels), int(len(labels)))


# ---------------------------------------------------------------------------
# Scoring bundle and serialization
# ---------------------------------------------------------------------------

@dataclass
class CtrScorer:
    """A trained model with the feature pipeline needed to score raw cases."""

    kind: str  # "lr" | "gbrt"
    model: LrModel | GbrtModel
    vocabulary: Vocabulary | None = None
    encodings: CategoryEncodings | None = None

    def score_cases(self, cases) -> np.ndarray:
        if self.kind == "lr":
            batch = binarize_cases(cases, self.vocabulary)
            return predict(self.model, batch)
        return predict(self.model, densify_cases(cases, self.encodings)[0])

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if self.kind == "lr":
            self.vocabulary.save(directory / "vocab.txt")
            save_lr(self.model, directory / "model_lr.txt")
        else:
            self.encodings.save(directory / "encodings.txt")
            save_gbrt(self.model, directory / "model_gbrt.txt")

    @classmethod
    def load(cls, directory, kind: str) -> "CtrScorer":
        directory = Path(directory)
        if kind == "lr":
            return cls("lr", load_lr(directory / "model_lr.txt"),
                       vocabulary=Vocabulary.load(directory / "vocab.txt"))
        if kind == "gbrt":
            return cls("gbrt", load_gbrt(directory / "model_gbrt.txt"),
                       encodings=CategoryEncodings.load(directory / "encodings.txt"))
        raise ValueError(f"unknown model kind {kind!r}")


def save_lr(model: LrModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("#rtbsim-lr v1\n")
        f.write(f"dimension\t{model.dimension}\n")
        f.write("\t".join(["hyper", *kvfile.dump(model.hyper)]) + "\n")
        for i in np.flatnonzero(model.weights):
            f.write(f"{i}\t{float(model.weights[i])!r}\n")
        if model.weights[0] == 0.0:
            f.write(f"0\t{0.0!r}\n")


def load_lr(path) -> LrModel:
    with open(path, encoding="utf-8") as f:
        kvfile.check_header(f, "#rtbsim-lr v1")
        dim = int(kvfile.read_labeled(f, "dimension")[0])
        hyper = kvfile.read_fields(f, "hyper", LrHyper)
        w = np.zeros(dim, dtype=np.float64)
        for line in f:
            idx, wv = line.split("\t")
            w[int(idx)] = float(wv)
    return LrModel(w, hyper)


def _write_tree_preorder(f, tree: Tree, node: int) -> None:
    if tree.left[node] < 0:
        f.write(f"leaf\t{float(tree.value[node])!r}\n")
    else:
        f.write(f"split\t{tree.feature[node]}\t{float(tree.threshold[node])!r}\n")
        _write_tree_preorder(f, tree, int(tree.left[node]))
        _write_tree_preorder(f, tree, int(tree.right[node]))


def _read_tree_preorder(lines: list[str], pos: int, nodes: list) -> tuple[int, int]:
    parts = lines[pos].split("\t")
    my_id = len(nodes)
    nodes.append(None)
    if parts[0] == "leaf":
        nodes[my_id] = (-1, 0.0, -1, -1, float(parts[1]))
        return my_id, pos + 1
    left_id, pos = _read_tree_preorder(lines, pos + 1, nodes)
    right_id, pos = _read_tree_preorder(lines, pos, nodes)
    nodes[my_id] = (int(parts[1]), float(parts[2]), left_id, right_id, 0.0)
    return my_id, pos


def save_gbrt(model: GbrtModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("#rtbsim-gbrt v1\n")
        f.write(f"base\t{model.base!r}\n")
        f.write("\t".join(["hyper", *kvfile.dump(model.hyper)]) + "\n")
        for tree in model.trees:
            f.write(f"tree\t{len(tree.feature)}\n")
            _write_tree_preorder(f, tree, 0)


def load_gbrt(path) -> GbrtModel:
    with open(path, encoding="utf-8") as f:
        kvfile.check_header(f, "#rtbsim-gbrt v1")
        base = float(kvfile.read_labeled(f, "base")[0])
        hyper = kvfile.read_fields(f, "hyper", GbrtHyper)
        lines = [ln.rstrip("\n") for ln in f]
    trees: list[Tree] = []
    pos = 0
    while pos < len(lines):
        if not lines[pos].startswith("tree\t"):
            raise ValueError(f"expected a tree header, got {lines[pos]!r}")
        pos += 1
        nodes: list = []
        _, pos = _read_tree_preorder(lines, pos, nodes)
        trees.append(Tree(
            feature=np.array([n[0] for n in nodes], dtype=np.int64),
            threshold=np.array([n[1] for n in nodes], dtype=np.float64),
            left=np.array([n[2] for n in nodes], dtype=np.int64),
            right=np.array([n[3] for n in nodes], dtype=np.int64),
            value=np.array([n[4] for n in nodes], dtype=np.float64),
        ))
    return GbrtModel(base, trees, hyper)


def write_scores_csv(bid_ids, scores, path) -> None:
    """Decoupled-evaluation output: one (bid_id, pctr) row per case."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("bid_id,pctr\n")
        for bid_id, s in zip(bid_ids, scores):
            f.write(f"{bid_id},{float(s)!r}\n")
