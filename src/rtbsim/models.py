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
    DimensionMismatch,
    SparseBatch,
    Vocabulary,
    binarize_cases,
    densify_cases,
    index_array,
)

__all__ = [
    "LrHyper",
    "LrModel",
    "GbrtHyper",
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


class SingleClassInput(ValueError):
    pass


class EmptyInput(ValueError):
    pass


def _check_labels(labels: np.ndarray) -> None:
    if labels.size == 0:
        raise EmptyInput("need at least one example")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise NonBinaryLabel("labels must be 0 or 1")


# Hyperparameter -> (its range in words, the test); the LR seed takes any
# value that numpy's PCG64 does.
_RANGES = {
    "learning_rate": ("finite and > 0", lambda v: math.isfinite(v) and v > 0),
    "l2": ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0),
    "epochs": (">= 1", lambda v: v >= 1),
    "rounds": (">= 1", lambda v: v >= 1),
    "shrinkage": ("finite and > 0", lambda v: math.isfinite(v) and v > 0),
    # Each level nests one more parenthesis in the source of the one-row
    # scorer (kernels.compile_forest_row).
    "max_depth": (">= 0 and <= 20", lambda v: 0 <= v <= 20),
    "min_leaf": (">= 1", lambda v: v >= 1),
}


def _check_ranges(hyper) -> None:
    """One ValueError naming each field of ``hyper`` outside its range, for
    the flags of train-ctr and the ``hyper`` line of a model file alike."""
    bad = [f"{name}={value!r} is not {_RANGES[name][0]}"
           for name, value in vars(hyper).items()
           if name in _RANGES and not _RANGES[name][1](value)]
    if bad:
        raise ValueError(f"{type(hyper).__name__}: {'; '.join(bad)}")


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------

@dataclass
class LrHyper:
    learning_rate: float = 0.05  # decayed as lr / sqrt(t)
    l2: float = 1e-6
    epochs: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        _check_ranges(self)


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
    Each epoch is one :func:`kernels.sgd_epoch` over list copies of the
    batch, made once per fit.  Deterministic given the seed; non-finite
    weights abort.
    """
    hyper = hyper or LrHyper()
    _check_labels(batch.labels)
    _check_indices(batch)
    rng = np.random.Generator(np.random.PCG64(hyper.seed))
    n = len(batch)
    # The kernel's list operands, copied once for every epoch; v is updated in place.
    indptr, indices, labels, v = (a.tolist() for a in (
        batch.indptr, batch.indices, batch.labels, np.zeros(batch.dimension - 1)))
    w0, s, t = 0.0, 1.0, 0
    for _ in range(hyper.epochs):
        order = rng.permutation(n).astype(np.int64)
        w0, s, t = kernels.sgd_epoch(
            indptr, indices, labels, v, order, w0, s, t, hyper.learning_rate, hyper.l2,
        )
        if not (math.isfinite(w0) and math.isfinite(s) and np.isfinite(v).all()):
            raise DivergenceDetected("non-finite weights during SGD")
    weights = np.empty(batch.dimension, dtype=np.float64)
    weights[0] = w0
    weights[1:] = np.asarray(v) * s
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
    row_ids = np.repeat(np.arange(n), np.diff(batch.indptr))
    grad = np.bincount(batch.indices, weights=err[row_ids], minlength=model.dimension)
    grad = grad.astype(np.float64, copy=False)  # int64 when no row lists an index
    grad[0] = err.sum()
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

    def __post_init__(self) -> None:
        _check_ranges(self)


@dataclass(frozen=True, eq=False)
class PackedForest:
    """An ensemble's trees in one set of flat node arrays.

    Tree t's nodes start at ``roots[t]`` and end where the next tree's
    start; child indices are global, and ``left < 0`` marks a leaf whose
    output is ``value``, so :func:`kernels.apply_forest` scores every tree
    in one call.  ``max_feature`` is the largest feature slot that any split
    reads (-1 if none).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    max_feature: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_feature", int(self.feature.max(initial=-1)))

    def _arrays(self) -> tuple:
        return self.feature, self.threshold, self.left, self.right, self.value, self.roots

    def __eq__(self, other) -> bool:
        return isinstance(other, PackedForest) and all(
            np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays()))

    @classmethod
    def of(cls, trees) -> "PackedForest":
        """Packs ``(feature, threshold, left, right, value)`` trees, the first
        five arrays that :func:`kernels.grow_tree` returns, whose child
        indices are local to each tree."""
        sizes = np.array([len(t[0]) for t in trees], dtype=np.int64)
        roots = np.cumsum(sizes) - sizes

        def cat(column, dtype, children=False):
            parts = [np.where(t[column] >= 0, t[column] + r, -1) if children else t[column]
                     for t, r in zip(trees, roots)]
            return np.concatenate([np.empty(0, dtype), *parts], dtype=dtype)

        return cls(cat(0, np.int64), cat(1, np.float64), cat(2, np.int64, True),
                   cat(3, np.int64, True), cat(4, np.float64), roots)


@dataclass
class GbrtModel:
    base: float
    forest: PackedForest
    hyper: GbrtHyper
    train_mse: list[float] = field(default_factory=list)  # after each round
    # kernels.compile_forest_row of this model, made by the first one-vector
    # predict: building it costs about 20 ms, which a model that only
    # scores batches never spends.  Made once, it assumes that base,
    # forest and shrinkage stay as they are.
    row_scorer: object = field(default=None, init=False, repr=False, compare=False)


def train_gbrt(x: np.ndarray, y: np.ndarray, hyper: GbrtHyper | None = None) -> GbrtModel:
    """Fit one depth-limited tree per round to the squared-loss residuals.

    Split search is exact greedy over midpoints of consecutive distinct
    values, ties broken toward the lowest feature then lowest threshold.
    Each level is searched from histograms with one bin per distinct value
    (``kernels.bin_columns``, made once per fit with the root's row counts,
    and without the columns that hold one value): a split's left sum runs
    over the bins in ascending value order.  The root's bins sum their
    residuals in row order.  Below it, the smaller child of each split
    (fewer rows; the left one on equal rows) sums in row order, and its
    sibling's bins are the parent's minus the smaller child's, except on a
    level whose histograms and its parents' outgrow ``n * nfeat`` cells,
    which sums every node in row order.  Training MSE is recorded per round
    and is non-increasing.
    """
    hyper = hyper or GbrtHyper()
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_labels(y)
    if len(y) < hyper.min_leaf:
        raise InsufficientData(f"need at least min_leaf={hyper.min_leaf} examples, got {len(y)}")
    binned = kernels.bin_columns(x)  # the same for every round
    base = float(np.mean(y))
    pred = np.full(len(y), base)
    trees = []
    mse: list[float] = []
    for _ in range(hyper.rounds):
        resid = y - pred
        *tree, node_of = kernels.grow_tree(x, *binned, resid, hyper.min_leaf, hyper.max_depth)
        trees.append(tree)
        pred = pred + hyper.shrinkage * kernels.apply_tree(node_of, tree[4])
        mse.append(float(np.mean((y - pred) ** 2)))
    return GbrtModel(base, PackedForest.of(trees), hyper, mse)


# ---------------------------------------------------------------------------
# Unified prediction
# ---------------------------------------------------------------------------

def predict(model, features):
    """Predicted click probability, strictly inside (0, 1).

    LR takes a sparse index vector or a :class:`SparseBatch`; GBRT takes a
    dense vector or matrix.  Scalar in, scalar out; batch in, array out.
    A vector's score equals its row of the batch's, bit for bit, and a
    feature index outside [1, dimension), or not an integer, fails on both.
    """
    if isinstance(model, LrModel):
        if isinstance(features, SparseBatch):
            p = _sigmoid(_margins(model, features))
            return np.clip(p, LR_CLAMP, 1.0 - LR_CLAMP)
        idx = index_array(features)
        dim = len(model.weights)
        listed = idx.tolist()
        if listed and not (0 < min(listed) and max(listed) < dim):  # the batch's index rule (_check_indices)
            bad = next(i for i in listed if not 0 < i < dim)
            raise DimensionMismatch(f"feature index {bad} outside [1, {dim})")
        terms = model.weights.take(idx).tolist()
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
            if model.row_scorer is None:
                model.row_scorer = kernels.compile_forest_row(*f._arrays(), base, shrinkage)
            s = model.row_scorer(arr)
            return min(max(s, GBRT_CLAMP), 1.0 - GBRT_CLAMP)
        total = kernels.apply_forest(np.ascontiguousarray(arr), *f._arrays(), base, shrinkage)
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


_BODY_LINE = 4  # a model file's first line after its header, first and hyper lines
# A model file's numbers are read as the writers write them, ASCII only
# (kvfile.ascii_int, kvfile.finite_float).  Every float is finite, so every
# score a loaded model gives lies inside (0, 1).


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
        dim = kvfile.read_dimension(f)
        hyper = kvfile.read_fields(f, "hyper", LrHyper)
        w = np.zeros(dim, dtype=np.float64)
        seen: set[int] = set()
        for line_no, line in enumerate(f, _BODY_LINE):
            text = line.rstrip("\n")
            idx, _, weight = text.partition("\t")
            try:
                i, wv = kvfile.ascii_int(idx), kvfile.finite_float(weight)
            except ValueError:
                i = -1  # fails the range check below
            if not 0 <= i < dim:
                raise ValueError(f"line {line_no}: expected '<index in [0, {dim})>\\t<weight>', "
                                 f"found {text!r}")
            if i in seen:
                raise ValueError(f"line {line_no}: index {i} is listed twice")
            seen.add(i)
            w[i] = wv
    return LrModel(w, hyper)


def _write_tree_preorder(f, forest: PackedForest, root: int) -> None:
    stack = [root]  # nodes still to write, the next on top
    while stack:
        node = stack.pop()
        if forest.left[node] < 0:
            f.write(f"leaf\t{float(forest.value[node])!r}\n")
        else:
            f.write(f"split\t{forest.feature[node]}\t{float(forest.threshold[node])!r}\n")
            stack += [int(forest.right[node]), int(forest.left[node])]


def _read_tree_preorder(lines: list[str], pos: int, nodes: list, max_depth: int) -> int:
    """Appends the tree listed from ``lines[pos]`` on to ``nodes``, each node
    numbered by its place in that list, and returns the position after the
    tree.  A node line reads ``leaf<TAB><value>`` or
    ``split<TAB><feature><TAB><threshold>``; a split at depth ``max_depth``
    or deeper fails: grow_tree makes none."""
    stack = [(0, -1)]  # nodes still to read: (depth, the split it is the right child of)
    feature_of, number = kvfile.ascii_int, kvfile.finite_float
    for pos in range(pos, len(lines)):
        depth, parent = stack.pop()
        parts = lines[pos].split("\t")
        try:
            if parts[0] == "leaf" and len(parts) == 2:
                feature, threshold, value = -1, 0.0, number(parts[1])
            elif parts[0] == "split" and len(parts) == 3:
                feature, threshold, value = feature_of(parts[1]), number(parts[2]), 0.0
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"line {pos + _BODY_LINE}: expected 'leaf\\t<value>' or 'split\\t"
                             f"<feature >= 0>\\t<threshold>', found {lines[pos]!r}") from None
        my_id = len(nodes)
        if parent >= 0:
            nodes[parent][3] = my_id
        if feature >= 0:
            if depth >= max_depth:
                raise ValueError(f"line {pos + _BODY_LINE}: a split at depth {depth}, "
                                 f"but max_depth is {max_depth}")
            stack += [(depth + 1, my_id), (depth + 1, -1)]
        nodes.append([feature, threshold, my_id + 1 if feature >= 0 else -1, -1, value])
        if not stack:
            return pos + 1
    raise ValueError("the file ends inside the tree")


def save_gbrt(model: GbrtModel, path) -> None:
    forest = model.forest
    with open(path, "w", encoding="utf-8") as f:
        f.write("#rtbsim-gbrt v1\n")
        f.write(f"base\t{model.base!r}\n")
        f.write("\t".join(["hyper", *kvfile.dump(model.hyper)]) + "\n")
        for root, size in zip(forest.roots, np.diff(forest.roots, append=len(forest.feature))):
            f.write(f"tree\t{size}\n")
            _write_tree_preorder(f, forest, int(root))


def load_gbrt(path) -> GbrtModel:
    with open(path, encoding="utf-8") as f:
        kvfile.check_header(f, "#rtbsim-gbrt v1")
        text = kvfile.read_labeled(f, "base")[0]
        try:
            base = kvfile.finite_float(text)
        except ValueError:
            line = f"base\t{text}"
            raise ValueError(f"line 2: expected 'base\\t<finite float>', found {line!r}") from None
        hyper = kvfile.read_fields(f, "hyper", GbrtHyper)
        lines = f.read().split("\n")
    if lines[-1] == "":  # the newline that ends the last line
        lines.pop()
    nodes: list[list] = []
    roots: list[int] = []
    pos = 0
    while pos < len(lines):
        t = len(roots)
        head, _, size = lines[pos].partition("\t")
        if head != "tree" or not (size.isascii() and size.isdecimal()):
            raise ValueError(f"tree {t}: line {pos + _BODY_LINE}: expected 'tree\\t<nodes>', "
                             f"found {lines[pos]!r}")
        roots.append(len(nodes))
        try:
            pos = _read_tree_preorder(lines, pos + 1, nodes, hyper.max_depth)
        except ValueError as e:
            raise ValueError(f"tree {t}: {e}") from None
        if len(nodes) - roots[t] != int(size):
            raise ValueError(f"tree {t}: its header says {size} nodes, "
                             f"but it lists {len(nodes) - roots[t]}")
    columns = zip(*nodes) if nodes else [()] * 5
    arrays = [np.array(c, dtype=d) for c, d in
              zip(columns, (np.int64, np.float64, np.int64, np.int64, np.float64))]
    return GbrtModel(base, PackedForest(*arrays, np.array(roots, dtype=np.int64)), hyper)


def write_scores_csv(bid_ids, scores, path) -> None:
    """Decoupled-evaluation output: one (bid_id, pctr) row per case."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("bid_id,pctr\n")
        for bid_id, s in zip(bid_ids, scores):
            f.write(f"{bid_id},{float(s)!r}\n")
