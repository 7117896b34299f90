"""Hot numeric kernels with two interchangeable backends.

Every kernel here exists twice: a loop form compiled with numba's ``@njit``
and a pure-numpy form (plain Python over lists where numpy does not pay, as
for the SGD epoch and one forest row).  The loop form is the default;
setting the environment variable ``RTBSIM_NO_NUMBA=1`` (or running without
numba installed) selects the other form.  The two backends are bit-identical for
every kernel: integer arithmetic is exact, and the float accumulations are
arranged so both sides add in the same order (``np.cumsum``/``np.bincount``
accumulate sequentially, matching the scalar loops).  The test suite
asserts this equality, and ``benchmarks/bench_kernels.py`` compares their
speed.

The kernels: ``win_scan`` (budget-constrained auction replay),
``sgd_epoch`` (one logistic-regression epoch), ``grow_tree`` and
``apply_tree`` (one regression tree, used while boosting), ``apply_forest``,
which scores a whole GBRT ensemble on a batch in one call, and
``apply_forest_row``, which scores one impression.  Both forest kernels take
the trees packed once into flat node arrays with global child indices (see
``models.PackedForest``, built when a ``GbrtModel`` is made).

Two kernels have no numpy form: ``sgd_epoch``, whose updates each depend
on the last, and ``apply_forest_row``, for which numpy's per-call overhead
on one row costs more than the walk.  Each has one loop body that numba
compiles over the arrays and that otherwise runs as plain Python over list
copies of them, whose items the interpreter reads several times faster
than numpy's scalars.  ``sgd_epoch_python`` makes the copies with
``tolist()`` on every call and writes the weights back in place (one epoch
over 3000 rows of 18 indices then takes about 7 ms, against about 40 ms
for the same body over the arrays); ``apply_forest_row`` is handed copies
that ``PackedForest`` makes once (``row_operand`` gives the form).  Both
forms make the same float operations in the same order, so the SGD weights
are the same bit for bit, and a row's forest score equals its batch row.

``grow_tree``'s numpy form searches splits one frontier node at a time,
over every feature at once.  Each node keeps its rows as an ``(nfeat,
n_node)`` block of row ids in each feature's presorted order, with their
values; a split partitions the parent's block stably, so the children's
rows stay presorted.  The search is one gather of the residuals, one
``cumsum`` along each feature's rows, and scores only at the positions
where the value changes with ``min_leaf`` rows on each side; the first
maximum in (feature, position) order is the loop's tie-break.  ``cumsum``
adds the rows in the loop's order, so the scores, and the trees, are the
loop form's bit for bit.  The root's block (``sorted_ids`` and
``sorted_vals``) is the same for every tree of a model, so ``train_gbrt``
gathers it once and passes it to both forms; the loop form reads each
feature's values in sorted order from it too.

The backend flag changes performance only, never results, so it is safe to
flip between runs of the same experiment.
"""

from __future__ import annotations

import math
import os

import numpy as np

ENV_FLAG = "RTBSIM_NO_NUMBA"

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None
    HAVE_NUMBA = False


def _flag_disabled() -> bool:
    return os.environ.get(ENV_FLAG, "").strip().lower() in {"1", "true", "yes", "on"}


NUMBA_ENABLED = HAVE_NUMBA and not _flag_disabled()


def _njit(fn):
    """Compile with numba when available, otherwise return fn unchanged."""
    if HAVE_NUMBA:
        return numba.njit(cache=True)(fn)
    return fn


# ---------------------------------------------------------------------------
# Auction replay: sequential budget-constrained win scan.
# ---------------------------------------------------------------------------

def _win_scan_py(bids, paying, floor, budget):
    # Strict second-price win rule: bid must beat both the logged market
    # price and the floor.  Budget check is pre-bid; the final win may
    # overshoot the budget by one paying price.
    n = bids.shape[0]
    win = np.zeros(n, dtype=np.uint8)
    spent = np.int64(0)
    exhausted = np.int64(-1)
    for i in range(n):
        if spent >= budget:
            exhausted = i
            break
        b = bids[i]
        if b > paying[i] and b > floor[i]:
            win[i] = 1
            spent += paying[i]
    return win, spent, exhausted


win_scan_loop = _njit(_win_scan_py)


def win_scan_numpy(bids, paying, floor, budget):
    """Vectorized equivalent of the sequential scan.

    Because bids do not adapt mid-run, the winners are exactly the eligible
    cases whose cumulative eligible spend before them is under budget; that
    prefix structure makes a cumsum formulation exact.
    """
    elig = (bids > paying) & (bids > floor)
    pe = np.where(elig, paying, 0).astype(np.int64)
    cs = np.cumsum(pe)
    spent_before = cs - pe
    win = (elig & (spent_before < budget)).astype(np.uint8)
    spent = np.int64(pe[win.astype(bool)].sum())
    over = spent_before >= budget
    exhausted = np.int64(np.argmax(over)) if over.any() else np.int64(-1)
    return win, spent, exhausted


win_scan = win_scan_loop if NUMBA_ENABLED else win_scan_numpy


# ---------------------------------------------------------------------------
# Logistic regression: one SGD epoch over CSR one-hot rows.
# ---------------------------------------------------------------------------

def _sgd_epoch_py(indptr, indices, labels, v, order, w0, s, t0, lr0, lam):
    # Weights are kept in scaled form w[1:] = s * v so the L2 shrink
    # (a proximal step, w /= 1 + lr*lam) costs O(1) per example.  Feature
    # index 0 is the unregularized bias, stored separately in w0.  The
    # operands are read only by len, iteration, slices and indexing, so the
    # body runs over arrays (compiled) and over lists (plain Python) alike.
    t = t0
    for i in order:
        t += 1
        lr = lr0 / math.sqrt(t)
        m = w0
        row = indices[indptr[i]:indptr[i + 1]]
        for c in row:
            m += s * v[c - 1]
        if m >= 0.0:
            p = 1.0 / (1.0 + math.exp(-m))
        else:
            em = math.exp(m)
            p = em / (1.0 + em)
        g = p - labels[i]
        w0 -= lr * g
        gu = lr * g / s
        for c in row:
            v[c - 1] -= gu
        s /= 1.0 + lr * lam
        if s < 1e-130:
            for q in range(len(v)):
                v[q] *= s
            s = 1.0
    return w0, s, t


sgd_epoch_loop = _njit(_sgd_epoch_py)


def sgd_epoch_python(indptr, indices, labels, v, order, w0, s, t0, lr0, lam):
    """The loop body as plain Python over list copies of the operands; ``v``
    is updated in place, and the result is the compiled form's bit for bit."""
    vl = v.tolist()
    out = _sgd_epoch_py(indptr.tolist(), indices.tolist(), labels.tolist(), vl,
                        order.tolist(), w0, s, t0, lr0, lam)
    v[:] = vl
    return out


sgd_epoch = sgd_epoch_loop if NUMBA_ENABLED else sgd_epoch_python


# ---------------------------------------------------------------------------
# Regression tree growth: exact greedy splits on presorted columns.
# ---------------------------------------------------------------------------

def _grow_tree_py(x, sorted_ids, sorted_vals, resid, min_leaf, max_depth):
    # Level-wise growth.  One pass over each presorted column per level
    # evaluates every candidate split of every frontier node; candidate
    # thresholds are midpoints between consecutive distinct values.
    # sorted_vals[f, k] is x[sorted_ids[f, k], f], gathered once per model.
    n, nfeat = x.shape
    max_nodes = 2 ** (max_depth + 1) - 1
    feat = np.full(max_nodes, -1, dtype=np.int64)
    thr = np.zeros(max_nodes, dtype=np.float64)
    left = np.full(max_nodes, -1, dtype=np.int64)
    right = np.full(max_nodes, -1, dtype=np.int64)
    value = np.zeros(max_nodes, dtype=np.float64)

    node_of = np.zeros(n, dtype=np.int64)
    cnt = np.zeros(max_nodes, dtype=np.int64)
    ssum = np.zeros(max_nodes, dtype=np.float64)
    best_score = np.zeros(max_nodes, dtype=np.float64)
    best_feat = np.zeros(max_nodes, dtype=np.int64)
    best_thr = np.zeros(max_nodes, dtype=np.float64)
    run_cnt = np.zeros(max_nodes, dtype=np.int64)
    run_sum = np.zeros(max_nodes, dtype=np.float64)
    prev_val = np.zeros(max_nodes, dtype=np.float64)
    started = np.zeros(max_nodes, dtype=np.uint8)

    n_nodes = 1
    level_lo = 0
    level_hi = 1
    for depth in range(max_depth + 1):
        for nd in range(level_lo, level_hi):
            cnt[nd] = 0
            ssum[nd] = 0.0
            best_score[nd] = -np.inf
            best_feat[nd] = -1
        for i in range(n):
            nd = node_of[i]
            if level_lo <= nd < level_hi:
                cnt[nd] += 1
                ssum[nd] += resid[i]

        if depth < max_depth:
            for f in range(nfeat):
                for nd in range(level_lo, level_hi):
                    run_cnt[nd] = 0
                    run_sum[nd] = 0.0
                    started[nd] = 0
                for k in range(n):
                    i = sorted_ids[f, k]
                    nd = node_of[i]
                    if nd < level_lo or nd >= level_hi:
                        continue
                    if cnt[nd] < 2 * min_leaf:
                        continue
                    xv = sorted_vals[f, k]
                    if started[nd] == 1 and xv != prev_val[nd]:
                        nl = run_cnt[nd]
                        nr = cnt[nd] - nl
                        if nl >= min_leaf and nr >= min_leaf:
                            sl = run_sum[nd]
                            sr = ssum[nd] - sl
                            sc = sl * sl / nl + sr * sr / nr
                            if sc > best_score[nd]:
                                best_score[nd] = sc
                                best_feat[nd] = f
                                best_thr[nd] = 0.5 * (prev_val[nd] + xv)
                    run_cnt[nd] += 1
                    run_sum[nd] += resid[i]
                    prev_val[nd] = xv
                    started[nd] = 1

        any_split = False
        for nd in range(level_lo, level_hi):
            parent_sc = ssum[nd] * ssum[nd] / cnt[nd]
            if best_feat[nd] >= 0 and best_score[nd] > parent_sc:
                feat[nd] = best_feat[nd]
                thr[nd] = best_thr[nd]
                left[nd] = n_nodes
                right[nd] = n_nodes + 1
                n_nodes += 2
                any_split = True
            else:
                left[nd] = -1
                value[nd] = ssum[nd] / cnt[nd]
        if any_split:
            for i in range(n):
                nd = node_of[i]
                if level_lo <= nd < level_hi and left[nd] >= 0:
                    if x[i, feat[nd]] <= thr[nd]:
                        node_of[i] = left[nd]
                    else:
                        node_of[i] = right[nd]
        level_lo = level_hi
        level_hi = n_nodes
        if not any_split:
            break
    return feat[:n_nodes], thr[:n_nodes], left[:n_nodes], right[:n_nodes], value[:n_nodes]


grow_tree_loop = _njit(_grow_tree_py)


def _best_split(ids, vals, resid, total, min_leaf):
    # ids/vals: one node's rows in each feature's presorted order and their
    # values, shape (nfeat, m).  Candidate (f, k): row k is the last on the
    # left, the value changes after it, and both sides keep min_leaf rows.
    m = ids.shape[1]
    lo, hi = min_leaf - 1, m - min_leaf
    change = np.zeros(ids.shape, dtype=bool)
    np.not_equal(vals[:, lo + 1:hi + 1], vals[:, lo:hi], out=change[:, lo:hi])
    at = np.flatnonzero(change)  # f * m + k, in (feature, position) order
    if at.size == 0:
        return -np.inf, -1, 0.0
    cum = resid.take(ids)
    np.cumsum(cum, axis=1, out=cum)
    sl = cum.take(at)
    nl = at % m + 1.0
    sr = total - sl
    sc = sl * sl / nl + sr * sr / (m - nl)
    j = int(np.argmax(sc))  # first maximum: lowest feature, then lowest threshold
    f, k = divmod(int(at[j]), m)
    return sc[j], f, 0.5 * (vals[f, k] + vals[f, k + 1])


def grow_tree_numpy(x, sorted_ids, sorted_vals, resid, min_leaf, max_depth):
    """Vectorized twin of the loop kernel (same splits, bit for bit).

    Each frontier node keeps its rows as an ``(nfeat, n_node)`` block of row
    ids in every feature's presorted order, with the matching values; the
    root block is ``sorted_ids`` and ``sorted_vals``, which the caller
    gathers once for all the trees it grows on ``x``.  One split search
    scores every feature of the node at once: one gather of the residuals,
    one ``cumsum`` along the rows, and scores only at the positions where a
    feature's value changes with ``min_leaf`` rows on each side.
    ``np.cumsum`` adds each row in sequence, as the loop's running sum does,
    so the candidate scores are the same floats, and the first maximum in
    (feature, position) order is the loop's tie-break: lowest feature, then
    lowest threshold.  A split
    partitions the parent's blocks stably by the rows' go-left mask (every
    feature's row holds the same row ids, so each keeps the same count), and
    the children's rows stay presorted.  Node counts and sums come from
    ``np.bincount`` over the rows' nodes, in row order, as in the loop.
    """
    n, nfeat = x.shape
    max_nodes = 2 ** (max_depth + 1) - 1
    feat = np.full(max_nodes, -1, dtype=np.int64)
    thr = np.zeros(max_nodes, dtype=np.float64)
    left = np.full(max_nodes, -1, dtype=np.int64)
    right = np.full(max_nodes, -1, dtype=np.int64)
    value = np.zeros(max_nodes, dtype=np.float64)

    node_of = np.zeros(n, dtype=np.int64)
    go_left = np.zeros(n, dtype=bool)
    blocks = {0: (sorted_ids, sorted_vals)}
    n_nodes = 1
    level_lo = 0
    level_hi = 1
    for depth in range(max_depth + 1):
        cnt = np.bincount(node_of, minlength=max_nodes)
        ssum = np.bincount(node_of, weights=resid, minlength=max_nodes)
        any_split = False
        for nd in range(level_lo, level_hi):
            score = -np.inf
            if depth < max_depth and cnt[nd] >= 2 * min_leaf:
                ids, vals = blocks.pop(nd)
                score, f, t = _best_split(ids, vals, resid, ssum[nd], min_leaf)
            if not score > ssum[nd] * ssum[nd] / cnt[nd]:
                value[nd] = ssum[nd] / cnt[nd]
                continue
            feat[nd] = f
            thr[nd] = t
            left[nd] = n_nodes
            right[nd] = n_nodes + 1
            n_nodes += 2
            any_split = True
            go = vals[f] <= t
            node_of[ids[f]] = np.where(go, left[nd], right[nd])
            if depth + 1 < max_depth:
                go_left[ids[f]] = go
                mask = go_left.take(ids)
                for child, side in ((left[nd], mask), (right[nd], ~mask)):
                    at = np.flatnonzero(side)
                    blocks[child] = (ids.take(at).reshape(nfeat, -1), vals.take(at).reshape(nfeat, -1))
        level_lo = level_hi
        level_hi = n_nodes
        if not any_split:
            break
    return feat[:n_nodes], thr[:n_nodes], left[:n_nodes], right[:n_nodes], value[:n_nodes]


grow_tree = grow_tree_loop if NUMBA_ENABLED else grow_tree_numpy


def _apply_tree_py(x, feat, thr, left, right, value):
    n = x.shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        nd = 0
        while left[nd] >= 0:
            if x[i, feat[nd]] <= thr[nd]:
                nd = left[nd]
            else:
                nd = right[nd]
        out[i] = value[nd]
    return out


apply_tree_loop = _njit(_apply_tree_py)


def apply_tree_numpy(x, feat, thr, left, right, value):
    n = x.shape[0]
    nd = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    while True:
        internal = left[nd] >= 0
        if not internal.any():
            break
        xv = x[rows, feat[nd]]
        go_left = xv <= thr[nd]
        nd = np.where(internal & go_left, left[nd], np.where(internal, right[nd], nd))
    return value[nd]


apply_tree = apply_tree_loop if NUMBA_ENABLED else apply_tree_numpy


# ---------------------------------------------------------------------------
# Forest scoring: every tree of a packed ensemble in one call.
# ---------------------------------------------------------------------------

def _apply_forest_py(x, feat, thr, left, right, value, roots, base, shrinkage):
    # The trees' node arrays are concatenated with global child indices;
    # roots[t] is the first node of tree t.  Leaves are added in tree order,
    # base first, exactly as a per-tree accumulation would add them.
    n = x.shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        s = base
        for t in range(roots.shape[0]):
            nd = roots[t]
            while left[nd] >= 0:
                if x[i, feat[nd]] <= thr[nd]:
                    nd = left[nd]
                else:
                    nd = right[nd]
            s += shrinkage * value[nd]
        out[i] = s
    return out


apply_forest_loop = _njit(_apply_forest_py)

# (tree, row) pairs walked per block; bounds the working set of a large batch.
FOREST_BLOCK = 16384


def _forest_block(x, feat, thr, left, right, value, roots, base, shrinkage):
    n, d = x.shape
    t = roots.shape[0]
    flat = x.reshape(-1)
    nd = np.repeat(roots, n)  # tree-major: pair t*n + i is tree t on row i
    offset = np.tile(np.arange(n) * d, t)
    live = np.flatnonzero(left[nd] >= 0)  # only internal nodes gather a column
    while live.size:
        at = nd[live]
        go_left = flat.take(offset[live] + feat[at]) <= thr[at]
        nxt = np.where(go_left, left[at], right[at])
        nd[live] = nxt
        live = live[left[nxt] >= 0]
    terms = np.empty((t + 1, n), dtype=np.float64)
    terms[0] = base
    np.multiply(shrinkage, value[nd].reshape(t, n), out=terms[1:])
    # cumsum adds down the tree axis in order, unlike the pairwise np.sum.
    return np.cumsum(terms, axis=0)[-1]


def apply_forest_numpy(x, feat, thr, left, right, value, roots, base, shrinkage):
    """Walks all (tree, row) pairs in lockstep, one step per tree level."""
    n = x.shape[0]
    step = max(1, FOREST_BLOCK // max(1, roots.shape[0]))
    out = np.empty(n, dtype=np.float64)
    for lo in range(0, n, step):
        out[lo:lo + step] = _forest_block(x[lo:lo + step], feat, thr, left, right,
                                          value, roots, base, shrinkage)
    return out


apply_forest = apply_forest_loop if NUMBA_ENABLED else apply_forest_numpy


def _apply_forest_row_py(x, feat, thr, left, right, value, roots, base, shrinkage):
    # One row through every tree, base first and then each leaf times
    # shrinkage in tree order: the float operations apply_forest makes for
    # that row, so the same result bit for bit.
    s = base
    for r in roots:
        nd = r
        while left[nd] >= 0:
            if x[feat[nd]] <= thr[nd]:
                nd = left[nd]
            else:
                nd = right[nd]
        s += shrinkage * value[nd]
    return s


apply_forest_row_loop = _njit(_apply_forest_row_py)
apply_forest_row_python = _apply_forest_row_py
apply_forest_row = apply_forest_row_loop if NUMBA_ENABLED else apply_forest_row_python


def row_operand(a: np.ndarray):
    """``a`` in the form that ``apply_forest_row`` walks: the array itself
    for the compiled walk, a list for plain Python, whose items the
    interpreter reads and compares several times faster than numpy's."""
    return a if NUMBA_ENABLED else a.tolist()


def warmup() -> None:
    """Trigger JIT compilation of every kernel on tiny inputs."""
    bids = np.array([5, 5], dtype=np.int64)
    pay = np.array([1, 2], dtype=np.int64)
    flr = np.array([0, 0], dtype=np.int64)
    win_scan(bids, pay, flr, np.int64(100))
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 2], dtype=np.int32)
    labels = np.array([0.0, 1.0])
    v = np.zeros(2)
    order = np.array([0, 1], dtype=np.int64)
    sgd_epoch(indptr, indices, labels, v, order, 0.0, 1.0, 0, 0.01, 1e-6)
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    sids = np.argsort(x, axis=0, kind="stable").T.copy()
    r = np.array([0.0, 0.0, 1.0, 1.0])
    tree = grow_tree(x, sids, np.take_along_axis(x.T, sids, axis=1), r, 1, 2)
    apply_tree(x, *tree)
    roots = np.zeros(1, dtype=np.int64)
    apply_forest(x, *tree, roots, 0.0, 1.0)
    apply_forest_row(*map(row_operand, (x[0], *tree, roots)), 0.0, 1.0)
