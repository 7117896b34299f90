"""Hot numeric kernels with two interchangeable backends.

Every kernel here has a loop form, which numba's ``@njit`` compiles, and
the backend is whether numba imports (``HAVE_NUMBA``): with it the loop
forms run, without it the numpy forms (plain Python where numpy does not
pay, as for the SGD epoch and one forest row).  The two backends are
bit-identical for every kernel: integer arithmetic is exact, and the float
accumulations are arranged so both sides add in the same order
(``np.cumsum``/``np.bincount`` accumulate sequentially, matching the
scalar loops).  The test suite asserts this equality, and
``benchmarks/bench_kernels.py`` compares their speed.

The kernels: ``win_scan`` (budget-constrained auction replay),
``sgd_epoch`` (one logistic-regression epoch), ``grow_tree`` (one
regression tree), ``apply_forest``, which scores a whole GBRT ensemble on a
batch in one call, and ``forest_row_scorer``, which makes the function that
scores one impression.  The forest kernels take the trees packed into flat
node arrays with global child indices (see ``models.PackedForest``), and
``apply_forest``'s loop form is ``apply_forest_row`` on each row.
``grow_tree`` also returns the leaf it put each row in, so boosting adds a
new tree's leaves without walking the rows through it again;
``apply_tree`` is that gather, not a kernel.

Two jobs have no numpy form, because numpy's per-call overhead costs more
than the work: ``sgd_epoch``, whose updates each depend on the last, and
scoring one row.  ``sgd_epoch`` has one loop body that numba compiles over
the arrays and that otherwise runs as plain Python over list copies of
them, whose items the interpreter reads several times faster than numpy's
scalars; ``train_lr`` makes those copies once per fit with
``row_operand``.  One row is scored under numba by ``apply_forest_row``,
the compiled walk over the node arrays, and otherwise by a function that
``compile_forest_row`` generates once per forest: each tree one nested
conditional expression of Python source, which reads no array at all.
Both forms make the same float operations in the same order, so the SGD
weights are the same bit for bit, and a row's forest score equals its
batch row.

``grow_tree``'s numpy form searches splits one frontier node at a time,
over every feature at once (see ``grow_tree_numpy``).
"""

from __future__ import annotations

import math

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None
    HAVE_NUMBA = False

# The same fact under a second name: perfbench/run.py records both.
NUMBA_ENABLED = HAVE_NUMBA


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


win_scan = win_scan_loop if HAVE_NUMBA else win_scan_numpy


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
    """The loop body as plain Python over the ``row_operand`` lists of one fit
    and a list of this epoch's ``order``; ``v`` is updated in place."""
    return _sgd_epoch_py(indptr, indices, labels, v, order.tolist(), w0, s, t0, lr0, lam)


sgd_epoch = sgd_epoch_loop if HAVE_NUMBA else sgd_epoch_python


# ---------------------------------------------------------------------------
# Regression tree growth: exact greedy splits on presorted columns.
# ---------------------------------------------------------------------------

def presort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``grow_tree``'s operands ``sorted_ids`` and ``sorted_vals`` for the
    columns of ``x``: each column's row ids in stable ascending order of its
    values, shape ``(nfeat, n)``, and the values in that order."""
    sorted_ids = np.argsort(x, axis=0, kind="stable").T.copy()
    return sorted_ids, np.take_along_axis(x.T, sorted_ids, axis=1)


def _split_threshold_py(a, b):
    # A threshold between column values a < b that sends a left and b right:
    # their midpoint, or a where it overflows (beyond about 9e307) or rounds
    # to b (adjacent floats).  Python floats overflow without a RuntimeWarning.
    t = 0.5 * (float(a) + float(b))
    return t if a <= t < b else a


_split_threshold = _njit(_split_threshold_py)


def _grow_tree_py(x, sorted_ids, sorted_vals, resid, min_leaf, max_depth):
    # Level-wise growth.  One pass over each presorted column per level
    # evaluates every candidate split of every frontier node; candidate
    # thresholds lie between consecutive distinct values (_split_threshold).
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
                                best_thr[nd] = _split_threshold(prev_val[nd], xv)
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
    return feat[:n_nodes], thr[:n_nodes], left[:n_nodes], right[:n_nodes], value[:n_nodes], node_of


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
    return sc[j], f, _split_threshold(vals[f, k], vals[f, k + 1])


def grow_tree_numpy(x, sorted_ids, sorted_vals, resid, min_leaf, max_depth):
    """Vectorized twin of the loop kernel (same splits, bit for bit).

    Each frontier node keeps its rows as an ``(nfeat, n_node)`` block of row
    ids in every feature's presorted order, with the matching values; the
    root block is ``sorted_ids`` and ``sorted_vals``, which the caller
    makes once with ``presort`` for all the trees it grows on ``x``.  One
    split search scores every feature of the node at once: one gather of
    the residuals, one ``cumsum`` along the rows, and scores only at the
    positions where a feature's value changes with ``min_leaf`` rows on
    each side.
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
    return feat[:n_nodes], thr[:n_nodes], left[:n_nodes], right[:n_nodes], value[:n_nodes], node_of


grow_tree = grow_tree_loop if HAVE_NUMBA else grow_tree_numpy


# ---------------------------------------------------------------------------
# Forest scoring: every tree of a packed ensemble in one call.
# ---------------------------------------------------------------------------

def _apply_forest_row_py(x, feat, thr, left, right, value, roots, base, shrinkage):
    # One row through every tree, base first and then each leaf times
    # shrinkage in tree order: the float operations apply_forest_numpy makes
    # for that row, so the same result bit for bit.
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


apply_forest_row = _njit(_apply_forest_row_py)


def _apply_forest_py(x, feat, thr, left, right, value, roots, base, shrinkage):
    # The row walk on each row, so a batch row's score is its row's.
    n = x.shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        out[i] = apply_forest_row(x[i], feat, thr, left, right, value, roots, base, shrinkage)
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


apply_forest = apply_forest_loop if HAVE_NUMBA else apply_forest_numpy


def _forest_source(feat, thr, left, right, value, roots, base, shrinkage) -> str:
    # Written from ints and repr floats only, which read back as the same
    # floats: a finite one is a literal, inf and nan are names.  A leaf is
    # written as its product shrinkage * value, the multiplication that
    # apply_forest makes, so s adds the same float.
    feat, thr, left, right = (a.tolist() for a in (feat, thr, left, right))
    leaf = (float(shrinkage) * value).tolist()
    lines = ["def score(x):"]
    top = max(feat, default=-1)  # the largest slot that a split reads
    if top >= 0:
        lines.append(f"    {''.join(f'x{i}, ' for i in range(top + 1))}*_ = x.tolist()")
    lines.append(f"    s = {float(base)!r}")
    for root in roots.tolist():
        parts = ["    s += "]
        stack = [root]  # nodes still to write, and the text between them
        while stack:
            nd = stack.pop()
            if isinstance(nd, str):
                parts.append(nd)
            elif left[nd] < 0:
                parts.append(repr(leaf[nd]))
            else:
                parts.append("(")
                stack += [")", right[nd], f" if x{feat[nd]} <= {thr[nd]!r} else ", left[nd]]
        lines.append("".join(parts))
    lines.append("    return s")
    return "\n".join(lines) + "\n"


def compile_forest_row(feat, thr, left, right, value, roots, base, shrinkage):
    """``score(x)``: a float64 row's forest score, as straight-line Python.

    The function unpacks the row into locals once, starts from ``s =
    base`` and adds one term per tree in tree order, ``s += (<left> if
    x<f> <= <threshold> else <right>)`` with the subtrees nested the same
    way down to ``shrinkage * leaf``: the float operations of
    ``_apply_forest_row_py``, so the same score bit for bit.  Its source
    holds one line per tree; it is compiled once, in a namespace without
    builtins that binds only ``inf`` and ``nan``.  A tree deeper than 200
    levels does not compile: CPython nests at most 200 parentheses."""
    namespace = {"__builtins__": {}, "inf": math.inf, "nan": math.nan}
    exec(compile(_forest_source(feat, thr, left, right, value, roots, base, shrinkage),
                 "<forest>", "exec"), namespace)
    return namespace["score"]


def forest_row_scorer(feat, thr, left, right, value, roots, base, shrinkage):
    """The function of one float64 row that returns its forest score: the
    compiled walk over the node arrays with numba, ``compile_forest_row``'s
    straight-line Python without it."""
    if HAVE_NUMBA:
        return lambda x: apply_forest_row(x, feat, thr, left, right, value, roots, base, shrinkage)
    return compile_forest_row(feat, thr, left, right, value, roots, base, shrinkage)


def apply_tree(node_of, value):
    """Each training row's leaf value: ``value`` gathered at the leaves that
    ``grow_tree`` put the rows in.  It is a name of its own only because
    perfbench's tracer times boosting's update under it (``spans.KERNELS``)
    and counts rows from ``args[0].shape[0]``, so ``node_of`` stays the first
    argument, an array.  It can go once rtbsim counts its own work."""
    return value[node_of]


def row_operand(a: np.ndarray):
    """``a`` in the form that ``sgd_epoch`` reads: the array itself for the
    compiled body, a list for plain Python, whose items the interpreter
    reads and writes several times faster than numpy's."""
    return a if HAVE_NUMBA else a.tolist()


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
    r = np.array([0.0, 0.0, 1.0, 1.0])
    *tree, _ = grow_tree(x, *presort(x), r, 1, 2)
    root = np.zeros(1, dtype=np.int64)
    apply_forest(x, *tree, root, 0.0, 1.0)
    apply_forest_row(x[0], *tree, root, 0.0, 1.0)
