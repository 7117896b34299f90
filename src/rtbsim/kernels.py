"""Hot numeric kernels, one form each: numpy where whole-array operations
pay, plain Python where numpy's per-call overhead costs more than the work.

The kernels: ``win_scan`` (budget-constrained auction replay),
``sgd_epoch`` (one logistic-regression epoch), ``grow_tree`` (one
regression tree), ``apply_forest``, which scores a whole GBRT ensemble on a
batch in one call, and ``compile_forest_row``, which makes the function
that scores one impression.  The forest kernels take the trees packed into
flat node arrays with global child indices (see ``models.PackedForest``).
``grow_tree`` also returns the leaf it put each row in, so boosting adds a
new tree's leaves without walking the rows through it again;
``apply_tree`` is that gather, not a kernel.  The float sums add in a fixed
order (``np.cumsum``, ``np.add.accumulate`` and ``np.bincount`` add in
sequence), so each result is defined bit for bit; ``tests/oracles.py``
restates each rule in straight-line Python, and the tests hold the kernels
to it.

``win_scan`` replays one row of bids, or each row of a (rows, n) block of
bids (a tuning grid, or a campaign's strategies at one budget), all under
the same budget, and returns each row's win flags, spend and exhaustion
index.  It scans all the rows side by side, with a few int64 and bool
arrays of the block's size.  ``SCAN_CELLS`` is the most cells (rows times
cases) a caller hands one call: ``replay.simulate_each`` splits its rows
into blocks of that size, so a long grid on a long log holds a bounded
working set.

``apply_forest`` walks every (tree, row) pair of a block of rows one
level at a time, as whole-array steps without a branch or a mask: once per
call it finds each tree's depth, orders the trees deepest first, and
interleaves each node's children (``child[2i]`` left, ``child[2i + 1]``
right).  A leaf's children are itself and its threshold is NaN, so a pair
at a leaf steps to itself.  A block holds its pairs deepest tree first, so
the pairs of the trees deeper than level k, the only ones still walking,
are a prefix of the block, and level k steps that prefix and nothing
else, ``nd = child[2 nd + not (x <= threshold)]`` (a NaN goes right).  A
tree's pairs therefore cost its rows times its depth: a row that reaches a
shallow leaf of a deep tree steps in place for the tree's remaining levels.
The leaves go back to tree order before the sum.

Two jobs run as plain Python.  ``sgd_epoch``'s updates each depend on the
last, so it loops over list copies of its arrays, whose items the
interpreter reads several times faster than numpy's scalars; ``train_lr``
makes those copies once per fit.  One row is scored by the function that
``compile_forest_row`` generates once per forest: each tree one nested
conditional expression of Python source, which reads no array at all and
makes ``apply_forest``'s float operations for that row in the same order,
so a row's score equals its batch row.

``grow_tree`` searches each level's splits from histograms with one bin
per distinct value of a column, which ``bin_columns`` assigns once per
model, with the root's row counts; it drops the columns that hold one
value, which can never split.  Each level after the root fills only the
smaller child of each split (fewer rows, the left one on equal rows), its
residuals in row order, and takes the sibling's histograms as the parent's
minus the smaller child's, cell by cell (counts exactly; 0.0 for a cell
without rows).  A level whose histograms and its parents' do not fit in
``n * nfeat`` cells is filled directly, in chunks (see ``grow_tree``).
"""

from __future__ import annotations

import math

import numpy as np

# No kernel is compiled.  perfbench/run.py records these two names in every
# run's environment, so they stay, constant, only for that record.
HAVE_NUMBA = False
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# Auction replay: sequential budget-constrained win scan.
# ---------------------------------------------------------------------------

def _win_scan_block(bids, paying, floor, budget):
    # Because bids do not adapt mid-run, the winners are exactly the eligible
    # cases whose eligible spend before them is under budget.  That spend
    # never falls along a row, so the cases under budget are a prefix of the
    # row, ``live`` cases long, found by bisection, and the row spends its
    # spend before case ``live``: column ``live`` of ``before``, whose
    # column 0 is zero.
    rows, n = bids.shape
    win = bids > np.maximum(paying, floor)
    before = np.zeros((rows, n + 1), dtype=np.int64)
    np.multiply(win, paying, out=before[:, 1:])
    np.cumsum(before[:, 1:], axis=1, out=before[:, 1:])
    spent = np.empty(rows, dtype=np.int64)
    exhausted = np.empty(rows, dtype=np.int64)
    for r in range(rows):
        live = np.searchsorted(before[r, :-1], budget)
        win[r, live:] = False
        spent[r] = before[r, live]
        exhausted[r] = live if live < n else -1
    return win.view(np.uint8), spent, exhausted


def win_scan(bids, paying, floor, budget):
    """The replay of 1-D ``bids``, or of each row of 2-D ``bids``, under
    ``budget``: (win flags as uint8, spend, exhaustion index or -1), each
    with one entry per row of a 2-D block.  A bid wins when it beats both
    the logged paying price and the floor; a case is bid on while the spend
    before it is under budget, so the last win may pass the budget by one
    paying price."""
    if bids.ndim == 2:
        return _win_scan_block(bids, paying, floor, budget)
    win, spent, exhausted = _win_scan_block(bids[None], paying, floor, budget)
    return win[0], spent[0], exhausted[0]


# The most cells (rows x cases) of bids one win_scan call is handed, so a
# long grid on a long log holds a bounded working set: Lin tuning at 2**20
# cells peaks near 20 MiB.  Timed on tune at 100,000 and 400,000 cases with
# 8 and 15 grid points, 2**20 was the fastest of 2**16..2**22 or within 3%
# of it; 2**22 made Lin slower on long logs.  A grid whose points times
# cases pass the bound takes several calls: one per point on a log of more
# than 2**19 cases, where the block saves no calls at all.
SCAN_CELLS = 1 << 20


# ---------------------------------------------------------------------------
# Logistic regression: one SGD epoch over CSR one-hot rows.
# ---------------------------------------------------------------------------

def sgd_epoch(indptr, indices, labels, v, order, w0, s, t0, lr0, lam):
    """One SGD epoch over the rows in ``order``, an int64 array; returns
    (w0, s, t) and updates ``v`` in place.  ``indptr``, ``indices``,
    ``labels`` and ``v`` are the list copies that ``train_lr`` makes once
    per fit.

    Weights are kept in scaled form w[1:] = s * v, so the L2 shrink (a
    proximal step, w /= 1 + lr * lam) costs O(1) per example.  Feature
    index 0 is the unregularized bias, held apart in w0.  The step is
    lr0 / sqrt(t), t counting examples over all epochs from t0."""
    t = t0
    for i in order.tolist():
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


# ---------------------------------------------------------------------------
# Regression tree growth: exact greedy splits from per-level histograms.
# ---------------------------------------------------------------------------

def bin_columns(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """``grow_tree``'s operands ``bins``, ``bin_start``, ``bin_value``,
    ``bin_rows`` and ``column`` for the columns of ``x`` that hold more than
    one value: a column of one value can never split, so no level searches
    it.  Each kept column gets one bin per distinct value, in ascending
    value order, the kept columns' bins laid end to end.  Kept column j is
    feature ``column[j]`` of ``x`` and owns bins ``bin_start[j]`` up to
    ``bin_start[j + 1]``; bin b holds the value ``bin_value[b]`` in
    ``bin_rows[b]`` rows, which is the root's count histogram for every
    tree, and ``bins[j, i]`` is the bin of row i."""
    kept = []  # (feature, its values, each row's value index, rows per value)
    for f, col in enumerate(x.T):
        values, at, rows = np.unique(col, return_inverse=True, return_counts=True)
        if len(values) > 1:
            kept.append((f, values, at, rows))
    column, values, at, rows = zip(*kept) if kept else ((),) * 4
    bin_start = np.cumsum([0] + [len(v) for v in values])
    bins = np.array(at, dtype=np.int64).reshape(len(kept), len(x)) + bin_start[:-1, None]
    return bins, bin_start, np.concatenate([np.empty(0), *values]), np.concatenate(
        [np.empty(0, dtype=np.int64), *rows]), np.array(column, dtype=np.int64)


def _split_threshold(a, b):
    # A threshold between column values a < b that sends a left and b right:
    # their midpoint, or a where it overflows (beyond about 9e307) or rounds
    # to b (adjacent floats).  Python floats overflow without a RuntimeWarning.
    t = 0.5 * (float(a) + float(b))
    return t if a <= t < b else a


def _node_bound(n, min_leaf, max_depth):
    # The most nodes a tree can hold: a full tree of depth max_depth, or
    # 2 * leaves - 1 for the at most n // min_leaf leaves of n rows.
    return min(2 ** (max_depth + 1) - 1, max(1, 2 * (n // min_leaf) - 1))


def _level_subtracts(n, nfeat, nbins, k):
    # Whether a level of k nodes fills only the smaller child of each split:
    # a level of children whose histograms and their parents' (k + k // 2
    # nodes of nbins cells) fit in n * nfeat cells.
    return k > 1 and (k + k // 2) * nbins <= n * nfeat


def _fill(bins, resid, rows, slot, k, nbins, counts=True):
    # The (k, nbins) per-bin row counts (None unless counts) and residual
    # sums of the given rows (all rows for None), the i-th of them in node
    # slot[i] of the k.  The keys go feature by feature, each feature's rows
    # in row order, and so do the tiled residuals: each cell's residuals add
    # in row order.
    if rows is not None and len(rows) < bins.shape[1]:
        bins, resid = bins.take(rows, axis=1), resid.take(rows)
    if k > 1:  # the keys of one node are its bins
        bins = bins + slot * nbins
    keys = bins.ravel()
    h_sum = np.bincount(keys, weights=np.tile(resid, len(bins)), minlength=k * nbins).reshape(k, nbins)
    if not counts:
        return None, h_sum
    return np.bincount(keys, minlength=k * nbins).reshape(k, nbins), h_sum


def _subtract(lo, hi, node_of, cnt, parents, bins, resid, nbins):
    # The histograms of nodes lo..hi-1, the children of the split nodes
    # whose histograms are parents, in (left, right) pairs: the smaller child
    # of each pair (the left one on equal rows) filled from its rows, which a
    # per-node mask picks, and its sibling the parent minus it, cell by cell,
    # with 0.0 for a cell that holds no row.
    k = hi - lo
    lefts = np.arange(lo, hi, 2)
    small = lefts + (cnt[lefts] > cnt[lefts + 1])
    fill = np.zeros(hi, dtype=bool)
    fill[small] = True
    rows = np.flatnonzero(fill[node_of])
    s_cnt, s_sum = _fill(bins, resid, rows, (node_of[rows] - lo) >> 1, k // 2, nbins)
    b_cnt, b_sum = parents
    b_cnt -= s_cnt
    b_sum -= s_sum
    b_sum[b_cnt == 0] = 0.0
    at = small - lo
    h_cnt, h_sum = np.empty((k, nbins), dtype=np.int64), np.empty((k, nbins))
    h_cnt[at], h_sum[at] = s_cnt, s_sum
    h_cnt[at ^ 1], h_sum[at ^ 1] = b_cnt, b_sum
    return h_cnt, h_sum


def _chunk_splits(lo, hi, h_cnt, h_sum, cnt, ssum, bin_start, bin_value, min_leaf):
    # The splits of nodes lo..hi-1 of a level that beat the node itself, as
    # (nodes, columns, thresholds), from the nodes' histograms, which this
    # overwrites; only cells that hold rows are scored.
    k, nbins = hi - lo, len(bin_value)
    sl = h_sum
    for a, b in zip(bin_start[:-1].tolist(), bin_start[1:].tolist()):
        np.add.accumulate(sl[:, a:b], axis=1, out=sl[:, a:b])
    occ = np.flatnonzero(h_cnt)  # the cells that hold rows, in (node, feature, bin) order
    m = cnt[lo:hi].take(occ // nbins)
    nl = np.cumsum(h_cnt, axis=1, out=h_cnt).take(occ)
    nl -= (np.searchsorted(bin_start, occ % nbins, side="right") - 1) * m  # m per earlier column
    cand = (nl >= min_leaf) & (nl <= m - min_leaf)
    at, nl, m = occ[cand], nl[cand], m[cand]
    m -= nl  # the right side's rows
    sc = sl.take(at)
    sr = ssum[lo:hi].take(at // nbins) - sc
    sc *= sc
    sc /= nl
    sr *= sr
    sr /= m
    sc += sr  # in place, sl * sl / nl + sr * sr / nr
    sl.fill(-np.inf)
    sl.put(at, sc)
    best = sl.argmax(axis=1)  # first maximum: lowest feature, then lowest bin
    win = np.flatnonzero(sl[np.arange(k), best] > ssum[lo:hi] * ssum[lo:hi] / cnt[lo:hi])
    b = best[win]
    nxt = occ[np.searchsorted(occ, win * nbins + b) + 1] - win * nbins  # in the same column
    return lo + win, np.searchsorted(bin_start, b, side="right") - 1, [
        _split_threshold(u, v) for u, v in zip(bin_value[b].tolist(), bin_value[nxt].tolist())]


def _level_histograms(lo, hi, per_chunk, node_of, cnt, parents, bins, resid, bin_rows):
    # The histograms of a level's nodes lo..hi-1, as (lo, hi, counts, sums)
    # per chunk: the root's counts are bin_rows, a level with parents
    # subtracts in one chunk, and any other is filled chunk by chunk.
    nbins = len(bin_rows)
    if hi == 1:
        yield 0, 1, bin_rows[None].copy(), _fill(bins, resid, None, None, 1, nbins, False)[1]
    elif parents is not None:
        yield lo, hi, *_subtract(lo, hi, node_of, cnt, parents, bins, resid, nbins)
    else:
        for a in range(lo, hi, per_chunk):
            b = min(a + per_chunk, hi)
            rows = np.flatnonzero((node_of >= a) & (node_of < b))
            yield a, b, *_fill(bins, resid, rows, node_of[rows] - a, b - a, nbins)


def grow_tree(x, bins, bin_start, bin_value, bin_rows, column, resid, min_leaf, max_depth):
    """One regression tree on the rows of ``x``, fitted to ``resid`` level
    by level, at most ``max_depth`` deep with at least ``min_leaf`` rows a
    leaf: its node arrays (feature, threshold, left, right, value) and each
    row's leaf, ``node_of``.

    ``bins``, ``bin_start``, ``bin_value``, ``bin_rows`` and ``column`` are
    ``bin_columns(x)``, made once for all the trees grown on ``x``: only
    columns with more than one value are searched, and ``column`` maps a
    split back to its feature of ``x``.  A level's (node, bin) histograms
    hold each node's row count and residual sum per bin.  The root's counts
    are ``bin_rows``, the same for every tree, and its sums one
    ``np.bincount``.  Each later level fills only the smaller child of each
    split (fewer rows; the left one on equal rows), with one ``np.bincount``
    pair over those rows' keys, and takes its sibling as the parent's
    histogram minus the smaller child's, cell by cell: counts exactly, and
    0.0 for a cell that holds no row.  The keys go feature by feature, so
    each bin's residuals add in row order, and ``np.add.accumulate`` along
    each column's bins gives each candidate's left sum.  A candidate scores
    ``sl * sl / nl + sr * sr / nr``, and the first maximum in (feature, bin)
    order splits the node if it beats the node's own ``total**2 / n``.  A
    level's histograms, with its parents' that it keeps, must fit in ``n *
    nfeat`` cells, the size of ``bins``: a level that does not is filled
    directly from all its rows, its nodes in chunks within that bound, and
    the next level may subtract from it (``_level_subtracts``).  Nodes are
    allocated up to ``_node_bound``: ``n // min_leaf`` leaves at most."""
    n, nfeat, nbins = x.shape[0], bins.shape[0], len(bin_value)
    per_chunk = max(1, n * nfeat // max(1, nbins))
    max_nodes = _node_bound(n, min_leaf, max_depth)
    feat, left, right = (np.full(max_nodes, -1, dtype=np.int64) for _ in range(3))
    thr, value = np.zeros(max_nodes), np.zeros(max_nodes)
    node_of = np.zeros(n, dtype=np.int64)
    parents = None  # the last level's split nodes' histograms, when this level subtracts
    n_nodes, level_lo, level_hi = 1, 0, 1
    for depth in range(max_depth + 1):
        cnt = np.bincount(node_of, minlength=n_nodes)
        ssum = np.bincount(node_of, weights=resid, minlength=n_nodes)
        kept, n_split = [], 0
        for lo, hi, h_cnt, h_sum in (_level_histograms(
                level_lo, level_hi, per_chunk, node_of, cnt, parents, bins, resid, bin_rows)
                if depth < max_depth and nfeat else ()):
            # _chunk_splits overwrites the histograms, and the next level may
            # subtract from those of the nodes that split.
            raw = (h_cnt.copy(), h_sum.copy()) if _level_subtracts(
                n, nfeat, nbins, 2 * n_split + 2) else None
            nodes, f, t = _chunk_splits(lo, hi, h_cnt, h_sum, cnt, ssum, bin_start, bin_value,
                                        min_leaf)
            feat[nodes], thr[nodes] = column[f], t
            if raw is not None:
                kept.append((raw[0][nodes - lo], raw[1][nodes - lo]))
            n_split += len(nodes)
        level = np.arange(level_lo, level_hi)
        split = level[feat[level] >= 0]
        value[level] = np.where(feat[level] < 0, ssum[level] / cnt[level], 0.0)
        if not len(split):
            break
        parents = tuple(map(np.concatenate, zip(*kept))) if _level_subtracts(
            n, nfeat, nbins, 2 * len(split)) else None
        left[split] = n_nodes + 2 * np.arange(len(split))
        right[split] = left[split] + 1
        n_nodes += 2 * len(split)
        rows = np.flatnonzero(left[node_of] >= 0)  # the rows of the nodes just split
        nd = node_of[rows]
        node_of[rows] = left[nd] + (x.take(rows * x.shape[1] + feat[nd]) > thr[nd])  # right = left + 1
        level_lo, level_hi = level_hi, n_nodes
    return feat[:n_nodes], thr[:n_nodes], left[:n_nodes], right[:n_nodes], value[:n_nodes], node_of


# ---------------------------------------------------------------------------
# Forest scoring: every tree of a packed ensemble in one call.
# ---------------------------------------------------------------------------


# (tree, row) pairs walked per block; bounds the working set of a large batch.
FOREST_BLOCK = 16384


def _forest_operands(feat, thr, left, right, roots):
    # The walk's operands, made once per call from the packed arrays: the
    # interleaved children, and the split columns and thresholds, with a
    # leaf stepping to itself on column 0 against NaN; the roots deepest
    # tree first, and the place of each tree in that order; and how many
    # trees are deeper than each level.  A tree's depth comes from a level
    # walk over its nodes.
    t = roots.shape[0]
    depth = np.zeros(t, dtype=np.int64)
    nodes, trees, level = roots, np.arange(t), 0
    while True:
        inner = left.take(nodes) >= 0
        nodes, trees = nodes[inner], trees[inner]
        if not nodes.size:
            break
        level += 1
        depth[trees] = level
        nodes = np.concatenate((left.take(nodes), right.take(nodes)))
        trees = np.concatenate((trees, trees))
    leaf = left < 0
    itself = np.arange(len(left))
    child = np.empty(2 * len(left), dtype=np.int64)
    child[0::2] = np.where(leaf, itself, left)
    child[1::2] = np.where(leaf, itself, right)
    order = np.argsort(-depth, kind="stable")
    live = [int(np.count_nonzero(depth > k)) for k in range(level)]
    return (child, np.where(leaf, 0, feat), np.where(leaf, np.nan, thr), roots.take(order),
            np.argsort(order), live)


def _forest_block(x, value, child, feat, thr, start, back, live, base, shrinkage):
    # Pair j * n + i walks the j-th deepest tree on row i, so the pairs
    # still walking at level k are a prefix, the first live[k] * n.
    n, d = x.shape
    t = start.shape[0]
    flat = x.reshape(-1)
    nd = np.repeat(start, n)
    offset = np.tile(np.arange(n) * d, t)
    for trees in live:
        at = nd[:trees * n]
        right = ~(flat.take(offset[:trees * n] + feat.take(at)) <= thr.take(at))  # NaN goes right
        nd[:trees * n] = child.take(2 * at + right)
    terms = np.empty((t + 1, n), dtype=np.float64)
    terms[0] = base
    # The leaves go back to tree order, and cumsum adds down the tree axis
    # in that order, unlike the pairwise np.sum.
    np.multiply(shrinkage, value.take(nd.reshape(t, n).take(back, axis=0)), out=terms[1:])
    return np.cumsum(terms, axis=0)[-1]


def apply_forest(x, feat, thr, left, right, value, roots, base, shrinkage):
    """Each row's forest score: ``base``, then ``shrinkage`` times each
    tree's leaf added in tree order.  The (tree, row) pairs are walked in
    blocks of at most ``FOREST_BLOCK``, deepest tree first (see the module
    docstring)."""
    n = x.shape[0]
    operands = _forest_operands(feat, thr, left, right, roots)
    step = max(1, FOREST_BLOCK // max(1, roots.shape[0]))
    out = np.empty(n, dtype=np.float64)
    for lo in range(0, n, step):
        out[lo:lo + step] = _forest_block(x[lo:lo + step], value, *operands, base, shrinkage)
    return out


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
    ``apply_forest`` for that row, so the same score bit for bit.  Its source
    holds one line per tree; it is compiled once, in a namespace without
    builtins that binds only ``inf`` and ``nan``.  A tree deeper than 200
    levels does not compile: CPython nests at most 200 parentheses."""
    namespace = {"__builtins__": {}, "inf": math.inf, "nan": math.nan}
    exec(compile(_forest_source(feat, thr, left, right, value, roots, base, shrinkage),
                 "<forest>", "exec"), namespace)
    return namespace["score"]


def apply_tree(node_of, value):
    """Each training row's leaf value: ``value`` gathered at the leaves that
    ``grow_tree`` put the rows in.  It is a name of its own only because
    perfbench's tracer times boosting's update under it (``spans.KERNELS``)
    and counts rows from ``args[0].shape[0]``, so ``node_of`` stays the first
    argument, an array.  It can go once rtbsim counts its own work."""
    return value[node_of]
