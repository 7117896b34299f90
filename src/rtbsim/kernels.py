"""Hot numeric kernels with two interchangeable backends.

Every kernel here has a loop form, which numba's ``@njit`` compiles, and
the backend is whether numba imports (``HAVE_NUMBA``): with it the loop
forms run, without it the numpy forms (plain Python where numpy does not
pay, as for the SGD epoch and one forest row).  The two backends are
bit-identical for every kernel: integer arithmetic is exact, and the float
accumulations are arranged so both sides add in the same order
(``np.cumsum``, ``np.add.accumulate`` and ``np.bincount`` add in sequence,
matching the scalar loops).  The test suite asserts this equality, and
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

``win_scan`` replays one row of bids, or each row of a (rows, n) block of
bids (a tuning grid, or a campaign's strategies at one budget), all under
the same budget, and returns each row's win flags, spend and exhaustion
index.  Its loop form runs the sequential scan once per row; its numpy form
scans all the rows side by side, with a few int64 and bool arrays of the
block's size.  ``SCAN_CELLS`` is the most cells (rows times cases) a caller
hands one call: ``replay.simulate_each`` splits its rows into blocks of
that size, so a long grid on a long log holds a bounded working set.

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

``grow_tree`` searches each level's splits from histograms with one bin
per distinct value of a column, which ``bin_columns`` assigns once per
model, with the root's row counts; it drops the columns that hold one
value, which can never split.  Each level after the root fills only the
smaller child of each split (fewer rows, the left one on equal rows), its
residuals in row order, and takes the sibling's histograms as the parent's
minus the smaller child's, cell by cell (counts exactly; 0.0 for a cell
without rows).  A level whose histograms and its parents' do not fit in
``n * nfeat`` cells is filled directly, in chunks (see
``grow_tree_numpy``).
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

def _win_scan_row_py(bids, paying, floor, budget, win):
    # Strict second-price win rule: bid must beat both the logged market
    # price and the floor.  Budget check is pre-bid; the final win may
    # overshoot the budget by one paying price.  Marks the wins in ``win``.
    n = bids.shape[0]
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
    return spent, exhausted


_win_scan_row = _njit(_win_scan_row_py)


def _win_scan_rows_py(bids, paying, floor, budget):
    rows, n = bids.shape
    win = np.zeros((rows, n), dtype=np.uint8)
    spent = np.zeros(rows, dtype=np.int64)
    exhausted = np.zeros(rows, dtype=np.int64)
    for r in range(rows):
        s, e = _win_scan_row(bids[r], paying, floor, budget, win[r])
        spent[r] = s
        exhausted[r] = e
    return win, spent, exhausted


_win_scan_rows = _njit(_win_scan_rows_py)


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


def _scan_form(rows_scan):
    """The scan of 1-D bids, or of each row of 2-D bids, by ``rows_scan``."""

    def scan(bids, paying, floor, budget):
        if bids.ndim == 2:
            return rows_scan(bids, paying, floor, budget)
        win, spent, exhausted = rows_scan(bids[None], paying, floor, budget)
        return win[0], spent[0], exhausted[0]

    return scan


win_scan_loop = _scan_form(_win_scan_rows)
win_scan_numpy = _scan_form(_win_scan_block)


win_scan = win_scan_loop if HAVE_NUMBA else win_scan_numpy

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


def _split_threshold_py(a, b):
    # A threshold between column values a < b that sends a left and b right:
    # their midpoint, or a where it overflows (beyond about 9e307) or rounds
    # to b (adjacent floats).  Python floats overflow without a RuntimeWarning.
    t = 0.5 * (float(a) + float(b))
    return t if a <= t < b else a


_split_threshold = _njit(_split_threshold_py)


def _node_bound_py(n, min_leaf, max_depth):
    # The most nodes a tree can hold: a full tree of depth max_depth, or
    # 2 * leaves - 1 for the at most n // min_leaf leaves of n rows.
    return min(2 ** (max_depth + 1) - 1, max(1, 2 * (n // min_leaf) - 1))


_node_bound = _njit(_node_bound_py)


def _level_subtracts_py(n, nfeat, nbins, k):
    # Whether a level of k nodes fills only the smaller child of each split:
    # a level of children whose histograms and their parents' (k + k // 2
    # nodes of nbins cells) fit in n * nfeat cells.
    return k > 1 and (k + k // 2) * nbins <= n * nfeat


_level_subtracts = _njit(_level_subtracts_py)


def _grow_tree_py(x, bins, bin_start, bin_value, bin_rows, column, resid, min_leaf, max_depth):
    # Level-wise growth over bin_columns' columns, by the rule that the
    # module docstring states.  Per level, one pass over the rows counts each
    # node's rows and residual sum in row order; a running sum over each
    # column's bins in ascending value order scores the split after each bin
    # that holds rows of the node, with its threshold between that bin's
    # value and the node's next (_split_threshold).  p keeps the histograms
    # of the nodes that split, for a next level that _level_subtracts.
    n = x.shape[0]
    nfeat = bins.shape[0]
    nbins = bin_value.shape[0]
    per_chunk = max(1, n * nfeat // max(1, nbins))
    max_nodes = _node_bound(n, min_leaf, max_depth)
    feat = np.full(max_nodes, -1, dtype=np.int64)
    thr = np.zeros(max_nodes, dtype=np.float64)
    left = np.full(max_nodes, -1, dtype=np.int64)
    right = np.full(max_nodes, -1, dtype=np.int64)
    value = np.zeros(max_nodes, dtype=np.float64)

    node_of = np.zeros(n, dtype=np.int64)
    cnt = np.zeros(max_nodes, dtype=np.int64)
    ssum = np.zeros(max_nodes, dtype=np.float64)
    h_cnt = np.zeros((per_chunk, nbins), dtype=np.int64)
    h_sum = np.zeros((per_chunk, nbins), dtype=np.float64)
    # A subtracting level has at most per_chunk // 3 parents.
    p_cnt = np.zeros((per_chunk // 3, nbins), dtype=np.int64)
    p_sum = np.zeros((per_chunk // 3, nbins), dtype=np.float64)

    n_nodes = 1
    level_lo = 0
    level_hi = 1
    for depth in range(max_depth + 1):
        cnt[level_lo:level_hi] = 0
        ssum[level_lo:level_hi] = 0.0
        for i in range(n):
            nd = node_of[i]
            if level_lo <= nd < level_hi:
                cnt[nd] += 1
                ssum[nd] += resid[i]

        subtract = _level_subtracts(n, nfeat, nbins, level_hi - level_lo)
        step = level_hi - level_lo if subtract else per_chunk
        n_split = 0
        for lo in range(level_lo, level_hi if depth < max_depth and nfeat > 0 else level_lo, step):
            hi = min(lo + step, level_hi)
            h_cnt[:hi - lo] = 0
            h_sum[:hi - lo] = 0.0
            if depth == 0:
                h_cnt[0, :] = bin_rows
            for i in range(n):
                r = node_of[i] - lo
                # Under subtraction, only the smaller child: the left one
                # (r even) on equal rows.
                if 0 <= r < hi - lo and (not subtract or cnt[lo + r] + (r & 1) <= cnt[lo + (r ^ 1)]):
                    for f in range(nfeat):
                        if depth > 0:
                            h_cnt[r, bins[f, i]] += 1
                        h_sum[r, bins[f, i]] += resid[i]
            if subtract:
                for r in range(0, hi - lo, 2):
                    small = r if cnt[lo + r] <= cnt[lo + r + 1] else r + 1
                    big = small ^ 1
                    for b in range(nbins):
                        c = p_cnt[r // 2, b] - h_cnt[small, b]
                        h_cnt[big, b] = c
                        h_sum[big, b] = p_sum[r // 2, b] - h_sum[small, b] if c > 0 else 0.0
            for nd in range(lo, hi):
                r = nd - lo
                best_score = -np.inf
                best_feat = -1
                best_bin = -1
                for f in range(nfeat):
                    nl = 0
                    sl = 0.0
                    for b in range(bin_start[f], bin_start[f + 1]):
                        nl += h_cnt[r, b]
                        sl += h_sum[r, b]
                        nr = cnt[nd] - nl
                        if h_cnt[r, b] > 0 and nl >= min_leaf and nr >= min_leaf:
                            sr = ssum[nd] - sl
                            sc = sl * sl / nl + sr * sr / nr
                            if sc > best_score:
                                best_score = sc
                                best_feat = f
                                best_bin = b
                if best_bin >= 0 and best_score > ssum[nd] * ssum[nd] / cnt[nd]:
                    nxt = best_bin + 1
                    while h_cnt[r, nxt] == 0:
                        nxt += 1
                    feat[nd] = column[best_feat]
                    thr[nd] = _split_threshold(bin_value[best_bin], bin_value[nxt])
                    left[nd] = n_nodes
                    right[nd] = n_nodes + 1
                    n_nodes += 2
                    if _level_subtracts(n, nfeat, nbins, 2 * n_split + 2):
                        p_cnt[n_split, :] = h_cnt[r, :]
                        p_sum[n_split, :] = h_sum[r, :]
                    n_split += 1

        for nd in range(level_lo, level_hi):
            if left[nd] < 0:
                value[nd] = ssum[nd] / cnt[nd]
        if n_split > 0:
            for i in range(n):
                nd = node_of[i]
                if level_lo <= nd < level_hi and left[nd] >= 0:
                    if x[i, feat[nd]] <= thr[nd]:
                        node_of[i] = left[nd]
                    else:
                        node_of[i] = right[nd]
        level_lo = level_hi
        level_hi = n_nodes
        if n_split == 0:
            break
    return feat[:n_nodes], thr[:n_nodes], left[:n_nodes], right[:n_nodes], value[:n_nodes], node_of


grow_tree_loop = _njit(_grow_tree_py)


def _fill(bins, weights, rows, slot, k, nbins, counts=True):
    # The (k, nbins) per-bin row counts (None unless counts) and residual
    # sums of the given rows (all rows for None), the i-th of them in node
    # slot[i] of the k.  The keys go feature by feature, so each cell's
    # residuals add in row order.
    if rows is not None and len(rows) < bins.shape[1]:
        bins, weights = bins.take(rows, axis=1), weights.take(rows, axis=1)
    if k > 1:  # the keys of one node are its bins
        bins = bins + slot * nbins
    keys = bins.ravel()
    h_sum = np.bincount(keys, weights=weights.ravel(), minlength=k * nbins).reshape(k, nbins)
    if not counts:
        return None, h_sum
    return np.bincount(keys, minlength=k * nbins).reshape(k, nbins), h_sum


def _subtract(lo, hi, node_of, cnt, parents, bins, weights, nbins):
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
    s_cnt, s_sum = _fill(bins, weights, rows, (node_of[rows] - lo) >> 1, k // 2, nbins)
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
    sc += sr  # in place, the loop's sl * sl / nl + sr * sr / nr
    sl.fill(-np.inf)
    sl.put(at, sc)
    best = sl.argmax(axis=1)  # first maximum: lowest feature, then lowest bin
    win = np.flatnonzero(sl[np.arange(k), best] > ssum[lo:hi] * ssum[lo:hi] / cnt[lo:hi])
    b = best[win]
    nxt = occ[np.searchsorted(occ, win * nbins + b) + 1] - win * nbins  # in the same column
    return lo + win, np.searchsorted(bin_start, b, side="right") - 1, [
        _split_threshold(u, v) for u, v in zip(bin_value[b].tolist(), bin_value[nxt].tolist())]


def _level_histograms(lo, hi, per_chunk, node_of, cnt, parents, bins, weights, bin_rows):
    # The histograms of a level's nodes lo..hi-1, as (lo, hi, counts, sums)
    # per chunk: the root's counts are bin_rows, a level with parents
    # subtracts in one chunk, and any other is filled chunk by chunk.
    nbins = len(bin_rows)
    if hi == 1:
        yield 0, 1, bin_rows[None].copy(), _fill(bins, weights, None, None, 1, nbins, False)[1]
    elif parents is not None:
        yield lo, hi, *_subtract(lo, hi, node_of, cnt, parents, bins, weights, nbins)
    else:
        for a in range(lo, hi, per_chunk):
            b = min(a + per_chunk, hi)
            rows = np.flatnonzero((node_of >= a) & (node_of < b))
            yield a, b, *_fill(bins, weights, rows, node_of[rows] - a, b - a, nbins)


def grow_tree_numpy(x, bins, bin_start, bin_value, bin_rows, column, resid, min_leaf, max_depth):
    """Vectorized twin of the loop kernel (same splits, bit for bit).

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
    each column's bins then gives the loop's sums in the loop's order, so
    the same scores, and the first maximum in (feature, bin) order is the
    loop's tie-break.  A level's histograms, with its parents' that it
    keeps, must fit in ``n * nfeat`` cells, the size of ``bins``: a level
    that does not is filled directly from all its rows, its nodes in chunks
    within that bound, and the next level may subtract from it
    (``_level_subtracts``).  Nodes are allocated up to ``_node_bound``:
    ``n // min_leaf`` leaves at most."""
    n, nfeat, nbins = x.shape[0], bins.shape[0], len(bin_value)
    per_chunk = max(1, n * nfeat // max(1, nbins))
    max_nodes = _node_bound(n, min_leaf, max_depth)
    feat, left, right = (np.full(max_nodes, -1, dtype=np.int64) for _ in range(3))
    thr, value = np.zeros(max_nodes), np.zeros(max_nodes)
    node_of = np.zeros(n, dtype=np.int64)
    weights = np.tile(resid, (nfeat, 1))  # the residual of each key
    parents = None  # the last level's split nodes' histograms, when this level subtracts
    n_nodes, level_lo, level_hi = 1, 0, 1
    for depth in range(max_depth + 1):
        cnt = np.bincount(node_of, minlength=n_nodes)
        ssum = np.bincount(node_of, weights=resid, minlength=n_nodes)
        kept, n_split = [], 0
        for lo, hi, h_cnt, h_sum in (_level_histograms(
                level_lo, level_hi, per_chunk, node_of, cnt, parents, bins, weights, bin_rows)
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
    win_scan(np.broadcast_to(bids, (2, 2)), pay, flr, np.int64(100))  # tune's Const block
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 2], dtype=np.int32)
    labels = np.array([0.0, 1.0])
    v = np.zeros(2)
    order = np.array([0, 1], dtype=np.int64)
    sgd_epoch(indptr, indices, labels, v, order, 0.0, 1.0, 0, 0.01, 1e-6)
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    r = np.array([0.0, 0.0, 1.0, 1.0])
    *tree, _ = grow_tree(x, *bin_columns(x), r, 1, 2)
    root = np.zeros(1, dtype=np.int64)
    apply_forest(x, *tree, root, 0.0, 1.0)
    apply_forest_row(x[0], *tree, root, 0.0, 1.0)
