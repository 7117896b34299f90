"""Independent reference implementations used as test oracles.

Everything here is deliberately straight-line Python with no shared code
paths into the package internals it checks: the replay references walk
case objects or bids one by one, the AUC reference counts all
positive/negative pairs, the gradient reference differentiates a locally
re-stated loss by central finite differences, the SGD reference runs one
epoch's updates over arrays, the split reference scores every candidate
split of a node, and the tree reference grows a whole tree from it.
"""

from __future__ import annotations

import math

import numpy as np

from rtbsim.bidding import RandBid, compute_bid


def reference_simulate(cases, strategy, budget, pctr=None):
    """Straight-line replay: returns (wins, clicks, convs, spent_milli)."""
    rng = strategy.stream() if isinstance(strategy, RandBid) else None
    wins = clicks = convs = 0
    spent = 0
    for i, case in enumerate(cases):
        if spent >= budget:
            break
        p = None if pctr is None else float(pctr[i])
        bid = compute_bid(strategy, pctr=p, rng=rng)
        if bid > case.paying_price and bid > case.floor_price:
            wins += 1
            spent += case.paying_price
            if case.clicked:
                clicks += 1
            if case.converted:
                convs += 1
    return wins, clicks, convs, spent


def reference_win_scan(bids, paying, floor, budget):
    """Straight-line replay of one row of bids: (win flags, spent,
    exhausted_at).  Each case is bid on while the spend so far is under
    ``budget``; a bid wins when it beats both the paying price and the
    floor, and pays the paying price.  ``exhausted_at`` is the first case
    reached with the budget spent, or -1."""
    win = [0] * len(bids)
    spent = 0
    for i, (b, p, f) in enumerate(zip(bids, paying, floor)):
        if spent >= budget:
            return win, spent, i
        if b > p and b > f:
            win[i] = 1
            spent += p
    return win, spent, -1


def pairwise_auc(scores, labels) -> float:
    """O(n^2) Mann-Whitney count with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def reference_lr_loss(weights, l2, indptr, indices, labels) -> float:
    """Mean cross-entropy + (l2/2)||w[1:]||^2, restated from scratch."""
    n = len(labels)
    total = 0.0
    for i in range(n):
        m = weights[0]
        for j in range(indptr[i], indptr[i + 1]):
            m += weights[indices[j]]
        p = 1.0 / (1.0 + math.exp(-m)) if m >= 0 else math.exp(m) / (1.0 + math.exp(m))
        p = min(max(p, 1e-300), 1.0 - 1e-16)
        total += -(labels[i] * math.log(p) + (1.0 - labels[i]) * math.log(1.0 - p))
    reg = 0.5 * l2 * sum(w * w for w in weights[1:])
    return total / n + reg


def finite_difference_gradient(weights, l2, indptr, indices, labels, coords, h=1e-5):
    """Central differences of :func:`reference_lr_loss` at chosen coords."""
    grad = np.zeros(len(coords))
    for k, c in enumerate(coords):
        wp = weights.copy()
        wm = weights.copy()
        wp[c] += h
        wm[c] -= h
        grad[k] = (
            reference_lr_loss(wp, l2, indptr, indices, labels)
            - reference_lr_loss(wm, l2, indptr, indices, labels)
        ) / (2.0 * h)
    return grad


def reference_sgd_epoch(indptr, indices, labels, v, order, w0, s, t0, lr0, lam):
    """One SGD epoch of L2-regularized logistic regression over the arrays,
    in ``order``: returns (w0, s, t) and updates ``v`` in place.

    The non-bias weights are held as w[1:] = s * v and the bias as w0.  Step
    t (counted from t0 over all epochs) has rate lr = lr0 / sqrt(t): the
    margin is w0 plus s * v[c - 1] over the row's indices c in order, p its
    sigmoid (by exp(m) / (1 + exp(m)) for a negative margin), g = p - label;
    w0 -= lr * g, each v[c - 1] -= lr * g / s, then s /= 1 + lr * lam, and
    once s falls below 1e-130, v is multiplied by s and s reset to 1.
    """
    t = t0
    for i in order:
        t += 1
        lr = lr0 / math.sqrt(t)
        m = w0
        row = indices[indptr[i]:indptr[i + 1]]
        for c in row:
            m += s * v[c - 1]
        p = 1.0 / (1.0 + math.exp(-m)) if m >= 0.0 else math.exp(m) / (1.0 + math.exp(m))
        g = p - labels[i]
        w0 -= lr * g
        for c in row:
            v[c - 1] -= lr * g / s
        s /= 1.0 + lr * lam
        if s < 1e-130:
            v *= s
            s = 1.0
    return w0, s, t


def reference_tree_leaves(rows, feature, threshold, left, right, value, root=0):
    """Each row's leaf value in the tree at ``root``, walked one node at a
    time: a row goes left when its split column is <= the threshold, and a
    node with ``left < 0`` is a leaf."""
    out = []
    for row in rows:
        nd = root
        while left[nd] >= 0:
            nd = left[nd] if row[feature[nd]] <= threshold[nd] else right[nd]
        out.append(float(value[nd]))
    return np.array(out, dtype=np.float64)


def reference_best_split(columns, resid, min_leaf, value_sums=None):
    """The split a regression-tree node takes, by brute force: ``(feature,
    threshold)``, or None when no split scores above the node itself.

    The sum rule comes first.  For each feature, the residuals of the rows
    that share a value are summed per value, in row order, from 0.0, unless
    ``value_sums[f]`` gives feature f's sum of each value the rows hold (see
    ``reference_node_splits``); ``sl`` is then the running sum of those
    per-value sums in ascending value order, from 0.0.  The node total is
    summed in row order, and ``sr`` is the total minus ``sl``.

    ``columns[f]`` holds feature f's value of each of the node's rows, and
    ``resid`` their residuals, both in row order.  A candidate puts the rows
    of the smallest values of a feature, up to one value, on the left, where
    a larger value follows and both sides keep at least ``min_leaf`` rows.
    It scores ``sl * sl / nl + sr * sr / nr``.  The first candidate with the
    strictly greatest score, in (feature, value) order, wins if it beats the
    node's own ``total**2 / n``.  Its threshold is the midpoint of the value
    and the next larger one, or the value itself where the midpoint
    overflows or rounds up to the larger one.
    """
    n = len(resid)
    total = 0.0
    for r in resid:
        total += r
    sums = value_sums or row_order_sums(columns, resid)
    best, choice = -math.inf, None
    for f, col in enumerate(columns):
        rows = {}  # value -> rows that hold it
        for v in col:
            rows[v] = rows.get(v, 0) + 1
        values = sorted(rows)
        nl, sl = 0, 0.0
        for a, b in zip(values, values[1:]):
            nl += rows[a]
            sl += sums[f][a]
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            sr = total - sl
            score = sl * sl / nl + sr * sr / nr
            if score > best:
                mid = 0.5 * (a + b)
                best, choice = score, (f, mid if a <= mid < b else a)
    return choice if best > total * total / n else None


def row_order_sums(columns, resid):
    """Per feature, each value's residual sum over the rows that hold it,
    added in row order from 0.0."""
    sums = []
    for col in columns:
        per_value = {}
        for v, r in zip(col, resid):
            per_value[v] = per_value.get(v, 0.0) + r
        sums.append(per_value)
    return sums


def reference_value_sums(x, resid, feature, threshold, left, right):
    """``{node: (rows, sums)}`` for every node of a grown tree, walked level
    by level from the root: the node's rows, in row order, and for each
    feature of ``x``, the residual sum of each value that the rows hold.

    The sum rule comes first.  The searched columns are those that hold
    more than one value over all n rows: ``nfeat`` of them, holding
    ``nbins`` distinct values in all.  A level's nodes are the children of
    the last level's splits, in (left, right) pairs.  A level of k > 1 nodes
    subtracts when ``(k + k // 2) * nbins <= n * nfeat``.  There the smaller
    node of each pair (fewer rows; the left one on equal rows) sums each
    value's residuals over its rows in row order, from 0.0, and the larger
    one takes, for each value it holds, its parent's sum minus the smaller
    node's (0.0 where the smaller node holds no row of that value).  The
    root and the nodes of a level that does not subtract sum in row order.

    The rows reach the nodes by the tree's own splits: a row goes left when
    its split column is <= the threshold.
    """
    rows_x, resid, searched = np.asarray(x).tolist(), list(resid), _searched(x)
    out = {}
    level = [(0, list(range(len(resid))), None)]  # (node, rows, parent) in node order
    while level:
        _level_sums(level, out, rows_x, resid, *searched)
        nxt = []
        for nd, rows, _ in level:
            if left[nd] >= 0:
                nxt += _children(rows_x, nd, rows, feature[nd], threshold[nd], left[nd], right[nd])
        level = nxt
    return out


def _searched(x):
    # (columns, their features, the distinct values they hold in all) of the
    # columns of x that hold more than one value.
    held = [len(set(col)) for col in np.asarray(x).T.tolist()]
    return len(held), sum(h > 1 for h in held), sum(h for h in held if h > 1)


def _children(rows_x, nd, rows, feature, threshold, left, right):
    # The (node, rows, parent) of node nd's two children.
    go = [rows_x[i][feature] <= threshold for i in rows]
    return [(left, [i for i, g in zip(rows, go) if g], nd),
            (right, [i for i, g in zip(rows, go) if not g], nd)]


def _level_sums(level, out, rows_x, resid, d, nfeat, nbins):
    # out[node] = (rows, per-feature value sums) for each (node, rows,
    # parent) of a level, by reference_value_sums' sum rule.
    k, n = len(level), len(resid)
    subtracts = k > 1 and (k + k // 2) * nbins <= n * nfeat

    def larger(at):
        # Whether level[at] takes its parent's sums minus its sibling's.
        if not subtracts:
            return False
        ours, theirs = len(level[at][1]), len(level[at ^ 1][1])
        return ours > theirs or (ours == theirs and at % 2 == 1)

    for at in sorted(range(k), key=larger):  # the smaller nodes first
        nd, rows, parent = level[at]
        columns = [[rows_x[i][f] for i in rows] for f in range(d)]
        if larger(at):
            small = out[level[at ^ 1][0]][1]
            sums = [{v: out[parent][1][f][v] - small[f].get(v, 0.0) for v in col}
                    for f, col in enumerate(columns)]
        else:
            sums = row_order_sums(columns, [resid[i] for i in rows])
        out[nd] = rows, sums


def reference_grow_tree(x, resid, min_leaf, max_depth):
    """A regression tree grown one level at a time from the root, as the
    arrays (feature, threshold, left, right, value, node_of).

    The nodes of a level, in node order, each take ``reference_best_split``
    of their rows, with the per-value sums of ``reference_value_sums``'
    rule, except at depth ``max_depth``.  A node that splits gets the next
    two node numbers, left then right, and its rows go left when their
    split column is <= the threshold.  A leaf's value is its rows' residuals
    summed in row order from 0.0, over their count; a split node's value,
    and a leaf's threshold, are 0.0, and a leaf's feature and children -1.
    ``node_of`` is each row's leaf.
    """
    rows_x, resid, searched = np.asarray(x).tolist(), [float(r) for r in resid], _searched(x)
    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [0.0]
    node_of = [0] * len(resid)
    sums = {}
    level, depth = [(0, list(range(len(resid))), None)], 0
    while level:
        if depth < max_depth:
            _level_sums(level, sums, rows_x, resid, *searched)
        nxt = []
        for nd, rows, _ in level:
            own = [resid[i] for i in rows]
            choice = None if depth == max_depth else reference_best_split(
                [[rows_x[i][f] for i in rows] for f in range(searched[0])], own, min_leaf,
                sums[nd][1])
            if choice is None:
                total = 0.0
                for r in own:
                    total += r
                value[nd] = total / len(rows)
                for i in rows:
                    node_of[i] = nd
                continue
            feature[nd], threshold[nd] = choice
            left[nd], right[nd] = len(feature), len(feature) + 1
            for column, blank in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1),
                                  (value, 0.0)):
                column += [blank, blank]
            nxt += _children(rows_x, nd, rows, *choice, left[nd], right[nd])
        level, depth = nxt, depth + 1
    return (np.array(feature, dtype=np.int64), np.array(threshold), np.array(left, dtype=np.int64),
            np.array(right, dtype=np.int64), np.array(value), np.array(node_of, dtype=np.int64))


def reference_node_splits(x, resid, min_leaf, max_depth, feature, threshold, left, right):
    """``{node: reference_best_split of its rows}`` for every node of a
    grown tree, with the per-value sums of ``reference_value_sums``, and None
    at depth ``max_depth``, where no node is searched."""
    depth = [0] * len(left)
    for nd in range(len(left)):  # a child comes after its parent
        if left[nd] >= 0:
            depth[left[nd]] = depth[right[nd]] = depth[nd] + 1
    rows_x = np.asarray(x).tolist()
    want = {}
    for nd, (rows, sums) in reference_value_sums(x, resid, feature, threshold, left, right).items():
        columns = [[rows_x[i][f] for i in rows] for f in range(len(sums))]
        want[nd] = None if depth[nd] == max_depth else reference_best_split(
            columns, [float(resid[i]) for i in rows], min_leaf, sums)
    return want
