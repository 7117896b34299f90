"""Independent reference implementations used as test oracles.

Everything here is deliberately straight-line Python with no shared code
paths into the package internals it checks: the replay reference walks
case objects one by one, the AUC reference counts all positive/negative
pairs, the gradient reference differentiates a locally re-stated loss
by central finite differences, and the split reference scores every
candidate split of a node.
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


def reference_best_split(columns, resid, min_leaf):
    """The split a regression-tree node takes, by brute force: ``(feature,
    threshold)``, or None when no split scores above the node itself.

    The sum rule comes first.  For each feature, the residuals of the rows
    that share a value are summed per value, in row order, from 0.0; ``sl``
    is then the running sum of those per-value sums in ascending value
    order, from 0.0.  The node total is summed in row order, and ``sr`` is
    the total minus ``sl``.

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
    best, choice = -math.inf, None
    for f, col in enumerate(columns):
        per_value = {}  # value -> [rows, residual sum]
        for v, r in zip(col, resid):
            tally = per_value.setdefault(v, [0, 0.0])
            tally[0] += 1
            tally[1] += r
        values = sorted(per_value)
        nl, sl = 0, 0.0
        for a, b in zip(values, values[1:]):
            nl += per_value[a][0]
            sl += per_value[a][1]
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            sr = total - sl
            score = sl * sl / nl + sr * sr / nr
            if score > best:
                mid = 0.5 * (a + b)
                best, choice = score, (f, mid if a <= mid < b else a)
    return choice if best > total * total / n else None
