"""Binary CART trees and the two ensembles built on them.

Trees split on midpoints between consecutive distinct sorted values (on the
lower value where the midpoint would round onto the upper one),
minimizing the weighted child impurity. For 0/1 targets the variance
criterion used here equals Gini impurity up to a constant factor of 2, so
the same split scan serves classification trees and the boosted regression
trees. Split ties break toward the earlier feature and then the smaller
threshold, which makes training row-order independent.

Split search is exact and greedy (as in XGBoost's exact mode) and scans all
candidate features of a node at once. Each fit first maps every design-matrix
column to integer codes of its sorted distinct values (`_CodedMatrix`); GBT
reuses that view for all rounds and the random forest for all bootstrap
trees. At a node, one stable argsort per feature row orders the node's codes,
one cumsum per row accumulates the target and its square, and one argmax
picks the best (feature, cut) pair. The result is bit-identical to sorting
each feature's float values on its own: equal values share a code, so the
stable sort keeps the same (value, position in the node) order and the
cumsums add the same numbers in the same sequence; the flat argmax returns
the first maximum in (feature, position) order, which is the tie-break
above; and the threshold comes from the same two float values.

The random forest's 0/1 targets skip that sort (`_count_splits`). Their
cumsums add only integers below 2**53, which floats hold exactly whatever
the order, so the rows and positives counted per (node, feature, code) give
the same sums and bit-identical gains; the first maximum in (feature, code)
order is the same tie-break. Node sizes, purity and leaf values (positives /
rows, which equals the mean) come from the same counts. GBT's residual
targets are fractions whose sums depend on their order, so every GBT node
keeps the sorted scan. So does the decision tree: its steps hold one to a
few nodes, where the count path's fixed cost per block outweighs the sort.

All three learners grow trees with one stack-driven grower (`_grow`). Each
step pops the newest pending node of every tree, so nodes are split in the
pre-order of a recursive grower. The random forest grows its trees in
lockstep and counts a step's nodes together, in blocks of at most
BLOCK_CELLS (row, feature) cells; the pre-order keeps each tree's feature
draws (`rng.sample`), and so its RNG stream, those of a recursive grower.
The decision tree and GBT grow one tree and draw nothing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from ..seeding import derive_seed
from .linear import _sigmoid

_MIN_GAIN = 1e-12
_MAX_LEAF_STEP = 10.0
# (row, feature) cells counted in one block. At 2**14, glibc's malloc gave
# a block's scratch arrays back to the kernel after most blocks and the next
# block faulted them in again: about 3500 page faults per benchmark `ablate`
# job, against 30 at 2**13 for the same CPU time.
BLOCK_CELLS = 2**13


class _CodedMatrix:
    """A design matrix plus, per column, its sorted distinct values and row codes.

    `flat_values` holds every column's sorted distinct values, column j's from
    `offsets[j]`, and `codes[j, i]` indexes column j's values at the value of
    row i. Codes are int16 while they fit, because numpy's stable sort of
    16-bit integers is a radix sort. `n_codes` is the most values any column
    has.
    """

    def __init__(self, x_mat):
        n, p = x_mat.shape
        self.x = x_mat
        self.codes = np.empty((p, n), dtype=np.int16 if n < 2**15 else np.intp)
        columns = []
        for j in range(p):
            values, codes = np.unique(x_mat[:, j], return_inverse=True)
            self.codes[j] = codes
            columns.append(values)
        sizes = [len(values) for values in columns]
        self.n_codes = max(sizes)
        self.offsets = np.cumsum([0] + sizes[:-1])
        self.flat_values = np.concatenate(columns)


def _threshold(lo, hi):
    """The midpoint of lo < hi, or lo where it rounds onto hi or overflows (as
    scikit-learn's splitter), so `x <= t` sends exactly the rows <= lo left."""
    mid = (lo + hi) / 2.0
    return np.where((lo <= mid) & (mid < hi), mid, lo)


def _best_split(data, idx, t, min_leaf, feature_ids):
    """Highest variance-reduction split over the given features, or None."""
    n = idx.size
    tt = t[idx]
    total = tt.sum()
    total_sq = (tt * tt).sum()
    parent_sse = total_sq - total * total / n
    node_codes = data.codes.take(feature_ids, axis=0).take(idx, axis=1)
    order = node_codes.argsort(axis=1, kind="stable")
    row_starts = np.arange(0, node_codes.size, n)[:, None]
    sorted_codes = node_codes.ravel().take(order + row_starts)
    # A cut after sorted position pos leaves pos + 1 rows on the left. Cuts at
    # pos < width leave at least min_leaf rows on the right; the first
    # min_leaf - 1 positions leave too few on the left. Every cut leaves at
    # least one row on each side, so min_leaf below 1 acts as 1.
    min_leaf = max(min_leaf, 1)
    width = n - min_leaf
    is_cut = sorted_codes[:, :width] != sorted_codes[:, 1 : width + 1]
    is_cut[:, : min_leaf - 1] = False
    cand = is_cut.ravel().nonzero()[0]  # row-major: feature, then position
    if cand.size == 0:
        return None
    left_n = cand % width + 1
    right_n = n - left_n
    st = tt.take(order[:, :width])
    csum = st.cumsum(axis=1).ravel().take(cand)
    csq = (st * st).cumsum(axis=1).ravel().take(cand)
    left_sse = csq - csum * csum / left_n
    right_sum = total - csum
    right_sse = (total_sq - csq) - right_sum * right_sum / right_n
    gain = (parent_sse - left_sse - right_sse) / n
    k = int(np.argmax(gain))  # first max -> earlier feature, then smaller threshold
    if not gain[k] > _MIN_GAIN:
        return None
    r, c = divmod(int(cand[k]), width)
    j = int(feature_ids[r])
    lo, hi = data.flat_values[data.offsets[j] + sorted_codes[r, c : c + 2]]
    return j, float(_threshold(lo, hi))


def _count_splits(data, y, nodes, features, min_leaf):
    """Best split of each node of 0/1 targets from per-code row and positive counts.

    `nodes` are row-index arrays, `features[b]` the candidate feature ids of
    node b and `y` the targets as integers. Returns, per node, None or
    (feature, threshold, positives left).
    """
    n_nodes, m = features.shape
    sizes = np.fromiter(map(len, nodes), np.int64, n_nodes)
    rows = np.concatenate(nodes)
    n_codes = data.n_codes
    # One key per (row, feature) cell, ordered by node, feature slot and code,
    # with the target in the lowest bit. A node's rows fill one run of cells
    # per feature slot, so the end of each key's run counts the rows at or
    # below its code.
    dtype = np.int32 if n_nodes * m * n_codes * 2 <= 2**31 else np.int64
    group_keys = np.arange(n_nodes * m, dtype=dtype).reshape(n_nodes, m) * n_codes
    keys = np.repeat(group_keys, sizes, axis=0)
    keys += data.codes[np.repeat(features, sizes, axis=0), rows[:, None]]
    keys *= 2
    keys += y[rows][:, None]
    keys = np.sort(keys, axis=None)
    key = keys >> 1
    ends = np.flatnonzero(key[1:] != key[:-1]) + 1
    group_start = np.concatenate(([0], np.repeat(sizes, m).cumsum()))
    positives = np.concatenate(([0], (keys & 1).cumsum()))
    node_start = group_start[:-1:m]
    npos = positives[node_start + sizes] - positives[node_start]
    g = key[ends - 1] // n_codes
    left_n = ends - group_start[g]
    node = g // m
    n = sizes[node]
    min_leaf = max(min_leaf, 1)  # as in _best_split
    ok = (left_n >= min_leaf) & (left_n <= n - min_leaf)
    ends, g, left_n, node, n = ends[ok], g[ok], left_n[ok], node[ok], n[ok]
    out = [None] * n_nodes
    if ends.size == 0:
        return out
    left_pos = positives[ends] - positives[group_start[g]]
    # _best_split's arithmetic on the same (exact, integer-valued) sums
    total = npos[node].astype(float)
    csum = left_pos.astype(float)
    parent_sse = total - total * total / n
    left_sse = csum - csum * csum / left_n
    right_sum = total - csum
    right_sse = right_sum - right_sum * right_sum / (n - left_n)
    gain = (parent_sse - left_sse - right_sse) / n
    # first maximum of each node: earlier feature slot, then smaller code
    first = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
    best = np.maximum.reduceat(gain, first)
    at_best = np.flatnonzero(gain == np.repeat(best, np.diff(np.append(first, gain.size))))
    win = at_best[np.concatenate(([True], node[at_best][1:] != node[at_best][:-1]))]
    win = win[gain[win] > _MIN_GAIN]
    j = features[node[win], g[win] % m]
    lo = data.flat_values[data.offsets[j] + key[ends[win] - 1] % n_codes]
    hi = data.flat_values[data.offsets[j] + key[ends[win]] % n_codes]
    for b, jb, tb, pb in zip(
        node[win].tolist(), j.tolist(), _threshold(lo, hi).tolist(), left_pos[win].tolist()
    ):
        out[b] = (jb, tb, pb)
    return out


def _grow(data, t, trees, max_depth, min_leaf, leaf_value=None):
    """Grow one tree per (rows, sample_features) pair of `trees`; return the roots.

    Nodes are nested {"f","t","l","r"} / {"v"} dicts. `sample_features` is
    None, when every node tries every feature, or a function returning the
    sorted candidate feature ids of the next node split. Each step pops one
    pending node per tree, the newest, so each tree splits its nodes and
    draws its features in pre-order. With `leaf_value`, every node takes the
    sorted scan and a leaf holds leaf_value(rows). Without, `t` is 0/1, every
    node is split from counts, and a leaf holds its positive fraction.
    `trees` may be a generator, so no tree's root rows outlive its first
    split.
    """
    counted = leaf_value is None
    y = t.astype(np.int8) if counted else None
    all_features = np.arange(data.x.shape[1])
    roots, stacks, samplers = [], [], []

    def place(tree, node, depth, rows, npos):
        """Queue `node` to try a split, or make it a leaf if it cannot split."""
        n = rows.size
        if depth >= max_depth or n < 2 * min_leaf:
            stop = True
        elif counted:
            stop = npos == 0 or npos == n
        else:
            tt = t[rows]
            stop = tt.max() - tt.min() == 0.0
        if not stop:
            stacks[tree].append((tree, node, rows, depth, npos))
        elif counted:
            node["v"] = npos / n
        else:
            node["v"] = leaf_value(rows)

    for tree, (rows, sampler) in enumerate(trees):
        roots.append({})
        stacks.append([])
        samplers.append(sampler)
        place(tree, roots[tree], 0, rows, int(np.count_nonzero(y[rows])) if counted else None)
    while True:
        batch = [stack.pop() for stack in stacks if stack]
        if not batch:
            return roots
        splits = [None] * len(batch)
        blocks, cells = [[]], 0
        for b, (tree, _, rows, _, _) in enumerate(batch):
            sampler = samplers[tree]
            features = all_features if sampler is None else sampler()
            if not counted:
                split = _best_split(data, rows, t, min_leaf, features)
                splits[b] = split and (*split, None)
                continue
            size = rows.size * len(features)
            if blocks[-1] and cells + size > BLOCK_CELLS:
                blocks.append([])
                cells = 0
            blocks[-1].append((b, rows, features))
            cells += size
        for block in filter(None, blocks):
            order, nodes, features = zip(*block)
            found = _count_splits(data, y, nodes, np.asarray(features), min_leaf)
            for b, split in zip(order, found):
                splits[b] = split
        for (tree, node, rows, depth, npos), split in zip(batch, splits):
            if split is None:
                node["v"] = npos / rows.size if counted else leaf_value(rows)
                continue
            j, thr, left_pos = split
            go_left = data.x[rows, j] <= thr
            left_rows, right_rows = rows[go_left], rows[~go_left]
            left, right = {}, {}
            node.update(f=j, t=float(thr), l=left, r=right)
            # right first: the stack pops the left subtree first
            place(tree, right, depth + 1, right_rows, npos - left_pos if counted else None)
            place(tree, left, depth + 1, left_rows, left_pos)


def _binary_target(y) -> np.ndarray:
    t = np.asarray(y, dtype=float)
    if not ((t == 0.0) | (t == 1.0)).all():
        raise ValueError("tree targets must be 0 or 1")
    return t


def _tree_apply(node, x_mat) -> np.ndarray:
    out = np.empty(len(x_mat))
    stack = [(node, np.arange(len(x_mat)))]
    while stack:
        nd, idx = stack.pop()
        if "v" in nd:
            out[idx] = nd["v"]
            continue
        mask = x_mat[idx, nd["f"]] <= nd["t"]
        stack.append((nd["l"], idx[mask]))
        stack.append((nd["r"], idx[~mask]))
    return out


@dataclass(eq=False)
class DecisionTree:
    """Single classification tree; leaf value = positive-class fraction."""

    max_depth: int = 8
    min_leaf: int = 5
    root: dict = field(init=False, default_factory=dict)

    def fit(self, x_mat, y, seed: int = 0):
        del seed
        t = _binary_target(y)
        trees = [(np.arange(len(t)), None)]
        self.root = _grow(
            _CodedMatrix(x_mat), t, trees, self.max_depth, self.min_leaf,
            lambda rows: float(t[rows].mean()),
        )[0]
        return self

    def scores(self, x_mat) -> np.ndarray:
        return _tree_apply(self.root, x_mat)


@dataclass(eq=False)
class RandomForest:
    """Bagged trees on bootstrap samples with per-split feature subsets.

    The score is the fraction of trees whose leaf majority is positive
    (leaf fraction >= 0.5 counts as a positive vote).
    """

    n_trees: int = 100
    max_depth: int = 8
    min_leaf: int = 5
    roots: list[dict] = field(init=False, default_factory=list)

    def fit(self, x_mat, y, seed: int = 0):
        t = _binary_target(y)
        n, p = x_mat.shape
        m = max(1, math.isqrt(p))
        index_dtype = np.int32 if n < 2**31 else np.intp

        def draw(tree_i):
            rng = random.Random(derive_seed(seed, "tree", tree_i))
            boot = np.asarray([rng.randrange(n) for _ in range(n)], dtype=index_dtype)
            return boot, lambda: sorted(rng.sample(range(p), m))

        trees = (draw(tree_i) for tree_i in range(self.n_trees))
        self.roots = _grow(_CodedMatrix(x_mat), t, trees, self.max_depth, self.min_leaf)
        return self

    def scores(self, x_mat) -> np.ndarray:
        votes = np.zeros(len(x_mat))
        for root in self.roots:
            votes += _tree_apply(root, x_mat) >= 0.5
        return votes / len(self.roots)


@dataclass(eq=False)
class GradientBoostedTrees:
    """Boosted shallow regression trees on the logistic loss.

    Each round fits a tree to the gradient residual y - p and sets leaf
    values by a Newton step sum(residual)/sum(p(1-p)); the score is the
    logistic link applied to the shrunken ensemble sum plus the prior
    log-odds.
    """

    n_rounds: int = 100
    max_depth: int = 3
    min_leaf: int = 5
    shrinkage: float = 0.1
    prior_log_odds: float = field(init=False, default_factory=float)
    roots: list[dict] = field(init=False, default_factory=list)

    def fit(self, x_mat, y, seed: int = 0):
        del seed
        t = np.asarray(y, dtype=float)
        n = len(t)
        pos = t.sum()
        self.prior_log_odds = float(math.log(pos / (n - pos)))
        raw = np.full(n, self.prior_log_odds)
        idx = np.arange(n)
        data = _CodedMatrix(x_mat)
        self.roots = []
        for _ in range(self.n_rounds):
            p = _sigmoid(raw)
            residual = t - p
            hessian = p * (1.0 - p)
            update = np.empty(n)  # the new tree's value at each row

            def leaf_value(leaf_idx):
                step = residual[leaf_idx].sum() / max(hessian[leaf_idx].sum(), 1e-12)
                update[leaf_idx] = value = float(min(max(step, -_MAX_LEAF_STEP), _MAX_LEAF_STEP))
                return value

            root = _grow(
                data, residual, [(idx, None)], self.max_depth, self.min_leaf, leaf_value
            )[0]
            self.roots.append(root)
            raw = raw + self.shrinkage * update
        return self

    def scores(self, x_mat) -> np.ndarray:
        raw = np.full(len(x_mat), self.prior_log_odds)
        for root in self.roots:
            raw += self.shrinkage * _tree_apply(root, x_mat)
        return _sigmoid(raw)
