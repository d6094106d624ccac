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
column to integer codes of its sorted distinct values (`_CodedMatrix`).

The decision tree and GBT use the sorted scan (`_SortedScan`), the presorted
columns of SLIQ (Mehta, Agrawal & Rissanen, EDBT 1996) and of XGBoost's exact
greedy search (Chen & Guestrin, KDD 2016). Each fit argsorts every column's
codes once, stably, over the root rows arange(n). A node holds, per feature,
its rows in code order and their codes; a child's are its parent's, filtered
to the child's rows. One cumsum per feature row accumulates the target and
its square, and one argmax picks the best (feature, cut) pair. The root's
cuts depend on the codes only, so GBT's rounds share them. The result is
bit-identical to stably sorting each node's float values on its own. Node
rows are ascending row ids (the root is arange(n), and `rows[go_left]` keeps
that order), so the filtered order is the node's stable code order, which is
that of its values, since equal values share a code. So the cumsums add the
same numbers in the same sequence, node totals are `t[rows].sum()` in
ascending row order, and the candidates, gains and first argmax are the
same. The flat argmax returns the first maximum in (feature, position)
order, which is the tie-break above, and the threshold comes from the same
two float values.

The random forest's 0/1 targets skip that sort (`_count_splits`). Their
cumsums add only integers below 2**53, which floats hold exactly whatever
the order, so the rows and positives counted per (node, feature, code) give
the same sums and bit-identical gains; the first maximum in (feature, code)
order is the same tie-break. Node sizes, purity and leaf values (positives /
rows, which equals the mean) come from the same counts. GBT's residual
targets are fractions whose sums depend on their order, so GBT keeps the
sorted scan. So does the decision tree: it splits one node at a time, where
the count path's fixed cost per block outweighs the sort.

Every grower splits nodes in the pre-order of a recursive grower. The random
forest grows its trees in lockstep (`_grow`): each step pops the newest
pending node of every tree and counts the step's nodes together, in blocks
of at most BLOCK_CELLS (row, feature) cells; the pre-order keeps each
tree's feature draws (`rng.sample`), and so its RNG stream, those of a
recursive grower. The decision tree and GBT grow one tree at a time
(`_grow_sorted`) and draw nothing.

Each forest tree owns its `random.Random`, so its draws need only come out
one for one as per-row `randrange` and per-split `sample` calls would give
them; no generator state is saved or restored. The bootstrap
(`_randbelow_many`) asks `getrandbits` for one 32-bit word per value still
missing and keeps each word's top bits where `randrange` would accept them.
The loop needs at least one word per value, so no word is drawn that it
would not draw, and the accepted values are its values in its order. The
feature subsets (`_feature_sampler`) run `Random.sample`'s own pool
algorithm on `rng._randbelow`. After a block is counted, its split nodes are
partitioned together (`_partition`): one `x <= t` over their concatenated
rows, in node order, so the rows kept on each side are, node by node, the
same rows in the same order as each node's own `rows[go_left]` and
`rows[~go_left]`, and each child is a slice at cumulative counts.

A fitted or loaded model holds its trees as one `NodeTable`: flat node
arrays, the layout of scikit-learn's `Tree`. Scoring (`_leaves`) walks all
trees together, one level per step, in blocks of at most SCORE_CELLS (tree,
row) cells. Each leaf is reached by the same `x <= t` tests as a walk of one
tree at a time. GBT adds its trees' terms in tree order, and the forest
counts each block's votes at once, in integers, so the scores are those of
scoring one tree at a time. The saved form, nested {"f","t","l","r"} /
{"v"} dicts, is written and read by `NodeTable` alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .. import dataio
from ..seeding import derive_seed
from .linear import _sigmoid

_MIN_GAIN = 1e-12
_MAX_LEAF_STEP = 10.0
# (row, feature) cells counted in one block. At 2**14, glibc's malloc gave
# a block's scratch arrays back to the kernel after most blocks and the next
# block faulted them in again: about 3500 page faults per benchmark `ablate`
# job, against 30 at 2**13 for the same CPU time.
BLOCK_CELLS = 2**13
# (tree, row) cells walked at once when scoring.
SCORE_CELLS = 2**15


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
    return mid if lo <= mid < hi else lo


class _SortedScan:
    """The sorted split scan of one fit's design matrix.

    A node is (rows, order, codes, cuts): its ascending row ids; per feature
    row, those ids in stable code order and their codes; and its `_cuts` or
    None. Only `root`, which holds every row, carries its cuts, built once
    per fit; a child's are found when it is scanned.
    """

    def __init__(self, x_mat, min_leaf):
        self.data = data = _CodedMatrix(x_mat)
        # Every cut leaves at least one row on each side, so min_leaf below 1 acts as 1.
        self.min_leaf = max(min_leaf, 1)
        order = data.codes.argsort(axis=1, kind="stable")
        codes = np.take_along_axis(data.codes, order, axis=1)
        self.root = (np.arange(len(x_mat)), order, codes, self._cuts(codes))

    def _cuts(self, codes):
        """(width, cand, left_n, right_n) of a node's sorted codes: the flat
        (feature row, position) indices of the cuts that leave at least
        min_leaf rows on each side, and their row counts."""
        # A cut after sorted position pos leaves pos + 1 rows on the left. Cuts at
        # pos < width leave at least min_leaf rows on the right; the first
        # min_leaf - 1 positions leave too few on the left. A node of fewer than
        # min_leaf rows (the root of a small fit) has no cuts.
        width = max(codes.shape[1] - self.min_leaf, 0)
        is_cut = codes[:, :width] != codes[:, 1 : width + 1]
        is_cut[:, : self.min_leaf - 1] = False
        cand = is_cut.ravel().nonzero()[0]  # row-major: feature, then position
        left_n = cand % width + 1
        return width, cand, left_n, codes.shape[1] - left_n

    def split(self, node, t):
        """Highest variance-reduction split of `node` as (feature, threshold), or None."""
        rows, order, codes, cuts = node
        width, cand, left_n, right_n = cuts or self._cuts(codes)
        if cand.size == 0:
            return None
        n = rows.size
        tt = t[rows]
        total = tt.sum()
        total_sq = (tt * tt).sum()
        parent_sse = total_sq - total * total / n
        st = t.take(order[:, :width])
        csum = st.cumsum(axis=1).ravel().take(cand)
        csq = (st * st).cumsum(axis=1).ravel().take(cand)
        left_sse = csq - csum * csum / left_n
        right_sum = total - csum
        right_sse = (total_sq - csq) - right_sum * right_sum / right_n
        gain = (parent_sse - left_sse - right_sse) / n
        k = int(np.argmax(gain))  # first max -> earlier feature, then smaller threshold
        if not gain[k] > _MIN_GAIN:
            return None
        j, c = divmod(int(cand[k]), width)
        lo, hi = self.data.flat_values[self.data.offsets[j] + codes[j, c : c + 2]].tolist()
        return j, _threshold(lo, hi)

    def child(self, node, rows, goes):
        """The node of `rows`, the rows of `node` where `goes` (over every row) holds."""
        _, order, codes, _ = node
        kept = np.flatnonzero(goes[order])  # the same number in each feature row
        shape = (len(order), -1)
        return rows, order.take(kept).reshape(shape), codes.take(kept).reshape(shape), None


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
    min_leaf = max(min_leaf, 1)  # as in _SortedScan
    ok = (left_n >= min_leaf) & (left_n <= n - min_leaf)
    ends, g, left_n, node, n = ends[ok], g[ok], left_n[ok], node[ok], n[ok]
    out = [None] * n_nodes
    if ends.size == 0:
        return out
    left_pos = positives[ends] - positives[group_start[g]]
    # _SortedScan.split's arithmetic on the same (exact, integer-valued) sums
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
    lo = data.flat_values[data.offsets[j] + key[ends[win] - 1] % n_codes].tolist()
    hi = data.flat_values[data.offsets[j] + key[ends[win]] % n_codes].tolist()
    for b, jb, lb, hb, pb in zip(node[win].tolist(), j.tolist(), lo, hi, left_pos[win].tolist()):
        out[b] = (jb, _threshold(lb, hb), pb)
    return out


def _partition(x_mat, nodes, features, thresholds):
    """Each node's (rows where x_mat[row, j] <= t, the other rows), both in row
    order, for the nodes' (j, t) splits, from one comparison over all nodes'
    rows: the children are slices of the two sides at cumulative counts."""
    sizes = [rows.size for rows in nodes]
    cat = np.concatenate(nodes)
    goes = x_mat[cat, np.repeat(features, sizes)] <= np.repeat(thresholds, sizes)
    ends = np.cumsum(sizes)
    left_ends = np.cumsum(goes)[ends - 1].tolist()
    lefts, rights = cat[goes], cat[~goes]
    children, l0, r0 = [], 0, 0
    for l1, end in zip(left_ends, ends.tolist()):
        r1 = end - l1
        children.append((lefts[l0:l1], rights[r0:r1]))
        l0, r0 = l1, r1
    return children


def _randbelow_many(rng, n, count):
    """`[rng.randrange(n) for _ in range(count)]` as an array, leaving `rng` in
    the same state.

    `randrange(n)` takes the top n.bit_length() bits of one 32-bit word and
    draws again while they are n or more. `getrandbits(32 * c)` returns the
    next c words, the first in the lowest bits. Each round asks for as many
    words as values are still missing, which is no more than the loop would
    draw, so every word drawn is one the loop draws too.
    """
    k = n.bit_length()
    if k > 32:  # each value spans several words
        return np.asarray([rng.randrange(n) for _ in range(count)], dtype=np.int64)
    parts, need = [], count
    while need > 0:
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), "<u4")
        values = words >> (32 - k)
        parts.append(values[values < n])
        need -= parts[-1].size
    return np.concatenate(parts) if parts else np.empty(0, np.uint32)


def _feature_sampler(rng, p, m):
    """A callable giving `sorted(rng.sample(range(p), m))` and drawing as it does.

    For p <= 21 `Random.sample` always takes its pool branch (its set branch
    starts above 21 items), copied here without its argument checks.
    """
    if p > 21:
        return lambda: sorted(rng.sample(range(p), m))
    randbelow = rng._randbelow

    def sample():
        pool = list(range(p))
        chosen = []
        for i in range(m):
            j = randbelow(p - i)
            chosen.append(pool[j])
            pool[j] = pool[p - i - 1]
        chosen.sort()
        return chosen

    return sample


# The JSON type of each value of a saved tree's leaf and split nodes.
_LEAF_TYPES = {"v": float}
_SPLIT_TYPES = {"f": int, "t": float, "l": dict, "r": dict}


class NodeTable:
    """A model's trees as one table of nodes in flat arrays, the layout of
    scikit-learn's `Tree` (Louppe, "Understanding Random Forests", PhD thesis,
    Liège 2014, ch. 5). Node i sends a row x to left[i] where x[feature[i]] <=
    threshold[i], else to right[i]; a leaf is its own left and right child and
    holds value[i]. Tree k starts at roots[k]; `depth` is the longest path.

    The growers and `load` add nodes to lists, splitting each tree's nodes in
    pre-order, and a split's children take the next two numbers. `finish`
    makes the lists arrays, each tree's nodes together, so a fitted table and
    the one loaded from its saved form are equal. The saved form is a nested
    {"f","t","l","r"} / {"v"} dict per tree, one dict if `single`.
    """

    def __init__(self, single=False):
        self.single = single
        self.roots = []
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []
        self._tree, self._depth = [], []  # per node, until `finish`

    def __len__(self):
        return len(self.roots)

    def _node(self, tree, depth):
        i = len(self.value)
        self.feature.append(0)
        self.threshold.append(0.0)
        self.left.append(i)
        self.right.append(i)
        self.value.append(0.0)
        self._tree.append(tree)
        self._depth.append(depth)
        return i

    def add_tree(self):
        """A new tree's root, a leaf until it splits."""
        self.roots.append(self._node(len(self.roots), 0))
        return self.roots[-1]

    def split(self, i, feature, threshold):
        """Make leaf i test x[feature] <= threshold; return its two new leaves."""
        self.feature[i], self.threshold[i] = feature, threshold
        self.left[i] = self._node(self._tree[i], self._depth[i] + 1)
        self.right[i] = self._node(self._tree[i], self._depth[i] + 1)
        return self.left[i], self.right[i]

    def finish(self):
        """Make the lists arrays, each tree's nodes together, in tree order."""
        order = np.argsort(self._tree, kind="stable")
        number = np.empty(order.size, np.intp)
        number[order] = np.arange(order.size)
        self.feature = np.asarray(self.feature, np.intp)[order]
        self.threshold = np.asarray(self.threshold, float)[order]
        self.value = np.asarray(self.value, float)[order]
        self.left = number[np.asarray(self.left, np.intp)[order]]
        self.right = number[np.asarray(self.right, np.intp)[order]]
        self.roots = number[np.asarray(self.roots, np.intp)]
        self.depth = max(self._depth, default=0)
        del self._tree, self._depth
        return self

    def tolist(self):
        """The saved form."""
        feature, threshold, left, right, value = (
            a.tolist() for a in (self.feature, self.threshold, self.left, self.right, self.value)
        )

        def saved(i):
            if left[i] == i:
                return {"v": value[i]}
            return {"f": feature[i], "t": threshold[i], "l": saved(left[i]), "r": saved(right[i])}

        trees = [saved(root) for root in self.roots.tolist()]
        return trees[0] if self.single else trees

    @classmethod
    def load(cls, saved, width):
        """The table of a saved form, refused unless every node is a leaf {"v": value}
        or a split {"f": encoded column below width, "t": threshold, "l": node, "r": node}."""
        table = cls(single=isinstance(saved, dict))
        for k, root in enumerate([saved] if table.single else saved):
            stack = [(root, table.add_tree(), f"model document: tree {k} root")]
            while stack:
                node, i, at = stack.pop()
                declared = _LEAF_TYPES if isinstance(node, dict) and "v" in node else _SPLIT_TYPES
                dataio.check_keys(node, at, declared)
                dataio.check_types(node, declared, at)
                if declared is _LEAF_TYPES:
                    table.value[i] = node["v"]
                elif not 0 <= node["f"] < width:
                    raise ValueError(f"{at}: f must index one of the {width} encoded columns")
                else:
                    left, right = table.split(i, node["f"], node["t"])
                    stack += [(node["r"], right, at + ".r"), (node["l"], left, at + ".l")]
        return table.finish()


def _grow(data, y, trees, max_depth, min_leaf):
    """Grow one tree per (rows, sample_features) pair of `trees` into a NodeTable.

    `y` holds 0/1 targets as integers. Every node is split from counts, and a
    leaf holds its positive fraction. `sample_features` returns the sorted
    candidate feature ids of the next node split. Each step pops one pending
    node per tree, the newest, so each tree splits its nodes and draws its
    features in pre-order. `trees` may be a generator, so no tree's root rows
    outlive its first split.
    """
    table, stacks, samplers = NodeTable(), [], []

    def place(tree, node, depth, rows, npos):
        """Queue `node` to try a split, or leave it a leaf if it cannot split."""
        n = rows.size
        if depth >= max_depth or n < 2 * min_leaf or npos == 0 or npos == n:
            table.value[node] = npos / n
        else:
            stacks[tree].append((tree, node, rows, depth, npos))

    for tree, (rows, sampler) in enumerate(trees):
        stacks.append([])
        samplers.append(sampler)
        place(tree, table.add_tree(), 0, rows, int(np.count_nonzero(y[rows])))
    while True:
        batch = [stack.pop() for stack in stacks if stack]
        if not batch:
            return table.finish()
        blocks, cells = [[]], 0
        for pending in batch:
            tree, _, rows, _, _ = pending
            features = samplers[tree]()
            size = rows.size * len(features)
            if blocks[-1] and cells + size > BLOCK_CELLS:
                blocks.append([])
                cells = 0
            blocks[-1].append((pending, features))
            cells += size
        for block in blocks:
            pendings, features = zip(*block)
            nodes = [rows for _, _, rows, _, _ in pendings]
            found = _count_splits(data, y, nodes, np.asarray(features), min_leaf)
            splits = []
            for pending, split in zip(pendings, found):
                if split is None:
                    _, node, rows, _, npos = pending
                    table.value[node] = npos / rows.size
                else:
                    splits.append((pending, split))
            if not splits:
                continue
            split_nodes = [rows for (_, _, rows, _, _), _ in splits]
            split_j, split_t, _ = zip(*(split for _, split in splits))
            children = _partition(data.x, split_nodes, split_j, split_t)
            for ((tree, node, _, depth, npos), (j, thr, left_pos)), (lefts, rights) in zip(
                splits, children
            ):
                left, right = table.split(node, j, thr)
                # right first: the stack pops the left subtree first
                place(tree, right, depth + 1, rights, npos - left_pos)
                place(tree, left, depth + 1, lefts, left_pos)


def _grow_sorted(scan, t, max_depth, min_leaf, leaf_value, table):
    """Grow one tree with the sorted scan into `table`, and return the table; a
    leaf holds leaf_value(rows).

    Nodes are split in pre-order, as in `_grow`. Only a node that may split
    gets its presorted order and codes. Pending nodes hold disjoint rows, so
    together they hold at most one presorted copy of the codes.
    """

    def made_leaf(out, depth, rows):
        """Leave `out` a leaf if it cannot split, and say whether it did."""
        if depth < max_depth and rows.size >= 2 * min_leaf:
            tt = t[rows]
            if tt.max() - tt.min() != 0.0:
                return False
        table.value[out] = leaf_value(rows)
        return True

    root = table.add_tree()
    stack = [] if made_leaf(root, 0, scan.root[0]) else [(root, scan.root, 0)]
    while stack:
        out, node, depth = stack.pop()
        split = scan.split(node, t)
        if split is None:
            table.value[out] = leaf_value(node[0])
            continue
        j, thr = split
        left, right = table.split(out, j, thr)
        goes_left = scan.data.x[:, j] <= thr
        go = goes_left[node[0]]
        # right first: the stack pops the left subtree first
        for child, goes, rows in ((right, ~goes_left, node[0][~go]), (left, goes_left, node[0][go])):
            if not made_leaf(child, depth + 1, rows):
                stack.append((child, scan.child(node, rows, goes), depth + 1))
    return table


def _binary_target(y) -> np.ndarray:
    t = np.asarray(y, dtype=float)
    if not ((t == 0.0) | (t == 1.0)).all():
        raise ValueError("tree targets must be 0 or 1")
    return t


def _leaves(trees, x_mat):
    """Yield (rows, values) per block of x_mat's rows: a slice of the rows, and
    each tree's leaf value at those rows (tree × row), for a NodeTable."""
    tops = trees.roots[:, None]
    step = max(1, SCORE_CELLS // max(len(trees), 1))
    for start in range(0, len(x_mat), step):
        block = x_mat[start : start + step]
        cells = block.ravel()  # row i's values start at cells[row_starts[i]]
        row_starts = np.arange(0, block.size, block.shape[1])
        at = tops.repeat(len(block), axis=1)
        for _ in range(trees.depth):
            x = cells.take(trees.feature.take(at) + row_starts)
            at = np.where(x <= trees.threshold.take(at), trees.left.take(at), trees.right.take(at))
        yield slice(start, start + len(block)), trees.value.take(at)


@dataclass(eq=False)
class DecisionTree:
    """Single classification tree; leaf value = positive-class fraction."""

    max_depth: int = 8
    min_leaf: int = 5
    root: dict = field(init=False, default_factory=dict)

    def fit(self, x_mat, y, seed: int = 0):
        del seed
        t = _binary_target(y)
        self.root = _grow_sorted(
            _SortedScan(x_mat, self.min_leaf), t, self.max_depth, self.min_leaf,
            lambda rows: float(t[rows].mean()), NodeTable(single=True),
        ).finish()
        return self

    def scores(self, x_mat) -> np.ndarray:
        out = np.empty(len(x_mat))
        for rows, leaves in _leaves(self.root, x_mat):
            out[rows] = leaves[0]
        return out


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
            boot = _randbelow_many(rng, n, n).astype(index_dtype, copy=False)
            return boot, _feature_sampler(rng, p, m)

        trees = (draw(tree_i) for tree_i in range(self.n_trees))
        y = t.astype(np.int8)
        self.roots = _grow(_CodedMatrix(x_mat), y, trees, self.max_depth, self.min_leaf)
        return self

    def scores(self, x_mat) -> np.ndarray:
        votes = np.zeros(len(x_mat))
        for rows, leaves in _leaves(self.roots, x_mat):
            votes[rows] = np.count_nonzero(leaves >= 0.5, axis=0)
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
        scan = _SortedScan(x_mat, self.min_leaf)
        table = NodeTable()
        for _ in range(self.n_rounds):
            p = _sigmoid(raw)
            residual = t - p
            hessian = p * (1.0 - p)
            update = np.empty(n)  # the new tree's value at each row

            def leaf_value(leaf_idx):
                step = residual[leaf_idx].sum() / max(hessian[leaf_idx].sum(), 1e-12)
                update[leaf_idx] = value = float(min(max(step, -_MAX_LEAF_STEP), _MAX_LEAF_STEP))
                return value

            _grow_sorted(scan, residual, self.max_depth, self.min_leaf, leaf_value, table)
            raw = raw + self.shrinkage * update
        self.roots = table.finish()
        return self

    def scores(self, x_mat) -> np.ndarray:
        raw = np.full(len(x_mat), self.prior_log_odds)
        for rows, leaves in _leaves(self.roots, x_mat):
            block = raw[rows]
            for leaf in leaves:  # in tree order, as the fit added them
                block += self.shrinkage * leaf
        return _sigmoid(raw)
