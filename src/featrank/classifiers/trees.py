"""Binary CART trees and the two ensembles built on them.

Trees split on midpoints between consecutive distinct sorted values,
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
above; and the threshold is the midpoint of the same two float values.
"""

from __future__ import annotations

import math
import random

import numpy as np

from ..seeding import derive_seed
from .linear import _sigmoid

_MIN_GAIN = 1e-12
_MAX_LEAF_STEP = 10.0


class _CodedMatrix:
    """A design matrix plus, per column, its sorted distinct values and row codes.

    `codes[j, i]` indexes `values[j]` at the value of row i in column j. Codes
    are int16 while they fit, because numpy's stable sort of 16-bit integers
    is a radix sort.
    """

    def __init__(self, x_mat):
        n, p = x_mat.shape
        self.x = x_mat
        self.codes = np.empty((p, n), dtype=np.int16 if n < 2**15 else np.intp)
        self.values = []
        for j in range(p):
            values, codes = np.unique(x_mat[:, j], return_inverse=True)
            self.codes[j] = codes
            self.values.append(values)


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
    values = data.values[j]
    return j, (values[sorted_codes[r, c]] + values[sorted_codes[r, c + 1]]) / 2.0


def _grow(data, t, idx, depth, max_depth, min_leaf, sample_features, leaf_value):
    """Recursive tree construction returning nested {"f","t","l","r"} / {"v"} dicts."""
    n = idx.size
    if depth >= max_depth or n < 2 * min_leaf:
        return {"v": leaf_value(idx)}
    tt = t[idx]
    if tt.max() - tt.min() == 0.0:  # pure node
        return {"v": leaf_value(idx)}
    split = _best_split(data, idx, t, min_leaf, sample_features())
    if split is None:
        return {"v": leaf_value(idx)}
    j, thr = split
    go_left = data.x[idx, j] <= thr
    return {
        "f": j,
        "t": float(thr),
        "l": _grow(data, t, idx[go_left], depth + 1, max_depth, min_leaf, sample_features, leaf_value),
        "r": _grow(data, t, idx[~go_left], depth + 1, max_depth, min_leaf, sample_features, leaf_value),
    }


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


class DecisionTree:
    """Single classification tree; leaf value = positive-class fraction."""

    def __init__(self, max_depth: int = 8, min_leaf: int = 5):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.root = None

    def fit(self, x_mat, y, seed: int = 0):
        del seed
        t = np.asarray(y, dtype=float)
        idx = np.arange(len(t))
        all_features = np.arange(x_mat.shape[1])
        self.root = _grow(
            _CodedMatrix(x_mat),
            t,
            idx,
            0,
            self.max_depth,
            self.min_leaf,
            lambda: all_features,
            lambda leaf_idx: float(t[leaf_idx].mean()),
        )
        return self

    def scores(self, x_mat) -> np.ndarray:
        return _tree_apply(self.root, x_mat)

    def to_dict(self) -> dict:
        return {"max_depth": self.max_depth, "min_leaf": self.min_leaf, "root": self.root}

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        model = cls(d["max_depth"], d["min_leaf"])
        model.root = d["root"]
        return model


class RandomForest:
    """Bagged trees on bootstrap samples with per-split feature subsets.

    The score is the fraction of trees whose leaf majority is positive
    (leaf fraction >= 0.5 counts as a positive vote).
    """

    def __init__(self, n_trees: int = 100, max_depth: int = 8, min_leaf: int = 5):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.roots: list = []

    def fit(self, x_mat, y, seed: int = 0):
        t = np.asarray(y, dtype=float)
        n, p = x_mat.shape
        m = max(1, math.isqrt(p))
        data = _CodedMatrix(x_mat)
        self.roots = []
        for tree_i in range(self.n_trees):
            rng = random.Random(derive_seed(seed, "tree", tree_i))
            boot = np.asarray([rng.randrange(n) for _ in range(n)])
            sampler = lambda r=rng: sorted(r.sample(range(p), m))
            root = _grow(
                data,
                t,
                boot,
                0,
                self.max_depth,
                self.min_leaf,
                sampler,
                lambda leaf_idx: float(t[leaf_idx].mean()),
            )
            self.roots.append(root)
        return self

    def scores(self, x_mat) -> np.ndarray:
        votes = np.zeros(len(x_mat))
        for root in self.roots:
            votes += _tree_apply(root, x_mat) >= 0.5
        return votes / len(self.roots)

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "roots": self.roots,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RandomForest":
        model = cls(d["n_trees"], d["max_depth"], d["min_leaf"])
        model.roots = d["roots"]
        return model


class GradientBoostedTrees:
    """Boosted shallow regression trees on the logistic loss.

    Each round fits a tree to the gradient residual y - p and sets leaf
    values by a Newton step sum(residual)/sum(p(1-p)); the score is the
    logistic link applied to the shrunken ensemble sum plus the prior
    log-odds.
    """

    def __init__(self, n_rounds: int = 100, max_depth: int = 3, min_leaf: int = 5, shrinkage: float = 0.1):
        self.n_rounds = n_rounds
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.shrinkage = shrinkage
        self.prior_log_odds = 0.0
        self.roots: list = []

    def fit(self, x_mat, y, seed: int = 0):
        del seed
        t = np.asarray(y, dtype=float)
        n = len(t)
        pos = t.sum()
        self.prior_log_odds = float(math.log(pos / (n - pos)))
        raw = np.full(n, self.prior_log_odds)
        idx = np.arange(n)
        data = _CodedMatrix(x_mat)
        all_features = np.arange(x_mat.shape[1])
        self.roots = []
        for _ in range(self.n_rounds):
            p = _sigmoid(raw)
            residual = t - p
            hessian = p * (1.0 - p)

            def leaf_value(leaf_idx):
                step = residual[leaf_idx].sum() / max(hessian[leaf_idx].sum(), 1e-12)
                return float(np.clip(step, -_MAX_LEAF_STEP, _MAX_LEAF_STEP))

            root = _grow(
                data,
                residual,
                idx,
                0,
                self.max_depth,
                self.min_leaf,
                lambda: all_features,
                leaf_value,
            )
            self.roots.append(root)
            raw = raw + self.shrinkage * _tree_apply(root, x_mat)
        return self

    def scores(self, x_mat) -> np.ndarray:
        raw = np.full(len(x_mat), self.prior_log_odds)
        for root in self.roots:
            raw += self.shrinkage * _tree_apply(root, x_mat)
        return _sigmoid(raw)

    def to_dict(self) -> dict:
        return {
            "n_rounds": self.n_rounds,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "shrinkage": self.shrinkage,
            "prior_log_odds": self.prior_log_odds,
            "roots": self.roots,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GradientBoostedTrees":
        model = cls(d["n_rounds"], d["max_depth"], d["min_leaf"], d["shrinkage"])
        model.prior_log_odds = d["prior_log_odds"]
        model.roots = d["roots"]
        return model
