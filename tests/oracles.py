"""Independent reference implementations used to cross-check the package.

Everything here is written as directly as possible: explicit loops over
contingency dicts, O(n^2) scans, one feature at a time, and numpy only where
the production code's floating-point summation order must be reproduced
exactly. Speed is irrelevant; obviousness is the point. The production code must agree with these references to the
tolerances asserted in the test suite.
"""

import csv
import io
import math
import random

import numpy as np

from featrank.seeding import derive_seed


# --- CSV cells ----------------------------------------------------------------


def oracle_csv_cells(path, header, rows, schema):
    """The per-cell ingestion loop: one row at a time, each row's cells in schema
    order. Returns the error message of the first bad cell or ragged row, or
    {column: values} with None for a blank cell."""
    columns = {c.name: [] for c in schema}
    for r, raw in enumerate(rows):
        line = r + 2
        if len(raw) != len(header):
            return f"{path}: line {line}: expected {len(header)} cells, got {len(raw)}"
        for c in schema:
            text = raw[header.index(c.name)].strip()
            if "\x00" in text:
                return f"{path}: line {line}: NUL byte in column {c.name!r}"
            if text == "":
                if c.role == "label":
                    return f"{path}: line {line}: missing label cell"
                columns[c.name].append(None)
            elif c.kind == "numeric":
                try:
                    value = float(text)
                except ValueError:
                    return f"{path}: line {line}: unparseable numeric cell {text!r} in column {c.name!r}"
                if not math.isfinite(value):
                    return f"{path}: line {line}: non-finite numeric cell in column {c.name!r}"
                columns[c.name].append(value)
            else:
                columns[c.name].append(text)
    return columns


def oracle_csv_text(rows):
    """csv.writer's text of `rows`, each row written with the "\r\n" terminator,
    so that every Python version's csv quotes both line breaks, and its final
    "\r\n" then swapped for "\n"."""
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def oracle_table_csv_text(table):
    """The row-at-a-time cohort writer: one CSV row per table row, each numeric
    cell as its repr."""
    names = table.column_names()
    kinds = [table.column_schema(n).kind for n in names]
    return oracle_csv_text(
        [names] + [[repr(c) if kind == "numeric" else c for c, kind in zip(row, kinds)] for row in table.rows]
    )


# --- contingency-table weighters -------------------------------------------


def _joint_counts(symbols, labels):
    joint = {}
    for s, y in zip(symbols, labels):
        joint[(s, y)] = joint.get((s, y), 0) + 1
    return joint


def _marginal(pairs, index):
    out = {}
    for key, c in pairs.items():
        out[key[index]] = out.get(key[index], 0) + c
    return out


def _entropy_bits(counts):
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def _gini(counts):
    total = sum(counts)
    g = 1.0
    for c in counts:
        g -= (c / total) ** 2
    return g


def oracle_information_gain(symbols, labels):
    joint = _joint_counts(symbols, labels)
    by_value = _marginal(joint, 0)
    n = len(labels)
    ig = _entropy_bits(_marginal(joint, 1).values())
    for v, n_v in by_value.items():
        cond = [c for (s, _), c in joint.items() if s == v]
        ig -= (n_v / n) * _entropy_bits(cond)
    return ig


def oracle_gini_reduction(symbols, labels):
    joint = _joint_counts(symbols, labels)
    by_value = _marginal(joint, 0)
    n = len(labels)
    g = _gini(_marginal(joint, 1).values())
    for v, n_v in by_value.items():
        cond = [c for (s, _), c in joint.items() if s == v]
        g -= (n_v / n) * _gini(cond)
    return g


def oracle_uncertainty(symbols, labels):
    h_attr = _entropy_bits(_marginal(_joint_counts(symbols, labels), 0).values())
    h_label = _entropy_bits(_marginal(_joint_counts(symbols, labels), 1).values())
    if h_attr == 0.0 or h_label == 0.0:
        return 0.0
    su = 2.0 * oracle_information_gain(symbols, labels) / (h_attr + h_label)
    return min(1.0, max(0.0, su))


def oracle_chi_squared(symbols, labels):
    joint = _joint_counts(symbols, labels)
    rows = _marginal(joint, 0)
    cols = _marginal(joint, 1)
    n = len(labels)
    stat = 0.0
    for v, n_v in rows.items():
        for y, n_y in cols.items():
            expected = n_v * n_y / n
            if expected > 0:
                observed = joint.get((v, y), 0)
                stat += (observed - expected) ** 2 / expected
    return stat


def oracle_rule_accuracy(symbols, labels):
    n = len(labels)
    n_pos = sum(labels)
    global_majority = 1 if n_pos * 2 > n else 0
    per_value = {}
    for s, y in zip(symbols, labels):
        pos, neg = per_value.get(s, (0, 0))
        per_value[s] = (pos + y, neg + (1 - y))
    correct = 0
    for s, y in zip(symbols, labels):
        pos, neg = per_value[s]
        if pos > neg:
            predicted = 1
        elif neg > pos:
            predicted = 0
        else:
            predicted = global_majority
        correct += predicted == y
    return correct / n


# --- exhaustive ReliefF ------------------------------------------------------


def oracle_relief(features, y, k):
    """Exhaustive nearest-hit/miss Relief.

    `features` is a list of (name, kind, raw_values); numerics are min-max
    normalized here, categoricals compared by equality. Every row anchors;
    ties in distance break by ascending row index.
    """
    n = len(y)
    arrays = []
    for name, kind, vals in features:
        if kind == "numeric":
            lo, hi = min(vals), max(vals)
            span = hi - lo
            arr = [(v - lo) / span for v in vals] if span > 0 else [0.0] * n
        else:
            arr = list(vals)
        arrays.append((name, kind, arr))

    def diff(kind, a, b):
        if kind == "numeric":
            return abs(a - b)
        return 0.0 if a == b else 1.0

    weights = {name: 0.0 for name, _, _ in arrays}
    denom = float(n * k)
    for i in range(n):
        dist = []
        for j in range(n):
            d = 0.0
            for _, kind, arr in arrays:
                d += diff(kind, arr[i], arr[j])
            dist.append(d)
        order = sorted(range(n), key=lambda j: (dist[j], j))
        hits = [j for j in order if y[j] == y[i] and j != i][:k]
        misses = [j for j in order if y[j] != y[i]][:k]
        for name, kind, arr in arrays:
            hit_sum = sum(diff(kind, arr[i], arr[j]) for j in hits)
            miss_sum = sum(diff(kind, arr[i], arr[j]) for j in misses)
            weights[name] += (miss_sum - hit_sum) / denom
    return weights


def _relief_encoding(table):
    """(name, is_numeric, array) per feature: min-max normalized floats or sorted-category codes."""
    arrays = []
    for name in table.feature_names():
        col = table.column(name)
        if table.column_schema(name).kind == "numeric":
            arr = np.asarray(col, dtype=float)
            span = arr.max() - arr.min()
            arr = (arr - arr.min()) / span if span > 0 else np.zeros_like(arr)
            arrays.append((name, True, arr))
        else:
            uniq = {v: i for i, v in enumerate(sorted(set(col)))}
            arrays.append((name, False, np.asarray([uniq[v] for v in col], dtype=np.int64)))
    return arrays


def _distance_rows(arrays, rows, cols):
    """Summed per-feature distance of every (row, col) pair, features in schema order."""
    dist = np.zeros((len(rows), len(cols)))
    for _, numeric, arr in arrays:
        a, b = arr[rows][:, None], arr[cols][None, :]
        dist += np.abs(a - b) if numeric else (a != b).astype(float)
    return dist


def oracle_relief_argsort(table, k):
    """ReliefF with one full stable argsort of the distance row per anchor.

    Hits are the first k same-class rows of that order other than the anchor,
    misses the first k other-class rows; each feature's term is added anchor
    by anchor. Same float operations in the same order as the production
    code, so the two must agree exactly.
    """
    y = np.asarray(table.label01())
    n = len(y)
    arrays = _relief_encoding(table)
    weights = {name: 0.0 for name, _, _ in arrays}
    denom = float(n * k)
    dist = _distance_rows(arrays, np.arange(n), np.arange(n))
    for i in range(n):
        order = np.argsort(dist[i], kind="stable")
        same = y[order] == y[i]
        hit_order = order[same]
        hit_order = hit_order[hit_order != i][:k]
        miss_order = order[~same][:k]
        for name, numeric, arr in arrays:
            if numeric:
                hit_diff = float(np.abs(arr[i] - arr[hit_order]).sum())
                miss_diff = float(np.abs(arr[i] - arr[miss_order]).sum())
            else:
                hit_diff = float((arr[i] != arr[hit_order]).sum())
                miss_diff = float((arr[i] != arr[miss_order]).sum())
            weights[name] += (miss_diff - hit_diff) / denom
    return weights


def oracle_k_nearest(table, anchors, candidates, k):
    """Each anchor's k nearest candidates, by one stable argsort of the whole
    anchors x candidates distance matrix with each anchor's own cell left out."""
    anchors, candidates = np.asarray(anchors), np.asarray(candidates)
    dist = _distance_rows(_relief_encoding(table), anchors, candidates)
    dist[anchors[:, None] == candidates[None, :]] = np.inf
    return candidates[np.argsort(dist, axis=1, kind="stable")[:, :k]]


def oracle_minority_neighbors(table, k):
    """Every minority row's k nearest minority rows, by a stable argsort of
    the whole minority distance matrix (minority = positives unless they are
    the strict majority)."""
    y = table.label01()
    minority_label = 1 if sum(y) * 2 <= len(y) else 0
    minority = [i for i, v in enumerate(y) if v == minority_label]
    dist = _distance_rows(_relief_encoding(table), minority, minority)
    out = {}
    for local, row in enumerate(minority):
        order = np.argsort(dist[local], kind="stable")
        out[row] = [minority[j] for j in order if j != local][:k]
    return out


def oracle_smote(table, k, target_ratio, seed):
    """SMOTE written out one synthetic row at a time over a dict of every
    minority row's neighbours. The anchors are the minority rows, ascending,
    shuffled once; synthetic row i takes anchor i mod m, then draws its
    neighbour (`randrange(k)`) and its fraction (`random()`). Returns the
    synthetic rows, as `Table.rows` reads them, and their (anchor, neighbour)
    pairs."""
    y = table.label01()
    n_minority, n_majority = sorted((sum(y), len(y) - sum(y)))
    need = math.ceil(target_ratio * n_majority) - n_minority
    neighbors = oracle_minority_neighbors(table, k)
    rng = random.Random(seed)
    anchors = list(neighbors)
    rng.shuffle(anchors)
    source = table.rows
    rows, pairs = [], []
    for i in range(need):
        anchor = anchors[i % len(anchors)]
        near = neighbors[anchor]
        neighbor = near[rng.randrange(k)]
        u = rng.random()
        row = []
        for j, col in enumerate(table.schema):
            a = source[anchor][j]
            if col.role == "label":
                row.append(a)
            elif col.kind == "numeric":
                row.append(a + u * (source[neighbor][j] - a))
            else:  # the neighbours' majority value, the anchor's own on ties
                votes = {}
                for n in near:
                    votes[source[n][j]] = votes.get(source[n][j], 0) + 1
                top = [v for v, c in votes.items() if c == max(votes.values())]
                row.append(top[0] if len(top) == 1 else a)
        rows.append(tuple(row))
        pairs.append((anchor, neighbor))
    return rows, pairs


# --- tree split search -----------------------------------------------------


def oracle_best_split(x_mat, idx, t, min_leaf, feature_ids, min_gain=1e-12):
    """Highest variance-reduction split of the rows `idx`, or None.

    Scans one feature at a time: a stable sort of the feature's float values,
    a cut wherever the sorted value changes, and the gain of each cut that
    leaves at least `min_leaf` rows on both sides. Returns (feature,
    threshold) with the threshold at the midpoint of the two values around
    the cut, or at the lower value where the midpoint rounds onto the upper
    one. Ties break toward the earlier feature, then the smaller threshold.
    The sums run in the same order as the production scan, so the two must
    agree exactly.
    """
    n = idx.size
    tt = t[idx]
    total = tt.sum()
    total_sq = (tt * tt).sum()
    parent_sse = total_sq - total * total / n
    best_gain = min_gain
    best = None
    for j in feature_ids:
        xs = x_mat[idx, j]
        order = np.argsort(xs, kind="stable")
        sx = xs[order]
        st = tt[order]
        cut = np.nonzero(sx[:-1] < sx[1:])[0]  # split after position i
        left_n = cut + 1
        right_n = n - left_n
        valid = (left_n >= min_leaf) & (right_n >= min_leaf)
        if not valid.any():
            continue
        cut = cut[valid]
        left_n = left_n[valid]
        right_n = right_n[valid]
        csum = np.cumsum(st)[cut]
        csq = np.cumsum(st * st)[cut]
        left_sse = csq - csum * csum / left_n
        right_sum = total - csum
        right_sse = (total_sq - csq) - right_sum * right_sum / right_n
        gain = (parent_sse - left_sse - right_sse) / n
        k = int(np.argmax(gain))  # first max -> smallest threshold
        if gain[k] > best_gain:
            best_gain = float(gain[k])
            pos = int(cut[k])
            lo, hi = sx[pos], sx[pos + 1]
            mid = (lo + hi) / 2.0
            best = (j, mid if lo <= mid < hi else lo)  # never onto hi, as scikit-learn
    return best


def oracle_grow(x_mat, t, idx, depth, max_depth, min_leaf, sample_features, leaf_value):
    """Recursive reference tree: nested {"f","t","l","r"} / {"v"} dicts.

    Splits with `oracle_best_split`, draws a node's candidate features only
    when a split is tried, and recurses left before right, so a sampler is
    called in pre-order.
    """
    n = idx.size
    if depth >= max_depth or n < 2 * min_leaf:
        return {"v": leaf_value(idx)}
    tt = t[idx]
    if tt.max() - tt.min() == 0.0:  # pure node
        return {"v": leaf_value(idx)}
    split = oracle_best_split(x_mat, idx, t, min_leaf, sample_features())
    if split is None:
        return {"v": leaf_value(idx)}
    j, thr = split
    go_left = x_mat[idx, j] <= thr
    grow = lambda rows: oracle_grow(
        x_mat, t, rows, depth + 1, max_depth, min_leaf, sample_features, leaf_value
    )
    return {"f": j, "t": float(thr), "l": grow(idx[go_left]), "r": grow(idx[~go_left])}


def oracle_decision_tree(x_mat, y, max_depth, min_leaf):
    t = np.asarray(y, dtype=float)
    features = list(range(x_mat.shape[1]))
    return oracle_grow(
        x_mat, t, np.arange(len(t)), 0, max_depth, min_leaf,
        lambda: features, lambda rows: float(t[rows].mean()),
    )


def oracle_random_forest(x_mat, y, n_trees, max_depth, min_leaf, seed):
    """One tree at a time: per-row `randrange` bootstrap, then sorted `sample` draws."""
    t = np.asarray(y, dtype=float)
    n, p = x_mat.shape
    m = max(1, math.isqrt(p))
    roots = []
    for tree_i in range(n_trees):
        rng = random.Random(derive_seed(seed, "tree", tree_i))
        boot = np.asarray([rng.randrange(n) for _ in range(n)])
        roots.append(oracle_grow(
            x_mat, t, boot, 0, max_depth, min_leaf,
            lambda: sorted(rng.sample(range(p), m)), lambda rows: float(t[rows].mean()),
        ))
    return roots


def oracle_tree_apply(node, x_mat):
    """Each row's leaf value: one walk of the nested dicts per row."""
    out = np.empty(len(x_mat))
    for i, row in enumerate(x_mat):
        nd = node
        while "v" not in nd:
            nd = nd["l"] if row[nd["f"]] <= nd["t"] else nd["r"]
        out[i] = nd["v"]
    return out


def oracle_gbt(x_mat, y, n_rounds, max_depth, min_leaf, shrinkage, max_step=10.0):
    """Returns (prior log-odds, roots) of logistic boosting with Newton leaves."""
    t = np.asarray(y, dtype=float)
    n = len(t)
    pos = t.sum()
    prior = float(math.log(pos / (n - pos)))
    raw = np.full(n, prior)
    features = list(range(x_mat.shape[1]))
    roots = []
    for _ in range(n_rounds):
        p = 1.0 / (1.0 + np.exp(-np.clip(raw, -36.0, 36.0)))
        residual = t - p
        hessian = p * (1.0 - p)

        def leaf_value(rows):
            step = residual[rows].sum() / max(hessian[rows].sum(), 1e-12)
            return float(np.clip(step, -max_step, max_step))

        root = oracle_grow(
            x_mat, residual, np.arange(n), 0, max_depth, min_leaf, lambda: features, leaf_value
        )
        roots.append(root)
        raw = raw + shrinkage * oracle_tree_apply(root, x_mat)
    return prior, roots


# --- MLP training ---------------------------------------------------------------


def oracle_mlp(x_mat, y, hidden, learning_rate, epochs, batch_size, init_scale, seed):
    """(w1, b1, w2, b2) of mini-batch gradient descent, written out: each batch
    gathers its rows through the epoch's permutation, and the gradient uses
    `np.outer` and `np.clip` directly."""
    y = np.asarray(y, dtype=float)
    n, p = x_mat.shape
    rng = np.random.default_rng(seed)
    s = init_scale
    w1 = rng.uniform(-s, s, size=(p, hidden))
    b1 = rng.uniform(-s, s, size=hidden)
    w2 = rng.uniform(-s, s, size=hidden)
    b2 = float(rng.uniform(-s, s))
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = perm[start : start + batch_size]
            xb, yb = x_mat[batch], y[batch]
            h = np.tanh(xb @ w1 + b1)
            prob = 1.0 / (1.0 + np.exp(-np.clip(h @ w2 + b2, -36.0, 36.0)))
            delta_out = (prob - yb) / len(yb)
            delta_hidden = np.outer(delta_out, w2) * (1.0 - h * h)
            w1 = w1 - learning_rate * (xb.T @ delta_hidden)
            b1 = b1 - learning_rate * delta_hidden.sum(axis=0)
            w2 = w2 - learning_rate * (h.T @ delta_out)
            b2 = b2 - learning_rate * float(delta_out.sum())
    return w1, b1, w2, b2


# --- pairwise AUC ------------------------------------------------------------


def oracle_auc(scores, labels):
    """Concordant-pair counting over every (positive, negative) pair."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        raise ValueError("both classes required")
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


# --- single-split evaluation -------------------------------------------------


def holdout_metrics(table, spec, train_frac=0.7, seed=0):
    """Fit on one shuffled split, score the rest; returns (accuracy, auc).

    An intentionally crude alternative to cross-validation: one seeded
    shuffle, no stratification, no resampling. AUC comes from the pairwise
    oracle above rather than the package's rank-based computation.
    """
    import featrank as fr

    n = table.n_rows
    idx = list(range(n))
    random.Random(seed).shuffle(idx)
    cut = int(n * train_frac)
    train = table.take(idx[:cut])
    test = table.take(idx[cut:])
    model = fr.fit(spec, train)
    scores = fr.predict_scores(model, test)
    y = test.label01()
    correct = sum((s >= 0.5) == bool(t) for s, t in zip(scores, y))
    return correct / len(y), oracle_auc(scores, y)
