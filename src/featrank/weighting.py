"""Attribute weighting: six filter-style relevance scores plus rank aggregation.

The entropy/impurity/chi-squared/rule weighters operate on discrete attribute
values; numeric attributes are discretized first with equal-frequency bin
edges. Relief works on raw values with the row distance defined in
`neighbors.py` and scores all attributes in one pass over the instances.
All entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import CATEGORICAL, NUMERIC, ROLE_LABEL, Table
from .neighbors import diff, encode, k_nearest

# Each algorithm's report label, in report order.
ALGORITHM_LABELS = {
    "information_gain": "Information Gain",
    "gini_index": "Gini Index",
    "rule": "Rule",
    "uncertainty": "Uncertainty",
    "relief": "Relief",
    "chi_squared": "Chi-Squared",
}
ALGORITHMS = tuple(ALGORITHM_LABELS)


@dataclass(frozen=True)
class BinEdges:
    """Ascending interior cut points for one numeric column.

    k edges define k+1 bins; value v falls in bin i where i is the first
    edge >= v (so bins are (-inf, e0], (e0, e1], ..., (e_last, inf)).
    """

    column: str
    edges: tuple[float, ...]

    def __post_init__(self):
        for a, b in zip(self.edges, self.edges[1:]):
            if not a < b:
                raise ValueError(f"bin edges for {self.column!r} must be strictly increasing")


def equal_frequency_edges(column: str, values, n_bins: int) -> BinEdges:
    """Edges at the 1/n_bins .. (n_bins-1)/n_bins quantiles, deduplicated.

    Heavily tied data yields fewer edges; a constant column yields none
    (a single bin), which makes every discrete weighter score it zero.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"no values to bin for column {column!r}")
    lo, hi = float(arr.min()), float(arr.max())
    edges = []
    for q in np.quantile(arr, [i / n_bins for i in range(1, n_bins)]).tolist():
        if lo < q < hi and (not edges or q > edges[-1]):
            edges.append(q)
    return BinEdges(column=column, edges=tuple(edges))


def _discrete_values(table: Table, attribute: str, bins: BinEdges | None) -> np.ndarray:
    """Attribute cells as int symbols: category codes, or bin indices for numerics."""
    col = table.column_schema(attribute)
    if col.role == ROLE_LABEL:
        raise ValueError(f"attribute {attribute!r} is the label column")
    data, _ = table.encoded(attribute)
    if col.kind == CATEGORICAL:
        return data
    if bins is None:
        raise ValueError(f"numeric attribute {attribute!r} requires bin edges")
    if bins.column != attribute:
        raise ValueError(f"bin edges are for {bins.column!r}, not {attribute!r}")
    return np.searchsorted(np.asarray(bins.edges, dtype=float), data, side="left")


def entropy(class_counts) -> float:
    """Shannon entropy in bits of a count vector."""
    counts = list(class_counts)
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    total = sum(counts)
    if total == 0:
        raise ValueError("at least one count must be positive")
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


def _gini(counts) -> float:
    total = sum(counts)
    return 1.0 - sum((c / total) ** 2 for c in counts)


def _contingency(values: np.ndarray, labels01: np.ndarray) -> list[list[int]]:
    """Per-attribute-value [negatives, positives] counts, in first-seen value order."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    counts = np.bincount(inverse * 2 + labels01, minlength=2 * len(first)).reshape(-1, 2)
    return counts[np.argsort(first)].tolist()


def _attribute_contingency(table: Table, attribute: str, bins: BinEdges | None) -> list:
    return _contingency(_discrete_values(table, attribute, bins), table.y)


def _discrete_scores(by_value: list[list[int]]) -> dict[str, float]:
    """The five contingency-table weights of one attribute, by algorithm name."""
    labels = [sum(c[0] for c in by_value), sum(c[1] for c in by_value)]
    n = sum(labels)
    majority = 1 if labels[1] > labels[0] else 0  # exact tie -> negative class
    h_cond = g_cond = chi = 0.0
    correct = 0
    for counts in by_value:
        row_total = sum(counts)
        h_cond += (row_total / n) * entropy(counts)
        g_cond += (row_total / n) * _gini(counts)
        for j in (0, 1):
            expected = row_total * labels[j] / n
            if expected > 0:
                chi += (counts[j] - expected) ** 2 / expected
        # OneR: each value predicts its majority label; a tied value predicts the global one
        correct += max(counts) if counts[0] != counts[1] else counts[majority]
    ig = max(0.0, entropy(labels) - h_cond)
    h_attr, h_label = entropy([sum(c) for c in by_value]), entropy(labels)
    su = 0.0 if h_attr == 0.0 or h_label == 0.0 else min(1.0, max(0.0, 2.0 * ig / (h_attr + h_label)))
    return {
        "information_gain": ig,
        "gini_index": max(0.0, _gini(labels) - g_cond),
        "rule": correct / n,
        "uncertainty": su,
        "chi_squared": chi,
    }


def weight_information_gain(table: Table, attribute: str, bins: BinEdges | None = None) -> float:
    """H(label) - sum_v p(v) H(label | v) over discretized attribute values."""
    return _discrete_scores(_attribute_contingency(table, attribute, bins))["information_gain"]


def weight_gini_index(table: Table, attribute: str, bins: BinEdges | None = None) -> float:
    """Gini impurity of the label minus its attribute-conditional impurity."""
    return _discrete_scores(_attribute_contingency(table, attribute, bins))["gini_index"]


def weight_uncertainty(table: Table, attribute: str, bins: BinEdges | None = None) -> float:
    """Symmetrical uncertainty 2*IG / (H(attribute) + H(label)), 0 for constants."""
    return _discrete_scores(_attribute_contingency(table, attribute, bins))["uncertainty"]


def weight_chi_squared(table: Table, attribute: str, bins: BinEdges | None = None) -> float:
    """Pearson chi-squared statistic of the attribute x label contingency table."""
    return _discrete_scores(_attribute_contingency(table, attribute, bins))["chi_squared"]


def weight_rule(table: Table, attribute: str, bins: BinEdges | None = None) -> float:
    """Training accuracy of the single-attribute majority rule (OneR).

    Each attribute value predicts its own majority label; value-level ties
    fall back to the global majority. The result is never below the
    majority-class proportion.
    """
    return _discrete_scores(_attribute_contingency(table, attribute, bins))["rule"]


def weight_relief(table: Table, k_neighbors: int) -> dict[str, float]:
    """ReliefF weights over all feature columns.

    Every instance serves as an anchor; its k nearest same-class hits and k
    nearest other-class misses (distance and tie-break from `neighbors`) push
    each attribute's weight by diff/(n*k), up for misses and down for hits,
    summed in anchor order. Weights land in [-1, 1].
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    y = table.y
    n = len(y)
    for cls, size in enumerate(np.bincount(y, minlength=2).tolist()):
        if size < k_neighbors + 1:
            raise ValueError(
                f"class {cls} has {size} rows; Relief with k={k_neighbors} needs at least {k_neighbors + 1}"
            )

    features = encode(table)
    terms = np.empty((n, len(features)))  # one term per anchor and feature
    denom = float(n * k_neighbors)
    for cls in (0, 1):
        anchors = np.flatnonzero(y == cls)
        hits = k_nearest(features, anchors, anchors, k_neighbors)
        misses = k_nearest(features, anchors, np.flatnonzero(y != cls), k_neighbors)
        for f, (_, arr) in enumerate(features):
            own = arr[anchors, None]
            hit_diff = diff(own, arr[hits]).sum(axis=1)
            miss_diff = diff(own, arr[misses]).sum(axis=1)
            terms[anchors, f] = (miss_diff - hit_diff) / denom
    total = np.cumsum(terms, axis=0)[-1]  # sequential, in anchor order
    return {name: float(w) for (name, _), w in zip(features, total)}


def rank_attributes(weights: dict[str, float]) -> dict[str, int]:
    """Rank 1 = largest weight; exact ties broken by ascending attribute name."""
    if not weights:
        raise ValueError("cannot rank an empty weight map")
    ordered = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    return {name: i + 1 for i, (name, _) in enumerate(ordered)}


def aggregate_ranks(ranks: dict[str, list[int]]) -> tuple[dict[str, float], dict[str, int]]:
    """Mean of each attribute's per-algorithm ranks, plus the overall ranking.

    Overall rank 1 goes to the smallest mean rank; ties break by ascending
    attribute name.
    """
    if not ranks:
        raise ValueError("cannot aggregate an empty rank matrix")
    widths = {len(r) for r in ranks.values()}
    if len(widths) != 1:
        raise ValueError(f"ragged rank matrix: row lengths {sorted(widths)}")
    if widths.pop() == 0:
        raise ValueError("rank matrix has no algorithm columns")
    mean_rank = {a: sum(r) / len(r) for a, r in ranks.items()}
    ordered = sorted(mean_rank.items(), key=lambda kv: (kv[1], kv[0]))
    overall = {a: i + 1 for i, (a, _) in enumerate(ordered)}
    return mean_rank, overall


@dataclass(frozen=True)
class WeightMatrix:
    """Weights and ranks of every attribute under every algorithm."""

    attributes: tuple[str, ...]
    algorithms: tuple[str, ...]
    weight: dict  # attribute -> algorithm -> float
    rank: dict  # attribute -> algorithm -> int
    mean_rank: dict  # attribute -> float
    overall_rank: dict  # attribute -> int

    def by_overall_rank(self) -> list[str]:
        return sorted(self.attributes, key=lambda a: self.overall_rank[a])


def weigh_all(table: Table, n_bins: int = 10, relief_k: int = 10) -> WeightMatrix:
    """Run the six weighters over every feature column and aggregate ranks."""
    attrs = table.features()
    bins = {}
    for name in attrs:
        if table.column_schema(name).kind == NUMERIC:
            bins[name] = equal_frequency_edges(name, table.encoded(name)[0], n_bins)

    relief = weight_relief(table, relief_k)
    weight: dict[str, dict[str, float]] = {}
    for a in attrs:
        scores = _discrete_scores(_attribute_contingency(table, a, bins.get(a)))
        weight[a] = {alg: relief[a] if alg == "relief" else scores[alg] for alg in ALGORITHMS}

    rank: dict[str, dict[str, int]] = {a: {} for a in attrs}
    for alg in ALGORITHMS:
        per_alg = rank_attributes({a: weight[a][alg] for a in attrs})
        for a in attrs:
            rank[a][alg] = per_alg[a]

    mean_rank, overall = aggregate_ranks({a: [rank[a][alg] for alg in ALGORITHMS] for a in attrs})
    return WeightMatrix(
        attributes=tuple(attrs),
        algorithms=ALGORITHMS,
        weight=weight,
        rank=rank,
        mean_rank=mean_rank,
        overall_rank=overall,
    )
