"""The mixed-type row distance and its blocked k-nearest search.

The single definition of the distance that Relief and SMOTE share: the sum over
feature columns, in schema order, of |a - b| for numerics min-max normalized
over the full table, and of a 0/1 mismatch for categoricals. `k_nearest` holds
at most BLOCK_CELLS distances at once, so its memory is O(block x candidates).
"""

from __future__ import annotations

import numpy as np

from .dataio import Table

# Distances per block: the distance, diff and partition arrays (3 x 512 KB) fit
# a 2 MB L2 cache; larger blocks were measured slower at 3000 rows.
BLOCK_CELLS = 2**16


def encode(table: Table) -> list[tuple[str, np.ndarray]]:
    """Every feature column as (name, array): numerics as float64 min-max
    normalized over the full table (all zeros when constant), categoricals as
    the table's int64 category codes."""
    features = []
    for name in table.feature_names():
        arr, cats = table.encoded(name)
        if cats is None:
            span = arr.max() - arr.min()
            arr = (arr - arr.min()) / span if span > 0 else np.zeros_like(arr)
        features.append((name, arr))
    return features


def diff(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One feature's per-pair distance: |a - b| for numerics, a != b for codes."""
    if a.dtype.kind == "f":
        return np.abs(np.subtract(a, b, out=out), out=out)
    return np.not_equal(a, b, out=out)


def k_nearest(features, anchors, candidates, k: int) -> np.ndarray:
    """Row indices of each anchor's k nearest candidates, shape (anchors, k).

    `anchors` and `candidates` are row indices into the encoded table, the
    candidates ascending. An anchor is never its own neighbor; the caller
    ensures every anchor has at least k other candidates. Each row is ordered
    by (distance, row index).
    """
    anchors = np.asarray(anchors, dtype=np.intp)
    candidates = np.asarray(candidates, dtype=np.intp)
    cand = [arr[candidates] for _, arr in features]
    step = max(1, BLOCK_CELLS // len(candidates))
    dist_buf = np.empty((min(step, len(anchors)), len(candidates)))
    diff_buf = np.empty_like(dist_buf)
    out = np.empty((len(anchors), k), dtype=np.intp)
    for start in range(0, len(anchors), step):
        block = anchors[start : start + step]
        dist, diffs = dist_buf[: len(block)], diff_buf[: len(block)]
        dist.fill(0.0)
        for (_, arr), c in zip(features, cand):
            dist += diff(arr[block, None], c, out=diffs)
        pos = np.minimum(np.searchsorted(candidates, block), len(candidates) - 1)
        own = np.flatnonzero(candidates[pos] == block)
        dist[own, pos[own]] = np.inf
        # Keep everything up to the k-th smallest distance; where more than k
        # qualify, keep only the lowest-index candidates at exactly that distance.
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
        keep = dist <= kth
        tied = np.flatnonzero(keep.sum(axis=1) > k)
        if tied.size:
            at = dist[tied] == kth[tied]
            below = keep[tied] & ~at
            room = k - below.sum(axis=1, keepdims=True)
            keep[tied] = below | (at & (np.cumsum(at, axis=1) <= room))
        cols = np.nonzero(keep)[1].reshape(-1, k)
        order = np.argsort(np.take_along_axis(dist, cols, axis=1), axis=1, kind="stable")
        out[start : start + len(block)] = candidates[np.take_along_axis(cols, order, axis=1)]
    return out
