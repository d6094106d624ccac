"""The mixed-type row distance and its blocked k-nearest search.

The single definition of the distance that Relief and SMOTE share: the sum over
feature columns, in schema order, of |a - b| for numerics min-max normalized
over the full table, and of a 0/1 mismatch for categoricals. `k_nearest` cuts
the anchors into blocks and shares them among worker threads, one per CPU the
process may use. Each worker holds at most BLOCK_CELLS distances at once, so
memory is O(workers x block x candidates): about 1 MB of buffers per worker.
Each anchor's neighbours depend only on its own row of distances, so the
result does not depend on the number of workers or on which block each takes.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .dataio import Table

# Distances per block: each worker's distance and diff buffers (2 x 512 KB,
# about 1 MB) fit a 2 MB L2 cache; larger blocks were measured slower at 3000
# rows.
BLOCK_CELLS = 2**16


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    by (distance, row index). A call of more than one block splits its blocks
    across threads; a call of one block runs on the calling thread.
    """
    anchors = np.asarray(anchors, dtype=np.intp)
    candidates = np.asarray(candidates, dtype=np.intp)
    # Category codes in the narrowest type that holds them: on a block, numpy's
    # != of uint8 codes took a third of the time of int64 codes.
    arrays = [arr if arr.dtype.kind == "f" else arr.astype(np.min_scalar_type(arr.max()))
              for _, arr in features]
    cand = [arr[candidates] for arr in arrays]
    step = max(1, BLOCK_CELLS // len(candidates))
    out = np.empty((len(anchors), k), dtype=np.intp)
    starts = range(0, len(anchors), step)
    workers = min(_cpus(), len(starts))
    if workers <= 1:
        _search(arrays, cand, anchors, candidates, k, step, out, starts)
        return out
    # Imported only here: a process whose searches are all one block (SMOTE's,
    # the per-stratum ones) then never loads concurrent.futures and logging,
    # about 0.7 MB.
    from concurrent.futures import ThreadPoolExecutor

    # Each worker takes the next whole block when it finishes one, so a worker
    # whose CPU is taken away holds up one block rather than a fixed share.
    lock = threading.Lock()
    shared = iter(starts)

    def take():
        with lock:
            return next(shared, None)

    with ThreadPoolExecutor(workers) as pool:
        runs = [
            pool.submit(_search, arrays, cand, anchors, candidates, k, step, out, iter(take, None))
            for _ in range(workers)
        ]
        for run in runs:
            run.result()
    return out


def _search(arrays, cand, anchors, candidates, k: int, step: int, out, starts) -> None:
    """The blocked search of `k_nearest` for the blocks of `anchors` that begin at
    `starts`, each into its own rows of `out`."""
    dist_buf = np.empty((min(step, len(anchors)), len(candidates)))
    diff_buf = np.empty_like(dist_buf)
    for start in starts:
        block = anchors[start : start + step]
        rows = len(block)
        dist, diffs = dist_buf[:rows], diff_buf[:rows]
        # The first feature's distances are written in place, which is exact:
        # 0.0 + d == d for every d >= 0, and no diff is -0.0. With no feature
        # columns every distance is 0.
        if arrays:
            diff(arrays[0][block, None], cand[0], out=dist)
        else:
            dist.fill(0.0)
        for arr, c in zip(arrays[1:], cand[1:]):
            dist += diff(arr[block, None], c, out=diffs)
        pos = np.minimum(np.searchsorted(candidates, block), len(candidates) - 1)
        own = np.flatnonzero(candidates[pos] == block)
        dist[own, pos[own]] = np.inf
        # Keep everything up to the k-th smallest distance; where more than k
        # qualify, keep only the lowest-index candidates at exactly that distance.
        # The k-th smallest is selected in place in the diff scratch.
        np.copyto(diffs, dist)
        diffs.partition(k - 1, axis=1)
        kth = diffs[:, k - 1 : k]
        keep = dist <= kth
        flat = np.flatnonzero(keep)
        if flat.size > rows * k:  # every row keeps at least k, so some row keeps more
            tied = np.flatnonzero(keep.sum(axis=1) > k)
            at = dist[tied] == kth[tied]
            below = keep[tied] & ~at
            room = k - below.sum(axis=1, keepdims=True)
            keep[tied] = below | (at & (np.cumsum(at, axis=1) <= room))
            flat = np.flatnonzero(keep)
        # Flat indices ascend row by row, so each row's k columns ascend.
        cols = flat.reshape(-1, k) % len(candidates)
        order = np.argsort(np.take_along_axis(dist, cols, axis=1), axis=1, kind="stable")
        out[start : start + len(block)] = candidates[np.take_along_axis(cols, order, axis=1)]
