"""The mixed-type row distance and its blocked k-nearest search.

The single definition of the distance that Relief and SMOTE share: the sum over
feature columns, in schema order, of |a - b| for numerics min-max normalized
over the full table, and of a 0/1 mismatch for categoricals. `k_nearest` cuts
the anchors into blocks and shares them among threads, one per CPU the
process may use, each taking the next block from one lock-guarded iterator.
Each thread holds at most BLOCK_CELLS distances at once, so memory is
O(threads x block x candidates): about 1 MB of buffers per thread.
Each anchor's neighbours depend only on its own row of distances, so the
result does not depend on the number of threads or on which block each takes.
On a table with categoricals, a search of more than one block first settles
most anchors among the rows with their own category codes (a bucket pass, see
`k_nearest`), which is exact, and searches all candidates only for the rest.
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
    the table's category codes in the narrowest type that holds them (on a
    block, numpy's != of uint8 codes took a third of the time of int64 codes)."""
    features = []
    for name in table.feature_names():
        arr, cats = table.encoded(name)
        if cats is None:
            span = arr.max() - arr.min()
            arr = (arr - arr.min()) / span if span > 0 else np.zeros_like(arr)
        else:
            arr = arr.astype(np.min_scalar_type(arr.max()))
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

    A search of more than one block on a table with a categorical feature
    starts with a bucket pass on the calling thread: each anchor is searched
    only among the candidates with its own tuple of category codes, and an
    anchor whose k-th distance there is below 1.0 is final. The others, and
    the anchors whose bucket holds k or fewer candidates, go on to the search
    over all candidates. The result is exact:

    1. A pair whose category codes all match gets a bit-identical distance in
       a bucket block: its numerics go through the same elementwise float
       operations, in the same order, as in a full block, and its
       categoricals, each exactly 0.0, are left out, which leaves a sum of
       terms >= 0 unchanged.
    2. A pair that differs in any categorical is at distance >= 1.0: every
       term is >= 0, the mismatch adds exactly 1.0, and rounding is monotone.
    3. So when an anchor's k-th distance in its bucket is below 1.0, every
       candidate outside the bucket is strictly farther, and the kept set, the
       ties at the k-th distance and the (distance, row index) order all match
       the search over all candidates.

    The search over all candidates splits its blocks across threads when it
    has more than one. A search of one block skips the bucket pass and runs
    on the calling thread.
    """
    anchors = np.asarray(anchors, dtype=np.intp)
    candidates = np.asarray(candidates, dtype=np.intp)
    arrays = [arr for _, arr in features]
    step = max(1, BLOCK_CELLS // len(candidates))
    out = np.empty((len(anchors), k), dtype=np.intp)
    codes = [arr for arr in arrays if arr.dtype.kind != "f"]
    if len(anchors) > step and codes:
        numerics = [arr for arr in arrays if arr.dtype.kind == "f"]
        rest = _bucket_pass(numerics, codes, anchors, candidates, k, out)
    else:
        rest = np.arange(len(anchors))
    if len(rest):
        found = np.empty((len(rest), k), dtype=np.intp)
        _full_search(arrays, anchors[rest], candidates, k, step, found)
        out[rest] = found
    return out


def _signatures(codes, rows) -> np.ndarray:
    """An id below len(rows) for each row's tuple of category codes, equal ids
    for equal tuples. It is built one categorical at a time and re-densified
    whenever its range passes len(rows), so it never overflows."""
    ids = np.zeros(len(rows), dtype=np.intp)
    bound = 1
    for c in codes:
        levels = int(c.max()) + 1
        ids = ids * levels + c[rows]
        bound *= levels
        if bound > len(rows):
            ids = np.unique(ids, return_inverse=True)[1]
            bound = int(ids.max()) + 1
    return ids


def _bucket_pass(numerics, codes, anchors, candidates, k: int, out) -> np.ndarray:
    """Search each anchor among the candidates with its own category codes, on
    the numeric features only, write the rows it settles into `out`, and return
    the ascending positions in `anchors` of the anchors it leaves to the search
    over all candidates."""
    ids = _signatures(codes, np.concatenate([anchors, candidates]))
    a_ids, c_ids = ids[: len(anchors)], ids[len(anchors) :]
    # Stable sorts, so each group's candidates stay in ascending row order.
    a_order = np.argsort(a_ids, kind="stable")
    c_order = np.argsort(c_ids, kind="stable")
    groups = int(ids.max()) + 1
    a_size = np.bincount(a_ids, minlength=groups)
    c_size = np.bincount(c_ids, minlength=groups)
    a_end, c_end = np.cumsum(a_size), np.cumsum(c_size)
    searched = np.flatnonzero((a_size > 0) & (c_size > k))
    steps = np.maximum(1, BLOCK_CELLS // np.maximum(c_size, 1))
    scratch = np.empty((2, int((np.minimum(steps, a_size) * c_size)[searched].max(initial=0))))
    # Candidates grouped by id, each group in ascending row order, so that a
    # group's rows and feature values are slices.
    grouped = candidates[c_order]
    cand = [arr[grouped] for arr in numerics]
    found = np.empty((len(anchors), k), dtype=np.intp)
    kth = np.full(len(anchors), np.inf)
    for g in searched.tolist():
        a1, c1, step = int(a_end[g]), int(c_end[g]), int(steps[g])
        a0, c0 = a1 - int(a_size[g]), c1 - int(c_size[g])
        _search(numerics, [c[c0:c1] for c in cand], anchors[a_order[a0:a1]], grouped[c0:c1], k,
                step, found[a0:a1], range(0, a1 - a0, step), scratch, kth[a0:a1])
    settled = kth < 1.0
    out[a_order[settled]] = found[settled]
    return np.sort(a_order[~settled])


def _full_search(arrays, anchors, candidates, k: int, step: int, out) -> None:
    """Each anchor's k nearest among all the candidates, into `out`. A search of
    more than one block splits its blocks across threads."""
    cand = [arr[candidates] for arr in arrays]
    starts = range(0, len(anchors), step)
    workers = min(_cpus(), len(starts))
    if workers <= 1:
        _search(arrays, cand, anchors, candidates, k, step, out, starts)
        return
    # Each thread takes the next whole block when it finishes one, so a thread
    # whose CPU is taken away holds up one block rather than a fixed share.
    lock = threading.Lock()
    shared = iter(starts)
    errors = []

    def take():
        with lock:
            return next(shared, None)

    def run():
        try:
            _search(arrays, cand, anchors, candidates, k, step, out, iter(take, None))
        except Exception as exc:  # raised again on the calling thread
            errors.append(exc)

    threads = []
    try:
        for _ in range(workers):
            thread = threading.Thread(target=run)
            thread.start()
            threads.append(thread)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _search(arrays, cand, anchors, candidates, k: int, step: int, out, starts, scratch=None,
            kth_out=None) -> None:
    """The blocked search for the blocks of `anchors` that begin at `starts`, each
    into its own rows of `out` and, when given, of `kth_out` (each anchor's k-th
    distance). `scratch` holds the distance and diff buffers, each of at least
    one block's cells; without it they are sized to this search's blocks."""
    n = len(candidates)
    if scratch is None:
        # One allocation for both buffers: as two 512 KB arrays, a 3000-row
        # `weigh` job took 1100-2300 minor page faults in most processes, as
        # one about 30 (getrusage around each job).
        scratch = np.empty((2, min(step, len(anchors)) * n))
    for start in starts:
        block = anchors[start : start + step]
        rows = len(block)
        dist = scratch[0, : rows * n].reshape(rows, n)
        diffs = scratch[1, : rows * n].reshape(rows, n)
        # The first feature's distances are written in place, which is exact:
        # 0.0 + d == d for every d >= 0, and no diff is -0.0. With no feature
        # columns every distance is 0.
        if arrays:
            diff(arrays[0][block, None], cand[0], out=dist)
        else:
            dist.fill(0.0)
        for arr, c in zip(arrays[1:], cand[1:]):
            dist += diff(arr[block, None], c, out=diffs)
        pos = np.minimum(np.searchsorted(candidates, block), n - 1)
        own = np.flatnonzero(candidates[pos] == block)
        dist[own, pos[own]] = np.inf
        # Keep everything up to the k-th smallest distance; where more than k
        # qualify, keep only the lowest-index candidates at exactly that distance.
        # The k-th smallest is selected in place in the diff scratch.
        np.copyto(diffs, dist)
        diffs.partition(k - 1, axis=1)
        kth = diffs[:, k - 1 : k]
        if kth_out is not None:
            kth_out[start : start + rows] = kth[:, 0]
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
        cols = flat.reshape(-1, k) % n
        order = np.argsort(np.take_along_axis(dist, cols, axis=1), axis=1, kind="stable")
        out[start : start + rows] = candidates[np.take_along_axis(cols, order, axis=1)]
