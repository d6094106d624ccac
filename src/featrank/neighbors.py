"""The mixed-type row distance and its blocked k-nearest search.

The single definition of the distance that Relief and SMOTE share: the sum over
feature columns, in schema order, of |a - b| for numerics min-max normalized
over the full table, and of a 0/1 mismatch for categoricals. `k_nearest` cuts
the anchors into blocks and searches them one after another on the calling
thread. A block holds at most BLOCK_CELLS distances, so memory is O(block x
candidates): about 1 MB of buffers. Each anchor's neighbours depend only on
its own row of distances, so the result does not depend on the block size.
On a table with categoricals, a search of more than one block first settles
most anchors among the rows with their own category codes (a bucket pass, see
`k_nearest`), then, with two or more categoricals, most of the rest among the
rows at most one category away on all but the widest categorical (a near
pass). Both are exact. Only the anchors left after that are searched against
all candidates: on a 3000-row default cohort, 0 to 16 of Relief's 6000.
"""

from __future__ import annotations

import numpy as np

from .dataio import Table

# Distances per block: the distance and diff buffers (2 x 512 KB, about 1 MB)
# fit a 2 MB L2 cache; larger blocks were measured slower at 3000 rows.
BLOCK_CELLS = 2**16


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
    starts with a bucket pass: each anchor is searched only among the
    candidates with its own tuple of category codes, and an anchor whose k-th
    distance there is below 1.0 is final. On a table with two or more
    categoricals, the anchors it leaves go on to a near pass: they are grouped
    by their codes on every categorical but the one with the most levels (the
    first such, on a tie), and each group is searched, over all the features,
    among the candidates whose codes on those categoricals differ from the
    group's in at most one (its near set). An anchor whose k-th distance there
    is below 2.0 is final. The others, and the anchors whose bucket or near set
    holds k or fewer candidates, or whose near set holds every candidate, go on
    to the search over all candidates. The result is exact:

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
    4. A candidate outside an anchor's near set differs from it in at least
       two categoricals, so, as in 2, its distance is >= 2.0. Inside the near
       set a pair's distance is bit-identical to the full search's, since the
       near pass sums every feature in schema order. So when the k-th
       distance in the near set is below 2.0, the kept set, the ties and the
       order match the search over all candidates, as in 3. This holds for
       any superset of an anchor's one-mismatch rows, so dropping any one
       categorical is exact; dropping the widest makes the fewest groups.

    A search of one block skips both passes. Every pass and the search over
    all candidates run on the calling thread.
    """
    anchors = np.asarray(anchors, dtype=np.intp)
    candidates = np.asarray(candidates, dtype=np.intp)
    arrays = [arr for _, arr in features]
    n = len(candidates)
    step = max(1, BLOCK_CELLS // n)
    out = np.empty((len(anchors), k), dtype=np.intp)
    # The distance and diff buffers of every pass's blocks, each at most
    # max(BLOCK_CELLS, n) cells, in one allocation: as two 512 KB arrays, a
    # 3000-row `weigh` job took 1100-2300 minor page faults in most processes,
    # as one about 30 (getrusage around each job).
    scratch = np.empty((2, min(len(anchors) * n, max(BLOCK_CELLS, n))))
    codes = [arr for arr in arrays if arr.dtype.kind != "f"]
    rest = np.arange(len(anchors))
    if len(anchors) > step and codes:
        numerics = [arr for arr in arrays if arr.dtype.kind == "f"]
        rest = _bucket_pass(numerics, codes, anchors, candidates, k, scratch, out)
        if len(rest) and len(codes) > 1:
            rest = _near_pass(arrays, codes, anchors, rest, candidates, k, scratch, out)
    if len(rest):
        _full_search(arrays, anchors, rest, candidates, k, scratch, out)
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


def _bucket_pass(numerics, codes, anchors, candidates, k: int, scratch, out) -> np.ndarray:
    """Search each anchor among the candidates with its own category codes, on
    the numeric features only, write the rows it settles into `out`, and return
    the ascending positions in `anchors` of the anchors it leaves to the next
    pass."""
    ids = _signatures(codes, np.concatenate([anchors, candidates]))
    a_ids, c_ids = ids[: len(anchors)], ids[len(anchors) :]
    # A stable sort, so each group's candidates stay in ascending row order.
    c_order = np.argsort(c_ids, kind="stable")
    groups = int(ids.max()) + 1
    a_size = np.bincount(a_ids, minlength=groups)
    c_size = np.bincount(c_ids, minlength=groups)
    c_end = np.cumsum(c_size)
    searched = np.flatnonzero((a_size > 0) & (c_size > k))
    # Candidates grouped by id, each group in ascending row order, so that a
    # group's rows and feature values are slices.
    grouped = candidates[c_order]
    cand = [arr[grouped] for arr in numerics]

    def sets():
        for g in searched.tolist():
            c1 = int(c_end[g])
            c0 = c1 - int(c_size[g])
            yield g, grouped[c0:c1], [c[c0:c1] for c in cand]

    return _settle(numerics, anchors, np.arange(len(anchors)), a_ids, sets(), k, 1.0, scratch, out)


def _near_pass(arrays, codes, anchors, at, candidates, k: int, scratch, out) -> np.ndarray:
    """Search the anchors at the ascending positions `at` in `anchors`, grouped
    by their codes on every categorical but the widest, each group over all the
    features among its near set: the candidates whose codes on those
    categoricals differ from the group's in at most one. Write the rows it
    settles into `out`, and return the ascending positions of the anchors it
    leaves to the search over all candidates."""
    widest = max(range(len(codes)), key=lambda i: int(codes[i].max()))
    coarse = codes[:widest] + codes[widest + 1 :]
    rows = np.concatenate([anchors[at], candidates])
    _, first, ids = np.unique(_signatures(coarse, rows), return_index=True, return_inverse=True)
    a_ids, c_ids = ids[: len(at)], ids[len(at) :]
    # Each group's codes, one row per group, to count mismatches against.
    tuples = np.stack([c[rows[first]] for c in coarse], axis=1)

    def sets():
        for g in np.unique(a_ids).tolist():
            near = candidates[((tuples != tuples[g]).sum(axis=1) <= 1)[c_ids]]
            if k < len(near) < len(candidates):
                yield g, near, [arr[near] for arr in arrays]

    return _settle(arrays, anchors, at, a_ids, sets(), k, 2.0, scratch, out)


def _settle(arrays, anchors, at, a_ids, sets, k: int, bound: float, scratch, out) -> np.ndarray:
    """Search the anchors at positions `at` in `anchors` by group: for each (g,
    rows, cand) in `sets`, the anchors whose id in `a_ids` is g among the
    ascending candidate rows `rows` alone, whose values of `arrays` are `cand`.
    Write each anchor whose k-th distance there is below `bound` into its row
    of `out`, and return the ascending positions of all the others. `scratch`
    holds the distance and diff buffers of every group's blocks."""
    # A stable sort, so each group's anchors are a slice in the order of `at`.
    a_order = np.argsort(a_ids, kind="stable")
    a_size = np.bincount(a_ids)
    a_end = np.cumsum(a_size)
    found = np.empty((len(at), k), dtype=np.intp)
    kth = np.full(len(at), np.inf)
    for g, rows, cand in sets:
        a0, a1 = int(a_end[g] - a_size[g]), int(a_end[g])
        step = max(1, BLOCK_CELLS // len(rows))
        _search(arrays, cand, anchors[at[a_order[a0:a1]]], rows, k, step, found[a0:a1], scratch,
                kth[a0:a1])
    settled = kth < bound
    out[at[a_order[settled]]] = found[settled]
    return np.sort(at[a_order[~settled]])


def _full_search(arrays, anchors, at, candidates, k: int, scratch, out) -> None:
    """The k nearest among all the candidates of each anchor at positions `at`
    in `anchors`, into its row of `out`: one `_settle` group with bound inf.
    That settles every anchor, since in a valid call each has at least k
    other candidates, so its k-th distance is finite."""
    group = (0, candidates, [arr[candidates] for arr in arrays])
    _settle(arrays, anchors, at, np.zeros(len(at), dtype=np.intp), [group], k, np.inf, scratch, out)


def _search(arrays, cand, anchors, candidates, k: int, step: int, out, scratch, kth_out) -> None:
    """The blocked search of `anchors`, `step` of them at a time, each block
    into its own rows of `out` and of `kth_out` (each anchor's k-th distance).
    `scratch` holds the distance and diff buffers, each of at least one
    block's cells."""
    n = len(candidates)
    for start in range(0, len(anchors), step):
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
