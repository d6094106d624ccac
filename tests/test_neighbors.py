"""The blocked k-nearest kernel shared by Relief and SMOTE: exact order, bounded memory."""

import random
import sys
import tracemalloc
from concurrent import futures

import numpy as np
import pytest

from featrank import neighbors
from featrank.neighbors import encode, k_nearest
from featrank.smote import _all_minority_neighbors, minority_neighbors
from featrank.weighting import weight_relief
from helpers import make_table
from oracles import oracle_minority_neighbors, oracle_relief_argsort

HALF = 20  # rows per class in the tie-heavy tables below


def balanced_labels(rng):
    labels = [1] * HALF + [0] * HALF
    rng.shuffle(labels)
    return labels


def all_categorical(seed):
    rng = random.Random(seed)
    cols = {name: [rng.choice(levels) for _ in range(2 * HALF)] for name, levels in
            (("a", "xy"), ("b", "xyz"), ("c", "xy"))}
    return make_table(cols, balanced_labels(rng))


def duplicate_rows(seed):
    rng = random.Random(seed)
    distinct = [(float(rng.randrange(3)), rng.choice("pq")) for _ in range(8)]
    rows = [distinct[i % len(distinct)] for i in range(2 * HALF)]
    return make_table({"x": [r[0] for r in rows], "c": [r[1] for r in rows]}, balanced_labels(rng))


def rounded_mixed(seed):
    rng = random.Random(seed)
    n = 2 * HALF
    return make_table(
        {"u": [round(rng.random(), 1) for _ in range(n)],
         "v": [float(rng.randrange(4)) for _ in range(n)],
         "c": [rng.choice("lmn") for _ in range(n)],
         "const": [2.5] * n},
        balanced_labels(rng),
    )


TABLES = [all_categorical, duplicate_rows, rounded_mixed]


@pytest.fixture(params=[1, 7, None], ids=["block1", "block7", "block_over_n"])
def block_rows(request, monkeypatch):
    """Every kernel call in the test runs this many anchors per block (all of them for None)."""
    rows = request.param
    monkeypatch.setattr(neighbors, "BLOCK_CELLS", 10**9 if rows is None else rows * HALF)
    return rows


@pytest.mark.parametrize("make", TABLES)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [1, 3, HALF - 1])
def test_relief_equals_per_anchor_argsort(make, seed, k, block_rows):
    t = make(seed)
    assert weight_relief(t, k_neighbors=k, seed=0) == oracle_relief_argsort(t, k)


def test_relief_adds_terms_in_anchor_order():
    # continuous values, so that another summation order would change the last bits
    rng = random.Random(3)
    n = 300
    labels = [rng.randrange(2) for _ in range(n)]
    t = make_table({"g": [rng.gauss(0, 1) for _ in labels], "e": [rng.expovariate(1) for _ in labels],
                    "c": [rng.choice("ab") for _ in labels]}, labels)
    assert weight_relief(t, k_neighbors=10, seed=0) == oracle_relief_argsort(t, 10)


@pytest.mark.parametrize("make", TABLES)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [1, 3, HALF - 1])
def test_smote_neighbors_equal_full_matrix_argsort(make, seed, k, block_rows):
    t = make(seed)
    expected = oracle_minority_neighbors(t, k)
    assert _all_minority_neighbors(t, k) == expected
    for row in list(expected)[:5]:
        assert minority_neighbors(t, row, k) == expected[row]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("block", [1, 7, 1000])
def test_k_nearest_matches_stable_argsort_on_integer_distances(seed, block, monkeypatch):
    rng = np.random.default_rng(seed)
    n = 50
    codes = [("f%d" % i, rng.integers(0, 2, n)) for i in range(4)]  # distances 0..4: ties everywhere
    candidates = np.sort(rng.choice(n, size=30, replace=False))
    anchors = rng.permutation(n)[:25]  # some inside the candidates, some outside
    dist = sum((c[anchors, None] != c[None, candidates]).astype(np.int64) for _, c in codes)
    dist[anchors[:, None] == candidates[None, :]] = 99  # never a neighbor of itself
    monkeypatch.setattr(neighbors, "BLOCK_CELLS", block * len(candidates))
    for k in (1, 2, 5, 29):
        expected = candidates[np.argsort(dist, axis=1, kind="stable")[:, :k]]
        assert (k_nearest(codes, anchors, candidates, k) == expected).all()


def test_threaded_search_equals_oracles_under_frequent_switches(monkeypatch):
    # more workers than CPUs, one anchor per block, a thread switch every microsecond
    pools = []

    class RecordingPool(futures.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(neighbors, "_cpus", lambda: 8)
    monkeypatch.setattr(neighbors, "BLOCK_CELLS", 1)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            rng = np.random.default_rng(seed)
            n = 60
            codes = [("f%d" % i, rng.integers(0, 3, n)) for i in range(3)]
            candidates = np.sort(rng.choice(n, size=40, replace=False))
            anchors = rng.permutation(n)[:45]
            dist = sum((c[anchors, None] != c[None, candidates]).astype(np.int64) for _, c in codes)
            dist[anchors[:, None] == candidates[None, :]] = 99
            for k in (1, 4, 39):
                expected = candidates[np.argsort(dist, axis=1, kind="stable")[:, :k]]
                assert (k_nearest(codes, anchors, candidates, k) == expected).all()
        for t in (make(seed) for make in TABLES for seed in (0, 1)):
            assert weight_relief(t, k_neighbors=3, seed=0) == oracle_relief_argsort(t, 3)
    finally:
        sys.setswitchinterval(interval)
    assert pools and set(pools) == {8}


def test_worker_exception_is_reraised(monkeypatch):
    n = 12
    rows = [("row", np.arange(n))]  # each row's own code, so diff sees the block's anchors
    real_diff = neighbors.diff

    def failing_diff(a, b, out=None):
        if (a == n - 1).any():  # only in the last block
            raise RuntimeError("diff failed")
        return real_diff(a, b, out=out)

    monkeypatch.setattr(neighbors, "_cpus", lambda: 2)
    monkeypatch.setattr(neighbors, "BLOCK_CELLS", 1)
    monkeypatch.setattr(neighbors, "diff", failing_diff)
    with pytest.raises(RuntimeError, match="diff failed"):
        k_nearest(rows, np.arange(n), np.arange(n), 2)


def test_one_block_call_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-block call started a thread pool")

    monkeypatch.setattr(neighbors, "_cpus", lambda: 8)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", no_pool)
    t = rounded_mixed(0)
    assert _all_minority_neighbors(t, 3) == oracle_minority_neighbors(t, 3)
    assert weight_relief(t, k_neighbors=3, seed=0) == oracle_relief_argsort(t, 3)


def test_encode_normalizes_numerics_and_codes_sorted_categories():
    t = make_table({"x": [2.0, 4.0, 3.0], "c": ["b", "a", "b"], "k": [1.0, 1.0, 1.0]}, [1, 0, 1])
    (_, x), (_, c), (_, k) = encode(t)
    assert x.tolist() == [0.0, 1.0, 0.5]
    assert c.tolist() == [1, 0, 1] and c.dtype == np.int64
    assert k.tolist() == [0.0, 0.0, 0.0]


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_smote_neighbor_search_memory_is_blocked():
    rng = random.Random(5)
    m = 4000
    labels = [1] * m + [0] * m
    t = make_table(
        {"x": [rng.random() for _ in labels], "c": [rng.choice("abc") for _ in labels]}, labels
    )
    assert traced_peak(lambda: _all_minority_neighbors(t, 5)) < m * m * 8 / 4


def test_relief_memory_is_blocked():
    rng = random.Random(6)
    n = 6000
    labels = [rng.randrange(2) for _ in range(n)]
    t = make_table(
        {"x": [rng.random() for _ in labels], "c": [rng.choice("abc") for _ in labels]}, labels
    )
    assert traced_peak(lambda: weight_relief(t, k_neighbors=10)) < n * n * 8 / 4
