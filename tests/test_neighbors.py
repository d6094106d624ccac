"""The blocked k-nearest kernel shared by Relief and SMOTE: exact order, bounded memory."""

import random
import threading
import tracemalloc

import numpy as np
import pytest

from featrank import neighbors
from featrank.neighbors import encode, k_nearest
from featrank.smote import SmoteConfig, minority_neighbors, smote
from featrank.weighting import weight_relief
from helpers import make_table
from oracles import oracle_k_nearest, oracle_minority_neighbors, oracle_relief_argsort

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


# One feature only: the first feature's distances, written in place, are the
# whole distance.
def one_categorical(seed):
    rng = random.Random(seed)
    return make_table({"c": [rng.choice("xyz") for _ in range(2 * HALF)]}, balanced_labels(rng))


def one_numeric(seed):
    rng = random.Random(seed)
    return make_table({"v": [rng.randrange(5) / 4 for _ in range(2 * HALF)]}, balanced_labels(rng))


TABLES = [all_categorical, duplicate_rows, rounded_mixed, one_categorical, one_numeric]


def minority_search(t, k):
    """Every minority row's k nearest minority rows as SMOTE searches them: one
    `k_nearest` call with the minority rows as both anchors and candidates."""
    minority = np.flatnonzero(t.y == 1).tolist()  # these tables' positives are never the majority
    return dict(zip(minority, k_nearest(encode(t), minority, minority, k).tolist()))


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
    assert weight_relief(t, k_neighbors=k) == oracle_relief_argsort(t, k)


def test_relief_adds_terms_in_anchor_order():
    # continuous values, so that another summation order would change the last bits
    rng = random.Random(3)
    n = 300
    labels = [rng.randrange(2) for _ in range(n)]
    t = make_table({"g": [rng.gauss(0, 1) for _ in labels], "e": [rng.expovariate(1) for _ in labels],
                    "c": [rng.choice("ab") for _ in labels]}, labels)
    assert weight_relief(t, k_neighbors=10) == oracle_relief_argsort(t, 10)


@pytest.mark.parametrize("make", TABLES)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [1, 3, HALF - 1])
def test_smote_neighbors_equal_full_matrix_argsort(make, seed, k, block_rows):
    t = make(seed)
    expected = oracle_minority_neighbors(t, k)
    assert minority_search(t, k) == expected
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


# Numeric value grids: on the coarse ones, normalized diffs of exactly 1.0 and
# distances of exactly 1.0 are common, so a bucket's k-th distance often ties
# with rows of other category codes.
GRIDS = (2, 3, 5, 1000)


def random_mixed_table(rng):
    n = int(rng.integers(20, 201))
    columns = [(f"x{i}", rng.integers(0, rng.choice(GRIDS), n).tolist())
               for i in range(rng.integers(0, 4))]
    columns += [(f"c{i}", ["lmn"[j] for j in rng.integers(0, rng.integers(2, 4), n)])
                for i in range(rng.integers(1, 4))]
    if rng.random() < 0.5:
        # a skewed categorical of 6-9 levels, the widest one, which the near
        # pass leaves out of its groups
        weights = 0.5 ** np.arange(rng.integers(6, 10))
        columns.append(("w", ["abcdefghi"[j] for j in
                              rng.choice(len(weights), n, p=weights / weights.sum())]))
    shuffled = [columns[i] for i in rng.permutation(len(columns))]
    return make_table(dict(shuffled), rng.integers(0, 2, n).tolist()), n


@pytest.mark.parametrize("seed", range(8))
def test_k_nearest_equals_full_matrix_argsort_on_random_mixed_tables(seed, monkeypatch):
    # Block sizes from one anchor per block to one block for the whole search,
    # so the bucket and near passes run with and without the search over all
    # candidates.
    near_calls = []  # (anchors given, anchors left) of each near pass
    near_pass = neighbors._near_pass

    def recording_near_pass(arrays, codes, anchors, at, candidates, k, scratch, out):
        rest = near_pass(arrays, codes, anchors, at, candidates, k, scratch, out)
        near_calls.append((len(at), len(rest)))
        return rest

    monkeypatch.setattr(neighbors, "_near_pass", recording_near_pass)
    rng = np.random.default_rng(seed)
    for _ in range(60):
        t, n = random_mixed_table(rng)
        k = int(rng.integers(1, 10))
        candidates = np.sort(rng.choice(n, size=int(rng.integers(k + 1, n + 1)), replace=False))
        if rng.random() < 0.5:
            anchors = candidates
        else:
            anchors = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        monkeypatch.setattr(neighbors, "BLOCK_CELLS", int(rng.choice([1, 7, 50, 300, 2**16])))
        expected = oracle_k_nearest(t, anchors, candidates, k)
        assert (k_nearest(encode(t), anchors, candidates, k) == expected).all()
    # Some near pass settled anchors and still left some to the full search.
    assert any(0 < left < given for given, left in near_calls), near_calls


def test_bucket_kth_distance_of_one_takes_the_search_over_all_candidates(monkeypatch):
    # Row 1's one same-code candidate, row 2, is at distance 1.0; so is row 0,
    # which differs only in its code, and the tie goes to the lower row index.
    t = make_table({"x": [0.0, 0.0, 1.0], "c": ["b", "a", "a"]}, [0, 0, 0])
    monkeypatch.setattr(neighbors, "BLOCK_CELLS", 3)  # one anchor per block: the bucket pass runs
    rows = np.arange(3)
    assert k_nearest(encode(t), rows, rows, 1).tolist() == [[1], [0], [1]]


def test_near_kth_distance_of_two_takes_the_search_over_all_candidates(monkeypatch):
    # Row 1 is alone in its bucket. Its coarse group (a, b) = (p, r) has the
    # near set {1, 2, 3}, where its nearest, row 2, is at exactly 2.0 (b and
    # w differ). Row 0 differs in a and b, so it is outside the near set, also
    # at 2.0, and wins the tie by its lower index.
    t = make_table({"x": [0.0, 0.0, 0.0, 1.0], "a": ["q", "p", "p", "q"],
                    "b": ["s", "r", "s", "r"], "w": ["u", "u", "v", "z"]}, [0, 0, 0, 0])
    monkeypatch.setattr(neighbors, "BLOCK_CELLS", 4)  # one anchor per block: both passes run
    rows = np.arange(4)
    expected = oracle_k_nearest(t, rows, rows, 1)
    assert expected[1].tolist() == [0]
    assert (k_nearest(encode(t), rows, rows, 1) == expected).all()


def test_near_set_holds_the_rows_one_coarse_category_away(monkeypatch):
    # Row 1 is alone in its bucket. Its true nearest, row 0, differs only in a,
    # at 1.0. Row 2 shares its coarse codes (a, b) and is at 1.5 (w differs,
    # and x by 0.5), so a near set of its own coarse group alone would settle
    # row 1 on row 2.
    t = make_table({"x": [0.0, 0.0, 0.5, 1.0], "a": ["q", "p", "p", "q"],
                    "b": ["r", "r", "r", "s"], "w": ["u", "u", "v", "z"]}, [0, 0, 0, 0])
    monkeypatch.setattr(neighbors, "BLOCK_CELLS", 4)
    rows = np.arange(4)
    expected = oracle_k_nearest(t, rows, rows, 1)
    assert expected[1].tolist() == [0]
    assert (k_nearest(encode(t), rows, rows, 1) == expected).all()


def test_signatures_stay_below_the_row_count():
    # three categoricals of 10 levels over 20 rows: 1000 code tuples are possible
    rng = np.random.default_rng(4)
    codes = [rng.integers(0, 10, 30) for _ in range(3)]
    rows = rng.choice(30, size=20, replace=False)
    ids = neighbors._signatures(codes, rows)
    assert ids.min() >= 0 and ids.max() < len(rows)
    tuples = list(zip(*(c[rows].tolist() for c in codes)))
    assert all((ids[i] == ids[j]) == (tuples[i] == tuples[j]) for i in range(20) for j in range(20))


def test_label_only_table_has_all_distances_zero(block_rows):
    # with no feature columns every distance is 0, so neighbours are the lowest-index rows
    t = make_table({"x": [float(i) for i in range(7)]}, [1, 0, 1, 0, 0, 1, 0]).project([])
    assert encode(t) == []
    assert (k_nearest([], [0, 3, 6], np.arange(7), 2) == [[1, 2], [0, 1], [0, 1]]).all()
    assert weight_relief(t, 2) == {}
    assert minority_neighbors(t, 2, 2) == [0, 5]
    out = smote(t, SmoteConfig(k_neighbors=2, seed=3))
    assert out.y.tolist() == [1, 0, 1, 0, 0, 1, 0, 1]
    ((anchor, neighbor),) = out.smote_pairs
    assert anchor != neighbor and {anchor, neighbor} <= {0, 2, 5}


def test_multi_block_search_equals_oracles(monkeypatch):
    # one anchor per block
    searches = []  # blocks of each search over all candidates
    full_search = neighbors._full_search

    def recording_full_search(arrays, anchors, at, candidates, k, scratch, out):
        searches.append(-(-len(at) // max(1, neighbors.BLOCK_CELLS // len(candidates))))
        full_search(arrays, anchors, at, candidates, k, scratch, out)

    monkeypatch.setattr(neighbors, "BLOCK_CELLS", 1)
    monkeypatch.setattr(neighbors, "_full_search", recording_full_search)
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
        assert weight_relief(t, k_neighbors=3) == oracle_relief_argsort(t, 3)
    assert max(searches) > 1


def test_worker_exception_is_reraised(monkeypatch):
    n = 12
    rows = [("row", np.arange(n))]  # each row's own code, so diff sees the block's anchors
    real_diff = neighbors.diff

    def failing_diff(a, b, out=None):
        if (a == n - 1).any():  # only in the last block
            raise RuntimeError("diff failed")
        return real_diff(a, b, out=out)

    monkeypatch.setattr(neighbors, "BLOCK_CELLS", 1)
    monkeypatch.setattr(neighbors, "diff", failing_diff)
    with pytest.raises(RuntimeError, match="diff failed"):
        k_nearest(rows, np.arange(n), np.arange(n), 2)


def test_search_thread_error_raises_its_type_and_leaves_no_thread(monkeypatch):
    # The failing block runs on the caller's thread, and its exception
    # reaches the caller with its own type.
    class PlantedError(Exception):
        pass

    n = 12
    rows = [("row", np.arange(n))]
    real_diff = neighbors.diff
    threads = threading.active_count()
    failed_on = []

    def failing_diff(a, b, out=None):
        if (a == n - 1).any():  # only in the last block
            failed_on.append(threading.current_thread())
            raise PlantedError("search block failed")
        return real_diff(a, b, out=out)

    monkeypatch.setattr(neighbors, "BLOCK_CELLS", 1)
    monkeypatch.setattr(neighbors, "diff", failing_diff)
    with pytest.raises(PlantedError, match="search block failed"):
        k_nearest(rows, np.arange(n), np.arange(n), 2)
    assert failed_on == [threading.current_thread()]
    assert threading.active_count() == threads


def test_multi_block_numeric_search_starts_no_thread(monkeypatch):
    # With no categorical there is no bucket or near pass, so each search
    # below runs over all candidates in several blocks.
    def no_thread(thread):
        raise AssertionError("the neighbour search started a thread")

    monkeypatch.setattr(neighbors, "BLOCK_CELLS", 7 * HALF)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for t in (rounded_mixed(0).project(["u", "v", "const"]), one_numeric(1)):
        assert minority_search(t, 3) == oracle_minority_neighbors(t, 3)
        assert weight_relief(t, k_neighbors=3) == oracle_relief_argsort(t, 3)


def test_encode_normalizes_numerics_and_codes_sorted_categories():
    t = make_table({"x": [2.0, 4.0, 3.0], "c": ["b", "a", "b"], "k": [1.0, 1.0, 1.0]}, [1, 0, 1])
    (_, x), (_, c), (_, k) = encode(t)
    assert x.tolist() == [0.0, 1.0, 0.5]
    assert c.tolist() == [1, 0, 1] and c.dtype == np.uint8  # narrowed once, here
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
    assert traced_peak(lambda: minority_search(t, 5)) < m * m * 8 / 4


def test_relief_memory_is_blocked():
    rng = random.Random(6)
    n = 6000
    labels = [rng.randrange(2) for _ in range(n)]
    t = make_table(
        {"x": [rng.random() for _ in labels], "c": [rng.choice("abc") for _ in labels]}, labels
    )
    assert traced_peak(lambda: weight_relief(t, k_neighbors=10)) < n * n * 8 / 4
