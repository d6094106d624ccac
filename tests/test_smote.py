"""Minority oversampling: neighbor search, interpolation, and determinism."""

import math
import random

import pytest

from featrank import neighbors
from featrank.neighbors import encode, k_nearest
from featrank.smote import SmoteConfig, minority_neighbors, smote
from helpers import make_table
from oracles import oracle_smote


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="k_neighbors"):
            SmoteConfig(k_neighbors=0)
        with pytest.raises(ValueError, match="target_ratio"):
            SmoteConfig(target_ratio=0.0)
        with pytest.raises(ValueError, match="target_ratio"):
            SmoteConfig(target_ratio=1.5)
        assert SmoteConfig().k_neighbors == 5
        assert SmoteConfig().target_ratio == 1.0


class TestMinorityNeighbors:
    def test_nearest_on_a_line(self):
        # minority (positives) at x = 0, 1, 10; majority fills the rest
        t = make_table({"x": [0.0, 1.0, 10.0, 5.0, 6.0, 7.0, 8.0]}, [1, 1, 1, 0, 0, 0, 0])
        assert minority_neighbors(t, 0, 1) == [1]
        assert minority_neighbors(t, 2, 1) == [1]
        assert minority_neighbors(t, 0, 2) == [1, 2]

    def test_duplicate_points_tie_by_lower_index(self):
        t = make_table({"x": [3.0, 3.0, 3.0, 0.0, 1.0, 2.0, 4.0]}, [1, 1, 1, 0, 0, 0, 0])
        assert minority_neighbors(t, 2, 1) == [0]
        assert minority_neighbors(t, 1, 2) == [0, 2]

    def test_mixed_distance_includes_categorical_mismatch(self):
        t = make_table(
            {"x": [0.0, 0.1, 0.0, 5.0, 5.0, 5.0], "c": ["a", "a", "b", "a", "a", "b"]},
            [1, 1, 1, 0, 0, 0],
        )
        # row 1 differs from row 0 by 0.02 normalized; row 2 by a full categorical flip
        assert minority_neighbors(t, 0, 1) == [1]

    def test_k_at_least_minority_size_errors(self):
        t = make_table({"x": [0.0, 1.0, 2.0, 3.0, 4.0]}, [1, 1, 0, 0, 0])
        with pytest.raises(ValueError, match="minority"):
            minority_neighbors(t, 0, 2)
        with pytest.raises(ValueError, match="k must be"):
            minority_neighbors(t, 0, 0)

    def test_majority_row_rejected(self):
        t = make_table({"x": [0.0, 1.0, 2.0, 3.0, 4.0]}, [1, 1, 0, 0, 0])
        with pytest.raises(ValueError, match="not a minority"):
            minority_neighbors(t, 4, 1)


class TestSmote:
    def minority_majority(self, table):
        y = table.label01()
        n_pos = sum(y)
        n_neg = len(y) - n_pos
        return min(n_pos, n_neg), max(n_pos, n_neg)

    def test_exact_target_counts(self):
        rng = random.Random(0)
        t = make_table(
            {"x": [rng.random() for _ in range(35)]},
            [1] * 10 + [0] * 25,
        )
        out = smote(t, SmoteConfig(k_neighbors=3, target_ratio=1.0, seed=1))
        assert self.minority_majority(out) == (25, 25)
        partial = smote(t, SmoteConfig(k_neighbors=3, target_ratio=0.6, seed=1))
        assert self.minority_majority(partial) == (math.ceil(0.6 * 25), 25)

    def test_already_balanced_returns_table_unchanged(self):
        t = make_table({"x": [0.0, 1.0, 2.0, 3.0]}, [1, 1, 0, 0])
        assert smote(t, SmoteConfig(k_neighbors=1, target_ratio=1.0, seed=0)) is t

    def test_original_rows_are_a_prefix(self):
        rng = random.Random(2)
        t = make_table({"x": [rng.random() for _ in range(20)]}, [1] * 6 + [0] * 14)
        out = smote(t, SmoteConfig(k_neighbors=2, target_ratio=1.0, seed=3))
        assert out.rows[: t.n_rows] == t.rows

    def test_numeric_cells_are_convex_combinations(self):
        rng = random.Random(4)
        t = make_table(
            {"x": [rng.random() for _ in range(30)], "z": [rng.gauss(0, 5) for _ in range(30)]},
            [1] * 8 + [0] * 22,
        )
        out = smote(t, SmoteConfig(k_neighbors=3, target_ratio=1.0, seed=5))
        xi, zi = out.col_index("x"), out.col_index("z")
        for (anchor, neighbor), row in zip(out.smote_pairs, out.rows[t.n_rows:]):
            for j in (xi, zi):
                lo = min(t.rows[anchor][j], t.rows[neighbor][j])
                hi = max(t.rows[anchor][j], t.rows[neighbor][j])
                assert lo - 1e-12 <= row[j] <= hi + 1e-12

    def test_one_interpolation_fraction_shared_across_numerics(self):
        # two identical coordinates per row force synthetic points onto y = x
        t = make_table(
            {"x": [0.0, 2.0, 5.0, 5.0, 5.0, 5.0, 5.0], "y": [0.0, 2.0, 5.0, 5.0, 5.0, 5.0, 5.0]},
            [1, 1, 0, 0, 0, 0, 0],
        )
        out = smote(t, SmoteConfig(k_neighbors=1, target_ratio=1.0, seed=9))
        xi, yi = out.col_index("x"), out.col_index("y")
        for row in out.rows[t.n_rows:]:
            assert row[xi] == row[yi]
            assert 0.0 <= row[xi] <= 2.0

    def test_categorical_majority_vote_with_anchor_tiebreak(self):
        # anchor row 0; its 3 neighbors carry values a, a, b -> vote picks a
        t = make_table(
            {"x": [0.0, 0.1, 0.2, 0.3, 9.0, 9.0, 9.0, 9.0, 9.0],
             "c": ["b", "a", "a", "b", "z", "z", "z", "z", "z"]},
            [1, 1, 1, 1, 0, 0, 0, 0, 0],
        )
        out = smote(t, SmoteConfig(k_neighbors=3, target_ratio=1.0, seed=0))
        ci = out.col_index("c")
        for (anchor, _), row in zip(out.smote_pairs, out.rows[t.n_rows:]):
            if anchor == 0:
                assert row[ci] == "a"

    def test_categorical_tie_takes_anchor_value(self):
        # with k=2 every anchor's neighborhood holds one a and one b
        t = make_table(
            {"x": [0.0, 0.1, 0.2, 7.0, 7.0, 7.0, 7.0, 7.0],
             "c": ["a", "b", "a", "z", "z", "z", "z", "z"]},
            [1, 1, 1, 0, 0, 0, 0, 0],
        )
        out = smote(t, SmoteConfig(k_neighbors=2, target_ratio=1.0, seed=1))
        ci = out.col_index("c")
        minority = [i for i, v in enumerate(t.label01()) if v == 1]
        neighborhoods = dict(zip(minority, k_nearest(encode(t), minority, minority, 2).tolist()))
        for (anchor, _), row in zip(out.smote_pairs, out.rows[t.n_rows:]):
            votes = sorted(t.rows[n][ci] for n in neighborhoods[anchor])
            if votes == ["a", "b"]:
                assert row[ci] == t.rows[anchor][ci]

    def test_synthetic_labels_are_minority(self):
        t = make_table({"x": [0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 8.0]}, [1, 1, 1, 0, 0, 0, 0])
        out = smote(t, SmoteConfig(k_neighbors=2, target_ratio=1.0, seed=7))
        y = out.label01()
        assert all(y[i] == 1 for i in range(t.n_rows, out.n_rows))

    def test_deterministic_and_seed_sensitive(self):
        rng = random.Random(6)
        t = make_table({"x": [rng.random() for _ in range(25)]}, [1] * 7 + [0] * 18)
        cfg = SmoteConfig(k_neighbors=3, target_ratio=1.0, seed=11)
        a = smote(t, cfg)
        b = smote(t, cfg)
        assert a.rows == b.rows and a.smote_pairs == b.smote_pairs
        c = smote(t, SmoteConfig(k_neighbors=3, target_ratio=1.0, seed=12))
        assert a.rows != c.rows

    def test_pairs_reference_minority_rows_only(self):
        rng = random.Random(8)
        t = make_table({"x": [rng.random() for _ in range(30)]}, [1] * 9 + [0] * 21)
        out = smote(t, SmoteConfig(k_neighbors=4, target_ratio=1.0, seed=13))
        minority = {i for i, v in enumerate(t.label01()) if v == 1}
        for anchor, neighbor in out.smote_pairs:
            assert anchor in minority and neighbor in minority and anchor != neighbor

    def test_single_class_rejected(self):
        t = make_table({"x": [0.0, 1.0, 2.0]}, [1, 1, 1])
        with pytest.raises(ValueError, match="single-class"):
            smote(t, SmoteConfig(k_neighbors=1))

    def test_k_too_large_rejected(self):
        t = make_table({"x": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}, [1, 1, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="minority"):
            smote(t, SmoteConfig(k_neighbors=2))

    def test_minority_tie_prefers_positive_class(self):
        # 3 vs 3: the positive class counts as the minority and gets no new rows
        # at ratio 1.0; at a lower ratio nothing is added either (need <= 0)
        t = make_table({"x": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}, [1, 1, 1, 0, 0, 0])
        out = smote(t, SmoteConfig(k_neighbors=2, target_ratio=1.0, seed=0))
        assert out is t


def mixed_table(n_pos, n_neg, seed):
    """Numerics with and without ties, two categoricals and a group column."""
    rng = random.Random(seed)
    labels = [1] * n_pos + [0] * n_neg
    rng.shuffle(labels)
    return make_table(
        {"x": [rng.gauss(0, 1) for _ in labels], "r": [round(rng.random(), 1) for _ in labels],
         "c": [rng.choice("abc") for _ in labels], "d": [rng.choice("pq") for _ in labels]},
        labels,
        group=("g", [rng.choice("uv") for _ in labels]),
    )


@pytest.mark.parametrize(
    "n_pos, n_neg, k, ratio, seed",
    [
        (9, 30, 1, 1.0, 0),
        (9, 30, 3, 1.0, 1),
        (12, 40, 5, 0.6, 2),
        (31, 11, 4, 1.0, 3),  # the negatives are the minority
        (20, 25, 8, 1.0, 4),
        (600, 700, 5, 1.0, 5),  # the neighbour search runs several blocks
    ],
)
def test_smote_equals_written_out_loop(n_pos, n_neg, k, ratio, seed):
    t = mixed_table(n_pos, n_neg, seed)
    if n_pos >= 600:
        assert min(n_pos, n_neg) > neighbors.BLOCK_CELLS // min(n_pos, n_neg)
    out = smote(t, SmoteConfig(k_neighbors=k, target_ratio=ratio, seed=seed))
    rows, pairs = oracle_smote(t, k, ratio, seed)
    assert rows and out.rows[t.n_rows :] == tuple(rows)
    assert out.smote_pairs == tuple(pairs)
