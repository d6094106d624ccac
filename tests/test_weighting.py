"""Six attribute weighters, discretization, and rank aggregation."""

import inspect
import math
import random

import numpy as np
import pytest

import oracles
from featrank.weighting import (
    ALGORITHMS,
    BinEdges,
    aggregate_ranks,
    entropy,
    equal_frequency_edges,
    rank_attributes,
    weigh_all,
    weight_chi_squared,
    weight_gini_index,
    weight_information_gain,
    weight_relief,
    weight_rule,
    weight_uncertainty,
)
from helpers import bin_of, make_table


class TestEntropy:
    def test_hand_values(self):
        assert abs(entropy([9, 5]) - 0.9403) < 5e-5
        assert entropy([1, 1]) == 1.0
        assert entropy([7, 0]) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            entropy([0, 0])
        with pytest.raises(ValueError):
            entropy([3, -1])


class TestBinning:
    def test_edges_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            BinEdges(column="x", edges=(1.0, 1.0))

    def test_bin_of_boundaries(self):
        b = BinEdges(column="x", edges=(10.0, 20.0))
        assert [bin_of(b, v) for v in (5.0, 10.0, 15.0, 20.0, 25.0)] == [0, 0, 1, 1, 2]

    def test_equal_frequency_on_uniform_values(self):
        values = [float(i) for i in range(100)]
        b = equal_frequency_edges("x", values, 4)
        assert len(b.edges) == 3
        counts = [0, 0, 0, 0]
        for v in values:
            counts[bin_of(b, v)] += 1
        assert max(counts) - min(counts) <= 2

    def test_ties_collapse_edges(self):
        values = [1.0] * 50 + [2.0] * 50
        b = equal_frequency_edges("x", values, 10)
        assert len(b.edges) == 1

    def test_constant_column_yields_single_bin(self):
        b = equal_frequency_edges("x", [3.0] * 20, 10)
        assert b.edges == ()
        assert bin_of(b, 3.0) == 0

    def test_edges_equal_one_quantile_call_per_cut(self):
        rng = random.Random(8)
        columns = [[rng.gauss(0, 1) for _ in range(97)], [float(rng.randrange(6)) for _ in range(200)],
                   [round(rng.expovariate(2), 2) for _ in range(333)]]
        for values in columns:
            for n_bins in (2, 3, 5, 7, 10):
                lo, hi = min(values), max(values)
                expected = []
                for i in range(1, n_bins):
                    q = float(np.quantile(values, i / n_bins))
                    if lo < q < hi and (not expected or q > expected[-1]):
                        expected.append(q)
                assert equal_frequency_edges("x", values, n_bins).edges == tuple(expected)

    def test_single_bin_and_errors(self):
        assert equal_frequency_edges("x", [1.0, 2.0], 1).edges == ()
        with pytest.raises(ValueError):
            equal_frequency_edges("x", [1.0], 0)
        with pytest.raises(ValueError):
            equal_frequency_edges("x", [], 5)


class TestDiscreteWeighters:
    def test_perfect_predictor_equals_label_entropy(self):
        labels = [1, 1, 1, 0, 0]
        t = make_table({"f": ["a" if y else "b" for y in labels]}, labels)
        assert abs(weight_information_gain(t, "f") - entropy([2, 3])) < 1e-12

    def test_constant_attribute_scores_zero(self):
        labels = [1, 0, 1, 0]
        t = make_table({"f": ["c"] * 4}, labels)
        assert weight_information_gain(t, "f") == 0.0
        assert weight_gini_index(t, "f") == 0.0
        assert weight_uncertainty(t, "f") == 0.0
        assert weight_chi_squared(t, "f") == 0.0
        assert weight_rule(t, "f") == 0.5  # majority prior on a 50/50 label

    def test_gini_of_perfect_predictor_on_balanced_label(self):
        labels = [1, 1, 0, 0]
        t = make_table({"f": ["a", "a", "b", "b"]}, labels)
        assert abs(weight_gini_index(t, "f") - 0.5) < 1e-12

    def test_uncertainty_of_label_copy_is_one(self):
        labels = [1, 0, 1, 0, 1]
        t = make_table({"f": ["p" if y else "q" for y in labels]}, labels)
        assert abs(weight_uncertainty(t, "f") - 1.0) < 1e-12

    def test_chi_squared_perfect_association_equals_n(self):
        labels = [1] * 10 + [0] * 10
        t = make_table({"f": ["a"] * 10 + ["b"] * 10}, labels)
        assert weight_chi_squared(t, "f") == 20.0

    def test_chi_squared_exact_independence_is_zero(self):
        # both values carry the same 5/5 label split
        labels = [1] * 5 + [0] * 5 + [1] * 5 + [0] * 5
        t = make_table({"f": ["a"] * 10 + ["b"] * 10}, labels)
        assert abs(weight_chi_squared(t, "f")) < 1e-12

    def test_rule_bounded_below_by_majority(self):
        rng = random.Random(3)
        labels = [rng.randrange(2) for _ in range(40)]
        t = make_table({"f": [rng.choice("ab") for _ in range(40)]}, labels)
        majority = max(sum(labels), 40 - sum(labels)) / 40
        assert weight_rule(t, "f") >= majority

    def test_label_attribute_rejected(self):
        t = make_table({"f": ["a", "b"]}, [1, 0])
        for fn in (weight_information_gain, weight_gini_index, weight_uncertainty,
                   weight_chi_squared, weight_rule):
            with pytest.raises(ValueError, match="label"):
                fn(t, "label")

    def test_numeric_requires_bins(self):
        t = make_table({"x": [1.0, 2.0, 3.0, 4.0]}, [1, 0, 1, 0])
        with pytest.raises(ValueError, match="bin edges"):
            weight_information_gain(t, "x")
        edges = equal_frequency_edges("x", t.column("x"), 2)
        assert weight_information_gain(t, "x", edges) >= 0.0
        wrong = BinEdges(column="other", edges=(2.0,))
        with pytest.raises(ValueError, match="not"):
            weight_information_gain(t, "x", wrong)

    def test_matches_contingency_oracle_on_random_tables(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(8, 21)
            symbols = [rng.choice("abc") for _ in range(n)]
            labels = [rng.randrange(2) for _ in range(n)]
            if len(set(labels)) < 2:
                labels[0] = 1 - labels[0]
            t = make_table({"f": symbols}, labels)
            assert abs(weight_information_gain(t, "f")
                       - oracles.oracle_information_gain(symbols, labels)) < 1e-9
            assert abs(weight_gini_index(t, "f")
                       - oracles.oracle_gini_reduction(symbols, labels)) < 1e-9
            assert abs(weight_uncertainty(t, "f")
                       - oracles.oracle_uncertainty(symbols, labels)) < 1e-9
            assert abs(weight_chi_squared(t, "f")
                       - oracles.oracle_chi_squared(symbols, labels)) < 1e-9
            assert abs(weight_rule(t, "f")
                       - oracles.oracle_rule_accuracy(symbols, labels)) < 1e-9


class TestRelief:
    def test_matches_exhaustive_oracle(self):
        rng = random.Random(5)
        for _ in range(5):
            n = rng.randrange(30, 80)
            num = [rng.gauss(0, 1) for _ in range(n)]
            cat = [rng.choice("xyz") for _ in range(n)]
            labels = [rng.randrange(2) for _ in range(n)]
            while min(sum(labels), n - sum(labels)) < 4:
                labels[rng.randrange(n)] ^= 1
            t = make_table({"num": num, "cat": cat}, labels)
            got = weight_relief(t, 3)
            want = oracles.oracle_relief(
                [("num", "numeric", num), ("cat", "categorical", cat)], labels, 3
            )
            for name in got:
                assert abs(got[name] - want[name]) < 1e-9

    def test_label_copy_scores_one_on_separated_clusters(self):
        # positives at 0, negatives at 1: every miss differs by the full range
        labels = [1] * 5 + [0] * 5
        t = make_table({"f": [0.0] * 5 + [1.0] * 5}, labels)
        w = weight_relief(t, 1)
        assert abs(w["f"] - 1.0) < 1e-12

    def test_seed_has_no_effect_with_all_anchors(self):
        rng = random.Random(8)
        n = 40
        t = make_table(
            {"a": [rng.random() for _ in range(n)], "b": [rng.choice("uv") for _ in range(n)]},
            [i % 2 for i in range(n)],
        )
        # every instance is an anchor, so Relief draws nothing and takes no seed
        for weigher in (weight_relief, weigh_all):
            assert "seed" not in inspect.signature(weigher).parameters
        assert weight_relief(t, 5) == weight_relief(t, 5)

    def test_small_class_rejected(self):
        t = make_table({"f": [0.0, 1.0, 2.0, 3.0]}, [1, 0, 0, 0])
        with pytest.raises(ValueError, match="at least"):
            weight_relief(t, 2)
        with pytest.raises(ValueError, match="k_neighbors"):
            weight_relief(t, 0)

    def test_weights_within_unit_interval(self):
        rng = random.Random(2)
        n = 60
        t = make_table(
            {"a": [rng.random() for _ in range(n)], "b": [rng.choice("pq") for _ in range(n)]},
            [rng.randrange(2) for _ in range(30)] + [1] * 15 + [0] * 15,
        )
        for w in weight_relief(t, 4).values():
            assert -1.0 <= w <= 1.0


class TestRanking:
    def test_rank_one_is_max_weight(self):
        ranks = rank_attributes({"a": 0.2, "b": 0.9, "c": 0.5})
        assert ranks == {"b": 1, "c": 2, "a": 3}

    def test_ties_break_by_name(self):
        ranks = rank_attributes({"beta": 0.5, "alpha": 0.5, "zed": 0.1})
        assert ranks == {"alpha": 1, "beta": 2, "zed": 3}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_attributes({})

    def test_aggregate_means_and_overall(self):
        ranks = {"a": [1, 2, 3], "b": [2, 1, 1], "c": [3, 3, 2]}
        mean, overall = aggregate_ranks(ranks)
        assert mean == {"a": 2.0, "b": 4 / 3, "c": 8 / 3}
        assert overall == {"b": 1, "a": 2, "c": 3}

    def test_aggregate_mean_ties_break_by_name(self):
        mean, overall = aggregate_ranks({"b": [1, 2], "a": [2, 1]})
        assert mean["a"] == mean["b"] == 1.5
        assert overall == {"a": 1, "b": 2}

    def test_aggregate_errors(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_ranks({})
        with pytest.raises(ValueError, match="ragged"):
            aggregate_ranks({"a": [1, 2], "b": [1]})
        with pytest.raises(ValueError, match="no algorithm"):
            aggregate_ranks({"a": [], "b": []})


class TestWeighAll:
    def build(self, n=80, seed=4):
        rng = random.Random(seed)
        labels = [rng.randrange(2) for _ in range(n)]
        while min(sum(labels), n - sum(labels)) < 12:
            labels[rng.randrange(n)] ^= 1
        signal = [y + rng.gauss(0, 0.4) for y in labels]
        return make_table(
            {
                "signal": signal,
                "noise": [rng.random() for _ in range(n)],
                "cat": [rng.choice("lmn") for _ in range(n)],
            },
            labels,
            group=("eth", [rng.choice(["g1", "g2"]) for _ in range(n)]),
        )

    def test_matrix_shape_and_rank_permutations(self):
        t = self.build()
        m = weigh_all(t, n_bins=5, relief_k=5)
        assert set(m.attributes) == {"signal", "noise", "cat", "eth"}
        assert m.algorithms == ALGORITHMS
        p = len(m.attributes)
        for alg in ALGORITHMS:
            ranks = sorted(m.rank[a][alg] for a in m.attributes)
            assert ranks == list(range(1, p + 1))

    def test_mean_rank_consistency(self):
        m = weigh_all(self.build(), n_bins=5, relief_k=5)
        for a in m.attributes:
            expected = sum(m.rank[a][alg] for alg in ALGORITHMS) / len(ALGORITHMS)
            assert abs(m.mean_rank[a] - expected) < 1e-12

    def test_by_overall_rank_sorted(self):
        m = weigh_all(self.build(), n_bins=5, relief_k=5)
        ordered = m.by_overall_rank()
        assert [m.overall_rank[a] for a in ordered] == list(range(1, len(ordered) + 1))
        assert ordered[0] == "signal"  # the planted signal dominates

    def test_weights_equal_the_single_attribute_weighters(self):
        t = self.build()
        m = weigh_all(t, n_bins=5, relief_k=5)
        relief = weight_relief(t, k_neighbors=5)
        singles = {"information_gain": weight_information_gain, "gini_index": weight_gini_index,
                   "rule": weight_rule, "uncertainty": weight_uncertainty, "chi_squared": weight_chi_squared}
        for a in m.attributes:
            bins = equal_frequency_edges(a, t.column(a), 5) if a in ("signal", "noise") else None
            expected = {alg: relief[a] if alg == "relief" else singles[alg](t, a, bins) for alg in ALGORITHMS}
            assert m.weight[a] == expected
            assert list(m.weight[a]) == list(ALGORITHMS)

    def test_deterministic(self):
        t = self.build()
        a = weigh_all(t, n_bins=5, relief_k=5)
        b = weigh_all(t, n_bins=5, relief_k=5)
        assert a == b

    def test_errors_without_features(self):
        t = make_table({"x": [1.0, 2.0]}, [1, 0])
        only_label = t.project([])
        # project requires at least the label; an all-label table cannot rank
        with pytest.raises(ValueError):
            weigh_all(only_label, n_bins=5, relief_k=1)
