"""Six classifier kinds behind the shared fit/predict/serialize interface."""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import featrank as fr
from featrank.classifiers import CLASSIFIERS, ClassifierSpec, default_specs
from featrank.classifiers.mlp import Mlp, _grads, _loss
from featrank.classifiers import trees
from featrank.classifiers.trees import (
    DecisionTree,
    GradientBoostedTrees,
    RandomForest,
    _CodedMatrix,
    _SortedScan,
    _sigmoid,
)
from helpers import make_table
from oracles import (
    oracle_best_split,
    oracle_decision_tree,
    oracle_gbt,
    oracle_mlp,
    oracle_random_forest,
    oracle_tree_apply,
)


def toy_table(n=60, seed=0, with_cat=True):
    """Noisy linear signal plus an irrelevant categorical."""
    rng = random.Random(seed)
    labels = [rng.randrange(2) for _ in range(n)]
    while min(sum(labels), n - sum(labels)) < max(10, n // 5):
        labels[rng.randrange(n)] ^= 1
    cols = {
        "signal": [y * 2.0 + rng.gauss(0, 0.6) for y in labels],
        "noise": [rng.gauss(0, 1) for _ in range(n)],
    }
    if with_cat:
        cols["cat"] = [rng.choice("pqr") for _ in range(n)]
    return make_table(cols, labels)


class TestClassifierSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown classifier kind"):
            ClassifierSpec(kind="svm")

    def test_unknown_hyperparameter(self):
        with pytest.raises(ValueError, match="does not accept"):
            ClassifierSpec(kind="glm", hyperparameters={"depth": 3})

    def test_range_validation(self):
        with pytest.raises(ValueError, match="positive integer"):
            ClassifierSpec(kind="mlp", hyperparameters={"epochs": 0})
        with pytest.raises(ValueError, match="shrinkage"):
            ClassifierSpec(kind="gbt", hyperparameters={"shrinkage": 1.5})
        with pytest.raises(ValueError, match="l2"):
            ClassifierSpec(kind="glm", hyperparameters={"l2": -0.1})
        with pytest.raises(ValueError, match="positive"):
            ClassifierSpec(kind="mlp", hyperparameters={"learning_rate": 0.0})
        for kind, key, value in [
            ("mlp", "epochs", True),
            ("random_forest", "n_trees", 2.0),
            ("glm", "l2", float("nan")),
            ("glm", "tol", float("inf")),
            ("gbt", "shrinkage", False),
            ("mlp", "learning_rate", "0.1"),
            ("glm", "l2", None),
        ]:
            with pytest.raises(ValueError, match=key):
                ClassifierSpec(kind=kind, hyperparameters={key: value})

    def test_params_merge_defaults(self):
        spec = ClassifierSpec(kind="gbt", hyperparameters={"n_rounds": 10})
        params = spec.params()
        assert params["n_rounds"] == 10
        assert params["shrinkage"] == 0.1

    def test_default_specs_cover_all_kinds_in_order(self):
        specs = default_specs(seed=4)
        assert tuple(s.kind for s in specs) == CLASSIFIERS
        assert len({s.seed for s in specs}) == len(specs)


class TestFitValidation:
    def test_too_few_rows(self):
        t = make_table({"x": [1.0, 2.0, 3.0, 4.0]}, [1, 0, 1, 0])
        with pytest.raises(ValueError, match="at least 10 rows"):
            fr.fit(ClassifierSpec(kind="glm"), t)

    def test_single_class(self):
        t = make_table({"x": [float(i) for i in range(12)]}, [1] * 12)
        with pytest.raises(ValueError, match="single class"):
            fr.fit(ClassifierSpec(kind="glm"), t)

    def test_unknown_feature_mask(self):
        t = toy_table()
        with pytest.raises(ValueError, match="unknown feature"):
            fr.fit(ClassifierSpec(kind="glm"), t, features=["signal", "ghost"])

    def test_empty_feature_mask(self):
        t = toy_table()
        with pytest.raises(ValueError, match="no feature columns"):
            fr.fit(ClassifierSpec(kind="glm"), t, features=[])

    @pytest.mark.parametrize("kind", CLASSIFIERS)
    def test_features_are_taken_in_schema_order(self, kind):
        # a fit names its columns in schema order, whatever order the caller lists them in
        t = toy_table()
        spec = ClassifierSpec(kind=kind, seed=3)
        listed = fr.fit(spec, t, features=t.feature_names()[::-1])
        assert fr.model_to_json(listed) == fr.model_to_json(fr.fit(spec, t))


@pytest.mark.parametrize("kind", CLASSIFIERS)
class TestEveryKind:
    def spec(self, kind):
        fast = {
            "random_forest": {"n_trees": 20},
            "gbt": {"n_rounds": 30},
            "mlp": {"epochs": 60},
        }
        return ClassifierSpec(kind=kind, hyperparameters=fast.get(kind, {}), seed=7)

    def test_scores_in_unit_interval_and_beat_majority(self, kind):
        t = toy_table(n=80, seed=1)
        model = fr.fit(self.spec(kind), t)
        scores = fr.predict_scores(model, t)
        assert all(0.0 <= s <= 1.0 for s in scores)
        y = t.label01()
        acc = sum((s >= 0.5) == bool(v) for s, v in zip(scores, y)) / len(y)
        majority = max(sum(y), len(y) - sum(y)) / len(y)
        assert acc > majority

    def test_deterministic_given_spec(self, kind):
        t = toy_table(n=60, seed=2)
        probe = toy_table(n=30, seed=3)
        a = fr.predict_scores(fr.fit(self.spec(kind), t), probe)
        b = fr.predict_scores(fr.fit(self.spec(kind), t), probe)
        assert a == b

    def test_row_order_invariance(self, kind):
        t = toy_table(n=60, seed=4)
        shuffled_idx = list(range(t.n_rows))
        random.Random(99).shuffle(shuffled_idx)
        shuffled = t.take(shuffled_idx)
        probe = toy_table(n=25, seed=5)
        a = fr.predict_scores(fr.fit(self.spec(kind), t), probe)
        b = fr.predict_scores(fr.fit(self.spec(kind), shuffled), probe)
        assert a == b

    def test_json_round_trip_preserves_scores(self, kind):
        t = toy_table(n=60, seed=6)
        probe = toy_table(n=25, seed=7)
        model = fr.fit(self.spec(kind), t)
        back = fr.model_from_json(fr.model_to_json(model))
        assert fr.predict_scores(model, probe) == fr.predict_scores(back, probe)

    def test_unseen_categorical_value_still_scores(self, kind):
        t = toy_table(n=60, seed=8)
        model = fr.fit(self.spec(kind), t)
        score = fr.predict(model, {"signal": 1.0, "noise": 0.0, "cat": "never-seen"})
        assert 0.0 <= score <= 1.0

    def test_predict_validates_row(self, kind):
        t = toy_table(n=60, seed=9)
        model = fr.fit(self.spec(kind), t)
        with pytest.raises(ValueError, match="missing feature"):
            fr.predict(model, {"signal": 1.0, "noise": 0.0})
        with pytest.raises(ValueError, match="finite number"):
            fr.predict(model, {"signal": float("nan"), "noise": 0.0, "cat": "p"})
        with pytest.raises(ValueError, match="string value"):
            fr.predict(model, {"signal": 1.0, "noise": 0.0, "cat": 3})


class TestKindSpecifics:
    def test_decision_tree_separable_training_accuracy_one(self):
        xs = [float(i) for i in range(-25, 25)]
        t = make_table({"x": xs}, [1 if x >= 0 else 0 for x in xs])
        model = fr.fit(ClassifierSpec(kind="decision_tree"), t)
        scores = fr.predict_scores(model, t)
        y = t.label01()
        assert all((s >= 0.5) == bool(v) for s, v in zip(scores, y))

    def test_glm_separable_training_auc_one(self):
        rng = random.Random(10)
        n = 40
        labels = [i % 2 for i in range(n)]
        t = make_table(
            {"a": [3.0 * y + rng.random() for y in labels],
             "b": [-2.0 * y + rng.random() for y in labels]},
            labels,
        )
        model = fr.fit(ClassifierSpec(kind="glm"), t)
        assert fr.auc(fr.predict_scores(model, t), t.label01()) == 1.0

    def test_rule_model_with_no_rules_scores_prior(self):
        # constant features cannot beat the prior, so only the default fires
        labels = [1] * 13 + [0] * 7
        t = make_table({"c": ["same"] * 20, "x": [5.0] * 20}, labels)
        model = fr.fit(ClassifierSpec(kind="rule_induction"), t)
        assert model.inner.rules == []
        assert fr.predict_scores(model, t) == [0.65] * 20

    def test_random_forest_score_is_vote_fraction(self):
        t = toy_table(n=60, seed=11)
        spec = ClassifierSpec(kind="random_forest", hyperparameters={"n_trees": 10}, seed=3)
        scores = fr.predict_scores(fr.fit(spec, t), t)
        for s in scores:
            assert abs(s * 10 - round(s * 10)) < 1e-9

    def test_gbt_scores_strictly_inside_unit_interval(self):
        t = toy_table(n=60, seed=12)
        spec = ClassifierSpec(kind="gbt", hyperparameters={"n_rounds": 20}, seed=0)
        for s in fr.predict_scores(fr.fit(spec, t), t):
            assert 0.0 < s < 1.0

    def test_gbt_training_loss_non_increasing(self):
        t = toy_table(n=80, seed=13)
        spec = ClassifierSpec(kind="gbt", hyperparameters={"n_rounds": 40}, seed=0)
        model = fr.fit(spec, t)
        inner = model.inner
        # replay boosting on the canonically sorted training matrix: rows by
        # their feature cells in column order, then by label
        feats = model.features
        cells = [tuple(row[t.col_index(f)] for f in feats) for row in t.rows]
        y01 = t.label01()
        order = sorted(range(len(cells)), key=lambda i: (cells[i], y01[i]))
        x_mat = model.encoder.transform([(data[order], cats) for data, cats in map(t.encoded, feats)])
        y = np.asarray([y01[i] for i in order], dtype=float)
        raw = np.full(len(y), inner.prior_log_odds)
        losses = []
        for root in inner.roots.tolist():
            p = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
            losses.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
            raw = raw + inner.shrinkage * oracle_tree_apply(root, x_mat)
        p = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
        losses.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-12

    def test_one_hot_width_tracks_category_count(self):
        t = toy_table(n=60, seed=14)  # cat has 3 observed values
        with_cat = fr.fit(ClassifierSpec(kind="glm"), t)
        without_cat = fr.fit(ClassifierSpec(kind="glm"), t, features=["signal", "noise"])
        width_with = len(with_cat.encoder.expanded_names)
        width_without = len(without_cat.encoder.expanded_names)
        assert width_with - width_without == 3

    def test_glm_scores_invariant_to_feature_scaling(self):
        t = toy_table(n=60, seed=15, with_cat=False)
        scaled = make_table(
            {"signal": [v * 1000.0 for v in t.column("signal")], "noise": t.column("noise")},
            t.label01(),
        )
        a = fr.predict_scores(fr.fit(ClassifierSpec(kind="glm"), t), t)
        b = fr.predict_scores(fr.fit(ClassifierSpec(kind="glm"), scaled), scaled)
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-6


def tie_heavy_matrix(rng, n):
    """One-hot 0/1 columns (two of them exact complements) and rounded numerics."""
    onehot = (rng.random(n) < 0.35).astype(float)
    return np.column_stack([
        onehot,
        np.round(rng.normal(size=n), 1),
        1.0 - onehot,
        (rng.random(n) < 0.5).astype(float),
        np.round(rng.normal(size=n) * 3.0),
        rng.normal(size=n),
    ])


def assert_splits_match_oracle(node, x_mat, t, idx, min_leaf, features) -> int:
    """Check every internal node's split against the oracle; return the node count."""
    if "v" in node:
        return 0
    assert (node["f"], node["t"]) == oracle_best_split(x_mat, idx, t, min_leaf, features)
    left = x_mat[idx, node["f"]] <= node["t"]
    return (
        1
        + assert_splits_match_oracle(node["l"], x_mat, t, idx[left], min_leaf, features)
        + assert_splits_match_oracle(node["r"], x_mat, t, idx[~left], min_leaf, features)
    )


def sorted_split(x_mat, idx, t, min_leaf, features):
    """The sorted scan's split of the rows `idx` over `features`: the root split
    of those rows and columns gathered into a matrix of their own."""
    features = np.asarray(features)
    scan = _SortedScan(x_mat[np.ix_(idx, features)], min_leaf)
    split = scan.split(scan.root, t[idx])
    return split and (int(features[split[0]]), split[1])


class TestSplitSearch:
    """The coded all-features scan picks exactly the split of the per-feature oracle."""

    @pytest.mark.parametrize("min_leaf", range(0, 9))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle(self, min_leaf, seed):
        rng = np.random.default_rng(seed)
        n = 150
        x_mat = tie_heavy_matrix(rng, n)
        p = x_mat.shape[1]
        y01 = (rng.random(n) < 0.4 + 0.3 * x_mat[:, 0]).astype(float)
        residual = y01 - np.round(rng.random(n), 2)  # GBT-style float targets with ties
        bootstrap = rng.integers(0, n, n)  # duplicates, not ascending
        cases = [
            (np.arange(n), y01, np.arange(p)),
            (np.arange(n), residual, np.arange(p)),
            (bootstrap, y01, np.arange(p)),
            (bootstrap, residual, np.asarray([0, 2, 4])),
            (rng.permutation(n)[:45], residual, np.asarray([1, 2, 5])),
            (bootstrap[:30], y01, np.asarray([2])),
        ]
        found = 0
        for idx, t, features in cases:
            got = sorted_split(x_mat, idx, t, min_leaf, features)
            assert got == oracle_best_split(x_mat, idx, t, min_leaf, features)
            found += got is not None
        assert found >= 3

    def test_complement_columns_tie_toward_earlier_feature(self):
        rng = np.random.default_rng(5)
        x_mat = tie_heavy_matrix(rng, 80)
        t = x_mat[:, 0].copy()  # columns 0 and 2 give the same perfect split
        split = sorted_split(x_mat, np.arange(80), t, 1, np.arange(6))
        assert split == (0, 0.5)
        assert sorted_split(x_mat, np.arange(80), t, 1, np.arange(2, 6)) == (2, 0.5)

    @pytest.mark.parametrize("min_leaf", [1, 3, 8])
    def test_decision_tree_splits_match_oracle(self, min_leaf):
        rng = np.random.default_rng(min_leaf)
        x_mat = tie_heavy_matrix(rng, 200)
        t = (rng.random(200) < 0.3 + 0.4 * x_mat[:, 3]).astype(float)
        tree = DecisionTree(max_depth=6, min_leaf=min_leaf).fit(x_mat, t)
        nodes = assert_splits_match_oracle(
            tree.root.tolist(), x_mat, t, np.arange(200), min_leaf, range(x_mat.shape[1])
        )
        assert nodes >= 5

    def test_codes_wider_than_int16(self):
        # more distinct values than int16 holds; wrapped codes would sort the
        # largest values first and corrupt every split without an error
        n = 2**15 + 700
        rng = np.random.default_rng(0)
        rank = rng.permutation(n)
        x_mat = (rank / 7.0)[:, None]
        t = ((rank >= n - 500) ^ (rank % 97 == 0)).astype(float)
        assert _CodedMatrix(x_mat).codes.max() == n - 1
        tree = DecisionTree(max_depth=2, min_leaf=5).fit(x_mat, t)
        assert assert_splits_match_oracle(tree.root.tolist(), x_mat, t, np.arange(n), 5, [0]) == 3


# BLOCK_CELLS for the random forest's count path: every node is counted
# alone; all nodes of a step are counted together; the default.
BLOCKS = {"counted_alone": 1, "counted_together": 10**9}


@pytest.fixture(params=[*BLOCKS, "default"])
def blocks(request, monkeypatch):
    if request.param in BLOCKS:
        monkeypatch.setattr(trees, "BLOCK_CELLS", BLOCKS[request.param])
    return request.param


def tie_heavy_case(seed, n):
    rng = np.random.default_rng(seed)
    x_mat = tie_heavy_matrix(rng, n)
    y = (rng.random(n) < 0.25 + 0.5 * x_mat[:, 3] * (x_mat[:, 1] > 0)).astype(float)
    return x_mat, y


class TestGrowerMatchesReference:
    """Every tree learner grows exactly the recursive reference grower's trees."""

    @pytest.mark.parametrize("min_leaf", range(0, 9))
    def test_decision_tree(self, min_leaf):
        for seed, n in ((0, 60), (1, 150)):
            x_mat, y = tie_heavy_case(seed, n)
            for max_depth in (1, 2, 5, 12):
                tree = DecisionTree(max_depth=max_depth, min_leaf=min_leaf).fit(x_mat, y)
                assert tree.root.tolist() == oracle_decision_tree(x_mat, y, max_depth, min_leaf)

    @pytest.mark.parametrize(
        "n_trees, max_depth, min_leaf", [(1, 12, 0), (7, 3, 1), (7, 12, 8), (100, 8, 5)]
    )
    def test_random_forest(self, blocks, n_trees, max_depth, min_leaf):
        # bootstrap samples repeat rows, and the forest's nodes split in lockstep
        x_mat, y = tie_heavy_case(n_trees, 120)
        forest = RandomForest(n_trees, max_depth, min_leaf).fit(x_mat, y, seed=11)
        assert forest.roots.tolist() == oracle_random_forest(x_mat, y, n_trees, max_depth, min_leaf, 11)

    @pytest.mark.parametrize("max_depth, min_leaf", [(1, 0), (3, 5), (6, 2)])
    def test_gbt(self, max_depth, min_leaf):
        x_mat, y = tie_heavy_case(max_depth, 100)
        gbt = GradientBoostedTrees(8, max_depth, min_leaf, 0.3).fit(x_mat, y)
        prior, roots = oracle_gbt(x_mat, y, 8, max_depth, min_leaf, 0.3)
        assert (gbt.prior_log_odds, gbt.roots.tolist()) == (prior, roots)

    def test_codes_wider_than_int16(self, blocks):
        n = 2**15 + 700
        rng = np.random.default_rng(1)
        rank = rng.permutation(n)
        onehot = (rng.random(n) < 0.5).astype(float)
        x_mat = np.column_stack([onehot, rank / 7.0])
        y = ((rank >= n - 900) ^ (rank % 97 == 0) ^ (onehot * (rank % 5 == 0) > 0)).astype(float)
        tree = DecisionTree(max_depth=3, min_leaf=5).fit(x_mat, y)
        assert tree.root.tolist() == oracle_decision_tree(x_mat, y, 3, 5)
        forest = RandomForest(n_trees=2, max_depth=3, min_leaf=5).fit(x_mat, y, seed=2)
        assert forest.roots.tolist() == oracle_random_forest(x_mat, y, 2, 3, 5, 2)

    def test_threshold_rounding_onto_next_value(self, blocks):
        # (a + b) / 2 rounds up to b for these adjacent doubles, so the split
        # takes a as its threshold and the left child holds only the a rows
        a = 1.0 + np.finfo(float).eps
        b = np.nextafter(a, 2.0)
        x_mat = np.repeat([a, b, 2.0], 20)[:, None]
        y = np.repeat([1.0, 0.0, 1.0], 20)
        y[[21, 23]] = 1.0
        y[[41, 43]] = 0.0
        tree = DecisionTree(max_depth=1, min_leaf=1).fit(x_mat, y)
        assert tree.root.tolist() == oracle_decision_tree(x_mat, y, 1, 1)
        assert tree.root.tolist()["t"] == a and tree.root.tolist()["l"]["v"] == 20 / 20
        forest = RandomForest(n_trees=8, max_depth=1, min_leaf=1).fit(x_mat, y, seed=5)
        assert forest.roots.tolist() == oracle_random_forest(x_mat, y, 8, 1, 1, 5)
        assert any(root["t"] == a for root in forest.roots.tolist())

    def test_gbt_many_rounds(self):
        # 40 rounds of shrinking residuals, min_leaf 0, and columns constant
        # inside many nodes: the one-hot pair after a split on either, and a
        # numeric column clipped at 0
        x_mat, y = tie_heavy_case(4, 120)
        x_mat = np.column_stack([x_mat, np.maximum(x_mat[:, 4], 0.0)])
        gbt = GradientBoostedTrees(40, 3, 0, 0.3).fit(x_mat, y)
        prior, roots = oracle_gbt(x_mat, y, 40, 3, 0, 0.3)
        assert (gbt.prior_log_odds, gbt.roots.tolist()) == (prior, roots)
        used, stack = set(), list(roots)
        while stack:
            node = stack.pop()
            if "f" in node:
                used.add(node["f"])
                stack += (node["l"], node["r"])
        assert used == set(range(7))  # every column, the clipped one too

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])
    def test_min_leaf_near_the_row_count(self, extra):
        # the root cannot split, and at min_leaf > n it holds fewer rows than one leaf
        x_mat, y = tie_heavy_case(0, 10)
        min_leaf = len(y) + extra
        tree = DecisionTree(max_depth=3, min_leaf=min_leaf).fit(x_mat, y)
        assert tree.root.tolist() == oracle_decision_tree(x_mat, y, 3, min_leaf) == {"v": 0.5}
        gbt = GradientBoostedTrees(5, 3, min_leaf, 0.3).fit(x_mat, y)
        assert (gbt.prior_log_odds, gbt.roots.tolist()) == oracle_gbt(x_mat, y, 5, 3, min_leaf, 0.3)

    def test_targets_must_be_binary(self):
        x_mat = np.arange(20.0)[:, None]
        for y in (np.linspace(0.0, 1.0, 20), np.full(20, 2.0)):
            with pytest.raises(ValueError, match="0 or 1"):
                DecisionTree().fit(x_mat, y)
            with pytest.raises(ValueError, match="0 or 1"):
                RandomForest(n_trees=2).fit(x_mat, y)


class TestForestDraws:
    """The forest's bulk draws reproduce CPython's `random.Random` one for one."""

    @pytest.mark.parametrize("n", [1, 2, 3, 192, 255, 256, 257, 5760, 65535, 65536, 65537])
    def test_randbelow_many_is_randrange(self, n):
        for seed in range(20):
            for count in sorted({n, 1, 7, 300} if n < 5760 else {n, 11}):
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                got = trees._randbelow_many(got_rng, n, count)
                assert got.tolist() == [want_rng.randrange(n) for _ in range(count)]
                # the generator is left where the loop leaves it
                assert got_rng.random() == want_rng.random()
                assert got_rng.sample(range(21), 4) == want_rng.sample(range(21), 4)

    @pytest.mark.parametrize("n", [2**32 + 5, 3 * 2**40])
    def test_randbelow_many_above_32_bits(self, n):
        got_rng, want_rng = random.Random(n), random.Random(n)
        got = trees._randbelow_many(got_rng, n, 6)
        assert got.tolist() == [want_rng.randrange(n) for _ in range(6)]
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("p", range(1, 41))
    def test_feature_sampler_is_sorted_sample(self, p):
        m = math.isqrt(p)
        got_rng, want_rng = random.Random(p), random.Random(p)
        sample = trees._feature_sampler(got_rng, p, m)
        for _ in range(50):
            assert sample() == sorted(want_rng.sample(range(p), m))
        assert got_rng.random() == want_rng.random()


def test_random_forest_memory_stays_bounded():
    # the size of one test_08 fold after SMOTE: 4 continuous and 17 one-hot
    # columns. The recursive grower peaked at 7.3 MB here, most of it the
    # fitted trees; holding every tree's bootstrap and every pending node's
    # rows as int64 at once peaked at 13.2 MB.
    n = 5760
    rng = np.random.default_rng(0)
    numeric = rng.normal(size=(n, 4))
    onehots = [np.eye(k)[rng.integers(0, k, n)] for k in (5, 4, 4, 4)]
    x_mat = np.column_stack([numeric, *onehots])
    score = numeric[:, 0] - 0.5 * numeric[:, 1] + onehots[0][:, 1] + rng.normal(size=n)
    y = (score > np.median(score)).astype(float)
    tracemalloc.start()
    try:
        RandomForest().fit(x_mat, y, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def oracle_scores(inner, x_mat):
    """A tree model's scores from walking each nested tree on its own, adding
    the trees' terms in tree order."""
    if isinstance(inner, DecisionTree):
        return oracle_tree_apply(inner.root.tolist(), x_mat)
    if isinstance(inner, RandomForest):
        votes = np.zeros(len(x_mat))
        for root in inner.roots.tolist():
            votes += oracle_tree_apply(root, x_mat) >= 0.5
        return votes / len(inner.roots)
    raw = np.full(len(x_mat), inner.prior_log_odds)
    for root in inner.roots.tolist():
        raw += inner.shrinkage * oracle_tree_apply(root, x_mat)
    return 1.0 / (1.0 + np.exp(-np.clip(raw, -36.0, 36.0)))


def probe_rows(roots, width, rng, n):
    """n random rows; for every split, some rows hold its threshold in its column."""
    x_mat = rng.normal(size=(n, width))
    stack = list(roots)
    while stack:
        node = stack.pop()
        if "v" not in node:
            x_mat[rng.random(n) < 0.2, node["f"]] = node["t"]
            stack += (node["l"], node["r"])
    return x_mat


def tree_roots(inner):
    return [inner.root.tolist()] if isinstance(inner, DecisionTree) else inner.roots.tolist()


class TestFlatScoring:
    """Scores from the flat arrays equal those of walking each nested tree."""

    # SCORE_CELLS: one row per block; a few rows per block; the default
    @pytest.mark.parametrize("cells", [1, 100, None])
    def test_fitted_models(self, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(trees, "SCORE_CELLS", cells)
        x_mat, y = tie_heavy_case(5, 150)
        rng = np.random.default_rng(cells)
        for inner in (
            DecisionTree(max_depth=8, min_leaf=1).fit(x_mat, y),
            RandomForest(30, 8, 2).fit(x_mat, y, seed=4),
            GradientBoostedTrees(40, 3, 2, 0.3).fit(x_mat, y),
        ):
            roots = tree_roots(inner)
            # more rows than one block of the default holds, for every model
            probe = probe_rows(roots, x_mat.shape[1], rng, 2500 if cells is None else 300)
            assert np.array_equal(inner.scores(probe), oracle_scores(inner, probe))
            assert np.array_equal(inner.scores(x_mat), oracle_scores(inner, x_mat))
            assert inner.scores(probe[:0]).shape == (0,)

    @pytest.mark.parametrize("kind", ["decision_tree", "random_forest", "gbt"])
    def test_loaded_models(self, kind):
        t = toy_table(n=80, seed=21)
        model = fr.fit(ClassifierSpec(kind=kind, seed=3), t)
        loaded = fr.model_from_json(json.loads(json.dumps(fr.model_to_json(model))))
        probe = probe_rows(tree_roots(loaded.inner), len(loaded.encoder.expanded_names),
                           np.random.default_rng(2), 1500)
        scores = loaded.inner.scores(probe)
        assert np.array_equal(scores, oracle_scores(loaded.inner, probe))
        assert np.array_equal(scores, model.inner.scores(probe))


def test_flat_scoring_memory_does_not_grow_with_rows():
    # a 100-tree forest scored in blocks of SCORE_CELLS (tree, row) cells: a
    # whole-table walk would hold several 100 x 20,000 arrays of 16 MB each
    x_mat, y = tie_heavy_case(6, 300)
    forest = RandomForest(n_trees=100).fit(x_mat, y, seed=1)
    peaks = []
    for n in (2_000, 20_000):
        probe = np.random.default_rng(n).normal(size=(n, x_mat.shape[1]))
        tracemalloc.start()
        try:
            forest.scores(probe)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 4e6, peaks


@pytest.mark.parametrize("n", [10, 33, 192])
@pytest.mark.parametrize("batch_size", [7, 32, 64])
def test_mlp_matches_written_out_loop(n, batch_size):
    # partial last batches, and a batch larger than the table at n = 10 and 33
    rng = np.random.default_rng(n * batch_size)
    x_mat = rng.normal(size=(n, 21))
    y = (rng.random(n) < 0.4).astype(float)
    mlp = Mlp(hidden=6, learning_rate=0.5, epochs=5, batch_size=batch_size).fit(x_mat, y, seed=n)
    want = oracle_mlp(x_mat, y, 6, 0.5, 5, batch_size, 0.1, n)
    for got, expected in zip((mlp.w1, mlp.b1, mlp.w2, mlp.b2), want):
        assert np.array_equal(got, expected)


def test_sigmoid_is_the_clipped_logistic():
    z = np.array([-np.inf, -1e308, -36.5, -36.0, -1.0, 0.0, 1.0, 36.0, 36.5, 1e308, np.inf, np.nan])
    want = 1.0 / (1.0 + np.exp(-np.clip(z, -36.0, 36.0)))
    assert np.array_equal(_sigmoid(z), want, equal_nan=True)
    assert np.isnan(_sigmoid(z)[-1]) and _sigmoid(z)[-2] < 1.0


class TestGradientCheck:
    def test_small_net_matches_finite_differences(self):
        t = toy_table(n=30, seed=16)
        spec = ClassifierSpec(kind="mlp", seed=2)
        err = fr.mlp_gradient_check(spec, t, epsilon=1e-5)
        assert err < 1e-4

    def test_epsilon_bounds(self):
        t = toy_table(n=30, seed=17)
        spec = ClassifierSpec(kind="mlp", seed=2)
        for eps in (1e-8, 1e-2):
            with pytest.raises(ValueError, match="epsilon"):
                fr.mlp_gradient_check(spec, t, epsilon=eps)

    def test_non_mlp_kind_rejected(self):
        t = toy_table(n=30, seed=18)
        with pytest.raises(ValueError, match="mlp"):
            fr.mlp_gradient_check(ClassifierSpec(kind="glm"), t, epsilon=1e-5)

    def test_output_bias_gradient_at_zero_point(self):
        # zero weights and zero inputs leave only the output bias active
        n, d, h = 8, 3, 4
        x = np.zeros((n, d))
        y = np.asarray([1.0, 0.0] * 4)
        params = [np.zeros((d, h)), np.zeros(h), np.zeros(h), 0.0]
        g_b2 = _grads(params, x, y, (np.empty((d, h)), np.empty(h), np.empty(h)))
        eps = 1e-6
        plus = _loss([params[0], params[1], params[2], eps], x, y)
        minus = _loss([params[0], params[1], params[2], -eps], x, y)
        numeric = (plus - minus) / (2 * eps)
        assert abs(g_b2 - numeric) < 1e-9
        # closed form: sigmoid(0) - mean(y) = 0.5 - 0.5 = 0
        assert g_b2 == 0.0


class TestModelJson:
    def test_format_version_enforced(self):
        t = toy_table(n=30, seed=19)
        doc = fr.model_to_json(fr.fit(ClassifierSpec(kind="glm"), t))
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            fr.model_from_json(doc)

    def test_document_keys_must_match_attributes(self):
        t = toy_table(n=30, seed=22)
        doc = fr.model_to_json(fr.fit(ClassifierSpec(kind="glm"), t))
        for part in ("model", "encoder"):
            bad_parts = [{k: v for k, v in doc[part].items() if k != key} for key in doc[part]]
            for bad in bad_parts + [doc[part] | {"bias": 1.0}]:
                with pytest.raises(ValueError, match="document"):
                    fr.model_from_json(doc | {part: bad})

    def test_malformed_document_refused(self):
        t = toy_table(n=30, seed=24)
        doc = fr.model_to_json(fr.fit(ClassifierSpec(kind="glm"), t))
        gbt = fr.model_to_json(fr.fit(ClassifierSpec(kind="gbt"), t))
        mlp = fr.model_to_json(fr.fit(ClassifierSpec(kind="mlp", hyperparameters={"epochs": 2}), t))
        rule = fr.model_to_json(fr.fit(ClassifierSpec(kind="rule_induction"), t))
        tree = fr.model_to_json(fr.fit(ClassifierSpec(kind="decision_tree"), t))
        first_rule = rule["model"]["rules"][0]
        missing = {k: v for k, v in doc.items() if k != "features"}
        model, encoder, bins = doc["model"], doc["encoder"], rule["model"]["bins"]
        for bad in (
            [doc], doc | {"model": []}, doc | {"hyperparameters": []}, doc | {"encoder": []},
            missing, doc | {"zzz": 1},
            doc | {"features": [1, 2]}, doc | {"features": ["signal", "signal"]},
            doc | {"feature_kinds": ["numeric"]},
            doc | {"feature_kinds": ["numeric", "numeric", "text"]},
            doc | {"encoder": doc["encoder"] | {"names": 5}},
            doc | {"encoder": doc["encoder"] | {"kinds": doc["feature_kinds"][::-1]}},
            doc | {"model": doc["model"] | {"coef": "x"}},
            doc | {"encoder": doc["encoder"] | {"categories": 5}},
            gbt | {"hyperparameters": {"shrinkage": 0.5}},
            gbt | {"model": gbt["model"] | {"max_depth": "x"}},
            rule | {"model": rule["model"] | {"names": rule["features"][::-1]}},
            rule | {"model": rule["model"] | {"bins": bins | {"age": bins["signal"]}}},
            rule | {"model": rule["model"] | {"bins": {"signal": bins["signal"]}}},
            rule | {"encoder": encoder}, doc | {"encoder": None},
            doc | {"encoder": encoder | {"categories": {}}},
            doc | {"model": model | {"coef": model["coef"][:3]}},
            mlp | {"model": mlp["model"] | {"w2": mlp["model"]["w2"][:-1]}},
            mlp | {"model": mlp["model"] | {"b1": mlp["model"]["b1"][:-1]}},
            mlp | {"model": mlp["model"] | {"w1": mlp["model"]["w1"][:-1]}},
            mlp | {"model": mlp["model"] | {"w1": [row[:-1] for row in mlp["model"]["w1"]]}},
            doc | {"encoder": encoder | {"standardize": False}},
            gbt | {"encoder": gbt["encoder"] | {"standardize": True}},
            gbt | {"encoder": gbt["encoder"] | {"means": encoder["means"]}},
            doc | {"encoder": encoder | {"means": encoder["means"][:-1]}},
            doc | {"encoder": encoder | {"scales": None}},
            doc | {"encoder": encoder | {"scales": [0.0] + encoder["scales"][1:]}},
            doc | {"encoder": encoder | {"scales": [-1.0] + encoder["scales"][1:]}},
            tree | {"model": tree["model"] | {"root": {"v": 0.5, "f": 0}}},
            tree | {"model": tree["model"] | {"root": {"f": 0, "t": 0.5, "l": {"v": 1.0}, "r": {}}}},
            rule | {"model": rule["model"] | {"rules": [first_rule | {"target": 2}]}},
            rule | {"model": rule["model"] | {"rules": [first_rule | {"conditions": [[0, "x"]]}]}},
        ):
            with pytest.raises(ValueError, match="document"):
                fr.model_from_json(bad)

    def test_tree_count_must_match_the_hyperparameter(self):
        t = toy_table(n=60, seed=25)
        for kind, key, kept in (("random_forest", "n_trees", 0), ("gbt", "n_rounds", 1)):
            doc = fr.model_to_json(fr.fit(ClassifierSpec(kind=kind, hyperparameters={key: 3}), t))
            fr.model_from_json(doc)
            doc["model"]["roots"] = doc["model"]["roots"][:kept]
            with pytest.raises(ValueError, match="roots"):
                fr.model_from_json(doc)

    def test_rule_bin_edges_must_increase(self):
        t = toy_table(n=60, seed=23)
        doc = fr.model_to_json(fr.fit(ClassifierSpec(kind="rule_induction"), t))
        fr.model_from_json(doc)
        doc["model"]["bins"]["signal"] = [2.0, 1.0]
        with pytest.raises(ValueError, match="strictly increasing"):
            fr.model_from_json(doc)

    def test_saved_document_layout(self):
        doc = {
            "format_version": 1,
            "kind": "glm",
            "hyperparameters": {"l2": 0.5},
            "seed": 0,
            "features": ["x", "c"],
            "feature_kinds": ["numeric", "categorical"],
            "encoder": {
                "names": ["x", "c"],
                "kinds": ["numeric", "categorical"],
                "categories": {"c": ["a", "b"]},
                "standardize": True,
                "means": [1.0, 0.5, 0.5],
                "scales": [2.0, 0.5, 0.5],
            },
            "model": {"l2": 0.5, "tol": 1e-06, "max_iter": 500, "coef": [0.25, 2.0, 1.0, -1.0]},
        }
        model = fr.model_from_json(doc)
        z = 0.25 + 2.0 * (3.0 - 1.0) / 2.0 + 1.0 * (0.0 - 0.5) / 0.5 - 1.0 * (1.0 - 0.5) / 0.5
        assert fr.predict(model, {"x": 3.0, "c": "b"}) == pytest.approx(1 / (1 + math.exp(-z)))
        assert fr.model_to_json(model) == doc

    def test_document_is_json_serializable(self):
        import json

        t = toy_table(n=30, seed=20)
        for kind in CLASSIFIERS:
            fast = {"random_forest": {"n_trees": 5}, "gbt": {"n_rounds": 5}, "mlp": {"epochs": 5}}
            spec = ClassifierSpec(kind=kind, hyperparameters=fast.get(kind, {}), seed=1)
            doc = fr.model_to_json(fr.fit(spec, t))
            assert json.loads(json.dumps(doc)) == doc

    def test_predict_scores_rejects_kind_mismatch(self):
        t = toy_table(n=30, seed=21)
        model = fr.fit(ClassifierSpec(kind="glm"), t)
        swapped = make_table(
            {"signal": t.column("signal"), "noise": t.column("noise"),
             "cat": [1.0] * t.n_rows},  # numeric now
            t.label01(),
        )
        with pytest.raises(ValueError, match="kind mismatch"):
            fr.predict_scores(model, swapped)
