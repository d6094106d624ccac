"""Acceptance gates: ten release criteria, one test per criterion.

Each test enforces a numeric tolerance and a wall-clock budget. The fixed
9x6 rank matrix and the two per-classifier metric tables below are recorded
reference values that the aggregation and delta arithmetic must reproduce;
the remaining gates check recovery of planted synthetic ground truth and
agreement with the independent oracle implementations in oracles.py.

Expected ablation magnitudes were pre-established by a ten-seed Monte-Carlo
of the exact protocol under test: with a planted group effect of 1.5 the
classifier-averaged delta AUC is +0.130 +/- 0.008 (worst seed +0.115) and
the delta accuracy is +11.8 +/- 1.0 points (worst seed +9.8); with no effect
every seed lands within |delta AUC| <= 0.0051.
"""

import random
import time
from contextlib import contextmanager

import pytest

import featrank as fr
from featrank.classifiers import ClassifierSpec, default_specs
from featrank.cli import main as cli_main
from featrank.dataio import stratified_folds
from featrank.evaluation import (
    EvalReport,
    AblationReport,
    Metrics,
    ablation,
    auc,
    compute_metrics,
    cross_validate,
)
from featrank.seeding import derive_seed
from featrank.smote import SmoteConfig, smote
from featrank.synth import (
    DEFAULT_GROUP_WEIGHTS,
    SynthSpec,
    _nine_attribute_features,
    _normalized,
)
from featrank.weighting import (
    ALGORITHMS,
    BinEdges,
    aggregate_ranks,
    equal_frequency_edges,
    weigh_all,
    weight_chi_squared,
    weight_gini_index,
    weight_information_gain,
    weight_relief,
    weight_rule,
    weight_uncertainty,
)
import oracles
from helpers import majority_baseline_accuracy, make_table

# Nine clinical attributes ranked by each of the six weighting algorithms
# (column order matches ALGORITHMS); aggregation must reproduce the recorded
# mean ranks and the recorded overall order.
REFERENCE_RANKS = {
    "gender": [1, 1, 2, 1, 1, 1],
    "age": [2, 2, 1, 3, 9, 2],
    "wc": [4, 3, 9, 2, 2, 3],
    "ethnicity": [3, 4, 3, 5, 3, 4],
    "smoking": [5, 5, 7, 4, 7, 5],
    "dm": [6, 6, 5, 6, 8, 6],
    "bmi": [7, 7, 8, 7, 6, 7],
    "hbp": [8, 8, 4, 8, 4, 8],
    "ldl": [9, 9, 6, 9, 5, 9],
}
REFERENCE_MEAN_RANKS = {
    "gender": 1.17,
    "age": 3.17,
    "ethnicity": 3.67,
    "wc": 3.83,
    "smoking": 5.5,
    "dm": 6.17,
    "hbp": 6.67,
    "bmi": 7.00,
    "ldl": 7.83,
}
REFERENCE_OVERALL_ORDER = [
    "gender", "age", "ethnicity", "wc", "smoking", "dm", "hbp", "bmi", "ldl",
]

# Recorded per-classifier cross-validation means, without and with the group
# attribute as a model input: (accuracy%, precision%, recall%, AUC).
RECORDED_WITHOUT = {
    "rule_induction": (72.92, 75.63, 83.55, 0.73),
    "mlp": (71.25, 72.13, 90.02, 0.75),
    "glm": (73.35, 75.26, 86.84, 0.76),
    "gbt": (72.57, 73.62, 89.82, 0.75),
    "decision_tree": (71.54, 73.26, 86.85, 0.67),
    "random_forest": (71.56, 74.28, 85.24, 0.74),
}
RECORDED_WITH = {
    "rule_induction": (77.65, 79.26, 92.38, 0.77),
    "mlp": (75.54, 76.85, 94.92, 0.79),
    "glm": (79.65, 79.42, 90.11, 0.81),
    "gbt": (75.24, 77.26, 93.85, 0.80),
    "decision_tree": (74.56, 76.25, 89.64, 0.69),
    "random_forest": (74.24, 77.23, 88.05, 0.79),
}
RECORDED_AVERAGES_WITHOUT = {"accuracy": 72.20, "precision": 74.03, "recall": 87.05, "auc": 0.73}
RECORDED_AVERAGES_WITH = {"accuracy": 76.15, "precision": 77.71, "recall": 91.49, "auc": 0.77}
RECORDED_DELTAS = {"accuracy": 3.95, "precision": 3.68, "recall": 4.44, "auc": 0.04}


@contextmanager
def deadline(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"budget {seconds}s exceeded: took {elapsed:.1f}s"


def test_01_rank_aggregation_reproduces_recorded_means_and_order():
    with deadline(1.0):
        mean, overall = aggregate_ranks(REFERENCE_RANKS)
        for attr, expected in REFERENCE_MEAN_RANKS.items():
            assert abs(mean[attr] - expected) <= 0.005, f"{attr}: {mean[attr]} vs {expected}"
        for position, attr in enumerate(REFERENCE_OVERALL_ORDER, start=1):
            assert overall[attr] == position, f"{attr}: rank {overall[attr]} vs {position}"


def test_02_metric_averaging_reproduces_recorded_summary_columns():
    with deadline(1.0):
        kinds = list(RECORDED_WITHOUT)
        zero = {k: Metrics(0, 0, 0, 0) for k in kinds}
        without = EvalReport.from_stats(
            kinds, {k: Metrics(*v) for k, v in RECORDED_WITHOUT.items()}, zero, {}
        )
        with_ = EvalReport.from_stats(
            kinds, {k: Metrics(*v) for k, v in RECORDED_WITH.items()}, zero, {}
        )
        report = AblationReport.build(with_, without)
        for name, expected in RECORDED_AVERAGES_WITHOUT.items():
            assert abs(without.average.get(name) - expected) <= 0.01
        for name, expected in RECORDED_AVERAGES_WITH.items():
            assert abs(with_.average.get(name) - expected) <= 0.01
        for name, expected in RECORDED_DELTAS.items():
            assert abs(report.delta.get(name) - expected) <= 0.01


def test_03_contingency_weighters_match_brute_force_oracles():
    with deadline(5.0):
        rng = random.Random(13)
        for _ in range(12):
            n = rng.randrange(8, 21)
            symbols = [rng.choice("abc") for _ in range(n)]
            labels = [rng.randrange(2) for _ in range(n)]
            if len(set(labels)) < 2:
                labels[0] = 1 - labels[0]
            t = make_table({"f": symbols}, labels)
            pairs = [
                (weight_information_gain, oracles.oracle_information_gain),
                (weight_gini_index, oracles.oracle_gini_reduction),
                (weight_uncertainty, oracles.oracle_uncertainty),
                (weight_chi_squared, oracles.oracle_chi_squared),
                (weight_rule, oracles.oracle_rule_accuracy),
            ]
            for produce, oracle in pairs:
                assert abs(produce(t, "f") - oracle(symbols, labels)) < 1e-9

        # a perfectly aligned 10/10 two-by-two table
        t = make_table({"f": ["a"] * 10 + ["b"] * 10}, [1] * 10 + [0] * 10)
        assert weight_chi_squared(t, "f") == 20.0

        # constant attributes carry no signal for any of the six weighters
        labels = [1] * 9 + [0] * 5
        t = make_table({"f": ["k"] * 14, "x": [2.5] * 14}, labels)
        bins = equal_frequency_edges("x", t.column("x"), 10)
        assert weight_information_gain(t, "f") == 0.0
        assert weight_gini_index(t, "f") == 0.0
        assert weight_uncertainty(t, "f") == 0.0
        assert weight_chi_squared(t, "f") == 0.0
        assert weight_rule(t, "f") == 9 / 14  # falls back to the majority prior
        assert weight_information_gain(t, "x", bins) == 0.0
        relief = weight_relief(t, k_neighbors=2)
        assert relief["f"] == 0.0 and relief["x"] == 0.0


def test_04_relief_matches_exhaustive_reference():
    with deadline(10.0):
        rng = random.Random(21)
        for n, k in ((30, 1), (60, 3), (100, 5)):
            num = [rng.gauss(0, 1) for _ in range(n)]
            cat = [rng.choice("uvw") for _ in range(n)]
            labels = [rng.randrange(2) for _ in range(n)]
            while min(sum(labels), n - sum(labels)) < k + 1:
                labels[rng.randrange(n)] ^= 1
            t = make_table({"num": num, "cat": cat}, labels)
            produced = weight_relief(t, k_neighbors=k)
            expected = oracles.oracle_relief(
                [("num", "numeric", num), ("cat", "categorical", cat)], labels, k
            )
            for name in ("num", "cat"):
                assert abs(produced[name] - expected[name]) < 1e-9

        # the label's own copy on two separated clusters is maximally relevant
        labels = [1] * 10 + [0] * 10
        copy = [float(y) for y in labels]
        spread = [y * 10.0 + i * 0.01 for i, y in enumerate(labels)]
        t = make_table({"copy": copy, "spread": spread}, labels)
        assert abs(weight_relief(t, k_neighbors=1)["copy"] - 1.0) < 1e-9

        # an independent noise feature stays near zero at n=1000
        rng = random.Random(22)
        n = 1000
        labels = [rng.randrange(2) for _ in range(n)]
        t = make_table(
            {"signal": [y * 2.0 + rng.gauss(0, 0.5) for y in labels],
             "noise": [rng.gauss(0, 1) for _ in range(n)]},
            labels,
        )
        assert abs(weight_relief(t, k_neighbors=10)["noise"]) < 0.05


def test_05_smote_counts_convexity_determinism_and_fold_isolation():
    with deadline(5.0):
        rng = random.Random(31)
        n_min, n_maj = 12, 28
        labels = [1] * n_min + [0] * n_maj
        t = make_table(
            {"a": [y * 2 + rng.gauss(0, 1) for y in labels],
             "b": [rng.gauss(0, 3) for _ in labels],
             "c": [rng.choice("pq") for _ in labels]},
            labels,
        )
        cfg = SmoteConfig(k_neighbors=3, target_ratio=1.0, seed=5)
        out = smote(t, cfg)
        assert out.n_rows == n_maj * 2  # exact balance
        assert sum(out.label01()) == n_maj
        ai, bi = out.col_index("a"), out.col_index("b")
        for (anchor, neighbor), row in zip(out.smote_pairs, out.rows[t.n_rows :]):
            for j in (ai, bi):
                lo = min(t.rows[anchor][j], t.rows[neighbor][j])
                hi = max(t.rows[anchor][j], t.rows[neighbor][j])
                assert lo - 1e-12 <= row[j] <= hi + 1e-12
        assert smote(t, cfg).rows == out.rows  # seed-determinism, byte for byte

        # a partial target ratio lands exactly on the ceiling of ratio * majority
        partial = smote(t, SmoteConfig(k_neighbors=3, target_ratio=0.6, seed=5))
        assert sum(partial.label01()) == -(-6 * n_maj // 10)

        # inside cross-validation no test row may seed a synthetic one
        plan = stratified_folds(t, 4, seed=3)
        result = cross_validate(t, ClassifierSpec(kind="decision_tree"), plan, smote_cfg=cfg)
        for audit in result.audits:
            sources = set(audit.smote_source_indices)
            assert sources and not sources & set(audit.test_indices)


def test_06_rank_auc_equals_pair_counting():
    with deadline(5.0):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randrange(5, 201)
            labels = [rng.randrange(2) for _ in range(n)]
            if len(set(labels)) < 2:
                labels[0] = 1 - labels[0]
            scores = [rng.choice((0.1, 0.25, 0.5, 0.75, 0.9)) for _ in range(n)]
            assert auc(scores, labels) == oracles.oracle_auc(scores, labels)
        assert auc([0.3] * 20, [1, 0] * 10) == 0.50


def test_07_all_classifiers_clear_floor_on_separable_cohort():
    with deadline(120.0):
        table = fr.generate(fr.planted_separable_spec(n_rows=2000, seed=0))
        idx = list(range(table.n_rows))
        random.Random(0).shuffle(idx)
        cut = int(table.n_rows * 0.7)
        train, test = table.take(idx[:cut]), table.take(idx[cut:])
        baseline = majority_baseline_accuracy(test.label01())
        for spec in default_specs(seed=0):
            model = fr.fit(spec, train)
            m = compute_metrics(fr.predict_scores(model, test), test.label01())
            assert m.auc >= 0.85, f"{spec.kind}: held-out AUC {m.auc:.4f}"
            assert m.accuracy > baseline, f"{spec.kind}: accuracy {m.accuracy:.4f} vs {baseline:.4f}"
        err = fr.mlp_gradient_check(
            ClassifierSpec(kind="mlp", seed=2), table.take(idx[:30]), epsilon=1e-5
        )
        assert err < 1e-4


def test_08_group_ablation_recovers_planted_effect_and_null():
    with deadline(600.0):
        def run(effect):
            spec = fr.planted_ablation_spec(effect=effect, n_rows=5000, seed=0)
            table = fr.generate(spec)
            plan = stratified_folds(table, 10, seed=derive_seed(0, "folds"))
            cfg = SmoteConfig(k_neighbors=5, target_ratio=1.0, seed=derive_seed(0, "smote"))
            return ablation(table, "ethnicity", default_specs(seed=0), plan, cfg).delta

        planted = run(1.5)
        assert planted.auc >= 0.02, f"delta AUC {planted.auc:+.4f}"
        assert planted.accuracy >= 0.01, f"delta accuracy {planted.accuracy * 100:+.2f} points"
        null = run(0.0)
        assert abs(null.auc) < 0.01, f"null delta AUC {null.auc:+.4f}"


def test_09_group_attribute_ranks_high_only_when_planted():
    with deadline(60.0):
        table = fr.generate(fr.planted_ablation_spec(effect=1.5, n_rows=5000, seed=0))
        matrix = weigh_all(table, n_bins=10, relief_k=10)
        assert matrix.overall_rank["ethnicity"] <= 3

        null_spec = SynthSpec(
            n_rows=5000,
            group_column="ethnicity",
            group_distribution=_normalized(DEFAULT_GROUP_WEIGHTS),
            features=_nine_attribute_features(),
            coefficients={},
            noise_sd=1.0,
            prevalence=0.64,
            seed=1,
        )
        null = fr.generate(null_spec)
        for name in null.feature_names():
            bins = None
            if null.column_schema(name).kind == "numeric":
                bins = equal_frequency_edges(name, null.column(name), 10)
            assert weight_uncertainty(null, name, bins) <= 0.02, name


def test_10_repeated_ablation_runs_are_byte_identical(tmp_path):
    # the (classifier, fold, arm) fits run on several processes, whose metrics
    # are gathered in task order, so scheduling cannot perturb results, and
    # two full runs must agree byte for byte
    cohort = tmp_path / "cohort"
    assert cli_main(["synth", "--rows", "400", "--seed", "4", "--out", str(cohort)]) == 0
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        code = cli_main([
            "ablate",
            "--data", str(cohort / "cohort.csv"),
            "--schema", str(cohort / "schema.json"),
            "--out", str(out),
            "--feature", "ethnicity",
            "--folds", "5",
            "--seed", "17",
        ])
        assert code == 0
    for stem in ("with", "without", "delta"):
        a = (outs[0] / f"{stem}.csv").read_bytes()
        b = (outs[1] / f"{stem}.csv").read_bytes()
        assert a == b, f"{stem}.csv differs between runs"
