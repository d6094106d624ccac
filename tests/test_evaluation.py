"""Cross-validated metrics, ablation pairing, and per-group analyses."""

import contextlib
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import featrank as fr
import featrank.evaluation as evaluation
from featrank import classifiers, neighbors
from featrank.classifiers import ClassifierSpec
from featrank.cli import main
from featrank.dataio import FoldPlan, filter_by_group, split, stratified_folds
from featrank.evaluation import (
    METRIC_NAMES,
    EvalReport,
    Metrics,
    ablation,
    auc,
    best_classifier_per_group,
    compute_metrics,
    confusion,
    cross_validate,
    per_group_rankings,
)
from featrank.seeding import derive_seed
from featrank.smote import SmoteConfig, smote
from helpers import majority_baseline_accuracy, make_table
from oracles import holdout_metrics, oracle_auc

SRC = Path(__file__).resolve().parent.parent / "src"


@contextlib.contextmanager
def deadline(seconds: int):
    """Turn a body that runs longer than `seconds` into a TimeoutError."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_script(script: str) -> str:
    """The standard output of `script`, run by a fresh interpreter from the
    repository root with src/ on its path; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], cwd=SRC.parent, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def noisy_table(n=200, seed=0, extra=None):
    """Numeric signal plus a noise column; optionally extra literal columns."""
    rng = random.Random(seed)
    labels = [rng.randrange(2) for _ in range(n)]
    cols = {
        "signal": [y * 2.0 + rng.gauss(0, 0.8) for y in labels],
        "noise": [rng.gauss(0, 1) for _ in range(n)],
    }
    if extra:
        cols.update(extra)
    return make_table(cols, labels)


def imbalanced_table(n=120, seed=0, group=None):
    """One positive in four, so SMOTE adds rows in every fold; one categorical column."""
    rng = random.Random(seed)
    labels = [1 if i % 4 == 0 else 0 for i in range(n)]
    rng.shuffle(labels)
    cols = {
        "a": [y + rng.gauss(0, 1) for y in labels],
        "b": [rng.gauss(0, 1) for _ in range(n)],
        "c": [rng.choice("xyz") for _ in range(n)],
    }
    return make_table(cols, labels, group=group)


@pytest.fixture
def fold_calls(monkeypatch):
    """Counts of the calls evaluation makes to split and smote."""
    calls = {"split": 0, "smote": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(evaluation, name, counted(name, getattr(evaluation, name)))
    return calls


class TestConfusion:
    def test_counts(self):
        assert confusion([0.9, 0.2, 0.6, 0.4], [1, 0, 1, 0], 0.5) == (2, 0, 2, 0)
        assert confusion([0.9, 0.8, 0.1, 0.2], [0, 1, 1, 0], 0.5) == (1, 1, 1, 1)

    def test_score_equal_to_threshold_is_positive(self):
        assert confusion([0.5], [0], 0.5) == (0, 1, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            confusion([0.5], [1, 0], 0.5)

    def test_threshold_range(self):
        with pytest.raises(ValueError, match="threshold"):
            confusion([0.5], [1], 1.5)


class TestAuc:
    def test_matches_quadratic_oracle(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randrange(4, 40)
            labels = [rng.randrange(2) for _ in range(n)]
            if len(set(labels)) < 2:
                labels[0] = 1 - labels[0]
            scores = [rng.choice([0.1, 0.3, 0.5, 0.7]) for _ in range(n)]
            assert auc(scores, labels) == pytest.approx(oracle_auc(scores, labels), abs=1e-12)

    def test_all_tied_scores_half(self):
        assert auc([0.4] * 10, [1, 0] * 5) == 0.5

    def test_perfect_and_inverted(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auc([0.5, 0.6], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            auc([0.5], [1, 0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, bad):
        # A tie-run scan that compares scores with == never steps past a NaN;
        # the alarm turns such a hang into a failure.
        with deadline(10):
            with pytest.raises(ValueError, match="finite scores"):
                auc([0.2, bad, 0.7], [0, 1, 1])


class TestComputeMetrics:
    def test_perfect_scores(self):
        m = compute_metrics([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert m.as_tuple() == (1.0, 1.0, 1.0, 1.0)

    def test_zero_denominators_fall_back_to_zero(self):
        m = compute_metrics([0.1, 0.2], [1, 0])
        assert m.accuracy == 0.5
        assert m.precision == 0.0
        assert m.recall == 0.0

    def test_get_rejects_unknown_metric(self):
        m = compute_metrics([0.9, 0.1], [1, 0])
        with pytest.raises(ValueError, match="unknown metric"):
            m.get("f1")


def test_majority_baseline_accuracy():
    assert majority_baseline_accuracy([1, 1, 0]) == pytest.approx(2 / 3)
    assert majority_baseline_accuracy([0, 0, 0, 1]) == 0.75


class TestCrossValidate:
    def test_mask_validation(self):
        t = noisy_table(n=60, seed=1)
        plan = stratified_folds(t, 3, seed=0)
        with pytest.raises(ValueError, match="not a feature column"):
            cross_validate(t, ClassifierSpec(kind="glm"), plan, feature_mask=["ghost"])
        with pytest.raises(ValueError, match="selects no columns"):
            cross_validate(t, ClassifierSpec(kind="glm"), plan, feature_mask=[])

    def test_tiny_fold_rejected(self):
        t = noisy_table(n=30, seed=2)
        plan = FoldPlan(k=2, assignment=tuple([0] + [1] * 29))
        with pytest.raises(ValueError, match="fewer than 2 rows"):
            cross_validate(t, ClassifierSpec(kind="glm"), plan)

    def test_fold_partition_and_shapes(self):
        t = noisy_table(n=100, seed=3)
        plan = stratified_folds(t, 5, seed=1)
        result = cross_validate(t, ClassifierSpec(kind="decision_tree"), plan)
        assert result.kind == "decision_tree"
        assert len(result.per_fold) == 5
        assert len(result.audits) == 5
        seen = sorted(i for a in result.audits for i in a.test_indices)
        assert seen == list(range(100))
        for audit in result.audits:
            assert audit.smote_source_indices == ()

    def test_mean_and_std_aggregate_per_fold(self):
        t = noisy_table(n=100, seed=4)
        plan = stratified_folds(t, 4, seed=2)
        result = cross_validate(t, ClassifierSpec(kind="glm"), plan)
        for name in METRIC_NAMES:
            values = [m.get(name) for m in result.per_fold]
            assert result.mean.get(name) == pytest.approx(float(np.mean(values)), abs=1e-12)
            assert result.std.get(name) == pytest.approx(float(np.std(values, ddof=1)), abs=1e-12)

    def test_deterministic(self):
        t = noisy_table(n=80, seed=5)
        plan = stratified_folds(t, 4, seed=3)
        spec = ClassifierSpec(kind="random_forest", hyperparameters={"n_trees": 10}, seed=4)
        a = cross_validate(t, spec, plan)
        b = cross_validate(t, spec, plan)
        assert a == b

    def test_constant_feature_mask_equivalence(self):
        t = noisy_table(n=80, seed=6, extra={"const": [1.0] * 80})
        plan = stratified_folds(t, 4, seed=4)
        for kind in ("decision_tree", "rule_induction"):
            spec = ClassifierSpec(kind=kind, seed=1)
            full = cross_validate(t, spec, plan)
            masked = cross_validate(t, spec, plan, feature_mask=["signal", "noise"])
            assert full.per_fold == masked.per_fold

    def test_mean_auc_near_holdout_estimate(self):
        table = fr.generate(fr.planted_separable_spec(n_rows=1200, seed=3))
        plan = stratified_folds(table, 10, seed=0)
        spec = ClassifierSpec(kind="decision_tree", seed=0)
        result = cross_validate(table, spec, plan)
        _, holdout_auc = holdout_metrics(table, spec, train_frac=0.7, seed=0)
        assert abs(result.mean.auc - holdout_auc) <= 0.03

    def test_smote_sources_never_touch_test_rows(self):
        rng = random.Random(7)
        n = 200
        labels = [1] * 40 + [0] * 160
        rng.shuffle(labels)
        t = make_table(
            {"a": [y + rng.gauss(0, 1) for y in labels],
             "b": [rng.gauss(0, 1) for _ in range(n)]},
            labels,
        )
        plan = stratified_folds(t, 5, seed=5)
        cfg = SmoteConfig(k_neighbors=3, target_ratio=1.0, seed=9)
        result = cross_validate(t, ClassifierSpec(kind="decision_tree"), plan, smote_cfg=cfg)
        for audit in result.audits:
            sources = set(audit.smote_source_indices)
            assert sources
            assert not sources & set(audit.test_indices)
            assert sources <= set(range(n))
            assert all(labels[i] == 1 for i in sources)

    def test_each_fold_oversampled_with_its_own_seed(self):
        t = imbalanced_table(seed=16)
        plan = stratified_folds(t, 3, seed=3)
        cfg = SmoteConfig(k_neighbors=3, target_ratio=1.0, seed=7)
        folds = evaluation._folds(t, plan, cfg)
        for fold, (train, _, _) in enumerate(folds):
            fold_cfg = replace(cfg, seed=derive_seed(cfg.seed, "fold", fold))
            expected = smote(split(t, plan, fold)[0], fold_cfg)
            assert train.smote_pairs == expected.smote_pairs
            assert train.rows == expected.rows
        sources = [audit.smote_source_indices for _, _, audit in folds]
        assert len(set(sources)) == len(sources)

    def test_each_fold_fits_with_its_own_seed(self, monkeypatch):
        seeds = []
        original = classifiers.fit

        def recorded(spec, *args, **kwargs):
            seeds.append(spec.seed)
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(evaluation, "_cpus", lambda: 1)  # the fits run in this process
        monkeypatch.setattr(classifiers, "fit", recorded)
        t = noisy_table(n=60, seed=10)
        cross_validate(t, ClassifierSpec(kind="glm", seed=4), stratified_folds(t, 3, seed=0))
        assert seeds == [derive_seed(4, "fold", fold) for fold in range(3)]

    def test_plan_from_other_table_rejected(self):
        t = noisy_table(n=40, seed=8)
        other = noisy_table(n=60, seed=9)
        plan = stratified_folds(other, 3, seed=0)
        with pytest.raises(ValueError, match="does not match"):
            cross_validate(t, ClassifierSpec(kind="glm"), plan)


class TestEvalReport:
    def test_average_is_unweighted_mean_over_kinds(self):
        mean = {
            "glm": Metrics(0.8, 0.7, 0.9, 0.85),
            "decision_tree": Metrics(0.6, 0.5, 0.7, 0.65),
        }
        std = {k: Metrics(0, 0, 0, 0) for k in mean}
        report = EvalReport.from_stats(["glm", "decision_tree"], mean, std, {})
        assert report.average.as_tuple() == pytest.approx((0.7, 0.6, 0.8, 0.75), abs=1e-12)


class TestAblation:
    def make_specs(self):
        return [
            ClassifierSpec(kind="decision_tree", seed=1),
            ClassifierSpec(kind="glm", seed=2),
        ]

    def test_unknown_feature(self):
        t = noisy_table(n=60, seed=10)
        plan = stratified_folds(t, 3, seed=0)
        with pytest.raises(ValueError, match="not a feature column"):
            ablation(t, "ghost", self.make_specs(), plan)

    def test_cannot_ablate_only_feature(self):
        rng = random.Random(11)
        labels = [i % 2 for i in range(40)]
        t = make_table({"x": [y + rng.random() for y in labels]}, labels)
        plan = stratified_folds(t, 3, seed=0)
        with pytest.raises(ValueError, match="selects no columns"):
            ablation(t, "x", self.make_specs(), plan)

    def test_masks_and_delta_arithmetic(self):
        t = noisy_table(n=80, seed=12)
        plan = stratified_folds(t, 4, seed=1)
        report = ablation(t, "noise", self.make_specs(), plan)
        assert "noise" in report.with_report.config["features"]
        assert "noise" not in report.without_report.config["features"]
        assert report.with_report.config["folds"] == 4
        assert report.with_report.config["seeds"] == {"decision_tree": 1, "glm": 2}
        for name in METRIC_NAMES:
            expected = report.with_report.average.get(name) - report.without_report.average.get(name)
            assert report.delta.get(name) == pytest.approx(expected, abs=1e-12)

    def test_deterministic(self):
        t = noisy_table(n=80, seed=13)
        plan = stratified_folds(t, 4, seed=2)
        assert ablation(t, "noise", self.make_specs(), plan) == ablation(
            t, "noise", self.make_specs(), plan
        )

    def test_folds_built_once_for_both_arms_and_all_specs(self, fold_calls):
        t = imbalanced_table(seed=14)
        plan = stratified_folds(t, 3, seed=1)
        cfg = SmoteConfig(k_neighbors=3, target_ratio=1.0, seed=5)
        ablation(t, "b", self.make_specs(), plan, cfg)
        assert fold_calls == {"split": 3, "smote": 3}

    def test_arms_match_cross_validate_with_smote(self):
        t = imbalanced_table(seed=15)
        plan = stratified_folds(t, 3, seed=2)
        cfg = SmoteConfig(k_neighbors=3, target_ratio=1.0, seed=6)
        specs = [
            ClassifierSpec(kind="rule_induction", seed=1),
            ClassifierSpec(kind="mlp", hyperparameters={"epochs": 5}, seed=2),
            ClassifierSpec(kind="glm", seed=3),
            ClassifierSpec(kind="gbt", hyperparameters={"n_rounds": 5}, seed=4),
            ClassifierSpec(kind="decision_tree", seed=5),
            ClassifierSpec(kind="random_forest", hyperparameters={"n_trees": 5}, seed=6),
        ]
        report = ablation(t, "c", specs, plan, cfg)
        for arm in (report.with_report, report.without_report):
            for spec in specs:
                result = cross_validate(t, spec, plan, cfg, feature_mask=arm.config["features"])
                assert arm.mean[spec.kind] == result.mean
                assert arm.std[spec.kind] == result.std

    def test_duplicate_feature_ablates_to_nothing(self):
        table = fr.generate(fr.planted_separable_spec(n_rows=2000, seed=5))
        dup = make_table(
            {name: table.column(name) for name in table.feature_names()}
            | {"age_copy": table.column("age")},
            table.label01(),
        )
        plan = stratified_folds(dup, 5, seed=3)
        specs = [
            ClassifierSpec(kind="decision_tree", seed=1),
            ClassifierSpec(kind="random_forest", hyperparameters={"n_trees": 30}, seed=2),
            ClassifierSpec(kind="gbt", hyperparameters={"n_rounds": 30}, seed=3),
        ]
        report = ablation(dup, "age_copy", specs, plan)
        assert abs(report.delta.auc) <= 0.01


class TestPerGroupRankings:
    def grouped_table(self):
        rng = random.Random(20)
        n_per = 200
        cols = {"f": [], "g": [], "junk": []}
        groups = []
        labels = []
        for gname, strong in (("A", "f"), ("B", "g")):
            for _ in range(n_per):
                y = rng.randrange(2)
                labels.append(y)
                groups.append(gname)
                f = y * 2.0 + rng.gauss(0, 0.5) if strong == "f" else rng.gauss(0, 1)
                g = y * 2.0 + rng.gauss(0, 0.5) if strong == "g" else rng.gauss(0, 1)
                cols["f"].append(f)
                cols["g"].append(g)
                cols["junk"].append(rng.gauss(0, 1))
        return make_table(cols, labels, group=("cohort", groups))

    def test_requires_group_column(self):
        t = noisy_table(n=40, seed=21)
        with pytest.raises(ValueError, match="no group column"):
            per_group_rankings(t)

    def test_planted_per_group_signal_ranks_first(self):
        out = per_group_rankings(self.grouped_table(), top_n=3)
        assert out["A"][0] == "f"
        assert out["B"][0] == "g"
        for names in out.values():
            assert "cohort" not in names

    def test_small_groups_map_to_none(self):
        rng = random.Random(22)
        labels = [i % 2 for i in range(46)]
        groups = ["big"] * 40 + ["tiny"] * 6
        t = make_table(
            {"x": [y + rng.random() for y in labels], "z": [rng.random() for _ in labels]},
            labels,
            group=("cohort", groups),
        )
        out = per_group_rankings(t, top_n=2)
        assert list(out) == ["big", "tiny"] and out["tiny"] is None
        assert out["big"][0] == "x"


def threshold_strata_table():
    """Strata at the group analyses' thresholds for k=2 folds (20 rows, 2 per
    class): `edge` meets both exactly, `short` has one row too few and `thin`
    one positive too few."""
    rng = random.Random(28)
    strata = (("edge", 20, 2), ("short", 19, 9), ("thin", 20, 1))
    labels = [int(i < pos) for _, rows, pos in strata for i in range(rows)]
    groups = [name for name, rows, _ in strata for _ in range(rows)]
    return make_table(
        {"x": [y + rng.random() for y in labels], "z": [rng.random() for _ in labels]},
        labels,
        group=("cohort", groups),
    )


class TestStratumThresholds:
    def test_rankings_use_a_stratum_exactly_at_the_thresholds(self):
        out = per_group_rankings(threshold_strata_table(), top_n=2)
        assert out["edge"] is not None and out["short"] is None and out["thin"] is None

    def test_winners_use_a_stratum_exactly_at_the_thresholds(self):
        out = best_classifier_per_group(threshold_strata_table(), [ClassifierSpec(kind="glm")], k=2)
        assert out["edge"][0] == "glm" and out["short"] is None and out["thin"] is None


class TestBestClassifierPerGroup:
    def test_requires_group_column(self):
        t = noisy_table(n=40, seed=23)
        with pytest.raises(ValueError, match="no group column"):
            best_classifier_per_group(t, [ClassifierSpec(kind="glm")])

    def test_small_group_maps_to_none(self):
        rng = random.Random(24)
        labels = [i % 2 for i in range(130)]
        groups = ["big"] * 120 + ["tiny"] * 10
        t = make_table({"x": [y + rng.random() for y in labels]}, labels, group=("cohort", groups))
        out = best_classifier_per_group(t, [ClassifierSpec(kind="glm")], k=5, seed=0)
        assert list(out) == ["big", "tiny"] and out["tiny"] is None
        assert out["big"][0] == "glm"

    def test_folds_built_once_per_stratum(self, fold_calls):
        groups = ["g1"] * 100 + ["g2"] * 100 + ["tiny"] * 10
        t = imbalanced_table(n=210, seed=27, group=("cohort", groups))
        specs = [ClassifierSpec(kind="glm", seed=1), ClassifierSpec(kind="decision_tree", seed=2)]
        cfg = SmoteConfig(k_neighbors=3, target_ratio=1.0, seed=8)
        out = best_classifier_per_group(t, specs, k=4, seed=0, smote_cfg=cfg)
        assert list(out) == ["g1", "g2", "tiny"] and out["tiny"] is None
        assert {out["g1"][0], out["g2"][0]} <= {"glm", "decision_tree"}
        assert fold_calls == {"split": 8, "smote": 8}

    def test_single_group_matches_manual_evaluation(self):
        rng = random.Random(25)
        n = 140
        labels = [rng.randrange(2) for _ in range(n)]
        t = make_table(
            {"a": [y * 1.5 + rng.gauss(0, 1) for y in labels],
             "b": [rng.gauss(0, 1) for _ in range(n)]},
            labels,
            group=("cohort", ["all"] * n),
        )
        specs = [ClassifierSpec(kind="glm", seed=1), ClassifierSpec(kind="decision_tree", seed=2)]
        out = best_classifier_per_group(t, specs, k=5, seed=11)

        sub = filter_by_group(t, "all")
        plan = stratified_folds(sub, 5, derive_seed(11, "group-folds", "all"))
        best = None
        for spec in specs:
            result = cross_validate(sub, spec, plan)
            key = (-result.mean.accuracy, -result.mean.auc, spec.kind)
            if best is None or key < best[0]:
                best = (key, (spec.kind, result.mean))
        assert out["all"] == best[1]

    def test_linear_and_xor_groups_pick_matching_kinds(self):
        rng = random.Random(26)
        n_per = 260
        cols = {f"x{i}": [] for i in range(1, 7)}
        labels = []
        groups = []
        for _ in range(n_per):  # rotated linear boundary favors the glm
            xs = [rng.gauss(0, 1) for _ in range(6)]
            labels.append(1 if sum(xs) + rng.gauss(0, 0.3) > 0 else 0)
            groups.append("lin")
            for i, v in enumerate(xs, start=1):
                cols[f"x{i}"].append(v)
        for _ in range(n_per):  # axis-aligned interaction favors trees
            xs = [rng.gauss(0, 1) for _ in range(6)]
            labels.append(1 if (xs[0] > 0) != (xs[1] > 0) else 0)
            groups.append("xor")
            for i, v in enumerate(xs, start=1):
                cols[f"x{i}"].append(v)
        t = make_table(cols, labels, group=("cohort", groups))
        specs = [
            ClassifierSpec(kind="glm", seed=1),
            ClassifierSpec(kind="decision_tree", seed=2),
            ClassifierSpec(kind="gbt", hyperparameters={"n_rounds": 40}, seed=3),
        ]
        out = best_classifier_per_group(t, specs, k=5, seed=7)
        assert out["lin"][0] == "glm"
        assert out["xor"][0] in ("decision_tree", "gbt")


class TestTaskRunner:
    """The (kind, function, args) tasks give the same results on any number of
    worker processes, and leave no process or thread behind."""

    SPECS = [
        ClassifierSpec(kind="mlp", hyperparameters={"epochs": 5}, seed=1),
        ClassifierSpec(kind="glm", seed=2),
        ClassifierSpec(kind="gbt", hyperparameters={"n_rounds": 10}, seed=3),
        ClassifierSpec(kind="decision_tree", seed=4),
    ]

    @staticmethod
    def grouped():
        return imbalanced_table(n=200, seed=30, group=("cohort", ["g1"] * 120 + ["g2"] * 80))

    def run_both(self, table):
        plan = stratified_folds(table, 3, seed=1)
        cfg = SmoteConfig(k_neighbors=3, target_ratio=1.0, seed=9)
        return (
            ablation(table, "b", self.SPECS, plan, cfg),
            best_classifier_per_group(table, self.SPECS, k=3, seed=2, smote_cfg=cfg),
        )

    def test_dispatch_order_lists_every_kind_once(self):
        # `run_tasks` looks each task's kind up in it, on more than one CPU only
        assert sorted(evaluation._BY_FIT_TIME) == sorted(classifiers.CLASSIFIERS)

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_workers_give_the_results_of_one(self, monkeypatch, cpus):
        table = self.grouped()
        monkeypatch.setattr(evaluation, "_cpus", lambda: 1)
        serial = self.run_both(table)
        monkeypatch.setattr(evaluation, "_cpus", lambda: cpus)
        assert self.run_both(table) == serial
        assert_no_child()

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_cli_reports_byte_equal(self, monkeypatch, tmp_path, cpus):
        assert main(["synth", "--rows", "200", "--seed", "4", "--out", str(tmp_path / "c")]) == 0
        data = ["--data", str(tmp_path / "c" / "cohort.csv"), "--schema", str(tmp_path / "c" / "schema.json")]
        jobs = {"ablate": ["--feature", "ethnicity", "--save-model"], "groups": []}
        for count in (1, cpus):
            monkeypatch.setattr(evaluation, "_cpus", lambda: count)
            for command, extra in jobs.items():
                out = tmp_path / f"{command}-{count}"
                assert main([command, *data, "--out", str(out), "--folds", "2", *extra]) == 0

        def files(root):  # the reports, and the models under models/
            return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())

        for command in jobs:
            one, many = tmp_path / f"{command}-1", tmp_path / f"{command}-{cpus}"
            names = files(one)
            assert names == files(many) and len(names) == {"ablate": 9, "groups": 2}[command]
            for name in names:
                assert (one / name).read_bytes() == (many / name).read_bytes(), (command, name)
        assert_no_child()

    def test_task_error_reaches_caller_with_its_type(self, monkeypatch, tmp_path, capsys):
        real_fit = classifiers.fit

        def failing_fit(spec, train, features=None):
            if spec.kind == "gbt":
                raise ValueError("planted fit failure")
            return real_fit(spec, train, features=features)

        monkeypatch.setattr(classifiers, "fit", failing_fit)
        assert main(["synth", "--rows", "200", "--seed", "4", "--out", str(tmp_path / "c")]) == 0
        data = ["--data", str(tmp_path / "c" / "cohort.csv"), "--schema", str(tmp_path / "c" / "schema.json")]
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(evaluation, "_cpus", lambda: cpus)
            with pytest.raises(ValueError, match="planted fit failure"):
                self.run_both(self.grouped())
            capsys.readouterr()
            argv = ["ablate", *data, "--out", str(tmp_path / f"out{cpus}"), "--feature", "ethnicity", "--folds", "2"]
            assert main(argv) == 3
            errors.append(capsys.readouterr().err)
            assert_no_child()
        assert errors[0] == errors[1] == "compute error: ValueError: planted fit failure\n"

    def test_full_table_fit_error_exits_3_alike_on_any_cpu_count(self, monkeypatch, tmp_path, capsys):
        # Only the --save-model fits get no feature list; the cross-validated ones all do.
        real_fit = classifiers.fit

        def failing_fit(spec, train, features=None):
            if features is None and spec.kind == "mlp":
                raise ValueError("planted full-table fit failure")
            return real_fit(spec, train, features=features)

        monkeypatch.setattr(classifiers, "fit", failing_fit)
        assert main(["synth", "--rows", "200", "--seed", "4", "--out", str(tmp_path / "c")]) == 0
        data = ["--data", str(tmp_path / "c" / "cohort.csv"), "--schema", str(tmp_path / "c" / "schema.json")]
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(evaluation, "_cpus", lambda: cpus)
            capsys.readouterr()
            out = tmp_path / f"out{cpus}"
            argv = ["ablate", *data, "--out", str(out), "--feature", "ethnicity", "--folds", "2", "--save-model"]
            assert main(argv) == 3
            errors.append(capsys.readouterr().err)
            assert_no_child()
            assert not out.exists()  # no report is written when a model cannot be
        assert errors[0] == errors[1] == "compute error: ValueError: planted full-table fit failure\n"

    def test_one_task_or_one_cpu_forks_nothing_and_imports_no_pool(self):
        script = """
            import os, sys
            sys.path.insert(0, "tests")
            from featrank import evaluation
            from featrank.classifiers import ClassifierSpec
            from featrank.dataio import stratified_folds
            from helpers import make_table

            def no_fork():
                raise AssertionError("forked")

            os.fork = no_fork
            labels = [i % 2 for i in range(40)]
            t = make_table({"a": [y + i % 7 for i, y in enumerate(labels)], "b": [i % 5 for i in range(40)]}, labels)
            plan = stratified_folds(t, 2, seed=1)
            folds = evaluation._folds(t, plan, None)
            evaluation._cpus = lambda: 8
            evaluation.run_tasks([("glm", evaluation._fit_and_score, (folds[0], ClassifierSpec(kind="glm"), None))])
            evaluation._cpus = lambda: 1
            evaluation.ablation(t, "b", [ClassifierSpec(kind="glm"), ClassifierSpec(kind="gbt")], plan)
            loaded = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
            print(loaded)
        """
        assert run_script(script) == "[]"

    def test_forked_workers_and_search_threads_import_no_pool(self):
        script = """
            import sys
            sys.path.insert(0, "tests")
            import numpy as np
            from featrank import evaluation, neighbors
            from featrank.classifiers import ClassifierSpec
            from featrank.dataio import stratified_folds
            from helpers import make_table

            labels = [i % 2 for i in range(40)]
            t = make_table({"a": [y + i % 7 for i, y in enumerate(labels)], "b": [i % 5 for i in range(40)]}, labels)
            evaluation._cpus = lambda: 2
            neighbors.BLOCK_CELLS = 1
            evaluation.ablation(t, "b", [ClassifierSpec(kind="glm"), ClassifierSpec(kind="gbt")],
                                stratified_folds(t, 2, seed=1))
            neighbors.k_nearest(neighbors.encode(t), np.arange(40), np.arange(40), 3)  # 40 blocks
            print([m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules])
        """
        assert run_script(script) == "[]"

    def test_only_the_main_thread_lives_when_workers_fork(self, monkeypatch):
        real_fork = os.fork
        threads = []

        def recording_fork():
            threads.append(threading.active_count())
            return real_fork()

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(evaluation, "_cpus", lambda: 2)
        monkeypatch.setattr(neighbors, "BLOCK_CELLS", 1)
        table = imbalanced_table(n=120, seed=32)
        features = neighbors.encode(table)
        neighbors.k_nearest(features, np.arange(120), np.arange(120), 3)  # 120 blocks
        plan = stratified_folds(table, 2, seed=1)
        ablation(table, "b", [ClassifierSpec(kind="glm"), ClassifierSpec(kind="decision_tree")], plan)
        assert threads == [1, 1]
        assert_no_child()
        assert threading.active_count() == 1

    def test_first_failing_task_in_list_order_raises(self, monkeypatch):
        # The gbt tasks are dispatched first, but a glm task comes first in the list.
        real_fit = classifiers.fit

        def failing_fit(spec, train, features=None):
            if spec.kind in ("glm", "gbt"):
                raise ValueError(f"planted {spec.kind} failure")
            return real_fit(spec, train, features=features)

        monkeypatch.setattr(classifiers, "fit", failing_fit)
        for cpus in (1, 2):
            monkeypatch.setattr(evaluation, "_cpus", lambda: cpus)
            with pytest.raises(ValueError, match="planted glm failure"):
                self.run_both(self.grouped())
        assert_no_child()

    def test_dead_worker_raises_naming_its_exit_status(self, monkeypatch):
        parent = os.getpid()
        real_fit = classifiers.fit

        def dying_fit(spec, train, features=None):
            if os.getpid() != parent and spec.kind == "glm":
                os._exit(9)
            return real_fit(spec, train, features=features)

        monkeypatch.setattr(classifiers, "fit", dying_fit)
        monkeypatch.setattr(evaluation, "_cpus", lambda: 2)
        with deadline(60), pytest.raises(RuntimeError, match="exit status 9"):
            self.run_both(self.grouped())
        assert_no_child()

    def test_feed_longer_than_a_pipe_buffer_returns_in_list_order(self, monkeypatch):
        # 20,000 four-byte indices: 80,000 bytes of feed, more than one 64 KiB pipe buffer
        kinds = list(classifiers.CLASSIFIERS)
        tasks = [(kinds[i % len(kinds)], evaluation.Metrics, (i, 0, 0, 0)) for i in range(20_000)]
        monkeypatch.setattr(evaluation, "_cpus", lambda: 2)
        with deadline(60):
            metrics = evaluation.run_tasks(tasks)
        assert [m.accuracy for m in metrics] == list(range(20_000))
        assert_no_child()

    def test_unpicklable_task_error_raises_naming_its_type(self, monkeypatch):
        class LocalError(Exception):  # a local class: its instances cannot be pickled
            pass

        def failing_task():
            raise LocalError("planted")

        monkeypatch.setattr(evaluation, "_cpus", lambda: 2)
        tasks = [("glm", failing_task, ())] * 2
        with deadline(60), pytest.raises(RuntimeError, match="LocalError: planted"):
            evaluation.run_tasks(tasks)
        assert_no_child()
