"""Cross-validated metrics, feature ablation, and per-group analyses.

Scoring is always on untouched test folds at threshold 0.5; oversampling, if
requested, is applied to each fold's training split only, and the resampling
provenance is carried through so tests can audit that no test row ever
contributed to a synthetic training row. Each fold is split and oversampled
once, and every classifier and both arms of an ablation share that training
split. This is exact, because SMOTE reads every column and is seeded by the
fold alone, and it leaves the included feature as the arms' only difference.

Cross-validation, ablation and the per-group winners build their folds first
and then one flat list of (classifier, fold, features) tasks: both arms of an
ablation, or every stratum of the per-group analysis, in one list. Each task
depends only on its spec, its fold and its features, and the results are
gathered in list order. So the list runs on one forked worker process per CPU
the process may use (`neighbors._cpus`), each taking the next task index from
one shared pipe, and the reports do not depend on how many there are. With one
task or one CPU it runs in this process.
"""

from __future__ import annotations

import os
import pickle
import select
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import classifiers, neighbors
from .classifiers import ClassifierSpec
from .dataio import FoldPlan, Table, filter_by_group, observed_groups, split, stratified_folds
from .seeding import derive_seed
from .smote import SmoteConfig, smote

@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    auc: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.accuracy, self.precision, self.recall, self.auc)

    def get(self, name: str) -> float:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}")
        return getattr(self, name)


METRIC_NAMES = tuple(f.name for f in fields(Metrics))


def confusion(scores, labels, threshold: float) -> tuple[int, int, int, int]:
    """(TP, FP, TN, FN) with rows predicted positive iff score >= threshold."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels must have equal length")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be within [0, 1]")
    predicted = np.asarray(scores, dtype=float) >= threshold
    positive = np.asarray(labels) == 1
    tp = int(np.count_nonzero(predicted & positive))
    fp = int(np.count_nonzero(predicted & ~positive))
    fn = int(np.count_nonzero(~predicted & positive))
    return tp, fp, len(positive) - tp - fp - fn, fn


def auc(scores, labels) -> float:
    """Rank-based Mann-Whitney AUC; tied scores contribute half credit.

    Each run of equal sorted scores, at 0-based positions [start, end), takes
    the average 1-based rank (start + end + 1) / 2.
    """
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    n = len(y)
    if len(s) != n:
        raise ValueError("scores and labels must have equal length")
    n_pos = int((y == 1).sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both classes")
    if not np.isfinite(s).all():
        raise ValueError("AUC requires finite scores")
    order = np.argsort(s, kind="stable")
    ranked = s[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    ends = np.append(starts[1:], n)
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    rank_sum_pos = float(ranks[y == 1].sum())
    u_stat = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u_stat / (n_pos * n_neg)


def compute_metrics(scores, labels, threshold: float = 0.5) -> Metrics:
    tp, fp, tn, fn = confusion(scores, labels, threshold)
    n = tp + fp + tn + fn
    return Metrics(
        accuracy=(tp + tn) / n,
        precision=tp / (tp + fp) if tp + fp else 0.0,
        recall=tp / (tp + fn) if tp + fn else 0.0,
        auc=auc(scores, labels),
    )


@dataclass(frozen=True)
class FoldAudit:
    """Resampling provenance of one fold, in original-table row indices."""

    fold: int
    test_indices: tuple[int, ...]
    smote_source_indices: tuple[int, ...]


@dataclass(frozen=True)
class CrossValResult:
    kind: str
    per_fold: tuple[Metrics, ...]
    mean: Metrics
    std: Metrics
    audits: tuple[FoldAudit, ...]


def _aggregate(per_fold) -> tuple[Metrics, Metrics]:
    means = []
    stds = []
    for name in METRIC_NAMES:
        values = [m.get(name) for m in per_fold]
        means.append(float(np.mean(values)))
        stds.append(float(np.std(values, ddof=1)) if len(values) > 1 else 0.0)
    return Metrics(*means), Metrics(*stds)


def _clamped_smote_config(train: Table, cfg: SmoteConfig, fold: int) -> SmoteConfig | None:
    """Per-fold seeded config with k capped below the train minority size."""
    minority = int(np.bincount(train.y, minlength=2).min())
    if minority < 2:
        return None
    k = min(cfg.k_neighbors, minority - 1)
    return replace(cfg, k_neighbors=k, seed=derive_seed(cfg.seed, "fold", fold))


def _folds(table: Table, plan: FoldPlan, smote_cfg: SmoteConfig | None):
    """(train, test, audit) of every fold; train is oversampled when smote_cfg is set."""
    assignment = np.asarray(plan.assignment, dtype=np.intp)
    sizes = np.bincount(assignment, minlength=plan.k)
    for fold in range(plan.k):
        if sizes[fold] < 2:
            raise ValueError(f"fold {fold} has fewer than 2 rows")

    folds = []
    for fold in range(plan.k):
        train, test = split(table, plan, fold)
        sources: tuple[int, ...] = ()
        if smote_cfg is not None:
            fold_cfg = _clamped_smote_config(train, smote_cfg, fold)
            if fold_cfg is not None:
                train = smote(train, fold_cfg)
                used = np.unique(np.asarray(train.smote_pairs, dtype=np.intp))
                sources = tuple(np.flatnonzero(assignment != fold)[used].tolist())
        folds.append((train, test, FoldAudit(fold, tuple(plan.fold_indices(fold)), sources)))
    return folds


# Kinds in falling order of one-core fit time on a 192-row training split of
# a default cohort (GBT 29, random forest 23, MLP 20 ms). On a 5760-row split
# the first three are within 5% of each other, about 0.6 s. The longest are
# dispatched first, so that no worker is left with a long fit at the end.
_BY_FIT_TIME = ("gbt", "random_forest", "mlp", "rule_induction", "decision_tree", "glm")


def _fit_and_score(folds, spec: ClassifierSpec, fold: int, features) -> tuple[float, ...]:
    """The metrics of one task: `spec` fitted on the training split of
    folds[fold], restricted to `features`, and scored on its test split."""
    train, test, audit = folds[fold]
    fold_spec = replace(spec, seed=derive_seed(spec.seed, "fold", audit.fold))
    model = classifiers.fit(fold_spec, train, features=features)
    return compute_metrics(classifiers.predict_scores(model, test), test.y).as_tuple()


def _run_tasks(tasks, folds) -> list[Metrics]:
    """Each (spec, fold index, features) task's metrics, in list order.

    The tasks run on min(CPUs, tasks) forked worker processes, or in this
    process when that is one or the platform cannot fork. A task's exception
    reaches the caller with its type; the first failing task in list order
    raises, as it would in this process. A worker that dies raises a
    RuntimeError naming its exit status.
    """
    count = min(neighbors._cpus(), len(tasks))
    if count <= 1 or not hasattr(os, "fork"):
        return [Metrics(*_fit_and_score(folds, *task)) for task in tasks]
    order = sorted(range(len(tasks)), key=lambda i: _BY_FIT_TIME.index(tasks[i][0].kind))
    feed_read, feed_write = os.pipe()
    workers = []
    try:
        try:
            for _ in range(count):
                workers.append(_fork_worker(folds, tasks, feed_read, feed_write))
        finally:
            # Closed before the feed is written: with no worker left to read
            # it, the write then fails rather than waits.
            os.close(feed_read)
        _feed(feed_write, order)
    finally:
        os.close(feed_write)  # the end of the feed: each worker then sends its outcomes
        outcomes, failed = _gather(workers)
    if failed:
        raise RuntimeError(f"a task worker died (exit status {failed[0]})")
    per_task = [outcomes[i] for i in range(len(tasks))]
    errors = [outcome for outcome in per_task if isinstance(outcome, Exception)]
    if errors:
        raise errors[0]
    return [Metrics(*outcome) for outcome in per_task]


def _fork_worker(folds, tasks, feed_read: int, feed_write: int) -> tuple[int, int]:
    """Fork one worker (`_work`); its pid and the read end of its result pipe.
    The worker inherits `folds` and `tasks`, so neither is pickled."""
    result_read, result_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(result_read)
        os.close(result_write)
        raise
    if pid == 0:
        _work(folds, tasks, feed_read, feed_write, result_write)
    os.close(result_write)
    return pid, result_read


def _work(folds, tasks, feed_read: int, feed_write: int, result_write: int) -> None:
    """A forked worker's life, which ends in `os._exit`: run each task whose
    index it reads from the feed, one index at a time, and when the feed ends
    write all its (index, metrics or exception) outcomes to its result pipe as
    one pickle. Holding them until then means the worker never blocks on a
    full result pipe while the parent is still writing the feed."""
    status = 1
    try:
        os.close(feed_write)  # else the feed never ends
        outcomes = []
        while index := os.read(feed_read, 4):
            i = int.from_bytes(index, "little")
            try:
                outcomes.append((i, _fit_and_score(folds, *tasks[i])))
            except Exception as exc:
                outcomes.append((i, _sendable(exc)))
        with open(result_write, "wb") as pipe:
            pickle.dump(outcomes, pipe)
        status = 0
    finally:
        os._exit(status)


def _sendable(exc: Exception) -> Exception:
    """`exc`, or where it does not survive pickling a RuntimeError naming its
    type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _feed(feed_write: int, order) -> None:
    """Write the task indices in `order` to the feed as 4-byte integers. A pipe
    write of at most PIPE_BUF bytes is atomic, so with whole indices in each
    the pipe always holds whole indices, and no worker's 4-byte read takes
    part of one."""
    feed = b"".join(i.to_bytes(4, "little") for i in order)
    step = select.PIPE_BUF // 4 * 4
    try:
        for start in range(0, len(feed), step):
            os.write(feed_write, feed[start : start + step])
    except BrokenPipeError:
        pass  # every worker has died; `_gather` reports it


def _gather(workers) -> tuple[dict, list[int]]:
    """Read each worker's result pipe to its end and reap the worker: the
    outcomes by task index, and the exit statuses of the workers that failed
    (a negative status is the signal that ended one)."""
    outcomes, failed = {}, []
    for pid, result_read in workers:
        with open(result_read, "rb") as pipe:
            sent = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status == 0:
            outcomes.update(pickle.loads(sent))
        else:
            failed.append(status)
    return outcomes, failed


def _score(jobs, folds) -> list[CrossValResult]:
    """One CrossValResult per (spec, fold indices, features) job, with all
    jobs' (spec, fold) tasks run as one list."""
    tasks = [(spec, fold, features) for spec, fold_ids, features in jobs for fold in fold_ids]
    per_task = iter(_run_tasks(tasks, folds))
    results = []
    for spec, fold_ids, _ in jobs:
        per_fold = tuple(next(per_task) for _ in fold_ids)
        mean, std = _aggregate(per_fold)
        audits = tuple(folds[fold][2] for fold in fold_ids)
        results.append(CrossValResult(spec.kind, per_fold, mean, std, audits))
    return results


def cross_validate(
    table: Table,
    spec: ClassifierSpec,
    plan: FoldPlan,
    smote_cfg: SmoteConfig | None = None,
    feature_mask=None,
) -> CrossValResult:
    """k-fold evaluation of one classifier restricted to the masked-in features."""
    mask = table.features(feature_mask)
    folds = _folds(table, plan, smote_cfg)
    return _score([(spec, range(plan.k), mask)], folds)[0]


@dataclass(frozen=True)
class EvalReport:
    """Per-classifier metric means/stds over folds plus their across-classifier average."""

    kinds: tuple[str, ...]
    mean: dict  # kind -> Metrics
    std: dict  # kind -> Metrics
    average: Metrics
    config: dict

    @classmethod
    def from_stats(cls, kinds, mean, std, config) -> "EvalReport":
        kinds = tuple(kinds)
        avg = Metrics(
            *(float(np.mean([mean[k].get(m) for k in kinds])) for m in METRIC_NAMES)
        )
        return cls(kinds=kinds, mean=dict(mean), std=dict(std), average=avg, config=dict(config))


@dataclass(frozen=True)
class AblationReport:
    with_report: EvalReport
    without_report: EvalReport
    delta: Metrics  # with minus without, on the average column

    @classmethod
    def build(cls, with_report: EvalReport, without_report: EvalReport) -> "AblationReport":
        delta = Metrics(
            *(with_report.average.get(m) - without_report.average.get(m) for m in METRIC_NAMES)
        )
        return cls(with_report=with_report, without_report=without_report, delta=delta)


def ablation(
    table: Table,
    feature: str,
    specs,
    plan: FoldPlan,
    smote_cfg: SmoteConfig | None = None,
) -> AblationReport:
    """Paired evaluation with one feature included vs. excluded, same folds."""
    arms = (table.features(), table.features(drop=(feature,)))
    folds = _folds(table, plan, smote_cfg)
    config = {
        "folds": plan.k,
        "smote": None if smote_cfg is None else asdict(smote_cfg),
        "seeds": {spec.kind: spec.seed for spec in specs},
    }
    results = iter(_score([(spec, range(plan.k), mask) for mask in arms for spec in specs], folds))
    reports = []
    for mask in arms:
        results_arm = [next(results) for _ in specs]
        mean = {r.kind: r.mean for r in results_arm}
        std = {r.kind: r.std for r in results_arm}
        config_arm = config | {"features": list(mask)}
        reports.append(EvalReport.from_stats([r.kind for r in results_arm], mean, std, config_arm))
    return AblationReport.build(*reports)


def _strata(table: Table, min_rows: int, min_class: int):
    """Yield (value, sub-table, smaller class size) for every group in ascending
    order; the sub-table is None for a group under `min_rows` rows or
    `min_class` rows per class."""
    if table.group_column is None:
        raise ValueError("table has no group column")
    for value in observed_groups(table):
        sub = filter_by_group(table, value)
        smaller = int(np.bincount(sub.y, minlength=2).min())
        usable = sub.n_rows >= min_rows and smaller >= min_class
        yield value, sub if usable else None, smaller


def per_group_rankings(
    table: Table, top_n: int = 5, n_bins: int = 10, relief_k: int = 10
) -> dict[str, list[str] | None]:
    """Top attributes by overall rank within each group stratum, for every
    group in ascending order.

    The group column itself is excluded (it is constant within a stratum).
    A group with fewer than 20 rows, or without at least 2 rows per class,
    maps to None.
    """
    from .weighting import weigh_all

    out: dict[str, list[str] | None] = {}
    for value, sub, smaller in _strata(table, 20, 2):
        out[value] = None
        if sub is not None:
            rankable = sub.project(sub.features(drop=(sub.group_column.name,)))
            matrix = weigh_all(rankable, n_bins=n_bins, relief_k=min(relief_k, smaller - 1))
            out[value] = matrix.by_overall_rank()[:top_n]
    return out


def best_classifier_per_group(
    table: Table,
    specs,
    k: int = 10,
    seed: int = 0,
    smote_cfg: SmoteConfig | None = None,
) -> dict[str, tuple[str, Metrics] | None]:
    """Winning classifier (by mean accuracy, then AUC, then name) per group,
    for every group in ascending order.

    Each group gets fresh stratified folds. A group below max(20, 2k) rows or
    with a class smaller than k maps to None.
    """
    strata, folds = {}, []  # value -> its folds' indices or None, every stratum's folds
    for value, sub, _ in _strata(table, max(20, 2 * k), k):
        strata[value] = None
        if sub is not None:
            plan = stratified_folds(sub, k, derive_seed(seed, "group-folds", value))
            first = len(folds)
            folds += _folds(sub, plan, smote_cfg)
            strata[value] = range(first, len(folds))
    jobs = [(spec, ids, None) for ids in strata.values() if ids is not None for spec in specs]
    results = iter(_score(jobs, folds))
    out: dict[str, tuple[str, Metrics] | None] = dict.fromkeys(strata)
    for value, ids in strata.items():
        if ids is not None:
            stratum = [next(results) for _ in specs]
            best = min(stratum, key=lambda r: (-r.mean.accuracy, -r.mean.auc, r.kind))
            out[value] = (best.kind, best.mean)
    return out
