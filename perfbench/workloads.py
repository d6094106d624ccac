"""The benchmark's workloads: which cohorts they generate, which command one
job runs, and how a job's reports are checked.

Every job reads its own cohort, generated from the workload seed during
set-up, so no two jobs of a run share input and a result cache cannot make a
job cheaper. The bounds in the planted-truth checks were set from seed sweeps
of the unoptimised program (see README.md).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# The six classifier columns of with.csv and without.csv, in report order.
CLASSIFIER_LABELS = (
    "Rule Induction",
    "Deep Learning",
    "Generalized Linear Model",
    "Gradient Boosted Tree",
    "Decision Tree",
    "Random Forest",
)
METRIC_ROWS = ("Accuracy", "Precision", "Recall", "AUC")
N_ALGORITHMS = 6
GROUP_COLUMN = "ethnicity"

# Planted-truth bounds. One cohort is too noisy to judge, so each bound applies
# to the mean over a run's timed jobs (see README.md for the sweeps).
# rank: mean overall rank, among the nine attribute columns, of the attribute
# with the largest planted coefficient.
RANK_MEAN_MAX = 4.5
# ablate: mean classifier-averaged AUC lost by withholding the planted group.
ABLATE_MEAN_AUC_DELTA_MIN = 0.03


def cohort_seed(seed: int, workload: str, index) -> int:
    """Generation seed of one cohort, independent of the program's own seeding."""
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}:{index}".encode()).digest()
    return (int.from_bytes(digest[:8], "big") >> 1) or 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: str  # synth spec constructor: "default" or "planted_ablation"
    rows: int  # rows of every timed cohort
    pool: int  # cohorts generated in set-up; the timed loop stops when they run out
    trace_jobs: int  # traced jobs the per-layer metrics are averaged over
    command: tuple[str, ...]  # subcommand and flags, before --data/--schema/--out
    folds: int = 0

    def job_args(self, cohort: Path, out: Path) -> list[str]:
        return list(self.command) + [
            "--data", str(cohort / "cohort.csv"),
            "--schema", str(cohort / "schema.json"),
            "--out", str(out),
        ]

    def check(self, cohort: Path, out: Path) -> tuple[list[str], float | None]:
        """Problems found in one job's reports, and the job's planted-truth statistic."""
        try:
            return _CHECKS[self.name](self, cohort, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable report: {type(exc).__name__}: {exc}"], None

    def check_planted(self, values: list[float]) -> list[str]:
        """Problems with the planted-truth statistic averaged over a run's timed jobs."""
        if not values or self.name == "groups":
            return []
        mean = sum(values) / len(values)
        if self.name == "rank" and not mean <= RANK_MEAN_MAX:
            return [
                f"the attribute with the largest planted coefficient has mean overall rank "
                f"{mean:.2f} over {len(values)} jobs, expected at most {RANK_MEAN_MAX}"
            ]
        if self.name == "ablate" and not mean > ABLATE_MEAN_AUC_DELTA_MIN:
            return [
                f"withholding the planted group moved AUC by {mean:+.3f} on average over "
                f"{len(values)} jobs, expected more than {ABLATE_MEAN_AUC_DELTA_MIN:+.3f}"
            ]
        return []


WARMUP_ROWS = 100

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rank",
            why="featrank weigh on 3000-row cohorts: only the weighting layer works "
            "(Relief's O(n^2) neighbour search); SMOTE and the classifiers stay idle",
            spec="default",
            rows=3000,
            pool=32,
            trace_jobs=6,
            command=("weigh",),
        ),
        Workload(
            name="ablate",
            why="featrank ablate --feature ethnicity, 6 classifiers, SMOTE, 2 folds on "
            "300-row planted cohorts: the paper's headline job; Relief stays idle",
            spec="planted_ablation",
            rows=300,
            pool=24,
            trace_jobs=2,
            command=("ablate", "--feature", GROUP_COLUMN, "--folds", "2"),
            folds=2,
        ),
        Workload(
            name="groups",
            why="featrank groups, 2 folds, on 300-row cohorts: many small per-stratum "
            "tables, so fixed per-call cost dominates and small strata are skipped",
            spec="default",
            rows=300,
            pool=32,
            trace_jobs=4,
            command=("groups", "--folds", "2"),
            folds=2,
        ),
    )
}


def spec_json(featrank, workload: Workload, rows: int, seed: int) -> dict:
    """The SynthSpec document `featrank synth --spec` reads for one cohort."""
    synth = featrank.synth
    if workload.spec == "planted_ablation":
        spec = synth.planted_ablation_spec(effect=1.5, n_rows=rows, seed=seed)
    else:
        spec = synth.default_cohort_spec(n_rows=rows, seed=seed)
    return synth.spec_to_json(spec)


# ---------------------------------------------------------------- checks


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _attributes(cohort: Path) -> list[str]:
    with open(cohort / "schema.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [c["name"] for c in doc["columns"] if c.get("role", "feature") in ("feature", "group")]


def _is_permutation(values: list[str], n: int) -> bool:
    return sorted(values) == sorted(str(i) for i in range(1, n + 1))


def _check_rank(workload: Workload, cohort: Path, out: Path) -> tuple[list[str], float | None]:
    rows = _rows(out / "weights.csv")
    attrs = _attributes(cohort)
    header, body = rows[0], rows[1:]
    problems = []
    if len(header) != 3 + 2 * N_ALGORITHMS:
        problems.append(f"weights.csv has {len(header)} columns, expected {3 + 2 * N_ALGORITHMS}")
        return problems, None
    if sorted(r[0] for r in body) != sorted(attrs):
        problems.append("weights.csv does not list every attribute column once")
        return problems, None
    for j in [2 + 2 * a for a in range(N_ALGORITHMS)] + [len(header) - 1]:
        if not _is_permutation([r[j] for r in body], len(attrs)):
            problems.append(f"column {header[j]!r} is not a permutation of 1..{len(attrs)}")
    for r in body:
        for a in range(N_ALGORITHMS):
            float(r[1 + 2 * a])
        mean = sum(int(r[2 + 2 * a]) for a in range(N_ALGORITHMS)) / N_ALGORITHMS
        if abs(float(r[-2]) - mean) > 0.006:
            problems.append(f"mean rank of {r[0]} is {r[-2]}, expected {mean:.2f}")
    order = [r[0] for r in sorted(body, key=lambda r: (float(r[-2]), r[0]))]
    if [r[0] for r in sorted(body, key=lambda r: int(r[-1]))] != order:
        problems.append("overall rank does not follow mean rank")

    with open(cohort / "truth.json", encoding="utf-8") as fh:
        truth = json.load(fh)
    terms = {t: w for coefs in truth["coefficients"].values() for t, w in coefs.items()}
    strongest = max(terms, key=lambda t: abs(terms[t])).split("=")[0]
    return problems, float({r[0]: int(r[-1]) for r in body}[strongest])


def _metric_value(cell: str) -> float:
    return float(cell.split("±")[0])


def _check_eval_report(rows: list[list[str]], name: str) -> list[str]:
    header = ["Metric", *CLASSIFIER_LABELS, "Average"]
    if rows[0] != header:
        return [f"{name} header is {rows[0]}, expected {header}"]
    if [r[0] for r in rows[1:]] != list(METRIC_ROWS):
        return [f"{name} metric rows are {[r[0] for r in rows[1:]]}"]
    problems = []
    for r in rows[1:]:
        cells = [_metric_value(c) for c in r[1:]]
        top = 1.0 if r[0] == "AUC" else 100.0
        if not all(0.0 <= v <= top for v in cells):
            problems.append(f"{name} {r[0]} row out of range: {r[1:]}")
        if abs(sum(cells[:-1]) / len(CLASSIFIER_LABELS) - cells[-1]) > 0.011:
            problems.append(f"{name} {r[0]} average does not match its classifiers")
    return problems


def _check_ablate(workload: Workload, cohort: Path, out: Path) -> tuple[list[str], float | None]:
    with_rows = _rows(out / "with.csv")
    without_rows = _rows(out / "without.csv")
    delta = _rows(out / "delta.csv")
    problems = _check_eval_report(with_rows, "with.csv") + _check_eval_report(
        without_rows, "without.csv"
    )
    if problems:
        return problems, None
    if delta[0] != ["Metric", "Without", "With", "Delta"] or [r[0] for r in delta[1:]] != list(
        METRIC_ROWS
    ):
        return [f"delta.csv has an unexpected layout: {delta}"], None
    for d, w, wo in zip(delta[1:], with_rows[1:], without_rows[1:]):
        if d[1] != wo[-1] or d[2] != w[-1]:
            problems.append(f"delta.csv {d[0]} row does not repeat the report averages")
        if abs(float(d[2]) - float(d[1]) - float(d[3])) > 0.011:
            problems.append(f"delta.csv {d[0]} delta is not with minus without")
    return problems, float(delta[-1][3])


def _strata(cohort: Path) -> dict[str, tuple[int, int]]:
    """Group value -> (rows, rows of the smaller class), read from the cohort itself."""
    with open(cohort / "schema.json", encoding="utf-8") as fh:
        columns = json.load(fh)["columns"]
    label = next(c for c in columns if c.get("role") == "label")
    rows = _rows(cohort / "cohort.csv")
    gi = rows[0].index(GROUP_COLUMN)
    li = rows[0].index(label["name"])
    counts: dict[str, list[int]] = {}
    for r in rows[1:]:
        c = counts.setdefault(r[gi], [0, 0])
        c[r[li] == label["positive_label"]] += 1
    return {g: (neg + pos, min(neg, pos)) for g, (neg, pos) in counts.items()}


def _check_groups(workload: Workload, cohort: Path, out: Path) -> tuple[list[str], None]:
    strata = _strata(cohort)
    rankable = [a for a in _attributes(cohort) if a != GROUP_COLUMN]
    k = workload.folds
    problems = []

    rankings = _rows(out / "group_rankings.csv")
    if rankings[0] != ["Group", "Status", "Top1", "Top2", "Top3", "Top4", "Top5"]:
        return [f"group_rankings.csv header is {rankings[0]}"], None
    if [r[0] for r in rankings[1:]] != sorted(strata):
        return ["group_rankings.csv does not cover every observed stratum once"], None
    for r in rankings[1:]:
        n, minority = strata[r[0]]
        expected = "ok" if n >= 20 and minority >= 2 else "skipped"
        if r[1] != expected:
            problems.append(f"ranking of stratum {r[0]} ({n} rows) is {r[1]!r}, expected {expected!r}")
        elif expected == "ok" and (len(set(r[2:])) != 5 or not set(r[2:]) <= set(rankable)):
            problems.append(f"ranking of stratum {r[0]} is not 5 distinct attributes: {r[2:]}")
        elif expected == "skipped" and any(r[2:]):
            problems.append(f"skipped stratum {r[0]} lists attributes")

    winners = _rows(out / "group_winners.csv")
    if winners[0] != ["Group", "Status", "Classifier", "Accuracy", "Precision", "Recall", "AUC"]:
        return problems + [f"group_winners.csv header is {winners[0]}"], None
    if [r[0] for r in winners[1:]] != sorted(strata):
        return problems + ["group_winners.csv does not cover every observed stratum once"], None
    for r in winners[1:]:
        n, minority = strata[r[0]]
        expected = "ok" if n >= max(20, 2 * k) and minority >= k else "skipped"
        if r[1] != expected:
            problems.append(f"winner of stratum {r[0]} ({n} rows) is {r[1]!r}, expected {expected!r}")
        elif expected == "ok":
            values = [float(v) for v in r[3:]]
            if r[2] not in CLASSIFIER_LABELS or not all(0 <= v <= 100 for v in values[:3]):
                problems.append(f"winner row of stratum {r[0]} is malformed: {r}")
            elif not 0 <= values[3] <= 1:
                problems.append(f"winner AUC of stratum {r[0]} is out of range: {r[6]}")
    if all(r[1] == "ok" for r in winners[1:]):
        problems.append("no stratum was skipped; the cohort no longer exercises skipping")
    return problems, None


_CHECKS = {"rank": _check_rank, "ablate": _check_ablate, "groups": _check_groups}


def same_reports(a: Path, b: Path) -> list[str]:
    """Differences between two report directories, compared byte for byte."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"repeated job wrote {names_b}, first run wrote {names_a}"]
    return [
        f"repeated job changed {name}"
        for name in names_a
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]
