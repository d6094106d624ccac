"""Per-layer spans recorded from outside the program.

Each instrumentation point rebinds one public function under the name its
caller looks it up by (for example `featrank.evaluation.smote`, which
`cross_validate` calls) to a wrapper that records a span: name, start, end,
parent span and job id, plus counts taken from the call's arguments and
result. Nothing in the program changes; the original functions are restored
when the traced job returns. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

CLASSIFIER_KINDS = ("rule_induction", "mlp", "glm", "gbt", "decision_tree", "random_forest")

# (name, unit, better) of every per-layer metric --trace 1 reports, in BENCHMARK.json order.
PER_LAYER = (
    ("dataio.load_csv.s", "s", "lower"),
    ("dataio.load_csv.rows", "rows", "lower"),
    ("dataio.split.calls", "count", "lower"),
    ("dataio.split.s", "s", "lower"),
    ("dataio.stratified_folds.s", "s", "lower"),
    ("weighting.weigh_all.calls", "count", "lower"),
    ("weighting.weigh_all.s", "s", "lower"),
    ("weighting.weight_relief.s", "s", "lower"),
    ("weighting.weight_relief.pairs", "pairs", "lower"),
    ("weighting.discrete.s", "s", "lower"),
    ("smote.calls", "count", "lower"),
    ("smote.s", "s", "lower"),
    ("smote.synthetic_rows", "rows", "lower"),
    ("smote.neighbor_pairs", "pairs", "lower"),
    ("smote.unique_input_frac", "fraction", "higher"),
    ("classifiers.fit.calls", "count", "lower"),
    ("classifiers.fit.s", "s", "lower"),
    ("classifiers.fit.rows", "rows", "lower"),
    *((f"classifiers.fit.{kind}.s", "s", "lower") for kind in CLASSIFIER_KINDS),
    ("classifiers.predict_scores.s", "s", "lower"),
    ("classifiers.predict_scores.rows", "rows", "lower"),
    ("evaluation.cross_validate.calls", "count", "lower"),
    ("evaluation.cross_validate.self_s", "s", "lower"),
    ("evaluation.ablation.s", "s", "lower"),
    ("evaluation.per_group_rankings.s", "s", "lower"),
    ("evaluation.best_classifier_per_group.s", "s", "lower"),
    ("reporting.s", "s", "lower"),
    ("synth.generate.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.job_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        doc = {k: getattr(self, k) for k in ("id", "name", "parent", "job", "start", "end")}
        doc.update((k, v) for k, v in self.counts.items() if k != "input")
        return doc


class Tracer:
    """Collects spans in call order; the innermost open span is the parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, self.job, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, measure=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if measure is not None:
                span.counts = measure(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _smote_counts(args, out) -> dict:
    table = args["table"]
    labels = table.label01()
    minority = min(sum(labels), len(labels) - sum(labels))
    synthetic = out.n_rows - table.n_rows
    return {
        "synthetic_rows": synthetic,
        "neighbor_pairs": minority * minority if synthetic else 0,
        "input": hash((table.rows, args["config"])),
    }


# (module, attribute the caller looks up, span name, counts from (arguments, result))
JOB_POINTS = (
    ("featrank.cli", "load_csv", "dataio.load_csv", lambda a, r: {"rows": r.n_rows}),
    ("featrank.cli", "stratified_folds", "dataio.stratified_folds", None),
    ("featrank.evaluation", "stratified_folds", "dataio.stratified_folds", None),
    ("featrank.evaluation", "split", "dataio.split", None),
    ("featrank.cli", "weigh_all", "weighting.weigh_all", None),
    ("featrank.weighting", "weigh_all", "weighting.weigh_all", None),
    (
        "featrank.weighting",
        "weight_relief",
        "weighting.weight_relief",
        lambda a, r: {"pairs": a["table"].n_rows ** 2},
    ),
    ("featrank.evaluation", "smote", "smote", _smote_counts),
    (
        "featrank.classifiers",
        "fit",
        "classifiers.fit",
        lambda a, r: {"rows": a["train"].n_rows, "kind": a["spec"].kind},
    ),
    (
        "featrank.classifiers",
        "predict_scores",
        "classifiers.predict_scores",
        lambda a, r: {"rows": a["table"].n_rows},
    ),
    ("featrank.evaluation", "cross_validate", "evaluation.cross_validate", None),
    ("featrank.cli", "ablation", "evaluation.ablation", None),
    ("featrank.cli", "per_group_rankings", "evaluation.per_group_rankings", None),
    ("featrank.cli", "best_classifier_per_group", "evaluation.best_classifier_per_group", None),
    *(
        ("featrank.cli", fn, "reporting", None)
        for fn in (
            "weight_matrix_rows",
            "eval_report_rows",
            "delta_rows",
            "group_ranking_rows",
            "group_winner_rows",
            "write_rows",
        )
    ),
)
SETUP_POINTS = (("featrank.synth", "generate_with_truth", "synth.generate", None),)


@contextmanager
def instrumented(tracer: Tracer | None, points):
    """Rebind every point to a traced wrapper; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, name, measure in points if tracer is not None else ():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, measure))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that its children cover."""
    total = 0.0
    reach = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list[Span], jobs: list[int]) -> dict[str, float]:
    """Per-layer metrics averaged per job over the given traced jobs."""
    wanted = set(jobs)
    chosen = [s for s in spans if s.job in wanted]
    by_id = {s.id: s for s in chosen}
    children = defaultdict(list)
    named = defaultdict(list)
    for s in chosen:
        children[s.parent].append(s)
        parent = by_id.get(s.parent)
        if parent is None or parent.name != s.name:  # outermost of a nested run only
            named[s.name].append(s)
    n = len(wanted)

    def calls(name):
        return len(named[name]) / n

    def seconds(name, pred=lambda s: True):
        return sum(s.seconds for s in named[name] if pred(s)) / n

    def self_seconds(name):
        return sum(s.seconds - _covered(s, children[s.id]) for s in named[name]) / n

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in named[name]) / n

    smote_calls = len(named["smote"])
    metrics = {
        "dataio.load_csv.s": seconds("dataio.load_csv"),
        "dataio.load_csv.rows": count("dataio.load_csv", "rows"),
        "dataio.split.calls": calls("dataio.split"),
        "dataio.split.s": seconds("dataio.split"),
        "dataio.stratified_folds.s": seconds("dataio.stratified_folds"),
        "weighting.weigh_all.calls": calls("weighting.weigh_all"),
        "weighting.weigh_all.s": seconds("weighting.weigh_all"),
        "weighting.weight_relief.s": seconds("weighting.weight_relief"),
        "weighting.weight_relief.pairs": count("weighting.weight_relief", "pairs"),
        "weighting.discrete.s": self_seconds("weighting.weigh_all"),
        "smote.calls": calls("smote"),
        "smote.s": seconds("smote"),
        "smote.synthetic_rows": count("smote", "synthetic_rows"),
        "smote.neighbor_pairs": count("smote", "neighbor_pairs"),
        "smote.unique_input_frac": (
            len({s.counts["input"] for s in named["smote"]}) / smote_calls if smote_calls else 0.0
        ),
        "classifiers.fit.calls": calls("classifiers.fit"),
        "classifiers.fit.s": seconds("classifiers.fit"),
        "classifiers.fit.rows": count("classifiers.fit", "rows"),
    }
    for kind in CLASSIFIER_KINDS:
        metrics[f"classifiers.fit.{kind}.s"] = seconds(
            "classifiers.fit", lambda s, kind=kind: s.counts.get("kind") == kind
        )
    metrics.update(
        {
            "classifiers.predict_scores.s": seconds("classifiers.predict_scores"),
            "classifiers.predict_scores.rows": count("classifiers.predict_scores", "rows"),
            "evaluation.cross_validate.calls": calls("evaluation.cross_validate"),
            "evaluation.cross_validate.self_s": self_seconds("evaluation.cross_validate"),
            "evaluation.ablation.s": seconds("evaluation.ablation"),
            "evaluation.per_group_rankings.s": seconds("evaluation.per_group_rankings"),
            "evaluation.best_classifier_per_group.s": seconds(
                "evaluation.best_classifier_per_group"
            ),
            "reporting.s": seconds("reporting"),
            "cli.self_s": self_seconds("job"),
            "trace.job_s": seconds("job"),
        }
    )
    return metrics
