"""Fixed-precision report rendering: CSV as the canonical form, Markdown from it.

All numbers are formatted at fixed precision (weights 5 decimals, metrics 2
decimals) and all files end with a single trailing newline, so identical runs
produce byte-identical files. Accuracy, precision, and recall are reported as
percentages; AUC stays a fraction.

Every CSV file featrank writes, reports and cohorts alike, follows one cell
rule, that of RFC 4180, section 2: a cell that holds a comma, a double quote,
a line feed or a carriage return is enclosed in double quotes, with its inner
quotes doubled. The one empty cell of a one-cell row is also written `""`,
so that the row is not a blank line, and each row ends with a line feed. The
rule is written out here, not left to the `csv` module's writer, whose
quoting of a carriage return differs between Python versions; so the bytes
no longer depend on the Python version, and `csv` only reads. In Markdown
(GitHub Flavored Markdown tables) a cell's `|` is written `\\|` and each
line break `<br>`, so every CSV row renders as one table line with its
number of cells.
"""

from __future__ import annotations

import csv
import re

from .classifiers import CLASSIFIER_LABELS
from .dataio import Table
from .evaluation import METRIC_NAMES, AblationReport, EvalReport
from .weighting import ALGORITHM_LABELS, ALGORITHMS, WeightMatrix

PERCENT_METRICS = ("accuracy", "precision", "recall")
METRIC_LABELS = {"accuracy": "Accuracy", "precision": "Precision", "recall": "Recall", "auc": "AUC"}


def format_weight(value: float) -> str:
    return f"{value:.5f}"


def format_metric(name: str, value: float, spec: str = ".2f") -> str:
    scale = 100.0 if name in PERCENT_METRICS else 1.0
    return f"{value * scale:{spec}}"


def metric_cell(name: str, mean: float, std: float) -> str:
    return f"{format_metric(name, mean)} ± {format_metric(name, std)}"


def weight_matrix_rows(matrix: WeightMatrix) -> list[list[str]]:
    header = ["Attribute"]
    for alg in ALGORITHMS:
        label = ALGORITHM_LABELS[alg]
        header += [f"{label} Weight", f"{label} Rank"]
    header += ["Mean Rank", "Overall Rank"]
    rows = [header]
    for attr in matrix.by_overall_rank():
        row = [attr]
        for alg in ALGORITHMS:
            row.append(format_weight(matrix.weight[attr][alg]))
            row.append(str(matrix.rank[attr][alg]))
        row.append(f"{matrix.mean_rank[attr]:.2f}")
        row.append(str(matrix.overall_rank[attr]))
        rows.append(row)
    return rows


def eval_report_rows(report: EvalReport) -> list[list[str]]:
    header = ["Metric"] + [CLASSIFIER_LABELS[k] for k in report.kinds] + ["Average"]
    rows = [header]
    for name in METRIC_NAMES:
        row = [METRIC_LABELS[name]]
        for kind in report.kinds:
            row.append(metric_cell(name, report.mean[kind].get(name), report.std[kind].get(name)))
        row.append(format_metric(name, report.average.get(name)))
        rows.append(row)
    return rows


def delta_rows(report: AblationReport) -> list[list[str]]:
    rows = [["Metric", "Without", "With", "Delta"]]
    for name in METRIC_NAMES:
        without = report.without_report.average.get(name)
        with_ = report.with_report.average.get(name)
        rows.append(
            [
                METRIC_LABELS[name],
                format_metric(name, without),
                format_metric(name, with_),
                format_metric(name, with_ - without, "+.2f"),
            ]
        )
    return rows


def group_ranking_rows(rankings: dict, top_n: int = 5) -> list[list[str]]:
    """One row per group, in the order of `rankings`; a None value is a skipped group."""
    rows = [["Group", "Status"] + [f"Top{i + 1}" for i in range(top_n)]]
    for g, top in rankings.items():
        if top is None:
            rows.append([g, "skipped"] + [""] * top_n)
        else:
            rows.append([g, "ok"] + (list(top) + [""] * top_n)[:top_n])
    return rows


def group_winner_rows(winners: dict) -> list[list[str]]:
    """One row per group, in the order of `winners`; a None value is a skipped group."""
    rows = [["Group", "Status", "Classifier"] + [METRIC_LABELS[m] for m in METRIC_NAMES]]
    for g, winner in winners.items():
        if winner is None:
            rows.append([g, "skipped"] + [""] * (1 + len(METRIC_NAMES)))
        else:
            kind, metrics = winner
            cells = [format_metric(m, metrics.get(m)) for m in METRIC_NAMES]
            rows.append([g, "ok", CLASSIFIER_LABELS[kind]] + cells)
    return rows


def _csv_cell(cell: str, alone: bool) -> str:
    """`cell` as a CSV field; `alone` when it is the only cell of its row."""
    if any(ch in cell for ch in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return '""' if alone and not cell else cell


def _csv_row(cells) -> str:
    return ",".join(_csv_cell(cell, len(cells) == 1) for cell in cells) + "\n"


def rows_to_csv(rows: list[list[str]]) -> str:
    return "".join(map(_csv_row, rows))


_LINE_BREAK = re.compile("\r\n|\r|\n")


def _markdown_row(cells) -> str:
    return "| " + " | ".join(_LINE_BREAK.sub("<br>", c.replace("|", "\\|")) for c in cells) + " |"


def rows_to_markdown(rows: list[list[str]]) -> str:
    header, *body = rows
    lines = [_markdown_row(header), "| " + " | ".join("---" for _ in header) + " |"]
    lines += map(_markdown_row, body)
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    """Write `text` to `path` as UTF-8, with no newline translation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_rows(path, rows: list[list[str]]) -> None:
    write_text(path, rows_to_csv(rows))


def read_csv_rows(path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh)]


def table_to_csv_text(table: Table) -> str:
    """Cohort CSV with full-precision numerics (repr round-trips exactly),
    written a column at a time: each category's field is made once. A float's
    repr holds no comma, quote or line break, so it is never quoted."""
    alone = len(table.schema) == 1
    columns = []
    for data, cats in zip(table.data, table.categories):
        if cats is None:
            columns.append(map(repr, data.tolist()))
        else:
            texts = [_csv_cell(cat, alone) for cat in cats]
            columns.append(map(texts.__getitem__, data.tolist()))
    return _csv_row(table.column_names()) + "\n".join(map(",".join, zip(*columns))) + "\n"
