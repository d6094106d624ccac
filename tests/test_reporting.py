"""Fixed-precision rendering of weight, evaluation, and group reports."""

import csv
import io
import json
import random
import re

import numpy as np
import pytest

from featrank import cli, synth
from featrank.classifiers import CLASSIFIER_LABELS
from featrank.dataio import CATEGORICAL, NUMERIC, ColumnSchema, Table, load_csv, load_schema_json
from featrank.evaluation import AblationReport, EvalReport, Metrics
from featrank.reporting import (
    delta_rows,
    eval_report_rows,
    format_metric,
    format_weight,
    group_ranking_rows,
    group_winner_rows,
    metric_cell,
    read_csv_rows,
    rows_to_csv,
    rows_to_markdown,
    table_to_csv_text,
    weight_matrix_rows,
    write_rows,
)
from featrank.weighting import ALGORITHMS, weigh_all
from helpers import make_table
from oracles import oracle_csv_text, oracle_table_csv_text


def small_report(shift=0.0):
    mean = {
        "glm": Metrics(0.7215 + shift, 0.7403, 0.8705, 0.7315),
        "decision_tree": Metrics(0.7 + shift, 0.72, 0.86, 0.70),
    }
    std = {k: Metrics(0.01, 0.01, 0.01, 0.01) for k in mean}
    return EvalReport.from_stats(["glm", "decision_tree"], mean, std, {})


class TestFormatting:
    def test_weight_five_decimals(self):
        assert format_weight(0.123456789) == "0.12346"
        assert format_weight(0.0) == "0.00000"

    def test_percent_metrics_scaled(self):
        assert format_metric("accuracy", 0.7215) == "72.15"
        assert format_metric("precision", 1.0) == "100.00"
        assert format_metric("auc", 0.7315) == "0.73"

    def test_metric_cell(self):
        assert metric_cell("accuracy", 0.7215, 0.0101) == "72.15 ± 1.01"
        assert metric_cell("auc", 0.75, 0.012) == "0.75 ± 0.01"


class TestWeightMatrixRows:
    def matrix(self):
        t = make_table(
            {"strong": [float(i % 2) * 2 + i * 0.01 for i in range(40)],
             "weak": [float(i) * 0.1 for i in range(40)],
             "color": ["red" if i % 2 else "blue" for i in range(40)]},
            [i % 2 for i in range(40)],
        )
        return weigh_all(t, n_bins=4, relief_k=3)

    def test_header_and_ordering(self):
        rows = weight_matrix_rows(self.matrix())
        assert rows[0][0] == "Attribute"
        assert rows[0][-2:] == ["Mean Rank", "Overall Rank"]
        assert len(rows[0]) == 1 + 2 * len(ALGORITHMS) + 2
        assert len(rows) == 4  # header + three attributes
        overall = [int(r[-1]) for r in rows[1:]]
        assert overall == sorted(overall)

    def test_cells_are_formatted_strings(self):
        rows = weight_matrix_rows(self.matrix())
        for row in rows[1:]:
            float(row[1])  # weight cell parses
            assert len(row[1].split(".")[1]) == 5
            int(row[2])  # rank cell parses


class TestEvalReportRows:
    def test_layout(self):
        rows = eval_report_rows(small_report())
        assert rows[0] == ["Metric", CLASSIFIER_LABELS["glm"], CLASSIFIER_LABELS["decision_tree"], "Average"]
        assert [r[0] for r in rows[1:]] == ["Accuracy", "Precision", "Recall", "AUC"]
        assert rows[1][1] == "72.15 ± 1.00"
        assert rows[4][1] == "0.73 ± 0.01"
        assert rows[1][3] == f"{(0.7215 + 0.7) / 2 * 100:.2f}"


class TestDeltaRows:
    def test_signed_percent_and_fraction(self):
        report = AblationReport.build(small_report(shift=0.0395), small_report())
        rows = delta_rows(report)
        assert rows[0] == ["Metric", "Without", "With", "Delta"]
        acc = rows[1]
        assert acc[0] == "Accuracy"
        assert acc[3] == "+3.95"
        auc_row = rows[4]
        assert auc_row[3] == "+0.00"

    def test_negative_delta(self):
        report = AblationReport.build(small_report(), small_report(shift=0.0395))
        assert delta_rows(report)[1][3] == "-3.95"


class TestGroupRows:
    def test_ranking_rows_pad_in_given_order(self):
        rows = group_ranking_rows({"b": ["x", "y"], "c": None, "a": ["z"]}, top_n=3)
        assert rows[0] == ["Group", "Status", "Top1", "Top2", "Top3"]
        assert rows[1] == ["b", "ok", "x", "y", ""]
        assert rows[2] == ["c", "skipped", "", "", ""]
        assert rows[3] == ["a", "ok", "z", "", ""]

    def test_winner_rows(self):
        winners = {"a": ("glm", Metrics(0.8, 0.75, 0.9, 0.82)), "b": None}
        rows = group_winner_rows(winners)
        assert rows[1] == ["a", "ok", CLASSIFIER_LABELS["glm"], "80.00", "75.00", "90.00", "0.82"]
        assert rows[2] == ["b", "skipped", "", "", "", "", ""]


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        rows = [["A", "B"], ["1,5", "two"], ["", "x ± y"]]
        path = tmp_path / "r.csv"
        write_rows(path, rows)
        assert read_csv_rows(path) == rows
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_csv_writes_are_byte_identical(self, tmp_path):
        rows = [["A"], ["0.12345"]]
        write_rows(tmp_path / "a.csv", rows)
        write_rows(tmp_path / "b.csv", rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_markdown_layout(self):
        text = rows_to_markdown([["H1", "H2"], ["a", "b"]])
        lines = text.splitlines()
        assert lines[0] == "| H1 | H2 |"
        assert lines[1] == "| --- | --- |"
        assert lines[2] == "| a | b |"
        assert text.endswith("\n")

    def test_rows_to_csv_newlines(self):
        assert rows_to_csv([["a", "b"], ["c", "d"]]) == "a,b\nc,d\n"

    def test_rows_to_csv_quotes_a_carriage_return(self):
        text = rows_to_csv([["g", "x"], ["Fa\rrs", "1"]])
        assert text == 'g,x\n"Fa\rrs",1\n'
        assert list(csv.reader(io.StringIO(text, newline=""))) == [["g", "x"], ["Fa\rrs", "1"]]

    def test_cell_rule(self):
        cases = [
            ("plain", "plain"), ("", ""), (" padded ", " padded "), ("a|b", "a|b"), ("\x00", "\x00"),
            ("a,b", '"a,b"'), ('say "hi"', '"say ""hi"""'), ('"', '""""'), ("a\nb", '"a\nb"'),
            ("a\rb", '"a\rb"'), ("\r\n", '"\r\n"'),
        ]
        for cell, field in cases:
            assert rows_to_csv([[cell, "z"]]) == field + ",z\n", cell
            assert rows_to_csv([["z", cell]]) == "z," + field + "\n", cell
        assert rows_to_csv([[""], ["", ""], ["a"]]) == '""\n,\n' + "a\n"

    def test_cell_rule_is_csv_writer_quoting_both_line_breaks(self):
        rng = random.Random(4180)
        for _ in range(500):
            rows = [[hostile_cell(rng) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 4))]
            assert rows_to_csv(rows) == oracle_csv_text(rows), rows

    def test_markdown_keeps_each_row_on_one_line(self):
        text = rows_to_markdown([["Group", "Status"], ["A|B", "ok"], ["C\nD", "ok"], ["E\r\nF\rG", "ok"]])
        assert text.splitlines() == [
            "| Group | Status |", "| --- | --- |", "| A\\|B | ok |", "| C<br>D | ok |", "| E<br>F<br>G | ok |",
        ]


class TestTableCsvText:
    def test_numeric_cells_round_trip_exactly(self):
        t = make_table(
            {"x": [0.1 + 0.2, 1 / 3, 1e-17], "c": ["u", "v", "u"]},
            [1, 0, 1],
        )
        text = table_to_csv_text(t)
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["x", "c", "label"]
        for parsed, row in zip(rows[1:], t.rows):
            assert float(parsed[0]) == row[0]
            assert parsed[1] == row[1]

    def test_synth_cohort_round_trips_byte_for_byte(self, tmp_path):
        table = synth.generate(synth.default_cohort_spec(n_rows=200, seed=3))
        path = tmp_path / "cohort.csv"
        path.write_text(table_to_csv_text(table), encoding="utf-8", newline="")
        loaded = load_csv(path, list(table.schema))
        assert table_to_csv_text(loaded) == path.read_text(encoding="utf-8")
        # one numpy scalar in a cell would print as np.float64(...) in the CSV
        for t in (table, loaded):
            cells = [c for row in t.rows for c in row]
            cells += [c for name in t.column_names() for c in t.column(name)]
            assert {type(c) for c in cells} == {float, str}
            assert {type(v) for v in t.label01()} == {int}


# Category texts csv must quote or keep as written: a delimiter, a quote, both
# line breaks, spaces, non-ASCII text and the empty string.
ODD_CATEGORIES = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "  spaced  ", "ümlaut ✓", "", "plain"]


def odd_table():
    n = 3 * len(ODD_CATEGORIES)
    schema = (
        ColumnSchema(name="odd", kind=CATEGORICAL),
        ColumnSchema(name="x", kind=NUMERIC),
        ColumnSchema(name="g,roup", kind=CATEGORICAL, role="group"),
        ColumnSchema(name="label", kind=CATEGORICAL, role="label", positive_label="yes"),
    )
    cells = [
        [ODD_CATEGORIES[i % len(ODD_CATEGORIES)] for i in range(n)],
        [i / 7 for i in range(n)],
        [ODD_CATEGORIES[(i * 5) % len(ODD_CATEGORIES)] for i in range(n)],
        [["yes", "", "no, really"][i % 3] for i in range(n)],
    ]
    return Table.from_columns(schema, cells)


class TestColumnWiseWriter:
    """table_to_csv_text against the row-at-a-time writer, byte for byte."""

    def test_odd_categories_in_every_column_position(self):
        table = odd_table()
        for names in (None, ["odd"], ["g,roup"], ["x"], ["odd", "x"]):
            t = table if names is None else table.project(names)
            text = table_to_csv_text(t)
            assert text == oracle_table_csv_text(t)

    def test_one_column_table_writes_an_empty_cell_as_two_quotes(self):
        t = odd_table().project([])
        assert t.column_names() == ["label"]
        text = table_to_csv_text(t)
        assert text == oracle_table_csv_text(t)
        assert text.splitlines()[1:4] == ["yes", '""', '"no, really"']

    def test_extreme_numerics(self):
        values = [0.1 + 0.2, 1e-17, -0.0, 1e16, 5e-324, 1.7976931348623157e308, -1.5, 3.0]
        t = make_table({"x": values, "c": ["u", "v"] * 4}, [1, 0] * 4)
        text = table_to_csv_text(t)
        assert text == oracle_table_csv_text(t)
        cells = [row.split(",")[0] for row in text.splitlines()[1:]]
        assert cells == [repr(v) for v in values]

    def test_default_cohort_of_3000_rows(self):
        table = synth.generate(synth.default_cohort_spec(n_rows=3000, seed=1))
        text = table_to_csv_text(table)
        assert text == oracle_table_csv_text(table)
        assert text.count("\n") == 3001 and text.endswith("\n") and not text.endswith("\n\n")


# Pieces of hostile cell text: both line breaks and their pair, a quote, the
# delimiter, a pipe, padding and non-ASCII text; a cell of no pieces is empty.
HOSTILE_PIECES = ["\r", "\n", "\r\n", '"', ",", "|", " ", "\t", "ü", "✓", "Fars", "x"]


def hostile_cell(rng) -> str:
    return "".join(rng.choice(HOSTILE_PIECES) for _ in range(rng.randint(0, 4)))


def hostile_values(rng, count, taken=("label",)) -> list[str]:
    """`count` distinct hostile texts that a cohort carries as written: each is
    neither empty nor padded, and none is in `taken`."""
    values = []
    while len(values) < count:
        value = rng.choice("abc") + hostile_cell(rng) + rng.choice("xyz")
        if value not in values and value not in taken:
            values.append(value)
    return values


def markdown_cell_counts(text) -> list[int]:
    """The number of cells of each line of a Markdown table; a `\\|` is no
    delimiter."""
    assert text.endswith("\n") and "\r" not in text
    return [len(re.split(r"(?<!\\)\|", line)) - 2 for line in text[:-1].split("\n")]


class TestHostileCells:
    """Reports and cohorts whose text holds line breaks, quotes, delimiters and
    pipes read back as written, and each report renders as one Markdown line per
    CSV row."""

    def report_kinds(self, rng) -> dict:
        """Each report kind's rows, with hostile text wherever a report carries
        text from the cohort: attribute and group names."""
        names = hostile_values(rng, 3)
        cats = hostile_values(rng, 2)
        table = make_table(
            {names[0]: [float(i % 5) for i in range(24)],
             names[1]: [cats[i % 3 == 0] for i in range(24)],
             names[2]: [i * 0.5 for i in range(24)]},
            [i % 2 for i in range(24)],
        )
        groups = hostile_values(rng, 3)
        winner = Metrics(0.8, 0.75, 0.9, 0.82)
        return {
            "weights": weight_matrix_rows(weigh_all(table, n_bins=3, relief_k=2)),
            "without": eval_report_rows(small_report()),
            "delta": delta_rows(AblationReport.build(small_report(shift=0.01), small_report())),
            "group_rankings": group_ranking_rows({groups[0]: names[:2], groups[1]: None, groups[2]: names}),
            "group_winners": group_winner_rows({groups[0]: ("glm", winner), groups[1]: None, groups[2]: ("mlp", winner)}),
        }

    def test_each_report_kind_reads_back_as_written(self, tmp_path):
        rng = random.Random(58)
        for trial in range(20):
            for kind, rows in self.report_kinds(rng).items():
                write_rows(tmp_path / f"{kind}.csv", rows)
                assert read_csv_rows(tmp_path / f"{kind}.csv") == rows, (trial, kind)

    def test_random_rows_read_back_as_written(self, tmp_path):
        rng = random.Random(4180)
        for trial in range(300):
            rows = [[hostile_cell(rng) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 5))]
            write_rows(tmp_path / "r.csv", rows)
            assert read_csv_rows(tmp_path / "r.csv") == rows, trial
            assert markdown_cell_counts(rows_to_markdown(rows)) == [len(rows[0])] + [len(r) for r in rows], trial

    def test_report_renders_one_markdown_line_per_csv_row(self, tmp_path, capsys):
        rng = random.Random(26)
        for trial in range(5):
            for kind, rows in self.report_kinds(rng).items():
                src = tmp_path / f"{kind}.csv"
                write_rows(src, rows)
                assert cli.main(["report", "--data", str(src), "--out", str(tmp_path / "md")]) == 0
                text = (tmp_path / "md" / f"{kind}.md").read_bytes().decode("utf-8")
                assert markdown_cell_counts(text) == [len(rows[0])] * (len(rows) + 1), (trial, kind)
        capsys.readouterr()

    def test_cohorts_of_hostile_categories_load_back_unchanged(self, tmp_path, capsys):
        rng = random.Random(57)
        for trial in range(8):
            names = hostile_values(rng, 4)
            values, groups, labels = (hostile_values(rng, k) for k in (3, 3, 2))
            spec = synth.SynthSpec(
                n_rows=100, group_column=names[2], group_distribution=dict.fromkeys(groups, 1 / 3),
                features=(synth.FeatureDef(name=names[0], kind=NUMERIC),
                          synth.FeatureDef(name=names[1], kind=CATEGORICAL, values=tuple(values),
                                           probabilities=(0.5, 0.25, 0.25))),
                coefficients={}, label_column=names[3], positive_label=labels[0], negative_label=labels[1],
                seed=trial,
            )
            (tmp_path / "spec.json").write_text(json.dumps(synth.spec_to_json(spec)), encoding="utf-8")
            out = tmp_path / f"cohort{trial}"
            assert cli.main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 0
            table = synth.generate(spec)
            loaded = load_csv(out / "cohort.csv", load_schema_json(out / "schema.json"))
            assert loaded.column_names() == table.column_names() and loaded.imputations == {}
            assert loaded.categories == table.categories, trial
            assert all(np.array_equal(a, b) for a, b in zip(loaded.data, table.data, strict=True))
            assert sorted(c for cats in loaded.categories if cats for c in cats) == sorted(values + groups + labels)
        capsys.readouterr()
