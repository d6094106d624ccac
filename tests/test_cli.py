"""End-to-end command-line runs against temporary directories."""

import csv
import json
import re

import numpy as np
import pytest

import featrank as fr
from featrank import classifiers, cli, synth
from featrank.classifiers import model_from_json
from featrank.cli import main
from featrank.reporting import read_csv_rows, rows_to_markdown


LABEL_ENTRY = {"name": "cad", "kind": "categorical", "role": "label", "positive_label": "yes"}
SPEC_DOC = fr.spec_to_json(fr.default_cohort_spec(n_rows=120))


def run(*argv):
    return main(list(argv))


def cut(cohort, tmp_path, names):
    """--data and --schema for the cohort's columns `names` alone."""
    with open(cohort / "cohort.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    at = [rows[0].index(name) for name in names]
    data, schema = tmp_path / "cut.csv", tmp_path / "cut.json"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([row[i] for i in at] for row in rows)
    entries = json.loads((cohort / "schema.json").read_text())["columns"]
    schema.write_text(json.dumps({"columns": [e for e in entries if e["name"] in names]}))
    return ["--data", str(data), "--schema", str(schema)]


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """A small generated cohort shared by the pipeline commands."""
    out = tmp_path_factory.mktemp("cohort")
    assert run("synth", "--rows", "300", "--seed", "5", "--out", str(out)) == 0
    return out


class TestSynth:
    def test_writes_cohort_schema_truth(self, tmp_path, capsys):
        assert run("synth", "--rows", "200", "--seed", "1", "--out", str(tmp_path)) == 0
        for name in ("cohort.csv", "schema.json", "truth.json"):
            assert (tmp_path / name).exists()
        out = capsys.readouterr().out
        assert "generated 200 rows" in out
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["realized_prevalence"] == pytest.approx(0.64, abs=0.005)

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--rows", "150", "--seed", "7", "--out", str(out)) == 0
        assert (a / "cohort.csv").read_bytes() == (b / "cohort.csv").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()

    def test_spec_file_with_seed_override(self, tmp_path, cohort):
        spec = fr.default_cohort_spec(n_rows=120, seed=0)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(fr.spec_to_json(spec)))
        out = tmp_path / "out"
        assert run("synth", "--spec", str(spec_path), "--seed", "9", "--out", str(out)) == 0
        rows = read_csv_rows(out / "cohort.csv")
        assert len(rows) == 121  # header plus spec-declared rows

    def test_invalid_spec_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n_rows\": 5}")
        assert run("synth", "--spec", str(bad), "--out", str(tmp_path / "o")) == 1
        assert "invalid synth spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change",
        [
            None,  # the whole document is a list
            {"features": "x"},
            {"coefficients": []},
            {"group_distribution": {"a": "1"}},
            {"group_offsets": {"Fars": "x"}},
            {"seed": "3"},
            {"seed": -1},
            {"n_rows": 150.5},
            {"coefficients": {"Fars": {"age": "1"}}},
            {"noise_sd": float("nan")},
            {"noise-sd": 0.0},
            {"features": [SPEC_DOC["features"][0] | {"values": ["a", "b"]}] + SPEC_DOC["features"][1:]},
        ],
        ids=[
            "list", "features-string", "coefficients-list", "probability-string",
            "offset-string", "seed-string", "seed-negative", "rows-fraction",
            "coefficient-string", "noise-nan", "unknown-key", "numeric-feature-values",
        ],
    )
    def test_malformed_spec_is_config_error(self, tmp_path, capsys, change):
        doc = [] if change is None else SPEC_DOC | change
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("synth", "--spec", str(bad), "--out", str(tmp_path / "o")) == 1
        assert "invalid synth spec" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        assert run("synth", "--rows", "150", "--seed", "-1", "--out", str(tmp_path / "o")) == 1
        assert "--seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["-5", "0", "99"])
    def test_too_few_rows_is_config_error(self, tmp_path, capsys, rows):
        assert run("synth", "--rows", rows, "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least 100" in err
        assert not (tmp_path / "o").exists()


class TestWeigh:
    def test_csv_report(self, cohort, tmp_path, capsys):
        out = tmp_path / "w"
        code = run(
            "weigh", "--data", str(cohort / "cohort.csv"),
            "--schema", str(cohort / "schema.json"), "--out", str(out),
        )
        assert code == 0
        rows = read_csv_rows(out / "weights.csv")
        assert len(rows) == 10  # header plus nine attributes
        assert "wrote weight report for 9 attributes" in capsys.readouterr().out

    @pytest.mark.parametrize("command, extra, stems, header", [
        ("weigh", (), ("weights",), "| Attribute |"),
        ("ablate", ("--feature", "ethnicity", "--folds", "2", "--classifiers", "glm"),
         ("without", "with", "delta"), "| Metric |"),
        ("groups", ("--folds", "2", "--classifiers", "glm"), ("group_rankings", "group_winners"),
         "| Group | Status |"),
    ], ids=["weigh", "ablate", "groups"])
    def test_markdown_comes_from_report_only(self, cohort, tmp_path, capsys, command, extra, stems, header):
        files = ("--data", str(cohort / "cohort.csv"), "--schema", str(cohort / "schema.json"))
        assert run(command, *files, "--out", str(tmp_path / "md"), *extra, "--format", "md") == 1
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        out = tmp_path / "csv"
        assert run(command, *files, "--out", str(out), *extra) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(f"{stem}.csv" for stem in stems)
        for stem in stems:
            assert run("report", "--data", str(out / f"{stem}.csv"), "--out", str(tmp_path / "r")) == 0
            md = (tmp_path / "r" / f"{stem}.md").read_text(encoding="utf-8")
            # the text `--format md` wrote: the emitted rows rendered as Markdown
            assert md == rows_to_markdown(read_csv_rows(out / f"{stem}.csv"))
            assert md.startswith(header)

    def test_deterministic_output(self, cohort, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run(
                "weigh", "--data", str(cohort / "cohort.csv"),
                "--schema", str(cohort / "schema.json"),
                "--out", str(out), "--seed", "3",
            ) == 0
        assert (outs[0] / "weights.csv").read_bytes() == (outs[1] / "weights.csv").read_bytes()

    def test_missing_data_path(self, cohort, tmp_path, capsys):
        code = run(
            "weigh", "--data", str(tmp_path / "nope.csv"),
            "--schema", str(cohort / "schema.json"), "--out", str(tmp_path),
        )
        assert code == 1
        assert "does not exist" in capsys.readouterr().err

    def test_malformed_csv_is_data_error(self, cohort, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("just,two\n1,2\n")
        code = run(
            "weigh", "--data", str(bad),
            "--schema", str(cohort / "schema.json"), "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"columns": "x"},
            {"columns": ["a"]},
            {"columns": [{"name": ["age"], "kind": "numeric"}, LABEL_ENTRY]},
        ],
    )
    def test_malformed_schema_is_data_error(self, cohort, tmp_path, capsys, doc):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(doc))
        code = run(
            "weigh", "--data", str(cohort / "cohort.csv"),
            "--schema", str(schema), "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_flag_values(self, cohort, tmp_path, capsys):
        base = [
            "weigh", "--data", str(cohort / "cohort.csv"),
            "--schema", str(cohort / "schema.json"), "--out", str(tmp_path / "o"),
        ]
        assert run(*base, "--bins", "0") == 1
        assert "--bins" in capsys.readouterr().err
        assert run(*base, "--relief-k", "0") == 1

    def test_impossible_relief_k_makes_no_out_directory(self, cohort, tmp_path, capsys):
        out = tmp_path / "new" / "o"
        code = run(
            "weigh", "--data", str(cohort / "cohort.csv"),
            "--schema", str(cohort / "schema.json"), "--out", str(out), "--relief-k", "500",
        )
        assert code == 3
        assert "compute error" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_label_only_schema_is_data_error(self, cohort, tmp_path, capsys):
        out = tmp_path / "new" / "w"
        assert run("weigh", *cut(cohort, tmp_path, ["cad"]), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "no feature columns" in err
        assert not (tmp_path / "new").exists()


class TestAblate:
    def base_args(self, cohort, out):
        return [
            "ablate", "--data", str(cohort / "cohort.csv"),
            "--schema", str(cohort / "schema.json"), "--out", str(out),
            "--feature", "ethnicity", "--folds", "3",
            "--classifiers", "decision_tree,glm",
        ]

    def test_writes_three_reports(self, cohort, tmp_path, capsys):
        out = tmp_path / "a"
        assert run(*self.base_args(cohort, out)) == 0
        for stem in ("with", "without", "delta"):
            rows = read_csv_rows(out / f"{stem}.csv")
            assert rows[0][0] == "Metric"
        assert "ablation of 'ethnicity' complete" in capsys.readouterr().out

    def test_deterministic_reports(self, cohort, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run(*self.base_args(cohort, out), "--seed", "2") == 0
        for stem in ("with", "without", "delta"):
            assert (outs[0] / f"{stem}.csv").read_bytes() == (outs[1] / f"{stem}.csv").read_bytes()

    def test_save_model_writes_loadable_json(self, cohort, tmp_path):
        out = tmp_path / "a"
        assert run(*self.base_args(cohort, out), "--save-model") == 0
        for kind in ("decision_tree", "glm"):
            doc = json.loads((out / "models" / f"{kind}.json").read_text())
            model = model_from_json(doc)
            assert model.spec.kind == kind

    def test_saved_trees_load_and_write_back_equal(self, cohort, tmp_path):
        out = tmp_path / "a"
        args = self.base_args(cohort, out)
        kinds = ("decision_tree", "random_forest", "gbt")
        args[args.index("decision_tree,glm")] = ",".join(kinds)
        assert run(*args, "--seed", "4", "--save-model") == 0
        table = fr.load_csv(cohort / "cohort.csv", fr.load_schema_json(cohort / "schema.json"))
        for spec in (s for s in fr.default_specs(4) if s.kind in kinds):
            text = (out / "models" / f"{spec.kind}.json").read_text(encoding="utf-8")
            loaded = model_from_json(json.loads(text))
            assert json.dumps(fr.model_to_json(loaded), indent=2, sort_keys=True) + "\n" == text
            name = "root" if spec.kind == "decision_tree" else "roots"
            fitted = getattr(fr.fit(spec, table).inner, name)
            back = getattr(loaded.inner, name)
            assert (back.single, back.depth) == (fitted.single, fitted.depth)
            for array in ("feature", "threshold", "left", "right", "value", "roots"):
                a, b = getattr(fitted, array), getattr(back, array)
                assert a.dtype == b.dtype and np.array_equal(a, b), (spec.kind, array)

    def test_unknown_feature_is_config_error(self, cohort, tmp_path, capsys):
        args = self.base_args(cohort, tmp_path / "o")
        args[args.index("ethnicity")] = "bogus"
        assert run(*args) == 1
        assert "not a feature column" in capsys.readouterr().err

    def test_unknown_classifier_is_config_error(self, cohort, tmp_path, capsys):
        args = self.base_args(cohort, tmp_path / "o")
        args[args.index("decision_tree,glm")] = "svm"
        assert run(*args) == 1
        assert "unknown classifiers" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--feature", "bogus"), ("--classifiers", "svm")])
    def test_refused_argument_makes_no_out_directory(self, cohort, tmp_path, capsys, flag, value):
        out = tmp_path / "new" / "o"
        args = self.base_args(cohort, out)
        args[args.index(flag) + 1] = value
        assert run(*args) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "new").exists()

    def test_impossible_folds_is_compute_error(self, cohort, tmp_path, capsys):
        args = self.base_args(cohort, tmp_path / "o")
        args[args.index("3")] = "150"
        assert run(*args) == 3
        assert "compute error" in capsys.readouterr().err

    def test_impossible_folds_makes_no_out_directory(self, cohort, tmp_path, capsys):
        args = self.base_args(cohort, tmp_path / "new" / "o")
        args[args.index("3")] = "400"
        assert run(*args) == 3
        assert "compute error" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_only_feature_column_is_config_error(self, cohort, tmp_path, capsys):
        out = tmp_path / "new" / "a"
        args = [*cut(cohort, tmp_path, ["age", "cad"]), "--out", str(out), "--folds", "2"]
        assert run("ablate", *args, "--feature", "age") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "selects no columns" in err
        assert not (tmp_path / "new").exists()

    def test_failed_fit_makes_no_out_directory(self, tmp_path, capsys):
        data, schema = tmp_path / "tiny.csv", tmp_path / "tiny.json"
        rows = (f"{i},{'pq'[i % 2]},{'yes' if i < 6 else 'no'}\n" for i in range(12))
        data.write_text("x,c,cad\n" + "".join(rows))
        entries = [{"name": "x", "kind": "numeric"}, {"name": "c", "kind": "categorical"}, LABEL_ENTRY]
        schema.write_text(json.dumps({"columns": entries}))
        out = tmp_path / "new" / "a"
        args = ["--data", str(data), "--schema", str(schema), "--out", str(out), "--folds", "2"]
        assert run("ablate", *args, "--feature", "x") == 3
        assert "training requires at least 10 rows" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_folds_below_two_rejected(self, cohort, tmp_path, capsys):
        args = self.base_args(cohort, tmp_path / "o")
        args[args.index("3")] = "1"
        assert run(*args) == 1
        assert "--folds" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["nan", "1.5"])
    def test_smote_ratio_outside_unit_interval_rejected(self, cohort, tmp_path, capsys, ratio):
        assert run(*self.base_args(cohort, tmp_path / "o"), "--smote-ratio", ratio) == 1
        assert "--smote-ratio" in capsys.readouterr().err


class TestGroups:
    def test_rankings_and_winners(self, cohort, tmp_path):
        out = tmp_path / "g"
        code = run(
            "groups", "--data", str(cohort / "cohort.csv"),
            "--schema", str(cohort / "schema.json"), "--out", str(out),
            "--folds", "3", "--classifiers", "decision_tree",
        )
        assert code == 0
        rankings = read_csv_rows(out / "group_rankings.csv")
        winners = read_csv_rows(out / "group_winners.csv")
        assert rankings[0][:2] == ["Group", "Status"]
        assert winners[0][:3] == ["Group", "Status", "Classifier"]
        statuses = {row[1] for row in rankings[1:]}
        assert "ok" in statuses  # the dominant group is large enough
        assert "skipped" in statuses  # rare groups in a 300-row cohort are not

    def test_printed_counts_are_the_ok_rows(self, cohort, tmp_path, capfd):
        out = tmp_path / "g"
        code = run(
            "groups", "--data", str(cohort / "cohort.csv"),
            "--schema", str(cohort / "schema.json"), "--out", str(out),
            "--folds", "3", "--classifiers", "decision_tree,glm",
        )
        assert code == 0
        printed = capfd.readouterr()
        assert printed.err == ""
        match = re.search(r"ranked (\d+) groups, selected winners for (\d+);", printed.out)
        ok_rows = [
            sum(row[1] == "ok" for row in read_csv_rows(out / f"{stem}.csv")[1:])
            for stem in ("group_rankings", "group_winners")
        ]
        assert [int(n) for n in match.groups()] == ok_rows
        assert "skipped" in {row[1] for row in read_csv_rows(out / "group_winners.csv")}

    def test_unknown_classifier_makes_no_out_directory(self, cohort, tmp_path, capsys):
        out = tmp_path / "new" / "g"
        code = run(
            "groups", "--data", str(cohort / "cohort.csv"),
            "--schema", str(cohort / "schema.json"), "--out", str(out),
            "--folds", "3", "--classifiers", "svm",
        )
        assert code == 1
        assert "unknown classifiers" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_schema_without_group_column_is_data_error(self, cohort, tmp_path, capsys):
        doc = json.loads((cohort / "schema.json").read_text())
        for entry in doc["columns"]:
            if entry["role"] == "group":
                entry["role"] = "feature"
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(doc))
        files = ["--data", str(cohort / "cohort.csv"), "--schema", str(schema)]
        assert run("groups", *files, "--out", str(tmp_path / "g"), "--folds", "2") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "group" in err
        assert run("weigh", *files, "--out", str(tmp_path / "w")) == 0
        ablate = ["--feature", "ethnicity", "--folds", "2", "--classifiers", "glm"]
        assert run("ablate", *files, "--out", str(tmp_path / "a"), *ablate) == 0

    def test_group_and_label_only_schema_is_data_error(self, cohort, tmp_path, capsys):
        out = tmp_path / "new" / "g"
        args = [*cut(cohort, tmp_path, ["ethnicity", "cad"]), "--out", str(out), "--folds", "2"]
        assert run("groups", *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "no feature columns" in err
        assert not (tmp_path / "new").exists()


class TestReport:
    def test_renders_markdown_from_csv(self, cohort, tmp_path):
        wout = tmp_path / "w"
        assert run(
            "weigh", "--data", str(cohort / "cohort.csv"),
            "--schema", str(cohort / "schema.json"), "--out", str(wout),
        ) == 0
        rout = tmp_path / "r"
        assert run("report", "--data", str(wout / "weights.csv"), "--out", str(rout)) == 0
        expected = rows_to_markdown(read_csv_rows(wout / "weights.csv"))
        assert (rout / "weights.md").read_text(encoding="utf-8") == expected

    def test_missing_source_is_config_error(self, tmp_path):
        assert run("report", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)) == 1

    def test_format_flag_refused(self, cohort, tmp_path, capsys):
        args = ("report", "--data", str(cohort / "cohort.csv"), "--out", str(tmp_path / "r"))
        assert run(*args, "--format", "md") == 1
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_empty_source_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run("report", "--data", str(empty), "--out", str(tmp_path / "o")) == 2
        assert "is empty" in capsys.readouterr().err


class TestParser:
    def test_missing_subcommand_is_config_error(self, capsys):
        assert run() == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        assert run("synth", "--out", str(tmp_path), "--frobnicate") == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ("weigh", "--data", "CSV", "--schema", "SCHEMA"),
        ("ablate", "--data", "CSV", "--schema", "SCHEMA", "--feature", "ethnicity", "--folds", "2"),
        ("groups", "--data", "CSV", "--schema", "SCHEMA", "--folds", "2"),
        ("synth", "--rows", "150"),
        ("report", "--data", "CSV"),
    ],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below-file"])
def test_existing_file_as_out_is_config_error(cohort, tmp_path, capsys, command, below):
    taken = tmp_path / "taken"
    taken.write_text("x")
    paths = {"CSV": str(cohort / "cohort.csv"), "SCHEMA": str(cohort / "schema.json")}
    out = taken.joinpath(*below)
    assert run(*(paths.get(a, a) for a in command), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


@pytest.mark.parametrize(
    "command",
    [
        ("weigh", "--data", "CSV", "--schema", "SCHEMA"),
        ("ablate", "--data", "CSV", "--schema", "SCHEMA", "--feature", "ethnicity", "--folds", "2"),
        ("groups", "--data", "CSV", "--schema", "SCHEMA", "--folds", "2"),
        ("synth", "--rows", "150"),
    ],
    ids=lambda c: c[0],
)
def test_out_below_a_file_is_refused_before_any_work(cohort, tmp_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before --out was checked")

    for module, name in ((classifiers, "fit"), (cli, "weigh_all"), (synth, "generate_with_truth")):
        monkeypatch.setattr(module, name, no_work)
    taken = tmp_path / "taken"
    taken.write_text("x")
    paths = {"CSV": str(cohort / "cohort.csv"), "SCHEMA": str(cohort / "schema.json")}
    out = taken / "sub" / "out"
    assert run(*(paths.get(a, a) for a in command), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "work began" not in err
    assert taken.read_text() == "x"
