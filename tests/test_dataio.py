"""Schema validation, CSV ingestion, folds, and group filtering."""

import random

import pytest

import oracles
from featrank.dataio import (
    CATEGORICAL,
    NUMERIC,
    ColumnSchema,
    Table,
    filter_by_group,
    load_csv,
    load_schema_json,
    observed_groups,
    schema_to_json,
    split,
    stratified_folds,
    validate_schema,
)
from helpers import make_table


def schema_two_features():
    return [
        ColumnSchema(name="age", kind=NUMERIC),
        ColumnSchema(name="smoke", kind=CATEGORICAL),
        ColumnSchema(name="cad", kind=CATEGORICAL, role="label", positive_label="yes"),
    ]


class TestColumnSchema:
    def test_label_requires_positive_label(self):
        with pytest.raises(ValueError, match="positive_label"):
            ColumnSchema(name="cad", kind=CATEGORICAL, role="label")

    def test_label_must_be_categorical(self):
        with pytest.raises(ValueError, match="categorical"):
            ColumnSchema(name="cad", kind=NUMERIC, role="label", positive_label="1")

    def test_group_must_be_categorical(self):
        with pytest.raises(ValueError, match="categorical"):
            ColumnSchema(name="eth", kind=NUMERIC, role="group")

    def test_positive_label_only_on_label(self):
        with pytest.raises(ValueError, match="positive_label"):
            ColumnSchema(name="age", kind=NUMERIC, positive_label="yes")

    def test_unknown_kind_and_role(self):
        with pytest.raises(ValueError, match="kind"):
            ColumnSchema(name="age", kind="integer")
        with pytest.raises(ValueError, match="role"):
            ColumnSchema(name="age", kind=NUMERIC, role="target")

    def test_empty_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            ColumnSchema(name="", kind=NUMERIC)

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("name", dict(name=5, kind=NUMERIC)),
            ("positive_label", dict(name="cad", kind=CATEGORICAL, role="label", positive_label=1)),
        ],
    )
    def test_wrong_type_is_value_error_naming_the_field(self, field, fields):
        with pytest.raises(ValueError, match=field):
            ColumnSchema(**fields)


class TestValidateSchema:
    def test_duplicate_names(self):
        cols = schema_two_features() + [ColumnSchema(name="age", kind=NUMERIC)]
        with pytest.raises(ValueError, match="duplicate"):
            validate_schema(cols)

    def test_exactly_one_label(self):
        with pytest.raises(ValueError, match="label"):
            validate_schema([ColumnSchema(name="age", kind=NUMERIC)])
        two = schema_two_features() + [
            ColumnSchema(name="cad2", kind=CATEGORICAL, role="label", positive_label="y")
        ]
        with pytest.raises(ValueError, match="label"):
            validate_schema(two)

    def test_at_most_one_group(self):
        cols = schema_two_features() + [
            ColumnSchema(name="g1", kind=CATEGORICAL, role="group"),
            ColumnSchema(name="g2", kind=CATEGORICAL, role="group"),
        ]
        with pytest.raises(ValueError, match="group"):
            validate_schema(cols)

    def test_schema_json_round_trip(self, tmp_path):
        cols = schema_two_features() + [ColumnSchema(name="eth", kind=CATEGORICAL, role="group")]
        path = tmp_path / "schema.json"
        import json

        path.write_text(json.dumps(schema_to_json(cols)))
        back = load_schema_json(path)
        assert back == cols


class TestTable:
    def test_basic_accessors(self):
        t = make_table({"age": [50, 60], "smoke": ["y", "n"]}, [1, 0], group=("eth", ["a", "b"]))
        assert t.n_rows == 2
        assert t.feature_names() == ["age", "smoke", "eth"]
        assert t.label_column.name == "label"
        assert t.group_column.name == "eth"
        assert t.label01() == [1, 0]
        assert t.column("age") == [50.0, 60.0]

    def test_features_select_in_schema_order(self):
        t = make_table({"age": [50, 60], "smoke": ["y", "n"]}, [1, 0], group=("eth", ["a", "b"]))
        assert t.features() == ["age", "smoke", "eth"]
        assert t.features(["eth", "age"]) == ["age", "eth"]
        assert t.features(drop=("eth",)) == ["age", "smoke"]
        assert t.features(["eth", "age"], drop=["age"]) == ["eth"]

    @pytest.mark.parametrize("names, drop", [(["age", "nope"], ()), (None, ("nope",)), (["label"], ())])
    def test_features_refuse_a_name_that_is_not_a_feature_column(self, names, drop):
        t = make_table({"age": [50, 60]}, [1, 0], group=("eth", ["a", "b"]))
        with pytest.raises(ValueError, match="unknown feature '(nope|label)': not a feature column"):
            t.features(names, drop)

    @pytest.mark.parametrize("names, drop", [([], ()), (None, ("age", "eth")), (["age"], ("age",))])
    def test_features_refuse_an_empty_selection(self, names, drop):
        t = make_table({"age": [50, 60]}, [1, 0], group=("eth", ["a", "b"]))
        with pytest.raises(ValueError, match="selects no columns: no feature columns remain"):
            t.features(names, drop)

    def test_col_index_unknown(self):
        t = make_table({"age": [50, 60]}, [1, 0])
        with pytest.raises(KeyError):
            t.col_index("nope")

    def test_no_group_column_is_none(self):
        t = make_table({"age": [50, 60]}, [1, 0])
        assert t.group_column is None
        assert observed_groups(t) == []

    def test_ragged_rows_rejected(self):
        cols = tuple(schema_two_features())
        with pytest.raises(ValueError, match="unequal length"):
            Table.from_columns(cols, [[1.0, 2.0], ["y"], ["yes", "no"]])

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            Table.from_columns(tuple(schema_two_features()), [[], [], []])

    def test_take_preserves_order_and_duplicates(self):
        t = make_table({"age": [1, 2, 3]}, [1, 0, 1])
        sub = t.take([2, 0, 2])
        assert sub.column("age") == [3.0, 1.0, 3.0]
        with pytest.raises(ValueError):
            t.take([])

    def test_project_keeps_label_and_validates(self):
        t = make_table({"age": [1, 2], "bmi": [3, 4]}, [1, 0], group=("eth", ["a", "b"]))
        kept = t.project(["age"])
        assert kept.feature_names() == ["age"]
        assert kept.label01() == [1, 0]
        with pytest.raises(ValueError, match="unknown"):
            t.project(["age", "nope"])
        # the label cannot be projected as if it were a feature
        with pytest.raises(ValueError, match="unknown"):
            t.project(["label"])


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_happy_path_any_header_order(self, tmp_path):
        path = self.write(tmp_path, "cad,age,smoke\nyes,50,y\nno,60,n\n")
        t = load_csv(path, schema_two_features())
        assert t.n_rows == 2
        assert t.column("age") == [50.0, 60.0]
        assert t.label01() == [1, 0]
        assert t.imputations == {}

    def test_numeric_imputed_with_median(self, tmp_path):
        path = self.write(tmp_path, "age,smoke,cad\n10,y,yes\n,y,no\n20,n,yes\n30,n,no\n")
        t = load_csv(path, schema_two_features())
        assert t.column("age")[1] == 20.0
        assert t.imputations == {"age": 1}

    def test_categorical_imputed_with_mode_tie_lexicographic(self, tmp_path):
        path = self.write(tmp_path, "age,smoke,cad\n1,b,yes\n2,a,no\n3,,yes\n")
        t = load_csv(path, schema_two_features())
        assert t.column("smoke")[2] == "a"
        assert t.imputations == {"smoke": 1}

    def test_missing_label_refused(self, tmp_path):
        path = self.write(tmp_path, "age,smoke,cad\n1,y,yes\n2,n,\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path, schema_two_features())

    def test_header_mismatch(self, tmp_path):
        extra = self.write(tmp_path, "age,smoke,cad,bmi\n1,y,yes,2\n")
        with pytest.raises(ValueError, match="unknown columns"):
            load_csv(extra, schema_two_features())
        missing = self.write(tmp_path, "age,cad\n1,yes\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_csv(missing, schema_two_features())

    def test_duplicate_header_column(self, tmp_path):
        path = self.write(tmp_path, "age,smoke,cad,age\n1,y,yes,2\n3,n,no,4\n")
        with pytest.raises(ValueError, match=r"duplicate columns in header: \['age'\]"):
            load_csv(path, schema_two_features())

    def test_non_binary_label(self, tmp_path):
        path = self.write(tmp_path, "age,smoke,cad\n1,y,yes\n2,n,no\n3,n,maybe\n")
        with pytest.raises(ValueError, match="non-binary"):
            load_csv(path, schema_two_features())

    def test_positive_label_never_observed(self, tmp_path):
        path = self.write(tmp_path, "age,smoke,cad\n1,y,no\n2,n,nope\n")
        with pytest.raises(ValueError, match="never observed"):
            load_csv(path, schema_two_features())

    def test_unparseable_and_non_finite_numerics(self, tmp_path):
        bad = self.write(tmp_path, "age,smoke,cad\nfifty,y,yes\n2,n,no\n")
        with pytest.raises(ValueError, match="unparseable"):
            load_csv(bad, schema_two_features())
        inf = self.write(tmp_path, "age,smoke,cad\ninf,y,yes\n2,n,no\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(inf, schema_two_features())

    def test_ragged_row(self, tmp_path):
        path = self.write(tmp_path, "age,smoke,cad\n1,y,yes\n2,n\n")
        with pytest.raises(ValueError, match="expected 3 cells"):
            load_csv(path, schema_two_features())

    def refusal(self, tmp_path, text) -> tuple[str, str]:
        """The whole message `load_csv` refuses `text` with, and the file's path."""
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError) as caught:
            load_csv(path, schema_two_features())
        return str(caught.value), str(path)

    def test_earlier_row_reported_before_earlier_column(self, tmp_path):
        # line 3's bad cell is in a later column than line 4's
        message, path = self.refusal(tmp_path, "age,smoke,cad\n1,y,yes\n2,\x00n,no\nfifty,y,yes\n")
        assert message == f"{path}: line 3: NUL byte in column 'smoke'"

    def test_bad_cell_reported_before_later_ragged_row(self, tmp_path):
        message, path = self.refusal(tmp_path, "age,smoke,cad\n1,y,yes\nfifty,n,no\n3,y\n")
        assert message == f"{path}: line 3: unparseable numeric cell 'fifty' in column 'age'"

    def test_ragged_row_reported_before_later_bad_cell(self, tmp_path):
        message, path = self.refusal(tmp_path, "age,smoke,cad\n1,y,yes\n2,n\nfifty,y,yes\n")
        assert message == f"{path}: line 3: expected 3 cells, got 2"

    def test_bad_cells_in_one_row_reported_in_schema_order(self, tmp_path):
        # the header puts smoke and the label before age; the schema puts age first
        message, path = self.refusal(tmp_path, "smoke,cad,age\ny,yes,1\n\x00,,inf\n")
        assert message == f"{path}: line 3: non-finite numeric cell in column 'age'"
        message, path = self.refusal(tmp_path, "smoke,cad,age\ny,yes,1\n\x00,,2\n")
        assert message == f"{path}: line 3: NUL byte in column 'smoke'"

    @pytest.mark.parametrize("row, column", [("\x00,y,yes", "age"), ("1,\x00,yes", "smoke")])
    def test_cell_of_only_nul_reported_as_nul(self, tmp_path, row, column):
        message, path = self.refusal(tmp_path, f"age,smoke,cad\n2,n,no\n{row}\n")
        assert message == f"{path}: line 3: NUL byte in column {column!r}"

    def test_blank_numeric_imputed_and_blank_label_refused(self, tmp_path):
        path = self.write(tmp_path, "age,smoke,cad\n10,y,yes\n  ,n,no\n30,n,yes\n")
        t = load_csv(path, schema_two_features())
        assert t.column("age") == [10.0, 20.0, 30.0] and t.imputations == {"age": 1}
        message, path = self.refusal(tmp_path, "age,smoke,cad\n10,y,yes\n20,n, \n")
        assert message == f"{path}: line 3: missing label cell"

    def test_equals_the_per_cell_loop_on_random_files(self, tmp_path):
        rng = random.Random(12)
        schema = schema_two_features() + [ColumnSchema(name="bmi", kind=NUMERIC)]
        good = {"age": ["50", " 6.5e1 ", "1_0", "-0.0"], "bmi": ["21", "30.5"], "smoke": ["y", " n"]}
        bad = ["", " ", "\x00", "a\x00", "fifty", "inf", "nan", "1e999", "0x10"]
        for trial in range(300):
            header = ["age", "smoke", "cad", "bmi"]
            rng.shuffle(header)
            rows = []
            for r in range(rng.randint(2, 6)):
                label = ["yes", "no"][r] if r < 2 else rng.choice(["yes", "no"])
                row = [label if h == "cad" else rng.choice(good[h]) for h in header]
                for j, h in enumerate(header):
                    if rng.random() < 0.07:
                        row[j] = rng.choice(bad[:4] if h == "cad" else bad)
                rows.append(row[: rng.choice([len(row)] * 20 + [len(row) - 1])])
            path = self.write(tmp_path, "\n".join(",".join(row) for row in [header, *rows]) + "\n")
            expected = oracles.oracle_csv_cells(path, header, rows, schema)
            if isinstance(expected, str):
                with pytest.raises(ValueError) as caught:
                    load_csv(path, schema)
                assert str(caught.value) == expected, trial
                continue
            t = load_csv(path, schema)
            for name, values in expected.items():
                assert [v for v in values if v is not None] == [
                    v for v, given in zip(t.column(name), values) if given is not None
                ], trial
            assert t.imputations == {
                name: values.count(None) for name, values in expected.items() if None in values
            }, trial

    def test_empty_and_headerless(self, tmp_path):
        empty = self.write(tmp_path, "")
        with pytest.raises(ValueError, match="empty"):
            load_csv(empty, schema_two_features())
        headeronly = self.write(tmp_path, "age,smoke,cad\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(headeronly, schema_two_features())


class TestFolds:
    def test_stratified_counts_within_one(self):
        t = make_table({"x": list(range(103))}, [1] * 37 + [0] * 66)
        plan = stratified_folds(t, 10, seed=3)
        y = t.label01()
        pos_counts = []
        sizes = []
        for f in range(10):
            idx = plan.fold_indices(f)
            sizes.append(len(idx))
            pos_counts.append(sum(y[i] for i in idx))
        assert max(pos_counts) - min(pos_counts) <= 1
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 103

    def test_determinism_and_seed_sensitivity(self):
        t = make_table({"x": list(range(40))}, [1] * 20 + [0] * 20)
        a = stratified_folds(t, 5, seed=9)
        b = stratified_folds(t, 5, seed=9)
        c = stratified_folds(t, 5, seed=10)
        assert a == b
        assert a != c

    def test_k_range_errors(self):
        t = make_table({"x": list(range(10))}, [1] * 5 + [0] * 5)
        with pytest.raises(ValueError, match="out of range"):
            stratified_folds(t, 1, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            stratified_folds(t, 11, seed=0)

    def test_class_smaller_than_k(self):
        t = make_table({"x": list(range(10))}, [1] * 2 + [0] * 8)
        with pytest.raises(ValueError, match="fewer than k"):
            stratified_folds(t, 3, seed=0)

    def test_split_partitions(self):
        t = make_table({"x": list(range(20))}, [1] * 10 + [0] * 10)
        plan = stratified_folds(t, 4, seed=1)
        train, test = split(t, plan, 2)
        assert train.n_rows + test.n_rows == 20
        assert sorted(train.column("x") + test.column("x")) == [float(i) for i in range(20)]
        with pytest.raises(ValueError, match="out of range"):
            split(t, plan, 4)

    def test_split_checks_plan_size(self):
        t = make_table({"x": list(range(20))}, [1] * 10 + [0] * 10)
        plan = stratified_folds(t, 4, seed=1)
        smaller = t.take(range(10))
        with pytest.raises(ValueError, match="does not match"):
            split(smaller, plan, 0)


class TestGroups:
    def test_filter_by_group(self):
        t = make_table({"x": [1, 2, 3, 4]}, [1, 0, 1, 0], group=("eth", ["a", "b", "a", "b"]))
        sub = filter_by_group(t, "a")
        assert sub.column("x") == [1.0, 3.0]
        assert sub.feature_names() == ["x", "eth"]

    def test_filter_unknown_group(self):
        t = make_table({"x": [1, 2]}, [1, 0], group=("eth", ["a", "b"]))
        with pytest.raises(ValueError, match="never occurs"):
            filter_by_group(t, "zzz")

    def test_filter_without_group_column(self):
        t = make_table({"x": [1, 2]}, [1, 0])
        with pytest.raises(ValueError, match="no group column"):
            filter_by_group(t, "a")

    def test_observed_groups_sorted(self):
        t = make_table({"x": [1, 2, 3]}, [1, 0, 1], group=("eth", ["c", "a", "b"]))
        assert observed_groups(t) == ["a", "b", "c"]
