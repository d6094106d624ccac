"""Seeded mutations of one valid cohort: the CLI refuses each with a message.

Every case derives one malformed schema or cohort CSV from a small synthetic
cohort (which columns and rows it touches come from a seeded
`random.Random`), runs `weigh`, `ablate` and `groups` in-process on it, and
expects exit 1 or 2 with an error line: never exit 0, a compute error or an
exception. `report` gets the malformed inputs a CSV renderer can see.
The six model documents `ablate --save-model` writes for the cohort are
mutated the same way, and `model_from_json` must refuse each with a
`ValueError`.
"""

import csv
import io
import json
import random

import pytest

import featrank as fr
from featrank.classifiers import CLASSIFIERS, ClassifierSpec, model_from_json, model_to_json
from featrank.cli import main
from featrank.dataio import schema_to_json
from featrank.reporting import table_to_csv_text

SEED = 7
COMMANDS = (
    ("weigh",),
    ("ablate", "--feature", "ethnicity", "--folds", "2", "--classifiers", "glm"),
    ("groups", "--folds", "2", "--classifiers", "glm"),
)


@pytest.fixture(scope="module")
def cohort():
    """(header, rows, schema document) of a 120-row synthetic cohort."""
    table = fr.generate(fr.default_cohort_spec(n_rows=120, seed=3))
    header, *rows = csv.reader(io.StringIO(table_to_csv_text(table)))
    return header, rows, schema_to_json(table.schema)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + rows)
    return buf.getvalue()


def _numeric(schema, rng) -> str:
    return rng.choice([c["name"] for c in schema["columns"] if c["kind"] == "numeric"])


def _label(schema) -> str:
    return next(c["name"] for c in schema["columns"] if c["role"] == "label")


def _set_cell(header, rows, rng, column, text):
    rows[rng.randrange(len(rows))][header.index(column)] = text
    return header, rows


def _drop_column(header, rows, schema, rng):
    j = rng.randrange(len(header))
    return header[:j] + header[j + 1 :], [r[:j] + r[j + 1 :] for r in rows]


def _duplicate_column(header, rows, schema, rng):
    j = rng.randrange(len(header))
    return header + [header[j]], [r + [r[j]] for r in rows]


def _rename_column(header, rows, schema, rng):
    j = rng.randrange(len(header))
    return header[:j] + [header[j] + "_x"] + header[j + 1 :], rows


def _truncated_line(header, rows, schema, rng):
    i = rng.randrange(len(rows))
    line = ",".join(rows[i])
    rows[i] = next(csv.reader([line[: rng.randrange(line.rindex(","))]]))
    return header, rows


def _extra_cell(header, rows, schema, rng):
    rows[rng.randrange(len(rows))].append("x")
    return header, rows


def _nul_in_categorical(header, rows, schema, rng):
    columns = schema["columns"]
    name = rng.choice([c["name"] for c in columns if c["kind"] == "categorical" and c["role"] == "feature"])
    j = header.index(name)
    row = rows[rng.randrange(len(rows))]
    row[j] = row[j][:1] + "\x00" + row[j][1:]
    return header, rows


def _one_class_label(header, rows, schema, rng):
    j = header.index(_label(schema))
    value = rng.choice(sorted({r[j] for r in rows}))
    return header, [r[:j] + [value] + r[j + 1 :] for r in rows]


# name -> (header, rows, schema, rng) -> (header, rows)
CSV_MUTATIONS = {
    "drop_column": _drop_column,
    "duplicate_column": _duplicate_column,
    "rename_column": _rename_column,
    "truncated_line": _truncated_line,
    "extra_cell": _extra_cell,
    "nan_cell": lambda h, r, s, rng: _set_cell(h, r, rng, _numeric(s, rng), "nan"),
    "inf_cell": lambda h, r, s, rng: _set_cell(h, r, rng, _numeric(s, rng), "-inf"),
    "overflow_cell": lambda h, r, s, rng: _set_cell(h, r, rng, _numeric(s, rng), "1e400"),
    "empty_label": lambda h, r, s, rng: _set_cell(h, r, rng, _label(s), ""),
    "one_class_label": _one_class_label,
    "nul_in_categorical": _nul_in_categorical,
    "oversize_cell": lambda h, r, s, rng: _set_cell(h, r, rng, _label(s), "y" * 200_000),
}


def _non_utf8(data: bytes, rng) -> bytes:
    at = rng.randrange(len(data))
    return data[:at] + b"\xff\xfe" + data[at:]


# name -> (file bytes, rng) -> file bytes; applied to the CSV and the schema file
BYTE_MUTATIONS = {
    "bom": lambda data, rng: b"\xef\xbb\xbf" + data,
    "non_utf8": _non_utf8,
}


def _column_entries(change):
    def mutate(doc, rng):
        entries = [dict(e) for e in doc["columns"]]
        return {"columns": change(entries, rng.randrange(len(entries)), rng)}

    return mutate


def _misspelled_role(entries, j, rng):
    j = rng.choice([i for i, e in enumerate(entries) if e["role"] != "label"])  # a label needs its role
    entries[j]["rol"] = entries[j].pop("role")
    return entries


def _null_positive_label(entries, j, rng):
    j = rng.choice([i for i, e in enumerate(entries) if e["role"] != "label"])  # a column left unset
    entries[j]["positive_label"] = None
    return entries


def _wrong_field_type(entries, j, rng):
    key = rng.choice(sorted(entries[j]))
    entries[j][key] = rng.choice([1, 2.5, None, True, [entries[j][key]], {}])
    return entries


# name -> (schema document, rng) -> schema document
SCHEMA_MUTATIONS = {
    "document_is_list": lambda doc, rng: doc["columns"],
    "document_is_string": lambda doc, rng: "columns",
    "columns_is_string": lambda doc, rng: {"columns": "age"},
    "columns_is_null": lambda doc, rng: {"columns": None},
    "columns_missing": lambda doc, rng: {"cols": doc["columns"]},
    "entry_is_string": _column_entries(lambda e, j, rng: e[:j] + [e[j]["name"]] + e[j + 1 :]),
    "entry_is_list": _column_entries(lambda e, j, rng: e[:j] + [list(e[j].values())] + e[j + 1 :]),
    "field_wrong_type": _column_entries(_wrong_field_type),
    "field_misspelled": _column_entries(_misspelled_role),
    "field_null": _column_entries(_null_positive_label),
    "unknown_field": _column_entries(lambda e, j, rng: e[:j] + [e[j] | {"zzz": "x"}] + e[j + 1 :]),
    "name_missing": _column_entries(lambda e, j, rng: e[:j] + [{"kind": e[j]["kind"]}] + e[j + 1 :]),
    "column_dropped": _column_entries(lambda e, j, rng: e[:j] + e[j + 1 :]),
    "column_duplicated": _column_entries(lambda e, j, rng: e + [e[j]]),
    "column_renamed": _column_entries(
        lambda e, j, rng: e[:j] + [e[j] | {"name": e[j]["name"] + "_x"}] + e[j + 1 :]
    ),
}


def _run(*argv, capsys):
    """Exit code and stderr of one in-process CLI call."""
    code = main(list(argv))
    return code, capsys.readouterr().err


def _assert_refused_everywhere(data, schema, tmp_path, capsys):
    for command in COMMANDS:
        code, err = _run(
            *command, "--data", str(data), "--schema", str(schema),
            "--out", str(tmp_path / "out"), capsys=capsys,
        )
        prefix, _, message = err.partition(": ")
        assert code in (1, 2) and prefix in ("error", "data error"), (command[0], code, err)
        assert message.strip(), err


def _write(tmp_path, header, rows, schema_doc):
    data, schema = tmp_path / "cohort.csv", tmp_path / "schema.json"
    data.write_text(_csv_text(header, rows), encoding="utf-8")
    schema.write_text(json.dumps(schema_doc), encoding="utf-8")
    return data, schema


def test_unmutated_cohort_runs(cohort, tmp_path, capsys):
    header, rows, doc = cohort
    data, schema = _write(tmp_path, header, rows, doc)
    for command in COMMANDS:
        code, err = _run(
            *command, "--data", str(data), "--schema", str(schema),
            "--out", str(tmp_path / "out"), capsys=capsys,
        )
        assert code == 0, (command[0], err)


@pytest.mark.parametrize("name", sorted(CSV_MUTATIONS))
def test_csv_mutation_refused(cohort, tmp_path, capsys, name):
    header, rows, doc = cohort
    rng = random.Random(f"{SEED}-{name}")
    header, rows = CSV_MUTATIONS[name](list(header), [list(r) for r in rows], doc, rng)
    data, schema = _write(tmp_path, header, rows, doc)
    _assert_refused_everywhere(data, schema, tmp_path, capsys)


@pytest.mark.parametrize("target", ["cohort.csv", "schema.json"])
@pytest.mark.parametrize("name", sorted(BYTE_MUTATIONS))
def test_byte_mutation_refused(cohort, tmp_path, capsys, name, target):
    data, schema = _write(tmp_path, *cohort)
    path = tmp_path / target
    path.write_bytes(BYTE_MUTATIONS[name](path.read_bytes(), random.Random(f"{SEED}-{name}")))
    _assert_refused_everywhere(data, schema, tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(SCHEMA_MUTATIONS))
def test_schema_mutation_refused(cohort, tmp_path, capsys, name):
    header, rows, doc = cohort
    mutated = SCHEMA_MUTATIONS[name](json.loads(json.dumps(doc)), random.Random(f"{SEED}-{name}"))
    data, schema = _write(tmp_path, header, rows, mutated)
    _assert_refused_everywhere(data, schema, tmp_path, capsys)


@pytest.mark.parametrize(
    "mutate",
    [lambda data, rng: b"", _non_utf8, lambda data, rng: data + b"y" * 200_000],
    ids=["empty", "non_utf8", "oversize_cell"],
)
def test_report_refuses_unreadable_csv(cohort, tmp_path, capsys, mutate):
    data, _ = _write(tmp_path, *cohort)
    data.write_bytes(mutate(data.read_bytes(), random.Random(f"{SEED}-report")))
    code, err = _run("report", "--data", str(data), "--out", str(tmp_path / "out"), capsys=capsys)
    assert code == 2 and err.startswith("data error: "), (code, err)


@pytest.fixture(scope="module")
def model_documents(cohort, tmp_path_factory):
    """kind -> the model document `ablate --save-model` writes for the cohort."""
    tmp = tmp_path_factory.mktemp("models")
    data, schema = _write(tmp, *cohort)
    argv = ["ablate", "--feature", "ethnicity", "--folds", "2", "--save-model"]
    assert main(argv + ["--data", str(data), "--schema", str(schema), "--out", str(tmp / "out")]) == 0
    return {kind: json.loads((tmp / "out" / "models" / f"{kind}.json").read_text()) for kind in CLASSIFIERS}


def _number_lists(doc):
    """Every list of numbers among the model's and encoder's attributes, a matrix's rows too."""
    found = []

    def visit(value):
        if isinstance(value, list) and value and all(isinstance(v, float) for v in value):
            found.append(value)
        elif isinstance(value, list):
            for item in value:
                visit(item)

    for part in (doc["model"], doc["encoder"] or {}):
        for value in part.values():
            for item in value.values() if isinstance(value, dict) else [value]:
                visit(item)
    return found


def _nan_in_vector(doc, rng):
    vector = rng.choice(_number_lists(doc))
    vector[rng.randrange(len(vector))] = float("nan")
    return doc


def _disagreeing_hyperparameter(doc, rng):
    key = rng.choice(sorted(ClassifierSpec(kind=doc["kind"]).params()))
    value = doc["model"][key]
    doc[rng.choice(["hyperparameters", "model"])][key] = value + 1 if isinstance(value, int) else value / 2
    return doc


def _swapped_names(doc, rng):
    names = doc["model"]["names"]
    i, j = rng.sample(range(len(names)), 2)
    names[i], names[j] = names[j], names[i]
    return doc


def _truncated_vector(doc, rng):
    rng.choice(_number_lists(doc)).pop()
    return doc


def _flipped_standardize(doc, rng):
    doc["encoder"]["standardize"] = not doc["encoder"]["standardize"]
    return doc


def _split_nodes(doc):
    """Every split node of a tree kind's document."""
    model = doc["model"]
    stack = list(model["roots"]) if "roots" in model else [model["root"]]
    found = []
    while stack:
        node = stack.pop()
        if "f" in node:
            found.append(node)
            stack += [node["l"], node["r"]]
    return found


def _missing_child(doc, rng):
    del rng.choice(_split_nodes(doc))[rng.choice("lr")]
    return doc


def _split_column_out_of_range(doc, rng):
    numeric = doc["feature_kinds"].count("numeric")
    width = numeric + sum(len(c) for c in doc["encoder"]["categories"].values())
    rng.choice(_split_nodes(doc))["f"] = width
    return doc


def _rule_feature_out_of_range(doc, rng):
    rng.choice(rng.choice(doc["model"]["rules"])["conditions"])[0] = len(doc["features"])
    return doc


def _tree_count(doc, rng):
    roots = doc["model"]["roots"]
    del roots[rng.randrange(len(roots)) :]  # keep a shorter prefix, perhaps none
    return doc


TREE_KINDS = ("gbt", "decision_tree", "random_forest")
# name -> ((model document, rng) -> model document, the kinds it applies to); the
# tree kinds save no list of numbers, and only the rule learner saves its names
# outside the encoder
MODEL_MUTATIONS = {
    "nan_in_vector": (_nan_in_vector, ("glm", "mlp", "rule_induction")),
    "disagreeing_hyperparameter": (_disagreeing_hyperparameter, CLASSIFIERS),
    "swapped_names": (_swapped_names, ("rule_induction",)),
    "truncated_vector": (_truncated_vector, ("glm", "mlp")),
    "flipped_standardize": (_flipped_standardize, tuple(k for k in CLASSIFIERS if k != "rule_induction")),
    "missing_child": (_missing_child, TREE_KINDS),
    "split_column_out_of_range": (_split_column_out_of_range, TREE_KINDS),
    "rule_feature_out_of_range": (_rule_feature_out_of_range, ("rule_induction",)),
    "tree_count": (_tree_count, ("gbt", "random_forest")),
}


def test_saved_models_load_and_write_back(model_documents):
    for doc in model_documents.values():
        assert model_to_json(model_from_json(doc)) == doc


@pytest.mark.parametrize("kind", CLASSIFIERS)
def test_every_saved_attribute_of_wrong_json_type_refused(model_documents, kind):
    doc = model_documents[kind]
    for part in ("model", "encoder"):
        for key in doc[part] or {}:
            bad = json.loads(json.dumps(doc))
            bad[part][key] = "x"  # no saved attribute is a string
            with pytest.raises(ValueError, match=key):
                model_from_json(bad)


@pytest.mark.parametrize(
    "name, kind", [(name, kind) for name, (_, kinds) in MODEL_MUTATIONS.items() for kind in kinds]
)
def test_model_mutation_refused(model_documents, name, kind):
    mutate = MODEL_MUTATIONS[name][0]
    doc = mutate(json.loads(json.dumps(model_documents[kind])), random.Random(f"{SEED}-{name}-{kind}"))
    with pytest.raises(ValueError):
        model_from_json(doc)
