"""Typed tabular cohorts: schema validation, CSV ingestion, folds, group filtering.

A Table stores one numpy array per column (see `Table`) plus its schema,
and exposes its label as the 0/1 array `Table.y`. Ingestion imputes missing
numeric cells with the column median and missing categorical cells with the
column mode, and records how many cells were filled per column. Fold plans
are tuples of fold numbers; folds and splits are read from them as arrays.

A schema file is {"columns": [...]}: per column, an object of ColumnSchema's
fields as strings (those without a default are required) and no other key.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
import reprlib
import statistics
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"

ROLE_FEATURE = "feature"
ROLE_LABEL = "label"
ROLE_GROUP = "group"

Cell = float | str


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str
    role: str = ROLE_FEATURE
    positive_label: str | None = None

    def __post_init__(self):
        check_types(vars(self), field_types(ColumnSchema), "column")
        if not self.name:
            raise ValueError("column name must be non-empty")
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in (ROLE_FEATURE, ROLE_LABEL, ROLE_GROUP):
            raise ValueError(f"column {self.name!r}: unknown role {self.role!r}")
        if self.role == ROLE_LABEL:
            if self.positive_label is None:
                raise ValueError(f"label column {self.name!r} requires positive_label")
            if self.kind != CATEGORICAL:
                raise ValueError(f"label column {self.name!r} must be categorical")
        elif self.positive_label is not None:
            raise ValueError(f"column {self.name!r}: positive_label only allowed on the label")
        if self.role == ROLE_GROUP and self.kind != CATEGORICAL:
            raise ValueError(f"group column {self.name!r} must be categorical")


def validate_schema(columns: list[ColumnSchema]) -> None:
    """Check cross-column invariants: unique names, one label, at most one group."""
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        raise ValueError("duplicate column names in schema")
    labels = [c for c in columns if c.role == ROLE_LABEL]
    if len(labels) != 1:
        raise ValueError(f"schema must have exactly one label column, found {len(labels)}")
    groups = [c for c in columns if c.role == ROLE_GROUP]
    if len(groups) > 1:
        raise ValueError("schema allows at most one group column")


def check_types(values, declared: dict, what: str) -> None:
    """Refuse `values` unless each name of `declared` holds a value of its type.
    `float` is a finite number and `int` an int, neither a bool; `X | None` also
    takes None; `list[X]`, `tuple[X, ...]` and `dict[str, X]` check each item."""
    for name, declared_type in declared.items():
        check_type(values[name], declared_type, f"{what}: {name}")


def check_type(value, declared_type, where: str) -> None:
    """Refuse `value` unless it has `declared_type` (see `check_types`)."""
    none_ok, cls, item_type = _shape(declared_type)
    if value is None and none_ok:
        return
    if cls is float:
        ok = not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    else:
        ok = isinstance(value, cls) and not (cls is int and isinstance(value, bool))
    if not ok:
        expected = "a finite number" if cls is float else cls.__name__
        raise ValueError(f"{where} must be {expected}, got {reprlib.repr(value)}")
    if item_type is not None:
        for key, item in value.items() if cls is dict else enumerate(value):
            check_type(item, item_type, f"{where}[{key!r}]")


@functools.cache
def _shape(declared_type) -> tuple:
    """(whether None fits, the class a value must have, its items' type or None)."""
    args = typing.get_args(declared_type)
    if type(None) in args:  # X | None
        (declared_type,) = set(args) - {type(None)}
        return True, *_shape(declared_type)[1:]
    cls = typing.get_origin(declared_type) or declared_type
    return False, cls, (args[-1] if cls is dict else args[0]) if args else None


# The declared type of each field of a dataclass, read once per class.
field_types = functools.cache(typing.get_type_hints)


def check_keys(doc, what: str, allowed, required=None) -> None:
    """Refuse `doc` unless it is a JSON object that holds every key of `required`
    (by default, all of `allowed`) and no key outside `allowed`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = doc.keys() - set(allowed)
    if unknown:
        raise ValueError(f"{what}: unknown key(s) {sorted(unknown)}")
    missing = set(allowed if required is None else required) - doc.keys()
    if missing:
        raise ValueError(f"{what}: missing key(s) {sorted(missing)}")


def check_fields(doc, what: str, cls) -> None:
    """Refuse `doc` unless it holds every field of dataclass `cls` that has no
    default, and no key that is not a field."""
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    check_keys(doc, what, [f.name for f in fields(cls)], required)


def load_schema_json(path: str | Path) -> list[ColumnSchema]:
    """Read a schema file (see the module docstring)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.keys() != {"columns"} or not isinstance(doc["columns"], list):
        raise ValueError(f"{path}: schema file must be an object whose only key is a 'columns' list")
    columns = []
    for entry in doc["columns"]:
        check_fields(entry, f"{path}: column", ColumnSchema)
        if None in entry.values():  # an unset positive_label is written by leaving it out
            raise ValueError(f"{path}: column fields must not be null")
        columns.append(ColumnSchema(**entry))
    validate_schema(columns)
    return columns


def schema_to_json(columns: list[ColumnSchema]) -> dict:
    return {"columns": [{k: v for k, v in asdict(c).items() if v is not None} for c in columns]}


@dataclass(frozen=True, eq=False)
class Table:
    """Immutable typed rectangle, stored column by column.

    `data[j]` is column j: float64 values (`categories[j]` None), or int64
    codes into the sorted tuple `categories[j]` (every categorical, the label
    too), so code order is string order. Derived tables keep their parent's
    tuples. `y` is the label as an int64 0/1 array (1 = positive_label), the
    form every consumer reads. `rows`, `column` and `label01` read back Python
    floats/strs/ints.

    `imputations` counts cells filled at ingestion (column name -> count);
    `smote_pairs` records (anchor, neighbor) row indices into the table a
    SMOTE call consumed, for leakage auditing. Both are metadata, not data.
    """

    schema: tuple[ColumnSchema, ...]
    data: tuple[np.ndarray, ...]
    categories: tuple[tuple[str, ...] | None, ...]
    imputations: dict = field(default_factory=dict)
    smote_pairs: tuple = ()

    def __post_init__(self):
        validate_schema(list(self.schema))
        if not len(self.data) == len(self.categories) == len(self.schema):
            raise ValueError(f"expected {len(self.schema)} columns, got {len(self.data)}")
        lengths = {len(d) for d in self.data}
        if len(lengths) != 1:
            raise ValueError(f"columns of unequal length: {sorted(lengths)}")
        if lengths.pop() < 1:
            raise ValueError("table must have at least one row")

    @classmethod
    def from_columns(cls, schema, columns, imputations=None) -> "Table":
        """Build a table from one list of cells per schema column (a numeric
        column may also be a float array)."""
        data, categories = [], []
        for col, values in zip(schema, columns, strict=True):
            if col.kind == NUMERIC:
                data.append(np.asarray(values, dtype=float))
                categories.append(None)
            else:
                cats = tuple(sorted(set(values)))
                index = {v: i for i, v in enumerate(cats)}
                data.append(np.fromiter(map(index.__getitem__, values), np.int64, len(values)))
                categories.append(cats)
        return cls(tuple(schema), tuple(data), tuple(categories), imputations or {})

    @property
    def n_rows(self) -> int:
        return len(self.data[0])

    @property
    def rows(self) -> tuple[tuple[Cell, ...], ...]:
        return tuple(zip(*(self.column(c.name) for c in self.schema)))

    def column_names(self) -> list[str]:
        return [c.name for c in self.schema]

    def col_index(self, name: str) -> int:
        for i, c in enumerate(self.schema):
            if c.name == name:
                return i
        raise KeyError(f"no column named {name!r}")

    def column_schema(self, name: str) -> ColumnSchema:
        return self.schema[self.col_index(name)]

    def encoded(self, name: str) -> tuple[np.ndarray, tuple[str, ...] | None]:
        """The stored column: (float64 values, None) or (int64 codes, categories)."""
        i = self.col_index(name)
        return self.data[i], self.categories[i]

    def column(self, name: str) -> list[Cell]:
        data, cats = self.encoded(name)
        return data.tolist() if cats is None else [cats[c] for c in data.tolist()]

    @property
    def label_column(self) -> ColumnSchema:
        return next(c for c in self.schema if c.role == ROLE_LABEL)

    @property
    def group_column(self) -> ColumnSchema | None:
        return next((c for c in self.schema if c.role == ROLE_GROUP), None)

    def feature_names(self) -> list[str]:
        """Columns usable as model/weighting inputs: features plus the group column."""
        return [c.name for c in self.schema if c.role in (ROLE_FEATURE, ROLE_GROUP)]

    def features(self, names=None, drop=()) -> list[str]:
        """The feature columns among `names` (all by default), minus `drop`, in
        schema order. The one check of a selection: it refuses a name that is
        not a feature column and a selection that leaves none."""
        available = self.feature_names()
        chosen = available if names is None else list(names)
        for name in [*chosen, *drop]:
            if name not in available:
                raise ValueError(f"unknown feature {name!r}: not a feature column")
        chosen = [f for f in available if f in chosen and f not in drop]
        if not chosen:
            raise ValueError("the selection selects no columns: no feature columns remain")
        return chosen

    @property
    def y(self) -> np.ndarray:
        """Labels as an int64 0/1 array with 1 = positive_label."""
        codes, cats = self.encoded(self.label_column.name)
        pos = self.label_column.positive_label
        return (codes == (cats.index(pos) if pos in cats else -1)).astype(np.int64)

    def label01(self) -> list[int]:
        """`y` as a list of Python ints."""
        return self.y.tolist()

    def take(self, indices) -> "Table":
        idx = np.asarray(indices, dtype=np.intp)
        if not idx.size:
            raise ValueError("cannot build an empty table")
        return Table(self.schema, tuple(d[idx] for d in self.data), self.categories)

    def project(self, feature_names) -> "Table":
        """Keep the listed feature/group columns (plus the label), drop the rest.
        An empty list keeps the label alone."""
        keep = self.features(feature_names) if feature_names else ()
        idx = [i for i, c in enumerate(self.schema) if c.role == ROLE_LABEL or c.name in keep]
        return Table(
            tuple(self.schema[i] for i in idx),
            tuple(self.data[i] for i in idx),
            tuple(self.categories[i] for i in idx),
        )


def _check_cell(text: str, c: ColumnSchema, path, line: int) -> None:
    """Raise the error of one stripped cell if it is bad (see `load_csv`)."""
    where = f"{path}: line {line}"
    if "\x00" in text:
        raise ValueError(f"{where}: NUL byte in column {c.name!r}")
    if text == "" and c.role == ROLE_LABEL:
        raise ValueError(f"{where}: missing label cell")
    if text == "" or c.kind != NUMERIC:
        return
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{where}: unparseable numeric cell {text!r} in column {c.name!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: non-finite numeric cell in column {c.name!r}")


def _column(cells, c: ColumnSchema) -> list | None:
    """One column's values in one pass (None for a blank cell), or None if some
    cell is bad. Numbers are parsed with Python's `float`, as `_check_cell`
    does; numpy's string conversion accepts other spellings."""
    texts = list(map(str.strip, cells))
    blank = "" in texts
    if "\x00" in "".join(texts) or (blank and c.role == ROLE_LABEL):
        return None
    if c.kind != NUMERIC:
        return [t or None for t in texts] if blank else texts
    try:
        numbers = list(map(float, filter(None, texts)))
    except ValueError:
        return None
    if not all(map(math.isfinite, numbers)):
        return None
    if not blank:
        return numbers
    numbers = iter(numbers)
    return [next(numbers) if t else None for t in texts]


def load_csv(path: str | Path, schema: list[ColumnSchema]) -> Table:
    """Ingest an RFC 4180 CSV with a header row into a complete Table.

    The header must contain exactly the schema's column names (any order),
    each once.
    Blank cells are imputed: median of the observed values for numeric
    columns, mode (ties -> lexicographically smallest) for categorical ones.
    Missing label cells are refused; labels cannot be guessed.

    Each column is read in one pass over the rows. Of several bad cells (a NUL
    byte, a blank label, an unparseable or non-finite number) the error names
    the first in row order, then in schema column order; a row with the wrong
    number of cells is reported only when no earlier row holds a bad cell.
    """
    validate_schema(schema)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        raw_rows = list(reader)

    want = {c.name for c in schema}
    got = set(header)
    if len(got) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise ValueError(f"{path}: duplicate columns in header: {dupes}")
    if got - want:
        raise ValueError(f"{path}: unknown columns in header: {sorted(got - want)}")
    if want - got:
        raise ValueError(f"{path}: missing columns in header: {sorted(want - got)}")
    if not raw_rows:
        raise ValueError(f"{path}: no data rows")

    # Rows before the first ragged one, as one tuple of cells per header column.
    whole = next((r for r, raw in enumerate(raw_rows) if len(raw) != len(header)), len(raw_rows))
    cells = dict(zip(header, zip(*raw_rows[:whole]))) if whole else dict.fromkeys(header, ())
    columns = {c.name: _column(cells[c.name], c) for c in schema}
    bad = [(c, header.index(c.name)) for c in schema if columns[c.name] is None]
    for r, raw in enumerate(raw_rows[:whole] if bad else ()):
        for c, pos in bad:  # raises at the first bad cell
            _check_cell(raw[pos].strip(), c, path, r + 2)
    if whole < len(raw_rows):
        raise ValueError(
            f"{path}: line {whole + 2}: expected {len(header)} cells, got {len(raw_rows[whole])}"
        )
    label = next(c for c in schema if c.role == ROLE_LABEL)

    imputations: dict[str, int] = {}
    for c in schema:
        col = columns[c.name]
        missing = col.count(None)
        if not missing:
            continue
        observed = [v for v in col if v is not None]
        if not observed:
            raise ValueError(f"{path}: column {c.name!r} has no observed values to impute from")
        fill = statistics.median(observed) if c.kind == NUMERIC else min(statistics.multimode(observed))
        columns[c.name] = [fill if v is None else v for v in col]
        imputations[c.name] = missing

    distinct_labels = sorted(set(columns[label.name]))
    if len(distinct_labels) != 2:
        raise ValueError(
            f"{path}: label non-binary: column {label.name!r} has {len(distinct_labels)} "
            f"distinct values {distinct_labels[:5]}"
        )
    if label.positive_label not in distinct_labels:
        raise ValueError(
            f"{path}: positive label {label.positive_label!r} never observed in column {label.name!r}"
        )

    return Table.from_columns(schema, [columns[c.name] for c in schema], imputations)


@dataclass(frozen=True)
class FoldPlan:
    """Stratified partition of row indices into k folds."""

    k: int
    assignment: tuple[int, ...]

    def fold_indices(self, fold: int) -> list[int]:
        return np.flatnonzero(np.asarray(self.assignment) == fold).tolist()


def stratified_folds(table: Table, k: int, seed: int) -> FoldPlan:
    """Assign rows to k folds, keeping per-fold positive counts within 1.

    Rows of each class are shuffled with the seed and dealt round-robin;
    the dealing pointer continues across classes so fold sizes also stay
    within 1 of each other.
    """
    n = table.n_rows
    if not 2 <= k <= n:
        raise ValueError(f"k={k} out of range [2, {n}]")
    y = table.y
    counts = np.bincount(y, minlength=2).tolist()
    for cls in (1, 0):
        if counts[cls] < k:
            raise ValueError(f"class {cls} has {counts[cls]} rows, fewer than k={k}")

    rng = random.Random(seed)
    assignment = np.empty(n, dtype=np.int64)
    pointer = 0
    for cls in (1, 0):  # positives dealt first
        idx = np.flatnonzero(y == cls).tolist()
        rng.shuffle(idx)
        assignment[idx] = np.arange(pointer, pointer + len(idx)) % k
        pointer += len(idx)
    return FoldPlan(k=k, assignment=tuple(assignment.tolist()))


def split(table: Table, plan: FoldPlan, fold: int) -> tuple[Table, Table]:
    """(train, test) where test is the rows assigned to `fold`."""
    if len(plan.assignment) != table.n_rows:
        raise ValueError("fold plan does not match table size")
    if not 0 <= fold < plan.k:
        raise ValueError(f"fold {fold} out of range [0, {plan.k})")
    test = np.asarray(plan.assignment) == fold
    return table.take(np.flatnonzero(~test)), table.take(np.flatnonzero(test))


def filter_by_group(table: Table, group_value: str) -> Table:
    """Rows whose group cell equals group_value; the group column is retained."""
    group = table.group_column
    if group is None:
        raise ValueError("table has no group column")
    codes, cats = table.encoded(group.name)
    hit = codes == cats.index(group_value) if group_value in cats else np.zeros(0, bool)
    if not hit.any():
        raise ValueError(f"group value {group_value!r} never occurs in column {group.name!r}")
    return table.take(np.flatnonzero(hit))


def observed_groups(table: Table) -> list[str]:
    """Distinct group values in ascending order; [] if no group column."""
    group = table.group_column
    if group is None:
        return []
    codes, cats = table.encoded(group.name)
    return [cats[c] for c in np.unique(codes).tolist()]
