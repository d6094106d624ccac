"""Shared builders for constructing small typed tables in tests, and small
reference computations that only tests use."""

from bisect import bisect_left

from featrank.dataio import CATEGORICAL, NUMERIC, ColumnSchema, Table


def make_table(columns, labels, group=None, positive="yes"):
    """Build a Table from ordered {name: values}, 0/1 labels, optional group.

    Column kind is inferred from the first value (str -> categorical,
    otherwise numeric). `group` is a (name, values) pair.
    """
    schema = []
    cells = []
    for name, values in columns.items():
        kind = CATEGORICAL if isinstance(values[0], str) else NUMERIC
        schema.append(ColumnSchema(name=name, kind=kind))
        cells.append([v if isinstance(v, str) else float(v) for v in values])
    if group is not None:
        gname, gvalues = group
        schema.append(ColumnSchema(name=gname, kind=CATEGORICAL, role="group"))
        cells.append(list(gvalues))
    schema.append(
        ColumnSchema(name="label", kind=CATEGORICAL, role="label", positive_label=positive)
    )
    negative = "no" if positive != "no" else "not-" + positive
    cells.append([positive if y == 1 else negative for y in labels])
    return Table.from_columns(tuple(schema), cells)


def majority_baseline_accuracy(labels) -> float:
    """Accuracy of always predicting the more common class."""
    y = list(labels)
    n_pos = sum(y)
    return max(n_pos, len(y) - n_pos) / len(y)


def bin_of(bins, value: float) -> int:
    """The bin of `value` under a `weighting.BinEdges`: the first edge >= value."""
    return bisect_left(bins.edges, value)
