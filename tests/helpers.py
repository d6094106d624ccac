"""Shared builders for constructing small typed tables in tests."""

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
