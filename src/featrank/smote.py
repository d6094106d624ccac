"""Minority oversampling with mixed numeric/categorical interpolation.

Synthetic rows are built from a minority anchor and one of its k nearest minority
neighbors under the distance defined in `neighbors.py`: numeric cells move a shared
uniform random fraction of the way to the neighbor, categorical cells take the majority
value among the k neighbors (anchor's value on ties). Anchors are visited round-robin
in a seeded shuffled order until the minority class reaches the requested size. Every
synthetic row's (anchor, neighbor) pair is recorded on the output table so resampling
can be audited against evaluation splits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .dataio import NUMERIC, ROLE_LABEL, Table
from .neighbors import encode, k_nearest


@dataclass(frozen=True)
class SmoteConfig:
    """Oversampling parameters.

    target_ratio is the desired minority/majority count ratio; 1.0 balances
    the classes exactly (up to rounding). k_neighbors must stay below the
    minority class size of whatever table is resampled.
    """

    k_neighbors: int = 5
    target_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError("target_ratio must be in (0, 1]")


def _minority_rows(table: Table, k: int) -> list[int]:
    """Row indices of the minority label (the positive class unless it is the
    strict majority); errors unless each has k other minority rows."""
    y = table.label01()
    minority_label = 1 if sum(y) * 2 <= len(y) else 0
    rows = [i for i, v in enumerate(y) if v == minority_label]
    if len(rows) <= k:
        raise ValueError(f"minority class has {len(rows)} rows; k={k} needs at least {k + 1}")
    return rows


def _all_minority_neighbors(table: Table, k: int) -> dict[int, list[int]]:
    """Every minority row's k nearest minority rows, as original row indices."""
    minority_idx = _minority_rows(table, k)
    nearest = k_nearest(encode(table), minority_idx, minority_idx, k)
    return dict(zip(minority_idx, nearest.tolist()))


def minority_neighbors(table: Table, row: int, k: int) -> list[int]:
    """The k minority rows nearest to one minority row, self excluded.

    Distance ties break by ascending row index. Errors if the row is not in
    the minority class or the minority class has no k other members.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    minority_idx = _minority_rows(table, k)
    if row not in minority_idx:
        raise ValueError(f"row {row} is not a minority-class row")
    return k_nearest(encode(table), [row], minority_idx, k)[0].tolist()


def _anchor_cells(table: Table, anchor: int, neighbors: list[int]) -> list:
    """The cells every synthetic row from this anchor shares: its label, and per
    categorical column the majority value among its neighbors (the anchor's own
    value on ties). Numeric cells are None, to be interpolated per row."""
    a_row = table.rows[anchor]
    cells = []
    for j, col in enumerate(table.schema):
        if col.role == ROLE_LABEL:
            cells.append(a_row[j])
        elif col.kind == NUMERIC:
            cells.append(None)
        else:
            votes = [table.rows[i][j] for i in neighbors]
            top = max(map(votes.count, votes))
            winners = [v for v in dict.fromkeys(votes) if votes.count(v) == top]
            cells.append(winners[0] if len(winners) == 1 else a_row[j])
    return cells


def smote(table: Table, config: SmoteConfig) -> Table:
    """Append synthetic minority rows until minority = ceil(ratio * majority).

    Already-satisfied tables come back unchanged. The output keeps every
    original row first, in order, followed by synthetic rows; its smote_pairs
    tuple records each synthetic row's (anchor, neighbor) source indices.
    """
    y = table.label01()
    if len(set(y)) < 2:
        raise ValueError("cannot oversample a single-class table")
    n_minority = len(_minority_rows(table, 0))
    n_majority = len(y) - n_minority
    target = math.ceil(config.target_ratio * n_majority)
    need = target - n_minority
    if need <= 0:
        return table

    neighbors = _all_minority_neighbors(table, config.k_neighbors)

    rng = random.Random(config.seed)
    anchors = list(neighbors)  # the minority rows, ascending
    rng.shuffle(anchors)
    fixed = {a: _anchor_cells(table, a, neighbors[a]) for a in anchors[:need]}  # the anchors to be used

    numeric = [j for j, col in enumerate(table.schema) if col.role != ROLE_LABEL and col.kind == NUMERIC]
    new_rows = []
    pairs = []
    for t in range(need):
        anchor = anchors[t % len(anchors)]
        neigh_list = neighbors[anchor]
        neighbor = neigh_list[rng.randrange(len(neigh_list))]
        u = rng.random()  # one interpolation fraction shared by all numerics
        cells = list(fixed[anchor])
        a_row = table.rows[anchor]
        n_row = table.rows[neighbor]
        for j in numeric:
            cells[j] = a_row[j] + u * (n_row[j] - a_row[j])
        new_rows.append(tuple(cells))
        pairs.append((anchor, neighbor))

    return Table(
        schema=table.schema,
        rows=table.rows + tuple(new_rows),
        imputations=table.imputations,
        smote_pairs=table.smote_pairs + tuple(pairs),
    )
