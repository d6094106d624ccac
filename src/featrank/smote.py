"""Minority oversampling with mixed numeric/categorical interpolation.

Synthetic rows are built from a minority anchor and one of its k nearest minority
neighbors under the distance defined in `neighbors.py`: numeric cells move a shared
uniform random fraction of the way to the neighbor, categorical cells take the majority
value among the k neighbors (anchor's value on ties). Anchors are visited round-robin
in a seeded shuffled order until the minority class reaches the requested size; each
row draws its neighbor (`randrange`) and then its fraction (`random`). The rows are
built one column array at a time. Every synthetic row's (anchor, neighbor) pair is
recorded on the output table so resampling can be audited against evaluation splits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .dataio import ROLE_LABEL, Table
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
    y = table.y
    n_neg, n_pos = np.bincount(y, minlength=2).tolist()
    rows = np.flatnonzero(y == (1 if n_pos <= n_neg else 0)).tolist()
    if len(rows) <= k:
        raise ValueError(f"minority class has {len(rows)} rows; k={k} needs at least {k + 1}")
    return rows


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


def smote(table: Table, config: SmoteConfig) -> Table:
    """Append synthetic minority rows until minority = ceil(ratio * majority).

    Already-satisfied tables come back unchanged. The output keeps every
    original row first, in order, followed by synthetic rows; its smote_pairs
    tuple records each synthetic row's (anchor, neighbor) source indices.
    """
    n_minority, n_majority = sorted(np.bincount(table.y, minlength=2).tolist())
    if n_minority == 0:
        raise ValueError("cannot oversample a single-class table")
    target = math.ceil(config.target_ratio * n_majority)
    need = target - n_minority
    if need <= 0:
        return table

    k = config.k_neighbors
    minority = _minority_rows(table, k)  # ascending
    nearest = k_nearest(encode(table), minority, minority, k)
    rng = random.Random(config.seed)
    order = list(range(len(minority)))
    rng.shuffle(order)  # swaps depend on the length only: minority[order] is minority shuffled
    cycle = np.asarray(order)[np.arange(need) % len(order)]
    anchor = np.asarray(minority)[cycle]
    near = nearest[cycle]  # each row's k neighbors
    draws = [(rng.randrange(k), rng.random()) for _ in range(need)]
    neighbor = near[np.arange(need), [pick for pick, _ in draws]]
    u = np.asarray([frac for _, frac in draws])  # one fraction shared by a row's numerics

    data = []
    for col, arr, cats in zip(table.schema, table.data, table.categories):
        if col.role == ROLE_LABEL:
            new = arr[anchor]
        elif cats is None:
            new = arr[anchor] + u * (arr[neighbor] - arr[anchor])
        else:  # the neighbors' majority category, the anchor's own on ties
            votes = np.arange(need)[:, None] * len(cats) + arr[near]
            counts = np.bincount(votes.ravel(), minlength=need * len(cats)).reshape(need, -1)
            unique = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1) == 1
            new = np.where(unique, counts.argmax(axis=1), arr[anchor])
        data.append(np.concatenate([arr, new]))

    return Table(
        schema=table.schema,
        data=tuple(data),
        categories=table.categories,
        imputations=table.imputations,
        smote_pairs=table.smote_pairs + tuple(zip(anchor.tolist(), neighbor.tolist())),
    )
