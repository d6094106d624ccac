"""Design-matrix construction shared by the matrix-based classifiers.

Numeric features pass through as single columns; categorical features expand
to one indicator column per value observed in training, so an unseen value at
prediction time encodes as all zeros. Optional standardization (used by the
linear model and the neural net) centers and scales every expanded column
with training statistics; constant columns are centered and left unscaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import dataio


@dataclass(eq=False)
class FeatureEncoder:
    """Maps feature columns, (array, categories) pairs as `Table.encoded`
    returns them, to a float design matrix."""

    names: list[str]
    kinds: list[str]
    categories: dict[str, list[str]]
    standardize: bool
    means: list[float] | None = None
    scales: list[float] | None = None

    def __post_init__(self):
        self.names = tuple(self.names)
        self.kinds = tuple(self.kinds)
        self.categories = {k: tuple(v) for k, v in self.categories.items()}
        self.means = None if self.means is None else np.asarray(self.means, dtype=float)
        self.scales = None if self.scales is None else np.asarray(self.scales, dtype=float)

    @classmethod
    def build(cls, names, kinds, columns, standardize: bool) -> "FeatureEncoder":
        categories = {}
        for name, kind, (codes, cats) in zip(names, kinds, columns):
            if kind == dataio.CATEGORICAL:  # the categories observed, in sorted order
                categories[name] = tuple(cats[c] for c in np.unique(codes).tolist())
        enc = cls(names, kinds, categories, standardize)
        if standardize:
            raw = enc._expand(columns)
            means = raw.mean(axis=0)
            scales = raw.std(axis=0)
            scales[scales == 0.0] = 1.0
            enc.means, enc.scales = means, scales
        return enc

    @property
    def expanded_names(self) -> tuple[str, ...]:
        out = []
        for name, kind in zip(self.names, self.kinds):
            if kind == dataio.NUMERIC:
                out.append(name)
            else:
                out.extend(f"{name}={v}" for v in self.categories[name])
        return tuple(out)

    def _expand(self, columns) -> np.ndarray:
        cols = []
        for name, kind, (data, cats) in zip(self.names, self.kinds, columns):
            if kind == dataio.NUMERIC:
                cols.append(data[:, None])
            else:  # one indicator per encoder category, by its code in `cats`
                lut = [cats.index(v) if v in cats else -1 for v in self.categories[name]]
                cols.append((data[:, None] == np.asarray(lut, dtype=np.int64)).astype(float))
        return np.hstack(cols)

    def transform(self, columns) -> np.ndarray:
        x = self._expand(columns)
        if self.standardize:
            x = (x - self.means) / self.scales
        return x
