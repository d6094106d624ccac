"""Sequential-covering rule learner over discretized features.

Rules are conjunctions of (feature == value) tests, where numeric features
are reduced to equal-frequency bin indices learned from the training data.
Each rule targets the majority class of the still-uncovered rows, grows
greedily by precision (never dropping below the coverage floor), and is kept
only if it beats the uncovered prior; covered rows are then removed. Rows no
rule matches fall to a default prediction carrying the leftover positive
fraction as its score.
"""

from __future__ import annotations

import numpy as np

from .. import dataio
from ..weighting import BinEdges, equal_frequency_edges


class RuleInduction:
    def __init__(self, n_bins: int = 10, min_coverage: int = 5):
        self.n_bins = n_bins
        self.min_coverage = min_coverage
        self.names: tuple[str, ...] = ()
        self.kinds: tuple[str, ...] = ()
        self.bins: dict[str, BinEdges] = {}
        self.rules: list[dict] = []
        self.default_score = 0.5

    def _symbol_columns(self, cells) -> list[list]:
        """Each feature's cells as rule symbols: a numeric's bin index, else the value."""
        columns = list(zip(*cells)) or [()] * len(self.names)
        out = []
        for name, kind, column in zip(self.names, self.kinds, columns):
            if kind == dataio.NUMERIC:
                edges = np.asarray(self.bins[name].edges, dtype=float)
                values = np.asarray(column, dtype=float)
                out.append(np.searchsorted(edges, values, side="left").tolist())
            else:
                out.append(list(column))
        return out

    def _grow_rule(self, codes, uniq, y01, remaining, target):
        """Greedy conjunction maximizing precision for the target class.

        Candidate (feature, value) tests are scanned feature-by-feature with
        values in repr-sorted order; the first strictly best (precision,
        coverage) pair wins, so ties resolve deterministically.
        """
        covered = remaining
        conditions: list[tuple[int, object]] = []
        used = set()
        precision = int((y01[covered] == target).sum()) / len(covered)
        while precision < 1.0:
            best = None
            for j in range(len(self.names)):
                if j in used:
                    continue
                csel = codes[j][covered]
                total = np.bincount(csel, minlength=len(uniq[j]))
                hits = np.bincount(csel[y01[covered] == target], minlength=len(uniq[j]))
                for code in range(len(uniq[j])):
                    size = int(total[code])
                    if size < self.min_coverage:
                        continue
                    key = (int(hits[code]) / size, size)
                    if best is None or key > best[0]:
                        best = (key, j, code)
            if best is None or best[0][0] <= precision:
                break
            (precision, _), j, code = best
            covered = covered[codes[j][covered] == code]
            conditions.append((j, uniq[j][code]))
            used.add(j)
        if not conditions:
            return None
        return {
            "conditions": conditions,
            "target": target,
            "precision": precision,
            "coverage": len(covered),
        }, covered

    def fit(self, cells, names, kinds, y, seed: int = 0):
        del seed
        self.names = tuple(names)
        self.kinds = tuple(kinds)
        n = len(cells)
        columns = list(zip(*cells))
        self.bins = {
            name: equal_frequency_edges(name, columns[j], self.n_bins)
            for j, (name, kind) in enumerate(zip(self.names, self.kinds))
            if kind == dataio.NUMERIC
        }
        codes = []
        uniq = []
        for sym in self._symbol_columns(cells):
            u = sorted(set(sym), key=repr)
            index = {v: c for c, v in enumerate(u)}
            uniq.append(u)
            codes.append(np.asarray([index[s] for s in sym], dtype=np.int64))
        y01 = np.asarray(list(y), dtype=np.int64)

        remaining = np.arange(n, dtype=np.int64)
        self.rules = []
        while len(remaining) >= self.min_coverage:
            n_pos = int(y01[remaining].sum())
            target = 1 if n_pos * 2 >= len(remaining) else 0
            prior = (n_pos if target == 1 else len(remaining) - n_pos) / len(remaining)
            grown = self._grow_rule(codes, uniq, y01, remaining, target)
            if grown is None:
                break
            rule, covered = grown
            if rule["precision"] <= prior:
                break
            self.rules.append(rule)
            keep = np.ones(n, dtype=bool)
            keep[covered] = False
            remaining = remaining[keep[remaining]]

        if len(remaining):
            self.default_score = float(y01[remaining].mean())
        else:
            self.default_score = float(y01.mean())
        return self

    def scores(self, cells) -> np.ndarray:
        columns = [np.asarray(sym, dtype=object) for sym in self._symbol_columns(cells)]
        out = np.full(len(cells), self.default_score)
        unmatched = np.ones(len(cells), dtype=bool)
        for rule in self.rules:  # the first rule a row matches scores it
            hit = unmatched.copy()
            for j, v in rule["conditions"]:
                hit &= columns[j] == v
            p = rule["precision"]
            out[hit] = p if rule["target"] == 1 else 1.0 - p
            unmatched &= ~hit
        return out

    def to_dict(self) -> dict:
        return {
            "n_bins": self.n_bins,
            "min_coverage": self.min_coverage,
            "names": list(self.names),
            "kinds": list(self.kinds),
            "bins": {k: list(v.edges) for k, v in self.bins.items()},
            "rules": [
                {
                    "conditions": [[j, v] for j, v in r["conditions"]],
                    "target": r["target"],
                    "precision": r["precision"],
                    "coverage": r["coverage"],
                }
                for r in self.rules
            ],
            "default_score": self.default_score,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RuleInduction":
        model = cls(d["n_bins"], d["min_coverage"])
        model.names = tuple(d["names"])
        model.kinds = tuple(d["kinds"])
        model.bins = {k: BinEdges(column=k, edges=tuple(v)) for k, v in d["bins"].items()}
        model.rules = [
            {
                "conditions": [(j, v) for j, v in r["conditions"]],
                "target": r["target"],
                "precision": r["precision"],
                "coverage": r["coverage"],
            }
            for r in d["rules"]
        ]
        model.default_score = d["default_score"]
        return model
