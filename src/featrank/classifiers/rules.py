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

from dataclasses import dataclass, field

import numpy as np

from .. import dataio
from ..weighting import equal_frequency_edges


@dataclass(eq=False)
class RuleInduction:
    n_bins: int = 10
    min_coverage: int = 5
    names: list[str] = field(init=False, default_factory=tuple)
    kinds: list[str] = field(init=False, default_factory=tuple)
    # numeric feature -> ascending bin edges
    bins: dict[str, list[float]] = field(init=False, default_factory=dict)
    rules: list[dict] = field(init=False, default_factory=list)
    default_score: float = field(init=False, default_factory=float)

    def _symbol_columns(self, columns) -> list[tuple]:
        """Each feature as (int array, symbols): the rule symbol of row i is
        symbols[array[i]], a numeric's bin index or a categorical's value."""
        out = []
        for name, kind, (data, cats) in zip(self.names, self.kinds, columns):
            if kind == dataio.NUMERIC:
                edges = np.asarray(self.bins[name], dtype=float)
                out.append((np.searchsorted(edges, data, side="left"), range(len(edges) + 1)))
            else:
                out.append((data, cats))
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

    def fit(self, columns, names, kinds, y, seed: int = 0):
        del seed
        self.names = tuple(names)
        self.kinds = tuple(kinds)
        n = len(y)
        self.bins = {
            name: list(equal_frequency_edges(name, data, self.n_bins).edges)
            for name, kind, (data, _) in zip(self.names, self.kinds, columns)
            if kind == dataio.NUMERIC
        }
        # codes index the observed symbols in repr order ("a b" < "a", bin 10 < 2)
        codes = []
        uniq = []
        for raw, symbols in self._symbol_columns(columns):
            present = sorted(np.unique(raw).tolist(), key=lambda r: repr(symbols[r]))
            lookup = np.zeros(len(symbols), dtype=np.int64)
            lookup[present] = np.arange(len(present))
            uniq.append([symbols[r] for r in present])
            codes.append(lookup[raw])
        y01 = np.asarray(y, dtype=np.int64)

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

    def scores(self, columns) -> np.ndarray:
        symbol_columns = self._symbol_columns(columns)
        n = len(columns[0][0])
        out = np.full(n, self.default_score)
        unmatched = np.ones(n, dtype=bool)
        for rule in self.rules:  # the first rule a row matches scores it
            hit = unmatched.copy()
            for j, v in rule["conditions"]:
                raw, symbols = symbol_columns[j]
                hit &= raw == symbols.index(v) if v in symbols else False
            p = rule["precision"]
            out[hit] = p if rule["target"] == 1 else 1.0 - p
            unmatched &= ~hit
        return out
