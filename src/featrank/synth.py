"""Synthetic cohort generation with planted, auditable ground truth.

Rows follow a logistic generative model: each row samples a group and its
feature marginals, accumulates a group-specific linear score over
standardized numeric terms and categorical indicator terms, adds Gaussian
noise and a group intercept offset, and draws the label from the resulting
probability. A global intercept is solved by bisection so the realized
positive count lands on round(n * prevalence). Everything is deterministic
given the SynthSpec seed.

A spec document holds SynthSpec's fields (those without a default are
required) and no other key; a feature entry holds `name`, `kind` and exactly
its kind's fields (`mean`, `sd` or `values`, `probabilities`). Each value has
the JSON type of its field: a tuple field is a list.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .dataio import (
    CATEGORICAL, NUMERIC, ROLE_FEATURE, ROLE_GROUP, ROLE_LABEL, ColumnSchema, Table, check_fields,
    check_keys, check_type, check_types, field_types,
)

DEFAULT_GROUP_WEIGHTS = {
    "Fars": 50.0,
    "Azari": 12.75,
    "Kurd": 10.0,
    "Gilak": 6.0,
    "Lor": 3.5,
    "Arab": 3.5,
    "Bakhtiari": 3.5,
    "Qashghaei": 3.5,
    "Balouch": 3.5,
}


def _normalized(weights: dict[str, float]) -> dict[str, float]:
    total = sum(weights.values())
    return {k: v / total for k, v in weights.items()}


@dataclass(frozen=True)
class FeatureDef:
    """Marginal distribution of one synthetic feature column."""

    name: str
    kind: str
    mean: float = 0.0
    sd: float = 1.0
    values: tuple[str, ...] = ()
    probabilities: tuple[float, ...] = ()

    def __post_init__(self):
        check_types(vars(self), field_types(FeatureDef), "feature")
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == NUMERIC:
            if self.sd < 0:
                raise ValueError(f"{self.name}: sd must be nonnegative")
        else:
            if len(self.values) < 2 or len(self.values) != len(self.probabilities):
                raise ValueError(f"{self.name}: values and probabilities must align (>= 2 values)")
            if not abs(sum(self.probabilities) - 1.0) <= 1e-9 or min(self.probabilities) < 0:
                raise ValueError(f"{self.name}: probabilities must be a distribution")


@dataclass(frozen=True)
class SynthSpec:
    n_rows: int
    group_column: str
    group_distribution: dict[str, float]
    features: tuple[FeatureDef, ...]
    coefficients: dict  # group -> term -> weight; terms: numeric name or "name=value"
    group_offsets: dict[str, float] = field(default_factory=dict)
    noise_sd: float = 1.0
    prevalence: float = 0.64
    label_column: str = "cad"
    positive_label: str = "yes"
    negative_label: str = "no"
    seed: int = 0

    def __post_init__(self):
        check_types(vars(self), field_types(SynthSpec), "synth spec")
        for what, value, low in (("n_rows", self.n_rows, 100), ("seed", self.seed, 0)):
            if value < low:
                raise ValueError(f"{what} must be an integer of at least {low}, got {value!r}")
        if not 0.0 < self.prevalence < 1.0:
            raise ValueError("prevalence must lie in (0, 1)")
        positives = round(self.n_rows * self.prevalence)
        if not 0 < positives < self.n_rows:
            raise ValueError(
                f"prevalence {self.prevalence!r} puts {positives} of {self.n_rows} rows "
                "in the positive class; the label needs both classes"
            )
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        probs = self.group_distribution
        if not probs:
            raise ValueError("group_distribution must be nonempty")
        if not abs(sum(probs.values()) - 1.0) <= 1e-9 or min(probs.values()) < 0:
            raise ValueError("group probabilities must sum to 1")
        names = [f.name for f in self.features]
        reserved = {self.group_column, self.label_column}
        if len(set(names)) != len(names) or reserved & set(names):
            raise ValueError("feature names must be unique and distinct from group/label")
        valid_terms = set()
        for f in self.features:
            if f.kind == NUMERIC:
                valid_terms.add(f.name)
            else:
                valid_terms.update(f"{f.name}={v}" for v in f.values)
        for group, terms in self.coefficients.items():
            if group not in probs:
                raise ValueError(f"coefficients reference unknown group {group!r}")
            check_type(terms, dict[str, float], f"synth spec: coefficients of group {group!r}")
            bad = set(terms) - valid_terms
            if bad:
                raise ValueError(f"unknown coefficient terms: {sorted(bad)}")
        if set(self.group_offsets) - set(probs):
            raise ValueError("group_offsets reference unknown groups")
        self._check_cells()

    def _check_cells(self) -> None:
        """Refuse a category, group or label value that the cohort CSV would not
        read back as written: `load_csv` strips each cell, reads an empty one
        as missing and refuses a NUL; numpy's string arrays drop a trailing
        NUL. Two equal values in one column would merge, and so would the two
        labels."""
        columns = [(f"feature {f.name!r} values", f.values) for f in self.features if f.kind == CATEGORICAL]
        columns += [("group_distribution", tuple(self.group_distribution)),
                    ("positive_label", (self.positive_label,)), ("negative_label", (self.negative_label,))]
        for where, values in columns:
            for value in values:
                fault = (
                    "is not a string" if not isinstance(value, str)
                    else "is empty" if not value
                    else "holds a NUL" if "\x00" in value
                    else "has leading or trailing whitespace" if value != value.strip()
                    else None
                )
                if fault:
                    raise ValueError(f"{where}: {value!r} {fault}, which the cohort CSV cannot carry")
            dupes = sorted({v for v in values if values.count(v) > 1})
            if dupes:
                raise ValueError(f"{where}: duplicate values {dupes}")
        if self.positive_label == self.negative_label:
            raise ValueError(f"negative_label must differ from positive_label {self.positive_label!r}")

    def schema(self) -> tuple[ColumnSchema, ...]:
        cols = [ColumnSchema(name=f.name, kind=f.kind, role=ROLE_FEATURE) for f in self.features]
        cols.append(ColumnSchema(name=self.group_column, kind=CATEGORICAL, role=ROLE_GROUP))
        cols.append(
            ColumnSchema(
                name=self.label_column,
                kind=CATEGORICAL,
                role=ROLE_LABEL,
                positive_label=self.positive_label,
            )
        )
        return tuple(cols)


def _logit(u: np.ndarray) -> np.ndarray:
    return np.log(u / (1.0 - u))


def generate_with_truth(spec: SynthSpec) -> tuple[Table, dict]:
    """The cohort table plus the generative ground truth that produced it."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_rows
    group_names = list(spec.group_distribution)
    group_probs = [spec.group_distribution[g] for g in group_names]
    groups = rng.choice(group_names, size=n, p=group_probs)

    columns: dict[str, np.ndarray | list[str]] = {}
    terms: dict[str, np.ndarray] = {}
    for f in spec.features:
        if f.kind == NUMERIC:
            x = rng.normal(f.mean, f.sd, size=n)
            columns[f.name] = x
            terms[f.name] = (x - f.mean) / f.sd if f.sd > 0 else np.zeros(n)
        else:
            x = rng.choice(list(f.values), size=n, p=list(f.probabilities))
            columns[f.name] = x.tolist()
            for v in f.values:
                terms[f"{f.name}={v}"] = (x == v).astype(float)

    score = np.zeros(n)
    for g in group_names:  # offset, then each weighted term in coefficient order
        rows = groups == g
        total = np.full(np.count_nonzero(rows), float(spec.group_offsets.get(g, 0.0)))
        for term, w in spec.coefficients.get(g, {}).items():
            total = total + w * terms[term][rows]
        score[rows] = total
    if spec.noise_sd > 0:
        score = score + rng.normal(0.0, spec.noise_sd, size=n)

    u = rng.uniform(size=n)
    # u < sigmoid(c + s)  iff  logit(u) - s < c; bisect c onto the target count
    thresholds = _logit(np.clip(u, 1e-15, 1.0 - 1e-15)) - score
    m_target = int(round(n * spec.prevalence))
    lo = float(thresholds.min()) - 1.0
    hi = float(thresholds.max()) + 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if int((thresholds < mid).sum()) >= m_target:
            hi = mid
        else:
            lo = mid
    intercept = hi
    labels = thresholds < intercept
    realized = int(labels.sum())

    label_cells = np.where(labels, spec.positive_label, spec.negative_label)
    cells = [columns[f.name] for f in spec.features] + [groups.tolist(), label_cells.tolist()]
    table = Table.from_columns(spec.schema(), cells)

    truth = {
        "intercept": intercept,
        "coefficients": {g: dict(t) for g, t in spec.coefficients.items()},
        "group_offsets": dict(spec.group_offsets),
        "noise_sd": spec.noise_sd,
        "target_prevalence": spec.prevalence,
        "realized_prevalence": realized / n,
        "group_counts": {g: int((groups == g).sum()) for g in group_names},
    }
    return table, truth


def generate(spec: SynthSpec) -> Table:
    return generate_with_truth(spec)[0]


def _nine_attribute_features() -> tuple[FeatureDef, ...]:
    """Numeric and categorical marginals shaped like the clinical cohort."""
    yes_no = ("yes", "no")
    return (
        FeatureDef(name="age", kind=NUMERIC, mean=45.0, sd=8.0),
        FeatureDef(name="wc", kind=NUMERIC, mean=95.0, sd=12.0),
        FeatureDef(name="bmi", kind=NUMERIC, mean=27.0, sd=4.0),
        FeatureDef(name="ldl", kind=NUMERIC, mean=110.0, sd=30.0),
        FeatureDef(
            name="gender", kind=CATEGORICAL, values=("female", "male"), probabilities=(0.5, 0.5)
        ),
        FeatureDef(name="smoking", kind=CATEGORICAL, values=yes_no, probabilities=(0.25, 0.75)),
        FeatureDef(name="dm", kind=CATEGORICAL, values=yes_no, probabilities=(0.3, 0.7)),
        FeatureDef(name="hbp", kind=CATEGORICAL, values=yes_no, probabilities=(0.35, 0.65)),
    )


def _nine_attribute_spec(
    terms: dict, offset: float | None, noise_sd: float, n_rows: int, seed: int
) -> SynthSpec:
    """The nine-attribute cohort: all groups share `terms`; offsets alternate +/-offset."""
    return SynthSpec(
        n_rows=n_rows,
        group_column="ethnicity",
        group_distribution=_normalized(DEFAULT_GROUP_WEIGHTS),
        features=_nine_attribute_features(),
        coefficients={g: dict(terms) for g in DEFAULT_GROUP_WEIGHTS},
        group_offsets={} if offset is None else {
            g: offset if i % 2 == 0 else -offset for i, g in enumerate(DEFAULT_GROUP_WEIGHTS)
        },
        noise_sd=noise_sd,
        seed=seed,
    )


def default_cohort_spec(n_rows: int = 1000, seed: int = 0) -> SynthSpec:
    """A nine-attribute cohort with moderate signal on every feature."""
    terms = {
        "gender=male": 1.2,
        "age": 0.9,
        "wc": 0.7,
        "smoking=yes": 0.5,
        "dm=yes": 0.45,
        "hbp=yes": 0.35,
        "bmi": 0.3,
        "ldl": 0.2,
    }
    return _nine_attribute_spec(terms, 0.3, 1.0, n_rows, seed)


def planted_ablation_spec(effect: float, n_rows: int = 5000, seed: int = 0) -> SynthSpec:
    """A cohort whose group shifts the label's log-odds by +/- effect.

    With effect 0 the group column is pure noise; with a positive effect,
    excluding the group from a classifier's inputs must cost measurable
    held-out performance.
    """
    if effect < 0:
        raise ValueError("effect must be nonnegative")
    terms = {
        "age": 0.8,
        "gender=male": 0.8,
        "wc": 0.6,
        "smoking=yes": 0.5,
        "dm=yes": 0.4,
        "hbp=yes": 0.3,
        "bmi": 0.25,
        "ldl": 0.2,
    }
    return _nine_attribute_spec(terms, effect, 1.0, n_rows, seed)


def planted_separable_spec(n_rows: int = 2000, seed: int = 0) -> SynthSpec:
    """A strongly separable cohort: a few dominant effects, little noise."""
    terms = {
        "age": 5.0,
        "gender=male": 4.2,
        "wc": 3.6,
        "smoking=yes": 2.6,
        "dm=yes": 1.8,
        "bmi": 1.2,
    }
    return _nine_attribute_spec(terms, None, 0.1, n_rows, seed)


# The FeatureDef fields a feature entry of each kind leaves out: a numeric
# feature has no categories, a categorical one no mean or sd.
_UNUSED_FIELDS = {NUMERIC: {"values", "probabilities"}, CATEGORICAL: {"mean", "sd"}}


def spec_to_json(spec: SynthSpec) -> dict:
    doc = asdict(spec)
    doc["features"] = [
        {k: v for k, v in f.items() if k not in _UNUSED_FIELDS[f["kind"]]} for f in doc["features"]
    ]
    return json.loads(json.dumps(doc))


def _feature_from_json(doc) -> FeatureDef:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in _UNUSED_FIELDS:
        raise ValueError(f"each feature must be an object whose kind is {NUMERIC!r} or {CATEGORICAL!r}")
    check_keys(doc, f"{kind} feature", {f.name for f in fields(FeatureDef)} - _UNUSED_FIELDS[kind])
    return FeatureDef(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


def spec_from_json(doc: dict) -> SynthSpec:
    check_fields(doc, "synth spec", SynthSpec)
    check_type(doc["features"], list, "synth spec: features")
    return SynthSpec(**doc | {"features": tuple(_feature_from_json(f) for f in doc["features"])})


def load_spec_json(path) -> SynthSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))


def with_seed(spec: SynthSpec, seed: int) -> SynthSpec:
    return replace(spec, seed=seed)
