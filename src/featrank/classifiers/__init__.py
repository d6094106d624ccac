"""Six binary classifiers behind one fit/predict interface.

Every kind consumes a data table and an optional list of included features,
and produces a Model whose scores are positive-class probabilities in [0,1].
Training rows are put in a canonical order before any seeded sampling: one
stable `np.lexsort` by the feature columns (first feature most significant,
category codes sorting as their strings) and then the label. So fitted
models do not depend on input row order. Each estimator and the feature
encoder is a dataclass whose init fields are its hyperparameters. A saved
model is a versioned JSON document of their fields, each annotated with its
saved JSON type: a fitted estimator holds numpy arrays there until it is
saved, and a loaded one holds lists. A tree kind holds its trees as one
`NodeTable`, fitted or loaded. Fitted fields start empty (a default factory),
so `vars()` lists every field in declaration order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .. import dataio
from ..dataio import Table
from ..seeding import derive_seed
from ..weighting import BinEdges
from .encoding import FeatureEncoder
from .linear import LogisticGlm
from .mlp import Mlp, gradient_check
from .rules import RuleInduction
from .trees import DecisionTree, GradientBoostedTrees, NodeTable, RandomForest

MODEL_FORMAT_VERSION = 1

# Each kind's report label and estimator, in reporting order.
_KINDS = {
    "rule_induction": ("Rule Induction", RuleInduction),
    "mlp": ("Deep Learning", Mlp),
    "glm": ("Generalized Linear Model", LogisticGlm),
    "gbt": ("Gradient Boosted Tree", GradientBoostedTrees),
    "decision_tree": ("Decision Tree", DecisionTree),
    "random_forest": ("Random Forest", RandomForest),
}
CLASSIFIERS = tuple(_KINDS)
CLASSIFIER_LABELS = {kind: label for kind, (label, _) in _KINDS.items()}
_ESTIMATORS = {kind: cls for kind, (_, cls) in _KINDS.items()}
# The kinds whose encoder standardizes the design matrix.
_STANDARDIZED_KINDS = ("glm", "mlp")

# Each estimator's init fields and their defaults. A hyperparameter's type is
# that of its field, and an integer one must be positive.
_PARAMETERS = {
    cls: {f.name: f.default for f in fields(cls) if f.init} for cls in _ESTIMATORS.values()
}
_POSITIVE_FLOAT_KEYS = {"learning_rate", "tol", "init_scale"}


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier kind, its hyperparameter overrides, and a seed."""

    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CLASSIFIERS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        cls = _ESTIMATORS[self.kind]
        for key, value in self.hyperparameters.items():
            if key not in _PARAMETERS[cls]:
                raise ValueError(f"{self.kind} does not accept hyperparameter {key!r}")
            declared = dataio.field_types(cls)[key]
            dataio.check_type(value, declared, f"{self.kind} hyperparameter {key}")
            if declared is int:
                if value < 1:
                    raise ValueError(f"{key} must be a positive integer")
            elif key in _POSITIVE_FLOAT_KEYS:
                if not value > 0:
                    raise ValueError(f"{key} must be positive")
            elif key == "shrinkage":
                if not 0 < value <= 1:
                    raise ValueError("shrinkage must be in (0, 1]")
            elif key == "l2":
                if value < 0:
                    raise ValueError("l2 must be nonnegative")

    def params(self) -> dict:
        return {**_PARAMETERS[_ESTIMATORS[self.kind]], **self.hyperparameters}


def default_specs(seed: int = 0) -> list[ClassifierSpec]:
    """One spec per kind at default settings, in reporting order."""
    return [ClassifierSpec(kind=k, seed=derive_seed(seed, "clf", k)) for k in CLASSIFIERS]


@dataclass(frozen=True)
class Model:
    spec: ClassifierSpec
    features: tuple[str, ...]
    kinds: tuple[str, ...]
    encoder: FeatureEncoder | None
    inner: object


def fit(spec: ClassifierSpec, train: Table, features=None) -> Model:
    """Train one classifier on the table's feature columns (or a subset)."""
    feats = train.features(features)
    if train.n_rows < 10:
        raise ValueError("training requires at least 10 rows")
    y = train.y
    if y.min() == y.max():
        raise ValueError("training set has a single class")

    kinds = tuple(train.column_schema(f).kind for f in feats)
    columns = [train.encoded(f) for f in feats]
    order = np.lexsort([y] + [data for data, _ in reversed(columns)])
    columns = [(data[order], cats) for data, cats in columns]
    y = y[order]

    inner = _ESTIMATORS[spec.kind](**spec.params())
    if spec.kind == "rule_induction":
        inner.fit(columns, feats, kinds, y, spec.seed)
        encoder = None
    else:
        encoder = FeatureEncoder.build(feats, kinds, columns, spec.kind in _STANDARDIZED_KINDS)
        inner.fit(encoder.transform(columns), y.astype(float), spec.seed)
    return Model(spec=spec, features=tuple(feats), kinds=kinds, encoder=encoder, inner=inner)


def _score_columns(model: Model, columns) -> np.ndarray:
    if model.encoder is None:
        raw = model.inner.scores(columns)
    else:
        raw = model.inner.scores(model.encoder.transform(columns))
    return np.clip(raw, 0.0, 1.0)


def predict_scores(model: Model, table: Table) -> list[float]:
    """Positive-class scores for every row of a table with matching columns."""
    for f, kind in zip(model.features, model.kinds):
        if table.column_schema(f).kind != kind:
            raise ValueError(f"column {f!r} kind mismatch with the trained model")
    columns = [table.encoded(f) for f in model.features]
    return _score_columns(model, columns).tolist()


def predict(model: Model, row: dict) -> float:
    """Positive-class score for one row given as a feature -> value mapping."""
    columns = []
    for f, kind in zip(model.features, model.kinds):
        if f not in row:
            raise ValueError(f"row is missing feature {f!r}")
        v = row[f]
        if kind == dataio.NUMERIC:
            dataio.check_type(v, float, f"feature {f!r}")
            columns.append((np.array([float(v)]), None))
        else:
            if not isinstance(v, str):
                raise ValueError(f"feature {f!r} requires a string value")
            columns.append((np.array([0]), (v,)))
    return float(_score_columns(model, columns)[0])


def mlp_gradient_check(spec: ClassifierSpec, train: Table, epsilon: float) -> float:
    """Analytic-vs-central-difference gradient comparison for the mlp kind."""
    if spec.kind != "mlp":
        raise ValueError("gradient check applies to the mlp kind only")
    feats = train.features()
    kinds = tuple(train.column_schema(f).kind for f in feats)
    columns = [train.encoded(f) for f in feats]
    encoder = FeatureEncoder.build(feats, kinds, columns, standardize=True)
    x_mat = encoder.transform(columns)
    net = Mlp(**spec.params())
    return gradient_check(
        net, x_mat, train.y.astype(float), epsilon, seed=derive_seed(spec.seed, "gradcheck")
    )


def _document(obj) -> dict:
    """An estimator's or encoder's attributes as JSON values: arrays and node
    tables are written by their `tolist`."""
    return json.loads(json.dumps(vars(obj), default=lambda value: value.tolist()))


def _restore(cls, doc: dict):
    """Construct an estimator or encoder from the init fields in its document,
    then set the other fields. The document holds exactly the class's fields,
    each of its declared type."""
    what = f"{cls.__name__} document"
    dataio.check_keys(doc, what, dataio.field_types(cls))
    dataio.check_types(doc, dataio.field_types(cls), what)
    obj = cls(**{f.name: doc[f.name] for f in fields(cls) if f.init})
    vars(obj).update((f.name, doc[f.name]) for f in fields(cls) if not f.init)
    return obj


def model_to_json(model: Model) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.spec.kind,
        "hyperparameters": dict(model.spec.hyperparameters),
        "seed": model.spec.seed,
        "features": list(model.features),
        "feature_kinds": list(model.kinds),
        "encoder": None if model.encoder is None else _document(model.encoder),
        "model": _document(model.inner),
    }


# The JSON type of each top-level value of a saved model document.
_TOP_LEVEL_TYPES = {
    "format_version": int,
    "kind": str,
    "hyperparameters": dict,
    "seed": int,
    "features": list[str],
    "feature_kinds": list[str],
    "encoder": dict | None,
    "model": dict,
}


def model_from_json(doc: dict) -> Model:
    dataio.check_keys(doc, "model document", _TOP_LEVEL_TYPES)
    dataio.check_types(doc, _TOP_LEVEL_TYPES, "model document")
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version: {doc['format_version']!r}")
    features, kinds = doc["features"], doc["feature_kinds"]
    if len(set(features)) != len(features):
        raise ValueError("model document: features must be distinct")
    if len(kinds) != len(features) or not all(k in (dataio.NUMERIC, dataio.CATEGORICAL) for k in kinds):
        raise ValueError("model document: feature_kinds must be numeric or categorical per feature")
    spec = ClassifierSpec(kind=doc["kind"], hyperparameters=doc["hyperparameters"], seed=doc["seed"])
    if (doc["encoder"] is None) != (spec.kind == "rule_induction"):
        raise ValueError("model document: encoder must be null for rule_induction and only for it")
    encoder = None if doc["encoder"] is None else _restore(FeatureEncoder, doc["encoder"])
    inner = _restore(_ESTIMATORS[spec.kind], doc["model"])
    for key, value in spec.params().items():
        if doc["model"][key] != value:
            raise ValueError(
                f"model document: model {key} {doc['model'][key]!r} is not the hyperparameter {value!r}"
            )
    _check_agreement(spec.kind, features, kinds, encoder, inner)
    return Model(
        spec=spec,
        features=tuple(features),
        kinds=tuple(kinds),
        encoder=encoder,
        inner=inner,
    )


def _check_agreement(kind, features, kinds, encoder, inner) -> None:
    """Refuse a loaded model whose parts disagree with each other or with its
    features, or whose tree nodes or rules are malformed."""
    numeric = {f for f, k in zip(features, kinds) if k == dataio.NUMERIC}
    if encoder is None:
        part, named, keyed, keys = "model", inner, "bins", numeric
    else:
        part, named, keyed, keys = "encoder", encoder, "categories", set(features) - numeric
    if list(named.names) != features or list(named.kinds) != kinds:
        raise ValueError(f"model document: {part} names and kinds must equal features and feature_kinds")
    if getattr(named, keyed).keys() != keys:
        raise ValueError(f"model document: {part} {keyed} must have the keys {sorted(keys)}")
    if encoder is None:
        for name, edges in inner.bins.items():
            BinEdges(column=name, edges=tuple(edges))  # refuses edges not strictly increasing
        _check_rules(inner.rules, kinds)
        return
    standardize = kind in _STANDARDIZED_KINDS
    if encoder.standardize != standardize:
        raise ValueError(f"model document: a {kind} encoder must have standardize {json.dumps(standardize)}")
    width = len(encoder.expanded_names)
    # vector name -> (vector or None, its length, or None where it must be null)
    stats = width if standardize else None
    expected = {"means": (encoder.means, stats), "scales": (encoder.scales, stats)}
    if kind == "glm":
        expected["coef"] = (inner.coef, width + 1)
    elif kind == "mlp":
        expected.update(w1=(inner.w1, width), b1=(inner.b1, inner.hidden), w2=(inner.w2, inner.hidden))
        expected.update({f"w1[{i}]": (row, inner.hidden) for i, row in enumerate(inner.w1)})
    for name, (vector, length) in expected.items():
        if (None if vector is None else len(vector)) != length:
            want = "null" if length is None else f"of length {length}"
            raise ValueError(f"model document: {name} must be {want} ({width} encoded columns)")
    if standardize and not (encoder.scales > 0).all():
        raise ValueError("model document: encoder scales must be positive")
    for name in {"root", "roots"} & vars(inner).keys():  # a tree kind's saved trees
        setattr(inner, name, NodeTable.load(vars(inner)[name], width))
    count = {"random_forest": "n_trees", "gbt": "n_rounds"}.get(kind)
    if count is not None and len(inner.roots) != getattr(inner, count):
        want = f"{count} = {getattr(inner, count)}"
        raise ValueError(f"model document: roots must hold {want} trees, not {len(inner.roots)}")


# The JSON type of each value of a rule.
_RULE_TYPES = {"conditions": list[list], "target": int, "precision": float, "coverage": int}


def _check_rules(rules, kinds) -> None:
    """Refuse rules unless each tests (feature index, symbol) pairs: a bin index
    for a numeric feature, a category for a categorical one."""
    for i, rule in enumerate(rules):
        at = f"model document: rule {i}"
        dataio.check_keys(rule, at, _RULE_TYPES)
        dataio.check_types(rule, _RULE_TYPES, at)
        if rule["target"] not in (0, 1):
            raise ValueError(f"{at}: target must be 0 or 1")
        for condition in rule["conditions"]:
            if len(condition) != 2:
                raise ValueError(f"{at}: a condition must be a (feature, value) pair")
            j, value = condition
            dataio.check_type(j, int, f"{at}: condition feature")
            if not 0 <= j < len(kinds):
                raise ValueError(f"{at}: condition feature {j} must index one of the {len(kinds)} features")
            symbol = int if kinds[j] == dataio.NUMERIC else str
            dataio.check_type(value, symbol, f"{at}: condition value")
