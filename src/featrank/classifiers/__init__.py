"""Six binary classifiers behind one fit/predict interface.

Every kind consumes a data table and an optional list of included features,
and produces a Model whose scores are positive-class probabilities in [0,1].
Training rows are put in a canonical order before any seeded sampling: one
stable `np.lexsort` by the feature columns (first feature most significant,
category codes sorting as their strings) and then the label. So fitted
models do not depend on input row order. An estimator's constructor
arguments are its hyperparameters, and a saved model is a versioned JSON
document of the estimator's and the feature encoder's attributes.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field

import numpy as np

from .. import dataio
from ..dataio import Table
from ..seeding import derive_seed
from ..weighting import BinEdges
from .encoding import FeatureEncoder
from .linear import LogisticGlm
from .mlp import Mlp, gradient_check
from .rules import RuleInduction
from .trees import DecisionTree, GradientBoostedTrees, RandomForest

MODEL_FORMAT_VERSION = 1

CLASSIFIERS = ("rule_induction", "mlp", "glm", "gbt", "decision_tree", "random_forest")

CLASSIFIER_LABELS = {
    "rule_induction": "Rule Induction",
    "mlp": "Deep Learning",
    "glm": "Generalized Linear Model",
    "gbt": "Gradient Boosted Tree",
    "decision_tree": "Decision Tree",
    "random_forest": "Random Forest",
}

_ESTIMATORS = {
    "decision_tree": DecisionTree,
    "random_forest": RandomForest,
    "gbt": GradientBoostedTrees,
    "glm": LogisticGlm,
    "mlp": Mlp,
    "rule_induction": RuleInduction,
}

# Each class's constructor parameters and their defaults, read once from its
# signature. A hyperparameter whose default is an int takes positive integers.
_PARAMETERS = {
    cls: {name: p.default for name, p in inspect.signature(cls).parameters.items()}
    for cls in (*_ESTIMATORS.values(), FeatureEncoder)
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
        defaults = _PARAMETERS[_ESTIMATORS[self.kind]]
        for key, value in self.hyperparameters.items():
            if key not in defaults:
                raise ValueError(f"{self.kind} does not accept hyperparameter {key!r}")
            if isinstance(defaults[key], int):
                if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                    raise ValueError(f"{key} must be a positive integer")
            elif not dataio.is_finite_number(value):
                raise ValueError(f"{key} must be a finite number")
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
    all_feats = list(train.feature_names())
    if features is None:
        feats = all_feats
    else:
        unknown = set(features) - set(all_feats)
        if unknown:
            raise ValueError(f"unknown feature columns: {sorted(unknown)}")
        feats = [f for f in all_feats if f in set(features)]
    if not feats:
        raise ValueError("no feature columns selected")
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

    params = spec.params()
    if spec.kind == "rule_induction":
        inner = RuleInduction(**params).fit(columns, feats, kinds, y, spec.seed)
        encoder = None
    else:
        standardize = spec.kind in ("glm", "mlp")
        encoder = FeatureEncoder.build(feats, kinds, columns, standardize)
        x_mat = encoder.transform(columns)
        inner = _ESTIMATORS[spec.kind](**params).fit(x_mat, y.astype(float), spec.seed)
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
            if not dataio.is_finite_number(v):
                raise ValueError(f"feature {f!r} requires a finite number")
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
    feats = list(train.feature_names())
    kinds = tuple(train.column_schema(f).kind for f in feats)
    columns = [train.encoded(f) for f in feats]
    encoder = FeatureEncoder.build(feats, kinds, columns, standardize=True)
    x_mat = encoder.transform(columns)
    net = Mlp(**spec.params())
    return gradient_check(
        net, x_mat, train.y.astype(float), epsilon, seed=derive_seed(spec.seed, "gradcheck")
    )


def _document(obj) -> dict:
    """An estimator's or encoder's attributes as JSON values."""
    return json.loads(json.dumps(vars(obj), default=np.ndarray.tolist))


def _restore(cls, doc: dict):
    """Construct an estimator or encoder from the constructor parameters in its
    document, then set the fitted attributes."""
    params = _PARAMETERS[cls]
    if not params.keys() <= doc.keys():
        raise ValueError(f"{cls.__name__} document lacks {sorted(params.keys() - doc.keys())}")
    obj = cls(**{name: doc[name] for name in params})
    dataio.check_keys(doc, f"{cls.__name__} document", vars(obj))
    for name in doc.keys() - params.keys():
        setattr(obj, name, doc[name])
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
_DOCUMENT_TYPES = {
    "format_version": int,
    "kind": str,
    "hyperparameters": dict,
    "seed": int,
    "features": list,
    "feature_kinds": list,
    "encoder": (dict, type(None)),
    "model": dict,
}


def model_from_json(doc: dict) -> Model:
    dataio.check_keys(doc, "model document", _DOCUMENT_TYPES)
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version: {doc['format_version']!r}")
    for key, types in _DOCUMENT_TYPES.items():
        if not isinstance(doc[key], types):
            raise ValueError(f"model document field {key!r} has the wrong JSON type")
    features, kinds = doc["features"], doc["feature_kinds"]
    if not all(isinstance(f, str) for f in features) or len(set(features)) != len(features):
        raise ValueError("model document: features must be a list of distinct strings")
    if len(kinds) != len(features) or not all(k in (dataio.NUMERIC, dataio.CATEGORICAL) for k in kinds):
        raise ValueError("model document: feature_kinds must be numeric or categorical per feature")
    enc = doc["encoder"]
    if enc is not None and (enc.get("names") != features or enc.get("kinds") != kinds):
        raise ValueError("model document: encoder names and kinds must equal features and feature_kinds")
    spec = ClassifierSpec(kind=doc["kind"], hyperparameters=doc["hyperparameters"], seed=doc["seed"])
    encoder = None if doc["encoder"] is None else _restore(FeatureEncoder, doc["encoder"])
    inner = _restore(_ESTIMATORS[spec.kind], doc["model"])
    if spec.kind == "rule_induction":
        for name, edges in inner.bins.items():
            BinEdges(column=name, edges=tuple(edges))  # refuses edges not strictly increasing
    return Model(
        spec=spec,
        features=tuple(features),
        kinds=tuple(kinds),
        encoder=encoder,
        inner=inner,
    )
