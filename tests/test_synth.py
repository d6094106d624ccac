"""Synthetic cohort generation and its planted ground truth."""

import json

import pytest

from featrank.dataio import CATEGORICAL, NUMERIC, load_schema_json, observed_groups, schema_to_json
from featrank.synth import (
    FeatureDef,
    SynthSpec,
    default_cohort_spec,
    generate,
    generate_with_truth,
    load_spec_json,
    planted_ablation_spec,
    planted_separable_spec,
    spec_from_json,
    spec_to_json,
    with_seed,
)


# default_cohort_spec(n_rows=120, seed=3) as documents, byte for byte: its spec as
# json.dumps(spec_to_json(spec)) writes it, and the schema.json `featrank synth` writes.
SPEC_TEXT = (
    '{"n_rows": 120, "group_column": "ethnicity", '
    '"group_distribution": {"Fars": 0.5194805194805194, "Azari": 0.13246753246753246, '
    '"Kurd": 0.1038961038961039, "Gilak": 0.06233766233766234, "Lor": 0.03636363636363636, '
    '"Arab": 0.03636363636363636, "Bakhtiari": 0.03636363636363636, '
    '"Qashghaei": 0.03636363636363636, "Balouch": 0.03636363636363636}, '
    '"features": [{"name": "age", "kind": "numeric", "mean": 45.0, "sd": 8.0}, '
    '{"name": "wc", "kind": "numeric", "mean": 95.0, "sd": 12.0}, {"name": "bmi", '
    '"kind": "numeric", "mean": 27.0, "sd": 4.0}, {"name": "ldl", "kind": "numeric", '
    '"mean": 110.0, "sd": 30.0}, {"name": "gender", "kind": "categorical", '
    '"values": ["female", "male"], "probabilities": [0.5, 0.5]}, {"name": "smoking", '
    '"kind": "categorical", "values": ["yes", "no"], "probabilities": [0.25, 0.75]}, '
    '{"name": "dm", "kind": "categorical", "values": ["yes", "no"], "probabilities": [0.3, '
    '0.7]}, {"name": "hbp", "kind": "categorical", "values": ["yes", "no"], '
    '"probabilities": [0.35, 0.65]}], "coefficients": {"Fars": {"gender=male": 1.2, '
    '"age": 0.9, "wc": 0.7, "smoking=yes": 0.5, "dm=yes": 0.45, "hbp=yes": 0.35, '
    '"bmi": 0.3, "ldl": 0.2}, "Azari": {"gender=male": 1.2, "age": 0.9, "wc": 0.7, '
    '"smoking=yes": 0.5, "dm=yes": 0.45, "hbp=yes": 0.35, "bmi": 0.3, "ldl": 0.2}, '
    '"Kurd": {"gender=male": 1.2, "age": 0.9, "wc": 0.7, "smoking=yes": 0.5, '
    '"dm=yes": 0.45, "hbp=yes": 0.35, "bmi": 0.3, "ldl": 0.2}, '
    '"Gilak": {"gender=male": 1.2, "age": 0.9, "wc": 0.7, "smoking=yes": 0.5, '
    '"dm=yes": 0.45, "hbp=yes": 0.35, "bmi": 0.3, "ldl": 0.2}, "Lor": {"gender=male": 1.2, '
    '"age": 0.9, "wc": 0.7, "smoking=yes": 0.5, "dm=yes": 0.45, "hbp=yes": 0.35, '
    '"bmi": 0.3, "ldl": 0.2}, "Arab": {"gender=male": 1.2, "age": 0.9, "wc": 0.7, '
    '"smoking=yes": 0.5, "dm=yes": 0.45, "hbp=yes": 0.35, "bmi": 0.3, "ldl": 0.2}, '
    '"Bakhtiari": {"gender=male": 1.2, "age": 0.9, "wc": 0.7, "smoking=yes": 0.5, '
    '"dm=yes": 0.45, "hbp=yes": 0.35, "bmi": 0.3, "ldl": 0.2}, '
    '"Qashghaei": {"gender=male": 1.2, "age": 0.9, "wc": 0.7, "smoking=yes": 0.5, '
    '"dm=yes": 0.45, "hbp=yes": 0.35, "bmi": 0.3, "ldl": 0.2}, '
    '"Balouch": {"gender=male": 1.2, "age": 0.9, "wc": 0.7, "smoking=yes": 0.5, '
    '"dm=yes": 0.45, "hbp=yes": 0.35, "bmi": 0.3, "ldl": 0.2}}, '
    '"group_offsets": {"Fars": 0.3, "Azari": -0.3, "Kurd": 0.3, "Gilak": -0.3, "Lor": 0.3, '
    '"Arab": -0.3, "Bakhtiari": 0.3, "Qashghaei": -0.3, "Balouch": 0.3}, "noise_sd": 1.0, '
    '"prevalence": 0.64, "label_column": "cad", "positive_label": "yes", '
    '"negative_label": "no", "seed": 3}'
)
SCHEMA_TEXT = """\
{
  "columns": [
    {
      "name": "age",
      "kind": "numeric",
      "role": "feature"
    },
    {
      "name": "wc",
      "kind": "numeric",
      "role": "feature"
    },
    {
      "name": "bmi",
      "kind": "numeric",
      "role": "feature"
    },
    {
      "name": "ldl",
      "kind": "numeric",
      "role": "feature"
    },
    {
      "name": "gender",
      "kind": "categorical",
      "role": "feature"
    },
    {
      "name": "smoking",
      "kind": "categorical",
      "role": "feature"
    },
    {
      "name": "dm",
      "kind": "categorical",
      "role": "feature"
    },
    {
      "name": "hbp",
      "kind": "categorical",
      "role": "feature"
    },
    {
      "name": "ethnicity",
      "kind": "categorical",
      "role": "group"
    },
    {
      "name": "cad",
      "kind": "categorical",
      "role": "label",
      "positive_label": "yes"
    }
  ]
}
"""


def tiny_spec(**overrides) -> SynthSpec:
    base = dict(
        n_rows=200,
        group_column="g",
        group_distribution={"a": 0.5, "b": 0.5},
        features=(
            FeatureDef(name="x", kind=NUMERIC, mean=0.0, sd=1.0),
            FeatureDef(name="c", kind=CATEGORICAL, values=("u", "v"), probabilities=(0.5, 0.5)),
        ),
        coefficients={"a": {"x": 1.0}, "b": {"c=u": 0.5}},
        seed=3,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestFeatureDef:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown feature kind"):
            FeatureDef(name="x", kind="ordinal")

    def test_negative_sd(self):
        with pytest.raises(ValueError, match="sd must be nonnegative"):
            FeatureDef(name="x", kind=NUMERIC, sd=-1.0)

    def test_categorical_needs_aligned_values(self):
        with pytest.raises(ValueError, match="align"):
            FeatureDef(name="c", kind=CATEGORICAL, values=("u",), probabilities=(1.0,))
        with pytest.raises(ValueError, match="align"):
            FeatureDef(name="c", kind=CATEGORICAL, values=("u", "v"), probabilities=(1.0,))

    def test_probabilities_must_be_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            FeatureDef(name="c", kind=CATEGORICAL, values=("u", "v"), probabilities=(0.9, 0.3))


class TestSynthSpecValidation:
    def test_minimum_rows(self):
        with pytest.raises(ValueError, match="at least 100"):
            tiny_spec(n_rows=99)

    def test_prevalence_open_interval(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="prevalence"):
                tiny_spec(prevalence=bad)

    def test_noise_sd_nonnegative(self):
        with pytest.raises(ValueError, match="noise_sd"):
            tiny_spec(noise_sd=-0.5)

    def test_group_distribution_checked(self):
        with pytest.raises(ValueError, match="nonempty"):
            tiny_spec(group_distribution={}, coefficients={})
        with pytest.raises(ValueError, match="sum to 1"):
            tiny_spec(group_distribution={"a": 0.7, "b": 0.7})

    def test_feature_names_unique_and_unreserved(self):
        dup = (
            FeatureDef(name="x", kind=NUMERIC),
            FeatureDef(name="x", kind=NUMERIC),
        )
        with pytest.raises(ValueError, match="unique"):
            tiny_spec(features=dup, coefficients={})
        clash = (FeatureDef(name="g", kind=NUMERIC),)
        with pytest.raises(ValueError, match="distinct from group/label"):
            tiny_spec(features=clash, coefficients={})

    def test_coefficients_reference_known_groups_and_terms(self):
        with pytest.raises(ValueError, match="unknown group"):
            tiny_spec(coefficients={"zzz": {"x": 1.0}})
        with pytest.raises(ValueError, match="unknown coefficient terms"):
            tiny_spec(coefficients={"a": {"c=missing": 1.0}})
        with pytest.raises(ValueError, match="unknown coefficient terms"):
            tiny_spec(coefficients={"a": {"nope": 1.0}})

    def test_group_offsets_reference_known_groups(self):
        with pytest.raises(ValueError, match="group_offsets"):
            tiny_spec(group_offsets={"zzz": 1.0})


class TestSchema:
    def test_roles_and_order(self):
        schema = tiny_spec().schema()
        assert [c.name for c in schema] == ["x", "c", "g", "cad"]
        assert [c.role for c in schema] == ["feature", "feature", "group", "label"]
        assert schema[-1].positive_label == "yes"

    def test_custom_label_names(self):
        spec = tiny_spec(label_column="outcome", positive_label="sick", negative_label="well")
        table = generate(spec)
        assert table.schema[-1].name == "outcome"
        assert set(table.column("outcome")) <= {"sick", "well"}


class TestGeneration:
    def test_deterministic_and_seed_sensitive(self):
        spec = tiny_spec()
        assert generate(spec).rows == generate(spec).rows
        assert generate(spec).rows != generate(with_seed(spec, 4)).rows
        assert with_seed(spec, 4).seed == 4

    def test_realized_prevalence_is_exact(self):
        for spec in (tiny_spec(prevalence=0.3), default_cohort_spec(n_rows=500, seed=1)):
            table, truth = generate_with_truth(spec)
            target = round(spec.n_rows * spec.prevalence)
            assert sum(table.label01()) == target
            assert truth["realized_prevalence"] == pytest.approx(target / spec.n_rows)

    def test_group_counts_match_truth(self):
        table, truth = generate_with_truth(default_cohort_spec(n_rows=2000, seed=2))
        for g in observed_groups(table):
            assert table.column("ethnicity").count(g) == truth["group_counts"][g]
        assert sum(truth["group_counts"].values()) == 2000
        assert max(truth["group_counts"], key=truth["group_counts"].get) == "Fars"

    def test_truth_echoes_generative_configuration(self):
        spec = tiny_spec()
        _, truth = generate_with_truth(spec)
        assert set(truth) == {
            "intercept",
            "coefficients",
            "group_offsets",
            "noise_sd",
            "target_prevalence",
            "realized_prevalence",
            "group_counts",
        }
        assert truth["coefficients"] == {"a": {"x": 1.0}, "b": {"c=u": 0.5}}
        assert truth["noise_sd"] == 1.0
        assert truth["target_prevalence"] == 0.64

    def test_planted_numeric_effect_shifts_positive_mean(self):
        table = generate(planted_separable_spec(n_rows=2000, seed=4))
        y = table.label01()
        ages = table.column("age")
        pos = [a for a, v in zip(ages, y) if v == 1]
        neg = [a for a, v in zip(ages, y) if v == 0]
        assert sum(pos) / len(pos) > sum(neg) / len(neg) + 2.0

    def test_cell_types_match_schema(self):
        table = generate(tiny_spec())
        for row in table.rows:
            assert isinstance(row[0], float)
            assert isinstance(row[1], str)


class TestPlantedSpecs:
    def test_ablation_effect_sign(self):
        spec = planted_ablation_spec(effect=1.5, n_rows=500, seed=0)
        offsets = set(spec.group_offsets.values())
        assert offsets == {1.5, -1.5}
        null = planted_ablation_spec(effect=0.0, n_rows=500, seed=0)
        assert set(null.group_offsets.values()) == {0.0}

    def test_negative_effect_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            planted_ablation_spec(effect=-1.0)


class TestSpecJson:
    def test_round_trip_identity(self):
        for spec in (tiny_spec(), default_cohort_spec(), planted_ablation_spec(1.5)):
            doc = spec_to_json(spec)
            json.dumps(doc)
            assert spec_from_json(doc) == spec

    def test_defaults_fill_missing_optional_fields(self):
        doc = spec_to_json(tiny_spec())
        for key in ("group_offsets", "noise_sd", "label_column", "seed"):
            doc.pop(key, None)
        spec = spec_from_json(doc)
        assert spec.group_offsets == {}
        assert spec.noise_sd == 1.0
        assert spec.label_column == "cad"
        assert spec.seed == 0

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        original = default_cohort_spec(n_rows=300, seed=9)
        path.write_text(json.dumps(spec_to_json(original)), encoding="utf-8")
        assert load_spec_json(path) == original

    def test_documents_written_as_literals_load_and_write_back(self, tmp_path):
        spec = default_cohort_spec(n_rows=120, seed=3)
        (tmp_path / "spec.json").write_text(SPEC_TEXT, encoding="utf-8")
        (tmp_path / "schema.json").write_text(SCHEMA_TEXT, encoding="utf-8")
        assert load_spec_json(tmp_path / "spec.json") == spec
        assert load_schema_json(tmp_path / "schema.json") == list(spec.schema())
        assert json.dumps(spec_to_json(spec)) == SPEC_TEXT
        assert json.dumps(schema_to_json(spec.schema()), indent=2) + "\n" == SCHEMA_TEXT

    @pytest.mark.parametrize(
        "field, change",
        [
            ("coefficients", {"coefficients": []}),
            ("group_offsets", {"group_offsets": []}),
            ("features", {"features": 5}),
            ("prevalence", {"prevalence": "x"}),
            ("label_column", {"label_column": 5}),
            ("group_distribution", {"group_distribution": {"a": "0.5", "b": 0.5}}),
            ("coefficients of group 'a'", {"coefficients": {"a": []}}),
        ],
    )
    def test_wrong_json_type_is_value_error_naming_the_field(self, field, change):
        with pytest.raises(ValueError, match=field):
            spec_from_json(spec_to_json(tiny_spec()) | change)

    @pytest.mark.parametrize(
        "field, change",
        [("name", {"name": 5}), ("values", {"values": "uv"}), ("values", {"values": [1, 2]}),
         ("probabilit", {"probabilities": ["0.5", "0.5"]})],
    )
    def test_wrong_feature_json_type_is_value_error(self, field, change):
        doc = spec_to_json(tiny_spec())
        doc["features"][1] |= change
        with pytest.raises(ValueError, match=field):
            spec_from_json(doc)

    def test_round_trip_generates_identical_tables(self):
        spec = tiny_spec()
        back = spec_from_json(spec_to_json(spec))
        assert generate(spec).rows == generate(back).rows
