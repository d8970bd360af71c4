import collections.abc

import pytest

from iomatch.config import ConfigError
from iomatch.engine import MatchRun, MatchRunError, run_violations
from iomatch.model import (
    Certainty,
    Dataset,
    FeatureKind,
    FeatureSchema,
    FeatureScore,
    FeatureValue,
    InformationObject,
    MembershipShape,
    OrdinalAccuracy,
    OrdinalParams,
    ProximityBreakdown,
    QuantAccuracy,
    SchemaError,
    SourceProfile,
    ValidationError,
    profile_violations,
    source_sigma,
    validate_profile,
    validate_schema,
)
from iomatch.simulate import SceneSpecError


def quant(name, weight, xi=None, axes=None):
    return FeatureSchema(name=name, kind=FeatureKind.QUANTITATIVE, weight=weight,
                         quantitative_xi=xi, axes=axes)


def nominal(name, weight, delta):
    return FeatureSchema(name=name, kind=FeatureKind.NOMINAL, weight=weight, nominal_delta=delta)


def ordinal(name, weight, shape=MembershipShape.TRIANGULAR, width=None):
    return FeatureSchema(name=name, kind=FeatureKind.ORDINAL_FUZZY, weight=weight,
                         ordinal_params=OrdinalParams(shape=shape, width=width))


class TestValidateSchema:
    def test_equal_weights_valid(self):
        schema = validate_schema([quant("speed", 0.5, xi=3.0), nominal("type", 0.5, 0.1)])
        assert schema.names == ("speed", "type")

    def test_single_feature_valid(self):
        schema = validate_schema([quant("speed", 1.0)])
        assert len(schema) == 1

    def test_features_read_once(self):
        """A generator of features was read twice, so the schema came back empty."""
        schema = validate_schema(f for f in [quant("speed", 0.5, xi=3.0), nominal("type", 0.5, 0.1)])
        assert schema.names == ("speed", "type")

    def test_delta_above_half_rejected(self):
        with pytest.raises(SchemaError, match="0.5"):
            validate_schema([nominal("type", 1.0, 0.6)])

    def test_weight_sum_violation(self):
        with pytest.raises(SchemaError, match="sum"):
            validate_schema([quant("a", 0.5), quant("b", 0.6)])

    def test_every_violation_reported(self):
        bad = [
            nominal("type", 0.3, 0.6),
            quant("speed", 0.3, xi=-1.0),
            ordinal("rank", 0.3, width=-2.0),
        ]
        with pytest.raises(SchemaError) as excinfo:
            validate_schema(bad)
        messages = "\n".join(excinfo.value.errors)
        assert "type" in messages and "speed" in messages and "rank" in messages
        assert len(excinfo.value.errors) >= 4  # three field errors plus weight sum

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            validate_schema([quant("a", 0.5), quant("a", 0.5)])

    def test_kind_specific_fields_rejected_elsewhere(self):
        with pytest.raises(SchemaError, match="delta"):
            validate_schema([FeatureSchema("a", FeatureKind.QUANTITATIVE, 1.0, nominal_delta=0.1)])
        with pytest.raises(SchemaError, match="xi"):
            validate_schema([FeatureSchema("a", FeatureKind.NOMINAL, 1.0,
                                           quantitative_xi=1.0, nominal_delta=0.1)])

    def test_ordinal_requires_shape(self):
        with pytest.raises(SchemaError, match="shape"):
            validate_schema([FeatureSchema("r", FeatureKind.ORDINAL_FUZZY, 1.0)])

    def test_axes_only_on_quantitative(self):
        with pytest.raises(SchemaError, match="axes"):
            validate_schema([nominal("t", 1.0, 0.1).__class__(
                name="t", kind=FeatureKind.NOMINAL, weight=1.0, nominal_delta=0.1, axes=("x",))])

    def test_idempotent(self):
        schema = validate_schema([quant("speed", 1.0)])
        assert validate_schema(schema) is schema


class TestCertainty:
    def test_table_values(self):
        assert [c.value for c in Certainty] == [1.0, 0.7, 0.5, 0.25]

    def test_bijective_round_trip(self):
        for level in Certainty:
            assert Certainty(level.value) is level
            assert Certainty.from_label(level.label) is level

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            Certainty.from_label("sure")


class TestSourceProfile:
    def setup_method(self):
        self.schema = validate_schema(
            [quant("speed", 0.5), ordinal("rank", 0.25, width=2.0), nominal("type", 0.25, 0.1)]
        )

    def test_sigma_resolution_from_delta_max(self):
        profile = SourceProfile("s", {"speed": QuantAccuracy(delta_max=60.0)})
        assert source_sigma(self.schema.feature("speed"), profile) == 20.0
        assert profile_violations(profile, self.schema) == []

    def test_missing_quant_accuracy(self):
        profile = SourceProfile("s", {})
        errors = profile_violations(profile, self.schema)
        assert any("speed" in e and "missing" in e for e in errors)

    def test_both_sigma_and_delta_max_rejected(self):
        profile = SourceProfile("s", {"speed": QuantAccuracy(sigma=1.0, delta_max=3.0)})
        assert any("exactly one" in e for e in profile_violations(profile, self.schema))

    @pytest.mark.parametrize("accuracy, errors", [
        (QuantAccuracy(), ["s/speed: give exactly one of sigma or delta_max"]),
        (QuantAccuracy(sigma=-1.0, delta_max=3.0), ["s/speed: give exactly one of sigma or delta_max"]),
        (OrdinalAccuracy(width=1.0), ["s/speed: expected quantitative accuracy"]),
        (QuantAccuracy(sigma=-1.0), ["s/speed: accuracy must be positive"]),
    ])
    def test_one_fault_one_message(self, accuracy, errors):
        assert profile_violations(SourceProfile("s", {"speed": accuracy}), self.schema) == errors

    def test_delta_max_whose_sigma_underflows(self):
        profile = SourceProfile("s", {"speed": QuantAccuracy(delta_max=5e-324)})
        assert profile_violations(profile, self.schema) == ["s/speed: sigma must be strictly positive"]

    def test_ordinal_k_range(self):
        profile = SourceProfile("s", {"speed": QuantAccuracy(sigma=1.0),
                                      "rank": OrdinalAccuracy(relative_k=1.5)})
        assert any("(0, 1)" in e for e in profile_violations(profile, self.schema))

    def test_k_with_gaussian_shape_rejected(self):
        schema = validate_schema(
            [quant("speed", 0.5), ordinal("rank", 0.5, shape=MembershipShape.GAUSSIAN, width=3.0)]
        )
        profile = SourceProfile("s", {"speed": QuantAccuracy(sigma=1.0),
                                      "rank": OrdinalAccuracy(relative_k=0.3)})
        assert any("triangular" in e for e in profile_violations(profile, schema))

    def test_nominal_accuracy_rejected(self):
        profile = SourceProfile("s", {"speed": QuantAccuracy(sigma=1.0),
                                      "type": OrdinalAccuracy(width=1.0)})
        assert any("nominal" in e for e in profile_violations(profile, self.schema))

    def test_ordinal_falls_back_to_schema_width(self):
        profile = SourceProfile("s", {"speed": QuantAccuracy(sigma=1.0)})
        assert validate_profile(profile, self.schema) is profile

    def test_ordinal_without_any_width(self):
        schema = validate_schema([ordinal("rank", 1.0)])
        errors = profile_violations(SourceProfile("s", {}), schema)
        assert any("rank" in e for e in errors)


class TestObjectViolations:
    """One object's entries, judged by ``run_violations`` of a run whose
    dataset A holds that object alone."""

    def setup_method(self):
        self.schema = validate_schema(
            [quant("pos", 0.5, axes=("x", "y")), nominal("type", 0.5, 0.1)]
        )

    def violations(self, values):
        profiles = {s: SourceProfile(s, {"pos": QuantAccuracy(sigma=1.0)}) for s in ("s", "t")}
        dataset_a = Dataset.from_objects([InformationObject("a", "s", values)], self.schema)
        return run_violations(MatchRun(self.schema, profiles, dataset_a, Dataset.from_objects([], self.schema)))

    def test_conforming_object(self):
        assert self.violations({"pos": FeatureValue((1.0, 2.0)), "type": FeatureValue("tank")}) == []

    def test_wrong_arity(self):
        assert self.violations({"pos": FeatureValue((1.0,))}) == ["a/pos: expected 2 finite numeric components"]

    def test_wrong_payload_type(self):
        assert self.violations({"type": FeatureValue(3.0)}) == ["a/type: expected a label"]

    def test_unknown_feature(self):
        assert self.violations({"altitude": FeatureValue(1.0)}) == ["a: value for unknown feature 'altitude'"]

    def test_absent_features_allowed(self):
        assert self.violations({}) == []


class TestResultRecords:
    def test_feature_score_complement(self):
        score = FeatureScore.from_proximity(0.3)
        assert score.distance == 0.7

    def test_feature_score_invariant_enforced(self):
        with pytest.raises(ValueError):
            FeatureScore(0.3, 0.5)
        with pytest.raises(ValueError):
            FeatureScore(1.2, -0.2)

    def test_breakdown_invariant_enforced(self):
        with pytest.raises(ValueError):
            ProximityBreakdown(("a", "b"), {}, aggregate_proximity=0.4, aggregate_distance=0.4)


class TestValidationError:
    @pytest.mark.parametrize("error", [SchemaError, MatchRunError, ConfigError, SceneSpecError])
    def test_one_base_for_every_validation_error(self, error):
        """The command line catches the base and prints each violation."""
        exc = error(["first", "second"])
        assert isinstance(exc, ValidationError) and isinstance(exc, ValueError)
        assert exc.errors == ["first", "second"] and str(exc) == "first; second"


class TestDataset:
    def test_a_store_of_columns_not_a_sequence(self):
        schema = validate_schema([quant("speed", 0.5), nominal("type", 0.5, 0.1)])
        a = InformationObject("a1", "s1", {"speed": FeatureValue(2.5)})
        b = InformationObject("a2", "s1", {"speed": FeatureValue(1.0), "type": FeatureValue("tank", Certainty.DOUBTFUL)})
        dataset = Dataset.from_objects([a, b], schema)
        assert not isinstance(dataset, collections.abc.Sequence)
        assert (len(dataset), dataset.ids, dataset.source_ids, dataset.violations) == (2, ("a1", "a2"), ("s1", "s1"), ())
        assert dataset.columns["speed"].values.tolist() == [[2.5], [1.0]]
        assert dataset.columns["type"].present.tolist() == [False, True]
        assert dataset.columns["type"].certainty.tolist() == [1.0, Certainty.DOUBTFUL.value]
        with pytest.raises(TypeError):
            dataset[0]
