import pytest

from iomatch.aggregate import AggregationMethod, AggregationSpec
from iomatch.engine import MatchRun, MatchRunError, candidates, evaluate_pair, pairwise_breakdowns
from iomatch.fuzzy import apply_certainty, possibility, triangular_from_halfwidth
from iomatch.model import (
    Certainty,
    FeatureKind,
    FeatureSchema,
    FeatureValue,
    InformationObject,
    MembershipShape,
    OrdinalAccuracy,
    OrdinalParams,
    QuantAccuracy,
    Schema,
    SourceProfile,
)
from iomatch.quant import NormalErrorModel, quantitative_proximity

SPEED = FeatureSchema("speed", FeatureKind.QUANTITATIVE, weight=0.5, quantitative_xi=3.0)
TYPE = FeatureSchema("type", FeatureKind.NOMINAL, weight=0.5, nominal_delta=0.1)
SCHEMA = Schema((SPEED, TYPE))


def profile(source_id, sigma=1.0):
    return SourceProfile(source_id, {"speed": QuantAccuracy(sigma=sigma)})


def obj(object_id, source_id, speed, label="tank", certainty=Certainty.CERTAIN):
    return InformationObject(object_id, source_id, {
        "speed": FeatureValue(speed),
        "type": FeatureValue(label, certainty),
    })


def make_run(dataset_a, dataset_b, schema=SCHEMA, sigma_a=1.0, sigma_b=1.0, **kwargs):
    return MatchRun(
        schema=schema,
        profiles={"alpha": profile("alpha", sigma_a), "beta": profile("beta", sigma_b)},
        dataset_a=tuple(dataset_a),
        dataset_b=tuple(dataset_b),
        **kwargs,
    )


class TestPairwiseBreakdowns:
    def test_cardinality(self):
        a = [obj(f"a{i}", "alpha", 10.0 + i) for i in range(3)]
        b = [obj(f"b{i}", "beta", 10.0 + i) for i in range(3)]
        assert len(pairwise_breakdowns(make_run(a, b))) == 9

    def test_empty_dataset(self):
        assert list(pairwise_breakdowns(make_run([], [obj("b", "beta", 1.0)]))) == []
        assert list(pairwise_breakdowns(make_run([obj("a", "alpha", 1.0)], []))) == []

    def test_identical_pair_near_zero_distance(self):
        run = make_run([obj("a", "alpha", 42.0)], [obj("b", "beta", 42.0)])
        (breakdown,) = pairwise_breakdowns(run)
        speed_p = quantitative_proximity(NormalErrorModel(42, 1), NormalErrorModel(42, 1), xi=3.0)
        assert breakdown.per_feature["speed"].distance == pytest.approx(0.008, abs=0.002)
        assert breakdown.aggregate_proximity == pytest.approx((speed_p * 1.0) ** 0.5, abs=1e-12)
        assert breakdown.aggregate_distance < 0.005

    def test_result_independent_of_dataset_order(self):
        a = [obj(f"a{i}", "alpha", 10.0 + i) for i in range(4)]
        b = [obj(f"b{i}", "beta", 9.0 + 2 * i) for i in range(3)]
        straight = pairwise_breakdowns(make_run(a, b))
        shuffled = pairwise_breakdowns(make_run(list(reversed(a)), list(reversed(b))))
        key = lambda bd: bd.pair
        assert sorted(straight, key=key) == sorted(shuffled, key=key)

    def test_swap_transposes_pairs_and_keeps_values(self):
        a = [obj(f"a{i}", "alpha", 10.0 + 2 * i, "tank" if i else "truck") for i in range(3)]
        b = [obj(f"b{i}", "beta", 11.0 + i) for i in range(2)]
        forward = pairwise_breakdowns(make_run(a, b, sigma_a=1.0, sigma_b=2.0))
        backward = pairwise_breakdowns(
            MatchRun(
                schema=SCHEMA,
                profiles={"alpha": profile("alpha", 1.0), "beta": profile("beta", 2.0)},
                dataset_a=tuple(b),
                dataset_b=tuple(a),
            )
        )
        forward_map = {bd.pair: bd for bd in forward}
        for bd in backward:
            mirror = forward_map[(bd.pair[1], bd.pair[0])]
            assert bd.aggregate_proximity == mirror.aggregate_proximity
            for name, score in bd.per_feature.items():
                assert score.proximity == mirror.per_feature[name].proximity

    def test_absent_feature_renormalizes_weights(self):
        a = InformationObject("a", "alpha", {"speed": FeatureValue(10.0)})
        b = obj("b", "beta", 10.0)
        (breakdown,) = pairwise_breakdowns(make_run([a], [b]))
        assert set(breakdown.per_feature) == {"speed"}
        # Weight renormalizes to 1, so the aggregate equals the single proximity.
        assert breakdown.aggregate_proximity == pytest.approx(
            breakdown.per_feature["speed"].proximity, abs=1e-12
        )

    def test_no_shared_features_gives_unit_proximity(self):
        a = InformationObject("a", "alpha", {"speed": FeatureValue(10.0)})
        b = InformationObject("b", "beta", {"type": FeatureValue("tank")})
        (breakdown,) = pairwise_breakdowns(make_run([a], [b]))
        assert breakdown.per_feature == {}
        assert breakdown.aggregate_proximity == 1.0

    def test_composite_feature_multiplies_axes(self):
        schema = Schema((
            FeatureSchema("pos", FeatureKind.QUANTITATIVE, weight=1.0,
                          quantitative_xi=3.0, axes=("x", "y")),
        ))
        profiles = {
            "alpha": SourceProfile("alpha", {"pos": QuantAccuracy(sigma=1.0)}),
            "beta": SourceProfile("beta", {"pos": QuantAccuracy(sigma=2.0)}),
        }
        a = InformationObject("a", "alpha", {"pos": FeatureValue((0.0, 1.0))})
        b = InformationObject("b", "beta", {"pos": FeatureValue((1.0, 3.0))})
        run = MatchRun(schema=schema, profiles=profiles, dataset_a=(a,), dataset_b=(b,))
        (breakdown,) = pairwise_breakdowns(run)
        expected = quantitative_proximity(
            NormalErrorModel(0, 1), NormalErrorModel(1, 2), xi=3.0
        ) * quantitative_proximity(NormalErrorModel(1, 1), NormalErrorModel(3, 2), xi=3.0)
        assert breakdown.per_feature["pos"].proximity == pytest.approx(expected, abs=1e-15)

    def test_fleet_xi_default(self):
        schema = Schema((FeatureSchema("speed", FeatureKind.QUANTITATIVE, weight=1.0),))
        a = InformationObject("a", "alpha", {"speed": FeatureValue(10.0)})
        b = InformationObject("b", "beta", {"speed": FeatureValue(12.0)})
        run = MatchRun(schema=schema,
                       profiles={"alpha": SourceProfile("alpha", {"speed": QuantAccuracy(sigma=1.0)}),
                                 "beta": SourceProfile("beta", {"speed": QuantAccuracy(sigma=2.0)})},
                       dataset_a=(a,), dataset_b=(b,))
        (breakdown,) = pairwise_breakdowns(run)
        # Default xi = 3 * min(1, 2) = 3.
        expected = quantitative_proximity(NormalErrorModel(10, 1), NormalErrorModel(12, 2), xi=3.0)
        assert breakdown.per_feature["speed"].proximity == pytest.approx(expected, abs=1e-15)

    def test_ordinal_feature_with_certainty(self):
        schema = Schema((
            FeatureSchema("rank", FeatureKind.ORDINAL_FUZZY, weight=1.0,
                          ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, width=2.0)),
        ))
        profiles = {
            "alpha": SourceProfile("alpha", {}),
            "beta": SourceProfile("beta", {"rank": OrdinalAccuracy(width=2.0)}),
        }
        a = InformationObject("a", "alpha", {"rank": FeatureValue(5, Certainty.PROBABLE)})
        b = InformationObject("b", "beta", {"rank": FeatureValue(6)})
        run = MatchRun(schema=schema, profiles=profiles, dataset_a=(a,), dataset_b=(b,))
        (breakdown,) = pairwise_breakdowns(run)
        expected = possibility(
            apply_certainty(triangular_from_halfwidth(5.0, 2.0), Certainty.PROBABLE),
            triangular_from_halfwidth(6.0, 2.0),
        )
        assert breakdown.per_feature["rank"].proximity == pytest.approx(expected, abs=1e-15)

    def test_additive_method_normalized_into_unit_range(self):
        run = make_run([obj("a", "alpha", 10.0, "tank")],
                       [obj("b", "beta", 16.0, "truck")],
                       aggregation=AggregationSpec(method=AggregationMethod.ADDITIVE))
        (breakdown,) = pairwise_breakdowns(run)
        d_speed = breakdown.per_feature["speed"].distance
        assert breakdown.aggregate_distance == pytest.approx((d_speed + 0.9) / 2, abs=1e-12)

    def test_two_class_method_requires_weight(self):
        run = make_run([obj("a", "alpha", 1.0)], [obj("b", "beta", 1.0)],
                       aggregation=AggregationSpec(method=AggregationMethod.TWO_CLASS_WEIGHTED))
        with pytest.raises(MatchRunError, match="class weight"):
            pairwise_breakdowns(run)


class TestRunValidation:
    def test_mixed_sources_in_dataset(self):
        run = make_run([obj("a", "alpha", 1.0), obj("x", "beta", 1.0)], [obj("b", "beta", 1.0)])
        with pytest.raises(MatchRunError, match="mixes"):
            pairwise_breakdowns(run)

    def test_same_source_on_both_sides(self):
        run = make_run([obj("a", "alpha", 1.0)], [obj("b", "alpha", 1.0)])
        with pytest.raises(MatchRunError, match="same source"):
            pairwise_breakdowns(run)

    def test_missing_profile(self):
        run = MatchRun(schema=SCHEMA, profiles={"alpha": profile("alpha")},
                       dataset_a=(obj("a", "alpha", 1.0),), dataset_b=(obj("b", "beta", 1.0),))
        with pytest.raises(MatchRunError, match="no profile"):
            pairwise_breakdowns(run)

    def test_object_violations_reported_per_object(self):
        bad_a = InformationObject("a1", "alpha", {"type": FeatureValue(77)})
        bad_b = InformationObject("b1", "beta", {"speed": FeatureValue("fast")})
        run = make_run([bad_a], [bad_b])
        with pytest.raises(MatchRunError) as excinfo:
            pairwise_breakdowns(run)
        messages = "\n".join(excinfo.value.errors)
        assert "a1" in messages and "b1" in messages

    def test_threshold_out_of_range(self):
        run = make_run([obj("a", "alpha", 1.0)], [obj("b", "beta", 1.0)],
                       candidate_threshold=1.5)
        with pytest.raises(MatchRunError, match="threshold"):
            pairwise_breakdowns(run)


class TestTwoClassNormalizedOneClassEmpty:
    """Normalized two-class weights are rescaled by the attainable maximum
    w[quantitative shared] + (1-w)[qualitative shared], so a total mismatch
    scores 0 even when one class is absent."""

    @pytest.mark.parametrize("class_weight, values_a, values_b, proximity", [
        # Speeds 280 sigma apart: total quantitative mismatch, no type shared.
        (0.3, {"speed": 10.0}, {"speed": 300.0}, 0.0),
        (0.3, {"speed": 10.0, "type": "tank"}, {"speed": 300.0}, 0.0),
        # Only the nominal mismatch (delta 0.1) is shared.
        (0.3, {"type": "tank"}, {"type": "truck", "speed": 10.0}, 0.1),
        # The empty class carries all the weight: attainable maximum 0.
        (0.0, {"speed": 10.0}, {"speed": 300.0}, 1.0),
        (1.0, {"type": "tank"}, {"type": "truck"}, 1.0),
    ])
    def test_total_mismatch(self, class_weight, values_a, values_b, proximity):
        a = InformationObject("a", "alpha", {n: FeatureValue(v) for n, v in values_a.items()})
        b = InformationObject("b", "beta", {n: FeatureValue(v) for n, v in values_b.items()})
        spec = AggregationSpec(
            method=AggregationMethod.TWO_CLASS_WEIGHTED, class_weight=class_weight, normalized=True
        )
        profiles = {"alpha": profile("alpha"), "beta": profile("beta")}
        single = evaluate_pair(SCHEMA, profiles, spec, a, b)
        (batch,) = pairwise_breakdowns(make_run([a], [b], aggregation=spec))
        assert single == batch
        assert batch.aggregate_proximity == pytest.approx(proximity, abs=1e-12)
        assert batch.aggregate_distance == pytest.approx(1.0 - proximity, abs=1e-12)


class TestCandidates:
    def breakdowns(self):
        a = [obj("a0", "alpha", 10.0), obj("a1", "alpha", 14.0), obj("a2", "alpha", 300.0)]
        b = [obj("b0", "beta", 10.0), obj("b1", "beta", 14.5)]
        return pairwise_breakdowns(make_run(a, b))

    def test_threshold_one_empty(self):
        assert list(candidates(self.breakdowns(), 1.0)) == []

    def test_threshold_zero_keeps_nonzero(self):
        result = candidates(self.breakdowns(), 0.0)
        assert all(b.aggregate_proximity > 0.0 for b in result)
        assert len(result) == 4  # a2 is unreachable from either b

    def test_sorted_descending_with_tie_break(self):
        result = candidates(self.breakdowns(), 0.01)
        proxs = [b.aggregate_proximity for b in result]
        assert proxs == sorted(proxs, reverse=True)
        assert result[0].pair in {("a0", "b0"), ("a1", "b1")}

    def test_strictly_above_threshold(self):
        bds = self.breakdowns()
        pivot = bds[0].aggregate_proximity
        kept = candidates(bds, pivot)
        assert all(b.aggregate_proximity > pivot for b in kept)

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            candidates([], -0.1)
