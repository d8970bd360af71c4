import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iomatch.aggregate import AggregationMethod, AggregationSpec
from iomatch import engine
from iomatch.engine import MatchRun, MatchRunError, candidates, evaluate_pair, pairwise_breakdowns, run_violations
from iomatch.fuzzy import apply_certainty, possibility, triangular_from_halfwidth
from iomatch.model import (
    Certainty,
    Dataset,
    FeatureColumn,
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
from iomatch.quant import NormalErrorModel, quantitative_proximity, standard_normal_cdf
from oracles import object_run

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
    profiles = {"alpha": profile("alpha", sigma_a), "beta": profile("beta", sigma_b)}
    return object_run(schema, profiles, dataset_a, dataset_b, **kwargs)


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
            object_run(SCHEMA, {"alpha": profile("alpha", 1.0), "beta": profile("beta", 2.0)}, b, a)
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
        run = object_run(schema, profiles, [a], [b])
        (breakdown,) = pairwise_breakdowns(run)
        expected = quantitative_proximity(
            NormalErrorModel(0, 1), NormalErrorModel(1, 2), xi=3.0
        ) * quantitative_proximity(NormalErrorModel(1, 1), NormalErrorModel(3, 2), xi=3.0)
        assert breakdown.per_feature["pos"].proximity == pytest.approx(expected, abs=1e-15)

    def test_fleet_xi_default(self):
        schema = Schema((FeatureSchema("speed", FeatureKind.QUANTITATIVE, weight=1.0),))
        a = InformationObject("a", "alpha", {"speed": FeatureValue(10.0)})
        b = InformationObject("b", "beta", {"speed": FeatureValue(12.0)})
        run = object_run(schema,
                         {"alpha": SourceProfile("alpha", {"speed": QuantAccuracy(sigma=1.0)}),
                          "beta": SourceProfile("beta", {"speed": QuantAccuracy(sigma=2.0)})},
                         [a], [b])
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
        run = object_run(schema, profiles, [a], [b])
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
        run = object_run(SCHEMA, {"alpha": profile("alpha")}, [obj("a", "alpha", 1.0)], [obj("b", "beta", 1.0)])
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

    def test_messages_in_object_order(self):
        """Per dataset: duplicate ids, then per object its payload violations
        and its collapsed relative-k supports, the rank as it was given."""
        schema = Schema((
            SPEED,
            FeatureSchema("rank", FeatureKind.ORDINAL_FUZZY, 0.5,
                          ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, width=2.0)),
        ))
        profiles = {
            "a": SourceProfile("a", {"speed": QuantAccuracy(sigma=1.0), "rank": OrdinalAccuracy(relative_k=0.4)}),
            "b": SourceProfile("b", {"speed": QuantAccuracy(sigma=1.0)}),
        }
        dataset_a = (
            InformationObject("a1", "a", {"rank": FeatureValue(1), "speed": FeatureValue("fast")}),
            InformationObject("a2", "a", {"colour": FeatureValue("red"), "rank": FeatureValue(0.0)}),
            InformationObject("a1", "a", {"rank": FeatureValue(5), "speed": FeatureValue(2)}),
            InformationObject("a3", "a", {"rank": FeatureValue(-1), "speed": FeatureValue(float("nan"))}),
        )
        dataset_b = (InformationObject("b1", "b", {"rank": FeatureValue(1)}),
                     InformationObject("b2", "b", {"rank": FeatureValue("x")}))
        run = object_run(schema, profiles, dataset_a, dataset_b)
        assert run_violations(run) == [
            "dataset A: object id 'a1' appears 2 times",
            "a1/speed: expected a finite numeric value",
            "a1/rank: relative k 0.4 of source 'a' rounds the support of rank 1 onto the rank itself",
            "a2: value for unknown feature 'colour'",
            "a2/rank: relative k 0.4 of source 'a' rounds the support of rank 0.0 onto the rank itself",
            "a3/speed: expected a finite numeric value",
            "a3/rank: relative k 0.4 of source 'a' rounds the support of rank -1 onto the rank itself",
            "b2/rank: expected a finite numeric rank",
        ]

    def test_entry_that_is_not_a_feature_value(self):
        """Was an AttributeError on an ordinal feature with a relative k."""
        schema = Schema((
            FeatureSchema("rank", FeatureKind.ORDINAL_FUZZY, 1.0,
                          ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, width=2.0)),
        ))
        profiles = {"a": SourceProfile("a", {"rank": OrdinalAccuracy(relative_k=0.4)}),
                    "b": SourceProfile("b", {})}
        run = object_run(schema, profiles, [InformationObject("a1", "a", {"rank": 4})],
                         [InformationObject("b1", "b", {"rank": FeatureValue(4, "sure")})])
        # A certainty that is not a Certainty was an AttributeError while scoring.
        assert run_violations(run) == ["a1/rank: expected a FeatureValue", "b1/rank: expected a Certainty"]

    @pytest.mark.parametrize("side", ["dataset_a", "dataset_b"])
    def test_objects_in_place_of_a_dataset(self, side):
        """A run takes datasets only; build one with Dataset.from_objects."""
        dataset = Dataset.from_objects([obj("a", "alpha", 1.0)], SCHEMA)
        datasets = {"dataset_a": dataset, "dataset_b": dataset, side: (obj("b", "beta", 2.0),)}
        with pytest.raises(TypeError, match=f"^{side} must be a Dataset, got tuple$"):
            MatchRun(SCHEMA, {"alpha": profile("alpha"), "beta": profile("beta")}, **datasets)

    def test_dataset_built_for_another_schema(self):
        """Reported, not converted: its columns follow the other schema."""
        run = make_run([obj("a", "alpha", 1.0)], [obj("b", "beta", 2.0)])
        assert dataclasses.replace(run, candidate_threshold=0.5).dataset_a is run.dataset_a
        other = Schema((dataclasses.replace(SPEED, weight=1.0),))
        profiles = {"alpha": profile("alpha"), "beta": profile("beta")}
        dataset_b = Dataset.from_objects([InformationObject("b", "beta", {"speed": FeatureValue(2.0)})], other)
        assert run_violations(MatchRun(other, profiles, run.dataset_a, dataset_b)) == [
            "dataset A was built for another schema"
        ]
        assert run_violations(dataclasses.replace(run, schema=other)) == [
            "dataset A was built for another schema",
            "dataset B was built for another schema",
        ]
        with pytest.raises(MatchRunError, match="dataset A was built for another schema"):
            pairwise_breakdowns(dataclasses.replace(run, schema=other))

    def test_threshold_out_of_range(self):
        run = make_run([obj("a", "alpha", 1.0)], [obj("b", "beta", 1.0)],
                       candidate_threshold=1.5)
        with pytest.raises(MatchRunError, match="threshold"):
            pairwise_breakdowns(run)

    @pytest.mark.parametrize("feature, values, message", [
        (FeatureSchema("pos", FeatureKind.QUANTITATIVE, 1.0, quantitative_xi=3.0, axes=("x", "y")),
         [[1.0, 2.0], [np.nan, 2.0], [1.0, -np.inf]], "expected 2 finite numeric components"),
        (FeatureSchema("pos", FeatureKind.QUANTITATIVE, 1.0, quantitative_xi=3.0),
         [[1.0], [np.inf], [np.nan]], "expected a finite numeric value"),
        (FeatureSchema("pos", FeatureKind.ORDINAL_FUZZY, 1.0,
                       ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, width=2.0)),
         [[4.0], [np.nan], [-np.inf]], "expected a finite numeric rank"),
    ])
    def test_non_finite_value_in_columns(self, feature, values, message):
        """A dataset built from columns holds what it is given: a NaN position
        scored position 0.0 and aggregate 0.0 with no violation.  Each present
        non-finite value now gets the message the object path gives it."""
        schema = Schema((feature,))
        ordinal = feature.kind is FeatureKind.ORDINAL_FUZZY
        accuracy = {} if ordinal else {"pos": QuantAccuracy(sigma=1.0)}
        profiles = {s: SourceProfile(s, accuracy) for s in ("a", "b")}

        def column(rows):
            n = len(rows)
            ranks = tuple(r for (r, *_) in rows) if ordinal else None
            return {"pos": FeatureColumn(np.ones(n, dtype=bool), np.array(rows), np.ones(n), ranks)}

        dataset_a = Dataset(schema, ["a0", "a1", "a2"], ["a"] * 3, column(values))
        dataset_b = Dataset(schema, ["b0"], ["b"], column(values[:1]))
        run = MatchRun(schema, profiles, dataset_a, dataset_b)
        assert run_violations(run) == [f"a1/pos: {message}", f"a2/pos: {message}"]
        with pytest.raises(MatchRunError):
            pairwise_breakdowns(run)

    RANKED = Schema((
        FeatureSchema("rank", FeatureKind.ORDINAL_FUZZY, 1.0,
                      ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, width=2.0)),
    ))
    RANKED_PROFILES = {s: SourceProfile(s, {}) for s in ("a", "b")}

    def ranked_column_run(self, level):
        """a0 holds rank 4 at certainty ``level`` and b0 rank 5, both built from columns."""
        def column(rank, certainty):
            return {"rank": FeatureColumn(np.ones(1, dtype=bool), np.array([[float(rank)]]), np.array([certainty]), (rank,))}

        dataset_a = Dataset(self.RANKED, ["a0"], ["a"], column(4, level))
        return MatchRun(self.RANKED, self.RANKED_PROFILES, dataset_a, Dataset(self.RANKED, ["b0"], ["b"], column(5, 1.0)))

    @pytest.mark.parametrize("level", [math.nan, 2.0, 0.0, 0.3, -1.0])
    def test_ordinal_certainty_in_columns_that_is_not_a_level(self, level):
        """The ordinal kernel reads a certainty as the membership height.  From
        columns, NaN scored a silent NaN (and ``breakdown`` raised), 2.0 scored
        1.0, 0.0 a silent 0.0, 0.3 a height no Certainty gives, and -1.0 divided
        by zero.  Each now gets the message the object path gives."""
        run = self.ranked_column_run(level)
        assert run_violations(run) == ["a0/rank: expected a Certainty"]
        with pytest.raises(MatchRunError, match="^a0/rank: expected a Certainty$"):
            pairwise_breakdowns(run)

    @pytest.mark.parametrize("level", list(Certainty))
    def test_ordinal_certainty_level_in_columns_is_scored(self, level):
        """Each level scores from columns exactly as from objects."""
        run = self.ranked_column_run(level.value)
        assert run_violations(run) == []
        a = InformationObject("a0", "a", {"rank": FeatureValue(4, level)})
        b = InformationObject("b0", "b", {"rank": FeatureValue(5)})
        want = evaluate_pair(self.RANKED, self.RANKED_PROFILES, AggregationSpec(), a, b)
        assert pairwise_breakdowns(run).breakdown(0, 0) == want
        expected = possibility(apply_certainty(triangular_from_halfwidth(4.0, 2.0), level), triangular_from_halfwidth(5.0, 2.0))
        assert want.per_feature["rank"].proximity == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("shape, rank, message", [
        (MembershipShape.TRIANGULAR, 1e17, "half-width 2.0 collapses the support of rank 1e+17 onto the rank itself"),
        (MembershipShape.GAUSSIAN, 2.0**600, f"Gaussian ranks and spreads must lie within 2**511, got rank {2.0**600} under spread 2.0"),
    ], ids=["triangular", "gaussian"])
    def test_ordinal_column_without_ranks_is_rejected(self, shape, rank, message):
        """An ordinal column built without ``ranks`` words its messages with
        the ranks of its values, as one built with them does; before,
        ``run_violations`` raised TypeError on the missing ranks."""
        schema = Schema((FeatureSchema("rank", FeatureKind.ORDINAL_FUZZY, 1.0, ordinal_params=OrdinalParams(shape, width=2.0)),))

        def run(with_ranks):
            def dataset(oid, sid, r):
                column = FeatureColumn(np.ones(1, dtype=bool), np.array([[r]]), np.ones(1), (r,) if with_ranks else None)
                return Dataset(schema, [oid], [sid], {"rank": column})

            return MatchRun(schema, self.RANKED_PROFILES, dataset("a0", "a", rank), dataset("b0", "b", 5.0))

        assert run_violations(run(False)) == run_violations(run(True)) == [f"a0/rank: {message}"]
        with pytest.raises(MatchRunError, match=f"^a0/rank: {re.escape(message)}$"):
            pairwise_breakdowns(run(False))

    def test_ordinal_column_without_ranks_takes_its_values(self):
        """A dataset gives such a column the ranks of its values, None where absent."""
        column = FeatureColumn(np.array([True, False]), np.array([[4.0], [0.0]]), np.ones(2))
        dataset = Dataset(self.RANKED, ["a0", "a1"], ["a", "a"], {"rank": column})
        assert dataset.columns["rank"].ranks == (4.0, None)
        assert dataset.columns["rank"].payload(self.RANKED.features[0], 0) == 4.0

    @pytest.mark.parametrize("delta_max", [0.0, -1.0, math.nan])
    def test_delta_max_that_is_not_positive_in_a_column_run(self, delta_max):
        """The collapse check skips a sigma the profile check rejects, rather
        than resolving it: a non-positive delta_max raised a bare ValueError."""
        schema = Schema((dataclasses.replace(SPEED, weight=1.0),))
        profiles = {"a": SourceProfile("a", {"speed": QuantAccuracy(delta_max=delta_max)}), "b": profile("b")}

        def dataset(oid, sid):
            column = FeatureColumn(np.ones(1, dtype=bool), np.array([[1e16]]), np.ones(1))
            return Dataset(schema, [oid], [sid], {"speed": column})

        run = MatchRun(schema, profiles, dataset("a0", "a"), dataset("b0", "b"))
        assert run_violations(run) == ["a/speed: accuracy must be positive"]
        with pytest.raises(MatchRunError, match="^a/speed: accuracy must be positive$"):
            pairwise_breakdowns(run)

    def test_non_finite_values_merged_in_object_order(self):
        """Non-finite values of every kind, absent ones left out, among the
        collapsed relative-k supports; a non-finite rank is not also tried
        as a support, so it gets one message."""
        schema = Schema((
            FeatureSchema("pos", FeatureKind.QUANTITATIVE, 0.4, quantitative_xi=3.0, axes=("x", "y")),
            FeatureSchema("speed", FeatureKind.QUANTITATIVE, 0.3, quantitative_xi=3.0),
            FeatureSchema("rank", FeatureKind.ORDINAL_FUZZY, 0.3,
                          ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, width=2.0)),
        ))
        accuracy = {"pos": QuantAccuracy(sigma=1.0), "speed": QuantAccuracy(sigma=1.0)}
        profiles = {"a": SourceProfile("a", {**accuracy, "rank": OrdinalAccuracy(relative_k=0.4)}),
                    "b": SourceProfile("b", accuracy)}
        ones = np.ones(4)
        dataset_a = Dataset(schema, ["a0", "a1", "a2", "a3"], ["a"] * 4, {
            "pos": FeatureColumn(np.array([True, True, False, True]),
                                 np.array([[0.0, 0.0], [np.nan, 1.0], [np.inf, np.inf], [1.0, -np.inf]]), ones),
            "speed": FeatureColumn(np.ones(4, dtype=bool), np.array([[1.0], [np.inf], [2.0], [3.0]]), ones),
            "rank": FeatureColumn(np.array([True, True, True, False]), np.array([[np.nan], [4.0], [1.0], [np.inf]]),
                                  ones, (float("nan"), 4, 1, None)),
        })
        dataset_b = Dataset(schema, ["b0"], ["b"], {
            "pos": FeatureColumn(np.ones(1, dtype=bool), np.array([[0.0, 0.0]]), np.ones(1)),
            "speed": FeatureColumn(np.ones(1, dtype=bool), np.array([[-np.inf]]), np.ones(1)),
            "rank": FeatureColumn(np.ones(1, dtype=bool), np.array([[4.0]]), np.ones(1), (4,)),
        })
        assert run_violations(MatchRun(schema, profiles, dataset_a, dataset_b)) == [
            "a0/rank: expected a finite numeric rank",
            "a1/pos: expected 2 finite numeric components",
            "a1/speed: expected a finite numeric value",
            "a2/rank: relative k 0.4 of source 'a' rounds the support of rank 1 onto the rank itself",
            "a3/pos: expected 2 finite numeric components",
            "b0/speed: expected a finite numeric value",
        ]


    def test_support_past_the_float_range(self):
        """One message per object and feature, in object order: a support
        that is not finite is not also reported as collapsed."""
        schema = Schema((
            FeatureSchema("tri", FeatureKind.ORDINAL_FUZZY, 1.0,
                          ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, width=1e308)),
        ))
        profiles = {"a": SourceProfile("a", {"tri": OrdinalAccuracy(relative_k=0.5)}), "b": SourceProfile("b", {})}

        def side(source, ranks):
            return [InformationObject(f"{source}{i}", source, {"tri": FeatureValue(r)}) for i, r in enumerate(ranks)]

        run = object_run(schema, profiles, side("a", [4, 1.7e308, -1.7e308, 0, 1e308]), side("b", [4.5e307, 1.7e308, -9e307]))
        assert run_violations(run) == [
            "a1/tri: the membership support of rank 1.7e+308 is not finite",
            "a2/tri: the membership support of rank -1.7e+308 is not finite",
            "a3/tri: relative k 0.5 of source 'a' rounds the support of rank 0 onto the rank itself",
            "b1/tri: the membership support of rank 1.7e+308 is not finite",
            "b2/tri: the membership support of rank -9e+307 is not finite",
        ]


    def test_quantitative_window_collapsed_onto_its_value(self):
        """A value whose three-sigma window rounds onto it, on any axis, is
        one message per object and feature, after its bad support; a window
        that overflows to infinity does not collapse and is scored."""
        schema = Schema((
            FeatureSchema("pos", FeatureKind.QUANTITATIVE, 0.4, quantitative_xi=3.0, axes=("x", "y")),
            FeatureSchema("speed", FeatureKind.QUANTITATIVE, 0.3, quantitative_xi=3.0),
            FeatureSchema("rank", FeatureKind.ORDINAL_FUZZY, 0.3,
                          ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, width=2.0)),
        ))
        profiles = {
            "a": SourceProfile("a", {"pos": QuantAccuracy(sigma=1e-3), "speed": QuantAccuracy(delta_max=3.0),
                                     "rank": OrdinalAccuracy(relative_k=0.4)}),
            "b": SourceProfile("b", {"pos": QuantAccuracy(sigma=5e307), "speed": QuantAccuracy(sigma=1.0)}),
        }

        def obj(oid, source, pos, speed, rank=4):
            return InformationObject(oid, source, {
                "pos": FeatureValue(pos), "speed": FeatureValue(speed), "rank": FeatureValue(rank),
            })

        objects_a = [
            obj("a0", "a", (1e16, 1e16), 1.0),  # both axes collapse: one message, naming x
            obj("a1", "a", (5.0, -1e16), 1.7e308, rank=1),  # y collapses, and speed at 1.7e308 with sigma 1
            obj("a2", "a", (1e12, 5.0), 1e15),
        ]
        objects_b = [obj("b0", "b", (1e308, 1.5e308), 1e17), obj("b1", "b", (0.0, 0.0), -1.7e308)]
        assert run_violations(object_run(schema, profiles, objects_a, objects_b)) == [
            "a0/pos: sigma 0.001 of source 'a' collapses the three-sigma window of 1e+16 onto the value itself",
            "a1/rank: relative k 0.4 of source 'a' rounds the support of rank 1 onto the rank itself",
            "a1/pos: sigma 0.001 of source 'a' collapses the three-sigma window of -1e+16 onto the value itself",
            "a1/speed: sigma 1.0 of source 'a' collapses the three-sigma window of 1.7e+308 onto the value itself",
            "b0/speed: sigma 1.0 of source 'b' collapses the three-sigma window of 1e+17 onto the value itself",
            "b1/speed: sigma 1.0 of source 'b' collapses the three-sigma window of -1.7e+308 onto the value itself",
        ]
        # The windows of b0's position overflow to +inf: not a violation.
        run = object_run(schema, profiles, objects_a[2:], objects_b[:1])
        assert not [v for v in run_violations(run) if "/pos" in v]


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
        pivot = bds.breakdown(0, 0).aggregate_proximity
        kept = candidates(bds, pivot)
        assert all(b.aggregate_proximity > pivot for b in kept)

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            candidates([], -0.1)

    def test_ties_ranked_by_the_id_tuple_in_string_order(self):
        """Every pair ties, so the rank is the order of (a, b) as strings:
        "a10" before "a9", "b10" before "b2"."""
        a = [obj(oid, "alpha", 10.0) for oid in ("a9", "a1", "a10")]
        b = [obj(oid, "beta", 10.0) for oid in ("b2", "b10")]
        found = candidates(pairwise_breakdowns(make_run(a, b)), 0.01)
        assert len(set(found.aggregate_proximity.tolist())) == 1
        assert list(zip(found.ids_a, found.ids_b)) == sorted((x.object_id, y.object_id) for x in a for y in b)
        assert [x.pair for x in found] == list(zip(found.ids_a, found.ids_b))

    @pytest.mark.parametrize("method", [AggregationMethod.MULTIPLICATIVE, AggregationMethod.ADDITIVE])
    def test_pair_sharing_no_feature_is_never_kept(self, method):
        """Such a pair scores the empty (1, 0), but with no evidence in common
        its group proximity is undefined."""
        a = [InformationObject("a0", "alpha", {"speed": FeatureValue(10.0)}), obj("a1", "alpha", 10.0)]
        b = [InformationObject("b0", "beta", {"type": FeatureValue("tank")}), obj("b1", "beta", 10.5)]
        scores = pairwise_breakdowns(make_run(a, b, aggregation=AggregationSpec(method=method)))
        assert (scores.breakdown(0, 0).per_feature, scores.breakdown(0, 0).aggregate_proximity) == ({}, 1.0)
        for threshold in (0.0, 0.5):
            found = candidates(scores, threshold)
            assert {b.pair for b in found} == {("a0", "b1"), ("a1", "b0"), ("a1", "b1")}
        assert list(candidates(scores, 1.0)) == []


class TestNormalCdf:
    """The kernel's Phi reads Phi(+-3) from constants and maps math.erf over
    the other arguments; both must give quant.standard_normal_cdf's bits."""

    def test_bits_equal_the_scalar_phi(self):
        edges = [3.0, -3.0, math.nextafter(3.0, 0.0), math.nextafter(-3.0, 0.0), math.inf, -math.inf, 0.0, -0.0]
        x = np.array(edges + np.random.default_rng(7).normal(0.0, 4.0, 500).tolist())
        want = np.array([standard_normal_cdf(v) for v in x.tolist()])
        assert engine._normal_cdf(x).tobytes() == want.tobytes()
        assert engine._normal_cdf(x[:0]).shape == (0,)

    def test_no_erf_call_at_three_sigma(self, monkeypatch):
        x = np.array([3.0, -3.0, -3.0, 3.0])
        want = [standard_normal_cdf(v) for v in x.tolist()]
        calls = []
        erf = math.erf
        monkeypatch.setattr(math, "erf", lambda z: calls.append(z) or erf(z))
        assert engine._normal_cdf(x).tolist() == want
        assert calls == []
        engine._normal_cdf(np.append(x, 1.5))
        assert calls == [1.5 / math.sqrt(2.0)]


class TestNominalCodes:
    """Codes are equal exactly where both objects hold the label."""

    @given(
        st.lists(st.sampled_from(["", "tank", "truck", "apc"]) | st.text(max_size=3) | st.none(), max_size=8),
        st.lists(st.sampled_from(["", "tank", "radar"]) | st.text(max_size=3) | st.none(), max_size=8),
    )
    def test_equal_exactly_where_both_hold_one_label(self, labels_a, labels_b):
        """None is an absent entry; "tank" and "" may be held by both sides,
        the other fixed labels by one side only."""
        schema = Schema((TYPE,))

        def dataset(source, labels):
            objects = [
                InformationObject(f"{source}{i}", source, {} if label is None else {"type": FeatureValue(label)})
                for i, label in enumerate(labels)
            ]
            return Dataset.from_objects(objects, schema).columns["type"]

        codes_a, codes_b = engine._nominal_codes(dataset("a", labels_a), dataset("b", labels_b))
        want = [[a is not None and a == b for b in labels_b] for a in labels_a]
        assert (codes_a[:, None] == codes_b[None, :]).tolist() == want
