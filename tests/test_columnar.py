"""The columnar engine against the per-pair composition of the scalar functions."""

import collections.abc
import dataclasses
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from iomatch.aggregate import AggregationMethod, AggregationSpec
from iomatch.dataio import breakdown_record, write_breakdowns_csv
from iomatch.engine import (
    MatchRun,
    MatchRunError,
    PairScores,
    RankedCandidates,
    candidates,
    evaluate_pair,
    pairwise_breakdowns,
)
from iomatch.fuzzy import apply_certainty, gaussian_membership, possibility
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

from oracles import scalar_pair_scores
from test_config_dataio import json_bytes, stdlib_bytes

TOLERANCE = 1e-12

# One template per feature kind and variant; a drawn schema takes a subset.
# Source "a" reads ranks with a relative k, source "b" with a half-width, so
# both triangular supports meet in one pair; Gaussian spreads differ per source.
FEATURES = {
    "pos": FeatureSchema("pos", FeatureKind.QUANTITATIVE, 0.0, quantitative_xi=4.0, axes=("x", "y")),
    "speed": FeatureSchema("speed", FeatureKind.QUANTITATIVE, 0.0),
    "ready": FeatureSchema("ready", FeatureKind.ORDINAL_FUZZY, 0.0,
                           ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, width=2.0)),
    "threat": FeatureSchema("threat", FeatureKind.ORDINAL_FUZZY, 0.0,
                            ordinal_params=OrdinalParams(MembershipShape.GAUSSIAN, width=1.5)),
    "type": FeatureSchema("type", FeatureKind.NOMINAL, 0.0, nominal_delta=0.2),
}
LABELS = ("tank", "truck", "apc")
# Gaussian spreads whose square underflows to 0 (1e-200) or to a subnormal.
TINY_SPREADS = st.sampled_from([1e-200, 1e-158, 1e-154])


def _profiles(names, sigmas, k, width, spread):
    """Profiles of sources a, b and c, restricted to the features in ``names``."""
    accuracy = {
        "a": {"pos": QuantAccuracy(sigma=sigmas[0]), "speed": QuantAccuracy(sigma=sigmas[0]),
              "ready": OrdinalAccuracy(relative_k=k), "threat": OrdinalAccuracy(width=spread)},
        "b": {"pos": QuantAccuracy(sigma=sigmas[1]), "speed": QuantAccuracy(delta_max=3 * sigmas[1]),
              "ready": OrdinalAccuracy(width=width)},
        # A third source, which may be the most precise, sets the run's xi of "speed".
        "c": {"pos": QuantAccuracy(sigma=sigmas[2]), "speed": QuantAccuracy(sigma=sigmas[2])},
    }
    return {
        sid: SourceProfile(sid, {n: acc for n, acc in entries.items() if n in names})
        for sid, entries in accuracy.items()
    }


@st.composite
def objects(draw, source, names, n):
    result = []
    for i in range(n):
        values = {}
        for name in names:
            if not draw(st.booleans()) and draw(st.booleans()):
                continue  # absent one time in four
            certainty = draw(st.sampled_from(list(Certainty)))
            if name == "pos":
                value = (draw(st.floats(0.0, 12.0)), draw(st.floats(0.0, 12.0)))
            elif name == "speed":
                value = draw(st.floats(-5.0, 5.0))
            elif name in ("ready", "threat"):
                value = draw(st.integers(2, 12))
            else:
                value = draw(st.sampled_from(LABELS))
            values[name] = FeatureValue(value, certainty)
        result.append(InformationObject(f"{source}{i}", source, values))
    return result


@st.composite
def runs(draw, names=None, sizes=st.integers(0, 4)):
    names = names or draw(st.lists(st.sampled_from(sorted(FEATURES)), min_size=1, max_size=5, unique=True))
    raw = [draw(st.integers(0, 4)) for _ in names]
    raw[0] = raw[0] or 1
    features = tuple(
        FeatureSchema(**{**FEATURES[n].__dict__, "weight": r / sum(raw)}) for n, r in zip(names, raw)
    )
    method = draw(st.sampled_from(list(AggregationMethod)))
    override = None
    if draw(st.booleans()):
        override = {n: float(draw(st.integers(0, 3))) for n in names}
        override[names[-1]] = override[names[-1]] or 1.0
    spec = AggregationSpec(
        method=method,
        class_weight=draw(st.sampled_from([0.0, 0.3, 0.6, 1.0])),
        feature_weights=override,
        normalized=draw(st.booleans()),
    )
    profiles = _profiles(
        names,
        [draw(st.floats(0.3, 3.0)) for _ in range(3)],
        draw(st.floats(0.3, 0.9)),
        draw(st.floats(0.5, 4.0)),
        draw(st.one_of(st.floats(0.5, 4.0), TINY_SPREADS)),
    )
    return MatchRun(
        schema=Schema(features),
        profiles=profiles,
        dataset_a=tuple(draw(objects("a", names, draw(sizes)))),
        dataset_b=tuple(draw(objects("b", names, draw(sizes)))),
        aggregation=spec,
    )


def assert_matches_scalar(run, scores):
    assert len(scores) == len(run.dataset_a) * len(run.dataset_b)
    pairs = [(a, b) for a in run.dataset_a for b in run.dataset_b]
    for (a, b), got in zip(pairs, scores):
        per_feature, p, d = scalar_pair_scores(run, a, b)
        assert got.pair == (a.object_id, b.object_id)
        assert set(got.per_feature) == set(per_feature)
        for name, want in per_feature.items():
            assert got.per_feature[name].proximity == pytest.approx(want, abs=TOLERANCE)
        assert got.aggregate_proximity == pytest.approx(p, abs=TOLERANCE)
        assert got.aggregate_distance == pytest.approx(d, abs=TOLERANCE)


@settings(max_examples=300, deadline=None)
@given(runs())
def test_columnar_equals_scalar_composition(run):
    assert_matches_scalar(run, pairwise_breakdowns(run))


def _csv_bytes(breakdowns, schema) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "pairs.csv"
        write_breakdowns_csv(path, breakdowns, schema)
        return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(runs())
def test_csv_from_columns_equals_csv_from_breakdowns(run):
    """The column-by-column writer against the row-by-row one, absent features
    and empty sides included."""
    scores = pairwise_breakdowns(run)
    assert _csv_bytes(scores, run.schema) == _csv_bytes(list(scores), run.schema)


# --- ranked candidates ------------------------------------------------------------

# Ids that json escapes: quotes, backslashes, control and non-ASCII characters.
ODD_IDS = st.text(st.sampled_from('a9"\\/\n\x00\x7f é€✓\U0001f600'), max_size=4)


@st.composite
def ranked_runs(draw, ids=None):
    """Runs of up to 12 objects a side in a drawn file order, so ids such as
    a10 sort before a9 wherever they stand.  A nominal-only schema gives many
    exactly equal aggregates; ``ids``, if given, draws the object ids."""
    names = ["type"] if draw(st.booleans()) else None
    run = draw(runs(names=names, sizes=st.integers(0, 12)))

    def side(dataset):
        dataset = draw(st.permutations(dataset))
        if ids is not None:
            new = draw(st.lists(ids, min_size=len(dataset), max_size=len(dataset), unique=True))
            dataset = [dataclasses.replace(o, object_id=i) for o, i in zip(dataset, new)]
        return tuple(dataset)

    return dataclasses.replace(run, dataset_a=side(run.dataset_a), dataset_b=side(run.dataset_b))


THRESHOLDS = st.sampled_from([0.0, 0.01, 0.2, 0.5, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(ranked_runs(), THRESHOLDS)
def test_ranked_candidates_equal_sorted_breakdowns(run, threshold):
    """One lexsort over the columns ranks exactly as sorting the breakdowns by
    (-proximity, pair), ties included."""
    scores = pairwise_breakdowns(run)
    want = sorted(
        (b for b in list(scores) if b.aggregate_proximity > threshold),
        key=lambda b: (-b.aggregate_proximity, b.pair),
    )
    found = candidates(scores, threshold)
    assert isinstance(found, RankedCandidates)
    assert len(found) == len(want)
    assert list(found) == want
    assert list(zip(found.ids_a, found.ids_b)) == [b.pair for b in want]
    assert found.aggregate_proximity.tolist() == [b.aggregate_proximity for b in want]


def assert_json_records(found):
    """The view written at three depths equals json.dumps of its records."""
    records = [breakdown_record(b) for b in found]
    for wrap in (
        lambda c: {"threshold": 0.01, "pair_count": 7, "candidates": c},
        lambda c: c,
        lambda c: {"x": [{"y": c}, 1]},
    ):
        assert json_bytes(wrap(found)) == stdlib_bytes(wrap(records))


@settings(max_examples=200, deadline=None)
@given(ranked_runs(ids=ODD_IDS), THRESHOLDS)
def test_candidates_json_from_columns_equals_stdlib(run, threshold):
    """Absent features, pairs that share no feature, empty lists and ids that
    need escaping are written as json.dumps writes the breakdown records."""
    assert_json_records(candidates(pairwise_breakdowns(run), threshold))


def test_candidates_json_over_several_blocks():
    """529 candidates span three blocks of records; some pairs share no feature."""
    names = ["speed", "type"]
    schema = Schema(tuple(FeatureSchema(**{**FEATURES[n].__dict__, "weight": 0.5}) for n in names))

    def values(i):
        """Every third object lacks speed and every seventh lacks type."""
        present = {"speed": i % 3 != 0, "type": i % 7 != 0}
        drawn = {"speed": float(i % 5), "type": LABELS[i % 3]}
        return {n: FeatureValue(drawn[n]) for n in names if present[n]}

    def side(source):
        return tuple(InformationObject(f"{source}{i}", source, values(i)) for i in range(23))

    run = MatchRun(schema, _profiles(names, [1.0, 2.0, 0.5], 0.4, 2.5, 1.0), side("a"), side("b"),
                   AggregationSpec(method=AggregationMethod.ADDITIVE))
    found = candidates(pairwise_breakdowns(run), 0.0)
    assert len(found) == 529
    assert any(not b.per_feature for b in found)
    assert any(len(b.per_feature) == 1 for b in found)
    assert_json_records(found)


@pytest.mark.parametrize("method", list(AggregationMethod))
@pytest.mark.parametrize("kind", sorted(FEATURES))
def test_every_method_and_kind(method, kind):
    """Each aggregation method x feature kind once, beside a nominal feature."""
    names = [kind] if kind == "type" else [kind, "type"]
    schema = Schema(tuple(
        FeatureSchema(**{**FEATURES[n].__dict__, "weight": 1.0 / len(names)}) for n in names
    ))
    values = {
        "pos": [(1.0, 2.0), (3.0, 2.5), (9.0, 9.0)],
        "speed": [0.0, 1.5, -4.0],
        "ready": [3, 5, 11],
        "threat": [2, 4, 9],
        "type": ["tank", "truck", "tank"],
    }

    def side(source, shift):
        return tuple(
            InformationObject(f"{source}{i}", source, {
                n: FeatureValue(values[n][(i + shift) % 3], list(Certainty)[(i + shift) % 4]) for n in names
            })
            for i in range(3)
        )

    run = MatchRun(
        schema=schema,
        profiles=_profiles(names, [1.0, 2.0, 0.5], 0.4, 2.5, 1.0),
        dataset_a=side("a", 0),
        dataset_b=side("b", 1),
        aggregation=AggregationSpec(method=method, class_weight=0.6),
    )
    assert_matches_scalar(run, pairwise_breakdowns(run))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-40, 40), st.floats(-40.0, 40.0)), min_size=1, max_size=5),
    st.lists(st.one_of(st.integers(-40, 40), st.floats(-40.0, 40.0)), min_size=1, max_size=5),
    st.one_of(st.floats(0.2, 15.0), TINY_SPREADS),
    st.one_of(st.floats(0.2, 15.0), TINY_SPREADS),
    st.lists(st.sampled_from(list(Certainty)), min_size=10, max_size=10),
)
# Equal spreads turn the crossing equation linear.
@example([3, 7, 5], [5, 5.5, -2], 2.0, 2.0, [Certainty.PROBABLE, Certainty.CERTAIN, Certainty.DOUBTFUL] * 3 + [Certainty.POSSIBLE])
@example([3], [3, 4], 1e-200, 1e-200, [Certainty.CERTAIN] * 10)
def test_gaussian_rule_matches_integer_grid(ranks_a, ranks_b, spread_a, spread_b, levels):
    """The O(1) Gaussian rule against the grid walk of fuzzy.possibility, with
    no numpy warning."""
    schema = Schema((FeatureSchema(**{**FEATURES["threat"].__dict__, "weight": 1.0}),))
    profiles = {
        "a": SourceProfile("a", {"threat": OrdinalAccuracy(width=spread_a)}),
        "b": SourceProfile("b", {"threat": OrdinalAccuracy(width=spread_b)}),
    }
    side_a = [InformationObject(f"a{i}", "a", {"threat": FeatureValue(r, levels[i])}) for i, r in enumerate(ranks_a)]
    side_b = [InformationObject(f"b{i}", "b", {"threat": FeatureValue(r, levels[5 + i])}) for i, r in enumerate(ranks_b)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scores = pairwise_breakdowns(MatchRun(schema, profiles, tuple(side_a), tuple(side_b)))
    for k, got in enumerate(scores):
        oa, ob = side_a[k // len(side_b)], side_b[k % len(side_b)]
        want = possibility(
            apply_certainty(gaussian_membership(float(oa.values["threat"].value), spread_a), oa.values["threat"].certainty),
            apply_certainty(gaussian_membership(float(ob.values["threat"].value), spread_b), ob.values["threat"].certainty),
        )
        assert got.per_feature["threat"].proximity == pytest.approx(want, abs=TOLERANCE)


class TestPairScores:
    def scores(self):
        schema = Schema((FeatureSchema("speed", FeatureKind.QUANTITATIVE, 1.0, quantitative_xi=3.0),))
        profiles = {s: SourceProfile(s, {"speed": QuantAccuracy(sigma=1.0)}) for s in ("a", "b")}
        side_a = tuple(InformationObject(f"a{i}", "a", {"speed": FeatureValue(float(i))}) for i in range(3))
        side_b = tuple(InformationObject(f"b{i}", "b", {"speed": FeatureValue(float(2 * i))}) for i in range(2))
        return pairwise_breakdowns(MatchRun(schema, profiles, side_a, side_b))

    def test_sequence_protocol(self):
        scores = self.scores()
        assert isinstance(scores, PairScores) and isinstance(scores, collections.abc.Sequence)
        listed = list(scores)
        assert len(scores) == len(listed) == 6
        assert [scores[k] for k in range(6)] == listed
        assert scores[-1] == listed[-1]
        assert scores[1:4] == listed[1:4]
        assert [b.pair for b in listed][:3] == [("a0", "b0"), ("a0", "b1"), ("a1", "b0")]
        with pytest.raises(IndexError):
            scores[6]

    def test_columns_are_read_only(self):
        scores = self.scores()
        with pytest.raises(ValueError):
            scores.aggregate_proximity[0, 0] = 0.5
        with pytest.raises(ValueError):
            scores.proximity["speed"][0, 0] = 0.5

    def test_ranked_candidates_protocol(self):
        found = candidates(self.scores(), 0.01)
        listed = list(found)
        assert isinstance(found, RankedCandidates)
        assert len(found) == len(listed) == 6
        assert [found[k] for k in range(6)] == listed
        assert found[-1] == listed[-1]
        assert found[1:4] == listed[1:4]
        assert listed[0].pair == ("a0", "b0")
        assert isinstance(found, collections.abc.Sequence)
        assert list(reversed(found)) == listed[::-1]
        assert listed[2] in found and found.index(listed[2]) == 2 and found.count(listed[2]) == 1
        with pytest.raises(IndexError):
            found[6]
        with pytest.raises(ValueError):
            found.aggregate_proximity[0] = 0.5
        with pytest.raises(ValueError):
            found.proximity["speed"][0] = 0.5

    def test_candidates_from_columns_equal_candidates_from_breakdowns(self):
        scores = self.scores()
        for threshold in (0.0, 0.01, 0.5, 1.0):
            assert list(candidates(scores, threshold)) == candidates(list(scores), threshold)


def test_one_xi_rule_for_evaluate_pair_and_runs():
    """A third, precise source sets xi for every entry point alike."""
    schema = Schema((FeatureSchema("speed", FeatureKind.QUANTITATIVE, 1.0),))
    profiles = {
        "alpha": SourceProfile("alpha", {"speed": QuantAccuracy(sigma=1.0)}),
        "beta": SourceProfile("beta", {"speed": QuantAccuracy(sigma=1.0)}),
        "gamma": SourceProfile("gamma", {"speed": QuantAccuracy(sigma=0.1)}),
    }
    a = InformationObject("a", "alpha", {"speed": FeatureValue(10.0)})
    b = InformationObject("b", "beta", {"speed": FeatureValue(10.5)})
    single = evaluate_pair(schema, profiles, AggregationSpec(), a, b)
    (batch,) = pairwise_breakdowns(MatchRun(schema, profiles, (a,), (b,)))
    want = quantitative_proximity(NormalErrorModel(10.0, 1.0), NormalErrorModel(10.5, 1.0), xi=0.3)
    assert single == batch
    assert single.aggregate_proximity == pytest.approx(want, abs=TOLERANCE)


class TestRejectedInputs:
    SCHEMA = Schema((
        FeatureSchema("speed", FeatureKind.QUANTITATIVE, 0.5, quantitative_xi=3.0),
        FeatureSchema("rank", FeatureKind.ORDINAL_FUZZY, 0.5,
                      ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, width=2.0)),
    ))
    PROFILES = {
        "a": SourceProfile("a", {"speed": QuantAccuracy(sigma=1.0), "rank": OrdinalAccuracy(relative_k=0.4)}),
        "b": SourceProfile("b", {"speed": QuantAccuracy(sigma=1.0)}),
    }

    def run(self, value_a, rank_a=5, **spec):
        a = InformationObject("a0", "a", {"speed": FeatureValue(value_a), "rank": FeatureValue(rank_a)})
        b = InformationObject("b0", "b", {"speed": FeatureValue(1.0), "rank": FeatureValue(4)})
        return MatchRun(self.SCHEMA, self.PROFILES, (a,), (b,), AggregationSpec(**spec))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_quantitative(self, value):
        with pytest.raises(MatchRunError, match="finite"):
            pairwise_breakdowns(self.run(value))

    @pytest.mark.parametrize("rank", [math.nan, math.inf])
    def test_non_finite_rank(self, rank):
        with pytest.raises(MatchRunError, match="finite"):
            pairwise_breakdowns(self.run(1.0, rank))

    @pytest.mark.parametrize("rank", [0, 1, -1])
    def test_collapsed_relative_support(self, rank):
        with pytest.raises(MatchRunError, match="rounds the support"):
            pairwise_breakdowns(self.run(1.0, rank))

    def test_relative_support_that_keeps_its_rank_is_scored(self):
        (breakdown,) = pairwise_breakdowns(self.run(1.0, 3))
        assert set(breakdown.per_feature) == {"speed", "rank"}

    @pytest.mark.parametrize("weights, message", [
        ({"speed": 1.0}, "no weight for feature 'rank'"),
        ({"speed": 0.5, "rank": 0.5, "colour": 0.1}, "unknown feature 'colour'"),
        ({"speed": -0.5, "rank": 1.5}, "'speed' weight -0.5"),
        ({"speed": 0.0, "rank": 0.0}, "all zero"),
        ({"speed": "1", "rank": 0.5}, "'speed' weight '1'"),
    ])
    def test_feature_weight_violations(self, weights, message):
        with pytest.raises(MatchRunError, match=message):
            pairwise_breakdowns(self.run(1.0, feature_weights=weights))
