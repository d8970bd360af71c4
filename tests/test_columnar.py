"""The columnar engine against the per-pair composition of the scalar functions."""

import collections.abc
import csv
import dataclasses
import itertools
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from iomatch import cli, dataio
from iomatch.aggregate import AggregationMethod, AggregationSpec
from iomatch.dataio import RECORDS_PER_BLOCK, breakdown_record, write_breakdowns_csv
from iomatch.engine import (
    MatchRunError,
    PairScores,
    RankedCandidates,
    candidates,
    evaluate_pair,
    pairwise_breakdowns,
    run_violations,
)
from iomatch.fuzzy import (
    FuzzyMembership,
    apply_certainty,
    gaussian_membership,
    possibility,
    triangular_from_halfwidth,
    triangular_from_relative_error,
)
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
    is_finite_number,
)
from iomatch.quant import NormalErrorModel, quantitative_proximity
from iomatch.simulate import SceneSpec, run_experiment, scene_schema

from oracles import csv_writer_bytes, object_run, ranked_breakdowns, scalar_pair_scores
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
def runs(draw, names=None, sizes=st.integers(0, 4), method=None):
    """(run, objects of side A, objects of side B): the scalar oracle reads
    the objects.  ``names`` and ``method`` are drawn where not given."""
    names = names or draw(st.lists(st.sampled_from(sorted(FEATURES)), min_size=1, max_size=5, unique=True))
    raw = [draw(st.integers(0, 4)) for _ in names]
    raw[0] = raw[0] or 1
    features = tuple(
        FeatureSchema(**{**FEATURES[n].__dict__, "weight": r / sum(raw)}) for n, r in zip(names, raw)
    )
    method = method or draw(st.sampled_from(list(AggregationMethod)))
    spec = AggregationSpec(
        method=method,
        class_weight=draw(st.sampled_from([0.0, 0.3, 0.6, 1.0])),
        normalized=draw(st.booleans()),
    )
    profiles = _profiles(
        names,
        [draw(st.floats(0.3, 3.0)) for _ in range(3)],
        draw(st.floats(0.3, 0.9)),
        draw(st.floats(0.5, 4.0)),
        draw(st.one_of(st.floats(0.5, 4.0), TINY_SPREADS)),
    )
    objects_a, objects_b = draw(objects("a", names, draw(sizes))), draw(objects("b", names, draw(sizes)))
    return object_run(Schema(features), profiles, objects_a, objects_b, aggregation=spec), objects_a, objects_b


def assert_matches_scalar(run, objects_a, objects_b, scores):
    assert len(scores) == len(objects_a) * len(objects_b)
    pairs = [(a, b) for a in objects_a for b in objects_b]
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
def test_columnar_equals_scalar_composition(drawn):
    run, objects_a, objects_b = drawn
    assert_matches_scalar(run, objects_a, objects_b, pairwise_breakdowns(run))


@pytest.mark.parametrize("method", list(AggregationMethod))
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_swap_transposes_every_grid(method, data):
    """Swapping datasets A and B transposes each feature's proximity and
    presence grid and both aggregate grids exactly, for any non-empty
    subset of the feature kinds."""
    run, objects_a, objects_b = data.draw(runs(method=method))
    swapped = object_run(run.schema, run.profiles, objects_b, objects_a, aggregation=run.aggregation)
    forward = pairwise_breakdowns(run).block(0, len(objects_a))
    backward = pairwise_breakdowns(swapped).block(0, len(objects_b))
    for grids, mirrored in zip(forward[:2], backward[:2]):
        assert grids.keys() == mirrored.keys()
        for name, grid in grids.items():
            np.testing.assert_array_equal(mirrored[name], grid.T, strict=True)
    for grid, mirrored in zip(forward[2:], backward[2:]):
        np.testing.assert_array_equal(mirrored, grid.T, strict=True)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lower_certainty_never_raises_a_proximity(data):
    """Lowering the certainty of one held ordinal value of an A object lowers
    the height of its membership, and no proximity in that object's grid
    row rises: not a feature's, nor the aggregate."""
    ordinal = data.draw(st.sampled_from(["ready", "threat"]))
    others = data.draw(st.lists(st.sampled_from(sorted(set(FEATURES) - {ordinal})), max_size=4, unique=True))
    names = data.draw(st.permutations([ordinal, *others]))
    run, objects_a, objects_b = data.draw(runs(names=names, sizes=st.integers(1, 4)))
    held = [(i, n) for i, a in enumerate(objects_a) for n, fv in a.values.items()
            if run.schema.feature(n).kind is FeatureKind.ORDINAL_FUZZY and fv.certainty is not Certainty.DOUBTFUL]
    assume(held)
    i, name = data.draw(st.sampled_from(held))
    value = objects_a[i].values[name]
    lower = data.draw(st.sampled_from([c for c in Certainty if c.value < value.certainty.value]))
    values = {**objects_a[i].values, name: FeatureValue(value.value, lower)}
    lowered = [*objects_a[:i], dataclasses.replace(objects_a[i], values=values), *objects_a[i + 1 :]]
    lowered_run = object_run(run.schema, run.profiles, lowered, objects_b, aggregation=run.aggregation)
    before, after = (pairwise_breakdowns(r).block(i, i + 1) for r in (run, lowered_run))
    for n, row in before[0].items():
        assert (after[0][n] <= row).all(), n
    assert (after[2] <= before[2]).all()


@pytest.mark.parametrize("method", list(AggregationMethod))
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_score_lies_in_the_unit_interval(method, data):
    """Each held feature proximity and both aggregate grids lie in [0, 1]
    exactly, for any non-empty subset of the feature kinds."""
    run, objects_a, _ = data.draw(runs(method=method))
    proximity, present, aggregate_p, aggregate_d = pairwise_breakdowns(run).block(0, len(objects_a))
    for name, grid in proximity.items():
        held = grid[present[name]]
        assert ((0.0 <= held) & (held <= 1.0)).all(), name
    for grid in (aggregate_p, aggregate_d):
        assert ((0.0 <= grid) & (grid <= 1.0)).all()


# A proximity may rise by a few ulps as a report moves away: the difference
# of two erf values rounds (see test_quant.py's one-ulp pair).
MONOTONE_TOLERANCE = 1e-12


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_moving_a_report_away_never_raises_a_proximity(data):
    """Moving one held B value away from an A value along one axis of a
    quantitative feature raises neither that feature's proximity of the
    pair nor its aggregate, by more than MONOTONE_TOLERANCE."""
    quantitative = data.draw(st.sampled_from(["pos", "speed"]))
    others = data.draw(st.lists(st.sampled_from(sorted(set(FEATURES) - {quantitative})), max_size=4, unique=True))
    names = data.draw(st.permutations([quantitative, *others]))
    run, objects_a, objects_b = data.draw(runs(names=names, sizes=st.integers(1, 4)))
    held = [(i, j) for i, a in enumerate(objects_a) for j, b in enumerate(objects_b)
            if quantitative in a.values and quantitative in b.values]
    assume(held)
    i, j = data.draw(st.sampled_from(held))
    a, b = (np.atleast_1d(o.values[quantitative].value).tolist() for o in (objects_a[i], objects_b[j]))
    axis = data.draw(st.integers(0, len(b) - 1))
    step = data.draw(st.floats(0.0, 6.0))
    b[axis] += step if b[axis] >= a[axis] else -step
    value = dataclasses.replace(objects_b[j].values[quantitative], value=tuple(b) if len(b) > 1 else b[0])
    moved = dataclasses.replace(objects_b[j], values={**objects_b[j].values, quantitative: value})
    moved_run = object_run(run.schema, run.profiles, objects_a, [*objects_b[:j], moved, *objects_b[j + 1 :]],
                           aggregation=run.aggregation)
    before, after = (pairwise_breakdowns(r).breakdown(i, j) for r in (run, moved_run))
    assert after.per_feature[quantitative].proximity <= before.per_feature[quantitative].proximity + MONOTONE_TOLERANCE
    assert after.aggregate_proximity <= before.aggregate_proximity + MONOTONE_TOLERANCE


# --- the whole float range ---------------------------------------------------------

EDGES = [5e-324, -5e-324, 1e-310, 1e-154, 0.0, -0.0, 1.0, 1e16, 1e17, 1e154, 2.0**511, 1e308, 1.7e308,
         1.7976931348623157e308, -1.7e308, 10**400]
ANY_NUMBER = st.floats() | st.sampled_from(EDGES) | st.floats(1e-3, 1e3)
ANY_RANK = ANY_NUMBER | st.integers(-(2**70), 2**70)


def _near(held, axis, anywhere=ANY_NUMBER):
    """``anywhere``, or, given A's ``held`` value (its ``axis`` component),
    also a value a few units from it, where roundings at large magnitudes show."""
    value = held[axis] if isinstance(held, tuple) else held
    if not is_finite_number(value):
        return anywhere
    return anywhere | (st.integers(-4, 4) | st.floats(-4.0, 4.0)).map(lambda d: value + d)


@st.composite
def float_range_pairs(draw):
    """(run, object a, object b): one pair of one or two features, every
    setting and value drawn from the whole float range."""
    kinds = draw(st.lists(st.sampled_from(["speed", "pos", "tri", "gauss", "type"]), min_size=1, max_size=2, unique=True))
    weight = 1.0 / len(kinds)
    features, accuracy, values = [], {"a": {}, "b": {}}, {"a": {}, "b": {}}
    for name in kinds:
        if name in ("speed", "pos"):
            axes = ("x", "y") if name == "pos" else None
            xi = draw(st.none() | ANY_NUMBER)
            features.append(FeatureSchema(name, FeatureKind.QUANTITATIVE, weight, quantitative_xi=xi, axes=axes))
            for sid in "ab":
                field = draw(st.sampled_from(["sigma", "delta_max"]))
                accuracy[sid][name] = QuantAccuracy(**{field: draw(ANY_NUMBER)})
                components = tuple(draw(_near(values["a"].get(name), k)) for k in range(2 if axes else 1))
                values[sid][name] = components if axes else components[0]
        elif name in ("tri", "gauss"):
            shape = MembershipShape.TRIANGULAR if name == "tri" else MembershipShape.GAUSSIAN
            params = OrdinalParams(shape, draw(st.none() | ANY_NUMBER))
            features.append(FeatureSchema(name, FeatureKind.ORDINAL_FUZZY, weight, ordinal_params=params))
            for sid in "ab":
                field = draw(st.sampled_from(["relative_k", "width", None] if name == "tri" else ["width", None]))
                if field is not None:
                    accuracy[sid][name] = OrdinalAccuracy(**{field: draw(ANY_NUMBER | st.floats(0.0, 1.0))})
                values[sid][name] = draw(_near(values["a"].get(name), None, ANY_RANK))
        else:
            delta = draw(st.floats(0.0, 0.5) | ANY_NUMBER)
            features.append(FeatureSchema(name, FeatureKind.NOMINAL, weight, nominal_delta=delta))
            for sid in "ab":
                values[sid][name] = draw(st.sampled_from(LABELS[:2]))
    spec = AggregationSpec(draw(st.sampled_from(list(AggregationMethod))), class_weight=draw(st.sampled_from([0.0, 0.3, 1.0])))
    a, b = (
        InformationObject(f"{sid}0", sid, {n: FeatureValue(v, draw(st.sampled_from(list(Certainty))))
                                           for n, v in values[sid].items()})
        for sid in "ab"
    )
    profiles = {sid: SourceProfile(sid, accuracy[sid]) for sid in "ab"}
    return object_run(Schema(tuple(features)), profiles, [a], [b], aggregation=spec), a, b


def _one_feature_pair(feature, accuracy_a, accuracy_b, value_a, value_b, certainty=Certainty.CERTAIN):
    """(run, a, b) of one pair scored on ``feature`` alone."""
    a = InformationObject("a0", "a", {feature.name: FeatureValue(value_a)})
    b = InformationObject("b0", "b", {feature.name: FeatureValue(value_b, certainty)})
    profiles = {"a": SourceProfile("a", {feature.name: accuracy_a}), "b": SourceProfile("b", {feature.name: accuracy_b})}
    return object_run(Schema((feature,)), profiles, [a], [b]), a, b


TRIANGULAR = FeatureSchema("tri", FeatureKind.ORDINAL_FUZZY, 1.0, ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR))


@settings(max_examples=500, deadline=None)
@given(float_range_pairs())
# Slopes over a subnormal half-width overflowed, with RuntimeWarnings.
@example(_one_feature_pair(TRIANGULAR, OrdinalAccuracy(relative_k=0.5), OrdinalAccuracy(width=1e-310), 511, 0))
# A crossing read on a steep edge: 1.1e-10 from the scalar path.
@example(_one_feature_pair(TRIANGULAR, OrdinalAccuracy(width=0.001), OrdinalAccuracy(width=1000.0),
                           694.289890433835, 0.001, Certainty.DOUBTFUL))
# An overlap end further than the float range from a value overflowed, with a RuntimeWarning.
@example(_one_feature_pair(FeatureSchema("speed", FeatureKind.QUANTITATIVE, 1.0, quantitative_xi=530.0),
                           QuantAccuracy(sigma=1.7e308), QuantAccuracy(delta_max=1.7e308), 1.7e308, 30.0))
def test_every_pair_rejected_or_scored_as_the_scalar_path(drawn):
    """A pair from anywhere in the float range is either rejected at
    validation with a message, or scored, without a RuntimeWarning, as the
    scalar composition scores it."""
    run, a, b = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        errors = run_violations(run)
        if errors:
            assert all(isinstance(e, str) and e for e in errors)
            with pytest.raises(MatchRunError):
                pairwise_breakdowns(run)
            return
        assert_matches_scalar(run, [a], [b], pairwise_breakdowns(run))


def _csv_bytes(breakdowns, schema) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "pairs.csv"
        write_breakdowns_csv(path, breakdowns, schema)
        return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(runs())
def test_csv_from_columns_equals_csv_from_breakdowns(drawn):
    """The column-by-column writer against csv.writer row by row, absent
    features and empty sides included."""
    run = drawn[0]
    scores = pairwise_breakdowns(run)
    assert _csv_bytes(scores, run.schema) == csv_writer_bytes(list(scores), run.schema)


# --- ranked candidates ------------------------------------------------------------

# Ids that json escapes: quotes, backslashes, control and non-ASCII characters.
ODD_IDS = st.text(st.sampled_from('a9"\\/\n\x00\x7f é€✓\U0001f600'), max_size=4)


@st.composite
def ranked_runs(draw, ids=None):
    """Runs of up to 12 objects a side in a drawn file order, so ids such as
    a10 sort before a9 wherever they stand.  A nominal-only schema gives many
    exactly equal aggregates; ``ids``, if given, draws the object ids."""
    names = ["type"] if draw(st.booleans()) else None
    run, objects_a, objects_b = draw(runs(names=names, sizes=st.integers(0, 12)))

    def side(objects):
        objects = draw(st.permutations(objects))
        if ids is not None:
            new = draw(st.lists(ids, min_size=len(objects), max_size=len(objects), unique=True))
            objects = [dataclasses.replace(o, object_id=i) for o, i in zip(objects, new)]
        return objects

    return object_run(run.schema, run.profiles, side(objects_a), side(objects_b), aggregation=run.aggregation)


THRESHOLDS = st.sampled_from([0.0, 0.01, 0.2, 0.5, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(ranked_runs(), THRESHOLDS)
def test_ranked_candidates_equal_sorted_breakdowns(run, threshold):
    """One lexsort over the columns ranks exactly as sorting the breakdowns by
    (-proximity, pair), ties included; a pair that shares no feature is never kept."""
    scores = pairwise_breakdowns(run)
    want = sorted(
        (b for b in list(scores) if b.aggregate_proximity > threshold and b.per_feature),
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
    """Absent features, empty lists and ids that need escaping are written as
    json.dumps writes the breakdown records; so are pairs that share no
    feature, in a view of every stored cell, since no candidate list holds one."""
    scores = pairwise_breakdowns(run)
    assert_json_records(candidates(scores, threshold))
    assert_json_records(RankedCandidates(scores, np.arange(len(scores.cells))))


def _masked_side(source, names, masks):
    """Objects of ``source``, the i-th holding the features whose bits ``masks[i]`` sets."""
    drawn = {
        "pos": lambda i: (float(i % 5), float(i % 3)),
        "speed": lambda i: float(i % 4),
        "ready": lambda i: 2 + i % 5,
        "threat": lambda i: 3 + i % 4,
        "type": lambda i: LABELS[i % 3],
    }
    return tuple(
        InformationObject(f"{source}{i}", source, {
            n: FeatureValue(drawn[n](i)) for k, n in enumerate(names) if mask >> k & 1
        })
        for i, mask in enumerate(masks)
    )


MASKS = st.lists(st.integers(0, 31), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(sorted(FEATURES)), min_size=1, max_size=5, unique=True), MASKS, MASKS)
@example(sorted(FEATURES), [0b11110, 0b11100], [0b11110])  # the first feature absent
@example(["speed", "type"], [0b01, 0b01], [0b10])  # no shared feature
@example(sorted(FEATURES), [0b11111, 0b11111], [0b11111])  # every feature present
def test_candidates_json_for_any_presence_masks(names, masks_a, masks_b):
    """Whichever of up to five features of mixed kinds a pair shows, none to
    all, candidates.json is json.dumps of the breakdown records."""
    schema = Schema(tuple(FeatureSchema(**{**FEATURES[n].__dict__, "weight": 1 / len(names)}) for n in names))
    run = object_run(schema, _profiles(names, [1.0, 2.0, 0.5], 0.4, 2.5, 1.0), _masked_side("a", names, masks_a),
                     _masked_side("b", names, masks_b), AggregationSpec(method=AggregationMethod.ADDITIVE))
    found = candidates(pairwise_breakdowns(run), 0.0)
    assert_json_records(found)


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

    run = object_run(schema, _profiles(names, [1.0, 2.0, 0.5], 0.4, 2.5, 1.0), side("a"), side("b"),
                     AggregationSpec(method=AggregationMethod.ADDITIVE))
    scores = pairwise_breakdowns(run)
    every = RankedCandidates(scores, np.arange(len(scores.cells)))
    assert len(every) == 529
    assert any(not b.per_feature for b in every)
    assert any(len(b.per_feature) == 1 for b in every)
    assert_json_records(every)
    # The pairs that share no feature are not candidates.
    found = candidates(scores, 0.0)
    assert {b.pair for b in found} == {b.pair for b in every if b.per_feature}
    assert len(found) < 529
    assert_json_records(found)


def test_candidates_json_with_more_features_than_one_mask_word():
    """70 features, of which each object lacks a different fifth: pairs show
    many patterns of present features, some past the 64th feature."""
    names = [f"f{k:02d}" for k in range(70)]
    schema = Schema(tuple(FeatureSchema(n, FeatureKind.NOMINAL, 1 / 70, nominal_delta=0.2) for n in names))

    def side(source):
        return tuple(
            InformationObject(f"{source}{i}", source, {
                n: FeatureValue(LABELS[(i + k) % 3]) for k, n in enumerate(names) if (7 * i + k) % 5
            })
            for i in range(6)
        )

    profiles = {s: SourceProfile(s, {}) for s in "ab"}
    run = object_run(schema, profiles, side("a"), side("b"), AggregationSpec(method=AggregationMethod.ADDITIVE))
    found = candidates(pairwise_breakdowns(run), 0.0)
    assert len({tuple(b.per_feature) for b in found}) > 1
    assert any(n in b.per_feature for b in found for n in names[64:])
    assert_json_records(found)



def _match_files(scores, found, schema, formats) -> dict[str, bytes]:
    """The files ``match`` writes for ``formats``, by name."""
    with tempfile.TemporaryDirectory() as directory:
        cli._write_match_files(Path(directory), formats, scores, found, schema, 0.01)
        return {path.name: path.read_bytes() for path in Path(directory).iterdir()}


def assert_handed_over_texts_change_no_byte(scores, found, schema):
    """A run of both formats, where pairs.csv hands its texts to
    candidates.json, writes each file as a run of its format alone does."""
    both = _match_files(scores, found, schema, ("csv", "json"))
    alone = {**_match_files(scores, found, schema, ("csv",)), **_match_files(scores, found, schema, ("json",))}
    assert sorted(both) == ["candidates.json", "pairs.csv"]
    assert both == alone
    return both


@settings(max_examples=150, deadline=None)
@given(runs(sizes=st.integers(0, 12)), THRESHOLDS)
def test_both_formats_equal_each_format_alone(drawn, threshold):
    run = drawn[0]
    scores = pairwise_breakdowns(run)
    assert_handed_over_texts_change_no_byte(scores, candidates(scores, threshold), run.schema)


def _pairs_csv(scores, schema, cells, columns=slice(None)):
    """(pairs.csv's bytes, the texts handed over for ``cells``, each written
    line's score fields)."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "pairs.csv"
        kept = write_breakdowns_csv(path, scores, schema, cells, columns)
        with open(path, newline="") as fh:
            fields = [row[2:] for row in list(csv.reader(fh))[1:]]
        return path.read_bytes(), kept, fields


@settings(max_examples=100, deadline=None)
@given(runs(sizes=st.integers(0, 12)), st.data())
def test_kept_texts_are_the_written_fields(drawn, data):
    """write_breakdowns_csv returns, for any cells in any order and any
    slice of the score columns, the fields it wrote there."""
    run = drawn[0]
    scores = pairwise_breakdowns(run)
    cells = np.array(data.draw(st.permutations(range(len(scores)))), dtype=np.int64)
    cells = cells[: data.draw(st.integers(0, len(cells)))]
    width = 2 * len(run.schema.names) + 2
    columns = slice(data.draw(st.integers(-width, width)), data.draw(st.none() | st.integers(-width, width)))
    _, kept, rows = _pairs_csv(scores, run.schema, cells, columns)
    assert kept.shape == (len(cells), len(range(width)[columns]))
    assert kept.tolist() == [rows[c][columns] for c in cells.tolist()]


# --- pairs.csv by distinct rows of a pruned grid ----------------------------------


@st.composite
def pruned_runs(draw):
    """runs() that blocking prunes: the multiplicative convolution and a
    quantitative feature, beside any others."""
    blocking = draw(st.sampled_from(["pos", "speed"]))
    others = draw(st.lists(st.sampled_from(sorted(set(FEATURES) - {blocking})), max_size=3, unique=True))
    names = draw(st.permutations([blocking, *others]))
    return draw(runs(names=names, sizes=st.integers(1, 12), method=AggregationMethod.MULTIPLICATIVE))


@settings(max_examples=150, deadline=None)
@given(pruned_runs(), st.sampled_from([1, 7, 64, 8192]), st.sampled_from([1, 2, 8]), st.data())
def test_pruned_grid_rows_rendered_once_change_no_byte(drawn, cells_per_block, steps, data):
    """Over grids of one or several blocks, the rows of a pruned grid written
    once per distinct row give csv.writer's bytes, and the texts handed over
    for any cells and columns are the fields written there."""
    run = drawn[0]
    scores = pairwise_breakdowns(run)
    assume(len(scores.cells) < len(scores))
    width = 2 * len(run.schema.names) + 2
    cells = np.array(data.draw(st.permutations(range(len(scores)))), dtype=np.int64)
    cells = cells[: data.draw(st.integers(0, len(cells)))]
    columns = slice(data.draw(st.integers(-width, width)), data.draw(st.none() | st.integers(-width, width)))
    with mock.patch.object(dataio, "_CELLS", cells_per_block), mock.patch.object(dataio, "_STEPS", steps):
        written, kept, fields = _pairs_csv(scores, run.schema, cells, columns)
    assert written == csv_writer_bytes(list(scores), run.schema)
    assert kept.tolist() == [fields[c][columns] for c in cells.tolist()]


def _simulated_scores(n=40, seed=3):
    """A simulated scene's scores, most of whose cells blocking prunes."""
    report = run_experiment(SceneSpec(object_count=n, rng_seed=seed), threshold=0.01)
    return report.breakdowns, scene_schema(report.spec)


def test_colliding_row_keys_fall_back_to_exact_rows():
    """With every key alike, each block's rows are told apart by their bytes:
    the same file and the same handed-over texts."""
    scores, schema = _simulated_scores()
    assert len(scores.cells) < len(scores)
    every = np.arange(len(scores))
    want = _pairs_csv(scores, schema, every, slice(-2, None))
    row_pass = dataio._distinct_rows
    with mock.patch.object(dataio, "_distinct_rows", lambda table, constants: row_pass(table, 0 * constants)):
        got = _pairs_csv(scores, schema, every, slice(-2, None))
    assert got[0] == want[0] == csv_writer_bytes(list(scores), schema)
    assert got[1].tolist() == want[1].tolist() == [f[-2:] for f in want[2]]


@pytest.mark.parametrize("zeroed", [False, True])
def test_distinct_rows_stand_for_every_row(zeroed):
    """Each row equals the row that stands for it, bit for bit: 0.0 and -0.0
    stay apart, and so do rows that differ only in presence."""
    floats = np.array([[0.0, -0.0, 0.0, 1e-300, 0.0], [0.5] * 5])
    present = np.array([[True, True, False, True, True]])
    table = np.concatenate([floats.view(np.uint64), present.astype(np.uint64)])
    constants = np.array([0 if zeroed else 2**64 - 1 - 2 * k for k in range(3)], dtype=np.uint64)
    first, inverse = dataio._distinct_rows(table, constants)
    assert len(first) == len(set(inverse[:4].tolist())) == 4 and inverse[4] == inverse[0]
    np.testing.assert_array_equal(table[:, first[inverse]], table)


def test_simulated_rows_keyed_without_a_collision(monkeypatch):
    """On a simulated scene each block's keys tell its rows apart exactly
    as their bytes do, so no block falls back to the exact pass; and no two
    sets of columns share a multiplier sum, so rows that differ only in
    which features are present never share a key."""
    scores, schema = _simulated_scores(n=150, seed=0)
    tables = []
    row_pass = dataio._distinct_rows
    monkeypatch.setattr(dataio, "_distinct_rows", lambda *args: tables.append(args) or row_pass(*args))
    _pairs_csv(scores, schema, None, slice(None))
    assert tables
    for table, constants in tables:
        key = ((table ^ (table >> np.uint64(32))) * constants[:, None]).sum(axis=0, dtype=np.uint64)
        assert len(np.unique(key)) == len(np.unique(table.T, axis=0))
    constants = tables[0][1].tolist()
    sums = {sum(itertools.compress(constants, bits)) % 2**64 for bits in itertools.product((0, 1), repeat=len(constants))}
    assert len(sums) == 2 ** len(constants)


def test_row_pass_only_where_cells_were_pruned(monkeypatch):
    """A grid with no pruned cells, where every pair may be a candidate as
    in a dense match, is written cell by cell, without building a row key;
    a pruned grid of the same objects is written by rows.  Both give the
    reference bytes, in either format alone or both."""
    names = ["pos", "type"]
    schema = Schema(tuple(FeatureSchema(**{**FEATURES[n].__dict__, "weight": 0.5}) for n in names))
    profiles = _profiles(names, [1.0, 2.0, 0.5], 0.4, 2.5, 1.0)

    def side(source):
        return [
            InformationObject(f"{source}{i}", source, {"pos": FeatureValue((3.0 * i, 1.0)), "type": FeatureValue(LABELS[i % 3])})
            for i in range(20)
        ]

    calls = []
    row_pass = dataio._distinct_rows
    monkeypatch.setattr(dataio, "_distinct_rows", lambda *args: calls.append(args) or row_pass(*args))
    for method, pruned in ((AggregationMethod.ADDITIVE, False), (AggregationMethod.MULTIPLICATIVE, True)):
        scores = pairwise_breakdowns(object_run(schema, profiles, side("a"), side("b"), AggregationSpec(method=method)))
        assert (len(scores.cells) < len(scores)) is pruned
        calls.clear()
        both = assert_handed_over_texts_change_no_byte(scores, candidates(scores, 0.0), schema)
        assert both["pairs.csv"] == csv_writer_bytes(list(scores), schema)
        assert bool(calls) is pruned


def test_both_formats_equal_each_format_alone_over_several_blocks():
    """1 600 candidates in two blocks of records, ranked so that the first
    holds every feature in every record and the second mixes pairs that lack
    ready.  Speeds far apart score below 1e-4, which repr writes in exponent
    form, and every id needs CSV quoting and JSON escaping."""
    names = ["ready", "speed", "type"]
    schema = Schema(tuple(
        FeatureSchema(**{**FEATURES[n].__dict__, "weight": w}) for n, w in zip(names, (0.3, 0.4, 0.3))
    ))

    def side(source, far):
        """The last six objects lack ready and report a speed far from all
        others and a type no other object reports."""
        return tuple(
            InformationObject(f'{source}"{i},\u00e9\\', source, {
                "speed": FeatureValue(0.1 * (i % 7) if i < 34 else far + 0.01 * i),
                "type": FeatureValue(LABELS[i % 3] if i < 34 else source),
                **({"ready": FeatureValue(2 + i % 5)} if i < 34 else {}),
            })
            for i in range(40)
        )

    run = object_run(schema, _profiles(names, [1.0, 2.0, 0.5], 0.4, 2.5, 1.0), side("a", 8.4), side("b", -8.4),
                     AggregationSpec(method=AggregationMethod.ADDITIVE))
    scores = pairwise_breakdowns(run)
    found = candidates(scores, 0.0)
    assert len(found) == 1600 > RECORDS_PER_BLOCK
    present = np.array([found.present[n] for n in names])
    assert present[:, :RECORDS_PER_BLOCK].all()
    assert not present[:, RECORDS_PER_BLOCK:].all() and present[:, RECORDS_PER_BLOCK:].any(axis=1).all()
    both = assert_handed_over_texts_change_no_byte(scores, found, schema)
    assert b"e-" in both["candidates.json"] and b'"a\\"0,\\u00e9\\\\"' in both["candidates.json"]
    assert both["pairs.csv"] == csv_writer_bytes(list(scores), schema)
    assert both["candidates.json"] == stdlib_bytes({
        "candidates": [breakdown_record(b) for b in found], "pair_count": len(scores), "threshold": 0.01,
    })


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

    objects_a, objects_b = side("a", 0), side("b", 1)
    run = object_run(schema, _profiles(names, [1.0, 2.0, 0.5], 0.4, 2.5, 1.0), objects_a, objects_b,
                     AggregationSpec(method=method, class_weight=0.6))
    assert_matches_scalar(run, objects_a, objects_b, pairwise_breakdowns(run))


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
        scores = pairwise_breakdowns(object_run(schema, profiles, side_a, side_b))
    for k, got in enumerate(scores):
        oa, ob = side_a[k // len(side_b)], side_b[k % len(side_b)]
        want = possibility(
            apply_certainty(gaussian_membership(float(oa.values["threat"].value), spread_a), oa.values["threat"].certainty),
            apply_certainty(gaussian_membership(float(ob.values["threat"].value), spread_b), ob.values["threat"].certainty),
        )
        assert got.per_feature["threat"].proximity == pytest.approx(want, abs=TOLERANCE)


@pytest.mark.parametrize("rank_a, rank_b, spread", [
    pytest.param(10**9, 4, 1.0, id="1e9-4-spread-1"),
    pytest.param(10**9, 4, 1e8, id="1e9-4-spread-1e8"),
    pytest.param(2**500, 0, 1.0, id="2**500-0-spread-1"),
    pytest.param(2**500, 0, 2.0**500, id="2**500-0-spread-2**500"),
])
def test_gaussian_grid_far_apart_peaks(monkeypatch, rank_a, rank_b, spread):
    """Peaks 1e9 or 2**500 apart: the scalar grid search bisects between
    them, a count of membership evaluations in the bits of the gap, and
    equals the engine's closed-form crossing."""
    schema = Schema((FeatureSchema(**{**FEATURES["threat"].__dict__, "weight": 1.0}),))
    profiles = {sid: SourceProfile(sid, {"threat": OrdinalAccuracy(width=spread)}) for sid in ("a", "b")}
    a = InformationObject("a0", "a", {"threat": FeatureValue(rank_a)})
    b = InformationObject("b0", "b", {"threat": FeatureValue(rank_b)})
    got = evaluate_pair(schema, profiles, AggregationSpec(), a, b).per_feature["threat"].proximity
    calls = []
    evaluate = FuzzyMembership.evaluate
    monkeypatch.setattr(FuzzyMembership, "evaluate", lambda m, g: calls.append(g) or evaluate(m, g))
    want = possibility(gaussian_membership(float(rank_a), spread), gaussian_membership(float(rank_b), spread))
    assert len(calls) <= 2 * ((rank_a - rank_b).bit_length() + 1) + 12
    assert got == pytest.approx(want, abs=TOLERANCE)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.integers(-40, 40) | st.integers(-80, 80).map(lambda h: h / 2) | st.floats(-1e6, 1e6)
        | st.sampled_from([1e308, 1.7e308, -1.7e308, 1.7976931348623157e308]),
        min_size=1, max_size=6,
    ),
    st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]) | st.floats(0.01, 0.99),
)
def test_relative_k_supports_equal_the_scalar_rounding(ranks, k):
    """Validation rejects a rank exactly where triangular_from_relative_error
    refuses it (a support that collapses onto the rank, or one it cannot
    round); every other rank scores what the scalar possibility gives."""
    schema = Schema((FeatureSchema(**{**FEATURES["ready"].__dict__, "weight": 1.0}),))
    profiles = {"a": SourceProfile("a", {"ready": OrdinalAccuracy(relative_k=k)}),
                "b": SourceProfile("b", {"ready": OrdinalAccuracy(width=2.5)})}
    side_a = [InformationObject(f"a{i}", "a", {"ready": FeatureValue(r)}) for i, r in enumerate(ranks)]
    side_b = [InformationObject("b0", "b", {"ready": FeatureValue(4)})]

    def membership(rank):
        try:
            return triangular_from_relative_error(float(rank), k)
        except ValueError:
            return None

    memberships = [membership(r) for r in ranks]
    errors = run_violations(object_run(schema, profiles, side_a, side_b))
    assert [m is None for m in memberships] == [any(e.startswith(f"a{i}/") for e in errors) for i in range(len(ranks))]
    kept = [(o, m) for o, m in zip(side_a, memberships) if m is not None]
    # A kept rank near 1e308 scores without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scores = list(pairwise_breakdowns(object_run(schema, profiles, [o for o, _ in kept], side_b)))
    for (_, m), got in zip(kept, scores):
        want = possibility(m, triangular_from_halfwidth(4.0, 2.5))
        assert got.per_feature["ready"].proximity == pytest.approx(want, abs=TOLERANCE)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(-40, 40) | st.floats(-1e20, 1e20)
        | st.sampled_from([1e17, -1e17, 1e308, 1.7e308, -1.7e308, 1.7976931348623157e308]),
        min_size=1, max_size=6,
    ),
    st.floats(1e-3, 10.0) | st.sampled_from([2.0, 1e-300, 1e300, 1e308, 1.7976931348623157e308]),
)
def test_half_width_supports_equal_the_scalar_rule(ranks, width):
    """Validation rejects a rank exactly where triangular_from_halfwidth
    refuses it (a support within the rank's float spacing, or past the float
    range), with the same text: the rank is held, and shown, as a float."""
    schema = Schema((FeatureSchema(**{**FEATURES["ready"].__dict__, "weight": 1.0}),))
    profiles = {"a": SourceProfile("a", {"ready": OrdinalAccuracy(width=width)}),
                "b": SourceProfile("b", {"ready": OrdinalAccuracy(width=2.0)})}
    side_a = [InformationObject(f"a{i}", "a", {"ready": FeatureValue(r)}) for i, r in enumerate(ranks)]
    side_b = [InformationObject("b0", "b", {"ready": FeatureValue(4)})]

    def refusal(i, rank):
        try:
            triangular_from_halfwidth(float(rank), width)
        except ValueError as error:
            return f"a{i}/ready: {error}"
        return None

    expected = [m for m in (refusal(i, r) for i, r in enumerate(ranks)) if m is not None]
    assert run_violations(object_run(schema, profiles, side_a, side_b)) == expected


@pytest.mark.parametrize("rank_a, rank_b", [(1e308, 1.1e308), (1e300, 1.1e300)])
def test_triangles_crossing_near_the_float_range(rank_a, rank_b):
    """Supports whose crossing products overflow: the nan crossing was
    dropped, scoring 0.8181818181818182 with an overflow RuntimeWarning."""
    schema = Schema((FeatureSchema(**{**FEATURES["ready"].__dict__, "weight": 1.0}),))
    profiles = {sid: SourceProfile(sid, {"ready": OrdinalAccuracy(relative_k=0.5)}) for sid in ("a", "b")}
    a = InformationObject("a0", "a", {"ready": FeatureValue(rank_a)})
    b = InformationObject("b0", "b", {"ready": FeatureValue(rank_b)})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = evaluate_pair(schema, profiles, AggregationSpec(), a, b).per_feature["ready"].proximity
    want = possibility(triangular_from_relative_error(rank_a, 0.5), triangular_from_relative_error(rank_b, 0.5))
    assert want > 0.9
    assert got == pytest.approx(want, abs=TOLERANCE)


class TestPairScores:
    def scores(self):
        schema = Schema((FeatureSchema("speed", FeatureKind.QUANTITATIVE, 1.0, quantitative_xi=3.0),))
        profiles = {s: SourceProfile(s, {"speed": QuantAccuracy(sigma=1.0)}) for s in ("a", "b")}
        side_a = tuple(InformationObject(f"a{i}", "a", {"speed": FeatureValue(float(i))}) for i in range(3))
        side_b = tuple(InformationObject(f"b{i}", "b", {"speed": FeatureValue(float(2 * i))}) for i in range(2))
        return pairwise_breakdowns(object_run(schema, profiles, side_a, side_b))

    def test_grid_protocol(self):
        """``len`` and iteration cover the (3, 2) grid, A outer; it is not a sequence."""
        scores = self.scores()
        assert isinstance(scores, PairScores) and not isinstance(scores, collections.abc.Sequence)
        listed = list(scores)
        assert len(scores) == len(listed) == 6
        assert [b.pair for b in listed][:3] == [("a0", "b0"), ("a0", "b1"), ("a1", "b0")]
        assert scores.breakdown(-1, -1) == listed[-1]
        with pytest.raises(IndexError):
            scores.breakdown(3, 0)
        with pytest.raises(IndexError):
            scores.breakdown(0, 2)
        with pytest.raises(TypeError):
            scores[0]

    def test_columns_are_read_only(self):
        scores = self.scores()
        with pytest.raises(ValueError):
            scores.aggregate_proximity[0, 0] = 0.5
        with pytest.raises(ValueError):
            scores.cells.proximity["speed"][0] = 0.5

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
            assert list(candidates(scores, threshold)) == ranked_breakdowns(scores, threshold)


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
    (batch,) = pairwise_breakdowns(object_run(schema, profiles, [a], [b]))
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

    def run(self, value_a, rank_a=5):
        a = InformationObject("a0", "a", {"speed": FeatureValue(value_a), "rank": FeatureValue(rank_a)})
        b = InformationObject("b0", "b", {"speed": FeatureValue(1.0), "rank": FeatureValue(4)})
        return object_run(self.SCHEMA, self.PROFILES, [a], [b])

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
