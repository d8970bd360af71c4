import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iomatch import dataio
from iomatch.model import QuantAccuracy, SourceProfile, schema_violations
from iomatch.quant import NormalErrorModel, joint_overlap_probability
from iomatch.simulate import (
    FAR_SEPARATION_M,
    SceneSpec,
    SceneSpecError,
    emit_report_files,
    generate_scene,
    observe,
    run_experiment,
    scene_schema,
    _self_separations,
    _separations,
)
from iomatch.svgplot import render_match_svg
from oracles import render_match_svg_by_point
from test_config_dataio import columns_equal


def position_profile(source_id, sigma):
    return SourceProfile(source_id, {"position": QuantAccuracy(sigma=sigma)})


def positions(dataset):
    return dataset.columns["position"].values.tolist()


def labels(dataset):
    return dataset.columns["type"].values.tolist()


class TestGenerateScene:
    def test_deterministic(self):
        spec = SceneSpec(object_count=12, rng_seed=5)
        one, two = generate_scene(spec), generate_scene(spec)
        assert one.ids == two.ids == tuple(f"po-{i:03d}" for i in range(12))
        assert one.positions.tolist() == two.positions.tolist()
        assert one.kinds.tolist() == two.kinds.tolist()
        assert not (one.positions.flags.writeable or one.kinds.flags.writeable)

    def test_zero_objects_rejected(self):
        with pytest.raises(SceneSpecError):
            generate_scene(SceneSpec(object_count=0))

    def test_coordinates_within_area(self):
        scene = generate_scene(SceneSpec(object_count=20, area=(1000.0, 1000.0), rng_seed=3))
        assert scene.positions.shape == (20, 2)
        assert all(0.0 <= x <= 1000.0 and 0.0 <= y <= 1000.0 for x, y in scene.positions.tolist())
        assert all(k in (0, 1) for k in scene.kinds.tolist())

    def test_bad_spec_lists_errors(self):
        with pytest.raises(SceneSpecError) as excinfo:
            generate_scene(SceneSpec(object_count=-1, type_error=0.9, rmse=(0.0, 1.0)))
        assert len(excinfo.value.errors) == 3

    @pytest.mark.parametrize("field, value, message", [
        # numpy raised a bare OverflowError: high - low range exceeds valid bounds.
        ("area", (math.inf, 1000.0), "area sides must be finite, got (inf, 1000.0)"),
        # The reports were blamed: s1-000/position: expected 2 finite numeric components, ...
        ("rmse", (math.inf, 30.0), "need two finite RMSE values, got (inf, 30.0)"),
        # The scene ran to completion with xi = inf.
        ("fleet_sigma_min", math.inf, "fleet_sigma_min must be finite, got inf"),
        ("area", (-1.0, math.nan), "area sides must be positive, got (-1.0, nan)"),
    ])
    def test_setting_that_is_not_finite_and_positive(self, field, value, message):
        spec = SceneSpec(**{field: value})
        assert spec.violations() == [message]
        with pytest.raises(SceneSpecError, match=f"^{re.escape(message)}$"):
            run_experiment(spec)

    @pytest.mark.parametrize("types", [(" tank", "tank"), ("", "tank"), ("tank", "truck\t")])
    def test_label_that_changes_on_the_csv_round_trip(self, types):
        """A dataset CSV reads each label stripped and an empty one as
        absent, so simulate scored pairs that match scores otherwise on the
        files simulate wrote."""
        spec = SceneSpec(type_alphabet=types)
        message = f"type alphabet labels must be non-empty and without surrounding blanks, got {list(types)}"
        assert spec.violations() == [message]

    @pytest.mark.parametrize("label", [" tank", ""])
    def test_writer_refuses_a_label_that_changes_on_the_round_trip(self, tmp_path, label):
        dataset = observe(generate_scene(SceneSpec(object_count=3)), position_profile("s1", 20.0), 0)
        column = dataset.columns["type"]
        column.values[1] = label
        with pytest.raises(ValueError) as excinfo:
            dataio.write_objects_csv(tmp_path / "objects.csv", dataset)
        assert str(excinfo.value) == (
            f"cannot write s1-001/type: expected a non-empty label without surrounding blanks, got {label!r}"
        )
        assert not (tmp_path / "objects.csv").exists()

    def test_xi_of_a_huge_fleet_sigma_stays_finite(self):
        """Three times 1e308 overflows: the scene's xi is the largest float,
        which the schema's xi rule accepts."""
        schema = scene_schema(SceneSpec(fleet_sigma_min=1e308))
        assert schema.feature("position").quantitative_xi == sys.float_info.max
        assert schema_violations(schema.features) == []

    @pytest.mark.parametrize("count, errors", [
        (3037000499, []),
        (3037000500, ["object_count must be at most 3037000499, got 3037000500"]),
        (2**32, ["object_count must be at most 3037000499, got 4294967296"]),
    ])
    def test_object_count_whose_pair_grid_cannot_be_indexed(self, count, errors):
        """A count whose count x count grid numpy cannot index; 2**32 died
        with an _ArrayMemoryError for 32 GiB."""
        assert SceneSpec(object_count=count).violations() == errors

    @pytest.mark.parametrize("types", [("tank", "tank"), ("tank", "truck", "tank")])
    def test_repeated_type_label_rejected(self, types):
        """A flipped report draws among the labels other than its own, which
        is only defined when the labels are distinct."""
        assert SceneSpec(type_alphabet=types).violations() == [
            f"type alphabet labels must be distinct, got {list(types)}"
        ]


class TestObserve:
    def test_noise_rmse_statistics(self):
        scene = generate_scene(SceneSpec(object_count=10_000, area=(100_000.0, 100_000.0), rng_seed=11))
        observed = observe(scene, position_profile("s1", 20.0), seed=123)
        errors = np.array([
            [x - tx, y - ty] for (x, y), (tx, ty) in zip(positions(observed), scene.positions.tolist())
        ])
        assert abs(errors[:, 0].std() - 20.0) <= 0.5
        assert abs(errors[:, 1].std() - 20.0) <= 0.5
        assert abs(errors.mean()) <= 0.5

    def test_type_flip_fraction(self):
        scene = generate_scene(SceneSpec(object_count=10_000, type_error=0.1, rng_seed=11))
        observed = observe(scene, position_profile("s1", 1.0), seed=123)
        truth = [scene.spec.type_alphabet[k] for k in scene.kinds.tolist()]
        flips = sum(label != true for label, true in zip(labels(observed), truth))
        assert abs(flips / 10_000 - 0.1) <= 0.01

    def test_noiseless_limit(self):
        scene = generate_scene(SceneSpec(object_count=50, rng_seed=2))
        observed = observe(scene, position_profile("s1", 0.001), seed=9)
        for (x, y), (tx, ty) in zip(positions(observed), scene.positions.tolist()):
            assert abs(x - tx) <= 0.01 and abs(y - ty) <= 0.01

    def test_deterministic_per_seed(self):
        scene = generate_scene(SceneSpec(object_count=30, rng_seed=4))
        p = position_profile("s1", 15.0)
        assert columns_equal(observe(scene, p, seed=77), observe(scene, p, seed=77))

    def test_noise_scales_with_sigma_for_same_seed(self):
        scene = generate_scene(SceneSpec(object_count=5, rng_seed=4))
        coarse = observe(scene, position_profile("s1", 20.0), seed=77)
        fine = observe(scene, position_profile("s1", 10.0), seed=77)
        for (c, _), (f, _), (tx, _) in zip(positions(coarse), positions(fine), scene.positions.tolist()):
            assert c - tx == pytest.approx(2.0 * (f - tx), rel=1e-12)
        assert labels(coarse) == labels(fine)

    def test_flip_draws_another_label(self):
        """The flipped label is the replacement draw's entry among the labels
        other than the object's own, one object at a time, from the stream
        the docstring lays out: two normals, one uniform, one replacement."""
        spec = SceneSpec(object_count=2000, type_alphabet=("tank", "truck", "apc", "radar"),
                         type_error=0.5, rng_seed=6)
        scene = generate_scene(spec)
        observed = observe(scene, position_profile("s1", 5.0), seed=31)
        rng = np.random.Generator(np.random.PCG64(31))
        rng.standard_normal((2000, 2))
        flips, picks = rng.random(2000).tolist(), rng.integers(0, 3, 2000).tolist()
        want = []
        for kind, flip, pick in zip(scene.kinds.tolist(), flips, picks):
            own = spec.type_alphabet[kind]
            others = [t for t in spec.type_alphabet if t != own]
            want.append(others[pick] if flip < spec.type_error else own)
        assert labels(observed) == want
        assert len(set(want)) == 4


@pytest.fixture(scope="module")
def reports():
    spec = SceneSpec(object_count=20, rng_seed=7)
    precise = SceneSpec(object_count=20, rng_seed=7, rmse=(10.0, 15.0))
    return run_experiment(spec), run_experiment(precise)


class TestRunExperiment:

    def test_pair_bookkeeping(self, reports):
        report, _ = reports
        assert report.summary["pair_count"] == 400
        assert report.summary["true_pair_count"] == 20
        ids = {i for dataset in report.datasets.values() for i in dataset.ids}
        for b in report.candidates:
            assert b.pair[0] in ids and b.pair[1] in ids

    def test_true_pairs_dominate_candidates(self, reports):
        for report in reports:
            true_count = report.summary["true_candidate_count"]
            assert true_count == report.summary["true_pair_count"]
            assert true_count > report.summary["candidate_count"] - true_count

    def test_candidates_equal_thresholded_records(self, reports):
        report, _ = reports
        scores = report.breakdowns
        rows, cols = np.nonzero(scores.aggregate_proximity > report.threshold)
        expected = {(scores.ids_a[i], scores.ids_b[j]) for i, j in zip(rows, cols)}
        assert {b.pair for b in report.candidates} == expected

    def test_mismatch_cap(self, reports):
        cap = 0.1 ** 0.5
        for report in reports:
            mismatched = report.breakdowns.aggregate_proximity[report.type_mismatch]
            assert (mismatched <= cap + 1e-12).all()

    def test_precision_comparison(self, reports):
        coarse, precise = reports
        assert (
            precise.summary["mean_proximity_true_pairs"]
            > coarse.summary["mean_proximity_true_pairs"]
        )
        assert (
            precise.summary["mean_proximity_distinct_far_pairs"]
            <= coarse.summary["mean_proximity_distinct_far_pairs"]
        )

    def test_far_pairs_use_true_separation(self, reports):
        report, _ = reports
        distinct = ~np.eye(report.spec.object_count, dtype=bool)
        far = distinct & (report.separation_true > FAR_SEPARATION_M)
        assert far.any(), "fixture scene should contain well-separated distinct pairs"

    def test_summary_recounts_from_payload(self, reports):
        for report in reports:
            assert report.summary == recount_summary(report.to_payload(), report.threshold)

    def test_separations_are_math_hypot(self, reports):
        for report in reports:
            scene = report.scene.positions.tolist()
            obs_a, obs_b = (positions(report.datasets[sid]) for sid in ("s1", "s2"))
            n = len(scene)
            for i in range(n):
                for j in range(n):
                    assert report.separation_true[i, j] == math.hypot(
                        scene[i][0] - scene[j][0], scene[i][1] - scene[j][1]
                    )
                    assert report.separation_observed[i, j] == math.hypot(
                        obs_a[i][0] - obs_b[j][0], obs_a[i][1] - obs_b[j][1]
                    )

    def test_byte_determinism(self, tmp_path):
        spec = SceneSpec(object_count=10, rng_seed=21)
        emit_report_files(run_experiment(spec), tmp_path / "one")
        emit_report_files(run_experiment(spec), tmp_path / "two")
        names = ["objects_s1.csv", "objects_s2.csv", "pairs.csv", "report.json", "scene.svg"]
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_different_seed_changes_output(self, tmp_path):
        emit_report_files(run_experiment(SceneSpec(object_count=10, rng_seed=21)), tmp_path / "one")
        emit_report_files(run_experiment(SceneSpec(object_count=10, rng_seed=22)), tmp_path / "two")
        assert (tmp_path / "one" / "report.json").read_bytes() != (
            tmp_path / "two" / "report.json"
        ).read_bytes()

    def test_single_object_scene(self):
        report = run_experiment(SceneSpec(object_count=1, rmse=(0.001, 0.001),
                                          type_error=0.01, rng_seed=1))
        assert len(report.breakdowns) == 1
        assert len(report.candidates) == 1
        # Coincident ceiling: per-axis joint three-sigma mass through the
        # 0.5-weight convolution.  Observation noise scales with sigma, so the
        # pair sits below the ceiling but far above the candidate threshold.
        ceiling = joint_overlap_probability(NormalErrorModel(0, 1), NormalErrorModel(0, 1))
        proximity = report.candidates[0].aggregate_proximity
        assert 0.3 < proximity <= ceiling + 1e-12

    def test_spec_is_the_scene_spec(self, reports):
        for report, spec in zip(reports, (SceneSpec(object_count=20, rng_seed=7),
                                          SceneSpec(object_count=20, rng_seed=7, rmse=(10.0, 15.0)))):
            assert report.spec is report.scene.spec
            assert report.spec == spec
        with pytest.raises(AttributeError):
            reports[0].spec = SceneSpec()

    def test_report_payload_shape(self, reports):
        payload = reports[0].to_payload()
        assert payload["metadata"]["rng"] == "numpy.random.PCG64"
        assert payload["metadata"]["seed"] == 7
        assert len(payload["pairs"]) == 400
        assert len(payload["scene"]) == 20
        assert set(payload["datasets"]) == {"s1", "s2"}
        for c in payload["candidates"]:
            assert set(c) == {"a", "b", "proximity", "true_pair", "type_mismatch"}


# Coordinates whose differences stay finite, up to half the float range,
# where math.hypot can still overflow to inf.
COORDINATES = st.floats(-8e307, 8e307) | st.sampled_from([-0.0, 5e-324, -1e200, 3e200, -1e-300, 8e307, -8e307])


class TestSelfSeparations:
    """separation_true computes each unordered pair of the scene once and
    mirrors it."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(COORDINATES, COORDINATES), max_size=8))
    @example([(-3.5, 2.0), (1.25, -7.0), (-0.0, 0.0), (0.1, -0.2)])
    @example([(1e200, -3e200), (-2e200, 5e199), (7e199, 1e200), (-1e200, -1e200)])
    @example([(1.5e308, 1.5e308), (0.0, 0.0), (1e-300, 5e-324)])  # hypot overflows to inf
    def test_equal_to_separations_bit_for_bit(self, points):
        p = np.array(points, dtype=float).reshape(-1, 2)
        got = _self_separations(p)
        assert got.view(np.uint64).tolist() == _separations(p, p).view(np.uint64).tolist()
        assert (got == got.T).all()
        assert not np.diagonal(got).any() and not np.signbit(got).any()

    def test_overflow_reaches_the_grid(self):
        got = _self_separations(np.array([[1.5e308, 1.5e308], [0.0, 0.0], [-1.0, 2.0]]))
        assert got[0, 1] == got[1, 0] == math.inf and np.isfinite(got[1:, 1:]).all()

    def test_report_separation_true(self, reports):
        for report in reports:
            p = report.scene.positions
            assert report.separation_true.tobytes() == _separations(p, p).tobytes()


# Positions up to the float range, whose pixel coordinates, halved sums and
# radii can overflow to inf or nan.
SVG_COORDINATES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 0.125, 999.995, -1e200, 3e200, 8e307, -1.7e308, 1.7e308]
)
SVG_AREAS = st.floats(1e-12, 1e17) | st.sampled_from([1e-9, 1.0, 1000.0, 1e-300, 1.7e308])


def svg_points(min_size, max_size):
    return st.lists(st.tuples(SVG_COORDINATES, SVG_COORDINATES), min_size=min_size, max_size=max_size).map(
        lambda points: np.array(points, dtype=float).reshape(-1, 2)
    )


@st.composite
def svg_inputs(draw):
    """An area, two sources' positions and up to 8 candidate links."""
    k = draw(st.integers(0, 8))
    links = (
        draw(svg_points(k, k)),
        draw(svg_points(k, k)),
        np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)), dtype=bool),
    )
    datasets = [("s1", draw(svg_points(0, 6))), ("s2", draw(svg_points(0, 6)))]
    return (draw(SVG_AREAS), draw(SVG_AREAS)), datasets, links, draw(st.sampled_from(["", "a title"]))


def svg_case(area, first, second, a, b, mismatch, title="t"):
    def points(p):
        return np.array(p, dtype=float).reshape(-1, 2)

    return area, [("s1", points(first)), ("s2", points(second))], (points(a), points(b), np.array(mismatch, bool)), title


class TestSvgByColumns:
    """scene.svg drawn by columns is the point-by-point drawing, byte for
    byte, and quiet where a coordinate overflows."""

    @settings(max_examples=200, deadline=None)
    @given(svg_inputs())
    @example(svg_case((1000.0, 1000.0), [(1.0, 2.0)], [(3.0, 4.0)], [], [], []))  # no candidates
    @example(svg_case((1000.0, 500.0), [(1.0, 2.0)], [(3.0, 4.0)], [(1.0, 2.0)], [(3.0, 4.0)], [False]))
    @example(svg_case((1000.0, 500.0), [], [], [(1.0, 2.0), (5.5, 0.1)], [(3.0, 4.0), (7.0, 8.0)], [True, False]))
    @example(svg_case((1e3, 1e3), [(1e200, -3e200)], [(1.5e308, 1.5e308)], [(1.5e308, -1.7e308)],
                      [(1.7e308, 1.7e308)], [True]))  # huge finite positions: the halving guard
    @example(svg_case((1e-9, 1e-9), [(1e300, 2.0)], [(-1e300, 1.0)], [(1e300, 1e300)], [(-1e300, -1e300)], [True]))
    def test_equal_to_the_point_by_point_drawing(self, drawn):
        area, datasets, links, title = drawn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = render_match_svg(area, datasets, links, title=title)
        assert got == render_match_svg_by_point(area, datasets, links, title=title)


def recount_summary(payload, threshold):
    """The report summary, recounted in plain Python from the payload's records."""
    pairs = {(r["a"], r["b"]): r for r in payload["pairs"]}
    found = [pairs[c["a"], c["b"]] for c in payload["candidates"]]
    for c, r in zip(payload["candidates"], found):
        assert (c["proximity"], c["true_pair"], c["type_mismatch"]) == (
            r["proximity"], r["true_pair"], r["type_mismatch"]
        )
    assert {(r["a"], r["b"]) for r in found} == {k for k, r in pairs.items() if r["proximity"] > threshold}
    true_p = [r["proximity"] for r in pairs.values() if r["true_pair"]]
    far_p = [
        r["proximity"]
        for r in pairs.values()
        if not r["true_pair"] and r["separation_true"] > FAR_SEPARATION_M
    ]
    mismatch_p = [r["proximity"] for r in found if r["type_mismatch"]]
    return {
        "pair_count": len(pairs),
        "true_pair_count": len(true_p),
        "candidate_count": len(found),
        "true_candidate_count": sum(1 for r in found if r["true_pair"]),
        "type_mismatch_candidate_count": len(mismatch_p),
        "mean_proximity_true_pairs": sum(true_p) / len(true_p),
        "mean_proximity_distinct_far_pairs": sum(far_p) / len(far_p) if far_p else None,
        "max_type_mismatch_candidate_proximity": max(mismatch_p, default=None),
        "nominal_mismatch_cap": payload["metadata"]["type_error"] ** 0.5,
    }


def reference_records(report):
    """The pairs and candidates of ``to_payload``, one breakdown at a time,
    each looked up in the ground-truth columns by its ids."""
    row = {oid: i for i, oid in enumerate(report.breakdowns.ids_a)}
    col = {oid: j for j, oid in enumerate(report.breakdowns.ids_b)}

    def record(b):
        i, j = row[b.pair[0]], col[b.pair[1]]
        return {
            "a": b.pair[0], "b": b.pair[1], "proximity": b.aggregate_proximity,
            "true_pair": i == j, "type_mismatch": bool(report.type_mismatch[i, j]),
        }, (i, j)

    pairs = []
    for b in report.breakdowns:
        r, (i, j) = record(b)
        pairs.append(dict(
            r, distance=b.aggregate_distance,
            separation_true=float(report.separation_true[i, j]),
            separation_observed=float(report.separation_observed[i, j]),
        ))
    return pairs, [record(b)[0] for b in report.candidates]


def svg_from_payload(payload):
    """scene.svg drawn from the payload's datasets and candidates."""
    meta = payload["metadata"]
    position = {o["id"]: (o["x"], o["y"]) for objs in payload["datasets"].values() for o in objs}

    def positions(points):
        return np.array(list(points), dtype=float).reshape(-1, 2)

    found = payload["candidates"]
    links = (
        positions(position[c["a"]] for c in found),
        positions(position[c["b"]] for c in found),
        np.array([c["type_mismatch"] for c in found], dtype=bool),
    )
    datasets = [(sid, positions((o["x"], o["y"]) for o in objs)) for sid, objs in payload["datasets"].items()]
    rmse = meta["rmse"]
    title = f"candidates above {meta['threshold']:g} (RMSE {rmse[0]:g} m / {rmse[1]:g} m)"
    return render_match_svg(tuple(meta["area"]), datasets, links, title=title)


EMIT_SCENES = [
    pytest.param((SceneSpec(object_count=n, rng_seed=seed), 0.01), id=f"n{n}-seed{seed}")
    for n in (1, 20, 150)
    for seed in (3, 7, 21)
] + [
    pytest.param((SceneSpec(object_count=20, rng_seed=3), 1.0), id="n20-no-candidates"),
    # Positions of 1e16 and up, which float_texts renders through repr.
    pytest.param((SceneSpec(object_count=20, area=(1e17, 1e17), rng_seed=3), 0.01), id="n20-area-1e17"),
]


class TestEmitFromColumns:
    """report.json and scene.svg are rendered from the report's columns;
    ``to_payload`` stays the oracle for both."""

    @pytest.fixture(scope="class", params=EMIT_SCENES)
    def emitted(self, request, tmp_path_factory):
        spec, threshold = request.param
        report = run_experiment(spec, threshold=threshold)
        out = tmp_path_factory.mktemp("emit")
        emit_report_files(report, out)
        return report, report.to_payload(), out

    def test_report_json_is_the_payload_dump(self, emitted):
        _, payload, out = emitted
        text = (out / "report.json").read_text()
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_report_json_equals_the_json_format_alone(self, emitted, tmp_path):
        """The default formats hand pairs.csv's aggregate texts to the pairs
        list; --format json renders them itself: the same bytes."""
        report, _, out = emitted
        emit_report_files(report, tmp_path, ("json",))
        assert (tmp_path / "report.json").read_bytes() == (out / "report.json").read_bytes()

    @pytest.mark.parametrize("formats, names", [
        (("csv",), ["objects_s1.csv", "objects_s2.csv", "pairs.csv"]),
        (("svg",), ["scene.svg"]),
    ], ids=["csv", "svg"])
    def test_csv_and_svg_alone_equal_the_default_run(self, emitted, tmp_path, formats, names):
        """pairs.csv keeps its texts for report.json only when both are
        written; each file a format writes alone is the default run's."""
        report, _, out = emitted
        written = emit_report_files(report, tmp_path, formats)
        assert [p.name for p in written] == names
        for p in written:
            assert p.read_bytes() == (out / p.name).read_bytes()

    def test_each_aggregate_rendered_once(self, emitted, tmp_path, monkeypatch):
        """Writing both formats renders 2 n^2 fewer floats than writing each
        alone: the pairs list takes its proximity and distance from pairs.csv."""
        report, _, _ = emitted
        rendered = []
        reprs = dataio._reprs

        def counted(values):
            rendered.append(len(values))
            return reprs(values)

        monkeypatch.setattr(dataio, "_reprs", counted)
        counts = []
        for formats in (("csv", "json"), ("csv",), ("json",)):
            rendered.clear()
            emit_report_files(report, tmp_path, formats)
            counts.append(sum(rendered))
        assert counts[0] == counts[1] + counts[2] - 2 * len(report.breakdowns)

    def test_payload_equals_per_breakdown_records(self, emitted):
        report, payload, _ = emitted
        assert (payload["pairs"], payload["candidates"]) == reference_records(report)
        for record in payload["pairs"] + payload["candidates"]:
            assert type(record["true_pair"]) is bool and type(record["type_mismatch"]) is bool

    def test_summary_and_svg_from_payload(self, emitted):
        report, payload, out = emitted
        if report.spec.object_count == 1:
            # One pair: no distinct pairs, so no far-pair mean.
            assert report.summary["mean_proximity_distinct_far_pairs"] is None
        assert report.summary == payload["summary"] == recount_summary(payload, report.threshold)
        assert (out / "scene.svg").read_text() == svg_from_payload(payload)

    def test_candidate_cells_index_the_ids(self, emitted):
        report, _, _ = emitted
        found, scores = report.candidates, report.breakdowns
        assert list(found.ids_a) == [scores.ids_a[i] for i in found.rows.tolist()]
        assert list(found.ids_b) == [scores.ids_b[j] for j in found.cols.tolist()]
        assert not (found.rows.flags.writeable or found.cols.flags.writeable)
        expected = sorted(zip(*np.nonzero(scores.aggregate_proximity > report.threshold)))
        assert sorted(zip(found.rows.tolist(), found.cols.tolist())) == expected
