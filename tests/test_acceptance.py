"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines interleaved with pytest's own output.
"""

import functools
import itertools

import numpy as np
import pytest

from iomatch.engine import candidates
from iomatch.fuzzy import (
    gaussian_membership,
    nominal_proximity,
    possibility,
    triangular_from_halfwidth,
    triangular_from_relative_error,
)
from iomatch.aggregate import multiplicative_proximity
from iomatch.quant import (
    NormalErrorModel,
    confidence_coefficient,
    interval_probability,
    joint_overlap_probability,
    quantitative_distance,
)
from iomatch.simulate import SceneSpec, emit_report_files, run_experiment

from oracles import grid_possibility, mc_interval_probability, random_triangular

NOMINAL_CAP = 0.1 ** 0.5

COARSE_SPEC = SceneSpec(object_count=20, rmse=(20.0, 30.0), rng_seed=7)
PRECISE_SPEC = SceneSpec(object_count=20, rmse=(10.0, 15.0), rng_seed=7)


@pytest.fixture(scope="module")
def coarse_report():
    return run_experiment(COARSE_SPEC)


@pytest.fixture(scope="module")
def precise_report():
    return run_experiment(PRECISE_SPEC)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        return wrapper

    return decorate


@criterion(1, "interval probabilities for (12, sigma 3) and (18, sigma 2) over [12, 21]")
def test_c01_interval_probabilities():
    assert interval_probability(NormalErrorModel(12, 3), 12, 21) == pytest.approx(0.499, abs=1e-3)
    assert interval_probability(NormalErrorModel(18, 2), 12, 21) == pytest.approx(0.932, abs=1e-3)
    joint = joint_overlap_probability(NormalErrorModel(12, 3), NormalErrorModel(18, 2))
    assert joint == pytest.approx(0.465, abs=1e-3)


@criterion(2, "distances 0.13/0.75/0.13 for 12/15/18 at sigma 2; triangle inequality violated")
def test_c02_metric_distances():
    x1, x2, x3 = (NormalErrorModel(v, 2) for v in (12, 15, 18))
    d12 = quantitative_distance(x1, x2)
    d13 = quantitative_distance(x1, x3)
    d23 = quantitative_distance(x2, x3)
    assert d12 == pytest.approx(0.13, abs=0.01)
    assert d13 == pytest.approx(0.75, abs=0.01)
    assert d23 == pytest.approx(0.13, abs=0.01)
    assert d13 > d12 + d23


@criterion(3, "confidence coefficients at xi=3 for sigmas (2,2), (1,1), (1,2)")
def test_c03_confidence_coefficients():
    assert confidence_coefficient(2, 2, 3) == pytest.approx(0.87, abs=0.01)
    assert confidence_coefficient(1, 1, 3) == pytest.approx(0.9973, abs=1e-3)
    assert confidence_coefficient(1, 2, 3) == pytest.approx(0.93, abs=0.01)


@criterion(4, "triangular fixture possibility 0.667 and Gaussian grid fixture 0.6065")
def test_c04_fuzzy_fixtures():
    m1 = triangular_from_relative_error(12.0, 0.6)
    m2 = triangular_from_relative_error(18.0, 0.6)
    assert possibility(m1, m2) == pytest.approx(0.667, abs=0.005)
    g1 = gaussian_membership(12.0, 3.0)
    g2 = gaussian_membership(18.0, 3.0)
    assert possibility(g1, g2) == pytest.approx(0.6065, abs=0.005)
    assert g1.evaluate(15) == pytest.approx(0.6065, abs=0.005)


@criterion(5, "rank-lattice possibilities 0.75/0.5/0.25 and triangle inequality on 0..10")
def test_c05_ordinal_lattice():
    for gap, expected in ((1, 0.75), (2, 0.5), (3, 0.25)):
        p = possibility(
            triangular_from_halfwidth(4.0, 2.0), triangular_from_halfwidth(4.0 + gap, 2.0)
        )
        assert p == pytest.approx(expected, abs=1e-12)
    memberships = {r: triangular_from_halfwidth(float(r), 2.0) for r in range(11)}
    distance = {
        (a, b): 1.0 - possibility(memberships[a], memberships[b])
        for a in range(11)
        for b in range(11)
    }
    for a, b, c in itertools.product(range(11), repeat=3):
        assert distance[a, c] <= distance[a, b] + distance[b, c] + 1e-12


@criterion(6, "certainty-scaled crossings 0.5625 and 0.375 via exact segment intersection")
def test_c06_scaled_crossings():
    scaled = triangular_from_halfwidth(5.0, 2.0, height=0.6)
    assert possibility(scaled, triangular_from_halfwidth(6.0, 2.0)) == pytest.approx(
        0.5625, abs=1e-9
    )
    assert possibility(scaled, triangular_from_halfwidth(7.0, 2.0)) == pytest.approx(
        0.375, abs=1e-9
    )


@criterion(7, "nominal proximity: match 1, mismatch delta, delta range enforced")
def test_c07_nominal():
    assert nominal_proximity("tank", "tank", 0.1) == 1.0
    assert nominal_proximity("tank", "truck", 0.1) == 0.1
    for bad in (0.0, 0.6, -0.1, 1.0):
        with pytest.raises(ValueError):
            nominal_proximity("tank", "truck", bad)


@criterion(8, "multiplicative convolution: zero propagation, min bound, nominal cap")
def test_c08_multiplicative(coarse_report, precise_report):
    assert multiplicative_proximity([0.9, 0.0], [0.5, 0.5]) == 0.0
    assert multiplicative_proximity([0.0, 1.0, 1.0]) == 0.0
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        values = rng.uniform(0.0, 1.0, int(rng.integers(1, 7))).tolist()
        assert multiplicative_proximity(values) <= min(values) + 1e-12
    for report in (coarse_report, precise_report):
        mismatched = report.breakdowns.aggregate_proximity[report.type_mismatch]
        assert mismatched.size, "simulation fixture should contain type-mismatched pairs"
        assert (mismatched <= NOMINAL_CAP + 1e-12).all()


@criterion(9, "Monte-Carlo and dense-grid oracles agree with the exact computations")
def test_c09_oracles():
    rng = np.random.default_rng(20240511)
    for _ in range(20):
        mean = float(rng.uniform(-10, 10))
        sigma = float(rng.uniform(0.5, 5.0))
        lo, hi = sorted(rng.uniform(mean - 4 * sigma, mean + 4 * sigma, 2))
        exact = interval_probability(NormalErrorModel(mean, sigma), lo, hi)
        assert abs(exact - mc_interval_probability(rng, mean, sigma, lo, hi)) <= 0.003
    rng = np.random.default_rng(20240612)
    for _ in range(50):
        m1, m2 = random_triangular(rng), random_triangular(rng)
        assert possibility(m1, m2) == pytest.approx(grid_possibility(m1, m2), abs=1e-3)


@criterion(10, "precision effect: sigma ordering, corrected coincidence, monotone growth")
def test_c10_precision_effect():
    separations = list(range(13))
    for sigma in (1.0, 2.0):
        dists = [
            quantitative_distance(NormalErrorModel(0, sigma), NormalErrorModel(sep, sigma))
            for sep in separations
        ]
        assert all(d2 >= d1 for d1, d2 in zip(dists, dists[1:]))
    for sep in separations[1:]:
        d1 = quantitative_distance(NormalErrorModel(0, 1), NormalErrorModel(sep, 1))
        d2 = quantitative_distance(NormalErrorModel(0, 2), NormalErrorModel(sep, 2))
        assert d1 >= d2
    precise = NormalErrorModel(0, 1)
    coarse = NormalErrorModel(0, 2)
    assert quantitative_distance(precise, precise, xi=3.0) < quantitative_distance(
        coarse, coarse, xi=3.0
    )


@criterion(11, "simulation precision contrast and byte-deterministic outputs per seed")
def test_c11_simulation_comparison(coarse_report, precise_report, tmp_path):
    assert (
        precise_report.summary["mean_proximity_true_pairs"]
        > coarse_report.summary["mean_proximity_true_pairs"]
    )
    assert (
        precise_report.summary["mean_proximity_distinct_far_pairs"]
        < coarse_report.summary["mean_proximity_distinct_far_pairs"]
    )
    emit_report_files(run_experiment(COARSE_SPEC), tmp_path / "one")
    emit_report_files(run_experiment(COARSE_SPEC), tmp_path / "two")
    for name in ("objects_s1.csv", "objects_s2.csv", "pairs.csv", "report.json", "scene.svg"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    # Candidate filtering at the 0.01 default matches the thresholded pair columns.
    scores = coarse_report.breakdowns
    rows, cols = np.nonzero(scores.aggregate_proximity > coarse_report.threshold)
    expected = {(scores.ids_a[i], scores.ids_b[j]) for i, j in zip(rows, cols)}
    assert {b.pair for b in candidates(coarse_report.breakdowns, 0.01)} == expected
