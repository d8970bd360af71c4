import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iomatch.quant import (
    NormalErrorModel,
    confidence_coefficient,
    interval_probability,
    joint_overlap_probability,
    laplace_function,
    overlap_interval,
    quantitative_distance,
    quantitative_proximity,
    sigma_from_max_error,
    standard_normal_cdf,
)

from oracles import mc_interval_probability

TWO_PHI_3 = 2.0 * laplace_function(3.0)  # three-sigma central mass, ~0.9973

values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
sigmas = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestSigmaFromMaxError:
    def test_formula(self):
        assert sigma_from_max_error(3.0) == 1.0
        assert sigma_from_max_error(60.0) == 20.0

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError):
            sigma_from_max_error(bad)


class TestIntervalProbability:
    def test_worked_example(self):
        assert interval_probability(NormalErrorModel(12, 3), 12, 21) == pytest.approx(0.499, abs=1e-3)
        assert interval_probability(NormalErrorModel(18, 2), 12, 21) == pytest.approx(0.932, abs=1e-3)

    def test_three_sigma_mass(self):
        m = NormalErrorModel(5.0, 1.7)
        assert interval_probability(m, 5.0 - 3 * 1.7, 5.0 + 3 * 1.7) == pytest.approx(0.9973, abs=1e-4)

    def test_zero_width(self):
        assert interval_probability(NormalErrorModel(0, 1), 2.0, 2.0) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            interval_probability(NormalErrorModel(0, 1), 1.0, -1.0)

    def test_overlap_end_further_than_the_float_range_from_the_value(self):
        """-1.5e308 - 1.7e308 overflows: that end's Phi read Phi(-inf) = 0,
        not Phi(-3.2), as the ends are standardized apart."""
        got = interval_probability(NormalErrorModel(1.7e308, 1e308), -1.5e308, 1.5e308)
        assert got == pytest.approx(standard_normal_cdf(-0.2) - standard_normal_cdf(-3.2), abs=1e-15)

    def test_cdf_accuracy_against_known_points(self):
        # Reference values to 10 decimals (Abramowitz & Stegun style table).
        assert standard_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
        assert standard_normal_cdf(1.0) == pytest.approx(0.8413447461, abs=1e-9)
        assert standard_normal_cdf(-1.96) == pytest.approx(0.0249978951, abs=1e-9)
        assert standard_normal_cdf(3.0) == pytest.approx(0.9986501020, abs=1e-9)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(20240511)
        for _ in range(20):
            mean = float(rng.uniform(-10, 10))
            sigma = float(rng.uniform(0.5, 5.0))
            lo, hi = sorted(rng.uniform(mean - 4 * sigma, mean + 4 * sigma, 2))
            exact = interval_probability(NormalErrorModel(mean, sigma), lo, hi)
            estimate = mc_interval_probability(rng, mean, sigma, lo, hi)
            assert abs(exact - estimate) <= 0.003


class TestOverlapInterval:
    def test_worked_example(self):
        iv = overlap_interval(NormalErrorModel(12, 3), NormalErrorModel(18, 2))
        assert (iv.c, iv.d) == (12.0, 21.0)

    def test_self_intersection(self):
        iv = overlap_interval(NormalErrorModel(7, 1.5), NormalErrorModel(7, 1.5))
        assert (iv.c, iv.d) == (7 - 4.5, 7 + 4.5)

    def test_disjoint(self):
        assert overlap_interval(NormalErrorModel(0, 1), NormalErrorModel(100, 1)) is None


class TestJointOverlapProbability:
    def test_worked_example(self):
        p = joint_overlap_probability(NormalErrorModel(12, 3), NormalErrorModel(18, 2))
        assert p == pytest.approx(0.465, abs=1e-3)

    def test_disjoint_is_zero(self):
        assert joint_overlap_probability(NormalErrorModel(0, 1), NormalErrorModel(100, 1)) == 0.0

    def test_identical_models_match_monte_carlo(self):
        a = NormalErrorModel(4.0, 2.0)
        exact = joint_overlap_probability(a, a)
        assert exact == pytest.approx(TWO_PHI_3 ** 2, abs=1e-12)
        rng = np.random.default_rng(7)
        c, d = a.window
        factor_i = mc_interval_probability(rng, a.value, a.sigma, c, d)
        factor_j = mc_interval_probability(rng, a.value, a.sigma, c, d)
        assert exact == pytest.approx(factor_i * factor_j, abs=1e-3)


class TestConfidenceCoefficient:
    def test_printed_values(self):
        assert confidence_coefficient(2, 2, 3) == pytest.approx(0.87, abs=0.01)
        assert confidence_coefficient(1, 1, 3) == pytest.approx(0.9973, abs=1e-3)
        assert confidence_coefficient(1, 2, 3) == pytest.approx(0.93, abs=0.01)

    def test_reduces_to_single_mass_for_equal_sigmas(self):
        assert confidence_coefficient(2, 2, 3) == pytest.approx(2 * laplace_function(1.5), abs=1e-12)

    @pytest.mark.parametrize("args", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_non_positive_rejected(self, args):
        with pytest.raises(ValueError):
            confidence_coefficient(*args)


class TestQuantitativeProximity:
    def test_known_distances_equal_sigma(self):
        x1 = NormalErrorModel(12, 2)
        x2 = NormalErrorModel(15, 2)
        x3 = NormalErrorModel(18, 2)
        assert quantitative_distance(x1, x2) == pytest.approx(0.13, abs=0.01)
        assert quantitative_distance(x1, x3) == pytest.approx(0.75, abs=0.01)
        assert quantitative_distance(x2, x3) == pytest.approx(0.13, abs=0.01)

    def test_triangle_inequality_violated(self):
        x1 = NormalErrorModel(12, 2)
        x2 = NormalErrorModel(15, 2)
        x3 = NormalErrorModel(18, 2)
        d13 = quantitative_distance(x1, x3)
        assert d13 > quantitative_distance(x1, x2) + quantitative_distance(x2, x3)

    def test_corrected_identical_pair(self):
        a = NormalErrorModel(42.0, 1.0)
        closed_form = 1.0 - TWO_PHI_3 ** 2 * TWO_PHI_3
        assert quantitative_distance(a, a, xi=3.0) == pytest.approx(closed_form, abs=1e-12)
        assert quantitative_distance(a, a, xi=3.0) == pytest.approx(0.008, abs=0.002)

    def test_raw_identical_residual_bound(self):
        a = NormalErrorModel(-3.0, 0.7)
        assert quantitative_distance(a, a) <= (1.0 - TWO_PHI_3 ** 2) + 1e-3

    def test_empty_overlap_distance_is_one(self):
        assert quantitative_distance(NormalErrorModel(0, 1), NormalErrorModel(100, 1)) == 1.0

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            NormalErrorModel(1.0, 0.0)

    @pytest.mark.parametrize("value, sigma, shown", [(1e16, 1e-3, "1e+16"), (1.7e308, 1.0, "1.7e+308"),
                                                     (-1e16, 1e-3, "-1e+16")])
    def test_window_collapsed_onto_the_value_rejected(self, value, sigma, shown):
        """The window rounds onto the value, so two identical reports met in an
        empty overlap and scored a silent 0.0."""
        message = f"sigma {sigma} collapses the three-sigma window of {shown} onto the value itself"
        with pytest.raises(ValueError, match=f"^{message}$".replace("+", r"\+")):
            NormalErrorModel(value, sigma)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_value_must_be_finite(self, value):
        with pytest.raises(ValueError, match="^value must be finite"):
            NormalErrorModel(value, 1.0)

    def test_window_overflowing_to_infinity_kept(self):
        a, b = NormalErrorModel(1e308, 5e307), NormalErrorModel(1.5e308, 5e307)
        assert a.window[1] == math.inf
        assert 0.0 < quantitative_proximity(a, b) < 1.0

    def test_moving_one_ulp_away_can_round_up(self):
        """Monotonicity in the separation holds to rounding only: the
        difference of two erf values rounds, so one ulp farther can score
        a few ulps higher.  The properties allow 1e-12 for it."""
        a = NormalErrorModel(2.0, 2.5)
        near = quantitative_proximity(a, NormalErrorModel(3.0, 0.3))
        far = quantitative_proximity(a, NormalErrorModel(math.nextafter(3.0, math.inf), 0.3))
        assert math.nextafter(3.0, math.inf) == 3.0000000000000004
        assert (near, far) == (0.25971619178771094, 0.25971619178771105)
        assert far - near < 1e-12

    @given(x1=values, x2=values, s1=sigmas, s2=sigmas)
    def test_symmetry_exact(self, x1, x2, s1, s2):
        a, b = NormalErrorModel(x1, s1), NormalErrorModel(x2, s2)
        assert quantitative_proximity(a, b) == quantitative_proximity(b, a)
        assert quantitative_proximity(a, b, xi=3.0) == quantitative_proximity(b, a, xi=3.0)

    @given(x1=values, x2=values, s1=sigmas, s2=sigmas,
           xi=st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e3)))
    def test_range(self, x1, x2, s1, s2, xi):
        p = quantitative_proximity(NormalErrorModel(x1, s1), NormalErrorModel(x2, s2), xi)
        assert 0.0 <= p <= 1.0
        assert 0.0 <= 1.0 - p <= 1.0


SEPARATION_GRID = [0.5 * k for k in range(13)]  # multiples of sigma up to 6 sigma


class TestPrecisionEffects:
    def test_distance_non_decreasing_in_separation(self):
        for sigma in (1.0, 2.0):
            dists = [
                quantitative_distance(NormalErrorModel(0, sigma), NormalErrorModel(sep * sigma, sigma))
                for sep in SEPARATION_GRID
            ]
            assert all(d2 >= d1 for d1, d2 in zip(dists, dists[1:]))

    def test_smaller_sigma_gives_larger_distance(self):
        for sep in SEPARATION_GRID[1:]:
            d_precise = quantitative_distance(NormalErrorModel(0, 1), NormalErrorModel(sep, 1))
            d_coarse = quantitative_distance(NormalErrorModel(0, 2), NormalErrorModel(sep, 2))
            assert d_precise >= d_coarse

    def test_corrected_coincidence_prefers_precise_pair(self):
        precise = NormalErrorModel(10.0, 1.0)
        coarse = NormalErrorModel(10.0, 2.0)
        assert quantitative_distance(precise, precise, xi=3.0) < quantitative_distance(
            coarse, coarse, xi=3.0
        )

    def test_raw_coincidence_identical_across_sigmas(self):
        # The drawback the confidence coefficient exists to fix.
        d1 = quantitative_distance(NormalErrorModel(0, 1), NormalErrorModel(0, 1))
        d2 = quantitative_distance(NormalErrorModel(0, 2), NormalErrorModel(0, 2))
        assert d1 == pytest.approx(d2, abs=1e-12)
