import itertools
import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iomatch.fuzzy import (
    FuzzyMembership,
    apply_certainty,
    gaussian_membership,
    nominal_plateau,
    nominal_proximity,
    possibility,
    qualitative_distance,
    round_half_away,
    triangular_from_halfwidth,
    triangular_from_relative_error,
)
from iomatch.model import Certainty, IdentificationPowerWarning, MembershipShape

from oracles import grid_possibility, random_triangular, support_walk_possibility


class TestRounding:
    @pytest.mark.parametrize(
        "x,expected",
        [(4.8, 5), (19.2, 19), (4.5, 5), (3.5, 4), (-4.5, -5), (7.0, 7)],
    )
    def test_half_away_from_zero(self, x, expected):
        assert round_half_away(x) == expected


class TestTriangularConstruction:
    def test_relative_error_bounds(self):
        m = triangular_from_relative_error(1000.0, 0.3)
        assert (m.g_min, m.g_max) == (700.0, 1300.0)

    def test_rounded_bounds(self):
        m = triangular_from_relative_error(12.0, 0.6)
        assert (m.g_min, m.g_max) == (5.0, 19.0)

    def test_degenerate_support_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            triangular_from_relative_error(10.0, 0.01)

    @pytest.mark.parametrize("k", [0.0, 1.0, -0.2])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            triangular_from_relative_error(10.0, k)

    @pytest.mark.parametrize("build, center, width, message", [
        (triangular_from_halfwidth, 1e17, 2.0, "half-width 2.0 collapses the support of rank 1e+17 onto the rank itself"),
        (triangular_from_halfwidth, math.inf, 2.0, "the membership support of rank inf is not finite"),
        (triangular_from_halfwidth, 1e308, 1e308, "the membership support of rank 1e+308 is not finite"),
        (triangular_from_relative_error, 1e308, 0.9, "the membership support of rank 1e+308 is not finite"),
    ])
    def test_support_the_engine_rejects(self, build, center, width, message):
        """The engine's validation rules, through the one predicate: a
        collapsed support made possibility divide by zero, and a bound past
        the float range was kept or raised OverflowError."""
        with pytest.raises(ValueError) as raised:
            build(center, width)
        assert str(raised.value) == message

    def test_halfwidth_evaluation(self):
        m = triangular_from_halfwidth(5, 2)
        assert m.evaluate(5) == 1.0
        assert m.evaluate(6) == 0.5
        assert m.evaluate(7) == 0.0
        assert triangular_from_halfwidth(5, 2, height=0.6).evaluate(5) == 0.6

    def test_membership_equation_piecewise(self):
        m = triangular_from_relative_error(12.0, 0.6)  # support [5, 19]
        assert m.evaluate(5.0) == 0.0
        assert m.evaluate(8.5) == pytest.approx((8.5 - 5.0) / (12.0 - 5.0))
        assert m.evaluate(12.0) == 1.0
        assert m.evaluate(15.0) == pytest.approx((19.0 - 15.0) / (19.0 - 12.0))
        assert m.evaluate(19.0) == 0.0
        assert m.evaluate(25.0) == 0.0


class TestGaussianMembership:
    def test_closed_form_point(self):
        m = gaussian_membership(12.0, 3.0)
        assert m.evaluate(15) == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert m.evaluate(15) == pytest.approx(0.6065, abs=1e-4)

    def test_peak_and_tail(self):
        m = gaussian_membership(7.0, 2.0)
        assert m.evaluate(7.0) == 1.0
        assert m.evaluate(7.0 + 6 * 2.0) < 1e-7

    def test_non_positive_spread_rejected(self):
        with pytest.raises(ValueError):
            gaussian_membership(0.0, 0.0)

    @pytest.mark.parametrize("center, spread", [(1e308, 1.0), (-1e308, 1.0), (4.0, 1e308), (2.0**511, 1.0), (0.0, 2.0**511)])
    def test_rank_or_spread_past_the_crossing_range_rejected(self, center, spread):
        """The crossing squares a spread and a difference of two ranks: past
        2**511 either square overflows, which scored a Gaussian pair of
        spread 1e308 at its peaks (0.6065, not 0.8825) and made the grid walk
        raise OverflowError."""
        with pytest.raises(ValueError, match=r"Gaussian ranks and spreads must lie within 2\*\*511, got rank"):
            gaussian_membership(center, spread)

    def test_rank_and_spread_just_below_the_limit_accepted(self):
        below = math.nextafter(2.0**511, 0.0)
        assert gaussian_membership(-below, below).spread == below


class TestGaussianGridWalk:
    """The integer-grid walk runs between the two peaks only."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-50, 50) | st.floats(-50.0, 50.0),
        st.integers(-50, 50) | st.floats(-50.0, 50.0),
        st.floats(0.3, 17.5),
        st.floats(0.3, 17.5) | st.none(),
        st.sampled_from(list(Certainty)),
        st.sampled_from(list(Certainty)),
    )
    @example(3, 3, 1.0, None, Certainty.CERTAIN, Certainty.CERTAIN)
    @example(-50, 50, 0.3, 0.3, Certainty.DOUBTFUL, Certainty.CERTAIN)
    def test_equals_the_joint_support_walk(self, rank_a, rank_b, spread_a, spread_b, level_a, level_b):
        """Gaussian against Gaussian, or against a triangle of half-width
        ``spread_a`` where ``spread_b`` is None."""
        m1 = apply_certainty(gaussian_membership(float(rank_a), spread_a), level_a)
        m2 = apply_certainty(
            gaussian_membership(float(rank_b), spread_b) if spread_b else triangular_from_halfwidth(float(rank_b), spread_a),
            level_b,
        )
        assert possibility(m1, m2) == support_walk_possibility(m1, m2)
        assert possibility(m2, m1) == support_walk_possibility(m2, m1)

    def test_wide_spreads(self):
        """Spreads of 1e5 walk the 1e5 integers between the peaks, not the
        1.7e6 of the joint support; the equal spreads cross midway, at 50002."""
        m1, m2 = gaussian_membership(1e5, 1e5), gaussian_membership(4.0, 1e5)
        assert possibility(m1, m2) == m2.evaluate(50002) == m1.evaluate(50002)


class TestGaussianRankGap:
    """A Gaussian possibility is the max-min over integer g, so it never
    rises as an integer rank gap grows; between non-integer ranks it can."""

    def test_not_monotone_for_non_integer_ranks(self):
        m_a = gaussian_membership(4.692673615320359, 1.8990958449811497)
        near, far = (possibility(m_a, gaussian_membership(rank_b, 0.3098718857983298)) for rank_b in (4.8745, 4.9650))
        assert near == pytest.approx(0.92126, abs=5e-6)
        assert far == pytest.approx(0.98699, abs=5e-6)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-1000, 1000),
        st.integers(0, 40),
        st.integers(1, 40),
        st.sampled_from([-1, 1]),
        st.floats(0.3, 20.0),
        st.floats(0.3, 20.0),
        st.sampled_from(list(Certainty)),
        st.sampled_from(list(Certainty)),
    )
    def test_monotone_in_the_integer_rank_gap(self, rank_a, gap, further, side, spread_a, spread_b, level_a, level_b):
        m_a = apply_certainty(gaussian_membership(float(rank_a), spread_a), level_a)

        def at(g):
            return possibility(m_a, apply_certainty(gaussian_membership(float(rank_a + side * g), spread_b), level_b))

        assert at(gap + further) <= at(gap)


class TestApplyCertainty:
    def test_certain_unchanged(self):
        m = triangular_from_halfwidth(5, 2)
        assert apply_certainty(m, Certainty.CERTAIN) == m

    def test_probable_scales_peak(self):
        m = triangular_from_relative_error(1000.0, 0.3)
        scaled = apply_certainty(m, Certainty.PROBABLE)
        assert scaled.height == pytest.approx(0.7)
        assert (scaled.g_min, scaled.g_max, scaled.peak) == (m.g_min, m.g_max, m.peak)

    def test_doubtful(self):
        m = gaussian_membership(3.0, 1.0)
        assert apply_certainty(m, Certainty.DOUBTFUL).height == pytest.approx(0.25)


class TestPossibility:
    def test_triangular_fixture(self):
        m1 = triangular_from_relative_error(12.0, 0.6)
        m2 = triangular_from_relative_error(18.0, 0.6)
        assert possibility(m1, m2) == pytest.approx(0.667, abs=0.005)

    def test_gaussian_fixture_integer_grid(self):
        m1 = gaussian_membership(12.0, 3.0)
        m2 = gaussian_membership(18.0, 3.0)
        # Max-min lands on the midpoint rank 15.
        assert possibility(m1, m2) == pytest.approx(0.6065, abs=0.005)

    def test_gaussian_built_directly_takes_the_integer_grid(self):
        """The shape alone decides the rule: a Gaussian built without
        ``gaussian_membership`` scores as one built with it (it raised
        TypeError), and a triangle keeps the exact piecewise rule."""
        direct = FuzzyMembership(MembershipShape.GAUSSIAN, peak=3.0, spread=1.0)
        triangle = triangular_from_halfwidth(4.0, 2.0)
        assert possibility(direct, triangle) == possibility(gaussian_membership(3.0, 1.0), triangle) == 0.6065306597126334
        assert possibility(direct, direct) == 1.0
        assert possibility(triangle, triangular_from_halfwidth(5.5, 2.0)) == 0.625

    def test_identical_certain_sets(self):
        m = triangular_from_halfwidth(4.0, 2.0)
        assert possibility(m, m) == 1.0
        assert qualitative_distance(possibility(m, m)) == 0.0

    def test_disjoint_supports(self):
        m1 = triangular_from_halfwidth(0.0, 1.0)
        m2 = triangular_from_halfwidth(10.0, 1.0)
        assert possibility(m1, m2) == 0.0

    @pytest.mark.parametrize("gap,expected", [(1, 0.75), (2, 0.5), (3, 0.25)])
    def test_rank_lattice_closed_form(self, gap, expected):
        m1 = triangular_from_halfwidth(5.0, 2.0)
        m2 = triangular_from_halfwidth(5.0 + gap, 2.0)
        assert possibility(m1, m2) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("gap,expected", [(1, 0.5625), (2, 0.375)])
    def test_certainty_scaled_crossings(self, gap, expected):
        m1 = triangular_from_halfwidth(5.0, 2.0, height=0.6)
        m2 = triangular_from_halfwidth(5.0 + gap, 2.0)
        assert possibility(m1, m2) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("center_b, width_b, expected", [
        (1e15 + 1.0, 2.0, 0.6176470588235294),
        (1e15 + 1.125, 3.0, 0.6164772727272727),
    ])
    def test_crossing_between_two_floats(self, center_b, width_b, expected):
        """At rank 1e15 floats are 0.125 apart, so the crossing of two edges
        is rounded; the height read there was 0.6124999999999999 for both.
        The expected heights are the crossings' exact values, rounded once."""
        m1 = triangular_from_halfwidth(1e15, 2.0)
        m2 = triangular_from_halfwidth(center_b, width_b, height=0.7)
        assert possibility(m1, m2) == possibility(m2, m1) == expected

    def test_symmetry_exact_on_random_pairs(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            m1, m2 = random_triangular(rng), random_triangular(rng)
            assert possibility(m1, m2) == possibility(m2, m1)

    def test_bounded_by_peak_heights(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m1, m2 = random_triangular(rng), random_triangular(rng)
            assert possibility(m1, m2) <= min(m1.height, m2.height) + 1e-12

    def test_certainty_monotonicity(self):
        rng = np.random.default_rng(17)
        levels = [Certainty.CERTAIN, Certainty.PROBABLE, Certainty.POSSIBLE, Certainty.DOUBTFUL]
        for _ in range(50):
            m1, m2 = random_triangular(rng), random_triangular(rng)
            results = [possibility(apply_certainty(m1, lvl), m2) for lvl in levels]
            assert all(a >= b - 1e-12 for a, b in zip(results, results[1:]))

    def test_dense_grid_oracle(self):
        rng = np.random.default_rng(20240612)
        for _ in range(50):
            m1, m2 = random_triangular(rng), random_triangular(rng)
            assert possibility(m1, m2) == pytest.approx(grid_possibility(m1, m2), abs=1e-3)

    def test_triangle_inequality_on_rank_lattice(self):
        for w in (1.0, 2.0, 3.0):
            memberships = {r: triangular_from_halfwidth(float(r), w) for r in range(11)}
            distance = {}
            for a in range(11):
                for b in range(11):
                    distance[a, b] = 1.0 - possibility(memberships[a], memberships[b])
            for a, b, c in itertools.product(range(11), repeat=3):
                assert distance[a, c] <= distance[a, b] + distance[b, c] + 1e-12

    def test_plateau_pairs(self):
        same = possibility(nominal_plateau("tank", 0.1), nominal_plateau("tank", 0.1))
        assert same == 1.0
        different = possibility(nominal_plateau("tank", 0.1), nominal_plateau("truck", 0.1))
        assert different == pytest.approx(0.1)

    def test_mixed_axes_rejected(self):
        with pytest.raises(ValueError, match="incompatible axes"):
            possibility(nominal_plateau("tank", 0.1), triangular_from_halfwidth(1.0, 1.0))


class TestNominalProximity:
    def test_match_and_mismatch(self):
        assert nominal_proximity("tank", "tank", 0.1) == 1.0
        assert nominal_proximity("tank", "truck", 0.1) == 0.1

    @pytest.mark.parametrize("delta", [0.0, 0.6, 1.0, -0.1])
    def test_delta_out_of_range(self, delta):
        with pytest.raises(ValueError):
            nominal_proximity("a", "b", delta)

    def test_half_delta_warns(self):
        with pytest.warns(IdentificationPowerWarning):
            assert nominal_proximity("a", "b", 0.5) == 0.5

    def test_plateau_equivalence(self):
        # The short-circuit rule equals the max-min of the plateau memberships.
        for delta in (0.1, 0.3, 0.5):
            p1 = nominal_plateau("a", delta)
            p2 = nominal_plateau("b", delta)
            with pytest.warns(IdentificationPowerWarning) if delta == 0.5 else nullcontext():
                assert nominal_proximity("a", "b", delta) == possibility(p1, p2)
                assert nominal_proximity("a", "a", delta) == possibility(p1, p1)


class TestQualitativeDistance:
    @pytest.mark.parametrize("p,expected", [(0.75, 0.25), (1.0, 0.0), (0.56, 0.44)])
    def test_complement(self, p, expected):
        assert qualitative_distance(p) == pytest.approx(expected)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            qualitative_distance(1.5)
