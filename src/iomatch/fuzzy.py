"""Possibility-based proximity between qualitative feature values.

Ordinal values are formalized as fuzzy sets (triangular or Gaussian membership
functions over the rank axis); the proximity of two values is the possibility
that both reports describe one value, i.e. the supremum of the pointwise
minimum of the two membership functions.  Nominal values short-circuit to a
two-level rule driven by the determination error delta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from .model import Certainty, MembershipShape, MAX_NOMINAL_DELTA

# Beyond this many spreads from the peak a Gaussian membership is below 2e-16
# and cannot influence a max-min search.
_GAUSSIAN_SPAN = 8.5
# Gaussian ranks and spreads must lie below this magnitude: the crossing of
# two memberships squares a spread and a difference of two ranks, and below
# it neither square passes the float range.
GAUSSIAN_LIMIT = 2.0**511


def gaussian_within_range(rank, spread):
    """Whether Gaussian memberships of ``rank`` under ``spread`` can be
    intersected: both of magnitude below ``GAUSSIAN_LIMIT``.  Elementwise
    for arrays."""
    return (abs(rank) < GAUSSIAN_LIMIT) & (spread < GAUSSIAN_LIMIT)


def gaussian_violation(rank, spread: float) -> str | None:
    """The message for a Gaussian rank and spread outside
    :func:`gaussian_within_range`, or None."""
    if gaussian_within_range(rank, spread):
        return None
    return f"Gaussian ranks and spreads must lie within 2**511, got rank {rank} under spread {spread}"


def triangular_support_holds(g_min, rank, g_max):
    """Whether a triangular support ``[g_min, g_max]`` is finite and holds
    ``rank`` strictly inside, so that both edges of the membership have a
    width to rise and fall over.  Elementwise for arrays."""
    return (-math.inf < g_min) & (g_min < rank) & (rank < g_max) & (g_max < math.inf)


def triangular_violation(g_min, rank, g_max, collapsed: str) -> str:
    """The message for a support of ``rank`` that fails
    :func:`triangular_support_holds`: ``collapsed`` where both bounds are
    finite."""
    if math.isfinite(g_min) and math.isfinite(g_max):
        return collapsed
    return f"the membership support of rank {rank} is not finite"


class IdentificationPowerWarning(UserWarning):
    """A nominal determination error of 0.5 cannot separate match from mismatch."""


def round_half_away(x: float) -> int:
    """ROUND to the nearest integer, halves away from zero."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


@dataclass(frozen=True)
class FuzzyMembership:
    """A membership function over a feature's value axis.

    Triangular functions carry a finite support [g_min, g_max] with a single
    peak; Gaussian functions carry a spread and, by convention, intersect on
    the integer grid (the shape alone decides the rule); nominal plateaus sit
    on a label axis with a constant off-peak level.
    """

    shape: MembershipShape
    peak: float | str
    height: float = 1.0
    g_min: float | None = None
    g_max: float | None = None
    spread: float | None = None
    plateau: float | None = None

    def __post_init__(self):
        if not 0.0 < self.height <= 1.0:
            raise ValueError(f"peak height must lie in (0, 1], got {self.height}")

    def evaluate(self, g) -> float:
        """Membership degree of ``g``, scaled by the peak height."""
        if self.shape is MembershipShape.TRIANGULAR:
            if g <= self.g_min or g >= self.g_max:
                return 0.0
            if g == self.peak:
                return self.height
            if g < self.peak:
                return self.height * (g - self.g_min) / (self.peak - self.g_min)
            return self.height * (self.g_max - g) / (self.g_max - self.peak)
        if self.shape is MembershipShape.GAUSSIAN:
            z = (g - self.peak) / self.spread
            return self.height * math.exp(-0.5 * z * z)
        return self.height if g == self.peak else self.height * self.plateau

    @property
    def support(self) -> tuple[float, float]:
        """Interval outside which the function is (numerically) zero."""
        if self.shape is MembershipShape.TRIANGULAR:
            return (self.g_min, self.g_max)
        if self.shape is MembershipShape.GAUSSIAN:
            return (self.peak - _GAUSSIAN_SPAN * self.spread, self.peak + _GAUSSIAN_SPAN * self.spread)
        raise ValueError("nominal plateaus have no numeric support")


def triangular_from_relative_error(center: float, k: float, height: float = 1.0) -> FuzzyMembership:
    """Triangular membership with bounds ROUND(center*(1-k)), ROUND(center*(1+k)).

    ``k`` grows with the perceived determination error of the source.
    Raises ValueError where the support is not finite (a bound past the
    float range stays infinite) or the rounded bounds collapse onto the
    center (see :func:`triangular_support_holds`).
    """
    if not 0.0 < k < 1.0:
        raise ValueError(f"relative error coefficient must lie in (0, 1), got {k}")
    g_min, g_max = (
        float(round_half_away(x)) if math.isfinite(x) else x for x in (center * (1.0 - k), center * (1.0 + k))
    )
    if not triangular_support_holds(g_min, center, g_max):
        collapsed = f"degenerate support: rounded bounds [{g_min}, {g_max}] collapse onto {center}"
        raise ValueError(triangular_violation(g_min, center, g_max, collapsed))
    return FuzzyMembership(
        MembershipShape.TRIANGULAR, peak=center, height=height, g_min=g_min, g_max=g_max
    )


def triangular_from_halfwidth(center: float, half_width: float, height: float = 1.0) -> FuzzyMembership:
    """Symmetric triangular membership with support [center-w, center+w].

    Raises ValueError where that support is not finite or lies within the
    center's float spacing (see :func:`triangular_support_holds`)."""
    if not half_width > 0.0:
        raise ValueError(f"half-width must be strictly positive, got {half_width}")
    g_min, g_max = center - half_width, center + half_width
    if not triangular_support_holds(g_min, center, g_max):
        collapsed = f"half-width {half_width} collapses the support of rank {center} onto the rank itself"
        raise ValueError(triangular_violation(g_min, center, g_max, collapsed))
    return FuzzyMembership(MembershipShape.TRIANGULAR, peak=center, height=height, g_min=g_min, g_max=g_max)


def gaussian_membership(center: float, spread: float, height: float = 1.0) -> FuzzyMembership:
    """Gaussian membership; intersections are evaluated on the integer grid.

    Raises ValueError for a spread that is not positive, and for a center or
    spread beyond ``GAUSSIAN_LIMIT`` (see :func:`gaussian_violation`)."""
    if not spread > 0.0:
        raise ValueError(f"spread must be strictly positive, got {spread}")
    violation = gaussian_violation(center, spread)
    if violation is not None:
        raise ValueError(violation)
    return FuzzyMembership(MembershipShape.GAUSSIAN, peak=center, height=height, spread=spread)


def nominal_plateau(label: str, delta: float, height: float = 1.0) -> FuzzyMembership:
    """Membership over a label axis: full at the reported label, delta elsewhere."""
    _check_delta(delta)
    return FuzzyMembership(MembershipShape.NOMINAL_PLATEAU, peak=label, height=height, plateau=delta)


def apply_certainty(m: FuzzyMembership, level: Certainty) -> FuzzyMembership:
    """Scale the peak height by the certainty's numeric value; shape unchanged."""
    return replace(m, height=m.height * level.value)


def _segments(m: FuzzyMembership) -> list[tuple[float, float, float, float]]:
    """Linear pieces of a triangular membership as (a, b, slope, intercept)."""
    up_slope = m.height / (m.peak - m.g_min)
    down_slope = -m.height / (m.g_max - m.peak)
    return [
        (m.g_min, m.peak, up_slope, -up_slope * m.g_min),
        (m.peak, m.g_max, down_slope, m.height - down_slope * m.peak),
    ]


def _possibility_piecewise(m1: FuzzyMembership, m2: FuzzyMembership) -> float:
    # Exact: the max of min(mu1, mu2) is attained at a breakpoint of either
    # function or at a crossing of two linear pieces.
    candidates = [m1.g_min, m1.peak, m1.g_max, m2.g_min, m2.peak, m2.g_max]
    for a1, b1, k1, c1 in _segments(m1):
        for a2, b2, k2, c2 in _segments(m2):
            lo, hi = max(a1, a2), min(b1, b2)
            if lo > hi or k1 == k2:
                continue
            g = (c2 - c1) / (k1 - k2)
            if lo <= g <= hi:
                candidates.append(g)
    return max(min(m1.evaluate(g), m2.evaluate(g)) for g in candidates)


def _possibility_grid(m1: FuzzyMembership, m2: FuzzyMembership) -> float:
    # Below the lower peak both memberships rise and above the higher one both
    # fall, so the integer maximum of their min lies from the floor of the
    # one peak to the ceil of the other.  Between the peaks the left one
    # falls and the right one rises, so the integers where the left is at
    # least the right run from the lower end: there the min rises, after them
    # it falls.  A bisection finds the run's last integer.
    left, right = sorted((m1, m2), key=lambda m: m.peak)
    lo, hi = math.ceil(left.peak), math.floor(right.peak)
    while lo <= hi:
        mid = (lo + hi) // 2
        if left.evaluate(mid) >= right.evaluate(mid):
            lo = mid + 1
        else:
            hi = mid - 1
    grid = {math.floor(left.peak), math.ceil(left.peak), hi, hi + 1, math.floor(right.peak), math.ceil(right.peak)}
    return max(min(m1.evaluate(g), m2.evaluate(g)) for g in grid)


def possibility(m1: FuzzyMembership, m2: FuzzyMembership) -> float:
    """Possibility that two fuzzified reports describe one value: sup min(mu1, mu2).

    Piecewise-linear pairs are solved exactly via segment intersection;
    pairs involving a Gaussian use the integer-grid convention.
    """
    plateau1 = m1.shape is MembershipShape.NOMINAL_PLATEAU
    plateau2 = m2.shape is MembershipShape.NOMINAL_PLATEAU
    if plateau1 != plateau2:
        raise ValueError("incompatible axes: cannot intersect a label set with a numeric set")
    if plateau1:
        if m1.peak == m2.peak:
            return min(m1.height, m2.height)
        return max(
            min(m1.height, m2.height * m2.plateau),
            min(m1.height * m1.plateau, m2.height),
        )
    if MembershipShape.GAUSSIAN in (m1.shape, m2.shape):
        return _possibility_grid(m1, m2)
    return _possibility_piecewise(m1, m2)


def _check_delta(delta: float) -> None:
    if not 0.0 < delta <= MAX_NOMINAL_DELTA:
        raise ValueError(f"delta {delta} outside (0, {MAX_NOMINAL_DELTA}]")


def nominal_proximity(v1: str, v2: str, delta: float) -> float:
    """Proximity of two nominal labels: 1 on a match, delta otherwise.

    The mismatch value does not depend on the labels themselves.  Equals the
    max-min possibility of the corresponding plateau memberships.
    """
    _check_delta(delta)
    if delta == MAX_NOMINAL_DELTA:
        warnings.warn(
            "delta = 0.5 makes a nominal match indistinguishable from a mismatch",
            IdentificationPowerWarning,
            stacklevel=2,
        )
    return 1.0 if v1 == v2 else delta


def qualitative_distance(proximity: float) -> float:
    """Complement of a qualitative proximity value."""
    if not 0.0 <= proximity <= 1.0:
        raise ValueError(f"proximity {proximity} outside [0, 1]")
    return 1.0 - proximity
