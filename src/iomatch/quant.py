"""Probabilistic proximity between quantitative values measured with Gaussian error.

Each measurement is modelled as a normal distribution centred on the reported
value with the source's RMSE as sigma.  The proximity of two measurements is
the joint probability that both true values fall inside the intersection of
their three-sigma windows, optionally scaled by a confidence coefficient that
rewards precise sources.  All functions are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_SQRT2 = math.sqrt(2.0)

THREE_SIGMA = 3.0


def standard_normal_cdf(x: float) -> float:
    """Distribution function of N(0, 1); absolute error below 1e-15 via erf."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def laplace_function(x: float) -> float:
    """Zero-centred normal integral: standard_normal_cdf(x) - 0.5."""
    return standard_normal_cdf(x) - 0.5


@dataclass(frozen=True)
class NormalErrorModel:
    """A measured value with its RMSE, treated as the mean of a normal law.

    Raises ValueError for a sigma that is not positive, a value that is not
    finite, and a sigma whose three-sigma window rounds onto the value
    (``1e16`` with sigma ``1e-3``), where any overlap would be empty.  A
    window that overflows to infinity is kept."""

    value: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be strictly positive, got {self.sigma}")
        if not math.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value!r}")
        low, high = self.window
        if not low < self.value < high:
            raise ValueError(
                f"sigma {self.sigma} collapses the three-sigma window of {self.value!r} onto the value itself"
            )

    @property
    def window(self) -> tuple[float, float]:
        """Three-sigma window around the measured value."""
        return (self.value - THREE_SIGMA * self.sigma, self.value + THREE_SIGMA * self.sigma)


@dataclass(frozen=True)
class OverlapInterval:
    """Non-empty intersection [c, d] of two three-sigma windows."""

    c: float
    d: float

    def __post_init__(self):
        if self.c > self.d:
            raise ValueError(f"interval bounds out of order: [{self.c}, {self.d}]")


def sigma_from_max_error(delta_max: float) -> float:
    """RMSE estimated from an instrument's maximum absolute error (three-sigma rule)."""
    if not delta_max > 0.0:
        raise ValueError(f"delta_max must be strictly positive, got {delta_max}")
    return delta_max / 3.0


def interval_probability(model: NormalErrorModel, c: float, d: float) -> float:
    """P(c <= x <= d) for the model's normal law."""
    if c > d:
        raise ValueError(f"interval bounds out of order: [{c}, {d}]")
    lo = standard_normal_cdf((c - model.value) / model.sigma)
    hi = standard_normal_cdf((d - model.value) / model.sigma)
    return min(1.0, max(0.0, hi - lo))


def overlap_interval(a: NormalErrorModel, b: NormalErrorModel) -> OverlapInterval | None:
    """Intersection of the two three-sigma windows, or None when disjoint."""
    a_lo, a_hi = a.window
    b_lo, b_hi = b.window
    c = max(a_lo, b_lo)
    d = min(a_hi, b_hi)
    if c > d:
        return None
    return OverlapInterval(c, d)


def joint_overlap_probability(a: NormalErrorModel, b: NormalErrorModel) -> float:
    """Probability that both true values lie in the common overlap interval.

    Zero when the three-sigma windows do not intersect.  Symmetric in its
    arguments, bounded by [0, 1].
    """
    interval = overlap_interval(a, b)
    if interval is None:
        return 0.0
    return interval_probability(a, interval.c, interval.d) * interval_probability(
        b, interval.c, interval.d
    )


def central_mass(sigma: float, xi: float) -> float:
    """P(|x - m| < xi) for a normal law with the given sigma."""
    return 2.0 * laplace_function(xi / sigma)


def confidence_coefficient(sigma_i: float, sigma_j: float, xi: float) -> float:
    """Geometric mean of both sources' probability mass within +/- xi of the mean.

    Rewards precise sources: approaches 1 as both sigmas shrink relative to
    xi, and reduces to a single source's central mass when the sigmas match.
    """
    if not (sigma_i > 0.0 and sigma_j > 0.0 and xi > 0.0):
        raise ValueError("sigma_i, sigma_j and xi must all be strictly positive")
    return math.sqrt(central_mass(sigma_i, xi) * central_mass(sigma_j, xi))


def quantitative_proximity(
    a: NormalErrorModel, b: NormalErrorModel, xi: float | None = None
) -> float:
    """Proximity of two measurements.

    With ``xi`` unset this is the raw joint overlap probability; with ``xi``
    set it is additionally scaled by the confidence coefficient.
    """
    p = joint_overlap_probability(a, b)
    if xi is None:
        return p
    return p * confidence_coefficient(a.sigma, b.sigma, xi)


def quantitative_distance(
    a: NormalErrorModel, b: NormalErrorModel, xi: float | None = None
) -> float:
    """Complement of :func:`quantitative_proximity`; grows with separation."""
    return 1.0 - quantitative_proximity(a, b, xi)
