"""Probabilistic proximity between quantitative values measured with Gaussian error.

Each measurement is modelled as a normal distribution centred on the reported
value with the source's RMSE as sigma.  The proximity of two measurements is
the joint probability that both true values fall inside the intersection of
their three-sigma windows, optionally scaled by a confidence coefficient that
rewards precise sources.  All functions are pure and stateless.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

_SQRT2 = math.sqrt(2.0)

THREE_SIGMA = 3.0


def is_finite_number(x) -> bool:
    """A real number (numpy's scalars included) other than bool, NaN, +/-inf
    and ints beyond the float range."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def positive_violation(*values) -> str | None:
    """The rule of every determination error, half-window, width, spread and
    scene size: each of ``values`` is a finite number above 0.  None when
    they are; otherwise what they must be, ``"positive"`` when one is not
    above 0 (NaN included), else ``"finite"`` (+inf, or an int past the
    float range, which is compared and never converted)."""
    if all(is_finite_number(x) and x > 0.0 for x in values):
        return None
    return "finite" if all(x > 0.0 for x in values) else "positive"


def three_sigma_window(value, sigma):
    """(value - 3 sigma, value + 3 sigma), elementwise for arrays; a bound
    past the float range is +-inf."""
    half = THREE_SIGMA * sigma
    return value - half, value + half


def window_holds(low, value, high):
    """Whether a three-sigma window [low, high] holds ``value`` strictly
    inside: where a bound rounds onto the value, any overlap is empty and a
    pair would score a silent 0.  Elementwise for arrays."""
    return (low < value) & (value < high)


def standard_normal_cdf(x: float) -> float:
    """Distribution function of N(0, 1); absolute error below 1e-15 via erf."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def laplace_function(x: float) -> float:
    """Zero-centred normal integral: standard_normal_cdf(x) - 0.5."""
    return standard_normal_cdf(x) - 0.5


@dataclass(frozen=True)
class NormalErrorModel:
    """A measured value with its RMSE, treated as the mean of a normal law.

    Raises ValueError for a sigma that fails :func:`positive_violation`, a
    value that is not finite, and a sigma whose three-sigma window fails
    :func:`window_holds` (``1e16`` with sigma ``1e-3``).  A window that
    overflows to infinity is kept."""

    value: float
    sigma: float

    def __post_init__(self):
        if problem := positive_violation(self.sigma):
            raise ValueError(f"sigma must be {problem}, got {self.sigma}")
        if not math.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value!r}")
        low, high = self.window
        if not window_holds(low, self.value, high):
            raise ValueError(
                f"sigma {self.sigma} collapses the three-sigma window of {self.value!r} onto the value itself"
            )

    @property
    def window(self) -> tuple[float, float]:
        """Three-sigma window around the measured value."""
        return three_sigma_window(self.value, self.sigma)


@dataclass(frozen=True)
class OverlapInterval:
    """Non-empty intersection [c, d] of two three-sigma windows."""

    c: float
    d: float

    def __post_init__(self):
        if self.c > self.d:
            raise ValueError(f"interval bounds out of order: [{self.c}, {self.d}]")


def sigma_from_max_error(delta_max: float) -> float:
    """RMSE estimated from an instrument's maximum absolute error (three-sigma
    rule).  Raises ValueError for a delta_max that fails
    :func:`positive_violation`, or whose sigma underflows to 0."""
    if problem := positive_violation(delta_max):
        raise ValueError(f"delta_max must be {problem}, got {delta_max}")
    sigma = delta_max / THREE_SIGMA
    if positive_violation(sigma):
        raise ValueError(f"sigma must be strictly positive, got {sigma} from delta_max {delta_max}")
    return sigma


def _standardized(x: float, model: NormalErrorModel) -> float:
    """(x - value) / sigma; where only the difference passes the float range
    (x and the value far apart, of opposite signs), x / sigma - value / sigma."""
    difference = x - model.value
    if math.isinf(difference) and math.isfinite(x):
        return x / model.sigma - model.value / model.sigma
    return difference / model.sigma


def interval_probability(model: NormalErrorModel, c: float, d: float) -> float:
    """P(c <= x <= d) for the model's normal law."""
    if c > d:
        raise ValueError(f"interval bounds out of order: [{c}, {d}]")
    lo = standard_normal_cdf(_standardized(c, model))
    hi = standard_normal_cdf(_standardized(d, model))
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
    Raises ValueError where one of them fails :func:`positive_violation`.
    """
    for name, x in (("sigma_i", sigma_i), ("sigma_j", sigma_j), ("xi", xi)):
        if problem := positive_violation(x):
            raise ValueError(f"{name} must be {problem}, got {x}")
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
