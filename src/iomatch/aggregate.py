"""Combining per-feature proximities/distances into one object-pair measure.

The additive family sums (optionally normalized or weighted) per-feature
distances; the multiplicative convolution combines per-feature proximities as
a weighted geometric product, so a total mismatch on any single feature zeroes
the aggregate similarity.  A threshold-counting baseline is included for
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .model import weight_sum_violation, weight_violation


class AggregationMethod(Enum):
    ADDITIVE = "additive"
    COUNT_NORMALIZED = "count-normalized"
    WEIGHTED_ADDITIVE = "weighted-additive"
    TWO_CLASS_WEIGHTED = "two-class-weighted"
    MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class AggregationSpec:
    """Method selection plus its two-class options.

    The weighted-additive and multiplicative methods read the schema's feature
    weights; ``class_weight`` is the quantitative-class weight of the
    two-class method; ``normalized`` selects the per-class-count variant of
    the two-class method.
    """

    method: AggregationMethod = AggregationMethod.MULTIPLICATIVE
    class_weight: float | None = None
    normalized: bool = False

    def violations(self) -> list[str]:
        """What is wrong with the options: the two-class method needs a class
        weight under ``model.weight_violation``.  The feature weights are the
        schema's, checked by ``model.schema_violations``."""
        w = self.class_weight
        if self.method is AggregationMethod.TWO_CLASS_WEIGHTED and (w is None or weight_violation(w)):
            return ["two-class aggregation requires a class weight in [0, 1]"]
        return []


def _check_unit_range(values: Sequence[float], what: str) -> None:
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{what} {v} outside [0, 1]")


def _check_weights(weights: Sequence[float]) -> None:
    """The schema's weight rules: each weight in [0, 1], summing to 1."""
    for problem in (*map(weight_violation, weights), weight_sum_violation(weights)):
        if problem:
            raise ValueError(problem)


def additive_distance(quant: Sequence[float], qual: Sequence[float]) -> float:
    """Plain sum of per-feature distances; ranges over [0, feature count]."""
    _check_unit_range(quant, "distance")
    _check_unit_range(qual, "distance")
    return sum(quant) + sum(qual)


def count_normalized_distance(quant: Sequence[float], qual: Sequence[float]) -> float:
    """Each feature class averaged by its own count; ranges over [0, 2].

    An empty class contributes 0.  Normalizing per class keeps one numerous
    feature class from dominating the result.
    """
    _check_unit_range(quant, "distance")
    _check_unit_range(qual, "distance")
    quant_term = sum(quant) / len(quant) if quant else 0.0
    qual_term = sum(qual) / len(qual) if qual else 0.0
    return quant_term + qual_term


def weighted_additive_distance(values: Sequence[float], weights: Sequence[float]) -> float:
    """Convex combination of per-feature distances; weights must sum to 1."""
    if len(values) != len(weights):
        raise ValueError("values and weights differ in length")
    _check_unit_range(values, "distance")
    _check_weights(weights)
    return sum(v * w for v, w in zip(values, weights))


def two_class_weighted_distance(
    class_weight: float,
    quant: Sequence[float],
    qual: Sequence[float],
    normalized: bool = False,
) -> float:
    """Quantitative class weighted by ``class_weight``, qualitative by its complement.

    With ``normalized`` each class sum is divided by its feature count first.
    """
    if problem := weight_violation(class_weight):
        raise ValueError(f"class {problem}")
    _check_unit_range(quant, "distance")
    _check_unit_range(qual, "distance")
    if normalized:
        quant_term = sum(quant) / len(quant) if quant else 0.0
        qual_term = sum(qual) / len(qual) if qual else 0.0
    else:
        quant_term = sum(quant)
        qual_term = sum(qual)
    return class_weight * quant_term + (1.0 - class_weight) * qual_term


def multiplicative_proximity(
    proximities: Sequence[float], weights: Sequence[float] | None = None
) -> float:
    """Weighted geometric convolution of per-feature proximities.

    With ``weights`` given they must sum to 1 and the result is the weighted
    geometric mean; without weights every exponent is 1 (plain product), so
    the aggregate is no larger than the smallest input.  A zero proximity with
    positive weight zeroes the aggregate; a zero-weight feature is ignored
    (0 ** 0 == 1).
    """
    _check_unit_range(proximities, "proximity")
    if weights is None:
        result = 1.0
        for p in proximities:
            result *= p
        return result
    if len(proximities) != len(weights):
        raise ValueError("proximities and weights differ in length")
    _check_weights(weights)
    result = 1.0
    for p, w in zip(proximities, weights):
        result *= p ** w
    return result


def multiplicative_distance(
    proximities: Sequence[float], weights: Sequence[float] | None = None
) -> float:
    """Complement of the multiplicative convolution."""
    return 1.0 - multiplicative_proximity(proximities, weights)


def zhuravlev_distance(
    pairs: Sequence[tuple],
    thresholds: Sequence[float | None],
    qualitative: Sequence[bool],
) -> int:
    """Threshold-counting baseline: the number of features whose values agree.

    A quantitative feature agrees when the absolute difference is within its
    threshold; a qualitative feature only on an exact match.
    """
    if not len(pairs) == len(thresholds) == len(qualitative):
        raise ValueError("pairs, thresholds and qualitative flags differ in length")
    score = 0
    for (x_i, x_j), eps, is_qual in zip(pairs, thresholds, qualitative):
        if is_qual:
            score += int(x_i == x_j)
        else:
            if eps is None:
                raise ValueError("missing threshold for a quantitative feature")
            score += int(abs(x_i - x_j) <= eps)
    return score
