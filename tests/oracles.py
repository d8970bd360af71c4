"""Independent oracles used by the tests.

These deliberately avoid the library's own computation paths: interval
probabilities are estimated by Monte-Carlo sampling, possibilities by a dense
grid search over an independent (clipped min-of-lines) membership formula,
and whole-pair scores by composing the scalar functions one pair at a time
in place of the columnar engine.
"""

from __future__ import annotations

import numpy as np

from iomatch.aggregate import (
    AggregationMethod,
    AggregationSpec,
    additive_distance,
    count_normalized_distance,
    multiplicative_proximity,
    two_class_weighted_distance,
    weighted_additive_distance,
)
from iomatch.fuzzy import (
    FuzzyMembership,
    apply_certainty,
    gaussian_membership,
    nominal_proximity,
    possibility,
    triangular_from_halfwidth,
    triangular_from_relative_error,
)
from iomatch.model import (
    FeatureKind,
    FeatureSchema,
    FeatureValue,
    InformationObject,
    MembershipShape,
    OrdinalAccuracy,
    Schema,
    SourceProfile,
)
from iomatch.quant import NormalErrorModel, quantitative_proximity


def mc_interval_probability(rng, mean, sigma, c, d, n=1_000_000):
    """Monte-Carlo estimate of P(c <= x <= d) for N(mean, sigma^2)."""
    xs = rng.normal(mean, sigma, n)
    return float(np.mean((xs >= c) & (xs <= d)))


def triangular_grid_values(m: FuzzyMembership, gs: np.ndarray) -> np.ndarray:
    """Triangular membership as height * clip(min(rising, falling), 0, 1)."""
    rising = (gs - m.g_min) / (m.peak - m.g_min)
    falling = (m.g_max - gs) / (m.g_max - m.peak)
    return m.height * np.clip(np.minimum(rising, falling), 0.0, 1.0)


def grid_possibility(m1: FuzzyMembership, m2: FuzzyMembership, step=1e-3) -> float:
    """Dense-grid brute-force max-min over the joint support."""
    lo = min(m1.g_min, m2.g_min)
    hi = max(m1.g_max, m2.g_max)
    gs = np.arange(lo, hi + step, step)
    return float(np.max(np.minimum(triangular_grid_values(m1, gs), triangular_grid_values(m2, gs))))


def random_triangular(rng) -> FuzzyMembership:
    """Random triangular membership; legs at least one unit wide so a 1e-3 grid
    resolves the max-min crossing to better than 1e-3."""
    height = float(rng.uniform(0.25, 1.0))
    if rng.random() < 0.5:
        center = float(rng.uniform(0.0, 30.0))
        half_width = float(rng.uniform(1.0, 8.0))
        return triangular_from_halfwidth(center, half_width, height)
    center = float(rng.integers(6, 60))
    k = float(rng.uniform(0.3, 0.9))
    return triangular_from_relative_error(center, k, height)


# --- per-pair scalar reference for the columnar engine -------------------------
#
# Composes one pair's scores from the scalar quant, fuzzy and aggregate
# functions, one feature at a time, the way the paper defines them.


def run_xi(feature: FeatureSchema, profiles) -> float:
    """Explicit xi, or three times the smallest sigma among all configured sources."""
    if feature.quantitative_xi is not None:
        return feature.quantitative_xi
    return 3.0 * min(p.quantitative_sigma(feature.name) for p in profiles)


def _axis_values(feature: FeatureSchema, fv: FeatureValue) -> tuple[float, ...]:
    return tuple(float(c) for c in fv.value) if feature.axes else (float(fv.value),)


def _membership(feature: FeatureSchema, profile: SourceProfile, fv: FeatureValue) -> FuzzyMembership:
    params = feature.ordinal_params
    acc = profile.accuracy.get(feature.name)
    k = acc.relative_k if isinstance(acc, OrdinalAccuracy) else None
    width = acc.width if isinstance(acc, OrdinalAccuracy) and acc.width is not None else params.width
    rank = float(fv.value)
    if params.shape is MembershipShape.GAUSSIAN:
        m = gaussian_membership(rank, width)
    elif k is not None:
        m = triangular_from_relative_error(rank, k)
    else:
        m = triangular_from_halfwidth(rank, width)
    return apply_certainty(m, fv.certainty)


def scalar_feature_proximity(run, feature: FeatureSchema, a: InformationObject, b: InformationObject) -> float:
    profile_a, profile_b = run.profiles[a.source_id], run.profiles[b.source_id]
    va, vb = a.values[feature.name], b.values[feature.name]
    if feature.kind is FeatureKind.QUANTITATIVE:
        xi = run_xi(feature, run.profiles.values())
        sigma_a = profile_a.quantitative_sigma(feature.name)
        sigma_b = profile_b.quantitative_sigma(feature.name)
        result = 1.0
        for x, y in zip(_axis_values(feature, va), _axis_values(feature, vb)):
            result *= quantitative_proximity(NormalErrorModel(x, sigma_a), NormalErrorModel(y, sigma_b), xi)
        return result
    if feature.kind is FeatureKind.ORDINAL_FUZZY:
        return possibility(_membership(feature, profile_a, va), _membership(feature, profile_b, vb))
    return nominal_proximity(va.value, vb.value, feature.nominal_delta)


def scalar_aggregate(schema: Schema, spec: AggregationSpec, proximities: dict[str, float]) -> tuple[float, float]:
    """(aggregate proximity, distance); sums whose raw range exceeds [0, 1] are
    rescaled by their attainable maximum."""
    names = [f.name for f in schema.features if f.name in proximities]
    if not names:
        return 1.0, 0.0
    method = spec.method
    if method in (AggregationMethod.MULTIPLICATIVE, AggregationMethod.WEIGHTED_ADDITIVE):
        source = spec.feature_weights or {f.name: f.weight for f in schema.features}
        weights = [source[n] for n in names]
        total = sum(weights)
        weights = [w / total for w in weights] if total > 0.0 else [1.0 / len(names)] * len(names)
        if method is AggregationMethod.MULTIPLICATIVE:
            p = multiplicative_proximity([proximities[n] for n in names], weights)
            return p, 1.0 - p
        d = weighted_additive_distance([1.0 - proximities[n] for n in names], weights)
        return 1.0 - d, d
    quant = [1.0 - proximities[n] for n in names if schema.feature(n).kind is FeatureKind.QUANTITATIVE]
    qual = [1.0 - proximities[n] for n in names if schema.feature(n).kind is not FeatureKind.QUANTITATIVE]
    if method is AggregationMethod.ADDITIVE:
        d = additive_distance(quant, qual) / len(names)
    elif method is AggregationMethod.COUNT_NORMALIZED:
        d = count_normalized_distance(quant, qual) / ((1 if quant else 0) + (1 if qual else 0))
    else:
        w = spec.class_weight
        d = two_class_weighted_distance(w, quant, qual, spec.normalized)
        if spec.normalized:
            max_raw = (w if quant else 0.0) + (1.0 - w if qual else 0.0)
        else:
            max_raw = w * len(quant) + (1.0 - w) * len(qual)
        d = d / max_raw if max_raw > 0.0 else 0.0
    return 1.0 - d, d


def scalar_pair_scores(run, a: InformationObject, b: InformationObject):
    """(per-feature proximities, aggregate proximity, aggregate distance) of one pair."""
    proximities = {
        f.name: scalar_feature_proximity(run, f, a, b)
        for f in run.schema.features
        if f.name in a.values and f.name in b.values
    }
    return (proximities, *scalar_aggregate(run.schema, run.aggregation, proximities))
