"""Pairwise proximity evaluation over two cross-source datasets.

Every feature is scored for all pairs at once: a kernel turns the two
datasets' values into an ``n_a x n_b`` proximity array plus a presence mask,
and aggregation folds those arrays through one weight resolver and two
kernels (a weighted geometric product and a weighted sum of distances).  The
result stays columnar; a :class:`ProximityBreakdown` is built only where one
is read.  The scalar functions in ``quant``, ``fuzzy`` and ``aggregate``
define the same numbers one pair at a time and serve as the test reference.
"""

from __future__ import annotations

import collections.abc
import functools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import aggregate as agg
from . import quant
from .fuzzy import IdentificationPowerWarning, triangular_from_relative_error
from .model import (
    MAX_NOMINAL_DELTA,
    FeatureKind,
    FeatureSchema,
    FeatureScore,
    InformationObject,
    MembershipShape,
    OrdinalAccuracy,
    ProximityBreakdown,
    Schema,
    SourceProfile,
    is_finite_number,
    object_violations,
    profile_violations,
    schema_violations,
)

THREE_SIGMA = 3.0

_SQRT2 = math.sqrt(2.0)


class MatchRunError(ValueError):
    """Raised when a run's configuration or data violates the schema."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class MatchRun:
    """One matching task: schema, source accuracies, two datasets, aggregation."""

    schema: Schema
    profiles: Mapping[str, SourceProfile]
    dataset_a: tuple[InformationObject, ...]
    dataset_b: tuple[InformationObject, ...]
    aggregation: agg.AggregationSpec = agg.AggregationSpec()
    candidate_threshold: float = 0.01


def run_violations(run: MatchRun) -> list[str]:
    """Collect every configuration and per-object violation of a run."""
    errors = list(schema_violations(run.schema.features))
    for profile in run.profiles.values():
        errors.extend(profile_violations(profile, run.schema))
    if not 0.0 <= run.candidate_threshold <= 1.0:
        errors.append(f"candidate threshold {run.candidate_threshold} outside [0, 1]")
    for label, dataset in (("A", run.dataset_a), ("B", run.dataset_b)):
        sources = {obj.source_id for obj in dataset}
        if len(sources) > 1:
            errors.append(f"dataset {label} mixes source ids {sorted(sources)}")
        for sid in sources:
            if sid not in run.profiles:
                errors.append(f"dataset {label}: no profile for source {sid!r}")
        # Ids key every report and candidate lookup, so each names one object.
        for oid, count in Counter(obj.object_id for obj in dataset).items():
            if count > 1:
                errors.append(f"dataset {label}: object id {oid!r} appears {count} times")
        for obj in dataset:
            errors.extend(object_violations(obj, run.schema))
            errors.extend(_support_violations(obj, run.schema, run.profiles.get(obj.source_id)))
    a_sources = {obj.source_id for obj in run.dataset_a}
    b_sources = {obj.source_id for obj in run.dataset_b}
    if a_sources and a_sources == b_sources:
        errors.append("both datasets reference the same source id")
    errors.extend(agg.weight_violations(run.schema, run.aggregation))
    return errors


def _relative_k(feature: FeatureSchema, profile: SourceProfile) -> float | None:
    acc = profile.accuracy.get(feature.name)
    return acc.relative_k if isinstance(acc, OrdinalAccuracy) else None


def _support_violations(
    obj: InformationObject, schema: Schema, profile: SourceProfile | None
) -> list[str]:
    """Ranks whose relative-k triangle rounds to a support that excludes the rank."""
    if profile is None:
        return []
    errors = []
    for feature in schema.features:
        fv = obj.values.get(feature.name)
        if feature.kind is not FeatureKind.ORDINAL_FUZZY or fv is None:
            continue
        k = _relative_k(feature, profile)
        if k is None or not is_finite_number(fv.value) or not 0.0 < k < 1.0:
            continue
        try:
            triangular_from_relative_error(float(fv.value), k)
        except ValueError:
            errors.append(
                f"{obj.object_id}/{feature.name}: relative k {k} of source {obj.source_id!r} "
                f"rounds the support of rank {fv.value} onto the rank itself"
            )
    return errors


def _run_xi(feature: FeatureSchema, profiles: Iterable[SourceProfile]) -> float:
    """Confidence half-window of a feature for the whole run: the explicit xi,
    or three times the smallest sigma among all configured sources."""
    if feature.quantitative_xi is not None:
        return feature.quantitative_xi
    return THREE_SIGMA * min(p.quantitative_sigma(feature.name) for p in profiles)


# --- per-feature kernels ------------------------------------------------------
#
# Each kernel returns an (n_a, n_b) proximity array.  Absent values are filled
# with harmless placeholders; the presence mask removes them later.  The
# ordinal kernels take side A's values shaped (n_a, 1) and side B's (1, n_b),
# so their arithmetic broadcasts to the pair grid.


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi elementwise through math.erf, matching quant.standard_normal_cdf."""
    z = (x / _SQRT2).tolist()
    return 0.5 * (1.0 + np.fromiter(map(math.erf, z), float, len(z)))


def _interval_probability(value, sigma: float, c, d) -> np.ndarray:
    lo = _normal_cdf((c - value) / sigma)
    hi = _normal_cdf((d - value) / sigma)
    return np.minimum(1.0, np.maximum(0.0, hi - lo))


def _quantitative_column(
    va: np.ndarray, sigma_a: float, vb: np.ndarray, sigma_b: float, xi: float, present: np.ndarray
) -> np.ndarray:
    """Per-axis joint three-sigma overlap probability times the confidence
    coefficient, multiplied over the axes; ``va`` is (n_a, axes), ``vb`` (n_b, axes).

    The probabilities are computed only where every axis's windows overlap;
    elsewhere the proximity is exactly 0.
    """
    lo_a, hi_a = va - THREE_SIGMA * sigma_a, va + THREE_SIGMA * sigma_a
    lo_b, hi_b = vb - THREE_SIGMA * sigma_b, vb + THREE_SIGMA * sigma_b
    overlap = present.copy()
    for axis in range(va.shape[1]):
        overlap &= lo_a[:, None, axis] <= hi_b[None, :, axis]
        overlap &= lo_b[None, :, axis] <= hi_a[:, None, axis]
    i, j = np.nonzero(overlap)
    coefficient = quant.confidence_coefficient(sigma_a, sigma_b, xi)
    values = np.ones(len(i))
    for axis in range(va.shape[1]):
        a, b = va[i, axis], vb[j, axis]
        c = np.maximum(lo_a[i, axis], lo_b[j, axis])
        d = np.minimum(hi_a[i, axis], hi_b[j, axis])
        p_a = _interval_probability(a, sigma_a, c, d)
        p_b = _interval_probability(b, sigma_b, c, d)
        values = values * (p_a * p_b * coefficient)
    proximity = np.zeros(present.shape)
    proximity[i, j] = values
    return proximity


def _triangle_at(lo, peak, hi, height, g):
    rising = height * (g - lo) / (peak - lo)
    falling = height * (hi - g) / (hi - peak)
    inside = np.where(g < peak, rising, np.where(g == peak, height, falling))
    return np.where((g <= lo) | (g >= hi), 0.0, inside)


def _triangular_possibility(tri_a, tri_b) -> np.ndarray:
    """sup min of two triangles, each given as (lo, peak, hi, height).

    Order each pair so the left triangle has the lower peak.  Outside the
    peaks both functions only fall, so the supremum is at a peak or where the
    left falling edge crosses the right rising edge.
    """
    swap = tri_a[1] > tri_b[1]
    lo1, p1, hi1, h1 = (np.where(swap, b, a) for a, b in zip(tri_a, tri_b))
    lo2, p2, hi2, h2 = (np.where(swap, a, b) for a, b in zip(tri_a, tri_b))
    best = np.maximum(
        np.minimum(h1, _triangle_at(lo2, p2, hi2, h2, p1)),
        np.minimum(_triangle_at(lo1, p1, hi1, h1, p2), h2),
    )
    run1, run2 = hi1 - p1, p2 - lo2
    g = (h1 * hi1 * run2 + h2 * lo2 * run1) / (h1 * run2 + h2 * run1)
    at_g = np.minimum(_triangle_at(lo1, p1, hi1, h1, g), _triangle_at(lo2, p2, hi2, h2, g))
    between = (p1 < p2) & (p1 <= g) & (g <= p2)
    return np.where(between, np.maximum(best, at_g), best)


def _gaussian_at(rank, height, spread: float, g):
    z = (g - rank) / spread
    return height * np.exp(-0.5 * z * z)


def _gaussian_possibility(ra, ha, sa: float, rb, hb, sb: float) -> np.ndarray:
    """max over integer g of min(mu_a(g), mu_b(g)) for two Gaussian memberships.

    The min of two log-concave functions is unimodal, so its integer maximum
    lies at the floor or ceil of its continuous maximum: a peak, or a crossing
    of the two curves between the peaks.  With u = g - ra the crossings are
    the roots of ln mu_a - ln mu_b = qa u^2 + qb u + qc.  Roots outside the
    peaks are clamped to them, which only adds grid points worth trying.

    The arithmetic is numpy's under ``errstate``: a spread so small that its
    square underflows gives infinite coefficients instead of raising, the
    roots that are then not finite fall back to the peaks, and away from a
    peak the membership is exp(-inf) = 0.
    """
    sa, sb = np.float64(sa), np.float64(sb)
    with np.errstate(all="ignore"):
        delta = rb - ra
        qa = 0.5 / (sb * sb) - 0.5 / (sa * sa)
        qb = -delta / (sb * sb)
        qc = 0.5 * delta * delta / (sb * sb) + np.log(ha / hb)
        if qa == 0.0:
            roots = [-qc / qb]
        else:
            q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
            roots = [q / qa, qc / q]
        lo, hi = np.minimum(ra, rb), np.maximum(ra, rb)
        points = [ra, rb] + [np.clip(np.where(np.isfinite(u), ra + u, ra), lo, hi) for u in roots]
        grid = [g for point in points for g in (np.floor(point), np.ceil(point))]
        return functools.reduce(
            np.maximum, (np.minimum(_gaussian_at(ra, ha, sa, g), _gaussian_at(rb, hb, sb, g)) for g in grid)
        )


def _quantitative_values(feature: FeatureSchema, dataset) -> np.ndarray:
    """(n, axes) array of one side's components; 0 where absent."""
    rows = []
    for obj in dataset:
        fv = obj.values.get(feature.name)
        if fv is None:
            rows.append((0.0,) * feature.arity)
        else:
            rows.append(fv.value if feature.axes else (fv.value,))
    return np.array(rows, dtype=float).reshape(len(rows), feature.arity)


def _ordinal_memberships(feature: FeatureSchema, profile: SourceProfile, dataset):
    """(lo, peak, hi, height) arrays of one side's memberships, and the width
    (half-width or Gaussian spread) the side uses; lo and hi are unused for
    Gaussians, and absent values get a placeholder triangle."""
    acc = profile.accuracy.get(feature.name)
    k = _relative_k(feature, profile)
    width = acc.width if isinstance(acc, OrdinalAccuracy) and acc.width is not None else feature.ordinal_params.width
    rows = []
    for obj in dataset:
        fv = obj.values.get(feature.name)
        if fv is None:
            rows.append((-1.0, 0.0, 1.0, 1.0))
            continue
        rank = float(fv.value)
        if k is not None:
            triangle = triangular_from_relative_error(rank, k)
            lo, hi = triangle.g_min, triangle.g_max
        else:
            lo, hi = rank - width, rank + width
        rows.append((lo, rank, hi, fv.certainty.value))
    columns = np.array(rows, dtype=float).reshape(len(rows), 4)
    return tuple(columns[:, m] for m in range(4)), width


def _nominal_codes(feature: FeatureSchema, dataset, codes: dict, missing: int) -> np.ndarray:
    """One side's labels as integer codes shared through ``codes``; ``missing`` where absent."""
    return np.array(
        [codes.setdefault(o.values[feature.name].value, len(codes)) if feature.name in o.values else missing
         for o in dataset],
        dtype=np.int64,
    )


def _feature_column(run: MatchRun, feature: FeatureSchema, profile_a, profile_b, present):
    """Proximity of every pair on one feature (meaningful where ``present``)."""
    if feature.kind is FeatureKind.QUANTITATIVE:
        return _quantitative_column(
            _quantitative_values(feature, run.dataset_a),
            profile_a.quantitative_sigma(feature.name),
            _quantitative_values(feature, run.dataset_b),
            profile_b.quantitative_sigma(feature.name),
            _run_xi(feature, run.profiles.values()),
            present,
        )
    if feature.kind is FeatureKind.ORDINAL_FUZZY:
        side_a, width_a = _ordinal_memberships(feature, profile_a, run.dataset_a)
        side_b, width_b = _ordinal_memberships(feature, profile_b, run.dataset_b)
        side_a = tuple(c[:, None] for c in side_a)
        side_b = tuple(c[None, :] for c in side_b)
        if feature.ordinal_params.shape is MembershipShape.GAUSSIAN:
            return _gaussian_possibility(side_a[1], side_a[3], width_a, side_b[1], side_b[3], width_b)
        return _triangular_possibility(side_a, side_b)
    if feature.nominal_delta == MAX_NOMINAL_DELTA and present.any():
        warnings.warn(
            "delta = 0.5 makes a nominal match indistinguishable from a mismatch",
            IdentificationPowerWarning,
            stacklevel=3,
        )
    codes: dict = {}
    same = (
        _nominal_codes(feature, run.dataset_a, codes, -1)[:, None]
        == _nominal_codes(feature, run.dataset_b, codes, -2)[None, :]
    )
    return np.where(same, 1.0, feature.nominal_delta)


# --- aggregation --------------------------------------------------------------


def _pair_weights(
    schema: Schema, spec: agg.AggregationSpec, present: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Every pair's weight per feature, zero where the feature is absent.

    Weighted methods renormalize their feature weights over the features
    present (an all-zero subset falls back to equal weights).  The additive
    family becomes a weighted sum: additive 1/n, count-normalized
    1/(classes * |class|), and two-class w and (1-w) divided by their
    attainable maximum: w/|Q| and (1-w)/|L| over w[|Q|>0] + (1-w)[|L|>0] when
    normalized, and otherwise over w|Q| + (1-w)|L|.
    """
    method = spec.method
    shape = next(iter(present.values())).shape if present else (0, 0)
    zero = np.zeros(shape)
    quantitative = {n: schema.feature(n).kind is FeatureKind.QUANTITATIVE for n in present}
    count = sum(present.values(), zero)
    n_quant = sum((m for n, m in present.items() if quantitative[n]), zero)
    n_qual = count - n_quant
    with np.errstate(divide="ignore", invalid="ignore"):
        if method in (agg.AggregationMethod.MULTIPLICATIVE, agg.AggregationMethod.WEIGHTED_ADDITIVE):
            base = spec.feature_weights or {f.name: f.weight for f in schema.features}
            total = sum((base[n] * m for n, m in present.items()), zero)
            raw = {n: np.where(total > 0.0, base[n] / total, 1.0 / count) for n in present}
        elif method is agg.AggregationMethod.ADDITIVE:
            raw = {n: 1.0 / count for n in present}
        elif method is agg.AggregationMethod.COUNT_NORMALIZED:
            classes = (n_quant > 0).astype(float) + (n_qual > 0)
            raw = {n: 1.0 / (classes * (n_quant if quantitative[n] else n_qual)) for n in present}
        else:
            w = spec.class_weight
            if spec.normalized:
                max_raw = w * (n_quant > 0) + (1.0 - w) * (n_qual > 0)
                raw = {n: (w / n_quant if quantitative[n] else (1.0 - w) / n_qual) / max_raw for n in present}
            else:
                max_raw = w * n_quant + (1.0 - w) * n_qual
                raw = {n: (w if quantitative[n] else 1.0 - w) / max_raw for n in present}
    # Where the feature is present, a weight is non-finite only as the 0/0 of a
    # two-class attainable maximum of 0, which scores distance 0.
    return {n: np.where(m & np.isfinite(raw[n]), raw[n], 0.0) for n, m in present.items()}


def _aggregate(
    schema: Schema,
    spec: agg.AggregationSpec,
    proximity: Mapping[str, np.ndarray],
    present: Mapping[str, np.ndarray],
    shape: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """(aggregate proximity, aggregate distance) of every pair; the two always
    complement each other, and a pair with no shared feature scores (1, 0)."""
    weights = _pair_weights(schema, spec, present)
    if spec.method is agg.AggregationMethod.MULTIPLICATIVE:
        p = np.ones(shape)
        for name, w in weights.items():
            p = p * np.power(proximity[name], w)
        return p, 1.0 - p
    d = np.zeros(shape)
    for name, w in weights.items():
        d = d + (1.0 - proximity[name]) * w
    d = np.clip(d, 0.0, 1.0)
    return 1.0 - d, d


# --- results ------------------------------------------------------------------


class _ScoreColumns:
    """Breakdowns held as read-only numpy columns: per feature ``proximity``
    and ``present``, plus ``aggregate_proximity`` and ``aggregate_distance``.

    Indexing builds a :class:`ProximityBreakdown`; ``_locate`` maps an entry
    to its pair and to its index into the columns.
    """

    # A registered Sequence with its mixin methods, not a subclass: isinstance
    # against a class of metaclass ABCMeta runs Python code, and the JSON
    # writer tests every value it writes against RankedCandidates.
    __iter__ = collections.abc.Sequence.__iter__
    __contains__ = collections.abc.Sequence.__contains__
    __reversed__ = collections.abc.Sequence.__reversed__
    index = collections.abc.Sequence.index
    count = collections.abc.Sequence.count

    def __init__(
        self,
        proximity: Mapping[str, np.ndarray],
        present: Mapping[str, np.ndarray],
        aggregate_proximity: np.ndarray,
        aggregate_distance: np.ndarray,
    ):
        self.proximity, self.present = dict(proximity), dict(present)
        self.aggregate_proximity, self.aggregate_distance = aggregate_proximity, aggregate_distance
        for column in (*self.proximity.values(), *self.present.values(), aggregate_proximity, aggregate_distance):
            column.flags.writeable = False

    def _locate(self, k: int) -> tuple[tuple[str, str], object]:
        raise NotImplementedError

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = index + len(self) if index < 0 else index
        if not 0 <= k < len(self):
            raise IndexError(index)
        pair, at = self._locate(k)
        return ProximityBreakdown(
            pair=pair,
            per_feature={
                n: FeatureScore.from_proximity(float(p[at])) for n, p in self.proximity.items() if self.present[n][at]
            },
            aggregate_proximity=float(self.aggregate_proximity[at]),
            aggregate_distance=float(self.aggregate_distance[at]),
        )


class PairScores(_ScoreColumns):
    """Breakdowns of every cross-source pair, dataset A outer and B inner,
    held as read-only ``(n_a, n_b)`` columns.

    Indexing or iterating builds :class:`ProximityBreakdown` objects on
    demand, iteration one row of the columns at a time; writers read the
    columns directly.
    """

    def __init__(
        self,
        ids_a: Sequence[str],
        ids_b: Sequence[str],
        proximity: Mapping[str, np.ndarray],
        present: Mapping[str, np.ndarray],
        aggregate_proximity: np.ndarray,
        aggregate_distance: np.ndarray,
    ):
        self.ids_a, self.ids_b = tuple(ids_a), tuple(ids_b)
        super().__init__(proximity, present, aggregate_proximity, aggregate_distance)

    def __len__(self) -> int:
        return len(self.ids_a) * len(self.ids_b)

    def _locate(self, k: int):
        i, j = divmod(k, len(self.ids_b))
        return (self.ids_a[i], self.ids_b[j]), (i, j)

    def __iter__(self) -> Iterator[ProximityBreakdown]:
        names = tuple(self.proximity)
        for i, a in enumerate(self.ids_a):
            rows = [(self.proximity[n][i].tolist(), self.present[n][i].tolist()) for n in names]
            agg_p, agg_d = self.aggregate_proximity[i].tolist(), self.aggregate_distance[i].tolist()
            for j, b in enumerate(self.ids_b):
                per_feature = {n: FeatureScore.from_proximity(p[j]) for n, (p, m) in zip(names, rows) if m[j]}
                yield ProximityBreakdown((a, b), per_feature, agg_p[j], agg_d[j])


def pairwise_breakdowns(run: MatchRun) -> PairScores:
    """Breakdowns of every cross-source pair (dataset A outer, B inner).

    Validates the whole run first and aborts with every violation when any
    object fails the schema.  Only features present in both objects of a pair
    contribute; aggregation weights are renormalized over that subset.
    """
    errors = run_violations(run)
    if errors:
        raise MatchRunError(errors)
    shape = (len(run.dataset_a), len(run.dataset_b))
    proximity: dict[str, np.ndarray] = {}
    present: dict[str, np.ndarray] = {}
    if shape[0] and shape[1]:
        profile_a = run.profiles[run.dataset_a[0].source_id]
        profile_b = run.profiles[run.dataset_b[0].source_id]
        for feature in run.schema.features:
            has_a = np.array([feature.name in o.values for o in run.dataset_a])
            has_b = np.array([feature.name in o.values for o in run.dataset_b])
            present[feature.name] = has_a[:, None] & has_b[None, :]
            proximity[feature.name] = _feature_column(
                run, feature, profile_a, profile_b, present[feature.name]
            )
    aggregate_p, aggregate_d = _aggregate(run.schema, run.aggregation, proximity, present, shape)
    return PairScores(
        (o.object_id for o in run.dataset_a),
        (o.object_id for o in run.dataset_b),
        proximity,
        present,
        aggregate_p,
        aggregate_d,
    )


def evaluate_pair(
    schema: Schema,
    profiles: Mapping[str, SourceProfile],
    spec: agg.AggregationSpec,
    a: InformationObject,
    b: InformationObject,
) -> ProximityBreakdown:
    """Full proximity breakdown for one cross-source pair: a 1 x 1 run, so xi
    and every other rule are the ones :func:`pairwise_breakdowns` applies."""
    run = MatchRun(schema=schema, profiles=profiles, dataset_a=(a,), dataset_b=(b,), aggregation=spec)
    return pairwise_breakdowns(run)[0]


class RankedCandidates(_ScoreColumns):
    """The pairs of a :class:`PairScores` kept as candidates, most similar
    first, held as read-only 1-D columns in that order: ``ids_a[k]`` and
    ``ids_b[k]`` name the k-th pair, and ``proximity``, ``present``,
    ``aggregate_proximity`` and ``aggregate_distance`` hold its scores.

    Indexing or iterating builds :class:`ProximityBreakdown` objects on
    demand; writers read the columns directly.
    """

    def __init__(self, scores: PairScores, rows: np.ndarray, cols: np.ndarray):
        self.ids_a = tuple(map(scores.ids_a.__getitem__, rows.tolist()))
        self.ids_b = tuple(map(scores.ids_b.__getitem__, cols.tolist()))
        super().__init__(
            {n: p[rows, cols] for n, p in scores.proximity.items()},
            {n: m[rows, cols] for n, m in scores.present.items()},
            scores.aggregate_proximity[rows, cols],
            scores.aggregate_distance[rows, cols],
        )

    def __len__(self) -> int:
        return len(self.ids_a)

    def _locate(self, k: int):
        return (self.ids_a[k], self.ids_b[k]), k


collections.abc.Sequence.register(_ScoreColumns)


def _id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's place among the distinct ids in Python's sort order."""
    place = {x: r for r, x in enumerate(sorted(set(ids)))}
    return np.array([place[x] for x in ids], dtype=np.int64)


def candidates(
    breakdowns: Iterable[ProximityBreakdown], threshold: float
) -> Sequence[ProximityBreakdown]:
    """Pairs whose aggregate proximity exceeds the threshold, most similar first.

    Ties are broken by the pair's identifier tuple.  Given a
    :class:`PairScores`, the kept cells are ranked with one ``np.lexsort`` and
    returned as a :class:`RankedCandidates` view; any other iterable gives a list.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    if isinstance(breakdowns, PairScores):
        flat = breakdowns.aggregate_proximity.ravel()
        keep = np.flatnonzero(flat > threshold)
        rows, cols = np.divmod(keep, len(breakdowns.ids_b))
        # lexsort's last key is the primary one.
        order = np.lexsort((_id_ranks(breakdowns.ids_b)[cols], _id_ranks(breakdowns.ids_a)[rows], -flat[keep]))
        return RankedCandidates(breakdowns, rows[order], cols[order])
    keep = [b for b in breakdowns if b.aggregate_proximity > threshold]
    return sorted(keep, key=lambda b: (-b.aggregate_proximity, b.pair))
