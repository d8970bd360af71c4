"""Pairwise proximity evaluation over two cross-source datasets.

The engine's input is two columnar datasets (:class:`~iomatch.model.Dataset`),
each built for the run's schema; :meth:`Dataset.from_objects` builds one
from objects.  Validation reads the columns: the payload violations a
dataset carries, duplicate ids, mixed or missing source profiles, a dataset
built for another schema, and then, in one walk over each quantitative and
ordinal column, the values the kernels cannot score: values that are not
finite, ordinal certainties that are not a :class:`~iomatch.model.Certainty`
level, triangular supports that are not finite or collapse onto their rank,
Gaussian ranks or spreads beyond ``fuzzy.GAUSSIAN_LIMIT``, and three-sigma
windows that collapse onto their value.

Every feature is scored for a list of pair cells at once: a kernel turns the
two datasets' columns at those cells into 1-D proximities, a presence mask
says where both objects hold the feature, and aggregation folds those
columns through one weight resolver and two kernels (a weighted geometric
product and a weighted sum of distances).  The result stays columnar; a
:class:`ProximityBreakdown` is built only where one is read.  The scalar
functions in ``quant``, ``fuzzy`` and ``aggregate`` define the same numbers
one pair at a time and serve as the test reference.

Exact blocking decides which cells are scored.  A quantitative proximity is
exactly 0 when the two three-sigma windows miss on some axis (``lo_a >
hi_b`` or ``lo_b > hi_a``), and under the multiplicative convolution a
feature whose weight is positive in every pair then makes the whole pair
(0, 1).  So under that method only, the pairs whose windows miss on such a
feature are pruned: a sort-and-sweep on one blocking axis finds the
candidates, and every blocking axis filters them with the same float tests
the kernel applies.  A pair where either object lacks the feature is kept.
The additive family never reaches 0 that way, so it scores every pair.
:class:`PairScores` stores the scored cells and implies the pruned ones
(aggregate (0, 1), each feature what its kernel gives), so it, ``pairs.csv``
and the breakdowns still cover every pair.
"""

from __future__ import annotations

import collections.abc
import functools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import aggregate as agg
from . import quant
from .fuzzy import (
    IdentificationPowerWarning,
    gaussian_violation,
    gaussian_within_range,
    triangular_support_holds,
    triangular_violation,
)
from .model import (
    MAX_NOMINAL_DELTA,
    Certainty,
    Dataset,
    FeatureColumn,
    FeatureKind,
    FeatureSchema,
    FeatureScore,
    InformationObject,
    MembershipShape,
    OrdinalAccuracy,
    ProximityBreakdown,
    QuantAccuracy,
    Schema,
    SourceProfile,
    ValidationError,
    non_finite_violation,
    profile_violations,
    schema_violations,
)

THREE_SIGMA = 3.0

# The candidate threshold where a run or a configuration names none.
DEFAULT_THRESHOLD = 0.01

# The membership heights an ordinal value may have.
_CERTAINTY_LEVELS = np.array([level.value for level in Certainty])

_SQRT2 = math.sqrt(2.0)


class MatchRunError(ValidationError):
    """Raised when a run's configuration or data violates the schema."""


@dataclass(frozen=True)
class MatchRun:
    """One matching task: schema, source accuracies, two datasets, aggregation.

    Each dataset is a :class:`Dataset`; anything else raises ``TypeError``.
    A dataset built for another schema is a violation of the run.
    """

    schema: Schema
    profiles: Mapping[str, SourceProfile]
    dataset_a: Dataset
    dataset_b: Dataset
    aggregation: agg.AggregationSpec = agg.AggregationSpec()
    candidate_threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        for side in ("dataset_a", "dataset_b"):
            data = getattr(self, side)
            if not isinstance(data, Dataset):
                raise TypeError(f"{side} must be a Dataset, got {type(data).__name__}")


def run_violations(run: MatchRun) -> list[str]:
    """Collect every configuration and per-object violation of a run."""
    errors = list(schema_violations(run.schema.features))
    for profile in run.profiles.values():
        errors.extend(profile_violations(profile, run.schema))
    if not 0.0 <= run.candidate_threshold <= 1.0:
        errors.append(f"candidate threshold {run.candidate_threshold} outside [0, 1]")
    for label, dataset in (("A", run.dataset_a), ("B", run.dataset_b)):
        sources = set(dataset.source_ids)
        if len(sources) > 1:
            errors.append(f"dataset {label} mixes source ids {sorted(sources)}")
        for sid in sorted(sources):
            if sid not in run.profiles:
                errors.append(f"dataset {label}: no profile for source {sid!r}")
        # Ids key every report and candidate lookup, so each names one object.
        if len(set(dataset.ids)) < len(dataset.ids):
            for oid, count in Counter(dataset.ids).items():
                if count > 1:
                    errors.append(f"dataset {label}: object id {oid!r} appears {count} times")
        if dataset.schema != run.schema:
            errors.append(f"dataset {label} was built for another schema")
            continue
        # Per object: its payload violations (check 0), then its column checks.
        found = [(i, 0, message) for i, message in dataset.violations] + _column_violations(dataset, run)
        errors.extend(message for *_, message in sorted(found, key=lambda v: v[:2]))
    a_sources, b_sources = set(run.dataset_a.source_ids), set(run.dataset_b.source_ids)
    if a_sources and a_sources == b_sources:
        errors.append("both datasets reference the same source id")
    errors.extend(agg.weight_violations(run.schema, run.aggregation))
    return errors


def _relative_k(feature: FeatureSchema, profile: SourceProfile) -> float | None:
    acc = profile.accuracy.get(feature.name)
    return acc.relative_k if isinstance(acc, OrdinalAccuracy) else None


def _width(feature: FeatureSchema, profile: SourceProfile) -> float | None:
    """The source's half-width or Gaussian spread, else the schema's."""
    acc = profile.accuracy.get(feature.name)
    return acc.width if isinstance(acc, OrdinalAccuracy) and acc.width is not None else feature.ordinal_params.width


def _supports(feature: FeatureSchema, profile: SourceProfile, column: FeatureColumn) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of every rank's triangular support, -1 and 1 where absent:
    ROUND(rank * (1 -+ k)) under a relative k, as
    ``fuzzy.triangular_from_relative_error`` rounds them (halves away from
    zero), else rank -+ width.  A bound may overflow to infinity."""
    k = _relative_k(feature, profile)
    ranks = column.values[:, 0]
    with np.errstate(over="ignore"):
        if k is None:
            width = _width(feature, profile)
            lo, hi = ranks - width, ranks + width
        else:
            bounds = ranks * (1.0 - k), ranks * (1.0 + k)
            lo, hi = (np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5)) for x in bounds)
    return np.where(column.present, lo, -1.0), np.where(column.present, hi, 1.0)


def _window_bounds(values: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """(v - 3 sigma, v + 3 sigma) of every value: the engine's one window
    rule.  A window past the float range ends at +-inf, as in the scalar path."""
    half = THREE_SIGMA * sigma
    with np.errstate(over="ignore"):
        return values - half, values + half


def _column_violations(dataset: Dataset, run: MatchRun) -> list[tuple[int, int, str]]:
    """(object index, check, message) of every present quantitative or
    ordinal value the kernels cannot score, in one walk over the columns (a
    dataset built from columns is not checked when made).  The checks follow
    the payload's (0), each in feature order, one message per object and
    feature at most:

    1. a value that is not finite, or an ordinal certainty (the membership
       height) that is not a :class:`Certainty` level;
    2. a support that fails ``fuzzy.triangular_support_holds``, the scalar
       constructors' rule, or a Gaussian rank outside
       ``fuzzy.gaussian_within_range``;
    3. a three-sigma window that collapses onto its value on some axis, so
       the overlap would score a silent 0 (one that overflows to infinity
       does not); the message names the first such axis's value.

    Checks 2 and 3 skip a source whose accuracy the schema or profile check
    rejects, as that check reports it."""
    found = []
    source_ids = np.array(dataset.source_ids, dtype=object)
    sources = [
        (sid, run.profiles[sid], source_ids == sid) for sid in dict.fromkeys(dataset.source_ids) if sid in run.profiles
    ]
    for feature in (f for f in dataset.schema.features if f.kind is not FeatureKind.NOMINAL):
        column, name, params = dataset.columns[feature.name], feature.name, feature.ordinal_params
        values, ranks = column.values, column.ranks
        finite = np.isfinite(values).all(axis=1)
        held = column.present & finite
        if feature.kind is FeatureKind.ORDINAL_FUZZY:
            held &= (column.certainty[:, None] == _CERTAINTY_LEVELS).any(axis=1)
        for i in np.flatnonzero(column.present & ~held).tolist():
            message = non_finite_violation(feature) if not finite[i] else "expected a Certainty"
            found.append((i, 1, f"{dataset.ids[i]}/{name}: {message}"))
        if feature.kind is FeatureKind.QUANTITATIVE:
            for sid, profile, own in sources:
                # Only a positive sigma, given or from a positive delta_max: the profile check reports the rest.
                acc = profile.accuracy.get(name)
                if not isinstance(acc, QuantAccuracy) or acc.sigma is None and not (acc.delta_max or 0.0) > 0.0:
                    continue
                if not (sigma := acc.resolved_sigma()) > 0.0:
                    continue
                with np.errstate(invalid="ignore"):  # a non-finite value, reported above, may give a NaN bound
                    lo, hi = _window_bounds(values, sigma)
                collapsed = ~((lo < values) & (values < hi))
                for i in np.flatnonzero(held & own & collapsed.any(axis=1)).tolist():
                    value = values[i, np.argmax(collapsed[i])].item()
                    found.append((i, 3, f"{dataset.ids[i]}/{name}: sigma {sigma} of source {sid!r} "
                                        f"collapses the three-sigma window of {value!r} onto the value itself"))
        elif params is not None:
            gaussian = params.shape is MembershipShape.GAUSSIAN
            for sid, profile, own in sources:
                k, width = _relative_k(feature, profile), _width(feature, profile)
                if not (0.0 < k < 1.0 and not gaussian if k is not None else width is not None and width > 0.0):
                    continue
                if gaussian:
                    for i in np.flatnonzero(held & own & ~gaussian_within_range(values[:, 0], width)).tolist():
                        found.append((i, 2, f"{dataset.ids[i]}/{name}: {gaussian_violation(ranks[i], width)}"))
                    continue
                lo, hi = _supports(feature, profile, column)
                rule = f"relative k {k} of source {sid!r} rounds" if k is not None else f"half-width {width} collapses"
                for i in np.flatnonzero(held & own & ~triangular_support_holds(lo, values[:, 0], hi)).tolist():
                    collapsed = f"{rule} the support of rank {ranks[i]} onto the rank itself"
                    message = triangular_violation(lo[i], ranks[i], hi[i], collapsed)
                    found.append((i, 2, f"{dataset.ids[i]}/{name}: {message}"))
    return found


def _run_xi(feature: FeatureSchema, profiles: Iterable[SourceProfile]) -> float:
    """Confidence half-window of a feature for the whole run: the explicit xi,
    or three times the smallest sigma among all configured sources."""
    if feature.quantitative_xi is not None:
        return feature.quantitative_xi
    return THREE_SIGMA * min(p.quantitative_sigma(feature.name) for p in profiles)


# --- per-feature kernels ------------------------------------------------------
#
# A feature's kernel scores any cells, each given by its row in dataset A and
# its column in dataset B: ``kernel(rows, cols)`` is the proximity of those
# cells, in the shape the two index arrays broadcast to (1-D lists of cells,
# or an (n_a, 1) and a (1, n_b) range for the whole grid).  Absent values are
# filled with harmless placeholders; the presence mask removes them later.
# ``kernel(rows, cols, wanted)`` may leave the cells outside the mask
# ``wanted`` unscored (0): the quantitative kernel, whose Phi terms cost a
# ``math.erf`` call each, does so.


# Phi(-3) and Phi(3), computed as quant.standard_normal_cdf computes them.
_PHI_AT_THREE = quant.standard_normal_cdf(-THREE_SIGMA), quant.standard_normal_cdf(THREE_SIGMA)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi elementwise, bit for bit quant.standard_normal_cdf.

    Where an overlap end is a report's own window end, its argument is
    exactly -3 or 3, about half the terms on the bench workloads; those read
    ``_PHI_AT_THREE``, and ``math.erf`` maps only over the other arguments."""
    low, high = x == -THREE_SIGMA, x == THREE_SIGMA
    phi = np.where(low, _PHI_AT_THREE[0], _PHI_AT_THREE[1])
    other = ~(low | high)
    z = (x[other] / _SQRT2).tolist()
    phi[other] = 0.5 * (1.0 + np.fromiter(map(math.erf, z), float, len(z)))
    return phi


def _interval_probability(value, sigma: float, c, d) -> np.ndarray:
    lo = _normal_cdf((c - value) / sigma)
    hi = _normal_cdf((d - value) / sigma)
    return np.minimum(1.0, np.maximum(0.0, hi - lo))


@dataclass(frozen=True)
class _Windows:
    """A quantitative feature's values and three-sigma windows, ``(n, axes)`` per side."""

    va: np.ndarray
    vb: np.ndarray
    lo_a: np.ndarray
    hi_a: np.ndarray
    lo_b: np.ndarray
    hi_b: np.ndarray

    @classmethod
    def of(cls, va: np.ndarray, sigma_a: float, vb: np.ndarray, sigma_b: float) -> "_Windows":
        return cls(va, vb, *_window_bounds(va, sigma_a), *_window_bounds(vb, sigma_b))

    def meet(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Whether the windows of each cell overlap on every axis:
        ``lo_a <= hi_b`` and ``lo_b <= hi_a``.  This is the engine's one
        window test; blocking and the kernel both apply it."""
        meet = True
        for axis in range(self.va.shape[1]):
            meet = meet & (self.lo_a[rows, axis] <= self.hi_b[cols, axis])
            meet = meet & (self.lo_b[cols, axis] <= self.hi_a[rows, axis])
        return meet


def _quantitative_column(
    windows: _Windows, has_a, has_b, sigma_a: float, sigma_b: float, xi: float, rows, cols, wanted=True
) -> np.ndarray:
    """Per-axis joint three-sigma overlap probability times the confidence
    coefficient, multiplied over the axes.

    The probabilities are computed only where both values are present, every
    axis's windows overlap and the cell is ``wanted``; elsewhere the
    proximity is 0.
    """
    live = has_a[rows] & has_b[cols] & wanted & windows.meet(rows, cols)
    proximity = np.zeros(live.shape)
    if not live.any():
        return proximity
    i, j = (np.broadcast_to(x, live.shape)[live] for x in (rows, cols))
    coefficient = quant.confidence_coefficient(sigma_a, sigma_b, xi)
    values = np.ones(len(i))
    for axis in range(windows.va.shape[1]):
        a, b = windows.va[i, axis], windows.vb[j, axis]
        c = np.maximum(windows.lo_a[i, axis], windows.lo_b[j, axis])
        d = np.minimum(windows.hi_a[i, axis], windows.hi_b[j, axis])
        p_a = _interval_probability(a, sigma_a, c, d)
        p_b = _interval_probability(b, sigma_b, c, d)
        values = values * (p_a * p_b * coefficient)
    proximity[live] = values
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
    with np.errstate(over="ignore", invalid="ignore"):
        g = (h1 * hi1 * run2 + h2 * lo2 * run1) / (h1 * run2 + h2 * run1)
    # Near the float range the products overflow: g is also the mean of hi1
    # and lo2 weighted h1 * run2 : h2 * run1, which stays finite with the
    # runs scaled by their larger one.
    huge = np.flatnonzero(~np.isfinite(g))
    if len(huge):
        scale = np.maximum(run1[huge], run2[huge])
        w1, w2 = h1[huge] * (run2[huge] / scale), h2[huge] * (run1[huge] / scale)
        t = w2 / (w1 + w2)
        g[huge] = (1.0 - t) * hi1[huge] + t * lo2[huge]
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


def _ordinal_column(side_a, width_a: float, side_b, width_b: float, gaussian: bool, rows, cols, wanted=True) -> np.ndarray:
    """Possibility of two memberships, each side given as (lo, peak, hi, height) columns."""
    side_a = tuple(c[rows] for c in side_a)
    side_b = tuple(c[cols] for c in side_b)
    if gaussian:
        return _gaussian_possibility(side_a[1], side_a[3], width_a, side_b[1], side_b[3], width_b)
    return _triangular_possibility(side_a, side_b)


def _nominal_column(codes_a, codes_b, delta: float, rows, cols, wanted=True) -> np.ndarray:
    return np.where(codes_a[rows] == codes_b[cols], 1.0, delta)


def _ordinal_memberships(feature: FeatureSchema, profile: SourceProfile, column: FeatureColumn):
    """(lo, peak, hi, height) arrays of one side's memberships, and the width
    (half-width or Gaussian spread) the side uses; lo and hi are unused for
    Gaussians, and absent values get a placeholder triangle."""
    lo, hi = _supports(feature, profile, column)
    return (lo, column.values[:, 0], hi, column.certainty), _width(feature, profile)


def _nominal_codes(column_a: FeatureColumn, column_b: FeatureColumn) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' labels as integer codes, equal exactly where both are
    present and their labels are; -1 and -2 where absent.  A label's code is
    its first-seen position over A's held labels, then B's, looked up in a
    dict: codes are compared only for equality, so they need no sort."""
    held_a, held_b = column_a.values[column_a.present].tolist(), column_b.values[column_b.present].tolist()
    index = {label: k for k, label in enumerate(dict.fromkeys(held_a + held_b))}
    codes_a, codes_b = np.full(len(column_a.present), -1), np.full(len(column_b.present), -2)
    codes_a[column_a.present] = np.fromiter(map(index.__getitem__, held_a), dtype=codes_a.dtype, count=len(held_a))
    codes_b[column_b.present] = np.fromiter(map(index.__getitem__, held_b), dtype=codes_b.dtype, count=len(held_b))
    return codes_a, codes_b


@dataclass(frozen=True)
class _FeatureSides:
    """One feature's inputs from both datasets: which objects hold it, the
    kernel that scores any cells, and, for a quantitative feature, its windows."""

    has_a: np.ndarray
    has_b: np.ndarray
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    windows: _Windows | None = None

    def present(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.has_a[rows] & self.has_b[cols]


def _feature_sides(run: MatchRun, feature: FeatureSchema, profile_a, profile_b) -> _FeatureSides:
    column_a, column_b = run.dataset_a.columns[feature.name], run.dataset_b.columns[feature.name]
    has_a, has_b = column_a.present, column_b.present
    if feature.kind is FeatureKind.QUANTITATIVE:
        sigma_a = profile_a.quantitative_sigma(feature.name)
        sigma_b = profile_b.quantitative_sigma(feature.name)
        windows = _Windows.of(column_a.values, sigma_a, column_b.values, sigma_b)
        xi = _run_xi(feature, run.profiles.values())
        kernel = functools.partial(_quantitative_column, windows, has_a, has_b, sigma_a, sigma_b, xi)
        return _FeatureSides(has_a, has_b, kernel, windows)
    if feature.kind is FeatureKind.ORDINAL_FUZZY:
        side_a, width_a = _ordinal_memberships(feature, profile_a, column_a)
        side_b, width_b = _ordinal_memberships(feature, profile_b, column_b)
        gaussian = feature.ordinal_params.shape is MembershipShape.GAUSSIAN
        kernel = functools.partial(_ordinal_column, side_a, width_a, side_b, width_b, gaussian)
        return _FeatureSides(has_a, has_b, kernel)
    if feature.nominal_delta == MAX_NOMINAL_DELTA and has_a.any() and has_b.any():
        warnings.warn(
            "delta = 0.5 makes a nominal match indistinguishable from a mismatch",
            IdentificationPowerWarning,
            stacklevel=3,
        )
    codes_a, codes_b = _nominal_codes(column_a, column_b)
    return _FeatureSides(has_a, has_b, functools.partial(_nominal_column, codes_a, codes_b, feature.nominal_delta))


# --- blocking -----------------------------------------------------------------
#
# A quantitative proximity is exactly 0 where the three-sigma windows miss on
# an axis, and under the multiplicative convolution a factor of 0 with a
# positive weight makes the whole pair (0, 1).  Such cells need no scoring:
# they are pruned, and the results imply their values.


def _base_weights(schema: Schema, spec: agg.AggregationSpec) -> Mapping[str, float]:
    return spec.feature_weights or {f.name: f.weight for f in schema.features}


def _blocking(run: MatchRun, sides: Mapping[str, _FeatureSides]) -> list[_FeatureSides]:
    """The features that prune: under the multiplicative convolution, the
    quantitative features whose weight is positive in every pair holding them.

    A pair's weight of a feature is its base weight over the sum of the base
    weights of the pair's features; that sum is at most ``total``, so the
    weight is at least ``base / total``.
    """
    if run.aggregation.method is not agg.AggregationMethod.MULTIPLICATIVE:
        return []
    base = _base_weights(run.schema, run.aggregation)
    total = sum(base[n] for n in run.schema.names)
    return [s for n, s in sides.items() if s.windows is not None and base[n] > 0.0 and base[n] / total > 0.0]


def _sweep(sides: _FeatureSides, axis: int, n_b: int):
    """Sort-and-sweep on one axis of a blocking feature.

    Side B's holders are sorted on the axis; ``lo_b`` and ``hi_b`` grow with
    the value, so both are sorted too, and each A window's cells are the run
    ``order[start:start + count]`` of the B windows it meets on that axis.
    Returns the number of candidate cells, objects lacking the feature
    pairing with everything, then ``sides``, ``ia`` (the A holders),
    ``order``, ``start`` and ``counts``.
    """
    w = sides.windows
    ia, ib = np.flatnonzero(sides.has_a), np.flatnonzero(sides.has_b)
    order = ib[np.argsort(w.vb[ib, axis], kind="stable")]
    start = np.searchsorted(w.hi_b[order, axis], w.lo_a[ia, axis], side="left")
    stop = np.searchsorted(w.lo_b[order, axis], w.hi_a[ia, axis], side="right")
    counts = np.maximum(stop - start, 0)
    size = int(counts.sum()) + (len(sides.has_a) - len(ia)) * n_b + len(ia) * (n_b - len(ib))
    return size, sides, ia, order, start, counts


def _scored_cells(blocking: Sequence[_FeatureSides], n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (rows, cols) of the cells to score: every cell where no
    blocking feature's windows miss.  When nothing blocks they are the whole
    grid, given as an (n_a, 1) and a (1, n_b) range that broadcast.

    The candidates come from the sweep of the blocking axis that yields the
    fewest; every blocking axis then filters them with the window test.
    """
    if not blocking:
        return np.arange(n_a)[:, None], np.arange(n_b)[None, :]
    sweeps = [_sweep(sides, axis, n_b) for sides in blocking for axis in range(sides.windows.va.shape[1])]
    _, sides, ia, order, start, counts = min(sweeps, key=lambda sweep: sweep[0])
    at = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - start, counts)
    lack_a, lack_b = np.flatnonzero(~sides.has_a), np.flatnonzero(~sides.has_b)
    rows = np.concatenate([np.repeat(ia, counts), np.repeat(lack_a, n_b), np.repeat(ia, len(lack_b))])
    cols = np.concatenate([order[at], np.tile(np.arange(n_b), len(lack_a)), np.tile(lack_b, len(ia))])
    keep = np.ones(len(rows), dtype=bool)
    for s in blocking:
        keep &= ~s.present(rows, cols) | s.windows.meet(rows, cols)
    return np.divmod(np.sort(rows[keep] * n_b + cols[keep]), n_b)


# --- aggregation --------------------------------------------------------------


def _pair_weights(
    schema: Schema, spec: agg.AggregationSpec, present: Mapping[str, np.ndarray], shape: tuple[int, ...]
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
    zero = np.zeros(shape)
    quantitative = {n: schema.feature(n).kind is FeatureKind.QUANTITATIVE for n in present}
    count = sum(present.values(), zero)
    n_quant = sum((m for n, m in present.items() if quantitative[n]), zero)
    n_qual = count - n_quant
    with np.errstate(divide="ignore", invalid="ignore"):
        if method in (agg.AggregationMethod.MULTIPLICATIVE, agg.AggregationMethod.WEIGHTED_ADDITIVE):
            base = _base_weights(schema, spec)
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
    shape: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """(aggregate proximity, aggregate distance) of every pair, complements of
    each other; a pair with no shared feature scores (1, 0), never a candidate."""
    weights = _pair_weights(schema, spec, present, shape)
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

# Cells per block when PairScores is iterated.
_ITER_CELLS = 8192


def _read_only(columns):
    for column in columns.values() if isinstance(columns, dict) else (columns,):
        column.flags.writeable = False
    return columns


def _breakdown(pair, proximity, present, aggregate_proximity, aggregate_distance, at) -> ProximityBreakdown:
    """The breakdown of the cell ``at`` of the given columns."""
    return ProximityBreakdown(
        pair=pair,
        per_feature={n: FeatureScore.from_proximity(float(p[at])) for n, p in proximity.items() if present[n][at]},
        aggregate_proximity=float(aggregate_proximity[at]),
        aggregate_distance=float(aggregate_distance[at]),
    )


class _ScoreColumns(collections.abc.Sequence):
    """Scores of some cells of a pair grid held as read-only 1-D columns:
    ``rows[k]`` and ``cols[k]`` index the k-th cell's pair into the grid's
    ids, ``grid_ids``, and ``proximity`` and ``present`` (per feature),
    ``aggregate_proximity`` and ``aggregate_distance`` hold its scores.
    Indexing builds a :class:`ProximityBreakdown`."""

    def __init__(
        self,
        grid_ids: tuple[Sequence[str], Sequence[str]],
        rows: np.ndarray,
        cols: np.ndarray,
        proximity: Mapping[str, np.ndarray],
        present: Mapping[str, np.ndarray],
        aggregate_proximity: np.ndarray,
        aggregate_distance: np.ndarray,
    ):
        self.grid_ids, self.rows, self.cols = grid_ids, _read_only(rows), _read_only(cols)
        self.proximity, self.present = _read_only(dict(proximity)), _read_only(dict(present))
        self.aggregate_proximity = _read_only(aggregate_proximity)
        self.aggregate_distance = _read_only(aggregate_distance)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = range(len(self))[index]
        pair = (self.grid_ids[0][self.rows[k]], self.grid_ids[1][self.cols[k]])
        return _breakdown(pair, self.proximity, self.present, self.aggregate_proximity, self.aggregate_distance, k)


class PairScores:
    """Breakdowns of every cross-source pair, dataset A outer and B inner:
    an ``(n_a, n_b)`` grid whose ``len`` is its size.

    Only the scored cells are stored: ``cells`` holds their row-major
    ``rows`` and ``cols`` and their scores.  A cell that blocking pruned is
    implied: each feature scores what its kernel gives for it (``sides``
    keeps every feature's per-side inputs), and its aggregate is (0.0, 1.0).
    :meth:`block` lays whole rows of the grid out as dense columns;
    ``aggregate_proximity`` and ``aggregate_distance`` are the whole
    read-only grid, built on first use.

    :meth:`breakdown` builds the :class:`ProximityBreakdown` of one pair,
    and iterating builds every pair's, a block of rows at a time.
    """

    def __init__(
        self,
        ids_a: Sequence[str],
        ids_b: Sequence[str],
        sides: Mapping[str, _FeatureSides],
        rows: np.ndarray,
        cols: np.ndarray,
        proximity: Mapping[str, np.ndarray],
        present: Mapping[str, np.ndarray],
        aggregate_proximity: np.ndarray,
        aggregate_distance: np.ndarray,
    ):
        self.ids_a, self.ids_b = tuple(ids_a), tuple(ids_b)
        self.sides = dict(sides)
        self.cells = _ScoreColumns(
            (self.ids_a, self.ids_b), rows, cols, proximity, present, aggregate_proximity, aggregate_distance
        )

    def __len__(self) -> int:
        return len(self.ids_a) * len(self.ids_b)

    def _dense(self, column: np.ndarray, implied, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` of the pair grid: ``column``'s stored cells
        laid over ``implied``, the pruned cells' value or a block of values."""
        cells = self.cells
        lo, hi = np.searchsorted(cells.rows, (start, stop))
        block = np.full((stop - start, len(self.ids_b)), implied)
        block[cells.rows[lo:hi] - start, cells.cols[lo:hi]] = column[lo:hi]
        return block

    def block(self, start: int, stop: int):
        """Rows ``start:stop`` of the pair grid as dense ``(rows, n_b)``
        arrays: (proximity per feature, present per feature, aggregate
        proximity, aggregate distance).

        Where the rows hold pruned cells, each feature's kernel scores the
        block with the pruned cells ``wanted``, and the stored cells take
        their stored scores."""
        stop = min(stop, len(self.ids_a))
        rows, cols = np.arange(start, stop)[:, None], np.arange(len(self.ids_b))[None, :]
        cells = self.cells
        lo, hi = np.searchsorted(cells.rows, (start, stop))
        pruned = np.ones((stop - start, len(self.ids_b)), dtype=bool)
        pruned[cells.rows[lo:hi] - start, cells.cols[lo:hi]] = False
        return (
            {
                n: self._dense(cells.proximity[n], s.kernel(rows, cols, pruned) if hi - lo < pruned.size else 0.0, start, stop)
                for n, s in self.sides.items()
            },
            {n: s.present(rows, cols) for n, s in self.sides.items()},
            self._dense(cells.aggregate_proximity, 0.0, start, stop),
            self._dense(cells.aggregate_distance, 1.0, start, stop),
        )

    @functools.cached_property
    def aggregate_proximity(self) -> np.ndarray:
        return _read_only(self._dense(self.cells.aggregate_proximity, 0.0, 0, len(self.ids_a)))

    @functools.cached_property
    def aggregate_distance(self) -> np.ndarray:
        return _read_only(self._dense(self.cells.aggregate_distance, 1.0, 0, len(self.ids_a)))

    def breakdown(self, i: int, j: int) -> ProximityBreakdown:
        """The breakdown of the pair (``ids_a[i]``, ``ids_b[j]``)."""
        i, j = range(len(self.ids_a))[i], range(len(self.ids_b))[j]
        return _breakdown((self.ids_a[i], self.ids_b[j]), *self.block(i, i + 1), (0, j))

    def __iter__(self) -> Iterator[ProximityBreakdown]:
        names = tuple(self.sides)
        step = max(1, _ITER_CELLS // max(1, len(self.ids_b)))
        for start in range(0, len(self.ids_a), step):
            proximity, present, aggregate_p, aggregate_d = self.block(start, start + step)
            for i, a in enumerate(self.ids_a[start : start + step]):
                rows = [(proximity[n][i].tolist(), present[n][i].tolist()) for n in names]
                agg_p, agg_d = aggregate_p[i].tolist(), aggregate_d[i].tolist()
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
    n_a, n_b = len(run.dataset_a), len(run.dataset_b)
    sides: dict[str, _FeatureSides] = {}
    if n_a and n_b:
        profile_a = run.profiles[run.dataset_a.source_ids[0]]
        profile_b = run.profiles[run.dataset_b.source_ids[0]]
        for feature in run.schema.features:
            sides[feature.name] = _feature_sides(run, feature, profile_a, profile_b)
    rows, cols = _scored_cells(_blocking(run, sides), n_a, n_b)
    proximity = {n: s.kernel(rows, cols).ravel() for n, s in sides.items()}
    present = {n: s.present(rows, cols).ravel() for n, s in sides.items()}
    rows, cols = (np.broadcast_to(x, np.broadcast_shapes(rows.shape, cols.shape)).ravel() for x in (rows, cols))
    aggregate_p, aggregate_d = _aggregate(run.schema, run.aggregation, proximity, present, rows.shape)
    return PairScores(
        run.dataset_a.ids,
        run.dataset_b.ids,
        sides,
        rows,
        cols,
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
    dataset_a, dataset_b = (Dataset.from_objects((x,), schema) for x in (a, b))
    run = MatchRun(schema=schema, profiles=profiles, dataset_a=dataset_a, dataset_b=dataset_b, aggregation=spec)
    return pairwise_breakdowns(run).breakdown(0, 0)


class RankedCandidates(_ScoreColumns):
    """The stored cells of a :class:`PairScores` kept as candidates, most
    similar first, held as read-only 1-D columns in that order: ``ids_a[k]``
    and ``ids_b[k]`` name the k-th pair, ``rows[k]`` and ``cols[k]`` are its
    indices into the ``(n_a, n_b)`` grid of ``scores``, and ``proximity``,
    ``present``, ``aggregate_proximity`` and ``aggregate_distance`` hold its
    scores.

    Indexing or iterating builds :class:`ProximityBreakdown` objects on
    demand; writers read the columns directly.
    """

    def __init__(self, scores: PairScores, keep: np.ndarray):
        """``keep`` indexes the candidates, in rank order, into ``scores.cells``."""
        cells = scores.cells
        self.scores = scores
        super().__init__(
            cells.grid_ids,
            cells.rows[keep],
            cells.cols[keep],
            {n: p[keep] for n, p in cells.proximity.items()},
            {n: m[keep] for n, m in cells.present.items()},
            cells.aggregate_proximity[keep],
            cells.aggregate_distance[keep],
        )
        self.ids_a = tuple(np.array(scores.ids_a, dtype=object)[self.rows].tolist())
        self.ids_b = tuple(np.array(scores.ids_b, dtype=object)[self.cols].tolist())


def _id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's place among the distinct ids in Python's sort order."""
    place = {x: r for r, x in enumerate(sorted(set(ids)))}
    return np.array([place[x] for x in ids], dtype=np.int64)


def candidates(scores: PairScores, threshold: float) -> RankedCandidates:
    """Pairs whose aggregate proximity exceeds the threshold, most similar first.

    A pair sharing no feature, whose group proximity is undefined, is never
    one.  Ties are broken by the pair's identifier tuple: ids are unique per
    dataset, so the places of ``a`` and ``b`` among their sorted ids fold
    into one int64 key, ``place_a * n_b + place_b``, which orders as the
    tuple does.  The cells kept are ranked with one ``np.lexsort`` over that
    key and the proximity, and returned as a :class:`RankedCandidates` view;
    a pruned cell scores 0, which no threshold keeps.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    cells = scores.cells
    shared = functools.reduce(np.logical_or, cells.present.values(), np.zeros(len(cells), dtype=bool))
    keep = np.flatnonzero((cells.aggregate_proximity > threshold) & shared)
    ties = _id_ranks(scores.ids_a)[cells.rows[keep]] * len(scores.ids_b) + _id_ranks(scores.ids_b)[cells.cols[keep]]
    # lexsort's last key is the primary one.
    order = np.lexsort((ties, -cells.aggregate_proximity[keep]))
    return RankedCandidates(scores, keep[order])
