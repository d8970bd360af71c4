"""Independent oracles used by the tests.

These deliberately avoid the library's own computation paths: interval
probabilities are estimated by Monte-Carlo sampling, possibilities by a dense
grid search over an independent (clipped min-of-lines) membership formula
and integer-grid ones by a walk over the whole joint support,
whole-pair scores by composing the scalar functions one pair at a time in
place of the columnar engine, ``pairs.csv`` and the candidate ranking one
breakdown at a time in place of the columnar writer and ``np.lexsort``,
dataset files by reading one record and one feature at a time in place of
the columnar reader, and ``scene.svg`` one point at a time in place of the
column renderer.  ``object_run`` builds a run from objects, the form
the scalar oracles read.
"""

from __future__ import annotations

import csv
import io
import math

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
from iomatch.dataio import DataError, breakdown_header, dataset_header
from iomatch.engine import MatchRun
from iomatch.model import (
    Certainty,
    Dataset,
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
from iomatch.svgplot import _MARGIN, _SOURCE_COLORS, _WIDTH, SVG_GENERATOR


def object_run(schema: Schema, profiles, objects_a, objects_b, *args, **kwargs) -> MatchRun:
    """A :class:`MatchRun` over two datasets built from objects by ``Dataset.from_objects``."""
    return MatchRun(
        schema, profiles, Dataset.from_objects(objects_a, schema), Dataset.from_objects(objects_b, schema), *args, **kwargs
    )


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


def support_walk_possibility(m1: FuzzyMembership, m2: FuzzyMembership) -> float:
    """Integer-grid max-min walked over every integer of the joint support,
    each Gaussian's reaching 8.5 spreads from its peak."""
    lo1, hi1 = m1.support
    lo2, hi2 = m2.support
    lo, hi = math.floor(min(lo1, lo2)), math.ceil(max(hi1, hi2))
    return max(min(m1.evaluate(g), m2.evaluate(g)) for g in range(lo, hi + 1))


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
    return 3.0 * min(p.accuracy[feature.name].resolved_sigma() for p in profiles)


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
        sigma_a = profile_a.accuracy[feature.name].resolved_sigma()
        sigma_b = profile_b.accuracy[feature.name].resolved_sigma()
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
        weights = [schema.feature(n).weight for n in names]
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


# --- breakdown-by-breakdown references for the columnar writer and ranking --------


def csv_writer_bytes(breakdowns, schema: Schema) -> bytes:
    """pairs.csv as csv.writer writes it, one row of float reprs per breakdown."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(breakdown_header(schema))
    for b in breakdowns:
        row = list(b.pair)
        for score in map(b.per_feature.get, schema.names):
            row += ["", ""] if score is None else [repr(score.proximity), repr(score.distance)]
        writer.writerow(row + [repr(b.aggregate_proximity), repr(b.aggregate_distance)])
    return out.getvalue().encode()


def ranked_breakdowns(breakdowns, threshold: float) -> list:
    """The breakdowns above ``threshold`` that share a feature, most similar
    first, ties by pair."""
    kept = [b for b in breakdowns if b.aggregate_proximity > threshold and b.per_feature]
    return sorted(kept, key=lambda b: (-b.aggregate_proximity, b.pair))


# --- record-by-record reference for the columnar CSV reader -----------------------


def _parse_value(kind: FeatureKind, text: str):
    if kind is FeatureKind.NOMINAL:
        return text
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def read_objects_by_record(path, schema: Schema) -> list[InformationObject]:
    """A dataset CSV read one record at a time, each record one feature at a
    time, through a dict per record as ``csv.DictReader`` builds it.  Fully
    blank lines are skipped; a header naming a column twice, and a record of
    another width than the header, are rejected; errors name the physical
    line on which the record starts."""
    value_columns = {
        f.name: [f"{f.name}_{axis}" for axis in f.axes] if f.axes else [f.name] for f in schema.features
    }
    objects: list[InformationObject] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty dataset file")
        duplicates = sorted({c for c in header if header.count(c) > 1}, key=header.index)
        if duplicates:
            raise DataError(f"{path}: duplicate columns {duplicates}")
        required = ["object_id", "source_id", *(c for f in schema.features for c in value_columns[f.name])]
        missing = [c for c in required if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        unknown = [c for c in header if c not in dataset_header(schema)]
        if unknown:
            raise DataError(f"{path}: unknown columns {unknown}")
        end = reader.line_num
        for fields in reader:
            line, end = end + 1, reader.line_num
            if not fields:
                continue
            if len(fields) != len(header):
                raise DataError(f"{path}:{line}: expected {len(header)} fields, found {len(fields)}")
            row = dict(zip(header, fields))
            values: dict[str, FeatureValue] = {}
            for f in schema.features:
                cells = [row[c] for c in value_columns[f.name]]
                if all(cell.strip() == "" for cell in cells):
                    continue
                if any(cell.strip() == "" for cell in cells):
                    raise DataError(f"{path}:{line}: partial value for feature {f.name!r}")
                try:
                    parsed = [_parse_value(f.kind, cell.strip()) for cell in cells]
                except ValueError as exc:
                    raise DataError(f"{path}:{line}: bad value for {f.name!r}: {exc}") from exc
                certainty_text = row.get(f"{f.name}_certainty", "").strip()
                try:
                    certainty = Certainty.from_label(certainty_text) if certainty_text else Certainty.CERTAIN
                except ValueError as exc:
                    raise DataError(f"{path}:{line}: bad certainty for {f.name!r}: {exc}") from exc
                values[f.name] = FeatureValue(tuple(parsed) if f.axes else parsed[0], certainty)
            objects.append(InformationObject(row["object_id"], row["source_id"], values))
    return objects


# --- point-by-point reference for the column SVG renderer --------------------------


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_match_svg_by_point(area, datasets, candidate_links, title: str = "") -> str:
    """``svgplot.render_match_svg`` drawn one point and one candidate at a
    time in Python float arithmetic, each coordinate by its own f-string."""
    area_w, area_h = area
    scale = (_WIDTH - 2.0 * _MARGIN) / max(area_w, 1e-9)
    height = 2.0 * _MARGIN + area_h * scale

    def px(x: float) -> float:
        return _MARGIN + x * scale

    def py(y: float) -> float:
        return _MARGIN + (area_h - y) * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- generator: {SVG_GENERATOR} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{_fmt(_MARGIN)}" y="{_fmt(_MARGIN)}" width="{_fmt(area_w * scale)}" '
        f'height="{_fmt(area_h * scale)}" fill="none" stroke="#888888" stroke-width="1"/>',
    ]
    if title:
        lines.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_MARGIN / 2)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for (ax, ay), (bx, by), mismatch in zip(*(column.tolist() for column in candidate_links)):
        # Halved before the sum and hypot for the radius: finite huge positions must not overflow.
        cx, cy = px(ax / 2.0 + bx / 2.0), py(ay / 2.0 + by / 2.0)
        half = math.hypot(px(ax) - px(bx), py(ay) - py(by)) / 2.0
        r = half + 9.0
        lines.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            'fill="#f5d76e" fill-opacity="0.35" stroke="#b8860b" stroke-width="1"/>'
        )
        if mismatch:
            lines.append(
                f'<rect x="{_fmt(cx - r - 4.0)}" y="{_fmt(cy - r - 4.0)}" '
                f'width="{_fmt(2.0 * (r + 4.0))}" height="{_fmt(2.0 * (r + 4.0))}" '
                'fill="none" stroke="#222222" stroke-width="1.5"/>'
            )
    for index, (source_id, positions) in enumerate(datasets):
        color = _SOURCE_COLORS[index % len(_SOURCE_COLORS)]
        for x, y in positions.tolist():
            cx, cy = px(x), py(y)
            if index == 0:
                lines.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" fill="{color}"/>')
            else:
                lines.append(
                    f'<path d="M {_fmt(cx)} {_fmt(cy - 5.0)} L {_fmt(cx + 5.0)} {_fmt(cy)} '
                    f'L {_fmt(cx)} {_fmt(cy + 5.0)} L {_fmt(cx - 5.0)} {_fmt(cy)} Z" fill="{color}"/>'
                )
        lines.append(
            f'<text x="{_fmt(_MARGIN)}" y="{_fmt(height - _MARGIN / 2.0 + 12.0 * index)}" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{source_id}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
