"""Core data model: feature schema, source accuracy profiles, object records,
columnar datasets, results.

Everything here is an immutable value object; instances can be shared freely
across concurrent evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .quant import sigma_from_max_error

WEIGHT_SUM_TOLERANCE = 1e-9
COMPLEMENT_TOLERANCE = 1e-12

# A nominal determination error of 0.5 makes a match and a mismatch
# indistinguishable; anything above that is rejected outright.
MAX_NOMINAL_DELTA = 0.5


class FeatureKind(Enum):
    """How a feature's values are obtained, which fixes its proximity rule."""

    QUANTITATIVE = "quantitative"
    ORDINAL_FUZZY = "ordinal"
    NOMINAL = "nominal"


class MembershipShape(Enum):
    TRIANGULAR = "triangular"
    GAUSSIAN = "gaussian"
    NOMINAL_PLATEAU = "nominal-plateau"


class Certainty(Enum):
    """Linguistic confidence attached to a reported value, on its numeric scale."""

    CERTAIN = 1.0
    PROBABLE = 0.7
    POSSIBLE = 0.5
    DOUBTFUL = 0.25

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Certainty":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown certainty label: {label!r}") from None


@dataclass(frozen=True)
class OrdinalParams:
    """Schema-level fuzzification defaults for an ordinal feature.

    ``width`` is the triangular half-width or the Gaussian spread, in rank
    units; a source profile may override it per source.
    """

    shape: MembershipShape
    width: float | None = None


@dataclass(frozen=True)
class FeatureSchema:
    """Declaration of one feature: kind, aggregation weight, error-model knobs.

    ``axes`` names the components of a composite quantitative feature (for
    example planar coordinates); scalar features leave it unset.
    ``quantitative_xi`` is the fixed half-window used by the confidence
    coefficient; when unset the engine derives it from the most precise
    configured source.
    """

    name: str
    kind: FeatureKind
    weight: float
    quantitative_xi: float | None = None
    nominal_delta: float | None = None
    ordinal_params: OrdinalParams | None = None
    axes: tuple[str, ...] | None = None

    @property
    def arity(self) -> int:
        return len(self.axes) if self.axes else 1


class ValidationError(ValueError):
    """Raised when an input fails validation; ``errors`` holds every violation."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class SchemaError(ValidationError):
    """Raised when a schema or profile fails validation."""


@dataclass(frozen=True)
class Schema:
    """A validated, ordered collection of feature declarations."""

    features: tuple[FeatureSchema, ...]

    def __iter__(self):
        return iter(self.features)

    def __len__(self) -> int:
        return len(self.features)

    def feature(self, name: str) -> FeatureSchema:
        for f in self.features:
            if f.name == name:
                return f
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def quantitative_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features if f.kind is FeatureKind.QUANTITATIVE)


def schema_violations(features: Sequence[FeatureSchema]) -> list[str]:
    """Collect every invariant violation in a feature list (empty list = valid)."""
    errors: list[str] = []
    seen: set[str] = set()
    for f in features:
        if f.name in seen:
            errors.append(f"{f.name}: duplicate feature name")
        seen.add(f.name)
        if not 0.0 <= f.weight <= 1.0:
            errors.append(f"{f.name}: weight {f.weight} outside [0, 1]")
        if f.kind is FeatureKind.NOMINAL:
            if f.nominal_delta is None:
                errors.append(f"{f.name}: nominal feature missing determination error delta")
            elif not 0.0 < f.nominal_delta <= MAX_NOMINAL_DELTA:
                errors.append(
                    f"{f.name}: delta {f.nominal_delta} outside (0, {MAX_NOMINAL_DELTA}]"
                    " (0.5 already loses identification power; larger is meaningless)"
                )
        elif f.nominal_delta is not None:
            errors.append(f"{f.name}: delta only applies to nominal features")
        if f.kind is FeatureKind.QUANTITATIVE:
            if f.quantitative_xi is not None and not f.quantitative_xi > 0.0:
                errors.append(f"{f.name}: xi must be positive")
        elif f.quantitative_xi is not None:
            errors.append(f"{f.name}: xi only applies to quantitative features")
        if f.kind is FeatureKind.ORDINAL_FUZZY:
            if f.ordinal_params is None:
                errors.append(f"{f.name}: ordinal feature missing membership shape")
            else:
                if f.ordinal_params.shape is MembershipShape.NOMINAL_PLATEAU:
                    errors.append(f"{f.name}: ordinal shape must be triangular or gaussian")
                if f.ordinal_params.width is not None and not f.ordinal_params.width > 0.0:
                    errors.append(f"{f.name}: membership width must be positive")
        elif f.ordinal_params is not None:
            errors.append(f"{f.name}: membership shape only applies to ordinal features")
        if f.axes is not None:
            if f.kind is not FeatureKind.QUANTITATIVE:
                errors.append(f"{f.name}: axes only apply to quantitative features")
            elif len(f.axes) == 0 or len(set(f.axes)) != len(f.axes):
                errors.append(f"{f.name}: axes must be non-empty and unique")
    total = sum(f.weight for f in features)
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        errors.append(f"feature weights sum to {total!r}, expected 1")
    return errors


def validate_schema(features: Union[Schema, Sequence[FeatureSchema]]) -> Schema:
    """Return a validated :class:`Schema`, or raise :class:`SchemaError` listing
    every violation.  Validating an already-validated schema returns it unchanged.
    """
    schema = features if isinstance(features, Schema) else Schema(tuple(features))
    errors = schema_violations(schema.features)
    if errors:
        raise SchemaError(errors)
    return schema


@dataclass(frozen=True)
class QuantAccuracy:
    """Per-source accuracy of a quantitative feature: sigma directly, or the
    maximum absolute error from which sigma follows by the three-sigma rule."""

    sigma: float | None = None
    delta_max: float | None = None

    def resolved_sigma(self) -> float:
        if self.sigma is not None:
            return self.sigma
        if self.delta_max is not None:
            return sigma_from_max_error(self.delta_max)
        raise ValueError("no sigma or delta_max configured")


@dataclass(frozen=True)
class OrdinalAccuracy:
    """Per-source accuracy of an ordinal feature: a relative-error coefficient
    (triangular bounds scale with the reported value) or an absolute width in
    rank units (half-width for triangular shapes, spread for Gaussian)."""

    relative_k: float | None = None
    width: float | None = None


@dataclass(frozen=True)
class SourceProfile:
    """Per-source, per-feature accuracy declarations."""

    source_id: str
    accuracy: Mapping[str, Union[QuantAccuracy, OrdinalAccuracy]] = field(default_factory=dict)

    def quantitative_sigma(self, feature_name: str) -> float:
        acc = self.accuracy.get(feature_name)
        if not isinstance(acc, QuantAccuracy):
            raise KeyError(f"{self.source_id}: no quantitative accuracy for {feature_name!r}")
        return acc.resolved_sigma()


def profile_violations(profile: SourceProfile, schema: Schema) -> list[str]:
    """Check a source profile against a schema; returns every violation."""
    errors: list[str] = []
    sid = profile.source_id
    names = set(schema.names)
    for name, acc in profile.accuracy.items():
        if name not in names:
            errors.append(f"{sid}: accuracy given for unknown feature {name!r}")
            continue
        feature = schema.feature(name)
        if feature.kind is FeatureKind.QUANTITATIVE:
            if not isinstance(acc, QuantAccuracy):
                errors.append(f"{sid}/{name}: expected quantitative accuracy")
                continue
            given = [v for v in (acc.sigma, acc.delta_max) if v is not None]
            if len(given) != 1:
                errors.append(f"{sid}/{name}: give exactly one of sigma or delta_max")
            elif not given[0] > 0.0:
                errors.append(f"{sid}/{name}: accuracy must be positive")
            elif not acc.resolved_sigma() > 0.0:  # a delta_max whose sigma underflows
                errors.append(f"{sid}/{name}: sigma must be strictly positive")
        elif feature.kind is FeatureKind.ORDINAL_FUZZY:
            if not isinstance(acc, OrdinalAccuracy):
                errors.append(f"{sid}/{name}: expected ordinal accuracy")
                continue
            given = [v for v in (acc.relative_k, acc.width) if v is not None]
            if len(given) > 1:
                errors.append(f"{sid}/{name}: give at most one of relative_k or width")
            if acc.relative_k is not None:
                if not 0.0 < acc.relative_k < 1.0:
                    errors.append(f"{sid}/{name}: relative_k must lie in (0, 1)")
                if feature.ordinal_params and feature.ordinal_params.shape is MembershipShape.GAUSSIAN:
                    errors.append(f"{sid}/{name}: relative_k requires a triangular shape")
            if acc.width is not None and not acc.width > 0.0:
                errors.append(f"{sid}/{name}: width must be positive")
        else:
            errors.append(f"{sid}/{name}: nominal error lives in the schema, not the profile")
    for name in schema.quantitative_names:
        if name not in profile.accuracy:
            errors.append(f"{sid}: missing accuracy parameter for quantitative feature {name!r}")
    for f in schema.features:
        if f.kind is not FeatureKind.ORDINAL_FUZZY:
            continue
        acc = profile.accuracy.get(f.name)
        has_source = isinstance(acc, OrdinalAccuracy) and (
            acc.relative_k is not None or acc.width is not None
        )
        has_default = f.ordinal_params is not None and f.ordinal_params.width is not None
        if not has_source and not has_default:
            errors.append(f"{sid}: missing accuracy parameter for ordinal feature {f.name!r}")
    return errors


def validate_profile(profile: SourceProfile, schema: Schema) -> SourceProfile:
    errors = profile_violations(profile, schema)
    if errors:
        raise SchemaError(errors)
    return profile


Payload = Union[float, int, str, tuple]


@dataclass(frozen=True)
class FeatureValue:
    """One reported value: payload plus the reporter's certainty level."""

    value: Payload
    certainty: Certainty = Certainty.CERTAIN


@dataclass(frozen=True)
class InformationObject:
    """One source's report about a physical object.

    Features missing from ``values`` are treated as absent and are excluded
    from pair aggregation.
    """

    object_id: str
    source_id: str
    values: Mapping[str, FeatureValue] = field(default_factory=dict)


def is_finite_number(x) -> bool:
    """A real int or float other than bool, NaN, +/-inf and ints beyond the float range."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def non_finite_violation(feature: FeatureSchema) -> str:
    """The violation of a quantitative or ordinal value that is not finite."""
    if feature.kind is FeatureKind.ORDINAL_FUZZY:
        return "expected a finite numeric rank"
    if feature.axes:
        return f"expected {len(feature.axes)} finite numeric components"
    return "expected a finite numeric value"


def _value_error(feature: FeatureSchema, fv) -> str | None:
    """What is wrong with one reported value of ``feature``, or None."""
    if not isinstance(fv, FeatureValue):
        return "expected a FeatureValue"
    v = fv.value
    if feature.kind is FeatureKind.QUANTITATIVE:
        if feature.axes:
            ok = isinstance(v, tuple) and len(v) == len(feature.axes) and all(is_finite_number(c) for c in v)
            return None if ok else non_finite_violation(feature)
        return None if is_finite_number(v) else non_finite_violation(feature)
    if feature.kind is FeatureKind.ORDINAL_FUZZY:
        if not is_finite_number(v):
            return non_finite_violation(feature)
        # The certainty level is the height of the rank's membership.
        return None if isinstance(fv.certainty, Certainty) else "expected a Certainty"
    return None if isinstance(v, str) else "expected a label"


def _by_name(schema: Schema) -> dict[str, FeatureSchema]:
    """Each feature name with the first feature of that name, as ``Schema.feature`` finds it."""
    return {f.name: f for f in reversed(schema.features)}


def _checked_values(obj: InformationObject, features: Mapping[str, FeatureSchema]) -> tuple[list[str], dict]:
    """An object's violations against ``features`` (by name) and its valid entries."""
    errors, valid = [], {}
    for name, fv in obj.values.items():
        feature = features.get(name)
        if feature is None:
            errors.append(f"{obj.object_id}: value for unknown feature {name!r}")
            continue
        error = _value_error(feature, fv)
        if error is None:
            valid[name] = fv
        else:
            errors.append(f"{obj.object_id}/{name}: {error}")
    return errors, valid


def object_violations(obj: InformationObject, schema: Schema) -> list[str]:
    """Check one object's payloads against the schema; returns every violation."""
    return _checked_values(obj, _by_name(schema))[0]


@dataclass(frozen=True, eq=False)
class FeatureColumn:
    """One feature of a dataset, one entry per object.

    ``present`` marks the objects that hold a valid value of the feature.
    ``values`` is a float64 ``(n, arity)`` array for a quantitative or
    ordinal feature (0.0 where absent) and an object array of labels for a
    nominal one (None where absent).  ``certainty`` holds each value's
    certainty level (1.0 where absent).  ``ranks`` keeps an ordinal
    feature's ranks as reported, an ``int`` where the text was an integer
    (None where absent); the other kinds leave it None, and a
    :class:`Dataset` fills it in from ``values`` where an ordinal column
    leaves it None.
    """

    present: np.ndarray
    values: np.ndarray
    certainty: np.ndarray
    ranks: tuple | None = None

    def payload(self, feature: FeatureSchema, k: int) -> Payload:
        """The k-th object's value as an :class:`InformationObject` holds it."""
        if feature.kind is FeatureKind.NOMINAL:
            return self.values[k]
        if feature.kind is FeatureKind.ORDINAL_FUZZY:
            return self.ranks[k]
        return tuple(self.values[k].tolist()) if feature.axes else self.values[k, 0].item()


def _object_column(feature: FeatureSchema, held: Sequence[FeatureValue | None]) -> FeatureColumn:
    """The column of ``held``, each object's valid entry for the feature or None."""
    n = len(held)
    present = np.array([fv is not None for fv in held], dtype=bool)
    # Validation lets a certainty that is not a Certainty pass only where no kernel reads it.
    certainty = np.array(
        [fv.certainty.value if fv is not None and isinstance(fv.certainty, Certainty) else 1.0 for fv in held],
        dtype=float,
    )
    payloads = [None if fv is None else fv.value for fv in held]
    if feature.kind is FeatureKind.NOMINAL:
        labels = np.empty(n, dtype=object)
        labels[:] = payloads
        return FeatureColumn(present, labels, certainty)
    if feature.kind is FeatureKind.ORDINAL_FUZZY:
        ranks = np.array([0.0 if r is None else float(r) for r in payloads], dtype=float).reshape(n, 1)
        return FeatureColumn(present, ranks, certainty, tuple(payloads))
    zero = (0.0,) * feature.arity
    rows = [zero if v is None else v if feature.axes else (v,) for v in payloads]
    return FeatureColumn(present, np.array(rows, dtype=float).reshape(n, feature.arity), certainty)


class Dataset:
    """One source's reports held as columns: ``ids`` and ``source_ids``,
    and per feature of ``schema`` a :class:`FeatureColumn` in ``columns``.
    ``violations`` lists the ``(object index, message)`` of every payload
    that fails the schema; a dataset read from CSV has none, as the reader
    rejects the file instead.  An ordinal column given without ``ranks``
    takes its values as its ranks.
    """

    def __init__(
        self,
        schema: Schema,
        ids: Sequence[str],
        source_ids: Sequence[str],
        columns: Mapping[str, FeatureColumn],
        violations: Sequence[tuple[int, str]] = (),
    ):
        self.schema, self.ids, self.source_ids = schema, tuple(ids), tuple(source_ids)
        self.columns, self.violations = dict(columns), tuple(violations)
        for f in schema.features:
            column = self.columns.get(f.name)
            if f.kind is FeatureKind.ORDINAL_FUZZY and column is not None and column.ranks is None:
                ranks = [r if held else None for r, held in zip(column.values[:, 0].tolist(), column.present.tolist())]
                self.columns[f.name] = replace(column, ranks=tuple(ranks))

    @classmethod
    def from_objects(cls, objects: Iterable[InformationObject], schema: Schema) -> "Dataset":
        """The columns of ``objects``, with :func:`object_violations` of each
        in ``violations``; an entry that fails the schema counts as absent in
        the columns, so this never raises on one."""
        objects = tuple(objects)
        features = _by_name(schema)
        checked = [_checked_values(obj, features) for obj in objects]
        violations = [(k, error) for k, (errors, _) in enumerate(checked) for error in errors]
        columns = {f.name: _object_column(f, [valid.get(f.name) for _, valid in checked]) for f in schema.features}
        return cls(schema, [obj.object_id for obj in objects], [obj.source_id for obj in objects], columns, violations)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class FeatureScore:
    """Proximity and its complement distance for one feature of one pair."""

    proximity: float
    distance: float

    def __post_init__(self):
        if not 0.0 <= self.proximity <= 1.0 or not 0.0 <= self.distance <= 1.0:
            raise ValueError(f"scores outside [0, 1]: {self}")
        if abs(self.distance - (1.0 - self.proximity)) > COMPLEMENT_TOLERANCE:
            raise ValueError(f"distance is not the complement of proximity: {self}")

    @classmethod
    def from_proximity(cls, proximity: float) -> "FeatureScore":
        return cls(proximity, 1.0 - proximity)


@dataclass(frozen=True)
class ProximityBreakdown:
    """Per-feature and aggregate proximity/distance for one cross-source pair."""

    pair: tuple[str, str]
    per_feature: Mapping[str, FeatureScore]
    aggregate_proximity: float
    aggregate_distance: float

    def __post_init__(self):
        if not 0.0 <= self.aggregate_proximity <= 1.0:
            raise ValueError(f"aggregate proximity outside [0, 1]: {self.aggregate_proximity}")
        if abs(self.aggregate_distance - (1.0 - self.aggregate_proximity)) > COMPLEMENT_TOLERANCE:
            raise ValueError("aggregate distance is not the complement of aggregate proximity")
