"""Core data model: feature schema, source accuracy profiles, object records,
columnar datasets, results.

Everything here is an immutable value object; instances can be shared freely
across concurrent evaluators.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .quant import is_finite_number, positive_violation, sigma_from_max_error

WEIGHT_SUM_TOLERANCE = 1e-9
COMPLEMENT_TOLERANCE = 1e-12

# A nominal determination error of 0.5 makes a match and a mismatch
# indistinguishable; anything above that is rejected outright.
MAX_NOMINAL_DELTA = 0.5


def weight_violation(weight) -> str | None:
    """The rule of a feature weight and of the two-class weight: a number
    in [0, 1].  None when it holds, else the violation."""
    return None if 0.0 <= weight <= 1.0 else f"weight {weight} outside [0, 1]"


def weight_sum_violation(weights: Sequence) -> str | None:
    """The rule of a weight vector: it sums to 1, to within
    ``WEIGHT_SUM_TOLERANCE``.  None also where a weight is not finite,
    which :func:`weight_violation` reports."""
    try:
        if not all(map(math.isfinite, weights)):
            return None
    except OverflowError:  # an int past the float range cannot be summed
        return None
    total = sum(weights)
    return None if abs(total - 1.0) <= WEIGHT_SUM_TOLERANCE else f"weights sum to {total!r}, expected 1"


def delta_violation(delta) -> str | None:
    """The rule of a nominal determination error: a number in (0, 0.5]."""
    if 0.0 < delta <= MAX_NOMINAL_DELTA:
        return None
    return (
        f"delta {delta} outside (0, {MAX_NOMINAL_DELTA}]"
        " (0.5 already loses identification power; larger is meaningless)"
    )


class IdentificationPowerWarning(UserWarning):
    """A nominal determination error of 0.5 cannot separate match from mismatch."""


def warn_identification_power(delta: float, stacklevel: int) -> None:
    """Warn, as the caller ``stacklevel`` frames up, where ``delta`` is 0.5."""
    if delta == MAX_NOMINAL_DELTA:
        warnings.warn(
            "delta = 0.5 makes a nominal match indistinguishable from a mismatch",
            IdentificationPowerWarning,
            stacklevel=stacklevel + 1,
        )


def relative_k_violation(k) -> str | None:
    """The rule of an ordinal relative-error coefficient: a number in (0, 1)."""
    return None if 0.0 < k < 1.0 else "relative_k must lie in (0, 1)"


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
        if problem := weight_violation(f.weight):
            errors.append(f"{f.name}: {problem}")
        if f.kind is FeatureKind.NOMINAL:
            if f.nominal_delta is None:
                errors.append(f"{f.name}: nominal feature missing determination error delta")
            elif problem := delta_violation(f.nominal_delta):
                errors.append(f"{f.name}: {problem}")
        elif f.nominal_delta is not None:
            errors.append(f"{f.name}: delta only applies to nominal features")
        if f.kind is FeatureKind.QUANTITATIVE:
            if f.quantitative_xi is not None and (problem := positive_violation(f.quantitative_xi)):
                errors.append(f"{f.name}: xi must be {problem}")
        elif f.quantitative_xi is not None:
            errors.append(f"{f.name}: xi only applies to quantitative features")
        if f.kind is FeatureKind.ORDINAL_FUZZY:
            if f.ordinal_params is None:
                errors.append(f"{f.name}: ordinal feature missing membership shape")
            else:
                if f.ordinal_params.shape is MembershipShape.NOMINAL_PLATEAU:
                    errors.append(f"{f.name}: ordinal shape must be triangular or gaussian")
                width = f.ordinal_params.width
                if width is not None and (problem := positive_violation(width)):
                    errors.append(f"{f.name}: membership width must be {problem}")
        elif f.ordinal_params is not None:
            errors.append(f"{f.name}: membership shape only applies to ordinal features")
        if f.axes is not None:
            if f.kind is not FeatureKind.QUANTITATIVE:
                errors.append(f"{f.name}: axes only apply to quantitative features")
            elif len(f.axes) == 0 or len(set(f.axes)) != len(f.axes):
                errors.append(f"{f.name}: axes must be non-empty and unique")
    if problem := weight_sum_violation([f.weight for f in features]):
        errors.append(f"feature {problem}")
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

    def violation(self) -> str | None:
        """What is wrong with this accuracy, or None: exactly one of sigma
        and delta_max is given, it passes :func:`positive_violation`, and the
        sigma it resolves to does not underflow to 0."""
        given = [v for v in (self.sigma, self.delta_max) if v is not None]
        if len(given) != 1:
            return "give exactly one of sigma or delta_max"
        if problem := positive_violation(given[0]):
            return f"accuracy must be {problem}"
        try:
            self.resolved_sigma()
        except ValueError:  # a delta_max whose sigma underflows
            return "sigma must be strictly positive"
        return None

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

    def violations(self, shape: MembershipShape | None) -> list[str]:
        """What is wrong with this accuracy on a feature of membership
        ``shape``: at most one of k and width is given, k passes
        :func:`relative_k_violation` on a triangular shape, and the width
        :func:`positive_violation`."""
        errors = []
        if self.relative_k is not None and self.width is not None:
            errors.append("give at most one of relative_k or width")
        if self.relative_k is not None:
            if problem := relative_k_violation(self.relative_k):
                errors.append(problem)
            if shape is MembershipShape.GAUSSIAN:
                errors.append("relative_k requires a triangular shape")
        if self.width is not None and (problem := positive_violation(self.width)):
            errors.append(f"width must be {problem}")
        return errors


@dataclass(frozen=True)
class SourceProfile:
    """Per-source, per-feature accuracy declarations."""

    source_id: str
    accuracy: Mapping[str, Union[QuantAccuracy, OrdinalAccuracy]] = field(default_factory=dict)


def source_sigma(feature: FeatureSchema, profile: SourceProfile) -> float | None:
    """The sigma a source uses on a quantitative feature, or None where the
    profile check rejects its accuracy there."""
    acc = profile.accuracy.get(feature.name)
    return acc.resolved_sigma() if isinstance(acc, QuantAccuracy) and acc.violation() is None else None


def source_ordinal(feature: FeatureSchema, profile: SourceProfile) -> tuple[float | None, float | None] | None:
    """The (relative k, width) a source uses on an ordinal feature, the
    other None: its k, else its width, else the schema's width (a
    half-width, or a Gaussian spread).  None where the schema or profile
    check rejects them."""
    params = feature.ordinal_params
    acc = profile.accuracy.get(feature.name, OrdinalAccuracy())
    if params is None or params.shape is MembershipShape.NOMINAL_PLATEAU or not isinstance(acc, OrdinalAccuracy):
        return None
    if acc.violations(params.shape):
        return None
    if acc.relative_k is not None:
        return acc.relative_k, None
    width = params.width if acc.width is None else acc.width
    return None if width is None or positive_violation(width) else (None, width)


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
            if problem := acc.violation():
                errors.append(f"{sid}/{name}: {problem}")
        elif feature.kind is FeatureKind.ORDINAL_FUZZY:
            if not isinstance(acc, OrdinalAccuracy):
                errors.append(f"{sid}/{name}: expected ordinal accuracy")
                continue
            shape = feature.ordinal_params.shape if feature.ordinal_params else None
            errors.extend(f"{sid}/{name}: {problem}" for problem in acc.violations(shape))
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


def non_finite_violation(feature: FeatureSchema) -> str:
    """The violation of a quantitative or ordinal value that is not finite."""
    if feature.kind is FeatureKind.ORDINAL_FUZZY:
        return "expected a finite numeric rank"
    if feature.axes:
        return f"expected {len(feature.axes)} finite numeric components"
    return "expected a finite numeric value"


def label_violation(label) -> str | None:
    """The rule of a nominal label: a non-empty string equal to its
    ``strip()``, as a dataset CSV holds it (its reader strips every cell and
    reads an empty one as absent).  None when it holds, else the violation."""
    if not isinstance(label, str):
        return "expected a label"
    if label and label == label.strip():
        return None
    return f"expected a non-empty label without surrounding blanks, got {label!r}"


@dataclass(frozen=True, eq=False)
class FeatureColumn:
    """One feature of a dataset, one entry per object.

    ``present`` marks the objects that hold an entry of the feature, valid
    or not: ``engine.value_violations`` judges each held entry.  ``values``
    is a float64 ``(n, arity)`` array for a quantitative or ordinal feature
    (0.0 where absent) and an object array of labels for a nominal one
    (None where absent).  ``certainty`` holds each entry's certainty level
    (1.0 where absent).  A rank is held as a quantitative value is, a float
    in ``values``.
    """

    present: np.ndarray
    values: np.ndarray
    certainty: np.ndarray

    def payload(self, feature: FeatureSchema, k: int) -> Payload:
        """The k-th object's value as an :class:`InformationObject` holds it."""
        if feature.kind is FeatureKind.NOMINAL:
            return self.values[k]
        return tuple(self.values[k].tolist()) if feature.axes else self.values[k, 0].item()


def _held_row(feature: FeatureSchema, payload) -> tuple:
    """A quantitative or ordinal payload as its column holds it: its
    components, or NaN on every axis where it is not a finite real (a tuple
    of the feature's arity of them, for a feature with axes)."""
    parts = payload if feature.axes else (payload,)
    if isinstance(parts, tuple) and len(parts) == feature.arity and all(map(is_finite_number, parts)):
        return parts
    return (math.nan,) * feature.arity


def _object_column(feature: FeatureSchema, entries: Sequence) -> FeatureColumn:
    """The column of ``entries``, each object's entry for the feature or
    None.  An entry that is not a :class:`FeatureValue` is absent; every
    other is held as given: a label as is, a number by :func:`_held_row`,
    and a certainty that is not a :class:`Certainty` as NaN."""
    n = len(entries)
    held = [fv if isinstance(fv, FeatureValue) else None for fv in entries]
    present = np.array([fv is not None for fv in held], dtype=bool)
    certainty = np.array(
        [1.0 if fv is None else fv.certainty.value if isinstance(fv.certainty, Certainty) else math.nan for fv in held],
        dtype=float,
    )
    if feature.kind is FeatureKind.NOMINAL:
        labels = np.fromiter((None if fv is None else fv.value for fv in held), dtype=object, count=n)
        return FeatureColumn(present, labels, certainty)
    zero = (0.0,) * feature.arity
    rows = [zero if fv is None else _held_row(feature, fv.value) for fv in held]
    return FeatureColumn(present, np.array(rows, dtype=float).reshape(n, feature.arity), certainty)


class Dataset:
    """One source's reports held as columns: ``ids`` and ``source_ids``,
    and per feature of ``schema`` a :class:`FeatureColumn` in ``columns``.
    ``violations`` lists the ``(object index, message)`` of every entry no
    column can hold: one for a feature the schema lacks, or one that is not
    a :class:`FeatureValue`.  A held value is judged by the run
    (``engine.value_violations``), whatever built the dataset; a dataset
    read from CSV has neither kind of fault, as the reader rejects the file
    instead.
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

    @classmethod
    def from_objects(cls, objects: Iterable[InformationObject], schema: Schema) -> "Dataset":
        """The columns of ``objects``, each entry routed to its feature's
        column as given (a payload or certainty a column cannot hold is held
        as NaN), and in ``violations`` the entries no column can hold; so
        this never raises on an entry."""
        objects = tuple(objects)
        names = set(schema.names)
        violations = [
            (k, f"{obj.object_id}: value for unknown feature {name!r}" if name not in names
             else f"{obj.object_id}/{name}: expected a FeatureValue")
            for k, obj in enumerate(objects)
            for name, fv in obj.values.items()
            if name not in names or not isinstance(fv, FeatureValue)
        ]
        columns = {f.name: _object_column(f, [obj.values.get(f.name) for obj in objects]) for f in schema.features}
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
