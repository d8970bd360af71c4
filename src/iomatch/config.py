"""Configuration document parsing.

One JSON document declares the feature schema, per-source accuracies, the
aggregation method, the candidate threshold, and (optionally) a simulation
scene.  See README for the full layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .aggregate import AggregationMethod, AggregationSpec, weight_violations
from .engine import DEFAULT_THRESHOLD
from .model import (
    FeatureKind,
    FeatureSchema,
    MembershipShape,
    OrdinalAccuracy,
    OrdinalParams,
    QuantAccuracy,
    Schema,
    SourceProfile,
    ValidationError,
    is_finite_number,
    profile_violations,
    schema_violations,
)
from .simulate import SceneSpec

_KINDS = {
    "quantitative": FeatureKind.QUANTITATIVE,
    "ordinal": FeatureKind.ORDINAL_FUZZY,
    "nominal": FeatureKind.NOMINAL,
}
_SHAPES = {
    "triangular": MembershipShape.TRIANGULAR,
    "gaussian": MembershipShape.GAUSSIAN,
}


class ConfigError(ValidationError):
    """Raised when a configuration document fails validation."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration document."""

    schema: Schema | None
    profiles: dict[str, SourceProfile]
    aggregation: AggregationSpec
    threshold: float
    simulation: SceneSpec | None


_JSON_TYPES = {
    "a number": is_finite_number,
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
    "an object": lambda v: isinstance(v, dict),
    "an array": lambda v: isinstance(v, list),
}


def _typed(raw: Mapping[str, Any], key: str, expected: str, where: str, errors: list[str], default=None):
    """``raw[key]`` when it has the ``expected`` JSON type (a key of
    ``_JSON_TYPES``); ``default`` when the key is absent, or null with no
    default.  Otherwise record an error and return ``default``."""
    value = raw.get(key)
    if value is None and (key not in raw or default is None):
        return default
    if _JSON_TYPES[expected](value):
        return value
    errors.append(f"{where}{key} must be {expected}, got {value!r}")
    return default


def _typed_items(
    raw: Mapping[str, Any], key: str, expected: str, where: str, errors: list[str], default=None
):
    """``raw[key]`` as a tuple when it is an array of ``expected`` items; as :func:`_typed` otherwise."""
    items = _typed(raw, key, "an array", where, errors)
    if items is None:
        return default
    if all(_JSON_TYPES[expected](v) for v in items):
        return tuple(items)
    errors.append(f"{where}{key} must hold {expected} per item, got {items!r}")
    return default


def _parse_feature(raw: Any, errors: list[str]) -> FeatureSchema | None:
    if not isinstance(raw, dict):
        errors.append(f"feature must be an object, got {raw!r}")
        return None
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"feature without a name: {raw!r}")
        return None
    kind = raw.get("kind")
    kind = _KINDS.get(kind) if isinstance(kind, str) else None
    if kind is None:
        errors.append(f"{name}: unknown kind {raw.get('kind')!r}")
        return None
    where = f"{name}: "
    count = len(errors)
    ordinal_params = None
    if "shape" in raw or kind is FeatureKind.ORDINAL_FUZZY:
        shape = raw.get("shape")
        shape = _SHAPES.get(shape) if isinstance(shape, str) else None
        if shape is None:
            errors.append(f"{name}: unknown membership shape {raw.get('shape')!r}")
            return None
        ordinal_params = OrdinalParams(shape=shape, width=_typed(raw, "width", "a number", where, errors))
    feature = FeatureSchema(
        name=name,
        kind=kind,
        weight=_typed(raw, "weight", "a number", where, errors, 0.0),
        quantitative_xi=_typed(raw, "xi", "a number", where, errors),
        nominal_delta=_typed(raw, "delta", "a number", where, errors),
        ordinal_params=ordinal_params,
        axes=_typed_items(raw, "axes", "a string", where, errors) or None,
    )
    return feature if len(errors) == count else None


def _parse_sources(raw: Mapping[str, Any], schema: Schema, errors: list[str]) -> dict[str, SourceProfile]:
    profiles: dict[str, SourceProfile] = {}
    for source_id, entries in raw.items():
        if not isinstance(entries, dict):
            errors.append(f"source {source_id!r} must be an object, got {entries!r}")
            continue
        accuracy: dict[str, Any] = {}
        for feature_name, params in entries.items():
            try:
                feature = schema.feature(feature_name)
            except KeyError:
                errors.append(f"{source_id}: accuracy for unknown feature {feature_name!r}")
                continue
            where = f"{source_id}/{feature_name}: "
            if not isinstance(params, dict):
                errors.append(f"{where}accuracy must be an object, got {params!r}")
            elif feature.kind is FeatureKind.QUANTITATIVE:
                accuracy[feature_name] = QuantAccuracy(
                    sigma=_typed(params, "sigma", "a number", where, errors),
                    delta_max=_typed(params, "delta_max", "a number", where, errors),
                )
            else:
                accuracy[feature_name] = OrdinalAccuracy(
                    relative_k=_typed(params, "k", "a number", where, errors),
                    width=_typed(params, "width", "a number", where, errors),
                )
        profiles[source_id] = SourceProfile(source_id=source_id, accuracy=accuracy)
    return profiles


def _parse_aggregation(raw: Mapping[str, Any], errors: list[str]) -> AggregationSpec:
    method_name = _typed(raw, "method", "a string", "aggregation ", errors, "multiplicative")
    try:
        method = AggregationMethod(method_name)
    except ValueError:
        errors.append(f"unknown aggregation method {method_name!r}")
        return AggregationSpec()
    weights = _typed(raw, "feature_weights", "an object", "aggregation ", errors)
    return AggregationSpec(
        method=method,
        class_weight=_typed(raw, "class_weight", "a number", "aggregation ", errors),
        feature_weights=dict(weights) if weights else None,
        normalized=_typed(raw, "normalized", "a boolean", "aggregation ", errors, False),
    )


def _parse_simulation(raw: Mapping[str, Any], errors: list[str]) -> SceneSpec | None:
    defaults = SceneSpec()
    where = "simulation "
    count = len(errors)
    area = _typed_items(raw, "area", "a number", where, errors, defaults.area)
    rmse = _typed_items(raw, "rmse", "a number", where, errors, defaults.rmse)
    spec = SceneSpec(
        object_count=_typed(raw, "object_count", "an integer", where, errors, defaults.object_count),
        area=tuple(float(a) for a in area),
        type_alphabet=_typed_items(raw, "types", "a string", where, errors, defaults.type_alphabet),
        rmse=tuple(float(r) for r in rmse),
        type_error=float(_typed(raw, "type_error", "a number", where, errors, defaults.type_error)),
        fleet_sigma_min=float(
            _typed(raw, "fleet_sigma_min", "a number", where, errors, defaults.fleet_sigma_min)
        ),
        rng_seed=_typed(raw, "seed", "an integer", where, errors, defaults.rng_seed),
    )
    return spec if len(errors) == count else None


def parse_config(document: Mapping[str, Any]) -> RunConfig:
    """Parse and validate an already-loaded configuration mapping.

    Every value must have the JSON type its field takes; a wrongly typed
    value is a :class:`ConfigError` message like any other violation.
    """
    errors: list[str] = []
    schema = None
    profiles: dict[str, SourceProfile] = {}
    raw_schema = _typed(document, "schema", "an object", "", errors)
    if raw_schema is not None:
        features = []
        for raw in _typed(raw_schema, "features", "an array", "schema ", errors, []):
            feature = _parse_feature(raw, errors)
            if feature is not None:
                features.append(feature)
        # Invariants are checked once every declaration has parsed; a dropped
        # feature would only add a misleading weight-sum message.
        if not errors:
            errors.extend(schema_violations(features))
        if not errors:
            schema = Schema(tuple(features))
            raw_sources = _typed(document, "sources", "an object", "", errors, {})
            profiles = _parse_sources(raw_sources, schema, errors)
            if not errors:
                for profile in profiles.values():
                    errors.extend(profile_violations(profile, schema))
    aggregation = _parse_aggregation(_typed(document, "aggregation", "an object", "", errors, {}), errors)
    if schema is not None:
        errors.extend(weight_violations(schema, aggregation))
    threshold = _typed(document, "threshold", "a number", "", errors, DEFAULT_THRESHOLD)
    if not 0.0 <= threshold <= 1.0:
        errors.append(f"threshold {threshold!r} outside [0, 1]")
    simulation = None
    raw_simulation = _typed(document, "simulation", "an object", "", errors)
    if raw_simulation is not None:
        simulation = _parse_simulation(raw_simulation, errors)
        if simulation is not None:
            sim_errors = simulation.violations()
            errors.extend(sim_errors)
            if sim_errors:
                simulation = None
    if errors:
        raise ConfigError(errors)
    return RunConfig(
        schema=schema,
        profiles=profiles,
        aggregation=aggregation,
        threshold=float(threshold),
        simulation=simulation,
    )


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON configuration document from disk (UTF-8, a
    leading byte-order mark skipped)."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    if not isinstance(document, dict):
        raise ConfigError([f"config root must be an object, got {type(document).__name__}"])
    return parse_config(document)


def require_match_config(config: RunConfig) -> None:
    """Ensure the parts needed by measure/match are present."""
    errors = []
    if config.schema is None:
        errors.append("config declares no schema")
    elif not config.profiles:
        errors.append("config declares no sources")
    if errors:
        raise ConfigError(errors)
