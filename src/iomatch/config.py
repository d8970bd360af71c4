"""Configuration document parsing.

One JSON document declares the feature schema, per-source accuracies, the
aggregation method, the candidate threshold, and (optionally) a simulation
scene.  See README for the full layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

from .aggregate import AggregationMethod, AggregationSpec
from .engine import DEFAULT_THRESHOLD, derived_xi_violations, threshold_violations
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
    profile_violations,
    schema_violations,
    unknown_accuracy_violation,
)
from .simulate import SceneSpec


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


# The JSON type of each field; the range of its value is the rule of the
# dataclass that holds it, so a config file and a Python caller get one verdict.
_JSON_TYPES = {
    "a number": (int, float), "an integer": int, "a string": str, "a boolean": bool, "an object": dict, "an array": list,
}
# The values a string names, by what an unknown one is called.  A kind is
# named by its value; null names no kind, and no shape, which only an
# ordinal feature requires.
_CHOICES = {
    "kind": {kind.value: kind for kind in FeatureKind},
    "membership shape": {"triangular": MembershipShape.TRIANGULAR, "gaussian": MembershipShape.GAUSSIAN, None: None},
}

# One table per object of the document: each key it accepts, mapped to its
# JSON type (a 1-tuple holds the type of an array's items) or the choices it
# names, its default, and the dataclass field it fills.  Each is read in
# table order, so the messages of one object come in that order.
_DOCUMENT = {
    "schema": ("an object", None, "schema"),
    "sources": ("an object", {}, "profiles"),
    "aggregation": ("an object", {}, "aggregation"),
    "threshold": ("a number", DEFAULT_THRESHOLD, "threshold"),
    "simulation": ("an object", None, "simulation"),
}
_SCHEMA = {"features": ("an array", [], "features")}
_FEATURE = {
    "name": ("a string", None, "name"),
    "kind": ("kind", None, "kind"),
    "shape": ("membership shape", None, "shape"),
    "width": ("a number", None, "width"),
    "weight": ("a number", 0.0, "weight"),
    "xi": ("a number", None, "quantitative_xi"),
    "delta": ("a number", None, "nominal_delta"),
    "axes": (("a string",), None, "axes"),
}
_QUANT_ACCURACY = {"sigma": ("a number", None, "sigma"), "delta_max": ("a number", None, "delta_max")}
_ORDINAL_ACCURACY = {"k": ("a number", None, "relative_k"), "width": ("a number", None, "width")}
_AGGREGATION = {
    "method": ("a string", AggregationMethod.MULTIPLICATIVE.value, "method"),
    "class_weight": ("a number", None, "class_weight"),
    "normalized": ("a boolean", False, "normalized"),
}
_SCENE = SceneSpec()
_SIMULATION = {
    "object_count": ("an integer", _SCENE.object_count, "object_count"),
    "area": (("a number",), _SCENE.area, "area"),
    "types": (("a string",), _SCENE.type_alphabet, "type_alphabet"),
    "rmse": (("a number",), _SCENE.rmse, "rmse"),
    "type_error": ("a number", _SCENE.type_error, "type_error"),
    "fleet_sigma_min": ("a number", _SCENE.fleet_sigma_min, "fleet_sigma_min"),
    "seed": ("an integer", _SCENE.rng_seed, "rng_seed"),
}


def _is(value, expected: str) -> bool:
    """Whether ``value`` has the JSON type ``expected``: a boolean is no number."""
    return isinstance(value, _JSON_TYPES[expected]) and isinstance(value, bool) == (expected == "a boolean")


def _typed(raw: Mapping[str, Any], key: str, expected, default, where: str, errors: list[str]):
    """``raw[key]`` when it has the ``expected`` type (a tuple for an array),
    the value it names when ``expected`` is a choice; ``default`` when the key
    is absent, or null where the default is None.  Otherwise record an error
    and return ``default``."""
    value = raw.get(key)
    if expected in _CHOICES:
        try:
            return _CHOICES[expected][value]
        except (KeyError, TypeError):
            errors.append(f"{where}unknown {expected} {value!r}")
    elif value is None and (key not in raw or default is None):
        return default
    elif not isinstance(expected, tuple):
        if _is(value, expected):
            return value
        errors.append(f"{where}{key} must be {expected}, got {value!r}")
    elif not isinstance(value, list):
        errors.append(f"{where}{key} must be an array, got {value!r}")
    elif all(_is(item, expected[0]) for item in value):
        return tuple(value)
    else:
        errors.append(f"{where}{key} must hold {expected[0]} per item, got {value!r}")
    return default


def _read(raw: Mapping[str, Any], table: Mapping[str, tuple], where: str, errors: list[str], unknown: list[str]):
    """Record one error per key of ``raw`` outside ``table``, so a misspelled
    or retired setting is never dropped; then yield each field of the table
    and its value, read by :func:`_typed` only as it is asked for."""
    unknown.extend(f"{where}unknown key {key!r}" for key in raw if key not in table)
    for key, (expected, default, field) in table.items():
        yield field, _typed(raw, key, expected, default, where, errors)


def _parse_feature(raw: Any, errors: list[str], unknown: list[str]) -> FeatureSchema | None:
    if not isinstance(raw, dict):
        errors.append(f"feature must be an object, got {raw!r}")
        return None
    # The name prefixes every message of the feature, so it is read first.
    name = dict(_read(raw, _FEATURE, "", [], []))["name"]
    if not name:
        errors.append(f"feature without a name: {raw!r}")
        return None
    where, count = f"{name}: ", len(errors)
    fields = dict(_read(raw, _FEATURE, where, errors, unknown))
    shape, width = fields.pop("shape"), fields.pop("width")
    if len(errors) == count and shape is None:
        if fields["kind"] is FeatureKind.ORDINAL_FUZZY:
            errors.append(f"{where}unknown membership shape None")
        elif width is not None:
            errors.append(f"{where}width only applies to ordinal features")
    if len(errors) > count:
        return None
    return FeatureSchema(**fields, ordinal_params=None if shape is None else OrdinalParams(shape, width))


def _parse_schema(raw, config: dict, errors: list[str], unknown: list[str]) -> Schema | None:
    fields = dict(_read(raw, _SCHEMA, "schema: ", errors, unknown))
    features = [f for f in (_parse_feature(item, errors, unknown) for item in fields["features"]) if f is not None]
    # Invariants are checked once every declaration has parsed; a dropped
    # feature would only add a misleading weight-sum message.
    if not errors:
        errors.extend(schema_violations(features))
    return None if errors else Schema(tuple(features))


def _parse_sources(raw, config: dict, errors: list[str], unknown: list[str]) -> dict[str, SourceProfile]:
    schema = config["schema"]
    if schema is None:
        return {}
    profiles: dict[str, SourceProfile] = {}
    for source_id, entries in raw.items():
        if not isinstance(entries, dict):
            errors.append(f"source {source_id!r} must be an object, got {entries!r}")
            continue
        accuracy: dict[str, Any] = {}
        for name, params in entries.items():
            where = f"{source_id}/{name}: "
            if name not in schema.names:
                errors.append(unknown_accuracy_violation(source_id, name))
            elif not isinstance(params, dict):
                errors.append(f"{where}accuracy must be an object, got {params!r}")
            elif schema.feature(name).kind is FeatureKind.QUANTITATIVE:
                accuracy[name] = QuantAccuracy(**dict(_read(params, _QUANT_ACCURACY, where, errors, unknown)))
            else:
                accuracy[name] = OrdinalAccuracy(**dict(_read(params, _ORDINAL_ACCURACY, where, errors, unknown)))
        profiles[source_id] = SourceProfile(source_id=source_id, accuracy=accuracy)
    if not errors:
        for profile in profiles.values():
            errors.extend(profile_violations(profile, schema))
        errors.extend(derived_xi_violations(schema, profiles))
    return profiles


def _parse_aggregation(raw, config: dict, errors: list[str], unknown: list[str]) -> AggregationSpec:
    fields = dict(_read(raw, _AGGREGATION, "aggregation: ", errors, unknown))
    try:
        spec = AggregationSpec(**{**fields, "method": AggregationMethod(fields["method"])})
    except ValueError:
        errors.append(f"unknown aggregation method {fields['method']!r}")
        return AggregationSpec()
    if config["schema"] is not None:
        errors.extend(spec.violations())
    return spec


def _parse_threshold(value, config: dict, errors: list[str], unknown: list[str]):
    errors.extend(problems := threshold_violations(value))
    return value if problems else float(value)  # an int past the float range is reported, never converted


def _parse_simulation(raw, config: dict, errors: list[str], unknown: list[str]) -> SceneSpec | None:
    count = len(errors)
    spec = SceneSpec(**dict(_read(raw, _SIMULATION, "simulation: ", errors, unknown)))
    if len(errors) == count:
        errors.extend(spec.violations())
    if len(errors) > count:
        return None
    # Converted once the rules pass, so an int past the float range is reported, never raises.
    return replace(spec, area=tuple(map(float, spec.area)), rmse=tuple(map(float, spec.rmse)),
                   type_error=float(spec.type_error), fleet_sigma_min=float(spec.fleet_sigma_min))


# The parser of each field of RunConfig, given the fields parsed before it;
# a section that is absent, or null, is None with no parser run.
_SECTIONS = {"schema": _parse_schema, "profiles": _parse_sources, "aggregation": _parse_aggregation,
             "threshold": _parse_threshold, "simulation": _parse_simulation}


def parse_config(document: Mapping[str, Any]) -> RunConfig:
    """Parse and validate an already-loaded configuration mapping.

    Every value must have the JSON type its field takes; a wrongly typed
    value is a :class:`ConfigError` message like any other violation.  So is
    each key no parser reads, at any level; these come first, as a misspelled
    key may explain the rest, and gate no check, as they drop no setting.
    """
    errors: list[str] = []
    unknown: list[str] = []
    config: dict[str, Any] = {}
    for field, raw in _read(document, _DOCUMENT, "", errors, unknown):
        config[field] = None if raw is None else _SECTIONS[field](raw, config, errors, unknown)
    if unknown or errors:
        raise ConfigError(unknown + errors)
    return RunConfig(**config)


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
    if config.schema is None:
        raise ConfigError(["config declares no schema"])
    if not config.profiles:
        raise ConfigError(["config declares no sources"])
