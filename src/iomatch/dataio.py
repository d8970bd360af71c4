"""Flat-file formats: object datasets as CSV, breakdowns as CSV, reports as JSON.

Object CSVs keep full float precision (repr) so a written dataset re-reads to
identical values.  All writers emit LF newlines and deterministic field order,
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Iterator

from .engine import PairScores
from .model import (
    Certainty,
    FeatureKind,
    FeatureValue,
    InformationObject,
    ProximityBreakdown,
    Schema,
)


class DataError(ValueError):
    pass


def _value_columns(schema: Schema) -> list[tuple[str, str, int]]:
    """(column, feature, axis index) triples for every value column, schema order."""
    columns = []
    for f in schema.features:
        if f.axes:
            for i, axis in enumerate(f.axes):
                columns.append((f"{f.name}_{axis}", f.name, i))
        else:
            columns.append((f.name, f.name, -1))
    return columns


def dataset_header(schema: Schema) -> list[str]:
    header = ["object_id", "source_id"]
    header.extend(col for col, _, _ in _value_columns(schema))
    header.extend(f"{f.name}_certainty" for f in schema.features)
    return header


def _format_number(x: float) -> str:
    return repr(float(x))


def write_objects_csv(path: str | Path, objects: Iterable[InformationObject], schema: Schema) -> None:
    columns = _value_columns(schema)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(dataset_header(schema))
        for obj in objects:
            row = [obj.object_id, obj.source_id]
            for _, feature_name, axis in columns:
                fv = obj.values.get(feature_name)
                if fv is None:
                    row.append("")
                    continue
                value = fv.value[axis] if axis >= 0 else fv.value
                feature = schema.feature(feature_name)
                if feature.kind is FeatureKind.NOMINAL:
                    row.append(str(value))
                elif feature.kind is FeatureKind.ORDINAL_FUZZY:
                    row.append(str(int(value)) if float(value).is_integer() else _format_number(value))
                else:
                    row.append(_format_number(value))
            for f in schema.features:
                fv = obj.values.get(f.name)
                row.append(fv.certainty.label if fv is not None else "")
            writer.writerow(row)


def _parse_value(feature_kind: FeatureKind, text: str):
    if feature_kind is FeatureKind.NOMINAL:
        return text
    if feature_kind is FeatureKind.ORDINAL_FUZZY:
        try:
            return int(text)
        except ValueError:
            pass
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def read_objects_csv(path: str | Path, schema: Schema) -> list[InformationObject]:
    columns = _value_columns(schema)
    objects: list[InformationObject] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty dataset file")
        missing = [c for c in ("object_id", "source_id") if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        for line, row in enumerate(reader, start=2):
            values: dict[str, FeatureValue] = {}
            for f in schema.features:
                cols = [c for c, name, _ in columns if name == f.name]
                cells = [row.get(c, "") or "" for c in cols]
                if all(cell.strip() == "" for cell in cells):
                    continue
                if any(cell.strip() == "" for cell in cells):
                    raise DataError(f"{path}:{line}: partial value for feature {f.name!r}")
                try:
                    if f.axes:
                        payload = tuple(_parse_value(f.kind, c.strip()) for c in cells)
                    else:
                        payload = _parse_value(f.kind, cells[0].strip())
                except ValueError as exc:
                    raise DataError(f"{path}:{line}: bad value for {f.name!r}: {exc}") from exc
                certainty_text = (row.get(f"{f.name}_certainty", "") or "").strip()
                certainty = Certainty.from_label(certainty_text) if certainty_text else Certainty.CERTAIN
                values[f.name] = FeatureValue(payload, certainty)
            objects.append(
                InformationObject(
                    object_id=row["object_id"], source_id=row["source_id"], values=values
                )
            )
    return objects


def breakdown_header(schema: Schema) -> list[str]:
    header = ["object_a", "object_b"]
    for f in schema.features:
        header.append(f"{f.name}_proximity")
        header.append(f"{f.name}_distance")
    header.extend(["aggregate_proximity", "aggregate_distance"])
    return header


def _score_rows(breakdowns: Iterable[ProximityBreakdown], schema: Schema) -> Iterator[tuple]:
    """``(id_a, id_b, scores, proximity, distance)`` per breakdown, as
    :meth:`PairScores.rows` streams them from its columns."""
    if isinstance(breakdowns, PairScores):
        yield from breakdowns.rows(schema.names)
        return
    for b in breakdowns:
        scores = [b.per_feature.get(name) for name in schema.names]
        yield (
            b.pair[0],
            b.pair[1],
            [None if s is None else (s.proximity, s.distance) for s in scores],
            b.aggregate_proximity,
            b.aggregate_distance,
        )


def write_breakdowns_csv(
    path: str | Path, breakdowns: Iterable[ProximityBreakdown], schema: Schema
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(breakdown_header(schema))
        for a, b, scores, proximity, distance in _score_rows(breakdowns, schema):
            row = [a, b]
            for score in scores:
                row.extend(["", ""] if score is None else [_format_number(score[0]), _format_number(score[1])])
            row.extend([_format_number(proximity), _format_number(distance)])
            writer.writerow(row)


def breakdown_record(b: ProximityBreakdown) -> dict:
    return {
        "a": b.pair[0],
        "b": b.pair[1],
        "features": {
            name: {"proximity": score.proximity, "distance": score.distance}
            for name, score in b.per_feature.items()
        },
        "proximity": b.aggregate_proximity,
        "distance": b.aggregate_distance,
    }


def write_json(path: str | Path, payload) -> None:
    """Indented, key-sorted JSON, written chunk by chunk so the whole text is
    never held in memory."""
    with open(path, "w") as fh:
        fh.writelines(json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload))
        fh.write("\n")
