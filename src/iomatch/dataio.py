"""Flat-file formats: object datasets as CSV, breakdowns as CSV, reports as JSON.

Object CSVs keep full float precision (repr) so a written dataset re-reads to
identical values.  All writers emit LF newlines and deterministic field order,
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .engine import PairScores, RankedCandidates
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
                try:
                    certainty = Certainty.from_label(certainty_text) if certainty_text else Certainty.CERTAIN
                except ValueError as exc:
                    raise DataError(f"{path}:{line}: bad certainty for {f.name!r}: {exc}") from exc
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


def _float_texts(values: np.ndarray, absent: Iterable[int] = ()) -> list[str]:
    """``repr`` of every value of a float row, and ``""`` at the ``absent`` positions."""
    texts = list(map(float.__repr__, values.tolist()))
    for j in absent:
        texts[j] = ""
    return texts


def write_breakdowns_csv(
    path: str | Path, breakdowns: Iterable[ProximityBreakdown], schema: Schema
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(breakdown_header(schema))
        if not isinstance(breakdowns, PairScores):
            for b in breakdowns:
                row = [b.pair[0], b.pair[1]]
                for score in map(b.per_feature.get, schema.names):
                    row += ["", ""] if score is None else [_format_number(score.proximity), _format_number(score.distance)]
                row += [_format_number(b.aggregate_proximity), _format_number(b.aggregate_distance)]
                writer.writerow(row)
            return
        # One block of rows per dataset-A object, formatted column by column.
        for i, a in enumerate(breakdowns.ids_a):
            columns = [repeat(a), breakdowns.ids_b]
            for name in schema.names:
                p = breakdowns.proximity.get(name)
                if p is None:
                    columns += [repeat(""), repeat("")]
                    continue
                absent = np.flatnonzero(~breakdowns.present[name][i]).tolist()
                columns += [_float_texts(p[i], absent), _float_texts(1.0 - p[i], absent)]
            columns += [
                _float_texts(breakdowns.aggregate_proximity[i]),
                _float_texts(breakdowns.aggregate_distance[i]),
            ]
            writer.writerows(zip(*columns))


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


# --- JSON -----------------------------------------------------------------------
#
# The stdlib writes indented JSON with its pure-Python encoder; its C encoder
# runs only without an indent.  But a container whose items are all scalars is
# one flat run of items, so the C encoder writes it when its item separator
# carries the indentation: only the line breaks after the opening and before
# the closing bracket remain to add.  A raw newline never occurs inside the
# JSON text of a scalar or key, and a scalar's text never ends in a bracket,
# so the text can be split exactly at a separator.

# A RankedCandidates view is written as its list of breakdown records.
_CONTAINERS = (dict, list, tuple, RankedCandidates)
# Items of one container written per chunk; bounds the text held at once.
_BLOCK = 256


@functools.cache
def _encoder(depth: int):
    """C-accelerated ``encode`` with the item separator of a container ``depth`` levels deep."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "), sort_keys=True).encode


def _holds_containers(value) -> bool:
    items = value.values() if isinstance(value, dict) else value
    return any(map(isinstance, items, repeat(_CONTAINERS)))


def _items(value, depth: int) -> Iterable[tuple[str, object]]:
    """``(text, child)`` per item of a container, in written order.  ``child``
    is the item's value when that is a container, and is then left out of
    ``text``; it is None otherwise.  The keys and scalars of a dict take one
    C call; a list is read item by item, so a long one is never copied."""
    encode = _encoder(depth)
    if not isinstance(value, dict):
        return (("", v) if isinstance(v, _CONTAINERS) else (encode(v), None) for v in value)
    keys = sorted(value)
    flat = {k: 0 if isinstance(v, _CONTAINERS) else v for k, v in value.items()}
    texts = encode(flat)[1:-1].split(",\n" + "  " * (depth + 1))
    # A container's text ends in the placeholder 0.
    return [
        (t[:-1], value[k]) if isinstance(value[k], _CONTAINERS) else (t, None) for t, k in zip(texts, keys)
    ]


def _child_texts(children: list, depth: int) -> list[str]:
    """The text of each container in ``children``, ``depth`` levels deep.  When
    all are non-empty dicts of scalars, one C call writes them as a list, split
    where one dict's ``}`` meets the next one's ``{``."""
    if children and all(isinstance(c, dict) and c and not _holds_containers(c) for c in children):
        separator = ",\n" + "  " * (depth + 1)
        closing = "\n" + "  " * depth + "}"
        bodies = _encoder(depth)(children)[2:-2].split("}" + separator + "{")
        return ["{" + separator[1:] + body + closing for body in bodies]
    return [_json_text(c, depth) for c in children]


def _joined(items: list[tuple[str, object]], depth: int) -> str:
    """The ``(text, child)`` items of a container, written and joined."""
    children = iter(_child_texts([c for _, c in items if c is not None], depth + 1))
    return (",\n" + "  " * (depth + 1)).join([t if c is None else t + next(children) for t, c in items])


def _candidate_chunks(found: RankedCandidates, depth: int) -> Iterator[str]:
    """``[breakdown_record(b) for b in found]`` as :func:`_json_text` writes it
    ``depth`` levels deep, rendered from the columns ``_BLOCK`` records at a time."""
    if not len(found):
        yield "[]"
        return
    pad = ["\n" + "  " * (depth + k) for k in range(5)]
    names = sorted(found.proximity)
    yield "["
    lead = pad[1]
    for start in range(0, len(found), _BLOCK):
        block = slice(start, start + _BLOCK)
        ids_a, ids_b = found.ids_a[block], found.ids_b[block]
        # One column of feature texts per feature, "" where it is absent.
        columns = []
        for name in names:
            key, p = encode_basestring_ascii(name), found.proximity[name][block]
            texts = [
                f'{key}: {{{pad[4]}"distance": {d!r},{pad[4]}"proximity": {q!r}{pad[3]}}}'
                for d, q in zip((1.0 - p).tolist(), p.tolist())
            ]
            for k in np.flatnonzero(~found.present[name][block]).tolist():
                texts[k] = ""
            columns.append(texts)
        features = []
        for _, *parts in zip(ids_a, *columns):
            shared = [t for t in parts if t]
            features.append(f"{{{pad[3]}{(',' + pad[3]).join(shared)}{pad[2]}}}" if shared else "{}")
        records = zip(
            map(encode_basestring_ascii, ids_a),
            map(encode_basestring_ascii, ids_b),
            found.aggregate_distance[block].tolist(),
            features,
            found.aggregate_proximity[block].tolist(),
        )
        yield lead + ("," + pad[1]).join([
            f'{{{pad[2]}"a": {a},{pad[2]}"b": {b},{pad[2]}"distance": {d!r},{pad[2]}"features": {f},'
            f'{pad[2]}"proximity": {p!r}{pad[1]}}}'
            for a, b, d, f, p in records
        ])
        lead = "," + pad[1]
    yield pad[0] + "]"


def _json_text(value, depth: int) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it ``depth`` levels deep."""
    if isinstance(value, RankedCandidates):
        return "".join(_candidate_chunks(value, depth))
    if not isinstance(value, _CONTAINERS) or not value:
        return _encoder(depth)(value)
    if _holds_containers(value):
        body = _joined(list(_items(value, depth)), depth)
    else:
        body = _encoder(depth)(value)[1:-1]
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    return f"{opening}\n{'  ' * (depth + 1)}{body}\n{'  ' * depth}{closing}"


def _json_chunks(value, depth: int = 0) -> Iterator[str]:
    """The text of :func:`_json_text` in pieces: the top-level container one
    item at a time, and the containers in it ``_BLOCK`` items at a time."""
    if isinstance(value, RankedCandidates):
        yield from _candidate_chunks(value, depth)
        return
    if depth > 1 or not isinstance(value, _CONTAINERS) or not _holds_containers(value):
        yield _json_text(value, depth)
        return
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    yield opening
    if depth == 0:
        for i, (text, child) in enumerate(_items(value, depth)):
            yield ("," if i else "") + "\n  " + text
            if child is not None:
                yield from _json_chunks(child, depth + 1)
    else:
        separator = ",\n" + "  " * (depth + 1)
        lead = separator[1:]
        items = iter(_items(value, depth))
        while block := list(islice(items, _BLOCK)):
            yield lead + _joined(block, depth)
            lead = separator
    yield "\n" + "  " * depth + closing


def write_json(path: str | Path, payload) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline,
    byte for byte, streamed so the whole text is never held in memory."""
    with open(path, "w") as fh:
        fh.writelines(_json_chunks(payload))
        fh.write("\n")
