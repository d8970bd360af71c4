"""Flat-file formats: object datasets as CSV, breakdowns as CSV, reports as JSON.

Object CSVs keep full float precision (repr) so a written dataset re-reads to
identical values.  All writers emit LF newlines and deterministic field order,
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain, count, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence

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
        # Every value column is named, also when left empty for an absent feature.
        required = ["object_id", "source_id", *(c for c, _, _ in columns)]
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        known = dataset_header(schema)
        unknown = [c for c in reader.fieldnames if c not in known]
        if unknown:
            raise DataError(f"{path}: unknown columns {unknown}")
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


def _csv_fields(values: Iterable[str]) -> list[str]:
    """Each value as ``csv.writer`` writes it as a field of a row, quoted where it must be."""
    # writerow returns what the file's write returns: here the line itself.
    # The empty second field keeps a lone empty value from being written as "".
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    return [writer.writerow((v, ""))[:-2] for v in values]


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
        # One block of rows per dataset-A object, formatted column by column
        # and joined: only the ids can need quoting, and they are quoted once.
        ids_b = _csv_fields(breakdowns.ids_b)
        for i, a in enumerate(_csv_fields(breakdowns.ids_a)):
            columns = [repeat(a), ids_b]
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
            rows = "\n".join(map(",".join, zip(*columns)))
            if rows:
                fh.write(rows + "\n")


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
# json.dumps(indent=2, sort_keys=True) writes every value but the column views:
# a RankedCandidates or ColumnRecords would cost a dict per record, so their
# records are rendered from the columns and spliced in where json.dumps wrote
# a marker in their place.

# Per column kind: the %-conversion of a field and the function, if any,
# that turns a value into the text it converts.
_KINDS = {
    "id": ("s", encode_basestring_ascii),  # a string
    "flag": ("s", ("false", "true").__getitem__),  # a bool
    "float": ("r", None),  # a finite float
    "json": ("s", None),  # a value's JSON text
}
# Records rendered per chunk; bounds the text held at once.
_BLOCK = 256


class ColumnRecords:
    """A list of flat records held as columns, which :func:`write_json`
    writes as ``json.dumps`` writes the list of dicts.

    ``fields`` maps each key, in sorted order, to the kind of its values: one
    of ``_KINDS``.  ``blocks`` yields the records a block at a time, as one
    sequence per field in that order; it is read once, when written.
    """

    def __init__(self, fields: Mapping[str, str], blocks: Iterable[Sequence[Iterable]]):
        if list(fields) != sorted(fields):
            raise ValueError(f"record keys {list(fields)} are not in sorted order")
        self.fields, self.blocks = dict(fields), blocks


def _record_chunks(records: ColumnRecords, depth: int) -> Iterator[str]:
    """The text of ``records`` ``depth`` levels deep, ``_BLOCK`` records per chunk."""
    pad = "\n" + "  " * (depth + 1)
    keys = [encode_basestring_ascii(k).replace("%", "%%") for k in records.fields]
    fields = [f"{pad}  {key}: %{_KINDS[kind][0]}" for key, kind in zip(keys, records.fields.values())]
    template = "{" + ",".join(fields) + pad + "}"
    to_text = [_KINDS[kind][1] for kind in records.fields.values()]
    rows = chain.from_iterable(
        zip(*(c if f is None else map(f, c) for f, c in zip(to_text, columns))) for columns in records.blocks
    )
    lead = "[" + pad
    while block := [template % row for row in islice(rows, _BLOCK)]:
        yield lead + ("," + pad).join(block)
        lead = "," + pad
    yield "[]" if lead[0] == "[" else "\n" + "  " * depth + "]"


# The record of a breakdown_record, with its features rendered beforehand.
_BREAKDOWN_FIELDS = {"a": "id", "b": "id", "distance": "float", "features": "json", "proximity": "float"}


def _candidate_chunks(found: RankedCandidates, depth: int) -> Iterator[str]:
    """``[breakdown_record(b) for b in found]`` as json.dumps writes it
    ``depth`` levels deep, rendered from the columns ``_BLOCK`` records at a time."""
    pad = ["\n" + "  " * (depth + k) for k in range(5)]
    names = sorted(found.proximity)

    def blocks():
        for start in range(0, len(found), _BLOCK):
            block = slice(start, start + _BLOCK)
            ids_a = found.ids_a[block]
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
            yield (
                ids_a,
                found.ids_b[block],
                found.aggregate_distance[block].tolist(),
                features,
                found.aggregate_proximity[block].tolist(),
            )

    return _record_chunks(ColumnRecords(_BREAKDOWN_FIELDS, blocks()), depth)


def write_json(path: str | Path, payload) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline,
    byte for byte, where a column view stands for the list of its records:
    a :class:`RankedCandidates` for its ``breakdown_record``s, and a
    :class:`ColumnRecords` for its records.  The views are streamed from
    their columns, so their text is never held whole."""
    views = []

    def mark(value):
        if not isinstance(value, (RankedCandidates, ColumnRecords)):
            return json.JSONEncoder().default(value)  # raises the stdlib's TypeError
        views.append(value)
        return f"{marker}{len(views) - 1}"

    # Each view's marker must occur once: a payload string may hold one.
    for nonce in count():
        marker = f"\x00column view {nonce}:"
        views.clear()
        text = json.dumps(payload, indent=2, sort_keys=True, default=mark)
        tokens = [json.dumps(f"{marker}{k}") for k in range(len(views))]
        if all(text.count(t) == 1 for t in tokens):
            break
    with open(path, "w") as fh:
        end = 0
        for start, k in sorted((text.index(t), k) for k, t in enumerate(tokens)):
            fh.write(text[end:start])
            line = text[text.rfind("\n", 0, start) + 1 : start]
            depth = (len(line) - len(line.lstrip(" "))) // 2
            view = views[k]
            fh.writelines(
                _candidate_chunks(view, depth) if isinstance(view, RankedCandidates) else _record_chunks(view, depth)
            )
            end = start + len(tokens[k])
        fh.write(text[end:] + "\n")
