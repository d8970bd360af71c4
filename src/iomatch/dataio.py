"""Flat-file formats: object datasets as CSV, breakdowns as CSV, reports as JSON.

A dataset CSV is read into columns (:func:`read_dataset`): its records are
transposed once and each column is parsed and checked in one pass, so the
engine scores from the columns and no object is built.  A record must have
as many fields as the header (fully blank lines are skipped), and an error
names the physical line on which its record starts.

A dataset is written from its columns too (:func:`write_objects_csv`), each
float as its repr and each ordinal rank as reported, so a written dataset
re-reads to identical values.  All writers emit LF newlines and
deterministic field order, so identical inputs produce byte-identical files.

Every float is written as its ``float.__repr__`` text through one rule,
:func:`_reprs`: orjson's shortest round-trip writer where its text is repr's
(zero and magnitudes in ``[1e-4, 1e16)``), else repr.  :func:`float_texts`
renders each distinct 64-bit pattern of a call once by that rule.  Each
record list of ``report.json`` is one view, a :class:`Records`, written a
block of whole grid rows at a time, each float column of a block rendered
in one call with no de-duplication, as the pairs' floats are mostly
distinct.  Nothing is kept between calls.  The bulk writers work a bounded
block at a time: ``_CELLS`` floats of ``pairs.csv``, and about
``RECORDS_PER_BLOCK`` lines of a CSV or records of a JSON list, so no
artefact's text is held whole.  Each block's text is joined once, by
:func:`interleave`, from the constant text around its fields and a column
of texts per field.

Where blocking pruned cells of the grid, ``pairs.csv`` renders each
distinct score row of a block once (:func:`_distinct_rows`): the pruned
pairs' scores are implied and repeat.  A row's key is a 64-bit sum of its
cells' bit patterns and presence times fixed odd constants; ``np.unique``
groups the keys, every row is checked to equal its group's row exactly, and
a collision falls back to de-duplicating the rows' bytes.  Only the distinct
rows are rendered and ``,``-joined.  A grid with no pruned cell renders and
joins every row, as its rows are mostly distinct.  Either way a block's
lines, each its ids and its row's text, are then joined at once.

A run that writes ``pairs.csv`` and a JSON file renders each score once,
by one mechanism: :func:`write_breakdowns_csv` keeps the texts of the cells
and columns its caller asks for as it writes them, and the JSON writer
takes them from there.  ``match`` asks for every column of the candidates'
cells, which a :class:`RenderedCandidates` carries into ``candidates.json``;
``simulate`` asks for the two aggregate columns of every cell, which
``report.json``'s ``pairs`` list takes as two float columns of texts.  The
texts stay held from the first CSV block to the last JSON block.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import orjson

from .engine import PairScores, RankedCandidates
from .model import (
    Certainty,
    Dataset,
    FeatureColumn,
    FeatureKind,
    FeatureSchema,
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


# Float cells rendered per pairs.csv chunk, and chunks whose scores it lays
# out at once.
_CELLS = 8192
_STEPS = 8
# Lines or records per block of text, rendered and joined once.
RECORDS_PER_BLOCK = 1024
# orjson writes the shortest round-trip text of a double in the same form as
# float.__repr__ for zero and for magnitudes in [_NATIVE_MIN, _NATIVE_MAX);
# outside that range repr switches to exponent form and orjson does not.
_NATIVE_MIN, _NATIVE_MAX = 1e-4, 1e16


def _reprs(values: np.ndarray) -> list[str]:
    """``float.__repr__`` of each value of a 1-D float64 array, in order.

    Every value is rendered by one ``orjson.dumps`` call, whose text is
    repr's for zero and magnitudes in ``[1e-4, 1e16)``; each other value
    (smaller, larger, subnormal or not finite) is then rendered again by
    repr itself.  orjson writes no comma inside a number, so its text splits
    into one text per value.
    """
    if not len(values):
        return []
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(values)
    other = np.flatnonzero(~((values == 0.0) | ((magnitude >= _NATIVE_MIN) & (magnitude < _NATIVE_MAX))))
    for k, value in zip(other.tolist(), values[other].tolist()):
        texts[k] = float.__repr__(value)
    return texts


def float_texts(values) -> np.ndarray:
    """``float.__repr__`` of every value of a float array, as an object array
    of its shape.

    Each distinct 64-bit pattern is rendered once (by :func:`_reprs`), so
    ``0.0`` and ``-0.0`` keep their own texts.
    """
    values = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.ravel().view(np.uint64), return_inverse=True)
    texts = np.array(_reprs(bits.view(np.float64)), dtype=object)
    return texts[inverse].reshape(values.shape)


def interleave(lanes: Sequence[str | Sequence[str]]) -> str:
    """The texts of a block of records, joined once: record k is the k-th
    text of each lane in turn, where a ``str`` lane is the same text in every
    record.  At least one lane is a sequence of texts; all of those are of
    one length, the number of records.  Adjacent ``str`` lanes are joined
    first, so each run of them costs one text per record."""
    merged = []
    for lane in lanes:
        if isinstance(lane, str) and merged and isinstance(merged[-1], str):
            merged[-1] += lane
        else:
            merged.append(lane)
    lanes = merged
    n = next(len(lane) for lane in lanes if not isinstance(lane, str))
    texts = [""] * (n * len(lanes))
    for k, lane in enumerate(lanes):
        texts[k :: len(lanes)] = [lane] * n if isinstance(lane, str) else lane
    return "".join(texts)


def _write_lines(fh, columns: Sequence[Iterable[str]]) -> None:
    """Write the rows of equal-length columns of CSV field texts, ``RECORDS_PER_BLOCK`` lines at a time."""
    lines = map(",".join, zip(*columns))
    while text := interleave([list(islice(lines, RECORDS_PER_BLOCK)), "\n"]):
        fh.write(text)


def _feature_texts(feature: FeatureSchema, column: FeatureColumn) -> list[list[str]]:
    """A feature's value cells as CSV field texts, one list per value column,
    empty where the feature is absent."""
    if feature.kind is FeatureKind.NOMINAL:
        return [_csv_fields(np.where(column.present, column.values, "").tolist())]
    texts = float_texts(column.values)
    texts[~column.present] = ""
    if feature.kind is FeatureKind.ORDINAL_FUZZY:
        # A rank reported as an integer is written as one.
        return [[str(r) if isinstance(r, int) else t for r, t in zip(column.ranks, texts[:, 0].tolist())]]
    return texts.T.tolist()


def write_objects_csv(path: str | Path, dataset: Dataset) -> None:
    """Write a dataset column by column.

    Raises ValueError for a dataset that carries payload violations: its
    columns hold such a value as absent, which would be written as blank.
    """
    if dataset.violations:
        raise ValueError(f"cannot write a dataset with payload violations: {dataset.violations[0][1]}")
    columns = [_csv_fields(dataset.ids), _csv_fields(dataset.source_ids)]
    certainties = []
    for f in dataset.schema.features:
        column = dataset.columns[f.name]
        columns.extend(_feature_texts(f, column))
        labels = {level: Certainty(level).label for level in set(column.certainty[column.present].tolist())}
        held = column.present.tolist()
        certainties.append([labels[c] if h else "" for c, h in zip(column.certainty.tolist(), held)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(dataset_header(dataset.schema))
        _write_lines(fh, columns + certainties)


def _number(text: str, rank: bool):
    """One cell's number as Python parses it: an ``int`` where a rank's text
    is an integer, else a ``float``.  Raises ValueError with the message a
    bad value is reported with, also for a value beyond the float range."""
    if rank:
        try:
            value = int(text)
        except ValueError:
            value = float(text)
    else:
        value = float(text)
    try:
        if math.isfinite(value):
            return value
    except OverflowError:  # an int beyond the float range
        pass
    raise ValueError(f"non-finite number {text!r}")


def _numbers(cells: list[str], rank: bool) -> tuple[list, np.ndarray, int, str]:
    """Parse a column of stripped cells, ``"0"`` standing for each empty one:
    (payloads, their float64 values, the index of the first bad cell or
    ``len(cells)``, its message).  Every cell is parsed at C speed through
    ``map`` unless one fails; then they are parsed one at a time."""
    try:
        payloads = list(map(int if rank else float, cells))
        values = np.array(payloads, dtype=float)  # OverflowError for an int beyond the float range
        if np.isfinite(values).all():
            return payloads, values, len(cells), ""
    except (ValueError, OverflowError):
        pass
    payloads = []
    for k, text in enumerate(cells):
        try:
            payloads.append(_number(text, rank))
        except ValueError as exc:
            return payloads, np.empty(0), k, str(exc)
    return payloads, np.array(payloads, dtype=float), len(cells), ""


def _certainty_levels(cells: Sequence[str]) -> tuple[np.ndarray, dict[str, str]]:
    """Each stripped cell's certainty level (CERTAIN where empty, NaN where
    unknown) and the message of each unknown label."""
    levels, errors = {"": Certainty.CERTAIN.value}, {}
    for text in set(cells) - {""}:
        try:
            levels[text] = Certainty.from_label(text).value
        except ValueError as exc:
            levels[text], errors[text] = math.nan, str(exc)
    return np.fromiter(map(levels.__getitem__, cells), float, len(cells)), errors


def _feature_column(
    feature: FeatureSchema, cells: list[list[str]], certainty_cells: Sequence[str] | None
) -> FeatureColumn | tuple[int, str]:
    """A feature's column from its stripped value cells, one list per axis,
    and its certainty cells; or the (record index, message) of its first bad
    record.  Within a record a partial value is reported first, then the
    first bad axis, then an unknown certainty label."""
    n = len(cells[0])
    filled = [np.fromiter(map(bool, axis), bool, n) for axis in cells]
    present = np.logical_and.reduce(filled)
    bad = [(np.flatnonzero(np.logical_or.reduce(filled) & ~present), f"partial value for feature {feature.name!r}")]
    parsed = []
    if feature.kind is not FeatureKind.NOMINAL:
        rank = feature.kind is FeatureKind.ORDINAL_FUZZY
        for axis in cells:
            payloads, values, first, message = _numbers([text or "0" for text in axis], rank)
            parsed.append((payloads, values))
            bad.append(([first] if first < n else [], f"bad value for {feature.name!r}: {message}"))
    levels = np.ones(n)
    if certainty_cells is not None:
        texts = list(map(str.strip, certainty_cells))
        levels, unknown_labels = _certainty_levels(texts)
        unknown = np.flatnonzero(present & np.isnan(levels))
        if len(unknown):
            bad.append((unknown, f"bad certainty for {feature.name!r}: {unknown_labels[texts[unknown[0]]]}"))
    errors = [(int(rows[0]), order, message) for order, (rows, message) in enumerate(bad) if len(rows)]
    if errors:
        record, _, message = min(errors)
        return record, message
    certainty = np.where(present, levels, 1.0)
    if feature.kind is FeatureKind.NOMINAL:
        labels = np.empty(n, dtype=object)
        labels[:] = cells[0]
        return FeatureColumn(present, np.where(present, labels, None), certainty)
    values = np.where(present[:, None], np.stack([v for _, v in parsed], axis=1), 0.0)
    if feature.kind is FeatureKind.QUANTITATIVE:
        return FeatureColumn(present, values, certainty)
    ranks = tuple(r if held else None for r, held in zip(parsed[0][0], present.tolist()))
    return FeatureColumn(present, values, certainty, ranks)


def read_dataset(path: str | Path, schema: Schema) -> Dataset:
    """Read a dataset CSV into columns.

    The records are transposed to columns once, and each column is parsed
    and checked in one pass with Python's ``float`` and ``int``: every
    number must be finite, a feature is given on all of its axes or on none,
    and a certainty must be a known label.  The first bad record in file
    order, and in it the first bad feature in schema order, raises
    :class:`DataError` naming the physical line on which the record starts.
    Fully blank lines are skipped; every other record must have as many
    fields as the header.  A file that is not UTF-8 text, or a record the
    csv module rejects (such as a field over its size limit), also raises
    :class:`DataError`; a leading UTF-8 byte-order mark is skipped.
    """
    columns = _value_columns(schema)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            records, lines = [], []
            line = reader.line_num
            for record in reader:
                if record:
                    records.append(record)
                    lines.append(line + 1)
                line = reader.line_num
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode as UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty dataset file")
    # Every value column is named, also when left empty for an absent feature.
    required = ["object_id", "source_id", *(c for c, _, _ in columns)]
    missing = [c for c in required if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    known = dataset_header(schema)
    unknown = [c for c in header if c not in known]
    if unknown:
        raise DataError(f"{path}: unknown columns {unknown}")
    # A record of another width ends the checked records: an earlier bad
    # record is reported first.
    width = len(header)
    ragged = np.flatnonzero(np.fromiter(map(len, records), int, len(records)) != width)
    checked = int(ragged[0]) if len(ragged) else len(records)
    fields = list(zip(*records[:checked])) or [()] * width
    # A name given twice takes its last column, as a csv.DictReader row does.
    at = {name: k for k, name in enumerate(header)}
    features, first = {}, None
    for f in schema.features:
        cells = [list(map(str.strip, fields[at[c]])) for c, name, _ in columns if name == f.name]
        certainty = at.get(f"{f.name}_certainty")
        column = _feature_column(f, cells, None if certainty is None else fields[certainty])
        if isinstance(column, FeatureColumn):
            features[f.name] = column
        elif first is None or column[0] < first[0]:
            first = column
    if first is not None:
        raise DataError(f"{path}:{lines[first[0]]}: {first[1]}")
    if checked < len(records):
        raise DataError(f"{path}:{lines[checked]}: expected {width} fields, found {len(records[checked])}")
    return Dataset(schema, fields[at["object_id"]], fields[at["source_id"]], features)


def read_objects_csv(path: str | Path, schema: Schema) -> list[InformationObject]:
    """The objects of a dataset CSV (see :func:`read_dataset`), each value
    typed as its column's payload."""
    dataset = read_dataset(path, schema)
    columns = [(f, dataset.columns[f.name]) for f in schema.features]
    return [
        InformationObject(
            object_id,
            source_id,
            {f.name: FeatureValue(c.payload(f, k), Certainty(c.certainty[k].item())) for f, c in columns if c.present[k]},
        )
        for k, (object_id, source_id) in enumerate(zip(dataset.ids, dataset.source_ids))
    ]


def breakdown_header(schema: Schema) -> list[str]:
    header = ["object_a", "object_b"]
    for f in schema.features:
        header.append(f"{f.name}_proximity")
        header.append(f"{f.name}_distance")
    header.extend(["aggregate_proximity", "aggregate_distance"])
    return header


def _csv_fields(values: Iterable[str]) -> list[str]:
    """Each value as ``csv.writer`` writes it as a field of a row, quoted where it must be."""
    # writerow returns what the file's write returns: here the line itself.
    # The empty second field keeps a lone empty value from being written as "".
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    return [writer.writerow((v, ""))[:-2] for v in values]


def _distinct_rows(table: np.ndarray, constants: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a table given as its ``(columns, rows)`` 64-bit
    patterns: (the index of one row of each, each row's place in those).

    A row's key is the sum, wrapping at 64 bits, of each cell's pattern, its
    high half folded onto its low half, times its column's odd constant.
    Every row is then checked against the row that stands for its key; on a
    collision the rows' bytes are de-duplicated exactly instead."""
    key = ((table ^ (table >> np.uint64(32))) * constants[:, None]).sum(axis=0, dtype=np.uint64)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    if np.array_equal(table[:, first[inverse]], table):
        return first, inverse
    _, first, inverse = np.unique(table.T, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def write_breakdowns_csv(
    path: str | Path,
    scores: PairScores,
    schema: Schema,
    keep: np.ndarray | None = None,
    columns: slice = slice(None),
) -> np.ndarray | None:
    """Write every pair's breakdown, dataset A outer and B inner.

    With ``keep``, the grid cells ``row * n_b + col`` of some pairs in any
    order, returns the texts written for them: a ``(len(keep), c)`` object
    array in ``keep``'s order, one column per score column of the file that
    the slice ``columns`` takes (each feature's proximity and distance, then
    the aggregate's: ``2k + 2`` in all, every one by default), ``""`` where
    a pair lacks the feature.  They are taken from each block as it is
    written, so no score is rendered twice.  ``match`` asks for every column
    of its candidates' cells, ``simulate`` for the two aggregate columns of
    every cell; the texts stay held as long as the caller keeps the array,
    at 8 bytes a reference plus each distinct text's own size.

    Where blocking pruned cells, their scores may repeat, so the score fields
    of a block are rendered and joined once per distinct row
    (:func:`_distinct_rows`) and each line takes its row's text by index."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(breakdown_header(schema))
        names = schema.names
        width = 2 * len(names) + 2
        kept = None
        if keep is not None:
            # The kept cells in grid order: the ones of a block are one run,
            # whose texts go to the cells' places in keep.
            order = np.argsort(keep)
            cells = keep[order]
            kept = np.empty((len(range(width)[columns]), len(keep)), dtype=object)
        if not len(scores):
            return None if kept is None else kept.T
        # Where blocking pruned cells, each block is written by its distinct
        # score rows.  A row's distances are 1 - its proximities, so its
        # proximities, aggregates and presence fix its texts and make its key.
        pruned = len(scores.cells) < len(scores)
        if pruned:
            # Powers of one odd constant: each odd, and no small integer
            # relation ties the multipliers of two sets of columns.
            constants = np.uint64(0x9E3779B97F4A7C15) ** np.arange(1, width + 1, dtype=np.uint64)
        # Blocks of whole dataset-A rows of about _CELLS floats, rendered in
        # one call and joined row by row: only the ids can need quoting, and
        # each is quoted once.  The scores are laid out _STEPS blocks at a
        # time, as scoring the pruned pairs of a block costs a fixed amount
        # per call.
        ids_a, ids_b = _csv_fields(scores.ids_a), _csv_fields(scores.ids_b)
        n_b = len(ids_b)
        leads_b = [i + "," for i in ids_b]
        step = max(1, _CELLS // (n_b * width))
        fetch = _STEPS * step
        for first in range(0, len(ids_a), fetch):
            proximity, present, aggregate_p, aggregate_d = scores.block(first, first + fetch)
            values = [*chain.from_iterable((proximity[n], 1.0 - proximity[n]) for n in names), aggregate_p, aggregate_d]
            absent = [~present[n] for n in names]
            for start in range(0, len(aggregate_p), step):
                block = slice(start, start + step)
                rows = slice(None)
                if pruned:
                    table = np.empty((width, *aggregate_p[block].shape), dtype=np.uint64)
                    for k, column in enumerate([*(proximity[n] for n in names), aggregate_p, aggregate_d]):
                        table[k] = column[block].view(np.uint64)
                    for k, n in enumerate(names, len(names) + 2):
                        table[k] = present[n][block]
                    rows, inverse = _distinct_rows(table.reshape(width, -1), constants)
                texts = float_texts([v[block].ravel()[rows] for v in values])
                for k in range(len(names)):
                    texts[2 * k : 2 * k + 2, absent[k][block].ravel()[rows]] = ""
                a = ids_a[first + start : first + start + step]
                if kept is not None:
                    offset = (first + start) * n_b
                    lo, hi = np.searchsorted(cells, (offset, offset + len(a) * n_b))
                    at = cells[lo:hi] - offset
                    kept[:, order[lo:hi]] = texts[columns][:, inverse[at] if pruned else at]
                lines = list(map(",".join, zip(*texts.tolist())))
                if pruned:
                    lines = np.array(lines, dtype=object)[inverse].tolist()
                leads_a = chain.from_iterable(map(repeat, (i + "," for i in a), repeat(n_b)))
                fh.write(interleave([list(leads_a), leads_b * len(a), lines, "\n"]))
    return None if kept is None else kept.T


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

class Records:
    """A list of flat records held as columns, one record per cell of the
    columns' broadcast shape in row-major order, which :func:`write_json`
    writes as ``json.dumps`` writes the list of dicts.

    ``fields`` maps each key, in sorted order, to the kind of its values:
    ``"id"`` (a string), ``"flag"`` (a bool) or ``"float"`` (a finite
    float).  ``columns`` holds an array of one or two dimensions per key, in
    that order, a 1-D column of ``n`` values read as ``(n, 1)``: the pairs of
    a score grid give their ids as ``(n_a, 1)`` and ``(1, n_b)`` arrays and
    their scores as ``(n_a, n_b)`` ones.  A ``"float"`` column given as an
    object array holds texts already rendered by the float rule (such as
    those :func:`write_breakdowns_csv` returns) and is written as is.
    """

    def __init__(self, fields: Mapping[str, str], columns: Sequence):
        if list(fields) != sorted(fields):
            raise ValueError(f"record keys {list(fields)} are not in sorted order")
        unknown = sorted(set(fields.values()) - {"id", "flag", "float"})
        if unknown:
            raise ValueError(f"record kinds {unknown} are none of 'id', 'flag' and 'float'")
        if len(columns) != len(fields):
            raise ValueError(f"record keys {list(fields)} need one column per key, got {len(columns)}")
        self.fields, self.columns = dict(fields), []
        for kind, column in zip(fields.values(), columns):
            column = np.asarray(column, dtype={"id": object, "flag": bool}.get(kind))
            if kind == "float" and column.dtype != object:
                column = column.astype(float, copy=False)
            self.columns.append(column.reshape(-1, 1) if column.ndim < 2 else column)
        shapes = [c.shape for c in self.columns]
        try:
            self.shape = np.broadcast_shapes(*shapes)
        except ValueError:
            self.shape = ()
        if len(self.shape) != 2:
            raise ValueError(f"record columns of shapes {shapes} do not broadcast to one grid")

    def records(self) -> list[dict]:
        """The records as dicts of Python values, a float given as text read
        as its float."""
        lanes = []
        for kind, column in zip(self.fields.values(), self.columns):
            values = np.broadcast_to(column, self.shape).ravel()
            lanes.append((values.astype(float) if kind == "float" else values).tolist())
        return [dict(zip(self.fields, row)) for row in zip(*lanes)]


def _list_chunks(blocks: Iterable[str], depth: int) -> Iterator[str]:
    """The JSON list, ``depth`` levels deep, of the records in ``blocks``:
    texts of whole records, each led by a comma and its line break."""
    opened = False
    for text in blocks:
        if text:
            yield text if opened else "[" + text[1:]
            opened = True
    yield "\n" + "  " * depth + "]" if opened else "[]"


def _record_pieces(keys: Iterable[str], depth: int) -> list[str]:
    """The text around the values of a record ``depth`` levels deep, one
    piece before each key's value and one after the last, led by the comma
    and line break that come before the record in its list."""
    pad = "\n" + "  " * (depth + 1)
    leads = chain(["," + pad + "{"], repeat(","))
    return [*(f"{lead}{pad}  {encode_basestring_ascii(k)}: " for lead, k in zip(leads, keys)), pad + "}"]


def _records_chunks(records: Records, depth: int) -> Iterator[str]:
    """The text of ``records`` ``depth`` levels deep, a block of whole grid
    rows at a time.  Each id is encoded once per value given, together with
    the text before it, and each flag lane carries its key's text.  A float
    column given as texts is sliced by rows; each other one of a block is
    rendered in one call and not de-duplicated: a grid's floats are mostly
    distinct, so finding the repeats costs more than it saves."""
    pieces = _record_pieces(records.fields, depth)
    kinds = list(records.fields.values())
    columns = [
        np.array([piece + encode_basestring_ascii(i) for i in c.ravel().tolist()], dtype=object).reshape(c.shape)
        if kind == "id" else c
        for piece, kind, c in zip(pieces, kinds, records.columns)
    ]
    # One-element object arrays, which np.where spreads by reference.
    flags = [[np.array([piece + text], dtype=object) for text in ("true", "false")] for piece in pieces]
    n_rows, n_cols = records.shape
    step = max(1, RECORDS_PER_BLOCK // max(n_cols, 1))

    def text(first):
        shape = (min(step, n_rows - first), n_cols)
        lanes = []
        for piece, kind, column, flag in zip(pieces, kinds, columns, flags):
            cells = np.broadcast_to(column[first : first + step] if len(column) > 1 else column, shape).ravel()
            if kind == "id":
                lanes.append(cells.tolist())
            elif kind == "flag":
                lanes.append(np.where(cells, *flag).tolist())
            else:
                lanes += [piece, cells.tolist() if cells.dtype == object else _reprs(cells)]
        return interleave([*lanes, pieces[-1]])

    return _list_chunks(map(text, range(0, n_rows if n_cols else 0, step)), depth)


class RenderedCandidates:
    """A :class:`RankedCandidates` with the texts of its floats as
    ``write_breakdowns_csv`` returns them for its cells (``rows * n_b +
    cols``), which ``write_json`` writes as the candidates' records without
    rendering them again."""

    def __init__(self, found: RankedCandidates, texts: np.ndarray):
        self.found, self.texts = found, texts


def _candidate_chunks(found: RankedCandidates, depth: int, texts: np.ndarray | None = None) -> Iterator[str]:
    """``[breakdown_record(b) for b in found]`` as json.dumps writes it
    ``depth`` levels deep, rendered from the columns a block at a time; the
    floats are taken from ``texts``, a ``(len(found), 2k + 2)`` array in
    ``pairs.csv``'s column order, where given.

    Each grid id is encoded once per object, together with the constant text
    around it, as :func:`_records_chunks` encodes them, so a record's ids
    and the keys around them are two lanes.  Each feature takes five lanes
    of a record: its opening text, distance, middle text, proximity and
    closing text, all ``""`` where the pair lacks the feature.  The opening
    text starts with a comma where the pair shows an earlier feature.  A
    text that is the same in every record of a block is one ``str`` lane:
    the opening where every record holds the feature and all or none holds
    an earlier one, the middle and closing where every record holds it.  A
    feature no record of the block holds takes no lane."""
    pad = "\n" + "  " * (depth + 2)
    order = list(found.proximity)
    names = sorted(order)
    k = len(names)
    a, b, distance, features, proximity, end = _record_pieces(("a", "b", "distance", "features", "proximity"), depth)
    # The columns of ``texts`` in the order a record shows its floats: the
    # aggregate distance, each feature's distance, each feature's proximity
    # and the aggregate proximity.
    by_name = [order.index(name) for name in names]
    columns = [2 * k + 1, *(2 * f + 1 for f in by_name), *(2 * f for f in by_name), 2 * k]
    # One-element object arrays, which np.where spreads by reference.
    openings = [f"{pad}  {encode_basestring_ascii(name)}: {{{pad}    \"distance\": " for name in names]
    first, later = ([np.array([lead + text], dtype=object) for text in openings] for lead in ("", ","))
    blank, middle, closing, shut, empty = (
        np.array([text], dtype=object) for text in ("", f",{pad}    \"proximity\": ", pad + "  }", pad + "}", "}")
    )
    # Each grid id with the constant text around it: an ``a`` with the key of
    # ``b`` after it, a ``b`` with the key of ``distance``.
    ids_a = np.array([a + encode_basestring_ascii(i) + b for i in found.grid_ids[0]], dtype=object)
    ids_b = np.array([encode_basestring_ascii(i) + distance for i in found.grid_ids[1]], dtype=object)

    def lane(mask, held, lacking):
        """A lane of ``held`` where ``mask`` is set, else of ``lacking``: a
        ``str`` where that is one text for the whole block."""
        if mask.all() or not mask.any():
            return (held if mask.all() else lacking)[0]
        return np.where(mask, held, lacking).tolist()

    def text(start):
        block = slice(start, start + RECORDS_PER_BLOCK)
        present = np.array([found.present[name][block] for name in names], dtype=bool)
        if texts is None:
            p = np.array([found.proximity[name][block] for name in names], dtype=float)
            values = float_texts([found.aggregate_distance[block], *(1.0 - p), *p, found.aggregate_proximity[block]])
            values[1:-1][np.concatenate([~present, ~present])] = ""
        else:
            values = texts[block][:, columns].T  # "" where absent, as pairs.csv writes it
        values = values.tolist()
        lanes = [ids_a[found.rows[block]].tolist(), ids_b[found.cols[block]].tolist(), values[0]]
        lanes.append(features + "{")
        earlier = np.zeros(len(values[0]), dtype=bool)
        for j, held in enumerate(present):
            if not held.any():
                continue
            if held.all():
                opening = lane(earlier, later[j], first[j])
            else:
                opening = np.where(held, np.where(earlier, later[j], first[j]), blank).tolist()
            lanes += [opening, values[1 + j], lane(held, middle, blank), values[1 + k + j], lane(held, closing, blank)]
            earlier |= held
        lanes.append(lane(earlier, shut, empty))
        return interleave([*lanes, proximity, values[-1], end])

    return _list_chunks(map(text, range(0, len(found), RECORDS_PER_BLOCK)), depth)


def _json_chunks(value, depth: int) -> Iterator[str]:
    """``json.dumps(value, indent=2, sort_keys=True)`` written ``depth`` levels
    deep, in pieces, a column view standing for its list of records.  Non-empty
    lists, tuples and string-keyed dicts are walked; any other value is written
    by ``json.dumps``, each of its line breaks indented (none is in a string)."""
    indent = "\n" + "  " * depth
    if isinstance(value, RankedCandidates):
        yield from _candidate_chunks(value, depth)
    elif isinstance(value, RenderedCandidates):
        yield from _candidate_chunks(value.found, depth, value.texts)
    elif isinstance(value, Records):
        yield from _records_chunks(value, depth)
    elif isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        for lead, key in zip(chain("{", repeat(",")), sorted(value)):
            yield f"{lead}{indent}  {encode_basestring_ascii(key)}: "
            yield from _json_chunks(value[key], depth + 1)
        yield indent + "}"
    elif isinstance(value, (list, tuple)) and value:
        for lead, item in zip(chain("[", repeat(",")), value):
            yield lead + indent + "  "
            yield from _json_chunks(item, depth + 1)
        yield indent + "]"
    else:
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)


def write_json(path: str | Path, payload) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline,
    byte for byte, where a :class:`RankedCandidates` or a
    :class:`RenderedCandidates` stands for its ``breakdown_record``s and a
    :class:`Records` for its records, each streamed from its columns, so
    that no view's text is held whole."""
    with open(path, "w") as fh:
        fh.writelines(_json_chunks(payload, 0))
        fh.write("\n")
