import csv
import dataclasses
import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iomatch.config import ConfigError, load_config, parse_config, require_match_config
from iomatch.dataio import (
    RECORDS_PER_BLOCK,
    DataError,
    Records,
    breakdown_header,
    breakdown_record,
    dataset_header,
    float_texts,
    read_dataset,
    read_objects_csv,
    write_breakdowns_csv,
    write_json,
    write_objects_csv,
)
from iomatch.engine import candidates, pairwise_breakdowns
from iomatch.model import Certainty, Dataset, FeatureValue, InformationObject
from iomatch.simulate import SceneSpec, run_experiment
from oracles import csv_writer_bytes, object_run, read_objects_by_record

FULL_CONFIG = {
    "schema": {
        "features": [
            {"name": "position", "kind": "quantitative", "weight": 0.4, "axes": ["x", "y"], "xi": 30.0},
            {"name": "readiness", "kind": "ordinal", "weight": 0.2, "shape": "triangular", "width": 2},
            {"name": "type", "kind": "nominal", "weight": 0.4, "delta": 0.1},
        ]
    },
    "sources": {
        "s1": {"position": {"sigma": 20.0}, "readiness": {"k": 0.3}},
        "s2": {"position": {"delta_max": 90.0}},
    },
    "aggregation": {"method": "multiplicative"},
    "threshold": 0.05,
    "simulation": {"object_count": 5, "rmse": [20.0, 30.0], "seed": 42},
}


class TestConfig:
    def test_full_document(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FULL_CONFIG))
        config = load_config(path)
        assert config.schema.names == ("position", "readiness", "type")
        assert config.profiles["s2"].quantitative_sigma("position") == 30.0
        assert config.threshold == 0.05
        assert config.simulation.object_count == 5
        require_match_config(config)

    def test_unknown_kind(self):
        doc = {"schema": {"features": [{"name": "a", "kind": "mystery", "weight": 1.0}]}}
        with pytest.raises(ConfigError, match="kind"):
            parse_config(doc)

    def test_weight_violation_surfaces(self):
        doc = {"schema": {"features": [
            {"name": "a", "kind": "quantitative", "weight": 0.4},
            {"name": "b", "kind": "quantitative", "weight": 0.4},
        ]}}
        with pytest.raises(ConfigError, match="sum"):
            parse_config(doc)

    def test_threshold_out_of_range(self):
        with pytest.raises(ConfigError, match="threshold"):
            parse_config({"threshold": 3.0})

    def test_bad_simulation_section(self):
        with pytest.raises(ConfigError, match="object_count"):
            parse_config({"simulation": {"object_count": 0}})

    def test_match_config_requires_schema(self):
        config = parse_config({"threshold": 0.01})
        with pytest.raises(ConfigError, match="schema"):
            require_match_config(config)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")


def sample_objects(schema):
    return [
        InformationObject("a0", "s1", {
            "position": FeatureValue((12.25, 980.5)),
            "readiness": FeatureValue(4, Certainty.PROBABLE),
            "type": FeatureValue("tank"),
        }),
        InformationObject("a1", "s1", {
            "position": FeatureValue((0.1234567890123, 2.0)),
            "type": FeatureValue("truck", Certainty.POSSIBLE),
        }),
    ]


class TestDatasetCsv:
    def setup_method(self):
        self.config = parse_config(FULL_CONFIG)
        self.schema = self.config.schema

    def test_header_layout(self):
        assert dataset_header(self.schema) == [
            "object_id", "source_id",
            "position_x", "position_y", "readiness", "type",
            "position_certainty", "readiness_certainty", "type_certainty",
        ]

    def test_round_trip_identity(self, tmp_path):
        objects = sample_objects(self.schema)
        path = tmp_path / "objects.csv"
        write_objects_csv(path, Dataset.from_objects(objects, self.schema))
        assert read_objects_csv(path, self.schema) == objects

    def test_round_trip_preserves_breakdowns(self, tmp_path):
        objects_a = sample_objects(self.schema)
        objects_b = [
            InformationObject("b0", "s2", {
                "position": FeatureValue((15.0, 978.0)),
                "type": FeatureValue("tank"),
            })
        ]
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_objects_csv(pa, Dataset.from_objects(objects_a, self.schema))
        write_objects_csv(pb, Dataset.from_objects(objects_b, self.schema))

        def run(a, b):
            return pairwise_breakdowns(object_run(self.schema, self.config.profiles, a, b, self.config.aggregation))

        assert list(run(read_objects_csv(pa, self.schema), read_objects_csv(pb, self.schema))) == list(
            run(objects_a, objects_b)
        )

    def test_round_trip_of_ordinal_column_without_ranks(self, tmp_path):
        """An ordinal column built without ``ranks`` is written with its
        values as ranks, blank where absent, and re-reads to the same columns."""
        dataset = Dataset.from_objects(sample_objects(self.schema), self.schema)
        columns = {**dataset.columns, "readiness": dataclasses.replace(dataset.columns["readiness"], ranks=None)}
        bare = Dataset(self.schema, dataset.ids, dataset.source_ids, columns)
        path = tmp_path / "objects.csv"
        write_objects_csv(path, bare)
        assert path.read_text().splitlines()[1:] == [
            "a0,s1,12.25,980.5,4.0,tank,certain,probable,certain",
            "a1,s1,0.1234567890123,2.0,,truck,certain,,possible",
        ]
        back = read_dataset(path, self.schema)
        for name, column in bare.columns.items():
            read = back.columns[name]
            assert read.present.tolist() == column.present.tolist()
            assert read.values.tolist() == column.values.tolist()
            assert read.certainty.tolist() == column.certainty.tolist()
            assert read.ranks == column.ranks
        assert back.columns["readiness"].ranks == (4.0, None)

    def test_dataset_with_violations_refused(self, tmp_path):
        """Its columns hold a bad payload as absent, which would be written blank."""
        objects = sample_objects(self.schema)
        bad = InformationObject("a9", "s1", {"position": FeatureValue((1.0, math.nan)), "type": FeatureValue("tank")})
        path = tmp_path / "objects.csv"
        with pytest.raises(ValueError, match="a9/position: expected 2 finite numeric components"):
            write_objects_csv(path, Dataset.from_objects([*objects, bad], self.schema))
        assert not path.exists()

    def test_partial_composite_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        header = ",".join(dataset_header(self.schema))
        path.write_text(f"{header}\no1,s1,1.0,,4,tank,,certain,certain\n")
        with pytest.raises(DataError, match="partial"):
            read_objects_csv(path, self.schema)

    def test_bad_certainty_label(self, tmp_path):
        path = tmp_path / "broken.csv"
        header = ",".join(dataset_header(self.schema))
        path.write_text(f"{header}\no1,s1,1.0,2.0,4,tank,,certain,sure\n")
        with pytest.raises(ValueError, match="certainty"):
            read_objects_csv(path, self.schema)

    def test_missing_id_columns(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("object_id,position_x\na,1.0\n")
        with pytest.raises(DataError, match="source_id"):
            read_objects_csv(path, self.schema)

    @pytest.mark.parametrize("header, message", [
        # a feature with none of its columns
        ("object_id,source_id,position_x,position_y,type", r"missing columns \['readiness'\]"),
        # or with one axis column only
        ("object_id,source_id,position_x,readiness,type", r"missing columns \['position_y'\]"),
        ("object_id,source_id,position_x,position_y,readiness,type,colour", r"unknown columns \['colour'\]"),
        ("object_id,source_id,position_x,position_y,readiness,type,type_certainty,typ_certainty",
         r"unknown columns \['typ_certainty'\]"),
    ])
    def test_header_must_name_the_schema_columns(self, tmp_path, header, message):
        path = tmp_path / "broken.csv"
        path.write_text(f"{header}\n")
        with pytest.raises(DataError, match=message):
            read_objects_csv(path, self.schema)

    def test_ragged_record_rejected(self, tmp_path):
        """A short record was read as an object with no features, which then
        scored 1.0 against every object of the other side."""
        path = tmp_path / "ragged.csv"
        path.write_text("object_id,source_id,position_x,position_y,readiness,type\no1,s1,1.0,2.0,4,tank\no2,s1\n")
        with pytest.raises(DataError) as excinfo:
            read_objects_csv(path, self.schema)
        assert str(excinfo.value) == f"{path}:3: expected 6 fields, found 2"
        path.write_text("object_id,source_id,position_x,position_y,readiness,type\no1,s1,1.0,2.0,4,tank,extra\n")
        with pytest.raises(DataError, match="2: expected 6 fields, found 7"):
            read_objects_csv(path, self.schema)

    def test_errors_name_the_physical_line(self, tmp_path):
        """Blank lines are skipped but counted, and a record's line is the one
        it starts on, also after a quoted field that spans lines."""
        path = tmp_path / "lines.csv"
        header = "object_id,source_id,position_x,position_y,readiness,type\n"
        path.write_text(header + "o1,s1,1.0,2.0,4,tank\n\n" + "o2,s1,oops,2.0,4,tank\n")
        with pytest.raises(DataError) as excinfo:
            read_objects_csv(path, self.schema)
        assert str(excinfo.value).startswith(f"{path}:4: bad value for 'position'")
        # Lines 2-4 hold one record, 5 and 6 are blank.
        path.write_text(header + '"o\n1",s1,1.0,2.0,4,"two\nlines"\n\n\n' + "o2,s1,1.0,2.0,4.5.6,tank\n")
        with pytest.raises(DataError) as excinfo:
            read_objects_csv(path, self.schema)
        assert str(excinfo.value).startswith(f"{path}:7: bad value for 'readiness'")
        path.write_text(header + "\n" + '"o\n1",s1,1.0,2.0,4.5.6,"two\nlines"\n')
        with pytest.raises(DataError) as excinfo:
            read_objects_csv(path, self.schema)
        assert str(excinfo.value).startswith(f"{path}:3: bad value for 'readiness'")

    def test_first_bad_record_then_first_bad_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = "object_id,source_id,position_x,position_y,readiness,type,readiness_certainty\n"
        path.write_text(header + "o1,s1,1.0,2.0,4,tank,sure\no2,s1,1.0,,x,tank,\no3\n")
        with pytest.raises(DataError) as excinfo:
            read_objects_csv(path, self.schema)
        assert str(excinfo.value) == f"{path}:2: bad certainty for 'readiness': unknown certainty label: 'sure'"
        path.write_text(header + "o1,s1,1.0,2.0,4,tank,\no2,s1,1.0,,x,tank,sure\n")
        with pytest.raises(DataError) as excinfo:
            read_objects_csv(path, self.schema)
        assert str(excinfo.value) == f"{path}:3: partial value for feature 'position'"

    def test_rank_beyond_the_float_range_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        rank = "1" + "0" * 400
        path.write_text(f"object_id,source_id,position_x,position_y,readiness,type\no1,s1,1.0,2.0,{rank},tank\n")
        with pytest.raises(DataError) as excinfo:
            read_objects_csv(path, self.schema)
        assert str(excinfo.value) == f"{path}:2: bad value for 'readiness': non-finite number {rank!r}"

    def test_objects_keep_their_payload_types(self, tmp_path):
        """``read_objects_csv`` builds each value from its column's payload:
        integer rank texts give ints, every other number a float; axes give tuples."""
        path = tmp_path / "types.csv"
        path.write_text(
            "object_id,source_id,position_x,position_y,readiness,type,readiness_certainty\n"
            "o1,s1,1,2.5,4,tank,doubtful\no2,s1,3,4,4.0, truck ,\no3,s1,,,1_0,,\no4,s1,5,6,123456789012345678901,,\n"
        )
        dataset = read_dataset(path, self.schema)
        assert len(dataset) == 4 and dataset.ids == ("o1", "o2", "o3", "o4")
        o1, o2, o3, o4 = read_objects_csv(path, self.schema)
        assert o1.values == {
            "position": FeatureValue((1.0, 2.5)),
            "readiness": FeatureValue(4, Certainty.DOUBTFUL),
            "type": FeatureValue("tank"),
        }
        assert type(o1.values["readiness"].value) is int and type(o2.values["readiness"].value) is float
        assert o2.values["type"].value == "truck"
        assert o3.values == {"readiness": FeatureValue(10)}
        assert o4.values["readiness"].value == 123456789012345678901
        assert [o.object_id for o in (o1, o2, o3, o4)] == list(dataset.ids)

    def test_absent_feature_keeps_an_empty_column(self, tmp_path):
        path = tmp_path / "objects.csv"
        path.write_text("object_id,source_id,position_x,position_y,readiness,type\no1,s1,1.0,2.0,,tank\n")
        (obj,) = read_objects_csv(path, self.schema)
        assert set(obj.values) == {"position", "type"}


class TestBreakdownCsv:
    def test_write(self, tmp_path):
        config = parse_config(FULL_CONFIG)
        objects_a = sample_objects(config.schema)[:1]
        objects_b = [InformationObject("b0", "s2", {
            "position": FeatureValue((13.0, 981.0)),
            "type": FeatureValue("tank"),
        })]
        breakdowns = pairwise_breakdowns(object_run(config.schema, config.profiles, objects_a, objects_b))
        path = tmp_path / "pairs.csv"
        write_breakdowns_csv(path, breakdowns, config.schema)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(breakdown_header(config.schema))
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "a0" and cells[1] == "b0"
        # readiness absent from b0: empty proximity/distance cells
        header = breakdown_header(config.schema)
        assert cells[header.index("readiness_proximity")] == ""
        assert float(cells[header.index("aggregate_proximity")]) == breakdowns.breakdown(0, 0).aggregate_proximity

    def test_columnar_rows_equal_csv_writer(self, tmp_path):
        """PairScores rows are joined text; they must be the bytes csv.writer
        writes for the same breakdowns, ids quoted where they must be."""
        config = parse_config(FULL_CONFIG)
        ids_a = ["plain", "com,ma", 'quo"te', "new\nline", "carriage\rreturn", " spaced out "]
        ids_b = ["", "b,\n1", '"b2"']
        position = FeatureValue((12.0, 980.0))
        objects_a = [
            InformationObject(oid, "s1", {"position": position, "type": FeatureValue("tank")}) for oid in ids_a
        ]
        objects_b = [
            InformationObject(oid, "s2", {"position": position, "readiness": FeatureValue(4), "type": FeatureValue("tank")})
            for oid in ids_b
        ]
        breakdowns = pairwise_breakdowns(object_run(config.schema, config.profiles, objects_a, objects_b))
        columnar = tmp_path / "columnar.csv"
        write_breakdowns_csv(columnar, breakdowns, config.schema)
        text = columnar.read_bytes()
        assert text == csv_writer_bytes(list(breakdowns), config.schema)
        assert b'"com,ma",' in text and b'"quo""te",' in text and b'"b,\n1",' in text
        # readiness is absent from every dataset-A object: two empty cells a row.
        assert text.count(b",,,") == len(ids_a) * len(ids_b)


def json_bytes(payload) -> bytes:
    """What write_json writes for ``payload``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "out.json"
        write_json(path, payload)
        return path.read_bytes()


def stdlib_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def pairs_bytes(breakdowns, schema) -> bytes:
    """What write_breakdowns_csv writes for ``breakdowns``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "pairs.csv"
        write_breakdowns_csv(path, breakdowns, schema)
        return path.read_bytes()


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-05])
    | st.text()
)
# Flat records, as report.json holds them: lists and dicts of dicts of scalars.
RECORDS = st.dictionaries(st.text(max_size=8), SCALARS, min_size=1, max_size=4)
JSON_VALUES = st.recursive(
    SCALARS | st.lists(RECORDS, max_size=6) | st.dictionaries(st.text(max_size=8), RECORDS, max_size=4),
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=8), children, max_size=5)
    ),
    max_leaves=40,
)


class ViewSlot:
    """Where a drawn payload holds a column view: ``kind`` is ``"records"``
    (the drawn ``rows``, as one column of records, or as one row of them
    where ``cut`` is odd), ``"candidates"`` or ``"no candidates"``."""

    def __init__(self, kind, rows=(), cut=0):
        self.kind, self.rows, self.cut = kind, rows, cut


VIEW_FIELDS = {"%s": "float", "a": "id", "f": "flag"}
VIEW_ROWS = st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6), st.booleans()), max_size=5)
VIEW_SLOTS = st.sampled_from(["candidates", "no candidates"]).map(ViewSlot) | st.builds(
    lambda rows, cut: ViewSlot("records", rows, cut), VIEW_ROWS, st.integers(0, 5)
)
# Column views anywhere in a JSON value, next to dicts whose keys are not
# strings (which no view may sit in: json.dumps rejects any value it cannot
# encode, a view too).
VIEW_PAYLOADS = st.recursive(
    SCALARS | VIEW_SLOTS | st.dictionaries(st.integers() | st.floats(allow_nan=False), SCALARS, min_size=1, max_size=3),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=20,
)


class TestJsonBytes:
    """write_json writes the bytes of json.dumps(indent=2, sort_keys=True)."""

    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    @example({"a": [], "b": {}, "c": [{}, [[]], {"d": [1, {"e": "\u00e9\n\x00"}]}]})
    @example([[[[[[[[[[1.5]]]]]]]]]])
    @example({"x": (1, -0.0, 1e-05, math.nan, -math.inf, math.inf, 2**100, True, None)})
    @example({"rows": [{"k}": "},\n{", "v": i} for i in range(600)], "more": [{}, {"a": 1}, [{"b": 2}]]})
    def test_any_value(self, value):
        assert json_bytes(value) == stdlib_bytes(value)

    @pytest.mark.parametrize("seed", [7, 21])
    def test_simulation_report(self, seed):
        payload = run_experiment(SceneSpec(rng_seed=seed)).to_payload()
        assert json_bytes(payload) == stdlib_bytes(payload)

    def test_match_candidates(self):
        """All feature kinds, with readiness absent from some pairs."""
        config = parse_config(FULL_CONFIG)
        objects_b = [
            InformationObject("b0", "s2", {
                "position": FeatureValue((13.0, 981.0)),
                "type": FeatureValue("tank"),
            }),
            InformationObject("b1", "s2", {
                "position": FeatureValue((12.0, 980.0)),
                "readiness": FeatureValue(5, Certainty.DOUBTFUL),
                "type": FeatureValue("truck"),
            }),
        ]
        breakdowns = pairwise_breakdowns(object_run(config.schema, config.profiles, sample_objects(config.schema), objects_b))
        found = candidates(breakdowns, 0.0)
        payload = {
            "threshold": 0.0,
            "pair_count": len(breakdowns),
            "candidates": [breakdown_record(b) for b in found],
        }
        assert {len(c["features"]) for c in payload["candidates"]} == {2, 3}
        assert json_bytes(payload) == stdlib_bytes(payload)

    @pytest.mark.parametrize(
        "value", [{1: [2]}, {2: [0], 10: 1}, {None: {"a": [1]}}, {1.5: [2], -0.5: 1, True: {}}]
    )
    def test_non_string_keys(self, value):
        assert json_bytes(value) == stdlib_bytes(value)

    @staticmethod
    def column_views():
        """A payload of column views at several depths, and the same payload
        with each view replaced by its list of records."""
        config = parse_config(FULL_CONFIG)
        breakdowns = pairwise_breakdowns(object_run(
            config.schema, config.profiles, sample_objects(config.schema),
            [InformationObject("b0", "s2", {"position": FeatureValue((13.0, 981.0))})],
        ))
        found = candidates(breakdowns, 0.0)
        fields = {"%s": "float", "a": "id", "f": "flag"}
        columns = [[0.5, -0.0, 1e-05], ["\u00e9\n", 'q"', "%r"], [True, False, False]]
        records = [dict(zip(fields, row)) for row in zip(*columns)]
        # A grid of two rows and no columns holds no record.
        no_columns = [np.zeros((2, 0)), np.array([["a0"], ["a1"]], dtype=object), [[True], [False]]]
        view = {
            "c": found,
            "deep": [[found], {"r": Records(fields, columns)}],
            "empty": [Records(fields, [[], [], []]), Records(fields, no_columns)],
            "none": candidates(breakdowns, 1.0),
        }
        plain = {
            "c": [breakdown_record(b) for b in found],
            "deep": [[[breakdown_record(b) for b in found]], {"r": records}],
            "empty": [[], []],
            "none": [],
        }
        return view, plain

    def test_column_views_are_their_records(self):
        view, plain = self.column_views()
        assert json_bytes(view) == stdlib_bytes(plain)
        assert json_bytes(view["c"]) == stdlib_bytes(plain["c"])

    @staticmethod
    def filled(value, found):
        """``value`` with each :class:`ViewSlot` replaced by a fresh view,
        and ``value`` with each replaced by the view's list of records;
        ``found`` is (candidates, no candidates)."""
        if isinstance(value, ViewSlot):
            if value.kind != "records":
                view = found[value.kind == "no candidates"]
                return view, [breakdown_record(b) for b in view]
            layout = (1, -1) if value.cut % 2 else (-1, 1)
            columns = [list(c) for c in zip(*value.rows)] or [[], [], []]
            columns = [np.array(c, dtype=d).reshape(layout) for c, d in zip(columns, (float, object, bool))]
            return Records(VIEW_FIELDS, columns), [dict(zip(VIEW_FIELDS, row)) for row in value.rows]
        if isinstance(value, dict):
            pairs = {k: TestJsonBytes.filled(v, found) for k, v in value.items()}
            return {k: v for k, (v, _) in pairs.items()}, {k: p for k, (_, p) in pairs.items()}
        if isinstance(value, (list, tuple)):
            pairs = [TestJsonBytes.filled(v, found) for v in value]
            return type(value)(v for v, _ in pairs), type(value)(p for _, p in pairs)
        return value, value

    @settings(max_examples=200, deadline=None)
    @given(VIEW_PAYLOADS)
    @example(ViewSlot("candidates"))
    @example(ViewSlot("records", [(0.5, "\u00e9\n", True), (-0.0, 'q"', False)], 1))
    @example({"a": ({1: 2.5}, ViewSlot("no candidates"), [ViewSlot("records")]), "b": {1.5: None}, "c": [[ViewSlot("candidates")]]})
    def test_column_views_anywhere(self, value):
        """A view anywhere in a payload is written as its list of records."""
        view, plain = self.filled(value, self.found())
        assert json_bytes(view) == stdlib_bytes(plain)

    @staticmethod
    @functools.cache
    def found():
        """Candidates of every pair of a match, and none."""
        view, _ = TestJsonBytes.column_views()
        return view["c"], view["none"]

    @pytest.mark.parametrize("decoy", [
        "\x00column view 0:0",
        "\x00column view 0:1",
        'x"\x00column view 0:0',
        ["\x00column view 0:0", "\x00column view 1:0", {"\x00column view 2:1": "\x00column view 2:0"}],
    ])
    def test_payload_strings_never_collide_with_a_view(self, decoy):
        """Payload strings and keys that look like text a writer might mark a
        view's place with are written as themselves, next to the views."""
        view, plain = self.column_views()
        view["decoy"] = plain["decoy"] = decoy
        view[str(decoy)] = plain[str(decoy)] = 1
        assert json_bytes(view) == stdlib_bytes(plain)

    def test_column_records_with_repeated_and_escaped_ids(self):
        """Ids repeated within a column and across columns, and ids holding
        %, a quote, a backslash or non-ASCII text, keep their own texts, as 1-D
        columns and as the same records laid out in two grid rows."""
        ids = ["%s", 'q"', "back\\slash", "\u00e9t\u00e9", "\U0001f600", "%%", "%s", 'q"']
        fields = {"a": "id", "b": "id", "f": "flag", "p": "float"}
        columns = [ids + ids[::-1], ["b0"] * 8 + ids, [True, False] * 4 + [True] * 8, [0.5, -0.0] * 4 + list(range(8))]
        records = [dict(zip(fields, row)) for row in zip(*columns[:3], map(float, columns[3]))]
        grid = [np.array(c, dtype=object if k < 2 else None).reshape(2, 8) for k, c in enumerate(columns)]
        for view in (Records(fields, columns), Records(fields, grid)):
            assert json_bytes({"r": view, "s": 1}) == stdlib_bytes({"r": records, "s": 1})
            assert view.records() == records

    def test_record_keys_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            Records({"b": "id", "a": "id"}, [[], []])

    def test_unencodable_value_raises_like_the_stdlib(self):
        for value in ({"a": [object()]}, {"a": {(1, 2): [1]}}):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                json_bytes(value)


OBJECTS_B = (
    InformationObject("b0", "s2", {"position": FeatureValue((13.0, 981.0)), "type": FeatureValue("tank")}),
    InformationObject("b1", "s2", {
        "position": FeatureValue((12.0, 980.0)),
        "readiness": FeatureValue(5, Certainty.DOUBTFUL),
        "type": FeatureValue("truck"),
    }),
)


def match_scores(n_a: int, n_b: int):
    """The schema and the scores of a run of all feature kinds, readiness
    absent from a1 and b0."""
    config = parse_config(FULL_CONFIG)
    scores = pairwise_breakdowns(
        object_run(config.schema, config.profiles, sample_objects(config.schema)[:n_a], OBJECTS_B[:n_b])
    )
    return config.schema, scores


def candidates_payload(found):
    """candidates.json's payload, and the same with the candidates as records."""
    payload = {"threshold": 0.0, "pair_count": len(found.scores), "candidates": found}
    return payload, {**payload, "candidates": [breakdown_record(b) for b in found]}


class TestSharedFloatTexts:
    """pairs.csv and candidates.json give the bytes of csv.writer and
    json.dumps in either order."""

    def test_either_writer_first(self):
        schema, scores = match_scores(2, 2)
        found = candidates(scores, 0.0)
        assert found.scores is scores
        payload, plain = candidates_payload(found)
        csv_first = pairs_bytes(scores, schema)
        json_after = json_bytes(payload)

        schema, scores = match_scores(2, 2)
        payload, _ = candidates_payload(candidates(scores, 0.0))
        json_first = json_bytes(payload)
        csv_after = pairs_bytes(scores, schema)

        assert json_first == json_after == stdlib_bytes(plain)
        assert csv_first == csv_after == csv_writer_bytes(list(scores), schema)
        assert {len(c["features"]) for c in plain["candidates"]} == {2, 3}

    @pytest.mark.parametrize("n_a, n_b", [(0, 2), (2, 0), (1, 1)])
    def test_edge_shapes(self, n_a, n_b):
        schema, scores = match_scores(n_a, n_b)
        payload, plain = candidates_payload(candidates(scores, 0.0))
        assert json_bytes(payload) == stdlib_bytes(plain)
        assert pairs_bytes(scores, schema) == csv_writer_bytes(list(scores), schema)
        assert len(plain["candidates"]) == n_a * n_b

    def test_scores_below_1e_4(self):
        """Scores that float_texts renders through repr, not orjson: position
        proximities of windows that barely meet."""
        config = parse_config(FULL_CONFIG)
        objects_b = [
            InformationObject(f"b{k}", "s2", {"position": FeatureValue((x, 980.5)), "type": FeatureValue("tank")})
            for k, x in enumerate([12.25, 144.0, 150.0, 155.0, 158.5])
        ]
        scores = pairwise_breakdowns(object_run(config.schema, config.profiles, sample_objects(config.schema), objects_b))
        tiny = [b.per_feature["position"].proximity for b in scores]
        assert sum(0.0 < p < 1e-4 for p in tiny) == 4
        payload, plain = candidates_payload(candidates(scores, 0.0))
        assert json_bytes(payload) == stdlib_bytes(plain)
        assert pairs_bytes(scores, config.schema) == csv_writer_bytes(list(scores), config.schema)


# Each side of the two bounds of orjson's range, the largest double written
# without an exponent, and values rendered through repr only.
EDGE_FLOATS = [
    0.0, 1e-4, math.nextafter(1e-4, 0.0), 1e16, math.nextafter(1e16, 0.0), 9999999999999998.0,
    1e15, 123.0, 1e-05, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
]
EDGE_FLOATS += [-x for x in EDGE_FLOATS]
FLOAT_LISTS = st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(), max_size=30)


class TestFloatTexts:
    """float_texts gives float.__repr__ of every value: this is what catches
    an orjson whose float format differs from repr's."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(FLOAT_LISTS, min_size=1, max_size=6))
    @example([EDGE_FLOATS + [math.nan, math.inf, -math.inf] + EDGE_FLOATS] * 3)
    def test_texts_are_reprs(self, arrays):
        for values in arrays:
            assert float_texts(np.array(values, dtype=float)).tolist() == list(map(float.__repr__, values))
        # Arrays of any shape, those of other dtypes read as float64.
        grid = np.array([[0.5, -0.0], [1e-7, 2.0]])
        assert float_texts(grid.T).tolist() == [["0.5", "1e-07"], ["-0.0", "2.0"]]
        assert float_texts(np.arange(3)).tolist() == ["0.0", "1.0", "2.0"]


GRID_FIELDS = {"%s": "float", "a": "id", "b": "id", "f": "flag", "p": "float"}
# Ids json.dumps escapes: a quote, a backslash, non-ASCII and control characters.
GRID_IDS = st.sampled_from(['q"', "back\\slash", "\u00e9t\u00e9", "\x00\x1f\n", "\U0001f600"]) | st.text(max_size=4)
# Floats across both renderers: -0.0, subnormals, below 1e-4 and from 1e16 up.
GRID_FLOATS = st.sampled_from(EDGE_FLOATS + [5e-324, -5e-324, 1e-5, 3e-200, 1e17, 2.5e300]) | st.floats(
    allow_nan=False, allow_infinity=False
)


def grid_records(ids_a, ids_b, floats, flags) -> Records:
    """The records of a grid of ``ids_a`` by ``ids_b``, the ids given as an
    ``(n_a, 1)`` and a ``(1, n_b)`` column, whose two float columns and flag
    column repeat ``floats`` and ``flags`` in row-major order."""
    shape = (len(ids_a), len(ids_b))
    values = np.resize(np.array(floats, dtype=float), (2, *shape))
    ids = [np.array(ids_a, dtype=object).reshape(-1, 1), np.array(ids_b, dtype=object).reshape(1, -1)]
    return Records(GRID_FIELDS, [values[0], *ids, np.resize(np.array(flags, dtype=bool), shape), values[1]])


@st.composite
def grids(draw):
    """Grids of up to 3 rows, some of them longer than a block, of ids drawn
    from a pool and floats and flags repeated from short drawn lists."""
    n_a = draw(st.integers(0, 3))
    n_b = draw(st.integers(0, 4) | st.integers(RECORDS_PER_BLOCK - 1, RECORDS_PER_BLOCK + 2))
    pool = draw(st.lists(GRID_IDS, min_size=1, max_size=6))
    ids_a = draw(st.lists(GRID_IDS, min_size=n_a, max_size=n_a))
    ids_b = [pool[k % len(pool)] for k in range(n_b)]
    floats = draw(st.lists(GRID_FLOATS, min_size=1, max_size=12))
    return grid_records(ids_a, ids_b, floats, draw(st.lists(st.booleans(), min_size=1, max_size=5)))


class TestGridRecords:
    """The records of a grid are written as json.dumps writes them."""

    @settings(max_examples=150, deadline=None)
    @given(grids())
    @example(grid_records([], ["b0", "b1"], [0.5], [True]))
    @example(grid_records(["a0", "a1"], [], [0.5], [True]))
    @example(grid_records(['q"', "\\"], ["\u00e9", "\x01"], [-0.0, 5e-324, 1e-05, 1e16, 9999999999999998.0, 0.1], [True, False]))
    @example(grid_records(["a0", "a1"], [f"b{k}" for k in range(RECORDS_PER_BLOCK + 1)], EDGE_FLOATS, [False, True, True]))
    def test_bytes_are_json_dumps_of_the_records(self, grid):
        assert json_bytes({"r": grid}) == stdlib_bytes({"r": grid.records()})
        assert json_bytes([grid, {"s": [grid]}]) == stdlib_bytes([grid.records(), {"s": [grid.records()]}])

    @settings(max_examples=150, deadline=None)
    @given(grids())
    @example(grid_records(["a0", "a1"], [f"b{k}" for k in range(RECORDS_PER_BLOCK + 1)], EDGE_FLOATS, [False, True, True]))
    def test_texts_write_the_bytes_of_the_floats(self, grid):
        """A grid given its float columns as texts writes what it writes
        given the floats, and its records read the texts as the floats."""
        floats, ids_a, ids_b, flags, more = grid.columns
        given = Records(grid.fields, [float_texts(floats), ids_a, ids_b, flags, float_texts(more)])
        assert json_bytes({"r": given}) == json_bytes({"r": grid})
        assert json_bytes([given, {"s": [given]}]) == json_bytes([grid, {"s": [grid]}])
        assert given.records() == grid.records()

    def test_records_are_row_major(self):
        grid = grid_records(["a0", "a1"], ["b0", "b1", "b2"], [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5], [True, False])
        assert [(r["a"], r["b"], r["%s"], r["p"], r["f"]) for r in grid.records()] == [
            ("a0", "b0", 0.5, 6.5, True), ("a0", "b1", 1.5, 0.5, False), ("a0", "b2", 2.5, 1.5, True),
            ("a1", "b0", 3.5, 2.5, False), ("a1", "b1", 4.5, 3.5, True), ("a1", "b2", 5.5, 4.5, False),
        ]
        assert {type(r["f"]) for r in grid.records()} == {bool}

    @pytest.mark.parametrize("fields, columns, message", [
        ({"b": "id", "a": "id"}, [["a0"], ["b0"]], "sorted"),
        ({"a": "id", "c": "text"}, [["a0"], ["c0"]], "are none of 'id', 'flag' and 'float'"),
        ({"a": "id", "c": "flag"}, [["a0"]], "one column per key, got 1"),
        ({"a": "id", "b": "id", "c": "flag"}, [["a0"], ["b0"], [True], [False]], "one column per key, got 4"),
        ({"a": "id", "c": "flag"}, [["a0", "a1"], [True, False, True]], "do not broadcast"),
        ({"a": "id", "c": "float"}, [np.full((2, 3), "a0", dtype=object), np.zeros((3, 2))], "do not broadcast"),
        ({"a": "id", "c": "float"}, [np.full((1, 1, 2), "a0", dtype=object), 0.5], "do not broadcast to one grid"),
    ])
    def test_malformed_grid(self, fields, columns, message):
        with pytest.raises(ValueError, match=message):
            Records(fields, columns)


# A valid document touching every section: a Gaussian ordinal feature with a
# per-source spread, explicit feature weights and the two-class options.
FUZZ_CONFIG = {
    **FULL_CONFIG,
    "schema": {"features": [
        *FULL_CONFIG["schema"]["features"],
        {"name": "threat", "kind": "ordinal", "weight": 0.0, "shape": "gaussian", "width": 1.5},
    ]},
    "sources": {**FULL_CONFIG["sources"], "s3": {"position": {"sigma": 10.0}, "threat": {"width": 1.0}}},
    "aggregation": {
        "method": "two-class-weighted",
        "class_weight": 0.5,
        "normalized": True,
        "feature_weights": {"position": 1, "readiness": 0.5, "type": 0.5, "threat": 0.0},
    },
}


def _node_paths(node, prefix=()):
    """The key path of every value below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


FUZZ_PATHS = sorted(_node_paths(FUZZ_CONFIG), key=repr)


@st.composite
def mutated_configs(draw):
    """FUZZ_CONFIG with one to four of its values replaced by random JSON values,
    integers beyond the float range included."""
    doc = json.loads(json.dumps(FUZZ_CONFIG))
    replaced = []
    for path in draw(st.lists(st.sampled_from(FUZZ_PATHS), min_size=1, max_size=4, unique=True)):
        if any(path[:len(r)] == r for r in replaced):
            continue  # inside a value already replaced
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        target[key] = draw(JSON_VALUES | st.integers(min_value=2**1024))
        replaced.append(path)
    return doc


FUZZ_COLUMNS = [
    "object_id", "source_id", "position_x", "position_y", "readiness", "type",
    "position_certainty", "readiness_certainty", "type_certainty",
]
FUZZ_CELLS = st.sampled_from([
    "", " ", "nan", "-inf", "1e400", "0x10", "1_0", "3", "-2", "4.5", "12.25", "tank",
    "certain", "Probable ", "sure", "CERTAINTY", "٣",
]) | st.text(max_size=6)
# Cells the reader accepts, per kind of column.
NUMBERS = st.sampled_from(["3", "-2", "4.5", "1_0", "٣", " 7 ", "1e3", "-0.0"]) | st.builds(
    repr, st.floats(allow_nan=False, allow_infinity=False)
) | st.builds(str, st.integers(-(2**70), 2**70))
LABELS = st.sampled_from(["tank", " truck", "٣", "a,b", 'q"t', "x\ny"])
LEVELS = st.sampled_from(["", " ", "certain", "Probable ", "DOUBTFUL", "possible"])


@st.composite
def valid_records(draw, count):
    """``count`` records of FUZZ_COLUMNS that the reader accepts, every
    feature absent or given, with every certainty, given or not."""
    records = []
    for k in range(count):
        position = draw(st.just(["", " "]) | st.lists(NUMBERS, min_size=2, max_size=2))
        readiness, label = draw(st.just("") | NUMBERS), draw(st.just("") | LABELS)
        records.append([f"o{k}", "s1", *position, readiness, label, *(draw(LEVELS) for _ in range(3))])
    return records


@st.composite
def fuzz_files(draw):
    """(header, records) of a dataset file drawn around the FULL_CONFIG
    schema: records of fuzzed cells, of cells the reader accepts (a column
    of its own, if the header has one), of another width, or empty (a blank
    line)."""
    header = draw(
        st.lists(st.sampled_from(FUZZ_COLUMNS) | st.sampled_from(["", "extra", "position"]) | st.text(max_size=4),
                 min_size=1, max_size=11)
        | st.permutations(FUZZ_COLUMNS)
        | st.permutations(FUZZ_COLUMNS[:6] + FUZZ_COLUMNS[7:])
    )
    records = []
    for kind in draw(st.lists(st.sampled_from(["fuzzed", "valid", "valid", "ragged", "blank"]), max_size=5)):
        if kind == "fuzzed":
            records.append(draw(st.lists(FUZZ_CELLS, min_size=len(header), max_size=len(header))))
        elif kind == "valid":
            valid = dict(zip(FUZZ_COLUMNS, draw(valid_records(1))[0]))
            records.append([valid[c] if c in valid else draw(FUZZ_CELLS) for c in header])
        elif kind == "ragged":
            records.append(draw(st.lists(FUZZ_CELLS, min_size=1, max_size=11).filter(lambda r: len(r) != len(header))))
        else:
            records.append([])
    return header, records


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def payload_types(objects):
    return [
        [(name, type(fv.value), tuple(map(type, fv.value)) if isinstance(fv.value, tuple) else ())
         for name, fv in obj.values.items()]
        for obj in objects
    ]


def columns_equal(a: Dataset, b: Dataset) -> bool:
    """Whether two datasets hold the same ids and columns, payload types of
    ordinal ranks included."""
    if (a.ids, a.source_ids) != (b.ids, b.source_ids) or list(a.columns) != list(b.columns):
        return False
    for name, x in a.columns.items():
        y = b.columns[name]
        if not (np.array_equal(x.present, y.present) and np.array_equal(x.certainty, y.certainty)):
            return False
        if x.values.dtype != y.values.dtype or x.values.shape != y.values.shape or list(x.values.ravel()) != list(y.values.ravel()):
            return False
        if x.ranks != y.ranks or [type(r) for r in x.ranks or ()] != [type(r) for r in y.ranks or ()]:
            return False
    return True


class TestFuzz:
    """On arbitrary input the readers return a result or raise their own error."""

    @settings(max_examples=400, deadline=None)
    @given(mutated_configs())
    @example({**FUZZ_CONFIG, "threshold": 2**1100})
    def test_parse_config(self, doc):
        assert parse_config(FUZZ_CONFIG).schema is not None
        try:
            parse_config(doc)
        except ConfigError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(fuzz_files())
    @example((FUZZ_COLUMNS, [["o1", "s1", "1.0", "2.0", "4", "tank", "", "sure", ""]]))
    @example((FUZZ_COLUMNS, [["o1", "s1", "1.0", "2.0", "1" + "0" * 400, "tank", "", "", ""]]))
    @example((FUZZ_COLUMNS, [["o\n1", "s1", "1", "2", "4", "tank", "", "", ""], [], ["o2", "s1", "x", "2", "", "", "", "", ""]]))
    @example((FUZZ_COLUMNS[:5], [["o1", "s1", "1", "2", "3"], ["o2", "s1"]]))
    def test_read_objects_csv(self, file):
        """The columnar reader against the record-by-record one: the same
        objects, payload types included, or the same DataError text; and
        the columns of what it read equal those built from the objects."""
        schema = parse_config(FULL_CONFIG).schema
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "objects.csv"
            write_rows(path, [file[0], *file[1]])
            try:
                want = read_objects_by_record(path, schema)
            except DataError as exc:
                with pytest.raises(DataError) as got:
                    read_objects_csv(path, schema)
                assert str(got.value) == str(exc)
                return
            got = read_objects_csv(path, schema)
            assert got == want and payload_types(got) == payload_types(want)
            assert columns_equal(Dataset.from_objects(got, schema), read_dataset(path, schema))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6).flatmap(valid_records))
    def test_columns_read_equal_columns_of_the_objects(self, records):
        """On files the reader accepts, ``read_dataset`` holds the columns
        ``Dataset.from_objects`` builds from the objects read."""
        schema = parse_config(FULL_CONFIG).schema
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "objects.csv"
            write_rows(path, [FUZZ_COLUMNS, *records])
            read = read_dataset(path, schema)
            assert columns_equal(Dataset.from_objects(read_objects_csv(path, schema), schema), read)
            assert read_objects_csv(path, schema) == read_objects_by_record(path, schema)
