import csv
import functools
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iomatch.aggregate import AggregationMethod, AggregationSpec
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
from iomatch.engine import (
    MatchRun,
    MatchRunError,
    candidates,
    derived_xi_violations,
    evaluate_pair,
    pairwise_breakdowns,
    run_violations,
    threshold_violations,
    value_violations,
)
from iomatch.model import (
    Certainty,
    Dataset,
    FeatureColumn,
    FeatureKind,
    FeatureSchema,
    FeatureValue,
    InformationObject,
    MembershipShape,
    OrdinalAccuracy,
    OrdinalParams,
    QuantAccuracy,
    Schema,
    SourceProfile,
    label_violation,
    profile_violations,
    schema_violations,
)
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
        assert config.profiles["s2"].accuracy["position"].resolved_sigma() == 30.0
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
        """An ordinal column holds its ranks as its values: each is written
        as its float repr (the int rank 4 as ``4.0``), blank where absent,
        and re-reads to the same columns."""
        dataset = Dataset.from_objects(sample_objects(self.schema), self.schema)
        path = tmp_path / "objects.csv"
        write_objects_csv(path, dataset)
        assert path.read_text().splitlines()[1:] == [
            "a0,s1,12.25,980.5,4.0,tank,certain,probable,certain",
            "a1,s1,0.1234567890123,2.0,,truck,certain,,possible",
        ]
        back = read_dataset(path, self.schema)
        for name, column in dataset.columns.items():
            read = back.columns[name]
            assert read.present.tolist() == column.present.tolist()
            assert read.values.tolist() == column.values.tolist()
            assert read.certainty.tolist() == column.certainty.tolist()
        assert back.columns["readiness"].values[:, 0].tolist() == [4.0, 0.0]

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

    def test_unknown_certainty_label_where_the_value_is_absent(self, tmp_path):
        """``a1,a,,bogus`` was read: only the label of a given value was
        checked.  A known label on an absent value is still accepted."""
        schema = Schema((FeatureSchema("r", FeatureKind.ORDINAL_FUZZY, 1.0,
                                       ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, 2.0)),))
        path = tmp_path / "r.csv"
        path.write_text("object_id,source_id,r,r_certainty\na1,a,,bogus\n")
        with pytest.raises(DataError) as error:
            read_dataset(path, schema)
        assert str(error.value) == f"{path}:2: bad certainty for 'r': unknown certainty label: 'bogus'"
        path.write_text("object_id,source_id,r,r_certainty\na1,a,,probable\n")
        assert read_dataset(path, schema).columns["r"].present.tolist() == [False]

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

    def test_header_naming_a_column_twice(self, tmp_path):
        """The first of two type columns was dropped without a word, as a
        csv.DictReader row drops it."""
        path = tmp_path / "twice.csv"
        path.write_text("object_id,source_id,position_x,position_y,readiness,type,type\no1,s1,0,0,4,tank,truck\n")
        with pytest.raises(DataError) as excinfo:
            read_dataset(path, self.schema)
        assert str(excinfo.value) == f"{path}: duplicate columns ['type']"

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
        every number gives a float, a rank given as an integer text too;
        axes give tuples."""
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
            "readiness": FeatureValue(4.0, Certainty.DOUBTFUL),
            "type": FeatureValue("tank"),
        }
        assert type(o1.values["readiness"].value) is float and type(o2.values["readiness"].value) is float
        assert o2.values["type"].value == "truck"
        assert o3.values == {"readiness": FeatureValue(10.0)}
        assert o4.values["readiness"].value == 1.2345678901234568e20
        assert [o.object_id for o in (o1, o2, o3, o4)] == list(dataset.ids)

    def test_absent_feature_keeps_an_empty_column(self, tmp_path):
        path = tmp_path / "objects.csv"
        path.write_text("object_id,source_id,position_x,position_y,readiness,type\no1,s1,1.0,2.0,,tank\n")
        (obj,) = read_objects_csv(path, self.schema)
        assert set(obj.values) == {"position", "type"}


SPEED_SCHEMA = Schema((FeatureSchema("speed", FeatureKind.QUANTITATIVE, 0.5, quantitative_xi=3.0),
                       FeatureSchema("type", FeatureKind.NOMINAL, 0.5, nominal_delta=0.1)))


class TestWriterRefusals:
    """``write_objects_csv`` raises one ValueError naming the object and
    feature of a held value it cannot write, and writes no file."""

    @pytest.mark.parametrize("feature, value, certainty, message", [
        ("speed", math.nan, 1.0, "cannot write a1/speed: expected a finite numeric value"),
        ("speed", -math.inf, 1.0, "cannot write a1/speed: expected a finite numeric value"),
        ("speed", 5.0, 0.3, "cannot write a1/speed: expected a Certainty"),
        ("type", "tank", 0.3, "cannot write a1/type: expected a Certainty"),
    ], ids=["nan", "infinity", "quantitative-certainty", "nominal-certainty"])
    def test_value_it_cannot_write(self, tmp_path, feature, value, certainty, message):
        """A NaN was written as ``nan``, which ``read_dataset`` rejects; a
        certainty of 0.3 raised enum's ``0.3 is not a valid Certainty``."""
        columns = {
            "speed": FeatureColumn(np.array([True, True]), np.array([[1.0], [2.0]]), np.ones(2)),
            "type": FeatureColumn(np.array([True, True]), np.array(["truck", "tank"], dtype=object), np.ones(2)),
        }
        columns[feature].values[1] = value
        columns[feature].certainty[1] = certainty
        dataset = Dataset(SPEED_SCHEMA, ["a0", "a1"], ["a", "a"], columns)
        path = tmp_path / "objects.csv"
        with pytest.raises(ValueError) as excinfo:
            write_objects_csv(path, dataset)
        assert str(excinfo.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("label, message", [
        (None, "cannot write a1/type: expected a label"),
        (3.0, "cannot write a1/type: expected a label"),
        (["tank"], "cannot write a1/type: expected a label"),
        (" tank", "cannot write a1/type: expected a non-empty label without surrounding blanks, got ' tank'"),
    ], ids=["none", "number", "list", "padded"])
    def test_label_it_cannot_write(self, tmp_path, label, message):
        """The writer's label check was its own: a present None was refused
        as a label the CSV reads stripped, and a list raised ``TypeError``.
        It now refuses with the run's check and message."""
        labels = np.array(["truck", None], dtype=object)
        labels[1] = label
        columns = {
            "speed": FeatureColumn(np.array([True, True]), np.array([[1.0], [2.0]]), np.ones(2)),
            "type": FeatureColumn(np.array([True, True]), labels, np.ones(2)),
        }
        path = tmp_path / "objects.csv"
        with pytest.raises(ValueError) as excinfo:
            write_objects_csv(path, Dataset(SPEED_SCHEMA, ["a0", "a1"], ["a", "a"], columns))
        assert str(excinfo.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("feature, value", [("speed", 2.0), ("type", "tank")])
    def test_object_certainty_that_is_not_a_certainty(self, tmp_path, feature, value):
        """An object-built value whose certainty is not a Certainty was
        written as ``certain``; it is held as NaN and refused."""
        obj = InformationObject("a1", "a", {feature: FeatureValue(value, "high")})
        path = tmp_path / "objects.csv"
        with pytest.raises(ValueError) as excinfo:
            write_objects_csv(path, Dataset.from_objects([obj], SPEED_SCHEMA))
        assert str(excinfo.value) == f"cannot write a1/{feature}: expected a Certainty"
        assert not path.exists()

    def test_absent_slot_is_not_read(self, tmp_path):
        """What an absent slot holds is never written, so it is not refused."""
        column = FeatureColumn(np.array([True, False]), np.array([[1.0], [math.nan]]), np.array([1.0, 0.3]))
        labels = FeatureColumn(np.array([True, False]), np.array(["tank", None], dtype=object), np.ones(2))
        dataset = Dataset(SPEED_SCHEMA, ["a0", "a1"], ["a", "a"], {"speed": column, "type": labels})
        write_objects_csv(tmp_path / "objects.csv", dataset)
        assert (tmp_path / "objects.csv").read_text().splitlines()[1:] == ["a0,a,1.0,tank,certain,certain", "a1,a,,,,"]


class TestLabelRule:
    """``model.label_violation`` is the one rule of a nominal label, called
    by ``engine.value_violations`` (for every dataset, and for the dataset
    writer) and by the scene settings."""

    @pytest.mark.parametrize("label", [" tank", "", "tank\t"])
    def test_object_path_refuses_what_a_csv_cannot_hold(self, label):
        """``evaluate_pair`` scored ``" tank"`` and ``""`` against ``"tank"``
        0.1, where a CSV holding those labels reads them as ``"tank"`` (1.0)
        and as absent."""
        profiles = {s: SourceProfile(s, {"speed": QuantAccuracy(sigma=1.0)}) for s in ("a", "b")}
        a = InformationObject("a1", "a", {"type": FeatureValue(label)})
        b = InformationObject("b1", "b", {"type": FeatureValue("tank")})
        message = f"a1/type: expected a non-empty label without surrounding blanks, got {label!r}"
        assert run_violations(object_run(SPEED_SCHEMA, profiles, [a], [b])) == [message]
        with pytest.raises(MatchRunError) as excinfo:
            evaluate_pair(SPEED_SCHEMA, profiles, AggregationSpec(), a, b)
        assert excinfo.value.errors == [message]

    @pytest.mark.parametrize("label", [" tank", "", "tank\t", "\n", "tank", "a b", "x,y", 'say "hi"'])
    def test_one_verdict_everywhere(self, tmp_path, label):
        refused = label_violation(label) is not None
        assert refused == (label != label.strip() or not label)
        assert bool(SceneSpec(type_alphabet=(label, "zz")).violations()) == refused
        profiles = {s: SourceProfile(s, {"speed": QuantAccuracy(sigma=1.0)}) for s in ("a", "b")}
        obj = InformationObject("a1", "a", {"type": FeatureValue(label)})
        assert bool(run_violations(object_run(SPEED_SCHEMA, profiles, [obj], []))) == refused
        column = FeatureColumn(np.ones(1, dtype=bool), np.array([label], dtype=object), np.ones(1))
        dataset = Dataset(SPEED_SCHEMA, ["a1"], ["a"], {"type": column, "speed": FeatureColumn(
            np.zeros(1, dtype=bool), np.zeros((1, 1)), np.ones(1))})
        try:
            write_objects_csv(tmp_path / "objects.csv", dataset)
        except ValueError as error:
            assert refused and str(error) == f"cannot write a1/type: {label_violation(label)}"
        else:
            assert not refused
            assert read_dataset(tmp_path / "objects.csv", SPEED_SCHEMA).columns["type"].values.tolist() == [label]


ROUND_TRIP_SCHEMA = Schema((
    FeatureSchema("position", FeatureKind.QUANTITATIVE, 0.3, quantitative_xi=30.0, axes=("x", "y")),
    FeatureSchema("speed", FeatureKind.QUANTITATIVE, 0.2, quantitative_xi=3.0),
    FeatureSchema("readiness", FeatureKind.ORDINAL_FUZZY, 0.2,
                  ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, width=2.0)),
    FeatureSchema("threat", FeatureKind.ORDINAL_FUZZY, 0.1,
                  ordinal_params=OrdinalParams(MembershipShape.GAUSSIAN, width=1.5)),
    FeatureSchema("type", FeatureKind.NOMINAL, 0.2, nominal_delta=0.1),
))
ROUND_TRIP_PROFILES = {
    "a": SourceProfile("a", {"position": QuantAccuracy(sigma=20.0), "speed": QuantAccuracy(sigma=1.0),
                             "readiness": OrdinalAccuracy(relative_k=0.3)}),
    "b": SourceProfile("b", {"position": QuantAccuracy(delta_max=90.0), "speed": QuantAccuracy(sigma=2.0),
                             "threat": OrdinalAccuracy(width=0.5)}),
}
CERTAINTY_VALUES = [level.value for level in Certainty]


@st.composite
def column_datasets(draw, source):
    """A dataset of ``source`` built from columns, every kind of feature,
    absent slots holding 0.0 (None for a label) and certainty 1.0 as a
    column read from CSV does; ranks integral or not, any certainty level."""
    n = draw(st.integers(1, 4))
    numbers = st.floats(-1e4, 1e4)
    # Integral ranks and others; a relative k of 0.3 keeps the support of
    # any rank of 5 or more from collapsing.
    ranks = st.integers(5, 60).map(float) | st.floats(5.0, 60.0)
    labels = st.sampled_from(["tank", "truck", "x,y", 'say "hi"', "two\nlines", "é"])
    columns = {}
    for f in ROUND_TRIP_SCHEMA.features:
        present = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        certainty = np.where(present, draw(st.lists(st.sampled_from(CERTAINTY_VALUES), min_size=n, max_size=n)), 1.0)
        if f.kind is FeatureKind.NOMINAL:
            values = np.empty(n, dtype=object)
            values[:] = [draw(labels) if held else None for held in present.tolist()]
        else:
            drawn = draw(st.lists(ranks if f.kind is FeatureKind.ORDINAL_FUZZY else numbers,
                                  min_size=n * f.arity, max_size=n * f.arity))
            values = np.where(present[:, None], np.array(drawn, dtype=float).reshape(n, f.arity), 0.0)
        columns[f.name] = FeatureColumn(present, values, certainty)
    return Dataset(ROUND_TRIP_SCHEMA, [f"{source}{i}" for i in range(n)], [source] * n, columns)


def _edge_columns() -> Dataset:
    """Six objects built from columns: every feature kind with absent slots,
    a subnormal, a signed zero, values of 1e16 and up and at the end of the
    float range, integral and other ranks, every certainty level, and labels
    that need CSV quoting."""
    present = np.array([[1, 1, 0, 1, 1, 0], [1, 0, 1, 1, 0, 1], [1, 1, 1, 0, 1, 1], [0, 1, 1, 1, 1, 0],
                        [1, 0, 1, 1, 1, 0]], dtype=bool)
    values = {
        "position": [[12.25, 980.5], [-0.0, 1e-7], [0.0, 0.0], [1e16, -3.5], [0.1, 0.2], [0.0, 0.0]],
        "speed": [[2.5], [0.0], [1e-320], [7.0], [-1.7e308], [0.0]],
        "readiness": [[4.0], [0.0], [4.5], [-3.0], [1e17], [0.0]],
        "threat": [[0.0], [2.0], [9.75], [3.0], [0.0], [0.0]],
    }
    columns = {}
    for k, f in enumerate(ROUND_TRIP_SCHEMA.features):
        held = present[k]
        certainty = np.where(held, [CERTAINTY_VALUES[(k + i) % 4] for i in range(6)], 1.0)
        if f.kind is FeatureKind.NOMINAL:
            cells = np.array(["tank", None, "x,y", 'say "hi"', "truck", None], dtype=object)
        else:
            cells = np.where(held[:, None], values[f.name], 0.0)
        columns[f.name] = FeatureColumn(held, cells, certainty)
    return Dataset(ROUND_TRIP_SCHEMA, [f"a{i}" for i in range(6)], ["a"] * 6, columns)


# tests/test_cli.py writes it in processes of their own, under two hash seeds.
EDGE_COLUMNS = _edge_columns()


def assert_same_cells(back, dataset):
    """``back`` holds the ids, ``present`` and the bits of every value and
    certainty of ``dataset``."""
    assert back.ids == dataset.ids and back.source_ids == dataset.source_ids
    for name, column in dataset.columns.items():
        got = back.columns[name]
        assert got.present.tolist() == column.present.tolist()
        assert got.certainty.view(np.uint64).tolist() == column.certainty.view(np.uint64).tolist()
        if column.values.dtype == object:
            assert got.values.tolist() == column.values.tolist()
        else:
            assert got.values.shape == column.values.shape
            assert got.values.view(np.uint64).tolist() == column.values.view(np.uint64).tolist()


def test_edge_columns_round_trip_bit_for_bit(tmp_path):
    write_objects_csv(tmp_path / "a.csv", EDGE_COLUMNS)
    assert (tmp_path / "a.csv").read_text().splitlines()[1].startswith("a0,a,12.25,980.5,2.5,4.0,,tank,")
    assert_same_cells(read_dataset(tmp_path / "a.csv", ROUND_TRIP_SCHEMA), EDGE_COLUMNS)


def test_edge_columns_with_two_labels_the_rule_rejects(tmp_path):
    """The run lists both labels, in row order; the writer refuses at the
    first with the run's message and writes no file."""
    accuracy = {"position": QuantAccuracy(sigma=20.0), "speed": QuantAccuracy(sigma=1e300),
                "readiness": OrdinalAccuracy(width=100.0)}
    profiles = {s: SourceProfile(s, accuracy) for s in ("a", "b")}
    empty = Dataset.from_objects([], ROUND_TRIP_SCHEMA)
    assert run_violations(MatchRun(ROUND_TRIP_SCHEMA, profiles, EDGE_COLUMNS, empty)) == []
    column = EDGE_COLUMNS.columns["type"]
    labels = column.values.copy()
    labels[0], labels[2] = " tank", None
    bad = Dataset(ROUND_TRIP_SCHEMA, EDGE_COLUMNS.ids, EDGE_COLUMNS.source_ids,
                  {**EDGE_COLUMNS.columns, "type": FeatureColumn(column.present, labels, column.certainty)})
    padded = "a0/type: expected a non-empty label without surrounding blanks, got ' tank'"
    assert run_violations(MatchRun(ROUND_TRIP_SCHEMA, profiles, bad, empty)) == [padded, "a2/type: expected a label"]
    with pytest.raises(ValueError) as excinfo:
        write_objects_csv(tmp_path / "a.csv", bad)
    assert str(excinfo.value) == f"cannot write {padded}"
    assert not (tmp_path / "a.csv").exists()


@settings(max_examples=150, deadline=None)
@given(column_datasets("a"), column_datasets("b"))
def test_column_dataset_round_trips_bit_for_bit(dataset_a, dataset_b):
    """``read_dataset(write_objects_csv(ds))`` holds the same ``present``,
    the same bits in ``values`` and ``certainty``, and scores every pair as
    ``ds`` does; a rank is written as its float repr."""
    with tempfile.TemporaryDirectory() as directory:
        read = []
        for dataset in (dataset_a, dataset_b):
            path = Path(directory) / f"{dataset.source_ids[0]}.csv"
            write_objects_csv(path, dataset)
            read.append(read_dataset(path, ROUND_TRIP_SCHEMA))
    for dataset, back in zip((dataset_a, dataset_b), read):
        assert_same_cells(back, dataset)
    want = MatchRun(ROUND_TRIP_SCHEMA, ROUND_TRIP_PROFILES, dataset_a, dataset_b)
    assert run_violations(want) == []
    got = MatchRun(ROUND_TRIP_SCHEMA, ROUND_TRIP_PROFILES, *read)
    assert list(pairwise_breakdowns(got)) == list(pairwise_breakdowns(want))


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
# per-source spread, a zero feature weight and the two-class options.
FUZZ_CONFIG = {
    **FULL_CONFIG,
    "schema": {"features": [
        *FULL_CONFIG["schema"]["features"],
        {"name": "threat", "kind": "ordinal", "weight": 0.0, "shape": "gaussian", "width": 1.5},
    ]},
    "sources": {**FULL_CONFIG["sources"], "s3": {"position": {"sigma": 10.0}, "threat": {"width": 1.0}}},
    "aggregation": {"method": "two-class-weighted", "class_weight": 0.5, "normalized": True},
}


def _node_paths(node, prefix=()):
    """The key path of every value below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


FUZZ_PATHS = sorted(_node_paths(FUZZ_CONFIG), key=repr)


# --- one rule per setting: a configuration file and Python agree ----------------

RULES_CONFIG = {
    **FULL_CONFIG,
    "schema": {"features": [
        *FULL_CONFIG["schema"]["features"],
        {"name": "threat", "kind": "ordinal", "weight": 0.0, "shape": "gaussian", "width": 1.5},
    ]},
    "sources": {**FULL_CONFIG["sources"], "s3": {"position": {"sigma": 10.0}, "threat": {"width": 1.0}}},
    "aggregation": {"method": "two-class-weighted", "class_weight": 0.5},
    "simulation": {"object_count": 5, "area": [1000.0, 1000.0], "rmse": [20.0, 30.0], "type_error": 0.1,
                   "fleet_sigma_min": 10.0, "seed": 42},
}
# Every value of the JSON number type; object_count and seed are integers.
RULES_PATHS = [
    path for path in _node_paths(RULES_CONFIG)
    if path[-1] not in ("object_count", "seed") and type(functools.reduce(lambda node, key: node[key], path, RULES_CONFIG))
    in (int, float)
]
# "1e400" stands for that text, which json reads as inf.
EDGE_NUMBERS = st.sampled_from(
    [1e308, 10**400, "1e400", 5e-324, 0.0, -0.0, -1.0, -1e308, math.inf, -math.inf, math.nan]
) | st.floats(allow_nan=False, allow_infinity=False) | st.floats(0.0, 1.0)


# Edits of RULES_CONFIG's structure that a Python caller can make too, or
# (a width outside an ordinal shape) that only a configuration can: an empty
# axes list, null for each key whose default is None, a width on a
# quantitative and a nominal feature, and an accuracy for a feature the
# schema lacks.
NULLABLE_PATHS = [
    ("schema", "features", 0, "xi"), ("schema", "features", 0, "axes"), ("schema", "features", 1, "width"),
    ("schema", "features", 2, "delta"), ("schema", "features", 3, "width"), ("sources", "s1", "position", "sigma"),
    ("sources", "s1", "readiness", "k"), ("sources", "s2", "position", "delta_max"), ("sources", "s3", "threat", "width"),
    ("aggregation", "class_weight"),
]
STRUCTURAL_EDITS = [
    (("schema", "features", 0, "axes"), []),
    *((path, None) for path in NULLABLE_PATHS),
    (("schema", "features", 0, "width"), 2.0),
    (("schema", "features", 2, "width"), 2.0),
    (("sources", "s1", "spede"), {"sigma": 1.0}),
]


def edge_config(numbers, edits=()) -> dict:
    """RULES_CONFIG with the number at each path of ``numbers`` replaced,
    then each (path, value) of ``edits`` set, written as JSON text and read back."""
    doc = json.loads(json.dumps(RULES_CONFIG))
    for (*parents, key), value in [*numbers.items(), *edits]:
        functools.reduce(lambda node, k: node[k], parents, doc)[key] = value
    return json.loads(json.dumps(doc).replace('"1e400"', "1e400"))


EDGE_CONFIGS = st.builds(
    edge_config,
    st.dictionaries(st.sampled_from(RULES_PATHS), EDGE_NUMBERS, min_size=1, max_size=6),
    st.lists(st.sampled_from(STRUCTURAL_EDITS), max_size=3),
)


def config_verdict(doc) -> list[str]:
    """The messages ``parse_config`` rejects ``doc`` with; none when it accepts it."""
    try:
        parse_config(doc)
    except ConfigError as error:
        return error.errors
    return []


def python_violations(doc) -> list[str]:
    """The violations of the dataclasses a Python caller builds from ``doc``,
    from the same violations functions, gated as ``parse_config`` gates them.
    A null is an absent setting; a width without a shape, which no
    ``FeatureSchema`` can hold, is the one rule a configuration adds."""
    kinds = {"quantitative": FeatureKind.QUANTITATIVE, "ordinal": FeatureKind.ORDINAL_FUZZY,
             "nominal": FeatureKind.NOMINAL}
    features = [
        FeatureSchema(
            f["name"], kinds[f["kind"]], f["weight"], quantitative_xi=f.get("xi"), nominal_delta=f.get("delta"),
            ordinal_params=OrdinalParams(MembershipShape(f["shape"]), f.get("width")) if "shape" in f else None,
            axes=None if f.get("axes") is None else tuple(f["axes"]),
        )
        for f in doc["schema"]["features"]
    ]
    errors = [f"{f['name']}: width only applies to ordinal features" for f in doc["schema"]["features"]
              if f.get("width") is not None and "shape" not in f]
    errors = errors or schema_violations(features)
    schema = None
    if not errors:
        schema = Schema(tuple(features))
        profiles = {}
        for sid, entries in doc["sources"].items():
            accuracy = {
                name: QuantAccuracy(p.get("sigma"), p.get("delta_max"))
                if name not in schema.names or schema.feature(name).kind is FeatureKind.QUANTITATIVE
                else OrdinalAccuracy(p.get("k"), p.get("width"))
                for name, p in entries.items()
            }
            profiles[sid] = SourceProfile(sid, accuracy)
        violations = [error for profile in profiles.values() for error in profile_violations(profile, schema)]
        # An accuracy for a feature the schema lacks is reported as the
        # configuration is read, so it gates the other profile rules.
        unknown = [error for error in violations if "accuracy given for unknown feature" in error]
        errors += unknown or violations + derived_xi_violations(schema, profiles)
    raw = doc["aggregation"]
    spec = AggregationSpec(AggregationMethod(raw["method"]), raw.get("class_weight"))
    if schema is not None:
        errors += spec.violations()
    errors += threshold_violations(doc["threshold"])
    sim = doc["simulation"]
    scene = SceneSpec(sim["object_count"], tuple(sim["area"]), rmse=tuple(sim["rmse"]), type_error=sim["type_error"],
                      fleet_sigma_min=sim["fleet_sigma_min"], rng_seed=sim["seed"])
    return errors + scene.violations()


@settings(max_examples=300, deadline=None)
@given(EDGE_CONFIGS)
@example(edge_config({("schema", "features", 0, "xi"): 10**400, ("sources", "s2", "position", "delta_max"): "1e400"}))
@example(edge_config({("simulation", "area", 0): "1e400", ("threshold",): math.nan, ("schema", "features", 0, "weight"): 10**400}))
@example(edge_config({("sources", "s2", "position", "delta_max"): -1.0}, [(("sources", "s1", "spede"), {"sigma": 1.0})]))
def test_config_and_python_give_one_verdict(doc):
    """Finite, huge, subnormal, zero, negative, infinite and NaN numbers,
    with or without edits of the document's structure: a configuration and
    the same objects built in Python are both accepted, or both rejected
    with the same messages in the same order."""
    assert config_verdict(doc) == python_violations(doc)


@pytest.mark.parametrize("path, value", STRUCTURAL_EDITS, ids=[f"{'/'.join(map(str, p))}={v!r}" for p, v in STRUCTURAL_EDITS])
def test_each_structural_edit_gives_one_verdict(path, value):
    """Each edit alone: ``"axes": []`` got OK from a configuration and
    ``axes must be non-empty and unique`` from Python; a width on a
    quantitative or nominal feature was never read; an accuracy for an
    unknown feature had a message of its own."""
    doc = edge_config({}, [(path, value)])
    assert config_verdict(doc) == python_violations(doc)


# Null for each key whose default is not None: its type message, where
# ``area``, ``types`` and ``rmse`` took their defaults.
NULL_TYPE_MESSAGES = [
    (("schema", "features"), "schema: features must be an array, got None"),
    (("schema", "features", 0, "kind"), "position: unknown kind None"),
    (("schema", "features", 0, "weight"), "position: weight must be a number, got None"),
    (("sources",), "sources must be an object, got None"),
    (("aggregation",), "aggregation must be an object, got None"),
    (("aggregation", "method"), "aggregation: method must be a string, got None"),
    (("aggregation", "normalized"), "aggregation: normalized must be a boolean, got None"),
    (("threshold",), "threshold must be a number, got None"),
    (("simulation", "object_count"), "simulation: object_count must be an integer, got None"),
    (("simulation", "area"), "simulation: area must be an array, got None"),
    (("simulation", "types"), "simulation: types must be an array, got None"),
    (("simulation", "rmse"), "simulation: rmse must be an array, got None"),
    (("simulation", "type_error"), "simulation: type_error must be a number, got None"),
    (("simulation", "fleet_sigma_min"), "simulation: fleet_sigma_min must be a number, got None"),
    (("simulation", "seed"), "simulation: seed must be an integer, got None"),
]


@pytest.mark.parametrize("path, message", NULL_TYPE_MESSAGES, ids=["/".join(map(str, p)) for p, _ in NULL_TYPE_MESSAGES])
def test_null_is_absent_only_where_the_default_is_none(path, message):
    assert config_verdict(edge_config({}, [(path, None)])) == [message]


@pytest.mark.parametrize("index", [0, 2], ids=["quantitative", "nominal"])
@pytest.mark.parametrize("width, message", [
    (2.0, "width only applies to ordinal features"), ("wide", "width must be a number, got 'wide'"),
], ids=["number", "wide"])
def test_width_applies_to_ordinal_features_only(index, width, message):
    """A width on a feature without a membership shape was never read: even
    ``"width": "wide"`` validated OK."""
    name = RULES_CONFIG["schema"]["features"][index]["name"]
    assert config_verdict(edge_config({}, [(("schema", "features", index, "width"), width)])) == [f"{name}: {message}"]


def test_accuracy_for_an_unknown_feature_has_the_model_text():
    """A configuration reported ``s1: accuracy for unknown feature 'spede'``
    and Python ``... accuracy given for ...``; now both give the model's
    text, and the configuration still reports it beside the other source
    errors."""
    doc = edge_config({("sources", "s2", "position", "delta_max"): "x"}, [(("sources", "s1", "spede"), {"sigma": 1.0})])
    schema = parse_config(RULES_CONFIG).schema
    (text,) = profile_violations(SourceProfile("s1", {"spede": QuantAccuracy(1.0)}), schema)[:1]
    assert config_verdict(doc) == [text, "s2/position: delta_max must be a number, got 'x'"]
    assert text == "s1: accuracy given for unknown feature 'spede'"


# --- objects, columns and the writer judge a held value alike --------------------

ENTRY_PAYLOADS = st.one_of(
    st.sampled_from([
        math.nan, math.inf, -math.inf, True, False, 10**400, -(10**400), 4, 2.5, -3.0, 1e17,
        (), (1.0,), (1.0, 2.0), (1.0, 2.0, 3.0), (1.0, math.nan), (1.0, "x"), (True, 1.0), [1.0, 2.0],
        "tank", "fast", " tank", "tank\t", "", None, ["tank"], np.float64(1.5), np.str_("tank"),
    ]),
    st.floats(),
    st.tuples(st.floats(), st.floats()),
    st.text(alphabet=" \tab,", max_size=3),
)
ENTRY_CERTAINTIES = st.sampled_from([*Certainty, "high", None, 0.7, 1.0, math.nan])
ENTRY_SCHEMA = Schema((
    FeatureSchema("position", FeatureKind.QUANTITATIVE, 0.3, quantitative_xi=30.0, axes=("x", "y")),
    FeatureSchema("speed", FeatureKind.QUANTITATIVE, 0.2, quantitative_xi=3.0),
    FeatureSchema("readiness", FeatureKind.ORDINAL_FUZZY, 0.3,
                  ordinal_params=OrdinalParams(MembershipShape.TRIANGULAR, width=2.0)),
    FeatureSchema("type", FeatureKind.NOMINAL, 0.2, nominal_delta=0.1),
))
ENTRY_PROFILES = {s: SourceProfile(s, {"position": QuantAccuracy(sigma=20.0), "speed": QuantAccuracy(sigma=1.0)})
                  for s in ("a", "b")}
ENTRY_OBJECTS = st.lists(
    st.dictionaries(st.sampled_from(ENTRY_SCHEMA.names), st.builds(FeatureValue, ENTRY_PAYLOADS, ENTRY_CERTAINTIES)),
    min_size=1, max_size=4,
)


def _held_number(x) -> bool:
    """A real other than bool that is finite, an int past the float range excepted."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _columns_holding(objects: list[InformationObject]) -> dict[str, FeatureColumn]:
    """The cells a dataset of ``objects`` holds, built cell by cell: a label
    as is, a number or a tuple of the feature's arity of numbers as given
    (NaN on every axis where it is neither), a certainty that is not a
    Certainty as NaN, and 0.0, None and 1.0 where absent."""
    n, columns = len(objects), {}
    for f in ENTRY_SCHEMA.features:
        present = np.zeros(n, dtype=bool)
        certainty = np.ones(n)
        values = np.empty(n, dtype=object) if f.kind is FeatureKind.NOMINAL else np.zeros((n, f.arity))
        for k, o in enumerate(objects):
            fv = o.values.get(f.name)
            if fv is None:
                continue
            present[k] = True
            certainty[k] = fv.certainty.value if isinstance(fv.certainty, Certainty) else math.nan
            if f.kind is FeatureKind.NOMINAL:
                values[k] = fv.value
                continue
            parts = fv.value if f.axes else (fv.value,)
            held = type(parts) is tuple and len(parts) == f.arity and all(map(_held_number, parts))
            values[k] = parts if held else math.nan
        columns[f.name] = FeatureColumn(present, values, certainty)
    return columns


@settings(max_examples=300, deadline=None)
@given(ENTRY_OBJECTS)
@example([{"type": FeatureValue(" tank")}, {"type": FeatureValue(None)}, {"type": FeatureValue(["tank"])}])
@example([{"speed": FeatureValue(2.0, "high"), "readiness": FeatureValue(4, 0.7)}, {"position": FeatureValue((1.0,))}])
def test_objects_columns_and_writer_give_one_verdict(entries):
    """Every kind of entry, held by a dataset built from objects or by one
    built from the same cells as columns, gets one ``run_violations``
    verdict; and ``write_objects_csv`` refuses exactly the first held value
    that ``value_violations(..., certainty=True)`` rejects, with its message,
    and writes no file then."""
    objects = [InformationObject(f"a{k}", "a", values) for k, values in enumerate(entries)]
    ids, sources = [o.object_id for o in objects], [o.source_id for o in objects]
    from_objects = Dataset.from_objects(objects, ENTRY_SCHEMA)
    from_columns = Dataset(ENTRY_SCHEMA, ids, sources, _columns_holding(objects))
    dataset_b = Dataset.from_objects([InformationObject("b0", "b", {"speed": FeatureValue(1.0)})], ENTRY_SCHEMA)
    verdicts = [run_violations(MatchRun(ENTRY_SCHEMA, ENTRY_PROFILES, dataset, dataset_b))
                for dataset in (from_objects, from_columns)]
    assert verdicts[0] == verdicts[1]
    refusals = [f"cannot write {ids[failed[0][0]]}/{f.name}: {failed[0][1]}" for f in ENTRY_SCHEMA.features
                if (failed := value_violations(f, from_columns.columns[f.name], certainty=True)[1])]
    with tempfile.TemporaryDirectory() as tmp:
        for dataset in (from_objects, from_columns):
            path = Path(tmp) / "objects.csv"
            try:
                write_objects_csv(path, dataset)
            except ValueError as error:
                assert refusals and str(error) == refusals[0]
                assert not path.exists()
            else:
                assert not refusals
                path.unlink()


# --- a key no parser reads is one more message -----------------------------------

# The keys of each object of a configuration whose keys a parser fixes.  The
# keys of ``sources`` and of each source are source ids and feature names.
ACCEPTED_KEYS = {
    "document": {"schema", "sources", "aggregation", "threshold", "simulation"},
    "schema": {"features"},
    "feature": {"name", "kind", "weight", "xi", "delta", "shape", "width", "axes"},
    "quantitative accuracy": {"sigma", "delta_max"},
    "ordinal accuracy": {"k", "width"},
    "aggregation": {"method", "class_weight", "normalized"},
    "simulation": {"object_count", "area", "types", "rmse", "type_error", "fleet_sigma_min", "seed"},
}
ROOT = Path(__file__).resolve().parent.parent


def _seed_configs() -> list[dict]:
    """The README's configuration, the benchmark workloads' and FUZZ_CONFIG:
    valid documents that use only keys the parser reads."""
    (block,) = re.findall(r"^```json\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    bench = str(ROOT / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return [json.loads(block), workloads.SPARSE_CONFIG, workloads.DENSE_CONFIG, {"simulation": {"object_count": 150}},
            FUZZ_CONFIG]


SEED_CONFIGS = _seed_configs()


@pytest.mark.parametrize("doc", SEED_CONFIGS, ids=["readme", "match-sparse", "match-dense-mixed", "simulate", "fuzz"])
def test_seed_configs_are_accepted(doc):
    assert config_verdict(doc) == []


def _fixed_key_objects(doc):
    """(path, kind in ACCEPTED_KEYS, message prefix) of each object of ``doc``
    whose keys a parser fixes."""
    yield (), "document", ""
    features = doc.get("schema", {}).get("features", [])
    if "schema" in doc:
        yield ("schema",), "schema", "schema: "
    for i, feature in enumerate(features):
        yield ("schema", "features", i), "feature", f"{feature['name']}: "
    kinds = {f["name"]: f["kind"] for f in features}
    for sid, entries in doc.get("sources", {}).items():
        for name in entries:
            kind = "quantitative accuracy" if kinds[name] == "quantitative" else "ordinal accuracy"
            yield ("sources", sid, name), kind, f"{sid}/{name}: "
    for section in ("aggregation", "simulation"):
        if section in doc:
            yield (section,), section, f"{section}: "


@st.composite
def unknown_key_configs(draw):
    """(document, the document with one key outside its object's accepted
    set, the message naming that key's path).  The document is a seed, its
    threshold maybe out of range, so another violation must stay reported."""
    doc = json.loads(json.dumps(draw(st.sampled_from(SEED_CONFIGS))))
    if draw(st.booleans()):
        doc["threshold"] = 2.0
    path, kind, where = draw(st.sampled_from(list(_fixed_key_objects(doc))))
    typos = ["treshold", "xii", "sigmaa", "delta_maxx", "class_wieght", "feature_weights", "objects", ""]
    key = draw((st.sampled_from(sorted(set().union(*ACCEPTED_KEYS.values())) + typos) | st.text(max_size=8))
               .filter(lambda k: k not in ACCEPTED_KEYS[kind]))
    mutated = json.loads(json.dumps(doc))
    functools.reduce(lambda node, k: node[k], path, mutated)[key] = draw(JSON_VALUES)
    return doc, mutated, f"{where}unknown key {key!r}"


@settings(max_examples=300, deadline=None)
@given(unknown_key_configs())
@example((FULL_CONFIG, {**FULL_CONFIG, "aggregation": {"method": "multiplicative", "feature_weights": {}}},
          "aggregation: unknown key 'feature_weights'"))
def test_an_unknown_key_is_one_more_message(case):
    """Any key outside an object's accepted set, in any object of a valid
    configuration, is one message naming its path, ahead of the rest, and
    the verdict on everything else is unchanged."""
    doc, mutated, message = case
    assert config_verdict(mutated) == [message] + config_verdict(doc)


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
    """Whether two datasets hold the same ids and columns."""
    if (a.ids, a.source_ids) != (b.ids, b.source_ids) or list(a.columns) != list(b.columns):
        return False
    for name, x in a.columns.items():
        y = b.columns[name]
        if not (np.array_equal(x.present, y.present) and np.array_equal(x.certainty, y.certainty)):
            return False
        if x.values.dtype != y.values.dtype or x.values.shape != y.values.shape or list(x.values.ravel()) != list(y.values.ravel()):
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
