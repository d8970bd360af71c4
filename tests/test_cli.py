import argparse
import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from iomatch import cli, dataio
from iomatch.cli import _build_parser, main
from iomatch.config import load_config
from iomatch.dataio import read_dataset, read_objects_csv
from iomatch.engine import MatchRun, pairwise_breakdowns
from iomatch.fuzzy import possibility, triangular_from_halfwidth, triangular_from_relative_error
from iomatch.model import InformationObject
from iomatch.quant import NormalErrorModel, quantitative_proximity
from oracles import object_run, ranked_breakdowns
from test_config_dataio import FUZZ_CONFIG, fuzz_files, mutated_configs, write_rows

CONFIG = {
    "schema": {
        "features": [
            {"name": "speed", "kind": "quantitative", "weight": 0.5, "xi": 3.0},
            {"name": "type", "kind": "nominal", "weight": 0.5, "delta": 0.1},
        ]
    },
    "sources": {
        "alpha": {"speed": {"sigma": 2.0}},
        "beta": {"speed": {"sigma": 2.0}},
    },
    "aggregation": {"method": "multiplicative"},
    "threshold": 0.01,
}

PAIR_CSV = """object_id,source_id,speed,type,speed_certainty,type_certainty
a1,alpha,12.0,tank,certain,certain
b1,beta,15.0,tank,certain,certain
"""

# Position and type, as in a simulated scene's two sources.
SCENE_CONFIG = {
    "schema": {"features": [
        {"name": "position", "kind": "quantitative", "weight": 0.5, "axes": ["x", "y"], "xi": 30.0},
        {"name": "type", "kind": "nominal", "weight": 0.5, "delta": 0.1},
    ]},
    "sources": {"s1": {"position": {"sigma": 20.0}}, "s2": {"position": {"sigma": 30.0}}},
    "aggregation": {"method": "multiplicative"},
    "threshold": 0.01,
}

# Every feature kind, a source lacking an accuracy, two-class aggregation.
MIXED_CONFIG = {
    "schema": {"features": [
        {"name": "position", "kind": "quantitative", "weight": 0.3, "axes": ["x", "y"], "xi": 30.0},
        {"name": "speed", "kind": "quantitative", "weight": 0.2},
        {"name": "readiness", "kind": "ordinal", "weight": 0.2, "shape": "triangular", "width": 2},
        {"name": "type", "kind": "nominal", "weight": 0.3, "delta": 0.1},
    ]},
    "sources": {"a": {"position": {"sigma": 20.0}, "speed": {"sigma": 1.5}, "readiness": {"k": 0.6}},
                "b": {"position": {"sigma": 30.0}, "speed": {"delta_max": 9.0}}},
    "aggregation": {"method": "two-class-weighted", "class_weight": 0.6},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSharedParser:
    """main() builds its parser once per process, so in-process calls share
    it; each call still gives what the same call gives alone, in its own
    process."""

    def test_built_once(self):
        assert _build_parser() is _build_parser()

    @staticmethod
    def in_process(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, stdout.getvalue(), stderr.getvalue()

    @staticmethod
    def alone(argv):
        # argparse wraps its usage lines at $COLUMNS.
        child = subprocess.run(
            [sys.executable, "-m", "iomatch.cli", *argv], capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"}
        )
        return child.returncode, child.stdout, child.stderr

    def test_calls_in_order_equal_each_call_alone(self, tmp_path, config_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        a = write(tmp_path, "a.csv", "object_id,source_id,speed,type\na1,alpha,12.0,tank\na2,alpha,300.0,truck\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,type\nb1,beta,12.5,tank\nb2,beta,14.0,\n")
        match = ["match", "--config", str(config_path), str(a), str(b)]
        calls = [
            (["--format", "csv"], 0),
            (["--format", "xml"], 1),
            (["--threshold", "2"], 1),
            ([], 0),
        ]
        for k, (options, code) in enumerate(calls):
            results = []
            for way, run in (("shared", self.in_process), ("alone", self.alone)):
                out = tmp_path / way / str(k)
                got = run(match + options + ["--out", str(out)])
                files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
                results.append((got, files))
            assert results[0] == results[1], options
            assert results[0][0][0] == code
        # The last, plain match writes both formats, not the first call's csv only.
        assert set(results[0][1]) == {"pairs.csv", "candidates.json"}


def argparse_choice_message(name: str, value: str, choices) -> str:
    """The text argparse gives an argument ``name`` (an option or a
    positional) whose value is outside ``choices``: its quoting of the
    choices differs between Python releases."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument(name, choices=choices)
    try:
        parser.parse_args([name, value] if name.startswith("-") else [value])
    except argparse.ArgumentError as exc:
        return str(exc)
    raise AssertionError(f"{value!r} was accepted")


class TestMalformedCommandLine:
    """A malformed command line is one ``error:`` line and exit 1, as every
    other validation failure; nothing goes to stdout.  ``--help`` and
    ``--version`` still exit 0."""

    def test_each_is_one_error_line(self, tmp_path, config_path):
        a = write(tmp_path, "a.csv", "object_id,source_id,speed,type\na1,alpha,12.0,tank\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,type\nb1,beta,12.5,tank\n")
        match = ["match", "--config", str(config_path), str(a), str(b)]
        verbs = ("measure", "match", "simulate", "validate")
        cases = [
            (["match", str(a), str(b)], "the following arguments are required: --config"),
            ([*match, "--format", "xml"], argparse_choice_message("--format", "xml", ("csv", "json"))),
            (["frobnicate"], argparse_choice_message("command", "frobnicate", verbs)),
            ([], "the following arguments are required: command"),
            ([*match, "--bogus"], "unrecognized arguments: --bogus"),
            (["simulate", "--format"], "argument --format: expected one argument"),
        ]
        for argv, message in cases:
            assert TestSharedParser.in_process(argv) == (1, "", f"error: {message}\n"), argv
        # The same in a process of its own.
        child = subprocess.run([sys.executable, "-m", "iomatch.cli", "match", str(a), str(b)], capture_output=True, text=True)
        assert (child.returncode, child.stdout, child.stderr) == (1, "", "error: the following arguments are required: --config\n")

    @pytest.mark.parametrize("argv", [["--help"], ["match", "--help"], ["--version"]])
    def test_help_and_version_exit_0(self, argv):
        code, out, err = TestSharedParser.in_process(argv)
        assert (code, err) == (0, "") and out.startswith("usage: iomatch" if "--help" in argv else "iomatch ")


class TestValidate:
    def test_ok(self, tmp_path, config_path, capsys):
        assert main(["validate", "--config", str(config_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_exits_one(self, tmp_path, capsys):
        bad = dict(CONFIG, schema={"features": [
            {"name": "type", "kind": "nominal", "weight": 1.0, "delta": 0.7},
        ]})
        bad["sources"] = {}
        path = write(tmp_path, "bad.json", json.dumps(bad))
        assert main(["validate", "--config", str(path)]) == 1
        assert "0.5" in capsys.readouterr().err

    def test_simulation_section_reported(self, tmp_path, capsys):
        doc = dict(CONFIG, simulation={"object_count": 4, "seed": 9})
        path = write(tmp_path, "sim.json", json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == 0
        assert "simulation scene" in capsys.readouterr().out


class TestMeasure:
    def test_breakdown_output(self, tmp_path, config_path, capsys):
        pair = write(tmp_path, "pair.csv", PAIR_CSV)
        assert main(["measure", "--config", str(config_path), str(pair)]) == 0
        out = capsys.readouterr().out
        assert "pair: a1 x b1" in out
        assert "0.7523" in out  # joint overlap times confidence for (12, 15, sigma 2)
        assert "1.0000" in out  # matching nominal labels
        assert "multiplicative" in out

    def test_wrong_object_count(self, tmp_path, config_path, capsys):
        single = write(tmp_path, "single.csv", PAIR_CSV.splitlines()[0] + "\na1,alpha,1.0,tank,,\n")
        assert main(["measure", "--config", str(config_path), str(single)]) == 1
        assert "two objects" in capsys.readouterr().err

    def test_missing_dataset_is_runtime_error(self, tmp_path, config_path):
        assert main(["measure", "--config", str(config_path), str(tmp_path / "nope.csv")]) == 2


class TestMatch:
    def test_candidates_and_files(self, tmp_path, config_path, capsys):
        a = write(tmp_path, "a.csv",
                  "object_id,source_id,speed,type\na1,alpha,12.0,tank\na2,alpha,300.0,tank\n")
        b = write(tmp_path, "b.csv",
                  "object_id,source_id,speed,type\nb1,beta,12.5,tank\n")
        out_dir = tmp_path / "out"
        code = main(["match", "--config", str(config_path), str(a), str(b),
                     "--out", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pairs evaluated: 2" in out
        assert "a1" in out and "b1" in out
        assert (out_dir / "pairs.csv").exists()
        payload = json.loads((out_dir / "candidates.json").read_text())
        assert payload["pair_count"] == 2
        assert payload["candidates"][0]["a"] == "a1"

    def test_each_score_rendered_once(self, tmp_path, capsys, monkeypatch):
        """A dense two-class run writing both formats renders each pair's
        2k + 2 floats once: candidates.json takes the candidates' texts from
        pairs.csv instead of rendering them again."""
        path = write(tmp_path, "config.json", json.dumps(MIXED_CONFIG))
        header = "object_id,source_id,position_x,position_y,speed,readiness,type\n"
        n_a, n_b, k = 9, 7, 4

        def rows(source, n):
            return "".join(
                f"{source}{i},{source},{10.0 * i},{3.5 * i},{12.0 + i % 4},{1 + i % 9},{('tank', 'truck', 'apc')[i % 3]}\n"
                for i in range(n)
            )

        a, b = write(tmp_path, "a.csv", header + rows("a", n_a)), write(tmp_path, "b.csv", header + rows("b", n_b))
        rendered = []
        float_texts = dataio.float_texts

        def counted(values):
            texts = float_texts(values)
            rendered.append(texts.size)
            return texts

        monkeypatch.setattr(dataio, "float_texts", counted)
        out_dir = tmp_path / "out"
        assert main(["match", "--config", str(path), str(a), str(b), "--threshold", "0", "--out", str(out_dir)]) == 0
        assert len(json.loads((out_dir / "candidates.json").read_text())["candidates"]) == n_a * n_b
        assert sum(rendered) == n_a * n_b * (2 * k + 2)
        capsys.readouterr()

    def test_match_builds_no_information_object(self, tmp_path, config_path, capsys):
        """match reads both files into columns and scores from the columns."""
        a = write(tmp_path, "a.csv", "object_id,source_id,speed,type\na1,alpha,12.0,tank\na2,alpha,300.0,\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,type\nb1,beta,12.5,tank\n")
        built = []
        init = InformationObject.__init__

        def counted(obj, *args, **kwargs):
            built.append(obj)
            init(obj, *args, **kwargs)

        with mock.patch.object(InformationObject, "__init__", counted):
            assert main(["match", "--config", str(config_path), str(a), str(b), "--out", str(tmp_path / "out")]) == 0
            assert built == []
            assert len(read_objects_csv(a, load_config(config_path).schema)) == len(built) == 2
        assert "pairs evaluated: 2" in capsys.readouterr().out

    def test_stdout_equals_per_breakdown_lines(self, tmp_path, config_path, capsys):
        """The console list, written from the candidate columns, equals one
        formatted line per breakdown; a10 sorts before a9 on equal proximity."""
        rows_a = "".join(f"a{i},alpha,{12.0 + i % 3},tank\n" for i in range(12))
        rows_b = "".join(f"b{i},beta,{12.5 + i % 2},{('tank', 'truck')[i % 2]}\n" for i in range(5))
        a = write(tmp_path, "a.csv", "object_id,source_id,speed,type\n" + rows_a)
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,type\n" + rows_b)
        assert main(["match", "--config", str(config_path), str(a), str(b)]) == 0
        out = capsys.readouterr().out
        config = load_config(config_path)
        run = object_run(config.schema, config.profiles, read_objects_csv(a, config.schema),
                         read_objects_csv(b, config.schema), config.aggregation)
        found = ranked_breakdowns(pairwise_breakdowns(run), 0.01)
        lines = [f"pairs evaluated: 60; candidates above 0.01: {len(found)}"]
        lines += [f"{x.pair[0]}  {x.pair[1]}  {x.aggregate_proximity:.4f}" for x in found]
        assert out == "\n".join(lines) + "\n"
        assert out.index("a10  b0") < out.index("a9  b0")

    def test_run_that_cannot_write_prints_only_its_error(self, tmp_path, config_path, capsys):
        """An --out naming a file: match printed its full listing, then the
        error line, as if it had succeeded."""
        a = write(tmp_path, "a.csv", "object_id,source_id,speed,type\na1,alpha,12.0,tank\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,type\nb1,beta,12.5,tank\n")
        taken = write(tmp_path, "taken", "")
        assert main(["match", "--config", str(config_path), str(a), str(b), "--out", str(taken)]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 17] File exists: '{taken}'\n")

    def test_schema_violation_exits_one(self, tmp_path, config_path, capsys):
        a = write(tmp_path, "a.csv", "object_id,source_id,speed,type\na1,alpha,fast,tank\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,type\nb1,beta,1.0,tank\n")
        assert main(["match", "--config", str(config_path), str(a), str(b)]) == 1

    def test_byte_order_mark_is_skipped(self, tmp_path, config_path, capsys):
        """A dataset or config starting with a UTF-8 byte-order mark, as
        spreadsheet exports often do, was rejected: the dataset as missing its
        first column, the config as not JSON.  It now reads as without one."""
        text = "object_id,source_id,speed,type\na1,alpha,12.0,tank\na2,alpha,13.0,\n"
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,type\nb1,beta,12.5,tank\n")
        runs = {}
        for bom in ("", "\ufeff"):
            root = tmp_path / f"bom-{len(bom)}"
            root.mkdir()
            a = write(root, "a.csv", bom + text)
            config = write(root, "config.json", bom + config_path.read_text())
            assert main(["match", "--config", str(config), str(a), str(b), "--out", str(root / "out")]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            runs[bom] = [captured.out, *((root / "out" / n).read_bytes() for n in ("pairs.csv", "candidates.json"))]
        assert (tmp_path / "bom-1" / "a.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert runs["\ufeff"] == runs[""]
        assert "a1  b1" in runs[""][0]

    @pytest.mark.parametrize("method, blocked, proximity", [
        ("multiplicative", True, "0.7263"), ("additive", False, "0.7638"),
    ])
    def test_pair_sharing_no_feature_is_not_a_candidate(self, tmp_path, capsys, method, blocked, proximity):
        """a2 lacks a position and b2 a type, so the pair shares no feature
        and scores the empty (1, 0).  It was listed as a 1.0 candidate above
        the true pair a1 b1, with ``"features": {}``; pairs.csv keeps it."""
        config = write(tmp_path, "config.json", json.dumps({
            "schema": {"features": [
                {"name": "position", "kind": "quantitative", "weight": 0.5, "axes": ["x", "y"], "xi": 30.0},
                {"name": "type", "kind": "nominal", "weight": 0.5, "delta": 0.1},
            ]},
            "sources": {"a": {"position": {"sigma": 20.0}}, "b": {"position": {"sigma": 30.0}}},
            "aggregation": {"method": method},
            "threshold": 0.01,
        }))
        header = "object_id,source_id,position_x,position_y,type\n"
        a = write(tmp_path, "a.csv", header + "a1,a,0,0,tank\na2,a,,,tank\n")
        b = write(tmp_path, "b.csv", header + "b1,b,10,5,tank\nb2,b,5000,5000,\n")
        out = tmp_path / "out"
        assert main(["match", "--config", str(config), str(a), str(b), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"pairs evaluated: 4; candidates above 0.01: 2\na2  b1  1.0000\na1  b1  {proximity}\n"
        )
        doc = json.loads((out / "candidates.json").read_text())
        assert [(c["a"], c["b"]) for c in doc["candidates"]] == [("a2", "b1"), ("a1", "b1")]
        assert "a2,b2,,,,,1.0,0.0\n" in (out / "pairs.csv").read_text()
        # Only the multiplicative method blocks: it prunes a1 b2, whose
        # windows miss, and stores a2 b2, as a2 lacks the blocking feature.
        loaded = load_config(config)
        run = MatchRun(loaded.schema, loaded.profiles, read_dataset(a, loaded.schema),
                       read_dataset(b, loaded.schema), loaded.aggregation)
        assert len(pairwise_breakdowns(run).cells) == (3 if blocked else 4)


RANKED_CONFIG = {
    "schema": {
        "features": [
            {"name": "speed", "kind": "quantitative", "weight": 0.5, "xi": 3.0},
            {"name": "rank", "kind": "ordinal", "weight": 0.5, "shape": "triangular", "width": 2},
        ]
    },
    "sources": {
        "alpha": {"speed": {"sigma": 2.0}, "rank": {"k": 0.3}},
        "beta": {"speed": {"sigma": 2.0}},
    },
}


class TestConsoleListing:
    """match lists each candidate as its ids and its proximity to 4 places,
    as format(p, ".4f") writes it, ties rounded half to even."""

    @staticmethod
    def listing(counts: str, found) -> str:
        return counts + "".join(f"\n{a}  {b}  {format(p, '.4f')}" for a, b, p in found) + "\n"

    def test_no_candidates_and_ties(self, tmp_path, capsys):
        """A nominal feature of delta 0.03125 scores each mismatch exactly
        0.03125, which prints as 0.0312; a match prints 1.0000."""
        config = write(tmp_path, "config.json", json.dumps({
            "schema": {"features": [{"name": "type", "kind": "nominal", "weight": 1.0, "delta": 0.03125}]},
            "sources": {"a": {}, "b": {}},
        }))
        a = write(tmp_path, "a.csv", "object_id,source_id,type\na1,a,tank\na2,a,truck\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,type\nb1,b,tank\nb2,b,apc\n")
        argv = ["match", "--config", str(config), str(a), str(b)]
        assert main([*argv, "--threshold", "1"]) == 0
        assert capsys.readouterr().out == "pairs evaluated: 4; candidates above 1: 0\n"
        assert main([*argv, "--threshold", "0"]) == 0
        found = [("a1", "b1", 1.0), ("a1", "b2", 0.03125), ("a2", "b1", 0.03125), ("a2", "b2", 0.03125)]
        out = capsys.readouterr().out
        assert out == self.listing("pairs evaluated: 4; candidates above 0: 4", found)
        assert out.endswith("a1  b1  1.0000\na1  b2  0.0312\na2  b1  0.0312\na2  b2  0.0312\n")

    def test_every_proximity_as_format_writes_it(self, tmp_path, config_path, capsys, monkeypatch):
        """Proximities no run lists (0.0) and ties either side of a rounding
        step, through the listing of main."""
        values = [0.0, 1.0, 0.03125, 0.00005, 0.00015, 0.99995, 0.123456789, 5e-324, 0.5]

        class Listed:
            ids_a = [f"a{k}" for k in range(len(values))]
            ids_b = [f"b{k}" for k in range(len(values))]
            aggregate_proximity = np.array(values)

            def __len__(self):
                return len(values)

        monkeypatch.setattr(cli, "candidates", lambda scores, threshold: Listed())
        a = write(tmp_path, "a.csv", "object_id,source_id,speed,type\na1,alpha,12.0,tank\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,type\nb1,beta,12.5,tank\n")
        assert main(["match", "--config", str(config_path), str(a), str(b)]) == 0
        found = list(zip(Listed.ids_a, Listed.ids_b, values))
        assert capsys.readouterr().out == self.listing(f"pairs evaluated: 1; candidates above 0.01: {len(values)}", found)


class TestRejectedAtValidation:
    """Inputs the kernels cannot score exit 1 with a message, never a traceback."""

    def match(self, tmp_path, config, rows_a, rows_b="b1,beta,12.0,4\n"):
        path = write(tmp_path, "config.json", json.dumps(config))
        a = write(tmp_path, "a.csv", "object_id,source_id,speed,rank\n" + rows_a)
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,rank\n" + rows_b)
        return main(["match", "--config", str(path), str(a), str(b)])

    @pytest.mark.parametrize("row", ["a1,alpha,nan,4\n", "a1,alpha,inf,4\n", "a1,alpha,12.0,-inf\n"])
    def test_non_finite_value(self, tmp_path, capsys, row):
        assert self.match(tmp_path, RANKED_CONFIG, row) == 1
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("rank", ["0", "1"])
    def test_relative_k_support_collapses_onto_rank(self, tmp_path, capsys, rank):
        assert self.match(tmp_path, RANKED_CONFIG, f"a1,alpha,12.0,{rank}\n") == 1
        err = capsys.readouterr().err
        assert "rounds the support" in err and "Traceback" not in err

    @pytest.mark.parametrize("weights, message", [
        ({"speed": 1.0}, "no weight for feature 'rank'"),
        ({"speed": 0.5, "rank": 0.5, "colour": 1.0}, "unknown feature 'colour'"),
        ({"speed": -1.0, "rank": 1.0}, "'speed' weight -1.0"),
        ({"speed": 0.0, "rank": 0.0}, "all zero"),
    ])
    def test_feature_weights(self, tmp_path, capsys, weights, message):
        """The retired ``feature_weights`` override: a config still carrying
        it is rejected by its key alone, whatever it holds.  None of the
        override's own messages remain, and nothing is scored."""
        config = dict(RANKED_CONFIG, aggregation={"method": "multiplicative", "feature_weights": weights})
        assert self.match(tmp_path, config, "a1,alpha,12.0,4\n") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: aggregation: unknown key 'feature_weights'\n" and message not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("aggregation, messages", [
        ({"method": "multiplicative", "feature_weights": {"rank": -1, "ghost": 1}}, [
            "aggregation: unknown key 'feature_weights'",
        ]),
        ({"method": "two-class-weighted"}, ["two-class aggregation requires a class weight in [0, 1]"]),
    ])
    def test_validate_rejects_weights_like_match(self, tmp_path, capsys, aggregation, messages):
        config = dict(RANKED_CONFIG, aggregation=aggregation)
        assert self.match(tmp_path, config, "a1,alpha,12.0,4\n") == 1
        match_err = capsys.readouterr().err
        assert main(["validate", "--config", str(tmp_path / "config.json")]) == 1
        captured = capsys.readouterr()
        assert captured.err == match_err == "".join(f"error: {m}\n" for m in messages)
        assert captured.out == ""

    def test_unknown_certainty_label(self, tmp_path, capsys):
        path = write(tmp_path, "config.json", json.dumps(RANKED_CONFIG))
        header = "object_id,source_id,speed,rank,rank_certainty\n"
        a = write(tmp_path, "a.csv", header + "a1,alpha,12.0,4,certain\n")
        b = write(tmp_path, "b.csv", header + "b1,beta,12.0,4,sure\n")
        assert main(["match", "--config", str(path), str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {b}:2: bad certainty for 'rank': unknown certainty label: 'sure'\n"

    def test_misnamed_columns(self, tmp_path, capsys):
        """Columns no schema feature claims used to be ignored, leaving every
        feature absent: all pairs then scored 1.0000 and match exited 0."""
        path = write(tmp_path, "config.json", json.dumps(SCENE_CONFIG))
        header = "object_id,source_id,position.x,position.y,typ\n"
        a = write(tmp_path, "a.csv", header + "a1,s1,0.0,0.0,tank\na2,s1,500.0,500.0,truck\n")
        b = write(tmp_path, "b.csv", header + "b1,s2,0.0,0.0,tank\nb2,s2,900.0,900.0,tank\n")
        assert main(["match", "--config", str(path), str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {a}: missing columns ['position_x', 'position_y', 'type']\n"
        assert captured.out == ""

    def test_header_naming_a_column_twice(self, tmp_path, capsys):
        """match printed "a1  b1  0.7321": the first type cell, tank, was
        dropped and a1 read as a truck."""
        path = write(tmp_path, "config.json", json.dumps(SCENE_CONFIG))
        a = write(tmp_path, "a.csv", "object_id,source_id,position_x,position_y,type,type\na1,s1,0,0,tank,truck\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,position_x,position_y,type\nb1,s2,0,0,truck\n")
        out = tmp_path / "out"
        for argv in (["match", "--config", str(path), str(a), str(b), "--out", str(out)],
                     ["measure", "--config", str(path), str(a)]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"error: {a}: duplicate columns ['type']\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        # A short record was read as an object with no features, listed first
        # against every B object at 1.0000.
        ("a1,a,10.0,20.0,tank\na2,a\n", "3: expected 5 fields, found 2"),
        # The line was the record index + 2, so a blank line shifted it.
        ("a1,a,10.0,20.0,tank\n\na2,a,oops,20.0,tank\n",
         "4: bad value for 'position': could not convert string to float: 'oops'"),
    ])
    def test_bad_record_named_by_its_line(self, tmp_path, capsys, text, message):
        config = {
            "schema": {"features": [
                {"name": "position", "kind": "quantitative", "weight": 0.5, "axes": ["x", "y"], "xi": 30.0},
                {"name": "type", "kind": "nominal", "weight": 0.5, "delta": 0.1},
            ]},
            "sources": {"a": {"position": {"sigma": 20.0}}, "b": {"position": {"sigma": 30.0}}},
        }
        path = write(tmp_path, "config.json", json.dumps(config))
        header = "object_id,source_id,position_x,position_y,type\n"
        a = write(tmp_path, "a.csv", header + text)
        b = write(tmp_path, "b.csv", header + "b1,b,12.0,21.0,tank\nb2,b,500.0,500.0,truck\n")
        assert main(["match", "--config", str(path), str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {a}:{message}\n" and captured.out == ""

    def test_dataset_not_utf8(self, tmp_path, capsys):
        """A Latin-1 file raised UnicodeDecodeError with a traceback."""
        path = write(tmp_path, "config.json", json.dumps(RANKED_CONFIG))
        a = tmp_path / "a.csv"
        a.write_bytes("object_id,source_id,speed,rank\nd\u00e9j\u00e0,alpha,12.0,4\n".encode("latin-1"))
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,rank\nb1,beta,12.0,4\n")
        assert main(["match", "--config", str(path), str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {a}: cannot decode as UTF-8: invalid continuation byte\n"
        assert captured.out == ""

    def test_field_over_csv_limit(self, tmp_path, capsys):
        """A field over the csv module's size limit raised _csv.Error with a traceback."""
        rows = "a1,alpha,12.0,4\n" + "x" * 200_000 + ",alpha,12.0,4\n"
        assert self.match(tmp_path, RANKED_CONFIG, rows) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {tmp_path / 'a.csv'}:3: field larger than field limit (131072)\n"
        assert captured.out == ""

    def test_config_not_utf8(self, tmp_path, capsys):
        """A non-UTF-8 config raised UnicodeDecodeError with a traceback."""
        path = tmp_path / "config.json"
        path.write_bytes('{"threshold": "\u00e9"}'.encode("latin-1"))
        for verb in ("validate", "simulate"):
            assert main([verb, "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: cannot read config {path}: 'utf-8' codec can't decode byte 0xe9 in position 15: "
                "invalid continuation byte\n"
            )
            assert captured.out == ""

    def test_unknown_sources_listed_in_sorted_order(self, tmp_path):
        """The messages followed set iteration, so their order changed with
        the string-hash seed."""
        path = write(tmp_path, "config.json", json.dumps(RANKED_CONFIG))
        a = write(tmp_path, "a.csv", "object_id,source_id,speed,rank\na1,q,12.0,4\na2,r,12.0,4\na3,z,12.0,4\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,rank\nb1,beta,12.0,4\n")
        want = "".join(
            f"error: {m}\n"
            for m in ["dataset A mixes source ids ['q', 'r', 'z']"]
            + [f"dataset A: no profile for source {s!r}" for s in "qrz"]
        )
        for seed in ("0", "1"):
            child = subprocess.run(
                [sys.executable, "-m", "iomatch.cli", "match", "--config", str(path), str(a), str(b)],
                capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert (child.returncode, child.stderr, child.stdout) == (1, want, "")

    @pytest.mark.parametrize("verb", ["match", "simulate"])
    def test_negative_exponent_threshold_reaches_validation(self, tmp_path, config_path, capsys, verb):
        """argparse read "-1e+16" or "-inf" as an option and exited 2 with usage lines."""
        text = "object_id,source_id,speed,type\na1,alpha,12.0,tank\n"
        a, b = write(tmp_path, "a.csv", text), write(tmp_path, "b.csv", text.replace("alpha", "beta"))
        inputs = {"match": ["--config", str(config_path), str(a), str(b)], "simulate": []}[verb]
        for value in ("-1e+16", "-inf"):
            assert main([verb, *inputs, "--threshold", value]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: candidate threshold {float(value):g} outside [0, 1]\n"
            assert captured.out == ""

    @pytest.mark.parametrize("verb, option, value, message", [
        ("match", "--threshold", "abc", "error: --threshold must be a number, got 'abc'"),
        ("simulate", "--threshold", "abc", "error: --threshold must be a number, got 'abc'"),
        ("match", "--threshold", "", "error: --threshold must be a number, got ''"),
        ("simulate", "--seed", "1.5", "error: --seed must be an integer, got '1.5'"),
        ("simulate", "--seed", "", "error: --seed must be an integer, got ''"),
    ])
    def test_malformed_option_value(self, tmp_path, config_path, capsys, verb, option, value, message):
        """argparse rejected a malformed number with usage lines and exit 2."""
        text = "object_id,source_id,speed,type\na1,alpha,12.0,tank\n"
        a, b = write(tmp_path, "a.csv", text), write(tmp_path, "b.csv", text.replace("alpha", "beta"))
        inputs = {"match": ["--config", str(config_path), str(a), str(b)], "simulate": []}[verb]
        for options in ([option, value], [f"{option}={value}"]):
            assert main([verb, *inputs, *options]) == 1
            captured = capsys.readouterr()
            assert (captured.err, captured.out) == (message + "\n", "")

    @pytest.mark.parametrize("accuracy", [{"width": 1e308}, {"k": 0.5}])
    @pytest.mark.parametrize("rank, shown", [("1.7e308", "1.7e+308"), ("-1.7e308", "-1.7e+308")])
    def test_membership_support_that_overflows(self, tmp_path, capsys, accuracy, rank, shown):
        """A triangular support past the float range.  Under a width, match
        wrote nan into pairs.csv and dropped the pair, and measure died with
        ``ValueError: scores outside [0, 1]``; under a relative k both raised
        an OverflowError traceback from the rounding."""
        config = json.loads(json.dumps(RANKED_CONFIG))
        config["sources"]["alpha"]["rank"] = accuracy
        path = write(tmp_path, "config.json", json.dumps(config))
        header, row_a, row_b = "object_id,source_id,speed,rank\n", f"a1,alpha,12.0,{rank}\n", "b1,beta,12.0,4\n"
        a, b = write(tmp_path, "a.csv", header + row_a), write(tmp_path, "b.csv", header + row_b)
        pair = write(tmp_path, "pair.csv", header + row_a + row_b)
        for argv in (["match", "--config", str(path), str(a), str(b)], ["measure", "--config", str(path), str(pair)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert (captured.err, captured.out) == (
                f"error: a1/rank: the membership support of rank {shown} is not finite\n", ""
            )

    @pytest.mark.parametrize("accuracy, rank_a, rank_b, message", [
        pytest.param(
            None, "1e17", "100000000000000000",
            "error: a1/rank: half-width 2 collapses the support of rank 1e+17 onto the rank itself\n"
            "error: b1/rank: half-width 2 collapses the support of rank 1e+17 onto the rank itself\n",
            id="schema-width",
        ),
        pytest.param(
            {"width": 0.5}, "1e16", "4",
            "error: a1/rank: half-width 0.5 collapses the support of rank 1e+16 onto the rank itself\n",
            id="source-width",
        ),
    ])
    def test_half_width_support_collapses_onto_rank(self, tmp_path, capsys, accuracy, rank_a, rank_b, message):
        """A half-width below half the float spacing of its rank: the pair
        scored 0.0 with divide and invalid RuntimeWarnings, and the scalar
        possibility raised ZeroDivisionError."""
        config = json.loads(json.dumps(RANKED_CONFIG))
        del config["sources"]["alpha"]["rank"]
        if accuracy is not None:
            config["sources"]["alpha"]["rank"] = accuracy
        path = write(tmp_path, "config.json", json.dumps(config))
        header, row_a, row_b = "object_id,source_id,speed,rank\n", f"a1,alpha,12.0,{rank_a}\n", f"b1,beta,12.0,{rank_b}\n"
        a, b = write(tmp_path, "a.csv", header + row_a), write(tmp_path, "b.csv", header + row_b)
        pair = write(tmp_path, "pair.csv", header + row_a + row_b)
        for argv in (["match", "--config", str(path), str(a), str(b)], ["measure", "--config", str(path), str(pair)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert (captured.err, captured.out) == (message, "")

    @pytest.mark.parametrize("value, sigma, shown", [
        ("1e16", 0.001, "1e+16"), ("10000000000000000", 0.001, "1e+16"), ("1.7e308", 1.0, "1.7e+308"),
    ])
    def test_quantitative_window_collapses_onto_value(self, tmp_path, capsys, value, sigma, shown):
        """Two identical reports whose three-sigma windows round onto the
        value met in an empty overlap: match and measure scored the pair a
        silent 0.0, as did the scalar quantitative_proximity."""
        config = json.loads(json.dumps(RANKED_CONFIG))
        for source in ("alpha", "beta"):
            config["sources"][source]["speed"] = {"sigma": sigma}
        path = write(tmp_path, "config.json", json.dumps(config))
        header, row_a, row_b = "object_id,source_id,speed,rank\n", f"a1,alpha,{value},4\n", f"b1,beta,{value},4\n"
        a, b = write(tmp_path, "a.csv", header + row_a), write(tmp_path, "b.csv", header + row_b)
        pair = write(tmp_path, "pair.csv", header + row_a + row_b)
        message = "".join(
            f"error: {oid}/speed: sigma {sigma} of source {sid!r} collapses the three-sigma window of {shown}"
            " onto the value itself\n"
            for oid, sid in (("a1", "alpha"), ("b1", "beta"))
        )
        for argv in (["match", "--config", str(path), str(a), str(b)], ["measure", "--config", str(path), str(pair)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert (captured.err, captured.out) == (message, "")

    def test_record_failing_two_checks(self, tmp_path, capsys):
        """Per object, every support check comes before every window check,
        so a1's support message precedes its window message although its
        feature comes second in the schema."""
        config = {
            "schema": {"features": [
                {"name": "speed", "kind": "quantitative", "weight": 0.5, "xi": 3.0},
                {"name": "readiness", "kind": "ordinal", "weight": 0.5, "shape": "triangular", "width": 2},
            ]},
            "sources": {"a": {"speed": {"sigma": 0.001}}, "b": {"speed": {"sigma": 0.001}}},
        }
        path = write(tmp_path, "config.json", json.dumps(config))
        header = "object_id,source_id,speed,readiness\n"
        a = write(tmp_path, "a.csv", header + "a1,a,1e16,1e17\na2,a,12.0,4\n")
        b = write(tmp_path, "b.csv", header + "b1,b,1e16,4\n")
        assert main(["match", "--config", str(path), str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (
            "error: a1/readiness: half-width 2 collapses the support of rank 1e+17 onto the rank itself\n"
            "error: a1/speed: sigma 0.001 of source 'a' collapses the three-sigma window of 1e+16 onto the value itself\n"
            "error: b1/speed: sigma 0.001 of source 'b' collapses the three-sigma window of 1e+16 onto the value itself\n",
            "",
        )

    def test_gaussian_crossing_past_the_float_range(self, tmp_path, capsys):
        """A Gaussian spread of 1e308 overflowed the crossing of ranks 1e308
        and 4: the pair scored 0.6065 at the peaks, where the crossing gives
        0.8825, and the scalar possibility raised OverflowError."""
        config = json.loads(json.dumps(RANKED_CONFIG))
        config["schema"]["features"][1] = {"name": "rank", "kind": "ordinal", "weight": 0.5, "shape": "gaussian", "width": 1e308}
        del config["sources"]["alpha"]["rank"]
        path = write(tmp_path, "config.json", json.dumps(config))
        header, row_a, row_b = "object_id,source_id,speed,rank\n", "a1,alpha,12.0,1e308\n", "b1,beta,12.0,4\n"
        a, b = write(tmp_path, "a.csv", header + row_a), write(tmp_path, "b.csv", header + row_b)
        pair = write(tmp_path, "pair.csv", header + row_a + row_b)
        message = "".join(
            f"error: {oid}/rank: Gaussian ranks and spreads must lie within 2**511,"
            f" got rank {rank} under spread 1e+308\n"
            for oid, rank in (("a1", "1e+308"), ("b1", "4.0"))
        )
        for argv in (["match", "--config", str(path), str(a), str(b)], ["measure", "--config", str(path), str(pair)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert (captured.err, captured.out) == (message, "")

    def test_duplicate_object_id(self, tmp_path, capsys):
        assert self.match(tmp_path, RANKED_CONFIG, "a1,alpha,12.0,4\na1,alpha,13.0,5\n") == 1
        captured = capsys.readouterr()
        assert "dataset A: object id 'a1' appears 2 times" in captured.err
        assert captured.out == ""


    def test_negative_seed(self, tmp_path, capsys):
        message = "error: seed must be non-negative, got -1\n"
        assert main(["simulate", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""
        config = write(tmp_path, "sim.json", json.dumps({"simulation": {"seed": -1}}))
        for argv in (["validate", "--config", str(config)], ["simulate", "--config", str(config)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err == message and captured.out == ""


class TestScoredAtTheFloatRange:
    """Inputs near the ends of the float range that score, quietly."""

    @pytest.mark.parametrize("config, rows, aggregate", [
        # a's lower overlap end lies further than the float range below its
        # value: the difference overflowed, with a RuntimeWarning, and that
        # end's Phi read 0, scoring 0.3900.
        ({"schema": {"features": [{"name": "speed", "kind": "quantitative", "weight": 1.0, "xi": 1.5e308}]},
          "sources": {"a": {"speed": {"sigma": 1e308}}, "b": {"speed": {"sigma": 5e307}}}},
         "object_id,source_id,speed\na1,a,1.7e308\nb1,b,0\n", "0.3894"),
        # Triangles crossing between two floats of rank 1e15 (spacing 0.125):
        # the height read at the rounded crossing scored 0.5833.
        ({"schema": {"features": [{"name": "r", "kind": "ordinal", "weight": 1.0, "shape": "triangular", "width": 2}]},
          "sources": {"a": {"r": {"width": 2}}, "b": {"r": {"width": 3}}}},
         "object_id,source_id,r,r_certainty\na1,a,1000000000000000,certain\nb1,b,1000000000000001.125,probable\n",
         "0.6165"),
    ], ids=["overlap-end-far-from-value", "crossing-between-floats"])
    def test_scored_as_the_measure_defines(self, tmp_path, config, rows, aggregate):
        path = write(tmp_path, "config.json", json.dumps(config))
        pair = write(tmp_path, "pair.csv", rows)
        child = subprocess.run([sys.executable, "-m", "iomatch.cli", "measure", "--config", str(path), str(pair)],
                               capture_output=True, text=True)
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout.splitlines()[-1].split()[:2] == ["aggregate", aggregate]

    def test_subnormal_half_width(self, tmp_path):
        """A half-width of 1e-310 holds rank 0's support, so it is scored:
        match printed two ``RuntimeWarning: overflow encountered in divide``
        lines, from the slopes of the triangles.  The score is the scalar
        path's 0.0."""
        config = {
            "schema": {"features": [
                {"name": "r", "kind": "ordinal", "weight": 1.0, "shape": "triangular", "width": 2}
            ]},
            "sources": {"a": {"r": {"k": 0.5}}, "b": {"r": {"width": 1e-310}}},
        }
        path = write(tmp_path, "config.json", json.dumps(config))
        a = write(tmp_path, "a.csv", "object_id,source_id,r\na1,a,511\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,r\nb1,b,0\n")
        assert possibility(triangular_from_relative_error(511, 0.5), triangular_from_halfwidth(0, 1e-310)) == 0.0
        child = subprocess.run(
            [sys.executable, "-m", "iomatch.cli", "match", "--config", str(path), str(a), str(b), "--threshold", "0"],
            capture_output=True, text=True,
        )
        assert (child.returncode, child.stderr, child.stdout) == (0, "", "pairs evaluated: 1; candidates above 0: 0\n")

    def test_windows_past_the_float_range(self, tmp_path):
        """Windows of 1e308 and 1.5e308 under sigma 5e307 end at +-inf: match
        and measure printed ``RuntimeWarning: overflow encountered in add``
        on stderr.  The score is kept, and equals the scalar composition."""
        config = {
            "schema": {"features": [{"name": "speed", "kind": "quantitative", "weight": 1.0, "xi": 1.5e308}]},
            "sources": {"alpha": {"speed": {"sigma": 5e307}}, "beta": {"speed": {"sigma": 5e307}}},
        }
        path = write(tmp_path, "config.json", json.dumps(config))
        header, row_a, row_b = "object_id,source_id,speed\n", "a1,alpha,1e308\n", "b1,beta,1.5e308\n"
        a, b = write(tmp_path, "a.csv", header + row_a), write(tmp_path, "b.csv", header + row_b)
        pair = write(tmp_path, "pair.csv", header + row_a + row_b)
        scalar = quantitative_proximity(NormalErrorModel(1e308, 5e307), NormalErrorModel(1.5e308, 5e307), 1.5e308)
        assert f"{scalar:.4f}" == "0.9733"
        out = tmp_path / "out"
        for argv, score in (
            (["match", "--config", str(path), str(a), str(b), "--threshold", "0", "--out", str(out)], "a1  b1  0.9733"),
            (["measure", "--config", str(path), str(pair)], "aggregate     0.9733"),
        ):
            child = subprocess.run([sys.executable, "-m", "iomatch.cli", *argv], capture_output=True, text=True)
            assert (child.returncode, child.stderr) == (0, "")
            assert score in child.stdout
        assert (out / "pairs.csv").read_text().splitlines()[1] == f"a1,b1,{scalar!r},{1.0 - scalar!r},{scalar!r},{1.0 - scalar!r}"


def _retyped(path, value):
    """CONFIG with the value at ``path`` (a tuple of keys) replaced."""
    doc = json.loads(json.dumps(dict(CONFIG, simulation={"object_count": 4})))
    *parents, key = path
    target = doc
    for part in parents:
        target = target[part]
    target[key] = value
    return doc


class TestWronglyTypedConfig:
    """A value of the wrong JSON type exits 1 with a message, never a traceback."""

    @pytest.mark.parametrize("path, value, message", [
        (("schema", "features", 0, "weight"), "1", "speed: weight must be a number, got '1'"),
        (("schema",), [{"name": "speed"}], "schema must be an object"),
        (("sources", "alpha"), [{"speed": {"sigma": 2.0}}], "source 'alpha' must be an object"),
        (("schema", "features"), 3, "schema features must be an array, got 3"),
        (("sources", "alpha", "speed", "sigma"), "x", "alpha/speed: sigma must be a number, got 'x'"),
        (("simulation", "object_count"), "5", "simulation object_count must be an integer, got '5'"),
        (("threshold",), True, "threshold must be a number, got True"),
        (("schema", "features", 0, "kind"), ["quantitative"], "speed: unknown kind"),
        (("schema", "features", 0, "axes"), [1, 2], "speed: axes must hold a string per item"),
        (("aggregation", "normalized"), "false", "aggregation normalized must be a boolean"),
        (("simulation", "rmse"), ["20", 30.0], "simulation rmse must hold a number per item"),
    ])
    def test_rejected(self, tmp_path, capsys, path, value, message):
        config = write(tmp_path, "config.json", json.dumps(_retyped(path, value)))
        assert main(["validate", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err


class TestRejectedByTheSettingsRule:
    """Values that only the JSON number type rejected, as ``... must be a
    number, got inf``: now the rule of the setting does, with one message."""

    @pytest.mark.parametrize("verb, path, text, message", [
        ("match", ("sources", "beta", "speed", "delta_max"), "Infinity", "beta/speed: accuracy must be finite"),
        ("match", ("schema", "features", 0, "xi"), "1" + "0" * 400, "speed: xi must be finite"),
        ("match", ("threshold",), "NaN", "candidate threshold nan outside [0, 1]"),
        ("simulate", ("simulation", "area"), "[1e400, 1000.0]", "area sides must be finite, got (inf, 1000.0)"),
    ], ids=["delta_max", "xi", "threshold", "area"])
    def test_rejected(self, tmp_path, capsys, verb, path, text, message):
        doc = _retyped(path, "VALUE")
        if path[-1] == "delta_max":
            del doc["sources"]["beta"]["speed"]["sigma"]
        config = write(tmp_path, "config.json", json.dumps(doc).replace('"VALUE"', text))
        a = write(tmp_path, "a.csv", "object_id,source_id,speed,type\na1,alpha,12.0,tank\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,type\nb1,beta,12.0,tank\n")
        inputs = {"match": [str(a), str(b)], "simulate": []}[verb]
        assert main([verb, "--config", str(config), *inputs]) == 1
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (f"error: {message}\n", "")


# One misspelled or retired key inserted at each level of a config, and
# the one message that names its path.
UNKNOWN_KEYS = [
    (("treshold",), 0.9, "unknown key 'treshold'"),
    (("schema", "features", 0, "xii"), 3.0, "speed: unknown key 'xii'"),
    (("sources", "alpha", "speed", "sigmaa"), 2.0, "alpha/speed: unknown key 'sigmaa'"),
    (("aggregation", "feature_weights"), {"speed": 1.0, "type": 1.0}, "aggregation: unknown key 'feature_weights'"),
    (("simulation", "objects"), 5, "simulation: unknown key 'objects'"),
]


class TestUnknownConfigKeys:
    """A key no parser reads was dropped: with ``"treshold": 0.9`` match
    kept the candidates above the default 0.01, and validate printed OK."""

    def run(self, tmp_path, verb, doc):
        config = write(tmp_path, "config.json", json.dumps(doc))
        a = write(tmp_path, "a.csv", "object_id,source_id,speed,type\na1,alpha,12.0,tank\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,type\nb1,beta,12.5,tank\n")
        return main([verb, "--config", str(config), *({"match": [str(a), str(b)]}.get(verb, []))])

    @pytest.mark.parametrize("verb", ["validate", "match"])
    @pytest.mark.parametrize("path, value, message", UNKNOWN_KEYS, ids=[path[-1] for path, *_ in UNKNOWN_KEYS])
    def test_one_error_line(self, tmp_path, capsys, verb, path, value, message):
        assert self.run(tmp_path, verb, _retyped(path, value)) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("verb", ["validate", "match"])
    def test_first_and_gating_no_check(self, tmp_path, capsys, verb):
        """One line per unknown key, ahead of the other violations, which
        are all still reported."""
        doc = _retyped(("threshold",), 2.0)
        doc["sources"]["beta"]["speed"]["sigma"] = -1.0
        for path, value, _ in UNKNOWN_KEYS:
            *parents, key = path
            functools.reduce(lambda node, k: node[k], parents, doc)[key] = value
        assert self.run(tmp_path, verb, doc) == 1
        messages = [message for *_, message in UNKNOWN_KEYS]
        messages += ["beta/speed: accuracy must be positive", "candidate threshold 2.0 outside [0, 1]"]
        assert capsys.readouterr() == ("", "".join(f"error: {m}\n" for m in messages))

    def test_sources_are_known_behind_a_schema_error(self, tmp_path, capsys):
        """sources is read only once the schema parses: a schema error is
        then the only message, and sources is no unknown key."""
        assert self.run(tmp_path, "validate", _retyped(("schema", "features", 0, "weight"), 0.7)) == 1
        assert capsys.readouterr() == ("", "error: feature weights sum to 1.2, expected 1\n")

    def test_derived_xi_past_the_float_range(self, tmp_path, capsys):
        """3 * sigma 1e308 overflowed to inf, so the coefficient read 1 and
        measure printed aggregate 1.0000 for speeds 0 and 1e307."""
        config = write(tmp_path, "config.json", json.dumps({
            "schema": {"features": [{"name": "speed", "kind": "quantitative", "weight": 1.0}]},
            "sources": {"a": {"speed": {"sigma": 1e308}}, "b": {"speed": {"sigma": 1e308}}},
        }))
        pair = write(tmp_path, "pair.csv", "object_id,source_id,speed\na1,a,0\nb1,b,1e307\n")
        for argv in (["measure", "--config", str(config), str(pair)], ["validate", "--config", str(config)]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", "error: speed: xi derived as 3 * sigma 1e+308 must be finite; give xi\n")


class TestSimulate:
    def test_object_count_whose_pair_grid_cannot_be_indexed(self, tmp_path, capsys):
        """10**30 died with numpy's ValueError: Maximum allowed dimension
        exceeded; 2**32 raised an _ArrayMemoryError for 32 GiB."""
        for count in (10**30, 2**32):
            config = write(tmp_path, "sim.json", json.dumps({"simulation": {"object_count": count}}))
            assert main(["simulate", "--config", str(config)]) == 1
            assert capsys.readouterr() == ("", f"error: object_count must be at most 3037000499, got {count}\n")

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 32.0 GiB for an array with shape (65536, 65536) and data type float64"),
         "error: out of memory: Unable to allocate 32.0 GiB for an array with shape (65536, 65536) and data type float64"),
        (MemoryError(), "error: out of memory"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_a_runtime_error(self, capsys, monkeypatch, error, line):
        """A step that runs out of memory gives one error line and exit 2,
        not a traceback."""
        def exhausted(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "run_experiment", exhausted)
        assert main(["simulate"]) == 2
        assert capsys.readouterr() == ("", f"{line}\n")

    @pytest.mark.parametrize("types", [["tank", "tank"], ["tank", "truck", "tank"]])
    def test_repeated_type_label(self, tmp_path, capsys, types):
        """Was an IndexError traceback from the flip of an observed type."""
        doc = {"simulation": {"object_count": 30, "types": types, "type_error": 0.5, "seed": 2}}
        config = write(tmp_path, "sim.json", json.dumps(doc))
        assert main(["simulate", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (f"error: type alphabet labels must be distinct, got {types}\n", "")

    @pytest.mark.parametrize("types", [[" tank", "tank"], ["", "tank"]])
    def test_type_label_that_changes_on_the_csv_round_trip(self, tmp_path, capsys, types):
        """With " tank", simulate scored s1-004 x s2-004 (seed 3) as a
        type-mismatched candidate at 0.2184 and match scored the files it
        wrote 0.6906; with "", the blank cells read back as absent and match
        listed 7 of simulate's 8 candidates.  Now simulate writes nothing."""
        doc = {"simulation": {"object_count": 6, "types": types, "seed": 3}}
        config = write(tmp_path, "sim.json", json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        message = f"error: type alphabet labels must be non-empty and without surrounding blanks, got {types}\n"
        assert capsys.readouterr() == ("", message)
        assert not out.exists()

    def test_positions_overflowing_to_infinity(self, tmp_path, capsys):
        """Observed positions overflow to inf.  They were written to
        objects_s1.csv, and to report.json as a bare ``inf``, before an
        OverflowError traceback from the SVG; now validation rejects them
        before any file is written."""
        doc = {"simulation": {"object_count": 5, "rmse": [1e308, 1e308], "fleet_sigma_min": 1e308}}
        config = write(tmp_path, "sim.json", json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "".join(
            f"error: {oid}/position: expected 2 finite numeric components\n" for oid in ("s1-000", "s2-002", "s2-003")
        )
        assert captured.out == "" and not out.exists()

    def test_separations_overflowing_to_infinity(self, tmp_path, capsys):
        """Finite positions further apart than the float range: report.json
        held ``"separation_true": inf``, which is not JSON, and the run
        exited 0; now it exits 1 before any file is written."""
        doc = {"simulation": {"object_count": 20, "area": [1.7e308, 1.7e308], "rmse": [1e300, 1e300],
                              "fleet_sigma_min": 1e300}}
        config = write(tmp_path, "sim.json", json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--seed", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (
            "error: 6 true and 6 observed of the 400 pair separations overflow the float range\n", ""
        )
        assert not out.exists()

    def test_finite_huge_positions_are_drawn(self, tmp_path, capsys):
        """The SVG squared pixel distances of positions near 1e200: an
        OverflowError traceback after the other four files were written."""
        doc = {"simulation": {"object_count": 5, "rmse": [1e200, 1e200], "fleet_sigma_min": 1e200}}
        config = write(tmp_path, "sim.json", json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        names = ["objects_s1.csv", "objects_s2.csv", "pairs.csv", "report.json", "scene.svg"]
        assert sorted(p.name for p in out.iterdir()) == names
        assert (out / "scene.svg").read_text().endswith("</svg>\n")

    def test_default_spec_with_seed(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--seed", "7", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "pairs: 400" in out
        for name in ("objects_s1.csv", "objects_s2.csv", "pairs.csv", "report.json", "scene.svg"):
            assert (out_dir / name).exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["metadata"]["seed"] == 7

    def test_format_restriction(self, tmp_path):
        out_dir = tmp_path / "svg-only"
        assert main(["simulate", "--seed", "3", "--out", str(out_dir), "--format", "svg"]) == 0
        assert (out_dir / "scene.svg").exists()
        assert not (out_dir / "report.json").exists()

    def test_config_driven(self, tmp_path, capsys):
        doc = {"threshold": 0.02, "simulation": {"object_count": 6, "seed": 5}}
        path = write(tmp_path, "sim.json", json.dumps(doc))
        assert main(["simulate", "--config", str(path)]) == 0
        assert "pairs: 36" in capsys.readouterr().out

    def test_config_without_simulation_section(self, tmp_path, config_path, capsys):
        assert main(["simulate", "--config", str(config_path)]) == 1
        assert "simulation" in capsys.readouterr().err

    def test_four_decimal_output(self, capsys):
        assert main(["simulate", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "mean proximity, true pairs: 0." in out
        mean_line = [l for l in out.splitlines() if "true pairs" in l][0]
        assert len(mean_line.rsplit("0.", 1)[1]) == 4


MIXED_HEADER = "object_id,source_id,position_x,position_y,speed,readiness,type,readiness_certainty\n"


def _cli(*argv):
    return ["-m", "iomatch.cli", *argv]


# name: (input files, child argv tails run in turn, (file, pattern) a file must show).
ACROSS_PROCESSES = {
    "simulate-then-match": ({"match.json": json.dumps(SCENE_CONFIG)}, [
        _cli("simulate", "--seed", "7", "--out", "scene"),
        _cli("match", "--config", "match.json", "scene/objects_s1.csv", "scene/objects_s2.csv", "--out", "match"),
    ], None),
    "mixed-threshold-0": ({
        "mixed.json": json.dumps(MIXED_CONFIG),
        "a.csv": MIXED_HEADER + "a0,a,12.25,980.5,14.5,4,tank,probable\na1,a,40.125,960.0,,6,truck,doubtful\n"
                                "a2,a,0.1234567890123,2.0,9.75,,apc,\na3,a,300.0,310.5,21.0,3,tank,\n",
        "b.csv": MIXED_HEADER + "b0,b,13.0,981.0,15.25,5,tank,possible\nb1,b,38.5,955.25,11.0,,truck,\n"
                                "b2,b,2.5,1.0,,2,apc,doubtful\n",
    }, [_cli("match", "--config", "mixed.json", "a.csv", "b.csv", "--threshold", "0", "--out", "out")], None),
    # Separations of 1e16 and up, which report.json renders by repr.
    "area-1e17": ({"sim.json": json.dumps({"simulation": {"object_count": 20, "area": [1e17, 1e17]}})},
                  [_cli("simulate", "--config", "sim.json", "--seed", "3", "--out", "out")],
                  ("out/report.json", rb'"separation_true": [0-9.]*e\+1[6-9],')),
    "one-object": ({"sim.json": json.dumps({"simulation": {"object_count": 1}})},
                   [_cli("simulate", "--config", "sim.json", "--seed", "3", "--out", "out")], None),
    "column-built-dataset": ({}, [[
        "-c", "import sys, test_config_dataio as t; t.write_objects_csv(sys.argv[1], t.EDGE_COLUMNS)", "columns.csv",
    ]], None),
}


@pytest.mark.parametrize("inputs, children, shown", ACROSS_PROCESSES.values(), ids=ACROSS_PROCESSES)
def test_artefacts_identical_across_processes(tmp_path, inputs, children, shown):
    """Per-seed byte determinism: each run, in a process of its own under
    PYTHONHASHSEED 0 and then 12345, writes the same stdout and the same
    bytes to every file, and each JSON file it writes is
    json.dumps(indent=2, sort_keys=True) text."""
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)])
    runs = []
    for seed in ("0", "12345"):
        cwd = tmp_path / seed
        cwd.mkdir()
        for name, text in inputs.items():
            write(cwd, name, text)
        stdouts = []
        for argv in children:
            child = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                                   env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path})
            assert (child.returncode, child.stderr) == (0, b""), argv
            stdouts.append(child.stdout)
        runs.append((stdouts, {p.relative_to(cwd).as_posix(): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}))
    assert runs[0] == runs[1]
    files = runs[0][1]
    for name in files.keys() - inputs.keys():
        if name.endswith(".json"):
            text = files[name].decode()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name
    if shown is not None:
        assert re.search(shown[1], files[shown[0]]), shown


# --- the command line on arbitrary files ----------------------------------------

# Malformed values too: each is one error line, never argparse's usage.
MALFORMED_TEXTS = st.sampled_from(["", "abc", "1,5", "0x1", "--1"])
THRESHOLD_TEXTS = (
    st.sampled_from(["0", "1", "0.01", "-0.5", "1.5", "nan", "inf", "-inf", "1e-300"])
    | st.builds(repr, st.floats())
    | MALFORMED_TEXTS
)
SEED_TEXTS = st.integers(-3, 2**70).map(str) | st.sampled_from(["1.5", "1e3", "-0.5"]) | MALFORMED_TEXTS


@st.composite
def cli_runs(draw):
    """(argv builder, config document or None, dataset files): argv over
    the four verbs, with the files drawn from the reader and config fuzz."""
    verb = draw(st.sampled_from(["validate", "measure", "match", "simulate"]))
    doc = draw(st.just(FUZZ_CONFIG) | mutated_configs())
    files = [draw(fuzz_files()) for _ in range({"measure": 1, "match": 2}.get(verb, 0))]
    options = []
    if verb in ("match", "simulate") and draw(st.booleans()):
        value = draw(THRESHOLD_TEXTS)
        options += draw(st.sampled_from([[f"--threshold={value}"], ["--threshold", value]]))
    if verb == "simulate":
        # A scene of n objects scores n^2 pairs: keep drawn scenes small.
        count = doc.get("simulation", {}).get("object_count") if isinstance(doc.get("simulation"), dict) else None
        assume(not isinstance(count, int) or count <= 30)
        if draw(st.booleans()):
            value = draw(SEED_TEXTS)
            options += draw(st.sampled_from([[f"--seed={value}"], ["--seed", value]]))
    formats = {"match": ["csv", "json"], "simulate": ["csv", "json", "svg"]}.get(verb)
    if formats and draw(st.booleans()):
        options.append(f"--format={draw(st.sampled_from(formats))}")
    with_config = verb != "simulate" or draw(st.booleans())
    return verb, doc if with_config else None, files, options, formats is not None and draw(st.booleans())


class TestCommandLineFuzz:
    """Every run exits 0, 1 or 2, writes nothing to stderr but ``error:``
    lines, and never raises."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cli_runs())
    def test_main(self, drawn):
        verb, doc, files, options, out = drawn
        with tempfile.TemporaryDirectory() as directory:
            root = Path(directory)
            argv = [verb]
            if doc is not None:
                (root / "config.json").write_text(json.dumps(doc))
                argv += ["--config", str(root / "config.json")]
            for k, (header, records) in enumerate(files):
                write_rows(root / f"{k}.csv", [header, *records])
                argv.append(str(root / f"{k}.csv"))
            argv += options + (["--out", str(root / "out")] if out else [])
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        assert code in (0, 1, 2)
        assert all(line.startswith("error: ") for line in stderr.getvalue().splitlines()), stderr.getvalue()
        assert (code == 0) == (stderr.getvalue() == "")
