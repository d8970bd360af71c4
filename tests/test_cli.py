import json

import pytest

from iomatch.cli import main
from iomatch.config import load_config
from iomatch.dataio import read_objects_csv
from iomatch.engine import MatchRun, candidates, pairwise_breakdowns

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


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


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
        run = MatchRun(config.schema, config.profiles,
                       tuple(read_objects_csv(a, config.schema)), tuple(read_objects_csv(b, config.schema)),
                       config.aggregation)
        found = candidates(list(pairwise_breakdowns(run)), 0.01)
        lines = [f"pairs evaluated: 60; candidates above 0.01: {len(found)}"]
        lines += [f"{x.pair[0]}  {x.pair[1]}  {x.aggregate_proximity:.4f}" for x in found]
        assert out == "\n".join(lines) + "\n"
        assert out.index("a10  b0") < out.index("a9  b0")

    def test_schema_violation_exits_one(self, tmp_path, config_path, capsys):
        a = write(tmp_path, "a.csv", "object_id,source_id,speed,type\na1,alpha,fast,tank\n")
        b = write(tmp_path, "b.csv", "object_id,source_id,speed,type\nb1,beta,1.0,tank\n")
        assert main(["match", "--config", str(config_path), str(a), str(b)]) == 1


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
        config = dict(RANKED_CONFIG, aggregation={"method": "multiplicative", "feature_weights": weights})
        assert self.match(tmp_path, config, "a1,alpha,12.0,4\n") == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("aggregation, messages", [
        ({"method": "multiplicative", "feature_weights": {"rank": -1, "ghost": 1}}, [
            "feature weights: no weight for feature 'speed'",
            "feature weights: weight for unknown feature 'ghost'",
            "feature weights: 'rank' weight -1 is not a non-negative number",
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


class TestSimulate:
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
