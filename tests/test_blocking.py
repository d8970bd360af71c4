"""Exact window blocking against the scalar oracle and brute force.

Under the multiplicative convolution the engine scores only the cells where
no positively weighted quantitative feature's three-sigma windows miss; the
rest are implied.  Every cell, stored or implied, must still equal the
per-pair composition of the scalar functions.
"""

import dataclasses
import math
import random
import subprocess
import sys
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from iomatch import dataio
from iomatch.aggregate import AggregationMethod, AggregationSpec
from iomatch.engine import THREE_SIGMA, candidates, pairwise_breakdowns
from iomatch.model import (
    FeatureKind,
    FeatureSchema,
    FeatureValue,
    InformationObject,
    QuantAccuracy,
    Schema,
    SourceProfile,
)

from oracles import csv_writer_bytes, object_run, scalar_pair_scores
from test_columnar import _csv_bytes, assert_matches_scalar

AXES = ("x", "y", "z")
LABELS = ("tank", "truck", "apc")


def _windows(value: float, sigma: float) -> tuple[float, float]:
    """A value's three-sigma window, computed as the engine computes it."""
    half = THREE_SIGMA * sigma
    return value - half, value + half


def _touching(target: float, half: float, below: bool) -> float:
    """A value whose window's high end (``below``) or low end is exactly
    ``target``, searched among the floats next to ``target -/+ half``; that
    start when none of them is."""
    start = target - half if below else target + half
    value = start
    for _ in range(16):
        end = value + half if below else value - half
        if end == target:
            return value
        value = float(np.nextafter(value, math.inf if end < target else -math.inf))
    return start


@st.composite
def blocked_runs(draw):
    """Two quantitative features (one of 1-3 axes) and maybe a nominal one,
    over scenes of a drawn density; some values absent, some windows touching
    exactly, some weights zero, and every aggregation method.  Returns the
    run and the objects of each side, which the scalar oracle reads."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    axes = draw(st.integers(1, 3))
    dyadic = draw(st.booleans())  # exact window ends, so touching is common
    if dyadic:
        sigmas = {f: (rng.choice((0.25, 0.5, 1.0)), rng.choice((0.25, 0.5, 1.0))) for f in ("pos", "speed")}
    else:
        sigmas = {f: (rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)) for f in ("pos", "speed")}
    n_a, n_b = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    # Objects per window width: from nearly every pair pruned to none.
    density = draw(st.sampled_from([0.05, 0.3, 1.0, 4.0]))
    absent = draw(st.sampled_from([0.0, 0.0, 0.3]))
    touch = draw(st.sampled_from([0.0, 0.5]))
    with_type = draw(st.booleans())

    def value(feature):
        span = max(n_a, n_b, 1) * THREE_SIGMA * sum(sigmas[feature]) / density
        return rng.randrange(0, 64) * span / 64 if dyadic else rng.uniform(0.0, span)

    def draw_side(source, n, others=None):
        raws = []
        side = 0 if source == "a" else 1
        for _ in range(n):
            pos = [value("pos") for _ in range(axes)]
            speed = value("speed")
            if others and rng.random() < touch:
                # Windows that touch an A object's exactly: on every axis, or on one.
                other = rng.choice(others)
                for k in range(axes) if rng.random() < 0.5 else (rng.randrange(axes),):
                    lo, hi = _windows(other["pos"][k], sigmas["pos"][0])
                    below = rng.random() < 0.5
                    pos[k] = _touching(lo if below else hi, THREE_SIGMA * sigmas["pos"][side], below)
                lo, hi = _windows(other["speed"], sigmas["speed"][0])
                below = rng.random() < 0.5
                speed = _touching(lo if below else hi, THREE_SIGMA * sigmas["speed"][side], below)
            raws.append({"pos": pos, "speed": speed, "type": rng.choice(LABELS)})
        return raws

    raw_a = draw_side("a", n_a)
    raw_b = draw_side("b", n_b, raw_a)
    names = ["pos", "speed"] + (["type"] if with_type else [])
    weights = [draw(st.sampled_from([0.0, 1.0, 2.0])) for _ in names]
    weights[0] = weights[0] or 1.0

    def objects(source, raws):
        result = []
        for i, raw in enumerate(raws):
            values = {}
            for name in names:
                if rng.random() < absent:
                    continue
                v = raw[name]
                values[name] = FeatureValue(tuple(v) if name == "pos" and axes > 1 else (v[0] if name == "pos" else v))
            result.append(InformationObject(f"{source}{i}", source, values))
        return tuple(result)

    pos_axes = AXES[:axes] if axes > 1 else None
    templates = {
        "pos": FeatureSchema("pos", FeatureKind.QUANTITATIVE, 0.0, quantitative_xi=draw(st.sampled_from([None, 1.5])),
                             axes=pos_axes),
        "speed": FeatureSchema("speed", FeatureKind.QUANTITATIVE, 0.0),
        "type": FeatureSchema("type", FeatureKind.NOMINAL, 0.0, nominal_delta=0.2),
    }
    schema = Schema(tuple(
        FeatureSchema(**{**templates[n].__dict__, "weight": w / sum(weights)}) for n, w in zip(names, weights)
    ))
    profiles = {
        s: SourceProfile(s, {f: QuantAccuracy(sigma=sigmas[f][k]) for f in ("pos", "speed")})
        for k, s in enumerate("ab")
    }
    method = draw(st.sampled_from([AggregationMethod.MULTIPLICATIVE] * 4 + list(AggregationMethod)))
    spec = AggregationSpec(method=method, class_weight=0.6)
    objects_a, objects_b = objects("a", raw_a), objects("b", raw_b)
    return object_run(schema, profiles, objects_a, objects_b, spec), objects_a, objects_b


def _window_misses(run, a, b) -> bool:
    """Brute force: some positively weighted quantitative feature held by
    both objects has windows that miss on an axis (the pair scores 0)."""
    if run.aggregation.method is not AggregationMethod.MULTIPLICATIVE:
        return False
    for feature in run.schema.features:
        if feature.kind is not FeatureKind.QUANTITATIVE or feature.weight <= 0.0:
            continue
        if feature.name not in a.values or feature.name not in b.values:
            continue
        va, vb = (o.values[feature.name].value for o in (a, b))
        va, vb = (v if isinstance(v, tuple) else (v,) for v in (va, vb))
        sa, sb = (run.profiles[o.source_id].accuracy[feature.name].resolved_sigma() for o in (a, b))
        for x, y in zip(va, vb):
            lo_a, hi_a = _windows(x, sa)
            lo_b, hi_b = _windows(y, sb)
            if not (lo_a <= hi_b and lo_b <= hi_a):
                return True
    return False


@settings(max_examples=300, deadline=None)
@given(blocked_runs(), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
def test_blocked_scores_equal_scalar_oracle(drawn, threshold):
    run, objects_a, objects_b = drawn
    scores = pairwise_breakdowns(run)
    # Every cell, stored or implied, per feature and aggregate.
    assert_matches_scalar(run, objects_a, objects_b, scores)
    pairs = [(a, b) for a in objects_a for b in objects_b]
    pruned = [_window_misses(run, a, b) for a, b in pairs]
    # The stored cells are exactly those brute force does not prune.
    stored = set(zip(scores.cells.rows.tolist(), scores.cells.cols.tolist()))
    n_b = len(objects_b)
    assert stored == {divmod(k, n_b) for k, miss in enumerate(pruned) if not miss}
    if run.aggregation.method is not AggregationMethod.MULTIPLICATIVE:
        assert len(scores.cells) == len(scores)
    # Pruned pairs score 0 by the oracle too, so no threshold keeps them.
    for (a, b), miss in zip(pairs, pruned):
        assert not miss or scalar_pair_scores(run, a, b)[1] == 0.0
    # The candidate set against brute force over every cell: above the
    # threshold, with a feature in common.
    listed = list(scores)
    want = {b.pair for b in listed if b.aggregate_proximity > threshold and b.per_feature}
    assert {b.pair for b in candidates(scores, threshold)} == want
    # Random access, the dense views and the pairs.csv writer agree with the breakdowns.
    for k in range(len(scores)):
        assert scores.breakdown(*divmod(k, n_b)) == listed[k]
    assert scores.aggregate_proximity.ravel().tolist() == [b.aggregate_proximity for b in listed]
    if any(pruned):
        want = csv_writer_bytes(listed, run.schema)
        assert _csv_bytes(scores, run.schema) == want
        # One row per chunk and two chunks per layout: several layouts a file.
        with mock.patch.object(dataio, "_CELLS", 1), mock.patch.object(dataio, "_STEPS", 2):
            assert _csv_bytes(scores, run.schema) == want


def _scene(n: int, seed: int):
    """A match-sparse-like scene: n objects a side over a square whose area
    grows with n (10 km at n = 300), reported by sources of sigma 20 and 30."""
    rng = np.random.default_rng(seed)
    side = 10_000.0 * math.sqrt(n / 300)
    truth = rng.uniform(0.0, side, (n, 2))
    kinds = rng.integers(0, len(LABELS), n)
    sides = {}
    for source, sigma in (("a", 20.0), ("b", 30.0)):
        observed = truth + rng.normal(0.0, sigma, (n, 2))
        sides[source] = [
            (f"{source}{i}", x, y, LABELS[k]) for i, ((x, y), k) in enumerate(zip(observed.tolist(), kinds.tolist()))
        ]
    return sides


SCENE_CONFIG = """{
  "schema": {"features": [
    {"name": "position", "kind": "quantitative", "weight": 0.5, "axes": ["x", "y"], "xi": 30.0},
    {"name": "type", "kind": "nominal", "weight": 0.5, "delta": 0.1}
  ]},
  "sources": {"a": {"position": {"sigma": 20.0}}, "b": {"position": {"sigma": 30.0}}},
  "aggregation": {"method": "multiplicative"},
  "threshold": 0.01
}
"""


def _scene_scores(sides):
    schema = Schema((
        FeatureSchema("position", FeatureKind.QUANTITATIVE, 0.5, quantitative_xi=30.0, axes=("x", "y")),
        FeatureSchema("type", FeatureKind.NOMINAL, 0.5, nominal_delta=0.1),
    ))
    datasets = {
        s: [InformationObject(i, s, {"position": FeatureValue((x, y)), "type": FeatureValue(t)}) for i, x, y, t in rows]
        for s, rows in sides.items()
    }
    profiles = {
        s: SourceProfile(s, {"position": QuantAccuracy(sigma=sigma)}) for s, sigma in (("a", 20.0), ("b", 30.0))
    }
    return pairwise_breakdowns(object_run(schema, profiles, datasets["a"], datasets["b"]))


def test_stored_cells_equal_brute_force_window_count():
    sides = _scene(300, 5)
    scores = _scene_scores(sides)
    pa, pb = (np.array([(x, y) for _, x, y, _ in sides[s]]) for s in "ab")
    lo_a, hi_a = pa - THREE_SIGMA * 20.0, pa + THREE_SIGMA * 20.0
    lo_b, hi_b = pb - THREE_SIGMA * 30.0, pb + THREE_SIGMA * 30.0
    meet = np.all((lo_a[:, None] <= hi_b[None]) & (lo_b[None] <= hi_a[:, None]), axis=2)
    assert 0 < len(scores.cells) == int(meet.sum()) < len(scores) // 100
    assert list(zip(scores.cells.rows.tolist(), scores.cells.cols.tolist())) == list(zip(*np.nonzero(meet)))


def test_block_scores_only_the_pruned_cells():
    """The kernels are asked for a block's pruned cells alone: the stored
    cells keep their stored scores, so no Phi term is computed again for
    them, and here every pruned pair's windows miss, so none at all."""
    scores = _scene_scores(_scene(300, 5))
    grid = np.arange(120)[:, None], np.arange(len(scores.ids_b))[None, :]
    dense = {name: side.kernel(*grid) for name, side in scores.sides.items()}
    wanted = []

    def counted(kernel):
        def score(rows, cols, mask):
            wanted.append(mask.copy())
            return kernel(rows, cols, mask)
        return score

    for name, side in scores.sides.items():
        scores.sides[name] = dataclasses.replace(side, kernel=counted(side.kernel))
    with mock.patch("math.erf", side_effect=AssertionError("math.erf called")):
        proximity = scores.block(0, 120)[0]
    pruned = np.ones((120, len(scores.ids_b)), dtype=bool)
    stored = scores.cells.rows < 120
    pruned[scores.cells.rows[stored], scores.cells.cols[stored]] = False
    assert 0 < pruned.sum() < pruned.size and len(wanted) == len(scores.sides)
    assert all(np.array_equal(mask, pruned) for mask in wanted)
    for name in scores.sides:
        assert np.array_equal(proximity[name][pruned], dense[name][pruned])


PEAK_RSS = """\
import resource, sys
from iomatch.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def test_match_at_3000_a_side_stays_small(tmp_path):
    """The dense engine needed about 746 MiB here; the blocked one stores
    only the cells whose windows meet."""
    n = 3000
    for source, rows in _scene(n, 11).items():
        lines = ["object_id,source_id,position_x,position_y,type"]
        lines += [f"{i},{source},{x!r},{y!r},{t}" for i, x, y, t in rows]
        (tmp_path / f"{source}.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "config.json").write_text(SCENE_CONFIG)
    argv = ["match", "--config", str(tmp_path / "config.json"), str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
            "--format", "json", "--out", str(tmp_path / "out")]
    child = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith(f"pairs evaluated: {n * n}; candidates above 0.01: ")
    peak_mib = int(child.stderr.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mib < 256, f"peak RSS {peak_mib:.0f} MiB"
