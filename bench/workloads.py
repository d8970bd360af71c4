"""The benchmark's workloads: seeded inputs, ground truth and output checks.

Each workload drives one CLI verb the way a user runs it.  The match
workloads get a config JSON and two source CSVs drawn here from the
benchmark's own RNG (``random.Random``, seeded by workload name and seed);
the program receives only those files.  ``simulate`` draws its own scene
from ``--seed``, so its check reads the datasets back from ``report.json``.

Why each workload (zero share = ``aggregate.zero_frac``, the share of pairs
scoring exactly 0, from the traced run of ``--seed 0`` at the commit that
added the benchmark):

- ``simulate-n150``: the emit-heavy path.  Writing CSV, JSON and SVG takes
  most of the wall time, because the report and the SVG look candidates up
  by linear scans, so its cost grows with candidates x pairs.  Scoring is
  light; 91.7% of the 22 500 pairs score exactly 0.
- ``match-sparse``: the scoring-heavy path.  300 objects a side over a
  10 km square; position and type, multiplicative.  99.6% of the 90 000
  pairs score exactly 0, so exact blocking and a vectorized engine show
  their full effect here, and emit (candidates.json only) is negligible.
- ``match-dense-mixed``: the write-heavy counterpart of ``match-sparse``.
  100 objects a side in a 300 m square with all three feature kinds and
  two-class weighted aggregation, which never reaches 0, so every pair is a
  candidate (zero share 0.0) and blocking must change nothing.  Both
  triangular paths run over ranks 1-10: relative k = 0.6 for source a,
  half-width 2 for source b.  A relative k below 0.5 at rank 0 or 1 still
  crashes mid-run (ROADMAP 4a); no workload covers that defect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

THRESHOLD = 0.01
TYPES = ("tank", "truck", "apc", "radar")
TYPE_DELTA = 0.1
RANKS = range(1, 11)


@dataclass(frozen=True)
class Inputs:
    """Everything one operation needs, and what its output must be."""

    argv: tuple[str, ...]
    pairs: int
    outputs: tuple[str, ...]
    console: str
    truth: frozenset[tuple[str, str]] = frozenset()
    expected: dict[tuple[str, str], float] = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    """Outcome of the full check of one output."""

    problems: list[str]
    recall: float
    precision: float
    digest: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    make: Callable[["Workload", int, Path], Inputs]
    check: Callable[[Inputs, Path], Verdict]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"iomatch-bench:{name}:{seed}")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _candidate_digest(ids) -> str:
    lines = "".join(f"{a} {b}\n" for a, b in sorted(ids))
    return hashlib.sha256(lines.encode()).hexdigest()


def _quality(found, truth) -> tuple[float, float]:
    hits = len(set(found) & set(truth))
    return hits / len(truth), (hits / len(found) if found else 0.0)


# --- match workloads ---------------------------------------------------------


@dataclass
class _Report:
    """One source's report of one object, as written to its CSV."""

    object_id: str
    x: float
    y: float
    kind: str
    speed: float
    readiness: int
    readiness_certainty: str
    threat: int
    threat_certainty: str


def _observe(rng: random.Random, truth: dict, sigma: float, speed_sigma: float) -> dict:
    kind = truth["kind"]
    if rng.random() < TYPE_DELTA:
        kind = rng.choice([t for t in TYPES if t != kind])

    def rank(r):
        return min(RANKS[-1], max(RANKS[0], r + rng.choice((-1, 0, 0, 1))))

    return {
        "x": truth["x"] + rng.gauss(0.0, sigma),
        "y": truth["y"] + rng.gauss(0.0, sigma),
        "kind": kind,
        "speed": truth["speed"] + rng.gauss(0.0, speed_sigma),
        "readiness": rank(truth["readiness"]),
        "readiness_certainty": rng.choice(tuple(oracle.CERTAINTY)),
        "threat": rank(truth["threat"]),
        "threat_certainty": rng.choice(tuple(oracle.CERTAINTY)),
    }


def _draw_reports(name: str, seed: int, n: int, side: float):
    """Ground-truth scene observed by sources a (sigma 20) and b (sigma 30).

    Source b lists its reports in shuffled order, so object ids carry no hint
    of the true pairing.
    """
    rng = _rng(name, seed)
    scene = [
        {
            "x": rng.uniform(0.0, side),
            "y": rng.uniform(0.0, side),
            "kind": rng.choice(TYPES),
            "speed": rng.uniform(0.0, 30.0),
            "readiness": rng.choice(RANKS),
            "threat": rng.choice(RANKS),
        }
        for _ in range(n)
    ]
    reports_a = [_Report(f"a{i:04d}", **_observe(rng, t, 20.0, 1.5)) for i, t in enumerate(scene)]
    order = list(range(n))
    rng.shuffle(order)
    reports_b = [None] * n
    truth = set()
    for j, i in enumerate(order):
        reports_b[j] = _Report(f"b{j:04d}", **_observe(rng, scene[i], 30.0, 3.0))
        truth.add((f"a{i:04d}", f"b{j:04d}"))
    return reports_a, reports_b, frozenset(truth)


def _write_reports(path: Path, source: str, reports, columns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["object_id", "source_id", *(c for c, _ in columns)])
        for r in reports:
            writer.writerow([r.object_id, source, *(get(r) for _, get in columns)])


SPARSE_CONFIG = {
    "schema": {
        "features": [
            {"name": "position", "kind": "quantitative", "weight": 0.5, "axes": ["x", "y"], "xi": 30.0},
            {"name": "type", "kind": "nominal", "weight": 0.5, "delta": TYPE_DELTA},
        ]
    },
    "sources": {"a": {"position": {"sigma": 20.0}}, "b": {"position": {"sigma": 30.0}}},
    "aggregation": {"method": "multiplicative"},
    "threshold": THRESHOLD,
}

SPARSE_COLUMNS = (
    ("position_x", lambda r: repr(r.x)),
    ("position_y", lambda r: repr(r.y)),
    ("type", lambda r: r.kind),
)

DENSE_CONFIG = {
    "schema": {
        "features": [
            {"name": "position", "kind": "quantitative", "weight": 0.3, "axes": ["x", "y"], "xi": 30.0},
            {"name": "speed", "kind": "quantitative", "weight": 0.2},
            {"name": "readiness", "kind": "ordinal", "weight": 0.15, "shape": "triangular", "width": 2},
            {"name": "threat", "kind": "ordinal", "weight": 0.15, "shape": "gaussian", "width": 2},
            {"name": "type", "kind": "nominal", "weight": 0.2, "delta": TYPE_DELTA},
        ]
    },
    "sources": {
        "a": {"position": {"sigma": 20.0}, "speed": {"sigma": 1.5}, "readiness": {"k": 0.6}},
        "b": {"position": {"sigma": 30.0}, "speed": {"delta_max": 9.0}, "readiness": {"width": 2}},
    },
    "aggregation": {"method": "two-class-weighted", "class_weight": 0.6},
    "threshold": THRESHOLD,
}

DENSE_COLUMNS = SPARSE_COLUMNS + (
    ("speed", lambda r: repr(r.speed)),
    ("readiness", lambda r: str(r.readiness)),
    ("threat", lambda r: str(r.threat)),
    ("readiness_certainty", lambda r: r.readiness_certainty),
    ("threat_certainty", lambda r: r.threat_certainty),
)


def _sparse_score(ra: _Report, rb: _Report) -> float:
    p_pos = oracle.quantitative(ra.x, 20.0, rb.x, 30.0, 30.0) * oracle.quantitative(ra.y, 20.0, rb.y, 30.0, 30.0)
    return oracle.multiplicative([p_pos, oracle.nominal(ra.kind, rb.kind, TYPE_DELTA)], [0.5, 0.5])


def _dense_score(ra: _Report, rb: _Report) -> float:
    p_pos = oracle.quantitative(ra.x, 20.0, rb.x, 30.0, 30.0) * oracle.quantitative(ra.y, 20.0, rb.y, 30.0, 30.0)
    # Speed has no explicit xi: three times the smaller sigma (1.5 and 9/3).
    p_speed = oracle.quantitative(ra.speed, 1.5, rb.speed, 9.0 / 3.0, 3.0 * 1.5)
    p_ready = oracle.triangular_possibility(
        oracle.triangle_relative(ra.readiness, 0.6),
        oracle.CERTAINTY[ra.readiness_certainty],
        oracle.triangle_halfwidth(rb.readiness, 2.0),
        oracle.CERTAINTY[rb.readiness_certainty],
    )
    p_threat = oracle.gaussian_possibility(
        ra.threat, oracle.CERTAINTY[ra.threat_certainty], rb.threat, oracle.CERTAINTY[rb.threat_certainty], 2.0
    )
    p_type = oracle.nominal(ra.kind, rb.kind, TYPE_DELTA)
    return oracle.two_class([p_pos, p_speed], [p_ready, p_threat, p_type], 0.6)


def _both_windows_overlap(ra: _Report, rb: _Report) -> bool:
    return oracle.windows_overlap(ra.x, 20.0, rb.x, 30.0) and oracle.windows_overlap(ra.y, 20.0, rb.y, 30.0)


def _match_maker(side: float, config: dict, columns, score, maybe_positive, formats: tuple[str, ...]):
    """``make`` for a match workload over a ``side`` x ``side`` square.

    ``maybe_positive(ra, rb)`` is False only for pairs whose aggregate is 0
    by definition; ``formats`` are the ``--format`` values (none: both).
    """

    def make(workload: Workload, seed: int, directory: Path) -> Inputs:
        reports_a, reports_b, truth = _draw_reports(workload.name, seed, workload.n, side)
        directory.mkdir(parents=True, exist_ok=True)
        _write_json(directory / "config.json", config)
        _write_reports(directory / "a.csv", "a", reports_a, columns)
        _write_reports(directory / "b.csv", "b", reports_b, columns)
        expected = oracle.candidates(
            [r.object_id for r in reports_a],
            [r.object_id for r in reports_b],
            lambda i, j: score(reports_a[i], reports_b[j]),
            THRESHOLD,
            lambda i, j: maybe_positive(reports_a[i], reports_b[j]),
        )
        argv = ["match", "--config", str(directory / "config.json"), str(directory / "a.csv"), str(directory / "b.csv")]
        for fmt in formats:
            argv += ["--format", fmt]
        outputs = {"csv": "pairs.csv", "json": "candidates.json"}
        pairs = len(reports_a) * len(reports_b)
        return Inputs(
            argv=tuple(argv),
            pairs=pairs,
            outputs=tuple(outputs[f] for f in formats or ("csv", "json")),
            console=f"pairs evaluated: {pairs}; candidates above {THRESHOLD:g}: {len(expected)}\n",
            truth=truth,
            expected=expected,
        )

    return make


def _check_match(inputs: Inputs, out_dir: Path) -> Verdict:
    doc = json.loads((out_dir / "candidates.json").read_text())
    got = [(c["a"], c["b"], c["proximity"]) for c in doc["candidates"]]
    problems = oracle.compare_candidates(got, inputs.expected)
    if doc["pair_count"] != inputs.pairs:
        problems.append(f"pair_count {doc['pair_count']} != {inputs.pairs}")
    if "pairs.csv" in inputs.outputs:
        with open(out_dir / "pairs.csv", newline="") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != inputs.pairs:
            problems.append(f"pairs.csv has {rows} rows, expected {inputs.pairs}")
    found = [(a, b) for a, b, _ in got]
    recall, precision = _quality(found, inputs.truth)
    digest = {"candidates": len(found), "candidate_ids_sha256": _candidate_digest(found)}
    return Verdict(problems, recall, precision, digest)


# --- simulate ------------------------------------------------------------------


def _make_simulate(workload: Workload, seed: int, directory: Path) -> Inputs:
    directory.mkdir(parents=True, exist_ok=True)
    _write_json(directory / "config.json", {"simulation": {"object_count": workload.n}})
    n = workload.n
    return Inputs(
        argv=("simulate", "--config", str(directory / "config.json"), "--seed", str(seed)),
        pairs=n * n,
        outputs=("objects_s1.csv", "objects_s2.csv", "pairs.csv", "report.json", "scene.svg"),
        console=f"objects: {n}; pairs: {n * n}; ",
    )


SUMMARY_COUNTS = (
    "pair_count",
    "true_pair_count",
    "candidate_count",
    "true_candidate_count",
    "type_mismatch_candidate_count",
)


def _check_simulate(inputs: Inputs, out_dir: Path) -> Verdict:
    """Rescore the datasets in report.json and rebuild the summary counts.

    The i-th report of each source observes the i-th scene object, which is
    the ground truth the counts and recall are taken against.
    """
    report = json.loads((out_dir / "report.json").read_text())
    meta = report["metadata"]
    sigma_a, sigma_b = meta["rmse"]
    xi = 3.0 * meta["fleet_sigma_min"]
    delta = meta["type_error"]
    s1, s2 = report["datasets"]["s1"], report["datasets"]["s2"]

    def maybe_positive(i, j):
        a, b = s1[i], s2[j]
        return oracle.windows_overlap(a["x"], sigma_a, b["x"], sigma_b) and oracle.windows_overlap(
            a["y"], sigma_a, b["y"], sigma_b
        )

    def score(i, j):
        a, b = s1[i], s2[j]
        p_pos = oracle.quantitative(a["x"], sigma_a, b["x"], sigma_b, xi) * oracle.quantitative(
            a["y"], sigma_a, b["y"], sigma_b, xi
        )
        return oracle.multiplicative([p_pos, oracle.nominal(a["type"], b["type"], delta)], [0.5, 0.5])

    expected = oracle.candidates(
        [o["id"] for o in s1], [o["id"] for o in s2], score, meta["threshold"], maybe_positive
    )
    got = [(c["a"], c["b"], c["proximity"]) for c in report["candidates"]]
    problems = oracle.compare_candidates(got, expected)

    index = {o["id"]: i for objs in (s1, s2) for i, o in enumerate(objs)}
    kind = {o["id"]: o["type"] for objs in (s1, s2) for o in objs}
    truth = {(a["id"], b["id"]) for a, b in zip(s1, s2)}
    n = len(report["scene"])
    want = {
        "pair_count": n * n,
        "true_pair_count": n,
        "candidate_count": len(expected),
        "true_candidate_count": sum(1 for a, b in expected if index[a] == index[b]),
        "type_mismatch_candidate_count": sum(1 for a, b in expected if kind[a] != kind[b]),
    }
    summary = {k: report["summary"][k] for k in SUMMARY_COUNTS}
    if summary != want:
        problems.append(f"summary counts {summary} != {want}")
    if len(report["pairs"]) != n * n:
        problems.append(f"report lists {len(report['pairs'])} pairs, expected {n * n}")
    flagged = {(c["a"], c["b"]) for c in report["candidates"] if c["true_pair"]}
    if flagged != truth & {(a, b) for a, b, _ in got}:
        problems.append("true_pair flags on candidates disagree with the scene order")
    found = [(a, b) for a, b, _ in got]
    recall, precision = _quality(found, truth)
    digest = {"candidates": len(found), "candidate_ids_sha256": _candidate_digest(found), "summary": summary}
    return Verdict(problems, recall, precision, digest)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-n150",
            "emit-heavy: writing report.json and the SVG dominates; light scoring, 91.7% of 22 500 pairs score exactly 0",
            150,
            _make_simulate,
            _check_simulate,
        ),
        Workload(
            "match-sparse",
            "scoring-heavy: 99.6% of 90 000 pairs score exactly 0, so blocking and vector kernels show here; emit negligible",
            300,
            # Disjoint position windows give proximity 0 and, under the
            # multiplicative convolution, an aggregate of exactly 0.
            _match_maker(10_000.0, SPARSE_CONFIG, SPARSE_COLUMNS, _sparse_score, _both_windows_overlap, ("json",)),
            _check_match,
        ),
        Workload(
            "match-dense-mixed",
            "write-heavy, all feature kinds, two-class: every pair is a candidate, 0% score 0, so blocking must change nothing",
            100,
            _match_maker(300.0, DENSE_CONFIG, DENSE_COLUMNS, _dense_score, lambda ra, rb: True, ()),
            _check_match,
        ),
    )
}
