"""Two-source scene simulation: synthesize ground truth, observe it with noisy
sources, run the matcher, and emit CSV/JSON/SVG artifacts.

Randomness comes from numpy's PCG64 generator seeded through SeedSequence, so
a fixed scene spec reproduces byte-identical outputs.  The noise stream layout
is fixed per object (two normals, one uniform, one replacement draw) so runs
that differ only in source precision share their underlying noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .aggregate import AggregationMethod, AggregationSpec
from .dataio import write_breakdowns_csv, write_json, write_objects_csv
from .engine import MatchRun, PairScores, candidates, pairwise_breakdowns
from .model import (
    FeatureKind,
    FeatureSchema,
    FeatureValue,
    InformationObject,
    ProximityBreakdown,
    QuantAccuracy,
    Schema,
    SourceProfile,
)
from .svgplot import SVG_GENERATOR, render_match_svg

RNG_NAME = "numpy.random.PCG64"

POSITION_FEATURE = "position"
TYPE_FEATURE = "type"

# Ground-truth separation beyond which two distinct objects count as
# "well separated" in the report summary.
FAR_SEPARATION_M = 100.0

DEFAULT_SOURCE_IDS = ("s1", "s2")


class SceneSpecError(ValueError):
    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic two-source observation scene."""

    object_count: int = 20
    area: tuple[float, float] = (1000.0, 1000.0)
    type_alphabet: tuple[str, ...] = ("tank", "truck")
    rmse: tuple[float, float] = (20.0, 30.0)
    type_error: float = 0.1
    fleet_sigma_min: float = 10.0
    rng_seed: int = 1

    def violations(self) -> list[str]:
        errors = []
        if self.object_count <= 0:
            errors.append(f"object_count must be positive, got {self.object_count}")
        if len(self.area) != 2 or any(not a > 0.0 for a in self.area):
            errors.append(f"area sides must be positive, got {self.area}")
        if len(self.type_alphabet) < 2:
            errors.append("type alphabet needs at least two labels")
        if len(self.rmse) != 2 or any(not r > 0.0 for r in self.rmse):
            errors.append(f"need two positive RMSE values, got {self.rmse}")
        if not 0.0 < self.type_error <= 0.5:
            errors.append(f"type_error {self.type_error} outside (0, 0.5]")
        if not self.fleet_sigma_min > 0.0:
            errors.append(f"fleet_sigma_min must be positive, got {self.fleet_sigma_min}")
        if self.rng_seed < 0:
            errors.append(f"seed must be non-negative, got {self.rng_seed}")
        return errors

    @property
    def xi(self) -> float:
        """Confidence half-window: three sigma of the best conceivable source."""
        return 3.0 * self.fleet_sigma_min


@dataclass(frozen=True)
class PhysicalObject:
    po_id: str
    x: float
    y: float
    type_label: str


@dataclass(frozen=True)
class Scene:
    spec: SceneSpec
    objects: tuple[PhysicalObject, ...]


def scene_schema(spec: SceneSpec) -> Schema:
    return Schema(
        (
            FeatureSchema(
                name=POSITION_FEATURE,
                kind=FeatureKind.QUANTITATIVE,
                weight=0.5,
                quantitative_xi=spec.xi,
                axes=("x", "y"),
            ),
            FeatureSchema(
                name=TYPE_FEATURE,
                kind=FeatureKind.NOMINAL,
                weight=0.5,
                nominal_delta=spec.type_error,
            ),
        )
    )


def generate_scene(spec: SceneSpec) -> Scene:
    """Uniform-random objects over the area with uniform-random types."""
    errors = spec.violations()
    if errors:
        raise SceneSpecError(errors)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.rng_seed)))
    xs = rng.uniform(0.0, spec.area[0], spec.object_count)
    ys = rng.uniform(0.0, spec.area[1], spec.object_count)
    kinds = rng.integers(0, len(spec.type_alphabet), spec.object_count)
    objects = tuple(
        PhysicalObject(
            po_id=f"po-{i:03d}",
            x=float(xs[i]),
            y=float(ys[i]),
            type_label=spec.type_alphabet[int(kinds[i])],
        )
        for i in range(spec.object_count)
    )
    return Scene(spec=spec, objects=objects)


def observe(scene: Scene, profile: SourceProfile, seed) -> list[InformationObject]:
    """One source's noisy report of the scene.

    Coordinates are perturbed per axis by zero-mean Gaussian noise with the
    source's position sigma; the type flips with probability type_error to a
    uniformly drawn different label.  Unit noise is drawn before scaling, so
    two sources differing only in sigma see proportional perturbations for
    the same seed.
    """
    spec = scene.spec
    sigma = profile.quantitative_sigma(POSITION_FEATURE)
    rng = np.random.Generator(np.random.PCG64(seed))
    n = len(scene.objects)
    unit_noise = rng.standard_normal((n, 2))
    flip_draws = rng.random(n)
    replacement_draws = rng.integers(0, len(spec.type_alphabet) - 1, n)
    objects = []
    for i, po in enumerate(scene.objects):
        x = po.x + sigma * float(unit_noise[i, 0])
        y = po.y + sigma * float(unit_noise[i, 1])
        label = po.type_label
        if float(flip_draws[i]) < spec.type_error:
            others = [t for t in spec.type_alphabet if t != po.type_label]
            label = others[int(replacement_draws[i])]
        objects.append(
            InformationObject(
                object_id=f"{profile.source_id}-{i:03d}",
                source_id=profile.source_id,
                values={
                    POSITION_FEATURE: FeatureValue((x, y)),
                    TYPE_FEATURE: FeatureValue(label),
                },
            )
        )
    return objects


@dataclass(frozen=True)
class ExperimentReport:
    """A matched scene with its ground truth, held as ``(n, n)`` columns.

    Rows are the reports of the first source, columns those of the second, in
    the order of ``breakdowns``.  The i-th report of each source observes the
    i-th scene object, so the true pairs are the diagonal.
    ``separation_true`` is the distance between the two observed scene
    objects, ``separation_observed`` between the two reported positions.
    """

    spec: SceneSpec
    threshold: float
    scene: Scene
    datasets: Mapping[str, tuple[InformationObject, ...]]
    breakdowns: PairScores
    candidates: tuple[ProximityBreakdown, ...]
    type_mismatch: np.ndarray
    separation_true: np.ndarray
    separation_observed: np.ndarray

    def __post_init__(self):
        for column in (self.type_mismatch, self.separation_true, self.separation_observed):
            column.flags.writeable = False

    @cached_property
    def summary(self) -> dict:
        """Pair and candidate counts against the ground truth, and mean
        proximities; sums run over ``.tolist()`` in row-major pair order."""
        proximity = self.breakdowns.aggregate_proximity
        true = np.eye(len(proximity), dtype=bool)
        candidate = proximity > self.threshold
        mismatch_candidate = candidate & self.type_mismatch
        far = ~true & (self.separation_true > FAR_SEPARATION_M)
        return {
            "pair_count": proximity.size,
            "true_pair_count": int(true.sum()),
            "candidate_count": len(self.candidates),
            "true_candidate_count": int((candidate & true).sum()),
            "type_mismatch_candidate_count": int(mismatch_candidate.sum()),
            "mean_proximity_true_pairs": _mean(proximity[true].tolist()),
            "mean_proximity_distinct_far_pairs": _mean(proximity[far].tolist()),
            "max_type_mismatch_candidate_proximity": max(
                proximity[mismatch_candidate].tolist(), default=None
            ),
            "nominal_mismatch_cap": self.spec.type_error ** 0.5,
        }

    def _candidate_cells(self) -> list[tuple[ProximityBreakdown, int, int]]:
        """Each candidate with its row and column in the report's columns."""
        row = {oid: i for i, oid in enumerate(self.breakdowns.ids_a)}
        col = {oid: j for j, oid in enumerate(self.breakdowns.ids_b)}
        return [(b, row[b.pair[0]], col[b.pair[1]]) for b in self.candidates]

    def to_payload(self) -> dict:
        """JSON-ready representation of the whole experiment."""
        scores = self.breakdowns
        columns = (
            scores.aggregate_proximity,
            scores.aggregate_distance,
            np.eye(len(scores.ids_a), dtype=bool),
            self.type_mismatch,
            self.separation_true,
            self.separation_observed,
        )
        pairs = []
        for i, a in enumerate(scores.ids_a):
            pairs.extend(
                {"a": a, "b": b, "proximity": p, "distance": d, "true_pair": t, "type_mismatch": m,
                 "separation_true": s_true, "separation_observed": s_observed}
                for b, p, d, t, m, s_true, s_observed in zip(scores.ids_b, *(c[i].tolist() for c in columns))
            )
        return {
            "metadata": {
                "generator": f"iomatch {__version__}",
                "rng": RNG_NAME,
                "svg_generator": SVG_GENERATOR,
                "seed": self.spec.rng_seed,
                "threshold": self.threshold,
                "rmse": list(self.spec.rmse),
                "type_error": self.spec.type_error,
                "fleet_sigma_min": self.spec.fleet_sigma_min,
                "object_count": self.spec.object_count,
                "area": list(self.spec.area),
                "types": list(self.spec.type_alphabet),
            },
            "scene": [
                {"id": po.po_id, "x": po.x, "y": po.y, "type": po.type_label}
                for po in self.scene.objects
            ],
            "datasets": {
                source_id: [
                    {
                        "id": obj.object_id,
                        "x": obj.values[POSITION_FEATURE].value[0],
                        "y": obj.values[POSITION_FEATURE].value[1],
                        "type": obj.values[TYPE_FEATURE].value,
                    }
                    for obj in objects
                ]
                for source_id, objects in self.datasets.items()
            },
            "pairs": pairs,
            "candidates": [
                {
                    "a": b.pair[0],
                    "b": b.pair[1],
                    "proximity": b.aggregate_proximity,
                    "true_pair": i == j,
                    "type_mismatch": bool(self.type_mismatch[i, j]),
                }
                for b, i, j in self._candidate_cells()
            ],
            "summary": self.summary,
        }


def _mean(values: Sequence[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _separations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from every row of ``a`` to every row of ``b`` (both (n, 2)),
    through ``math.hypot``: numpy's hypot can differ from it in the last bit."""
    d = a[:, None, :] - b[None, :, :]
    distances = map(math.hypot, d[..., 0].ravel().tolist(), d[..., 1].ravel().tolist())
    return np.fromiter(distances, float, len(a) * len(b)).reshape(len(a), len(b))


def run_experiment(
    spec: SceneSpec, out_dir: str | Path | None = None, threshold: float = 0.01
) -> ExperimentReport:
    """Generate, observe, and match a scene; optionally emit artifact files.

    Matching uses the multiplicative convolution with equal position/type
    weights.  Written files: ``objects_<source>.csv``, ``pairs.csv``,
    ``report.json``, ``scene.svg``.
    """
    scene = generate_scene(spec)
    schema = scene_schema(spec)
    root = np.random.SeedSequence(spec.rng_seed)
    observation_seeds = root.spawn(len(DEFAULT_SOURCE_IDS) + 1)[1:]
    profiles = {
        sid: SourceProfile(
            source_id=sid, accuracy={POSITION_FEATURE: QuantAccuracy(sigma=spec.rmse[i])}
        )
        for i, sid in enumerate(DEFAULT_SOURCE_IDS)
    }
    datasets = {
        sid: tuple(observe(scene, profiles[sid], observation_seeds[i]))
        for i, sid in enumerate(DEFAULT_SOURCE_IDS)
    }
    dataset_a, dataset_b = (datasets[sid] for sid in DEFAULT_SOURCE_IDS)
    run = MatchRun(
        schema=schema,
        profiles=profiles,
        dataset_a=dataset_a,
        dataset_b=dataset_b,
        aggregation=AggregationSpec(method=AggregationMethod.MULTIPLICATIVE),
        candidate_threshold=threshold,
    )
    breakdowns = pairwise_breakdowns(run)
    truth = np.array([(po.x, po.y) for po in scene.objects])
    observed_a, observed_b = (
        np.array([o.values[POSITION_FEATURE].value for o in objs]) for objs in (dataset_a, dataset_b)
    )
    labels_a, labels_b = (
        np.array([o.values[TYPE_FEATURE].value for o in objs]) for objs in (dataset_a, dataset_b)
    )
    report = ExperimentReport(
        spec=spec,
        threshold=threshold,
        scene=scene,
        datasets=datasets,
        breakdowns=breakdowns,
        candidates=tuple(candidates(breakdowns, threshold)),
        type_mismatch=labels_a[:, None] != labels_b[None, :],
        separation_true=_separations(truth, truth),
        separation_observed=_separations(observed_a, observed_b),
    )
    if out_dir is not None:
        emit_report_files(report, Path(out_dir))
    return report


def emit_report_files(report: ExperimentReport, out_dir: Path, formats: Sequence[str] = ("csv", "json", "svg")) -> list[Path]:
    """Write the experiment artifacts; returns the files written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = scene_schema(report.spec)
    written = []
    if "csv" in formats:
        for source_id, objects in report.datasets.items():
            p = out_dir / f"objects_{source_id}.csv"
            write_objects_csv(p, objects, schema)
            written.append(p)
        p = out_dir / "pairs.csv"
        write_breakdowns_csv(p, report.breakdowns, schema)
        written.append(p)
    if "json" in formats:
        p = out_dir / "report.json"
        write_json(p, report.to_payload())
        written.append(p)
    if "svg" in formats:
        p = out_dir / "scene.svg"
        p.write_text(render_scene_svg(report))
        written.append(p)
    return written


def render_scene_svg(report: ExperimentReport) -> str:
    dataset_a, dataset_b = (report.datasets[sid] for sid in DEFAULT_SOURCE_IDS)
    links = []
    for _, i, j in report._candidate_cells():
        ax, ay = dataset_a[i].values[POSITION_FEATURE].value
        bx, by_ = dataset_b[j].values[POSITION_FEATURE].value
        links.append((ax, ay, bx, by_, bool(report.type_mismatch[i, j])))
    datasets = [
        (sid, [(o.object_id, o.values[POSITION_FEATURE].value[0], o.values[POSITION_FEATURE].value[1]) for o in objs])
        for sid, objs in report.datasets.items()
    ]
    rmse = report.spec.rmse
    title = f"candidates above {report.threshold:g} (RMSE {rmse[0]:g} m / {rmse[1]:g} m)"
    return render_match_svg(report.spec.area, datasets, links, title=title)
