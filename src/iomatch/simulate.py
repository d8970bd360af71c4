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
from .dataio import Records, write_breakdowns_csv, write_json, write_objects_csv
from .engine import DEFAULT_THRESHOLD, MatchRun, PairScores, RankedCandidates, candidates, pairwise_breakdowns
from .model import (
    Dataset,
    FeatureColumn,
    FeatureKind,
    FeatureSchema,
    QuantAccuracy,
    Schema,
    SourceProfile,
    ValidationError,
)
from .svgplot import SVG_GENERATOR, render_match_svg

RNG_NAME = "numpy.random.PCG64"

POSITION_FEATURE = "position"
TYPE_FEATURE = "type"

# Ground-truth separation beyond which two distinct objects count as
# "well separated" in the report summary.
FAR_SEPARATION_M = 100.0

DEFAULT_SOURCE_IDS = ("s1", "s2")

# The records of report.json's pairs and candidates, keys in sorted order.
_PAIR_FIELDS = {
    "a": "id", "b": "id", "distance": "float", "proximity": "float", "separation_observed": "float",
    "separation_true": "float", "true_pair": "flag", "type_mismatch": "flag",
}
_CANDIDATE_FIELDS = {"a": "id", "b": "id", "proximity": "float", "true_pair": "flag", "type_mismatch": "flag"}
# The records of report.json's scene and datasets.
_OBJECT_FIELDS = {"id": "id", "type": "id", "x": "float", "y": "float"}


class SceneSpecError(ValidationError):
    """Raised when a scene spec fails validation."""


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
        if len(set(self.type_alphabet)) < len(self.type_alphabet):
            errors.append(f"type alphabet labels must be distinct, got {list(self.type_alphabet)}")
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


@dataclass(frozen=True, eq=False)
class Scene:
    """The ground truth as columns: the objects' ``ids`` (``po-000``, ...),
    their read-only ``(n, 2)`` ``positions``, and ``kinds``, each object's
    index into ``spec.type_alphabet``."""

    spec: SceneSpec
    ids: tuple[str, ...]
    positions: np.ndarray
    kinds: np.ndarray

    def __post_init__(self):
        for column in (self.positions, self.kinds):
            column.flags.writeable = False


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
    return Scene(spec, tuple(map("po-{:03d}".format, range(spec.object_count))), np.stack([xs, ys], axis=1), kinds)


def observe(scene: Scene, profile: SourceProfile, seed) -> Dataset:
    """One source's noisy report of the scene, as a dataset of the scene schema.

    Coordinates are perturbed per axis by zero-mean Gaussian noise with the
    source's position sigma; the type flips with probability type_error to
    kind ``pick + (pick >= kind)``, a uniform draw among the other labels.
    Unit noise is drawn before scaling, so two sources differing only in
    sigma see proportional perturbations for the same seed.
    """
    spec = scene.spec
    sigma = profile.quantitative_sigma(POSITION_FEATURE)
    rng = np.random.Generator(np.random.PCG64(seed))
    n = len(scene.ids)
    unit_noise = rng.standard_normal((n, 2))
    flip_draws = rng.random(n)
    picks = rng.integers(0, len(spec.type_alphabet) - 1, n)
    kinds = np.where(flip_draws < spec.type_error, picks + (picks >= scene.kinds), scene.kinds)
    with np.errstate(over="ignore"):  # validating the run reports a non-finite position
        positions = scene.positions + sigma * unit_noise
    present, certainty = np.ones(n, dtype=bool), np.ones(n)
    return Dataset(
        scene_schema(spec),
        [f"{profile.source_id}-{i:03d}" for i in range(n)],
        [profile.source_id] * n,
        {
            POSITION_FEATURE: FeatureColumn(present, positions, certainty),
            TYPE_FEATURE: FeatureColumn(present, np.array(spec.type_alphabet, dtype=object)[kinds], certainty),
        },
    )


@dataclass(frozen=True)
class ExperimentReport:
    """A matched scene with its ground truth, held as ``(n, n)`` columns.

    Rows are the reports of the first source, columns those of the second, in
    the order of ``breakdowns``, and ``candidates`` indexes them by its
    ``rows`` and ``cols``.  The i-th report of each source observes the i-th
    scene object, so the true pairs are the diagonal.
    ``separation_true`` is the distance between the two observed scene
    objects, ``separation_observed`` between the two reported positions.
    """

    threshold: float
    scene: Scene
    datasets: Mapping[str, Dataset]
    breakdowns: PairScores
    candidates: RankedCandidates
    type_mismatch: np.ndarray
    separation_true: np.ndarray
    separation_observed: np.ndarray

    def __post_init__(self):
        for column in (self.type_mismatch, self.separation_true, self.separation_observed):
            column.flags.writeable = False

    @property
    def spec(self) -> SceneSpec:
        """The spec the scene was drawn from."""
        return self.scene.spec

    @cached_property
    def summary(self) -> dict:
        """Pair and candidate counts against the ground truth, and mean
        proximities; sums run over ``.tolist()`` in row-major pair order."""
        proximity = self.breakdowns.aggregate_proximity
        true = np.eye(len(proximity), dtype=bool)
        found = self.candidates
        mismatch = self.type_mismatch[found.rows, found.cols]
        far = ~true & (self.separation_true > FAR_SEPARATION_M)
        return {
            "pair_count": proximity.size,
            "true_pair_count": int(true.sum()),
            "candidate_count": len(found),
            "true_candidate_count": int((found.rows == found.cols).sum()),
            "type_mismatch_candidate_count": int(mismatch.sum()),
            "mean_proximity_true_pairs": _mean(proximity[true].tolist()),
            "mean_proximity_distinct_far_pairs": _mean(proximity[far].tolist()),
            "max_type_mismatch_candidate_proximity": max(
                found.aggregate_proximity[mismatch].tolist(), default=None
            ),
            "nominal_mismatch_cap": self.spec.type_error ** 0.5,
        }

    def to_payload(self) -> dict:
        """JSON-ready representation of the whole experiment."""
        payload = self._payload()
        payload["datasets"] = {sid: records.records() for sid, records in payload["datasets"].items()}
        for key in ("scene", "pairs", "candidates"):
            payload[key] = payload[key].records()
        return payload

    def _payload(self, aggregate_texts: np.ndarray | None = None) -> dict:
        """:meth:`to_payload` with its lists of records as :class:`Records`
        views of the report's columns, which ``write_json`` renders a block
        at a time: 1-D columns for the scene, datasets and candidates, and
        for the pairs the ids as ``(n_a, 1)`` and ``(1, n_b)`` columns and
        the scores as ``(n_a, n_b)`` ones.

        ``aggregate_texts``, the texts ``pairs.csv`` wrote for every pair's
        aggregate proximity and distance (an ``(n_a * n_b, 2)`` object array
        in grid order), are given as the pairs' ``proximity`` and
        ``distance`` columns instead of the floats, so those are not
        rendered again."""
        scores, found = self.breakdowns, self.candidates
        shape = (len(scores.ids_a), len(scores.ids_b))
        if aggregate_texts is None:
            proximity, distance = scores.aggregate_proximity, scores.aggregate_distance
        else:
            proximity, distance = (aggregate_texts[:, k].reshape(shape) for k in range(2))
        pairs = (
            np.array(scores.ids_a, dtype=object)[:, None],
            np.array(scores.ids_b, dtype=object)[None, :],
            distance,
            proximity,
            self.separation_observed,
            self.separation_true,
            np.eye(*shape, dtype=bool),
            self.type_mismatch,
        )
        candidates = (
            found.ids_a,
            found.ids_b,
            found.aggregate_proximity,
            found.rows == found.cols,
            self.type_mismatch[found.rows, found.cols],
        )
        truth = self.scene
        scene = [truth.ids, np.array(self.spec.type_alphabet, dtype=object)[truth.kinds], *truth.positions.T]
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
            "scene": Records(_OBJECT_FIELDS, scene),
            "datasets": {
                source_id: Records(_OBJECT_FIELDS, _report_columns(dataset))
                for source_id, dataset in self.datasets.items()
            },
            "pairs": Records(_PAIR_FIELDS, pairs),
            "candidates": Records(_CANDIDATE_FIELDS, candidates),
            "summary": self.summary,
        }


def _report_columns(dataset: Dataset) -> list[Sequence]:
    """The id, type, x and y columns of one source's reports."""
    return [dataset.ids, dataset.columns[TYPE_FEATURE].values, *dataset.columns[POSITION_FEATURE].values.T]


def _mean(values: Sequence[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _separations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from every row of ``a`` to every row of ``b`` (both (n, 2)),
    through ``math.hypot``: numpy's hypot can differ from it in the last bit."""
    d = a[:, None, :] - b[None, :, :]
    distances = map(math.hypot, d[..., 0].ravel().tolist(), d[..., 1].ravel().tolist())
    return np.fromiter(distances, float, len(a) * len(b)).reshape(len(a), len(b))


def _self_separations(p: np.ndarray) -> np.ndarray:
    """``_separations(p, p)`` bit for bit, each unordered pair computed once
    and mirrored: ``math.hypot`` depends only on ``|dx|`` and ``|dy|``, and
    ``x - y == -(y - x)`` in IEEE arithmetic."""
    i, j = np.triu_indices(len(p))
    d = p[i] - p[j]
    separations = np.empty((len(p), len(p)))
    distances = map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist())
    separations[i, j] = separations[j, i] = np.fromiter(distances, float, len(i))
    return separations


def run_experiment(spec: SceneSpec, threshold: float = DEFAULT_THRESHOLD) -> ExperimentReport:
    """Generate, observe, and match a scene; :func:`emit_report_files`
    writes its files.

    Matching uses the multiplicative convolution with equal position/type
    weights.  Raises :class:`SceneSpecError` when a separation of two scene
    objects or of two reports is not finite, which ``report.json`` could
    not hold as JSON.
    """
    scene = generate_scene(spec)
    schema = scene_schema(spec)
    root = np.random.SeedSequence(spec.rng_seed)
    observation_seeds = root.spawn(len(DEFAULT_SOURCE_IDS) + 1)[1:]
    profiles = {
        sid: SourceProfile(sid, {POSITION_FEATURE: QuantAccuracy(sigma=sigma)})
        for sid, sigma in zip(DEFAULT_SOURCE_IDS, spec.rmse)
    }
    datasets = {sid: observe(scene, profiles[sid], observation_seeds[i]) for i, sid in enumerate(DEFAULT_SOURCE_IDS)}
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
    observed_a, observed_b = (d.columns[POSITION_FEATURE].values for d in (dataset_a, dataset_b))
    labels_a, labels_b = (d.columns[TYPE_FEATURE].values for d in (dataset_a, dataset_b))
    separation_true = _self_separations(scene.positions)
    separation_observed = _separations(observed_a, observed_b)
    # Finite positions can still lie further apart than the float range.
    overflows = [int((~np.isfinite(s)).sum()) for s in (separation_true, separation_observed)]
    if any(overflows):
        raise SceneSpecError([
            f"{overflows[0]} true and {overflows[1]} observed of the {separation_true.size} pair separations"
            " overflow the float range"
        ])
    return ExperimentReport(
        threshold=threshold,
        scene=scene,
        datasets=datasets,
        breakdowns=breakdowns,
        candidates=candidates(breakdowns, threshold),
        type_mismatch=labels_a[:, None] != labels_b[None, :],
        separation_true=separation_true,
        separation_observed=separation_observed,
    )


def emit_report_files(report: ExperimentReport, out_dir: Path, formats: Sequence[str] = ("csv", "json", "svg")) -> list[Path]:
    """Write the experiment artifacts of the given ``formats`` into
    ``out_dir``: ``objects_<source>.csv`` and ``pairs.csv`` for ``"csv"``,
    ``report.json`` for ``"json"``, ``scene.svg`` for ``"svg"``; returns
    the files written.

    When both ``pairs.csv`` and ``report.json`` are written, the CSV writer
    hands the texts of every pair's aggregate proximity and distance over
    to the ``pairs`` list of the report, so each is rendered once.  They are
    held from the first CSV block to the last JSON block."""
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = scene_schema(report.spec)
    written = []
    aggregate_texts = None
    if "csv" in formats:
        for source_id, dataset in report.datasets.items():
            p = out_dir / f"objects_{source_id}.csv"
            write_objects_csv(p, dataset)
            written.append(p)
        p = out_dir / "pairs.csv"
        # Every cell in grid order, and the file's last two columns.
        cells = np.arange(len(report.breakdowns)) if "json" in formats else None
        aggregate_texts = write_breakdowns_csv(p, report.breakdowns, schema, cells, slice(-2, None))
        written.append(p)
    if "json" in formats:
        p = out_dir / "report.json"
        write_json(p, report._payload(aggregate_texts))
        written.append(p)
    if "svg" in formats:
        p = out_dir / "scene.svg"
        p.write_text(render_scene_svg(report))
        written.append(p)
    return written


def render_scene_svg(report: ExperimentReport) -> str:
    positions = {sid: d.columns[POSITION_FEATURE].values for sid, d in report.datasets.items()}
    position_a, position_b = (positions[sid] for sid in DEFAULT_SOURCE_IDS)
    found = report.candidates
    links = (position_a[found.rows], position_b[found.cols], report.type_mismatch[found.rows, found.cols])
    rmse = report.spec.rmse
    title = f"candidates above {report.threshold:g} (RMSE {rmse[0]:g} m / {rmse[1]:g} m)"
    return render_match_svg(report.spec.area, list(positions.items()), links, title=title)
