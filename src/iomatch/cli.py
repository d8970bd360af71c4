"""Command-line interface.

Verbs: ``measure`` (full breakdown for one pair), ``match`` (two dataset files
to a candidate list), ``simulate`` (synthetic scene to an experiment report),
``validate`` (configuration lint).  Exit codes: 0 success, 1 validation
failure, 2 runtime error.  Numeric console output uses 4 decimal places.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import ConfigError, RunConfig, load_config, require_match_config
from .dataio import DataError, read_objects_csv, write_breakdowns_csv, write_json
from .dataio import breakdown_record  # noqa: F401  (a boundary the per-layer trace in bench/spans.py wraps)
from .engine import MatchRun, MatchRunError, candidates, pairwise_breakdowns
from .model import SchemaError
from .simulate import SceneSpec, SceneSpecError, emit_report_files, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iomatch",
        description="Proximity-based identification of information objects across sources.",
    )
    parser.add_argument("--version", action="version", version=f"iomatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="print the full breakdown for one object pair")
    measure.add_argument("--config", required=True, help="configuration document (JSON)")
    measure.add_argument("pairfile", help="CSV with exactly two objects from different sources")

    match = sub.add_parser("match", help="match two dataset files and list candidates")
    match.add_argument("--config", required=True)
    match.add_argument("dataset_a", help="CSV dataset of the first source")
    match.add_argument("dataset_b", help="CSV dataset of the second source")
    match.add_argument("--threshold", type=float, default=None, help="candidate threshold override")
    match.add_argument("--out", default=None, help="directory for emitted files")
    match.add_argument("--format", choices=("csv", "json"), default=None,
                       help="restrict emitted files to one format")

    simulate = sub.add_parser("simulate", help="run the synthetic two-source experiment")
    simulate.add_argument("--config", default=None, help="configuration with a simulation section")
    simulate.add_argument("--seed", type=int, default=None, help="scene RNG seed override")
    simulate.add_argument("--threshold", type=float, default=None)
    simulate.add_argument("--out", default=None, help="directory for emitted files")
    simulate.add_argument("--format", choices=("csv", "json", "svg"), default=None)

    validate = sub.add_parser("validate", help="validate a configuration document")
    validate.add_argument("--config", required=True)
    return parser


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _load_for_matching(path: str) -> RunConfig:
    config = load_config(path)
    require_match_config(config)
    return config


def _build_run(config: RunConfig, objects_a, objects_b, threshold: float) -> MatchRun:
    return MatchRun(
        schema=config.schema,
        profiles=config.profiles,
        dataset_a=tuple(objects_a),
        dataset_b=tuple(objects_b),
        aggregation=config.aggregation,
        candidate_threshold=threshold,
    )


def _cmd_measure(args) -> int:
    config = _load_for_matching(args.config)
    objects = read_objects_csv(args.pairfile, config.schema)
    if len(objects) != 2:
        print(f"error: expected exactly two objects, found {len(objects)}", file=sys.stderr)
        return EXIT_VALIDATION
    run = _build_run(config, objects[:1], objects[1:], config.threshold)
    breakdown = pairwise_breakdowns(run)[0]
    print(f"pair: {breakdown.pair[0]} x {breakdown.pair[1]}")
    name_width = max(len("aggregate"), *(len(n) for n in config.schema.names))
    print(f"{'feature':<{name_width}}  {'proximity':>9}  {'distance':>9}")
    for feature in config.schema.features:
        score = breakdown.per_feature.get(feature.name)
        if score is None:
            print(f"{feature.name:<{name_width}}  {'absent':>9}  {'absent':>9}")
        else:
            print(
                f"{feature.name:<{name_width}}  {_fmt(score.proximity):>9}  {_fmt(score.distance):>9}"
            )
    method = config.aggregation.method.value
    print(
        f"{'aggregate':<{name_width}}  {_fmt(breakdown.aggregate_proximity):>9}  "
        f"{_fmt(breakdown.aggregate_distance):>9}  ({method})"
    )
    return EXIT_OK


def _cmd_match(args) -> int:
    config = _load_for_matching(args.config)
    threshold = args.threshold if args.threshold is not None else config.threshold
    objects_a = read_objects_csv(args.dataset_a, config.schema)
    objects_b = read_objects_csv(args.dataset_b, config.schema)
    run = _build_run(config, objects_a, objects_b, threshold)
    breakdowns = pairwise_breakdowns(run)
    found = candidates(breakdowns, threshold)
    lines = [f"pairs evaluated: {len(breakdowns)}; candidates above {threshold:g}: {len(found)}"]
    lines += [
        f"{a}  {b}  {_fmt(p)}" for a, b, p in zip(found.ids_a, found.ids_b, found.aggregate_proximity.tolist())
    ]
    print("\n".join(lines))
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        formats = (args.format,) if args.format else ("csv", "json")
        if "csv" in formats:
            write_breakdowns_csv(out_dir / "pairs.csv", breakdowns, config.schema)
        if "json" in formats:
            write_json(
                out_dir / "candidates.json",
                {
                    "threshold": threshold,
                    "pair_count": len(breakdowns),
                    "candidates": found,
                },
            )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = SceneSpec()
    threshold = 0.01
    if args.config is not None:
        config = load_config(args.config)
        if config.simulation is None:
            print("error: config has no simulation section", file=sys.stderr)
            return EXIT_VALIDATION
        spec = config.simulation
        threshold = config.threshold
    if args.seed is not None:
        spec = replace(spec, rng_seed=args.seed)
    if args.threshold is not None:
        threshold = args.threshold
    report = run_experiment(spec, out_dir=None, threshold=threshold)
    if args.out is not None:
        formats = (args.format,) if args.format else ("csv", "json", "svg")
        written = emit_report_files(report, Path(args.out), formats)
        for p in written:
            print(f"wrote {p}")
    s = report.summary
    print(
        f"objects: {spec.object_count}; pairs: {s['pair_count']}; "
        f"candidates above {threshold:g}: {s['candidate_count']} "
        f"({s['true_candidate_count']} true)"
    )
    if s["mean_proximity_true_pairs"] is not None:
        print(f"mean proximity, true pairs: {_fmt(s['mean_proximity_true_pairs'])}")
    if s["mean_proximity_distinct_far_pairs"] is not None:
        print(
            f"mean proximity, distinct pairs beyond 100 m: "
            f"{_fmt(s['mean_proximity_distinct_far_pairs'])}"
        )
    if s["type_mismatch_candidate_count"]:
        print(
            f"type-mismatched candidates: {s['type_mismatch_candidate_count']} "
            f"(max proximity {_fmt(s['max_type_mismatch_candidate_proximity'])}, "
            f"cap {_fmt(s['nominal_mismatch_cap'])})"
        )
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    parts = []
    if config.schema is not None:
        parts.append(f"{len(config.schema)} features")
    if config.profiles:
        parts.append(f"{len(config.profiles)} sources")
    if config.simulation is not None:
        parts.append("simulation scene")
    print(f"OK: {', '.join(parts) if parts else 'empty but well-formed'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "measure": _cmd_measure,
        "match": _cmd_match,
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, SchemaError, MatchRunError, SceneSpecError) as exc:
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_VALIDATION
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
