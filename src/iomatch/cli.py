"""Command-line interface.

Verbs: ``measure`` (full breakdown for one pair), ``match`` (two dataset files
to a candidate list), ``simulate`` (synthetic scene to an experiment report),
``validate`` (configuration lint).  Exit codes: 0 success, 1 validation
failure, 2 runtime error.  Numeric console output uses 4 decimal places.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import ConfigError, RunConfig, load_config, require_match_config
from .dataio import (
    DataError,
    RenderedCandidates,
    interleave,
    read_dataset,
    read_objects_csv,
    write_breakdowns_csv,
    write_json,
)
from .dataio import breakdown_record  # noqa: F401  (a boundary the per-layer trace in bench/spans.py wraps)
from .engine import DEFAULT_THRESHOLD, MatchRun, candidates, evaluate_pair, pairwise_breakdowns
from .model import ValidationError
from .simulate import SceneSpec, emit_report_files, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are validation errors: ``main``
    prints a malformed command line as one ``error:`` line and exits 1,
    where argparse would print its usage lines and exit 2.  Its verbs'
    parsers are of this class too."""

    def error(self, message: str):
        raise ValidationError([message])


# Built once per process: parsing leaves no state in the parser, so
# in-process callers of main() share it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    match.add_argument("--threshold", default=None, help="candidate threshold override")
    match.add_argument("--out", default=None, help="directory for emitted files")
    match.add_argument("--format", choices=("csv", "json"), default=None,
                       help="restrict emitted files to one format")

    simulate = sub.add_parser("simulate", help="run the synthetic two-source experiment")
    simulate.add_argument("--config", default=None, help="configuration with a simulation section")
    simulate.add_argument("--seed", default=None, help="scene RNG seed override")
    simulate.add_argument("--threshold", default=None)
    simulate.add_argument("--out", default=None, help="directory for emitted files")
    simulate.add_argument("--format", choices=("csv", "json", "svg"), default=None)

    validate = sub.add_parser("validate", help="validate a configuration document")
    validate.add_argument("--config", required=True)
    return parser


# Options that take a number, with the type of the value and what an error
# says it must be.  argparse takes the values as text.  It reads a value that starts
# with "-" as an option unless it has the form of a plain negative number, so
# "-1e+16" or "-inf" is joined to its option, as "--threshold=-1e+16".
_NUMBER_OPTIONS = {"--threshold": (float, "a number"), "--seed": (int, "an integer")}


def _joined_numbers(argv: list[str]) -> list[str]:
    joined = []
    for arg in argv:
        if joined and joined[-1] in _NUMBER_OPTIONS and arg.startswith("-"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _parse_numbers(args) -> None:
    """Parse the number options of ``args`` in place; raises ConfigError naming each malformed value."""
    errors = []
    for option, (kind, expected) in _NUMBER_OPTIONS.items():
        text = getattr(args, option[2:], None)
        try:
            setattr(args, option[2:], text if text is None else kind(text))
        except ValueError:
            errors.append(f"{option} must be {expected}, got {text!r}")
    if errors:
        raise ConfigError(errors)


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _load_for_matching(path: str) -> RunConfig:
    config = load_config(path)
    require_match_config(config)
    return config


def _cmd_measure(args) -> int:
    config = _load_for_matching(args.config)
    objects = read_objects_csv(args.pairfile, config.schema)
    if len(objects) != 2:
        print(f"error: expected exactly two objects, found {len(objects)}", file=sys.stderr)
        return EXIT_VALIDATION
    breakdown = evaluate_pair(config.schema, config.profiles, config.aggregation, *objects)
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
    run = MatchRun(
        schema=config.schema,
        profiles=config.profiles,
        dataset_a=read_dataset(args.dataset_a, config.schema),
        dataset_b=read_dataset(args.dataset_b, config.schema),
        aggregation=config.aggregation,
        candidate_threshold=threshold,
    )
    breakdowns = pairwise_breakdowns(run)
    found = candidates(breakdowns, threshold)
    # Written before the listing is printed, so a run that cannot write
    # prints its error line alone, as simulate does.
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        formats = (args.format,) if args.format else ("csv", "json")
        _write_match_files(out_dir, formats, breakdowns, found, config.schema, threshold)
    # One %-format call for every proximity: the same C conversion as
    # format(p, ".4f").
    proximities = ("%.4f\n" * len(found) % tuple(found.aggregate_proximity.tolist())).split("\n")[:-1]
    listing = interleave(["\n", found.ids_a, "  ", found.ids_b, "  ", proximities])
    print(f"pairs evaluated: {len(breakdowns)}; candidates above {threshold:g}: {len(found)}{listing}")
    return EXIT_OK


def _write_match_files(out_dir: Path, formats, scores, found, schema, threshold: float) -> None:
    """Write the artefacts of a match run's ``scores`` and ``found``
    candidates in the given ``formats`` into ``out_dir``: ``pairs.csv`` for
    ``"csv"``, ``candidates.json`` for ``"json"``.

    When both are written, ``pairs.csv`` hands the texts it rendered for the
    candidates' cells over to ``candidates.json``, so each score is rendered
    once.  The texts are held from the first CSV block to the last JSON
    block.  The writers are called as this module names them, the
    boundaries the per-layer trace in bench/spans.py wraps."""
    view = found
    if "csv" in formats:
        cells = found.rows * len(scores.ids_b) + found.cols if "json" in formats else None
        texts = write_breakdowns_csv(out_dir / "pairs.csv", scores, schema, cells)
        if texts is not None:
            view = RenderedCandidates(found, texts)
    if "json" in formats:
        write_json(out_dir / "candidates.json", {"threshold": threshold, "pair_count": len(scores), "candidates": view})


def _cmd_simulate(args) -> int:
    spec = SceneSpec()
    threshold = DEFAULT_THRESHOLD
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
    report = run_experiment(spec, threshold=threshold)
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


def _warn_once(shown: set[str], message, *_) -> None:
    """Print a warning as one ``warning:`` line on stderr, once per run."""
    if str(message) not in shown:
        shown.add(str(message))
        print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "measure": _cmd_measure,
        "match": _cmd_match,
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
    }
    try:
        args = _build_parser().parse_args(_joined_numbers(sys.argv[1:] if argv is None else argv))
        _parse_numbers(args)
        with warnings.catch_warnings():
            warnings.showwarning = functools.partial(_warn_once, set())
            return handlers[args.command](args)
    except ValidationError as exc:
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_VALIDATION
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
