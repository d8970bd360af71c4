"""End-to-end benchmark of the iomatch command line.

    python3 bench/run.py --workload match-sparse --seed 3 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``.  Each operation is one in-process ``iomatch.cli.main([...])`` call
with stdout captured, on one process and one thread.  ``--seed s`` makes
three scenes (seeds 3s, 3s+1, 3s+2); after one checked warm-up, operations
rotate over them for ``--seconds``.  Every operation's output is checked
(see ``Scene.check``); a raise, a non-zero exit or a mismatch counts as
failed and never stops the run.  ``setup_s`` times ``import iomatch.cli`` in
fresh interpreters before the operations.

The reported times are rescaled to a reference machine speed, measured by a
fixed calibration loop timed before and after each operation (see
``calibrate``); the times as measured are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
operations, then traced ones with a span around each call into the
program's modules (``spans.py``), then one operation under tracemalloc, and
prints the per-module metrics; the spans go to
``.bench_out/spans-<workload>-seed<seed>.csv.gz``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

SETUP_REPEATS = 5
# Host contention on a shared machine slows every process by up to a third
# for seconds to minutes.  A fixed pure-Python loop timed next to each
# measurement gives the machine's speed at that moment, and the reported
# times are rescaled to the speed at which the loop takes REFERENCE_LOOP_S.
CALIBRATION_LOOPS = 1_500_000
REFERENCE_LOOP_S = 0.1
# Each run rotates over this many seeded scenes and averages over them, so
# one scene's size (the simulate emit cost grows with its candidate count)
# does not set the figure.
SCENES = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import iomatch.cli; print(time.perf_counter() - t)"
# The highest percentile reported is the one with at least this many samples beyond it.
TAIL_SAMPLES = 10

END_TO_END = {
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "candidate_recall": "frac",
    "candidate_precision": "frac",
}

# Every per-module metric of the traced run.  Those marked False are times
# of a layer that some workload never calls, where they read exactly 0, so
# they are printed but left out of the result line.
PER_LAYER = {
    "engine.score_s": ("s", True),
    "engine.score_ns_per_pair": ("ns", True),
    "engine.score_self_s": ("s", True),
    "engine.score_alloc_mb": ("MiB", True),
    "engine.validate_s": ("s", True),
    "engine.filter_s": ("s", True),
    "engine.pairs": ("count", True),
    "engine.candidates": ("count", True),
    "engine.candidate_ratio": ("frac", True),
    "quant.calls": ("count", True),
    "quant.ns_per_call": ("ns", True),
    "quant.zero_frac": ("frac", True),
    "aggregate.calls": ("count", True),
    "aggregate.ns_per_call": ("ns", True),
    "aggregate.zero_frac": ("frac", True),
    "fuzzy.possibility_calls": ("count", True),
    "fuzzy.possibility_ns_per_call": ("ns", False),
    "fuzzy.nominal_calls": ("count", True),
    "fuzzy.nominal_ns_per_call": ("ns", True),
    "dataio.read_s": ("s", False),
    "config.load_s": ("s", True),
    "dataio.write_pairs_csv_s": ("s", False),
    "dataio.write_json_s": ("s", True),
    "simulate.run_s": ("s", False),
    "simulate.run_self_s": ("s", False),
    "simulate.emit_s": ("s", False),
    "simulate.to_payload_s": ("s", False),
    "simulate.render_svg_s": ("s", False),
    "svgplot.render_s": ("s", False),
    "cli.print_s": ("s", True),
    "trace.wall_s": ("s", True),
    "trace.overhead_frac": ("frac", True),
    "trace.unaccounted_frac": ("frac", True),
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(samples: list[float]) -> str:
    """The highest percentile with TAIL_SAMPLES samples beyond it."""
    n = len(samples)
    if n <= TAIL_SAMPLES:
        return f"no percentile has {TAIL_SAMPLES} samples beyond it at n={n}"
    value = sorted(samples)[n - TAIL_SAMPLES - 1]
    return f"p{100 * (n - TAIL_SAMPLES) // n} {value:.6f} s"


def _git_sha() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return top[1]


def provenance(workload, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "objects_per_side": workload.n,
        "pairs": workload.n * workload.n,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, seconds at reference speed) a fresh interpreter takes to
    ``import iomatch.cli``, per repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        after = calibrate()
        seconds = float(done.stdout)
        samples.append((seconds, seconds * 2.0 * REFERENCE_LOOP_S / (before + after)))
        before = after
    return samples


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Scene:
    """One seeded set of inputs, with the check of every output it produces."""

    def __init__(self, workload, inputs, seed: int, out_dir: Path, recorded: dict | None):
        self.workload, self.inputs, self.seed, self.out_dir = workload, inputs, seed, out_dir
        self.recorded = recorded
        self.argv = [*inputs.argv, "--out", str(out_dir)]
        self.verified: dict[str, str] | None = None
        self.verdict = None

    def check(self, code, console: str) -> list[str]:
        """Exit code, console summary, and output files.

        The first output is checked in full against the reference scores (and
        the digest recorded for this seed, if any); every later output must
        then be byte-identical to it.
        """
        if code != 0:
            return [f"exit code {code}"]
        if self.inputs.console not in console:
            return [f"console lacks {self.inputs.console.strip()!r}"]
        try:
            hashes = {name: _sha256(self.out_dir / name) for name in self.inputs.outputs}
        except OSError as exc:
            return [f"missing output: {exc}"]
        if hashes == self.verified:
            return []
        if self.verified is not None:
            changed = sorted(k for k in hashes if hashes[k] != self.verified[k])
            return [f"{', '.join(changed)} differ from the first output of seed {self.seed}"]
        try:
            verdict = self.workload.check(self.inputs, self.out_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]
        problems = list(verdict.problems)
        if self.recorded is not None and verdict.digest != self.recorded:
            problems.append(f"digest {verdict.digest} != recorded {self.recorded}")
        if not problems:
            self.verified, self.verdict = hashes, verdict
        return problems


class Runner:
    """Runs checked operations, rotating over the scenes of one run."""

    def __init__(self, scenes: list[Scene]):
        import iomatch.cli

        self.scenes = scenes
        self.main = iomatch.cli.main
        self.attempted = 0
        self.failed = 0

    def op(self) -> tuple[int, float]:
        """One checked operation on the next scene; returns (scene, wall seconds)."""
        index = self.attempted % len(self.scenes)
        scene = self.scenes[index]
        gc.collect()
        console = io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
                code = self.main(scene.argv)
        except (Exception, SystemExit) as exc:
            wall = time.perf_counter() - start
            self._fail([f"raised {exc!r}"])
            return index, wall
        wall = time.perf_counter() - start
        problems = scene.check(code, console.getvalue())
        if problems:
            self._fail(problems)
        return index, wall

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        print(f"operation {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)

    def repeat(self, seconds: float) -> list[tuple[int, float, float]]:
        """Operations until ``seconds`` have passed and every scene has run:
        (scene, wall seconds, wall seconds at reference speed) each.

        The machine's speed during an operation is taken as the mean of the
        calibration loops just before and just after it.
        """
        ops = []
        deadline = time.perf_counter() + seconds
        before = calibrate()
        while len(ops) < len(self.scenes) or time.perf_counter() < deadline:
            index, wall = self.op()
            after = calibrate()
            ops.append((index, wall, wall * 2.0 * REFERENCE_LOOP_S / (before + after)))
            before = after
        return ops

    def mean_over_scenes(self, ops: list[tuple[int, float, float]], column: int) -> float:
        """Mean over scenes of each scene's median of one column of ``ops``."""
        return statistics.fmean(
            _median([op[column] for op in ops if op[0] == i]) for i in range(len(self.scenes))
        )

    def quality(self, name: str) -> float:
        """Mean recall or precision over the scenes whose output passed."""
        verdicts = [s.verdict for s in self.scenes if s.verdict is not None]
        return statistics.fmean(getattr(v, name) for v in verdicts) if verdicts else 0.0


def timed_run(runner: Runner, seconds: float, setup: list[tuple[float, float]]) -> dict:
    ops = runner.repeat(seconds)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = runner.mean_over_scenes(ops, 2)
    raw = runner.mean_over_scenes(ops, 1)
    walls = [op[1] for op in ops]
    pairs = runner.scenes[0].inputs.pairs
    values = {
        "wall_s": wall,
        "pairs_per_s": pairs / wall,
        "peak_rss_mb": peak_rss,
        "setup_s": _median([at_reference for _, at_reference in setup]),
        "candidate_recall": runner.quality("recall"),
        "candidate_precision": runner.quality("precision"),
    }
    print(
        f"wall_s: {wall:.6f} s at reference speed, mean over {len(runner.scenes)} scenes of each scene's "
        f"median; as measured: {raw:.6f} s, median of all {_median(walls):.6f} s, "
        f"tail {_tail(walls)}; n={len(walls)} timed operations"
    )
    print("wall_s samples (scene:seconds as measured:at reference speed): "
          + " ".join(f"{i}:{w:.4f}:{r:.4f}" for i, w, r in ops))
    print(f"pairs_per_s: {values['pairs_per_s']:.1f} 1/s at reference speed, {pairs / raw:.1f} as measured, at {pairs} pairs")
    print(f"peak_rss_mb: {peak_rss:.1f} MiB (ru_maxrss of this process)")
    print(
        f"setup_s: {values['setup_s']:.6f} s at reference speed, {_median([s for s, _ in setup]):.6f} s "
        f"as measured; median of {len(setup)} fresh imports of iomatch.cli"
    )
    print(f"candidate_recall: {values['candidate_recall']:.6f} frac, mean over scenes")
    print(f"candidate_precision: {values['candidate_precision']:.6f} frac, mean over scenes")
    print(f"failed_frac: {runner.failed / runner.attempted:.6f} frac ({runner.failed} of {runner.attempted})")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_metrics(tracer, op_id: int) -> dict[str, float]:
    """Per-module metrics of one traced operation."""
    totals = tracer.totals(op_id)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def per_call_ns(seconds, n):
        return seconds * 1e9 / n if n else 0.0

    def count(key):
        return tracer.counts.get((op_id, key), 0)

    aggregate = [n for n in totals if n.startswith("aggregate.")]
    agg_calls = sum(calls(n) for n in aggregate)
    pairs, wall = count("pairs"), total("cli.main")
    return {
        "engine.score_s": total("engine.score"),
        "engine.score_ns_per_pair": per_call_ns(total("engine.score"), pairs),
        "engine.score_self_s": own("engine.score"),
        "engine.validate_s": total("engine.validate"),
        "engine.filter_s": total("engine.filter"),
        "engine.pairs": pairs,
        "engine.candidates": count("candidates"),
        "engine.candidate_ratio": count("candidates") / pairs if pairs else 0.0,
        "quant.calls": calls("quant.proximity"),
        "quant.ns_per_call": per_call_ns(total("quant.proximity"), calls("quant.proximity")),
        "quant.zero_frac": count("quant.zero") / calls("quant.proximity") if calls("quant.proximity") else 0.0,
        "aggregate.calls": agg_calls,
        "aggregate.ns_per_call": per_call_ns(sum(total(n) for n in aggregate), agg_calls),
        "aggregate.zero_frac": count("zero_pairs") / pairs if pairs else 0.0,
        "fuzzy.possibility_calls": calls("fuzzy.possibility"),
        "fuzzy.possibility_ns_per_call": per_call_ns(total("fuzzy.possibility"), calls("fuzzy.possibility")),
        "fuzzy.nominal_calls": calls("fuzzy.nominal"),
        "fuzzy.nominal_ns_per_call": per_call_ns(total("fuzzy.nominal"), calls("fuzzy.nominal")),
        "dataio.read_s": total("dataio.read"),
        "config.load_s": total("config.load"),
        "dataio.write_pairs_csv_s": total("dataio.write_pairs_csv"),
        "dataio.write_json_s": total("dataio.write_json"),
        "simulate.run_s": total("simulate.run"),
        "simulate.run_self_s": own("simulate.run"),
        "simulate.emit_s": total("simulate.emit"),
        "simulate.to_payload_s": total("simulate.to_payload"),
        "simulate.render_svg_s": total("simulate.render_svg"),
        "svgplot.render_s": total("svgplot.render"),
        "cli.print_s": total("cli.print"),
        "trace.unaccounted_frac": own("cli.main") / wall,
    }


def alloc_peak_mb(runner: Runner) -> float:
    """tracemalloc peak inside the engine's pairwise scoring, in its own operation."""
    import iomatch.cli
    import iomatch.simulate

    from spans import installed

    peaks = []

    def measured(fn):
        def call(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return call

    owners = (iomatch.cli, iomatch.simulate)
    with installed([(m, "pairwise_breakdowns", measured(m.pairwise_breakdowns)) for m in owners]):
        runner.op()
    return max(peaks, default=0) / 2**20


def traced_run(runner: Runner, seconds: float, spans_path: Path) -> dict:
    from spans import Tracer, tracing

    untraced = runner.repeat(seconds / 2)
    tracer = Tracer()
    untraced_main = runner.main
    traced_main = tracer.wrap("cli.main", untraced_main)

    def main(argv):
        tracer.op_id += 1
        return traced_main(argv)

    runner.main = main
    with tracing(tracer):
        traced = runner.repeat(seconds / 2)
    runner.main = untraced_main
    per_op = [layer_metrics(tracer, op_id) for op_id in range(1, tracer.op_id + 1)]
    values = {name: _median([m[name] for m in per_op]) for name in per_op[0]}
    untraced_wall = runner.mean_over_scenes(untraced, 1)
    values["trace.wall_s"] = runner.mean_over_scenes(traced, 1)
    values["trace.overhead_frac"] = runner.mean_over_scenes(traced, 2) / runner.mean_over_scenes(untraced, 2) - 1.0
    values["engine.score_alloc_mb"] = alloc_peak_mb(runner)
    spans_path.parent.mkdir(exist_ok=True)
    written = tracer.write(spans_path)
    print(f"untraced wall_s: {untraced_wall:.6f} s over {len(untraced)} operations; traced: {len(traced)}")
    for name, (unit, _) in PER_LAYER.items():
        print(f"{name}: {values[name]:.6g} {unit}")
    print(f"spans: {written} written to {spans_path.relative_to(ROOT)}")
    return {name: {"value": values[name], "unit": unit} for name, (unit, listed) in PER_LAYER.items() if listed}


def import_program() -> str | None:
    """Put the checkout's ``src/`` first on the import path and import the CLI;
    returns an error message when the checkout holds no program."""
    if not (SRC / "iomatch" / "cli.py").is_file():
        return f"no iomatch sources under {SRC}; run from a source checkout"
    sys.path.insert(0, str(SRC))
    import iomatch.cli

    if Path(iomatch.cli.__file__).resolve().parent != (SRC / "iomatch").resolve():
        return f"imported iomatch from {iomatch.cli.__file__}, not {SRC}"
    return None


def recorded_digest(workload, seed: int) -> dict | None:
    """The digest recorded for this workload, size and seed, if any."""
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(workload.name, {})
    if entry.get("objects_per_side") != workload.n:
        return None
    return entry["seeds"].get(str(seed))


def scene_seeds(seed: int) -> list[int]:
    """The seeds of the scenes one run rotates over; runs never share one."""
    return [seed * SCENES + j for j in range(SCENES)]


def run(workload, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; prints the metrics by name and returns the result."""
    seeds = scene_seeds(seed)
    recorded = {s: recorded_digest(workload, s) for s in seeds}
    print("provenance: " + json.dumps(provenance(workload, seed, seconds, trace) | {"scene_seeds": seeds}))
    print(f"reference: independent rescoring; recorded digests for {sum(1 for r in recorded.values() if r)} of {len(seeds)} scenes")
    setup = [] if trace else measure_setup()

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=work_root))
    try:
        scenes = [
            Scene(workload, workload.make(workload, s, work / f"in{s}"), s, work / f"out{s}", recorded[s])
            for s in seeds
        ]
        runner = Runner(scenes)
        runner.op()  # warm-up: checked, not timed
        if trace:
            spans_path = ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.csv.gz"
            metrics = traced_run(runner, seconds, spans_path)
        else:
            metrics = timed_run(runner, seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    error = import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
