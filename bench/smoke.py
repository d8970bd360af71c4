"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Runs every workload with 12 objects a side, untraced and traced, and checks
that every metric is printed by name with its unit, that the result line
carries exactly the metrics ``BENCHMARK.json`` lists, and that the output
check rejects a perturbed reference.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

TINY = 12
SEED = 5
SECONDS = 0.2


def _run(workload, trace: int) -> tuple[dict, str]:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.run(workload, SEED, SECONDS, trace)
    return result, printed.getvalue()


def check_metrics(failures: list[str]) -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    every = {0: dict(run.END_TO_END), 1: {name: unit for name, (unit, _) in run.PER_LAYER.items()}}
    for workload in WORKLOADS.values():
        tiny = dataclasses.replace(workload, n=TINY)
        for trace in (0, 1):
            result, printed = _run(tiny, trace)
            where = f"{workload.name} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != listed[trace]:
                failures.append(f"{where}: result metrics {got} != BENCHMARK.json {listed[trace]}")
            lines = printed.splitlines()
            for name, unit in every[trace].items():
                if not any(line.startswith(f"{name}: ") and f" {unit}" in line for line in lines):
                    failures.append(f"{where}: {name} not printed with unit {unit}")
            if trace == 0 and not any(line.startswith("failed_frac: ") for line in lines):
                failures.append(f"{where}: failed_frac not printed")


def _failures_after(workload, perturb) -> tuple[int, int]:
    """Failed operations before and after ``perturb(scene)`` breaks the
    reference of a scene whose first output passed."""
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.ROOT / ".bench_work"))
    try:
        scene = run.Scene(workload, workload.make(workload, SEED, work / "in"), SEED, work / "out", None)
        runner = run.Runner([scene])
        runner.op()
        before = runner.failed
        perturb(scene)
        with contextlib.redirect_stderr(io.StringIO()):
            runner.op()
        return before, runner.failed - before
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (run.ROOT / ".bench_work").rmdir()


def check_rejects_perturbed_reference(failures: list[str]) -> None:
    sparse = dataclasses.replace(WORKLOADS["match-sparse"], n=TINY)
    simulate = dataclasses.replace(WORKLOADS["simulate-n150"], n=TINY)

    # Each perturbation clears the verified output, so the next operation
    # is checked in full against the perturbed reference.
    def nudge_proximity(scene):
        expected = dict(scene.inputs.expected)
        expected[next(iter(expected))] += 1e-9
        scene.inputs, scene.verified = dataclasses.replace(scene.inputs, expected=expected), None

    def drop_candidate(scene):
        expected = dict(scene.inputs.expected)
        expected.pop(next(iter(expected)))
        scene.inputs, scene.verified = dataclasses.replace(scene.inputs, expected=expected), None

    def change_ids(scene):
        scene.recorded = dict(scene.verdict.digest, candidate_ids_sha256="0" * 64)
        scene.verified = None

    def miscount_summary(scene):
        summary = scene.verdict.digest["summary"]
        summary = dict(summary, candidate_count=summary["candidate_count"] + 1)
        scene.recorded = dict(scene.verdict.digest, summary=summary)
        scene.verified = None

    def change_bytes(scene):
        name = scene.inputs.outputs[0]
        scene.verified = dict(scene.verified, **{name: "0" * 64})

    cases = [
        (sparse, nudge_proximity),
        (sparse, drop_candidate),
        (sparse, change_ids),
        (simulate, miscount_summary),
        (simulate, change_bytes),
    ]
    for workload, perturb in cases:
        before, after = _failures_after(workload, perturb)
        if before:
            failures.append(f"{workload.name}: the unperturbed reference was rejected")
        if after != 1:
            failures.append(f"{workload.name}: {perturb.__name__} was not rejected")


def main() -> int:
    error = run.import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    failures: list[str] = []
    check_metrics(failures)
    check_rejects_perturbed_reference(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
