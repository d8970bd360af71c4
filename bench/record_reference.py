"""Record the output digest of every workload for a range of seeds.

    python3 bench/record_reference.py --seeds 36

Each (workload, seed) runs once; its output must pass the independent
rescoring before its digest (candidate count, sha256 of the sorted candidate
ids, and for ``simulate`` the summary counts) is kept.  ``bench/run.py``
then requires the same digest for those scene seeds (a run with ``--seed s``
uses scene seeds ``3s .. 3s+2``).  Recall and precision per
seed are printed, to size the bounds of those metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, Runner, Scene, import_program
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True, help="record seeds 0 .. SEEDS-1")
    args = parser.parse_args(argv)
    error = import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    reference = {}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".bench_work"))
    try:
        for workload in WORKLOADS.values():
            seeds, recall, precision = {}, [], []
            for seed in range(args.seeds):
                out = work / f"{workload.name}-{seed}"
                scene = Scene(workload, workload.make(workload, seed, out / "in"), seed, out / "out", None)
                runner = Runner([scene])
                runner.op()
                shutil.rmtree(out)
                if runner.failed:
                    print(f"{workload.name} seed {seed}: output fails the check", file=sys.stderr)
                    return 1
                seeds[str(seed)] = scene.verdict.digest
                recall.append(scene.verdict.recall)
                precision.append(scene.verdict.precision)
            reference[workload.name] = {"objects_per_side": workload.n, "seeds": seeds}
            for name, values in (("recall", recall), ("precision", precision)):
                q1, median, q3 = statistics.quantiles(values, n=4)
                print(f"{workload.name} {name}: median {median:.4f}, quartile spread {(q3 - q1) / median:.4f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
