"""Spans around calls into the program's modules, recorded from outside.

Each public function is replaced at the module attribute where its caller
looks it up, so no file of the program changes.  A span holds its name,
start and end (``perf_counter_ns``), the span open when it began, and the
operation id.  Spans stay in memory, in flat arrays, until ``write``.
"""

from __future__ import annotations

import builtins
import contextlib
import gzip
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op_id = 0
        self._open = [NO_PARENT]

    def add(self, key: str, n: int = 1) -> None:
        """Count ``n`` events of ``key`` in the current operation."""
        self.counts[(self.op_id, key)] += n

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``observe(tracer, result)`` runs
        after the span closes, so counting is not timed as the callee's work."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, start, end, parent, op, open_ = self.name, self.start, self.end, self.parent, self.op, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(open_[-1])
            op.append(self.op_id)
            end.append(0)
            open_.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def totals(self, op_id: int) -> dict[str, tuple[int, float, float]]:
        """Per span name in one operation: (calls, total seconds, self seconds).

        Self time is a span's duration minus the time its child spans cover;
        calls are synchronous, so children never overlap.
        """
        ops = np.frombuffer(self.op, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int64)
        has_parent = parent != NO_PARENT
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered
        mask = ops == op_id
        out = {}
        for nid in np.unique(names[mask]):
            sel = mask & (names == nid)
            out[self.names[nid]] = (int(sel.sum()), float(dur[sel].sum()) * 1e-9, float(own[sel].sum()) * 1e-9)
        return out

    def write(self, path) -> int:
        """Write every span as gzipped CSV; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            names = self.names
            for i, (o, p, n, s, e) in enumerate(zip(self.op, self.parent, self.name, self.start, self.end)):
                fh.write(f"{o},{i},{p},{names[n]},{s},{e}\n")
        return len(self.start)


def _count_quant_zero(tracer: Tracer, result) -> None:
    if result == 0.0:
        tracer.add("quant.zero")


def _count_pairs(tracer: Tracer, result) -> None:
    tracer.add("pairs", len(result))
    tracer.add("zero_pairs", sum(1 for b in result if b.aggregate_proximity == 0.0))


def _count_candidates(tracer: Tracer, result) -> None:
    tracer.add("candidates", len(result))


def targets() -> list[tuple[object, str, str, Callable | None]]:
    """(owner, attribute, span name, observer) for every traced boundary."""
    import iomatch.aggregate
    import iomatch.cli
    import iomatch.engine
    import iomatch.fuzzy
    import iomatch.quant
    import iomatch.simulate

    cli, sim = iomatch.cli, iomatch.simulate
    return [
        (cli, "print", "cli.print", None),
        (cli, "load_config", "config.load", None),
        (cli, "read_objects_csv", "dataio.read", None),
        (cli, "pairwise_breakdowns", "engine.score", _count_pairs),
        (cli, "candidates", "engine.filter", _count_candidates),
        (cli, "write_breakdowns_csv", "dataio.write_pairs_csv", None),
        (cli, "breakdown_record", "dataio.breakdown_record", None),
        (cli, "write_json", "dataio.write_json", None),
        (cli, "run_experiment", "simulate.run", None),
        (cli, "emit_report_files", "simulate.emit", None),
        (iomatch.engine, "run_violations", "engine.validate", None),
        (iomatch.quant, "quantitative_proximity", "quant.proximity", _count_quant_zero),
        (iomatch.fuzzy, "possibility", "fuzzy.possibility", None),
        (iomatch.fuzzy, "nominal_proximity", "fuzzy.nominal", None),
        *(
            (iomatch.aggregate, fn, f"aggregate.{fn}", None)
            for fn in (
                "additive_distance",
                "count_normalized_distance",
                "weighted_additive_distance",
                "two_class_weighted_distance",
                "multiplicative_proximity",
            )
        ),
        (sim, "pairwise_breakdowns", "engine.score", _count_pairs),
        (sim, "candidates", "engine.filter", _count_candidates),
        (sim, "write_objects_csv", "dataio.write_objects_csv", None),
        (sim, "write_breakdowns_csv", "dataio.write_pairs_csv", None),
        (sim, "write_json", "dataio.write_json", None),
        (sim, "render_scene_svg", "simulate.render_svg", None),
        (sim, "render_match_svg", "svgplot.render", None),
        (sim.ExperimentReport, "to_payload", "simulate.to_payload", None),
    ]


_MISSING = object()


@contextlib.contextmanager
def installed(replacements: list[tuple[object, str, Callable]]):
    """Set each owner's attribute to its replacement; restore on exit."""
    saved = [(owner, attr, owner.__dict__.get(attr, _MISSING)) for owner, attr, _ in replacements]
    try:
        for owner, attr, fn in replacements:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def tracing(tracer: Tracer):
    """Install a span wrapper at every traced boundary."""
    replacements = []
    for owner, attr, name, observe in targets():
        original = getattr(owner, attr) if hasattr(owner, attr) else getattr(builtins, attr)
        replacements.append((owner, attr, tracer.wrap(name, original, observe)))
    return installed(replacements)
