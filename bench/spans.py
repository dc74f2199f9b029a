"""Span recorder for the traced run, attached from outside the library.

``Tracer.patched()`` replaces the module attribute each caller actually looks
up (``transversality.branch_table``, ``spectral.advance``, ``cli.classify``,
...) with a wrapper that records a span (name, start, end, parent) and the
layer's work counters, and restores the originals on exit.  Spans stay in
memory; a layer's self time is its spans' duration minus the part covered by
their child spans.  Nothing under ``src/`` knows about tracing.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

import numpy as np

# Layer spans: name -> the (semiflow module, attribute) bindings that callers use.
# A span named "m.x" yields the per-layer self time "m.x_s".
LAYER_SPANS = {
    "ceiling.eval": [("ceiling", "eval")],
    "ceiling.classify": [("cli", "classify"), ("genericity", "classify")],
    "dynamics.branch_table": [("transversality", "branch_table")],
    "dynamics.inverse_branches": [("cli", "inverse_branches")],
    "dynamics.advance": [("spectral", "advance"), ("mixing", "advance")],
    "transversality.m_of_t": [("transversality", "m_of_t")],
    "transversality.n_of_t": [("transversality", "n_of_t")],
    "spectral.build_ulam": [("spectral", "build_ulam")],
    "spectral.eigs": [("spectral", "spectrum")],
    "spectral.correlation": [("spectral", "correlation")],
    "mixing.sample_psi": [("mixing", "sample_psi")],
    "mixing.antiderivative": [("mixing", "cobounding_potential")],
    "mixing.residual": [("mixing", "cocycle_residual")],
    "mixing.eigenfunction": [("mixing", "eigenfunction_check")],
    "aniso.norm": [("aniso", "aniso_norm")],
    "aniso.partition": [("aniso", "partition_defect")],
    "aniso.embedding": [("aniso", "embedding_check")],
    "genericity.slope_clusters": [("genericity", "slope_clusters")],
    "genericity.probe": [("genericity", "bad_set_probe")],
    "canon.emit": [("cli", "canonical_json")],
}

# Every per-layer metric of a traced run, with its unit.  A layer the
# workload never calls reports 0.
PER_LAYER_UNITS = dict(
    {f"{name}_s": "s" for name in LAYER_SPANS},
    **{
        "ceiling.eval_calls": "count", "ceiling.eval_points": "count",
        "ceiling.classify_calls": "count",
        "dynamics.branch_table_calls": "count", "dynamics.words_scanned": "count",
        "dynamics.branches": "count", "dynamics.branch_yield": "ratio",
        "dynamics.advance_points": "count", "dynamics.roof_crossings": "count",
        "transversality.grid_points": "count",
        "spectral.ulam_dim": "count", "spectral.ulam_nnz": "count",
        "spectral.ulam_matrix_mb": "MiB", "spectral.column_sum_defect": "ratio",
        "spectral.correlation_crossings": "count",
        "mixing.tail_over_residual": "ratio",
        "aniso.partition_defect": "ratio",
        "genericity.cluster_words": "count", "genericity.probe_samples": "count",
        "cli.parse_s": "s",
        "canon.report_bytes": "bytes",
        "parallel.speedup_2w": "ratio", "parallel.bytes_identical_2w": "count",
        "trace.overhead": "ratio", "trace.coverage": "ratio",
    })

# Counters kept as maxima rather than sums.
MAX_COUNTERS = {"spectral.ulam_dim", "spectral.ulam_matrix_mb",
                "spectral.column_sum_defect", "mixing.tail_over_residual",
                "aniso.partition_defect"}


def _count_eval(add, parent, args, result):
    add("ceiling.eval_calls", 1)
    add("ceiling.eval_points", int(np.size(args[1])))


def _count_classify(add, parent, args, result):
    add("ceiling.classify_calls", 1)


def _count_branch_table(add, parent, args, result):
    # the level scan visits every word of each level 1..n, where n is the
    # deepest level holding a branch: the scan stops once no word is open
    ell = result.ell
    deepest = max(result.levels, default=0)
    add("dynamics.branch_table_calls", 1)
    add("dynamics.words_scanned", sum(ell ** n for n in range(1, deepest + 1)))
    add("dynamics.branches", result.count)


def _count_advance(add, parent, args, result):
    crossings = int(np.sum(result[2]))
    add("dynamics.advance_points", int(np.size(result[2])))
    add("dynamics.roof_crossings", crossings)
    if parent == "spectral.correlation":
        add("spectral.correlation_crossings", crossings)


def _count_grid(add, parent, args, result):
    add("transversality.grid_points", int(args[2]) * int(args[3]))


def _count_ulam(add, parent, args, result):
    m = result.matrix
    add("spectral.ulam_dim", m.shape[0])
    add("spectral.ulam_nnz", int(np.count_nonzero(m)))
    add("spectral.ulam_matrix_mb", m.nbytes / 2 ** 20)
    add("spectral.column_sum_defect", float(np.max(np.abs(m.sum(axis=0) - 1.0))))


def _count_residual(add, parent, args, result):
    if result > 0:
        add("mixing.tail_over_residual", args[0].tail_bound / result)


def _count_partition(add, parent, args, result):
    add("aniso.partition_defect", result)


def _count_clusters(add, parent, args, result):
    add("genericity.cluster_words", args[0].ell ** int(args[1]))


def _count_probe(add, parent, args, result):
    add("genericity.probe_samples", int(args[2]))


COUNTERS = {
    "ceiling.eval": _count_eval,
    "ceiling.classify": _count_classify,
    "dynamics.branch_table": _count_branch_table,
    "dynamics.advance": _count_advance,
    "transversality.m_of_t": _count_grid,
    "transversality.n_of_t": _count_grid,
    "spectral.build_ulam": _count_ulam,
    "mixing.residual": _count_residual,
    "aniso.partition": _count_partition,
    "genericity.slope_clusters": _count_clusters,
    "genericity.probe": _count_probe,
}


class Tracer:
    """Spans and counters of one traced batch."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []

    def add(self, name: str, value) -> None:
        if name in MAX_COUNTERS:
            self.counters[name] = max(self.counters.get(name, value), value)
        else:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call, and the layer's counters."""
        count = COUNTERS.get(name)
        spans, stack, add = self.spans, self._stack, self.add
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(add, spans[parent][0] if parent >= 0 else None, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route every layer binding through a recording wrapper."""
        saved = []
        try:
            for name, bindings in LAYER_SPANS.items():
                for module_name, attr in bindings:
                    module = importlib.import_module(f"semiflow.{module_name}")
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start - child)
        return totals

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
