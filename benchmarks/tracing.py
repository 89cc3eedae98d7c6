"""Spans and counts around the package's public calls, for the traced run.

The package is timed from outside.  ``Tracer.install`` replaces the module
attributes through which the package and the benchmark reach each timed
call with a wrapper that records a span, and ``Tracer.remove`` puts the
originals back, so untraced rounds run the unmodified code.  Spans are kept
in memory as ``(name, start, end, parent)`` and written out at the end; a
layer's self time is its spans' duration minus their children's.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import brokenlines.duality as duality
import brokenlines.experiments as experiments
import brokenlines.flow as flow
import brokenlines.lines as lines
import brokenlines.lpp as lpp


def _add(key, amount):
    def count(counts, args, result):
        counts[key] += amount(args, result)

    return count


_ONE = _add("experiments.replicas", lambda args, result: 1)
_CHECK = _add("checks.count", lambda args, result: 1)
_SAMPLES = _add("duality.samples", lambda args, result: result.nsamples)
_SITES = _add("flow.sites", lambda args, result: len(args[0].sites))


def _lines(counts, args, result):
    counts["lines.count"] += len(result)
    counts["lines.trace_sites"] += sum(len(trace.sites) for trace in result.traces())


# (owner, attribute, span name, count).  An owner is the namespace the caller
# looks the name up in: experiments calls passage_value through its own
# module globals, decompose calls brick_diagram through lines, and so on.
PATCHES = (
    (experiments, "uniform_grid", "streams.uniform_grid", None),
    (duality.DistSpec, "from_uniform", "duality.from_uniform", None),
    (experiments, "passage_value", "lpp.passage_value",
     _add("lpp.cells", lambda args, result: args[0].size)),
    (experiments, "replica_passage", "experiments.replica_passage", _ONE),
    (experiments, "concentration_scan", "experiments.concentration_scan", None),
    (experiments, "lln_experiment", "experiments.lln_experiment", None),
    (duality, "evolve_chain", "duality.evolve_chain", None),
    (duality, "field_from_birth", "flow.field_from_birth", _SITES),
    (flow, "field_from_birth", "flow.field_from_birth", _SITES),
    (flow, "check_conservation", "flow.check_conservation", None),
    (flow, "total_crossing_flow", "flow.total_crossing_flow", None),
    (lines, "brick_diagram", "lines.brick_diagram", None),
    (lines, "decompose", "lines.decompose", _lines),
    (lines, "compose", "lines.compose", None),
    (lpp, "optimal_path_backward", "lpp.optimal_path_backward", None),
    (duality, "reversal_invariance_test", "duality.reversal_invariance_test", _SAMPLES),
    (duality, "burke_exit_test", "duality.burke_exit_test", _SAMPLES),
    (duality, "consistency_test", "duality.consistency_test", _SAMPLES),
    (duality, "kernel_duality_residual", "duality.kernel_duality_residual", None),
    (duality, "ks_check", "checks.ks_check", _CHECK),
    (duality, "mean_z_check", "checks.mean_z_check", _CHECK),
    (duality, "correlation_check", "checks.correlation_check", _CHECK),
    (duality, "chi2_homogeneity_check", "checks.chi2_homogeneity_check", _CHECK),
)

# Spans the benchmark opens around its own steps, not around one call.
OWN_SPANS = ("lattice.geometry", "flow.field_io", "lines.csv_io")

SPAN_NAMES = tuple(dict.fromkeys([p[2] for p in PATCHES] + list(OWN_SPANS)))
COUNT_NAMES = (
    "lpp.cells",
    "experiments.replicas",
    "flow.sites",
    "lines.count",
    "lines.trace_sites",
    "checks.count",
    "duality.samples",
)


class Tracer:
    """Records spans while installed; does nothing otherwise."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, count in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; a no-op unless installed."""
        if not self._saved:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus children's."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out = {name: 0.0 for name in SPAN_NAMES}
        for (name, start, end, _), inner in zip(self.spans, children):
            out[name] += (end - start) - inner
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )
