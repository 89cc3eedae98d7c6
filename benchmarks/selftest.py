#!/usr/bin/env python3
"""Quick self-test of the benchmark's own checks (a few seconds).

    python3 benchmarks/selftest.py

Runs one small round of every workload and requires its checks to pass,
then hands each check a wrong answer and requires it to be caught: a
passage value moved past its tolerance, a wrong exceedance count, a field
with one edge mass changed, and a negative control that passes.  Also runs
one traced round and requires the tracer to restore what it wrapped.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import _round  # noqa: E402

SEED = 7
failures = 0


def expect(label: str, ok: bool, detail: str = "") -> None:
    global failures
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'}  {label}{': ' + detail if detail and not ok else ''}")


def small_round(name: str, tracer=None):
    work = workloads.WORKLOADS[name](SEED, tracer or tracing.Tracer(), small=True)
    if name == "verify":
        # 10^3..10^4 samples already decide every report; the finite-size
        # statistics of growth and scan need the full sizes
        work.stats = True
    outputs = _round(work)[0]
    errors = [o for o in outputs if isinstance(o, Exception)]
    problems = work.check(outputs)
    expect(f"{name}: small round runs and passes its checks", not errors and not problems,
           "; ".join(map(repr, errors)) + "; ".join(problems))
    return work, outputs


def caught(label: str, work, outputs) -> None:
    problems = work.check(outputs)
    expect(f"caught: {label}", bool(problems), "the check accepted a wrong answer")


def main() -> int:
    work, outputs = small_round("growth")
    report = outputs[0]  # exp:1, tolerance 1e-9 relative
    moved = (report.samples[0] * (1 + 1e-8),) + report.samples[1:]
    caught("passage value moved by 1e-8 relative", work,
           [dataclasses.replace(report, samples=moved)] + outputs[1:])
    report = outputs[2]  # geom:0.5, exact
    moved = (report.samples[0] + 1.0 / report.config.n,) + report.samples[1:]
    caught("geometric passage value off by one", work,
           outputs[:2] + [dataclasses.replace(report, samples=moved)] + outputs[3:])

    work, outputs = small_round("scan")
    report = outputs[0]
    counts = (report.exceed_counts[0] + 1,) + report.exceed_counts[1:]
    caught("exceedance count off by one", work,
           [dataclasses.replace(report, exceed_counts=counts)])

    work, outputs = small_round("fields")
    for index in range(len(outputs)):
        trip = outputs[index]
        field = trip.field
        edge = next(e for e in field.domain.edges if field.domain.contains(e.base))
        mass = dict(field.mass)
        mass[edge] += 1
        changed = dataclasses.replace(trip, field=dataclasses.replace(field, mass=mass))
        caught(f"{field.mode} field with one edge mass changed", work,
               outputs[:index] + [changed] + outputs[index + 1:])

    work, outputs = small_round("verify")
    control = work.expect.index(False)
    passing = work.expect.index(True)
    caught("a negative control that passes", work,
           outputs[:control] + [outputs[passing]] + outputs[control + 1:])
    kernel = work.expect.index(None)
    caught("kernel residual above 1e-12", work,
           outputs[:kernel] + [1e-9] + outputs[kernel + 1:])

    tracer = tracing.Tracer()
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.PATCHES]
    tracer.install()
    small_round("fields", tracer)
    tracer.remove()
    restored = [getattr(owner, attr) for owner, attr, _, _ in tracing.PATCHES]
    expect("tracer restores every wrapped attribute",
           all(a is b for a, b in zip(originals, restored)))
    times = tracer.self_times()
    expect("traced round records positive self times",
           times["lines.decompose"] > 0 and times["lattice.geometry"] > 0)
    expect("traced round counts the swept sites", tracer.counts["flow.sites"] == 6 * 6 + 5 * 5)

    print("self-test", "passed" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
