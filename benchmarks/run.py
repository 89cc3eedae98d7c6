#!/usr/bin/env python3
"""Benchmark of brokenlines, end to end and layer by layer.

    python3 benchmarks/run.py --workload growth --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Each workload runs in fresh single-threaded interpreters started from the
root of a source checkout, importing the package from ``src/``.  With
``--trace 0`` the last line of output is one JSON object holding
``setup_s`` (launch to end of warm-up, median of several launches),
``cells_per_s`` (median over the run's rounds) and ``peak_rss_mb``; with
``--trace 1`` it holds the per-layer self times and counts instead.  Both
timed metrics are scaled to a nominal host speed by ``reference.py``, timed
after every launch's warm-up and every stretch of a round.  Every round's outputs are checked;
see README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("growth", "scan", "fields", "verify")
# Launches that only set up, besides the measuring one; setup_s is the
# median over all of them.
EXTRA_SETUPS = 4
# Shortest stretch of a round between two timings of the reference kernel,
# which takes about 0.08 s.
STRETCH_S = 0.5
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 120


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- child side


def _round(work, scale=None):
    """Run one round; return its outputs (exceptions in place), its wall
    time and, given a ``reference.Scale``, its scaled time.

    The round is cut into stretches of whole operations that last at least
    STRETCH_S, the last one ending with the round, and the scale times the
    reference kernel after each, so that slow drift of the host within a
    long round is followed too.
    """
    gc.collect()
    outputs = []
    wall = scaled = stretch = 0.0
    for index, op in enumerate(work.ops):
        start = perf_counter()
        try:
            outputs.append(op())
        except Exception as err:  # counted as a failed operation
            traceback.print_exc(file=sys.stderr)
            outputs.append(err)
        stretch += perf_counter() - start
        if scale is not None and (stretch >= STRETCH_S or index == len(work.ops) - 1):
            scaled += scale(stretch)
            wall += stretch
            stretch = 0.0
    return outputs, wall + stretch, scaled


def _child(args) -> int:
    start = perf_counter()
    import brokenlines

    import_s = perf_counter() - start
    src = (ROOT / "src").resolve()
    if Path(brokenlines.__file__).resolve().parent.parent != src:
        print(f"brokenlines imported from {brokenlines.__file__}, not {src}", file=sys.stderr)
        return 1
    import reference
    import tracing
    import workloads

    tracer = tracing.Tracer()
    make = workloads.WORKLOADS[args.workload]
    warm = make(args.seed, tracer, small=True)
    warm_outputs = _round(warm)[0]
    print("READY", flush=True)
    scale = reference.Scale()
    print(f"REF {scale.last!r}", flush=True)
    if args.child == "setup":
        return 0

    problems = warm.check(warm_outputs)
    work = make(args.seed, tracer, small=False)
    traced_rates, plain_rates, times = [], [], []
    attempted = failed = 0
    first = None
    rounds_needed = 2 if args.trace else 1
    begin = perf_counter()
    while True:
        traced = args.trace == 1 and len(times) % 2 == 1
        if traced:
            tracer.install()
        outputs, elapsed, scaled = _round(work, scale)
        tracer.remove()
        attempted += len(outputs)
        failed += sum(isinstance(o, Exception) for o in outputs)
        (traced_rates if traced else plain_rates).append(work.cells / scaled)
        times.append(elapsed)
        if first is None:
            problems += work.check(outputs)
            first = work.fingerprint(outputs)
        elif work.fingerprint(outputs) != first:
            problems.append(f"round {len(times)} differs from round 1")
        del outputs
        spent = perf_counter() - begin
        if len(times) >= rounds_needed and spent + statistics.median(times) > args.seconds:
            break

    for problem in problems:
        print(f"CHECK FAILED [{args.workload}] {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(times),
        "round_s": times,
        "cells_per_s": statistics.median(plain_rates),
        "raw_cells_per_s": statistics.median(work.cells / t for t in times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        traced_rounds = len(traced_rates)
        layers = {"setup.import_s": (import_s, "s")}
        for name, total in tracer.self_times().items():
            layers[f"{name}_s"] = (total / traced_rounds, "s")
        for name in tracing.COUNT_NAMES:
            layers[name] = (tracer.counts.get(name, 0) / traced_rounds, "count")
        overhead = statistics.median(plain_rates) / statistics.median(traced_rates) - 1.0
        layers["trace.overhead_pct"] = (100.0 * overhead, "%")
        result["per_layer"] = layers
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


# --------------------------------------------------------------- parent side


def _launch(args, workload: str, mode: str):
    """Start one child; return the wall seconds until its warm-up returned,
    the seconds of the reference kernel it timed right after, and its result."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", mode, "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        BROKENLINES_THREADS="1",
    )
    timeout = SETUP_TIMEOUT_S if mode == "setup" else args.seconds + RUN_TIMEOUT_S
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        ref = proc.stdout.readline().split()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or ref[:1] != ["REF"] or code != 0:
        raise RuntimeError(f"{workload} {mode} child exited with code {code}")
    result = json.loads(rest.strip().splitlines()[-1]) if mode == "measure" else None
    return setup_s, float(ref[1]), result


def _measure(args, workload: str) -> dict:
    import reference  # not at module level: a child times its own numpy import

    setups, scaled = [], []
    for mode in ["setup"] * (0 if args.trace else EXTRA_SETUPS) + ["measure"]:
        setup_s, ref_s, child = _launch(args, workload, mode)
        setups.append(setup_s)
        scaled.append(setup_s * reference.NOMINAL_S / ref_s)
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in child["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(scaled), "unit": "s"},
            "cells_per_s": {"value": child["cells_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    summary = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items())
    print(f"# {workload}: {child['rounds']} rounds; {summary}; unscaled: setup_s "
          f"{statistics.median(setups):.6g} s, cells_per_s {child['raw_cells_per_s']:.6g} 1/s",
          flush=True)
    return {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if not (ROOT / "src" / "brokenlines" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'brokenlines'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [(name, _measure(args, name)) for name in names]
    except (RuntimeError, ValueError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for name, result in results:
        if len(results) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
