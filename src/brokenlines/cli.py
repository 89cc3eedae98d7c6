"""Command-line front end.

Exit codes: 0 on success, 1 on validation or input errors, 2 when a
statistical or numeric check ran and failed, so CI can gate on the checks.
Every run echoes its resolved configuration (seed included) as one JSON
line before any output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments, lpp
from .duality import (
    burke_exit_test,
    classify_triple,
    consistency_test,
    evolve_chain,
    kernel_duality_residual,
    parse_dist,
    parse_triple,
    reversal_invariance_test,
)
from .flow import REL_TOL, field_from_dict, field_to_dict, tolerance
from .lattice import RectDomain, as_integer
from .lines import (
    brick_diagram,
    compose,
    decomposition_from_csv_rows,
    decomposition_to_csv_rows,
)
from .render import render_field_svg

OK, USAGE_ERROR, CHECK_FAILED = 0, 1, 2


def _echo_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    resolved["command"] = args.func.__name__.lstrip("_")
    print(json.dumps(_finite(resolved), default=str, allow_nan=False))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(path).write_text(text)


def _finite(value):
    """``value`` with each non-finite float in it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _report_json(payload) -> str:
    """A report as strict JSON: a non-finite value, such as the infinite z of two
    constant samples with different means, is written as null."""
    return json.dumps(_finite(payload), indent=2, allow_nan=False)


def _load_field(path: str):
    with open(path) as fh:
        return field_from_dict(json.load(fh))


def _write_report(args, report, rows: list, csv_path: str | None) -> int:
    """The report as JSON, or as the CSV ``rows`` under ``--format csv``;
    the rows go to ``csv_path`` as well when one is given."""
    if args.format == "csv":
        _write_text(args.out, "\n".join(",".join(map(str, row)) for row in rows))
    else:
        _write_text(args.out, _report_json(report.to_dict()))
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return OK


def _report_exit(report, out: str | None) -> int:
    _write_text(out, _report_json(report.to_dict()))
    return OK if report.passed else CHECK_FAILED


def _sample(args) -> int:
    domain = RectDomain(args.n, args.m)
    field = evolve_chain(domain, args.lam, args.seed)
    _write_text(args.out, json.dumps(field_to_dict(field), indent=2))
    return OK


def _decompose(args) -> int:
    diagram = brick_diagram(_load_field(args.field))
    rows = decomposition_to_csv_rows(diagram.decomposition())
    if args.diagram_json:
        Path(args.diagram_json).write_text(json.dumps(diagram.to_dict(), indent=2))
    if args.format == "json":
        header, *entries = rows
        payload = [dict(zip(header, entry)) for entry in entries]
        _write_text(args.out, json.dumps({"lines": payload}, indent=2))
    elif args.out and args.out != "-":
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)
    return OK


def _compose(args) -> int:
    with open(args.lines, newline="") as fh:
        dec = decomposition_from_csv_rows(list(csv.reader(fh)))
    field = compose(RectDomain(args.n, args.m), dec)
    _write_text(args.out, json.dumps(field_to_dict(field), indent=2))
    return OK


def _lpp(args) -> int:
    xi = lpp.births_from_matrix(np.loadtxt(args.xi, delimiter=",", ndmin=2))
    result = lpp.lpp_dp(xi)
    payload = result.to_dict()
    passed = True
    if args.check_flow:
        payload["flow_residual"] = residual = lpp.flow_identity_residual(xi, result.value)
        passed = residual <= tolerance(result.value, "float")
    _write_text(args.out, _report_json(payload))
    return OK if passed else CHECK_FAILED


def _path(args) -> int:
    field = _load_field(args.field)
    path = lpp.optimal_path_backward(field)
    _write_text(args.out, json.dumps({"path": [list(y) for y in path.sites]}, indent=2))
    return OK


def _duality_check(args) -> int:
    if args.kernel_lams:
        lams = [float(tok) for tok in args.kernel_lams.split(",")]
        rows = []
        worst = 0.0
        for lam in lams:
            residual = kernel_duality_residual(lam, args.kmax)
            worst = max(worst, residual)
            rows.append({"lam": lam, "kmax": args.kmax, "residual": residual})
        passed = worst <= args.tolerance
        _write_text(args.out, _report_json({"kernel_duality": rows, "pass": passed}))
        return OK if passed else CHECK_FAILED
    triple = parse_triple(args.triple)
    verdict = classify_triple(triple)
    report = reversal_invariance_test(triple, nsamples=args.nsamples, seed=args.seed)
    payload = report.to_dict()
    payload["classification"] = {"self_dual": verdict.self_dual, "reason": verdict.reason}
    _write_text(args.out, _report_json(payload))
    return OK if report.passed else CHECK_FAILED


def _burke(args) -> int:
    triple = parse_triple(args.triple)
    report = burke_exit_test(
        RectDomain(args.n, args.m), triple, nsamples=args.nsamples, seed=args.seed
    )
    return _report_exit(report, args.out)


def _consistency(args) -> int:
    report = consistency_test(
        args.n,
        args.m,
        args.lam,
        nsamples=args.nsamples,
        seed=args.seed,
        n_inner=args.sub_n,
        m_inner=args.sub_m,
        inner_lam=args.mismatch_lam,
    )
    return _report_exit(report, args.out)


def _read_manifest(args) -> None:
    """Put the lln manifest's values into ``args``, so that the echo shows what runs."""
    manifest = json.loads(Path(args.manifest).read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"a manifest must be a JSON object, not {type(manifest).__name__}")
    missing = [key for key in ("n", "beta", "dist", "replicas") if key not in manifest]
    if missing:
        raise ValueError(f"a manifest needs the key {missing[0]!r}")
    args.n = as_integer(manifest["n"], "manifest n")
    beta = manifest["beta"]
    if type(beta) not in (int, float):
        raise ValueError(f"manifest beta must be a number, not {beta!r}")
    try:
        args.beta = float(beta)
    except OverflowError:  # an integer beyond float range
        raise ValueError(f"manifest beta must be a finite number, not {beta}") from None
    args.dist = str(manifest["dist"])  # a token only when it is one already
    args.replicas = as_integer(manifest["replicas"], "manifest replicas")
    args.seed = as_integer(manifest.get("seed", args.seed), "manifest seed")


def _lln(args) -> int:
    config = experiments.LlnConfig(
        n=args.n,
        beta=args.beta,
        dist=parse_dist(args.dist),
        replicas=args.replicas,
        seed=args.seed,
    )
    report = experiments.lln_experiment(config)
    rows = [("replica", "scaled_value"), *enumerate(report.samples)]
    return _write_report(args, report, rows, args.samples_csv)


def _concentration(args) -> int:
    ns = [int(tok) for tok in args.ns.split(",")]
    report = experiments.concentration_scan(
        ns,
        args.delta,
        parse_dist(args.dist),
        args.beta,
        args.replicas,
        seed=args.seed,
    )
    rows = [("n", "exceedance_rate"), *zip(report.ns, report.rates)]
    return _write_report(args, report, rows, args.rates_csv)


def _render(args) -> int:
    field = _load_field(args.field)
    _write_text(args.out, render_field_svg(field, what=args.what))
    return OK


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brokenlines",
        description="Broken-line flow fields, decompositions, and last passage percolation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=True, out=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("sample", help="sample the geometric chain on a rectangle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    common(p)
    p.set_defaults(func=_sample)

    p = sub.add_parser("decompose", help="field JSON to ordered weighted lines CSV")
    p.add_argument("--field", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--diagram-json", default=None,
                   help="also dump the brick diagram (heights and breakpoints)")
    common(p, seed=False)
    p.set_defaults(func=_decompose)

    p = sub.add_parser("compose", help="lines CSV back to the unique field JSON")
    p.add_argument("--lines", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p, seed=False)
    p.set_defaults(func=_compose)

    p = sub.add_parser("lpp", help="passage value and optimal path of a birth matrix CSV")
    p.add_argument("--xi", required=True)
    p.add_argument(
        "--check-flow",
        action="store_true",
        help="also verify the passage value equals the total crossing flow",
    )
    common(p, seed=False)
    p.set_defaults(func=_lpp)

    p = sub.add_parser("path", help="backward optimal path of a zero-boundary field")
    p.add_argument("--field", required=True)
    common(p, seed=False)
    p.set_defaults(func=_path)

    p = sub.add_parser("duality-check", help="triple classification and invariance test")
    p.add_argument("--triple", help="e.g. exp:1,exp:2,exp:3")
    p.add_argument("--n", dest="nsamples", type=int, default=100_000)
    p.add_argument("--kernel-lams", help="comma list: run the kernel duality check instead")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--tolerance", type=_tolerance, default=REL_TOL,
                   help="absolute bound on each kernel residual, a quantity of scale 1")
    common(p)
    p.set_defaults(func=_duality_check)

    p = sub.add_parser("burke", help="exit-law test for a self-dual triple")
    p.add_argument("--triple", required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--samples", dest="nsamples", type=int, default=10_000)
    common(p)
    p.set_defaults(func=_burke)

    p = sub.add_parser("consistency", help="restricted-law test on nested rectangles")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--sub-n", type=int, default=None)
    p.add_argument("--sub-m", type=int, default=None)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--mismatch-lam", type=float, default=None)
    p.add_argument("--samples", dest="nsamples", type=int, default=10_000)
    common(p)
    p.set_defaults(func=_consistency)

    p = sub.add_parser("lln", help="scaled passage value vs the growth constant")
    p.add_argument("--manifest", help="JSON manifest with n, beta, dist, replicas")
    p.add_argument("--dist", default="exp:1")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--n", type=int, default=250)
    p.add_argument("--replicas", type=int, default=20)
    p.add_argument("--samples-csv", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=_lln)

    p = sub.add_parser("concentration", help="deviation exceedance rates over sizes")
    p.add_argument("--ns", default="100,200,400")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--dist", default="exp:1")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--replicas", type=int, default=500)
    p.add_argument("--rates-csv", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=_concentration)

    p = sub.add_parser("render", help="SVG of a field's lines and brick diagram")
    p.add_argument("--field", required=True)
    p.add_argument("--what", choices=("lines", "bricks", "both"), default="both")
    common(p, seed=False)
    p.set_defaults(func=_render)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else OK
    if args.func is _duality_check and not (args.triple or args.kernel_lams):
        print("duality-check needs --triple or --kernel-lams", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.func is _lln and args.manifest:
            _read_manifest(args)
        _echo_config(args)
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
