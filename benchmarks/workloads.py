"""The four workloads: generated inputs, one round of timed calls, checks.

A round is a fixed list of operations; every round of a run repeats the
same inputs, which depend only on the seed.  ``check`` verifies a round's
outputs against ``oracles`` and against properties the method must have;
``fingerprint`` lets later rounds be compared with the checked first one.
Every call into the package goes through a module attribute, so that the
traced run can wrap it (see ``tracing.PATCHES``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from functools import partial

import numpy as np

import brokenlines.duality as duality
import brokenlines.experiments as experiments
import brokenlines.flow as flow
import brokenlines.lattice as lattice
import brokenlines.lines as lines
import brokenlines.lpp as lpp

import oracles

# The statistical reports run at a level where a true hypothesis is rejected
# on about one seed in a million, so no seed makes a self-dual report fail by
# chance; the controls are rejected by many orders of magnitude more.
SIGNIFICANCE = 1e-6
REL = 1e-9


def _close(a, b) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class Growth:
    """LLN experiments: large i.i.d. matrices, memory-bound numpy."""

    name = "growth"
    DISTS = ("exp:1", "geom:0.5")

    def __init__(self, seed: int, tracer, small: bool = False) -> None:
        sizes = ((20, 3), (40, 2)) if small else ((1000, 8), (2000, 2))
        self.stats = not small  # finite-size statistics hold at full size only
        self.configs = [
            experiments.LlnConfig(n, 1.0, duality.parse_dist(tok), replicas, seed=seed)
            for tok in self.DISTS
            for n, replicas in sizes
        ]
        self.cells = sum(c.n * c.m * c.replicas for c in self.configs)
        self.ops = [partial(self._run, c) for c in self.configs]

    @staticmethod
    def _run(config):
        return experiments.lln_experiment(config)

    def fingerprint(self, outputs) -> str:
        return _digest([getattr(r, "samples", repr(r)) for r in outputs])

    def check(self, outputs) -> list[str]:
        problems = []
        pooled: dict[str, list[float]] = {}
        for config, report in zip(self.configs, outputs):
            if isinstance(report, Exception):
                continue
            dist = config.dist
            if dist.kind == duality.EXPONENTIAL:
                kind, param = "exp", dist.rate
                births = partial(oracles.exp_births, rate=param)
            else:
                kind, param = "geom", dist.lam
                births = partial(oracles.geom_births, lam=param)
            label = f"{dist.token()} n={config.n}"
            bases = [oracles.stream_key(config.seed, r) for r in range(config.replicas)]
            expected = oracles.passage_values(bases, config.n, config.m, births) / config.n
            for r, (got, want) in enumerate(zip(report.samples, expected)):
                exact = kind == "geom"
                if (got != want) if exact else not _close(got, want):
                    problems.append(f"{label} replica {r}: G/n {got!r} != oracle {want!r}")
            target = oracles.growth_constant(kind, param, config.beta)
            if not _close(report.target, target):
                problems.append(f"{label}: target {report.target} != {target}")
            pooled.setdefault(kind, []).extend(report.samples)
            if self.stats and kind == "exp" and config.n == 1000 and report.mean < 3.80:
                problems.append(f"{label}: scaled mean {report.mean} below 3.80")
        if self.stats:
            # E[G_n] / n < constant by superadditivity, for every n.
            for kind, param in (("exp", 1.0), ("geom", 0.5)):
                mean = float(np.mean(pooled.get(kind, [0.0])))
                if not mean < oracles.growth_constant(kind, param, 1.0):
                    problems.append(f"{kind}: pooled scaled mean {mean} not below the constant")
        return problems


class Scan:
    """Concentration scan: thousands of small matrices, per-replica overhead."""

    name = "scan"
    DELTA = 0.2

    def __init__(self, seed: int, tracer, small: bool = False) -> None:
        self.seed = seed
        self.stats = not small
        self.ns = (10, 20, 40) if small else (100, 200, 400)
        self.replicas = 10 if small else 100
        self.dist = duality.DistSpec.exponential(1.0)
        self.cells = self.replicas * sum(n * n for n in self.ns)
        self.ops = [self._run]

    def _run(self):
        return experiments.concentration_scan(
            list(self.ns), self.DELTA, self.dist, 1.0, self.replicas, seed=self.seed
        )

    def fingerprint(self, outputs) -> str:
        return _digest([getattr(r, "exceed_counts", repr(r)) for r in outputs])

    def check(self, outputs) -> list[str]:
        report = outputs[0]
        if isinstance(report, Exception):
            return []
        problems = []
        target = oracles.growth_constant("exp", 1.0, 1.0)
        births = partial(oracles.exp_births, rate=1.0)
        for idx, n in enumerate(self.ns):
            scan_key = oracles.stream_key(self.seed, idx, n)
            bases = [oracles.stream_key(scan_key, r) for r in range(self.replicas)]
            values = oracles.passage_values(bases, n, n, births)
            exceed = int(np.sum(np.abs(values / n - target) > self.DELTA))
            if report.exceed_counts[idx] != exceed:
                problems.append(f"n={n}: {report.exceed_counts[idx]} exceedances, oracle {exceed}")
            if report.rates[idx] != exceed / self.replicas:
                problems.append(f"n={n}: rate {report.rates[idx]} != {exceed}/{self.replicas}")
        rates = report.rates
        if self.stats:
            if any(a < b for a, b in zip(rates, rates[1:])):
                problems.append(f"exceedance rates {rates} increase with n")
            if not rates[0] > 0:
                problems.append(f"exceedance rate at n={self.ns[0]} is zero")
        return problems


@dataclass
class RoundTrip:
    """What one field's pipeline produced, kept for the checks."""

    n: int
    field: object
    bad_sites: list
    strips: int
    decomposition: object
    rebuilt: object
    json_text: str
    reloaded: object
    csv_text: str
    reparsed: object
    crossing: object
    path: object
    births: np.ndarray | None


class Fields:
    """Dict-per-edge fields: sweep, brick diagram, decompose, compose, I/O."""

    name = "fields"
    LAM = 0.5

    def __init__(self, seed: int, tracer, small: bool = False) -> None:
        self.seed = seed
        self.tracer = tracer
        int_sizes, float_sizes = ((6,), (5,)) if small else ((128,), (48,))
        # float births-only inputs: i.i.d. Exp(1) per cell, keyed by lattice site
        self.births = {}
        for n in float_sizes:
            matrix = np.random.default_rng([seed, n]).exponential(1.0, size=(n, n))
            sites = {(i + j, j - i): float(matrix[i, j]) for i in range(n) for j in range(n)}
            self.births[n] = (matrix, sites)
        self.cells = sum(n * n for n in int_sizes + float_sizes)
        self.ops = [partial(self._int_field, n) for n in int_sizes]
        self.ops += [partial(self._float_field, n) for n in float_sizes]

    def _domain(self, n: int):
        # one CLI call pays for building the geometry of a fresh domain
        with self.tracer.span("lattice.geometry"):
            domain = lattice.RectDomain(n, n)
            for part in ("sites", "site_set", "edges", "edge_set", "closure", "closure_set"):
                getattr(domain, part)
            for side in ("southwest_side", "northwest_side", "northeast_side", "southeast_side"):
                getattr(domain, side)
        return domain

    def _int_field(self, n: int) -> RoundTrip:
        domain = self._domain(n)
        field = duality.evolve_chain(domain, self.LAM, self.seed)
        return self._round_trip(n, domain, field, None)

    def _float_field(self, n: int) -> RoundTrip:
        domain = self._domain(n)
        matrix, births = self.births[n]
        field = flow.field_from_birth(domain, births=flow.BirthField(domain, births), mode="float")
        return self._round_trip(n, domain, field, matrix)

    def _round_trip(self, n, domain, field, births) -> RoundTrip:
        bad_sites = flow.check_conservation(field)
        strips = lines.brick_diagram(field).strip_count
        decomposition = lines.decompose(field)
        rebuilt = lines.compose(domain, decomposition, mode=field.mode)
        with self.tracer.span("flow.field_io"):
            json_text = json.dumps(flow.field_to_dict(field), indent=2)
            reloaded = flow.field_from_dict(json.loads(json_text))
        with self.tracer.span("lines.csv_io"):
            buf = io.StringIO()
            csv.writer(buf).writerows(lines.decomposition_to_csv_rows(decomposition))
            csv_text = buf.getvalue()
            reparsed = lines.decomposition_from_csv_rows(list(csv.reader(io.StringIO(csv_text))))
        crossing = flow.total_crossing_flow(field)
        path = lpp.optimal_path_backward(field) if births is not None else None
        return RoundTrip(
            n, field, bad_sites, strips, decomposition, rebuilt, json_text,
            reloaded, csv_text, reparsed, crossing, path, births,
        )

    def fingerprint(self, outputs) -> str:
        return _digest([
            (o.json_text, o.csv_text, o.crossing, o.path) if isinstance(o, RoundTrip) else repr(o)
            for o in outputs
        ])

    def check(self, outputs) -> list[str]:
        problems = []
        for out in outputs:
            if isinstance(out, RoundTrip):
                problems += [f"{out.field.mode} {out.n}x{out.n}: {p}" for p in self._check(out)]
        return problems

    @staticmethod
    def _check(out: RoundTrip) -> list[str]:
        field, n = out.field, out.n
        exact = field.mode == "int"
        scale = max(1.0, float(field.max_mass))
        tol = 0 if exact else REL * scale
        problems = []
        gap = oracles.conservation_gap(field.mass, n, n)
        if gap > tol:
            problems.append(f"conservation off by {gap}")
        if out.bad_sites:
            problems.append(f"check_conservation flags {len(out.bad_sites)} sites")
        if out.strips != len(out.decomposition):
            problems.append(f"{out.strips} strips but {len(out.decomposition)} lines")
        weights = out.decomposition.weights()
        if not all(w > 0 for w in weights):
            problems.append("a line has nonpositive weight")
        if exact and not all(isinstance(w, int) for w in weights):
            problems.append("an int-mode line has a non-integer weight")
        if exact:
            if out.rebuilt.mass != field.mass:
                problems.append("compose(decompose(f)) differs from f")
        else:
            worst = max(abs(out.rebuilt.mass[e] - v) for e, v in field.mass.items())
            if worst > tol:
                problems.append(f"compose(decompose(f)) off by {worst}")
        if out.reloaded.mode != field.mode or out.reloaded.mass != field.mass:
            problems.append("field JSON round trip is not exact")
        if out.reparsed.entries != out.decomposition.entries:
            problems.append("decomposition CSV round trip is not exact")
        total = sum(weights)
        if (total != out.crossing) if exact else not _close(total, out.crossing):
            problems.append(f"line weight {total} != crossing flow {out.crossing}")
        if out.births is not None:
            best = oracles.matrix_passage_value(out.births)
            if not _close(out.crossing, best):
                problems.append(f"crossing flow {out.crossing} != passage value {best}")
            sites = out.path.sites
            if sites[0] != (0, 0) or sites[-1] != (2 * n - 2, 0):
                problems.append(f"path runs {sites[0]} -> {sites[-1]}")
            walked = sum(out.births[(t - x) // 2, (t + x) // 2] for t, x in sites)
            if not _close(walked, best):
                problems.append(f"births along the path {walked} != passage value {best}")
        return problems


class Verify:
    """Monte Carlo reports: few sites, 10^4..10^5 samples, then statistics."""

    name = "verify"
    KERNEL_LAMS = (0.1, 0.3, 0.5, 0.7, 0.9)

    def __init__(self, seed: int, tracer, small: bool = False) -> None:
        self.stats = not small
        invariance, exits = (10_000, 1_000) if small else (100_000, 10_000)
        kmax = 2 if small else 8
        sig = SIGNIFICANCE
        triple = duality.parse_triple
        # (operation, swept sites per sample, whether the report must pass)
        plan = []
        for tok, expect in (
            ("exp:1,exp:2,exp:3", True),
            ("geom:0.4,geom:0.5,geom:0.2", True),
            ("unif:0:1,unif:0:1,unif:0:1", False),
        ):
            op = partial(self._reversal, triple(tok), invariance, seed, sig)
            plan.append((op, invariance, expect))
        for tok in ("exp:1,exp:1,exp:2", "geom:0.5,geom:0.5,geom:0.25"):
            for n in (3, 6):
                op = partial(self._burke, lattice.RectDomain(n, n), triple(tok), exits, seed, sig)
                plan.append((op, exits * n * n, True))
        swept = 3 * 3 + 2 * 3  # outer and inner rectangle of _consistency
        for inner_lam, expect in ((None, True), (0.6, False)):
            op = partial(self._consistency, exits, seed, inner_lam, sig)
            plan.append((op, exits * swept, expect))
        for lam in self.KERNEL_LAMS:
            plan.append((partial(self._kernel, lam, kmax), (kmax + 1) ** 4, None))
        self.ops = [op for op, _, _ in plan]
        self.cells = sum(cells for _, cells, _ in plan)
        self.expect = [expect for _, _, expect in plan]

    @staticmethod
    def _reversal(triple, nsamples, seed, sig):
        return duality.reversal_invariance_test(triple, nsamples, seed=seed, significance=sig)

    @staticmethod
    def _burke(domain, triple, nsamples, seed, sig):
        return duality.burke_exit_test(domain, triple, nsamples, seed=seed, significance=sig)

    @staticmethod
    def _consistency(nsamples, seed, inner_lam, sig):
        return duality.consistency_test(
            3, 3, 0.5, nsamples, seed=seed, n_inner=2, inner_lam=inner_lam, significance=sig
        )

    @staticmethod
    def _kernel(lam, kmax):
        return duality.kernel_duality_residual(lam, kmax)

    def fingerprint(self, outputs) -> str:
        return _digest([
            o if isinstance(o, float) else repr(getattr(o, "checks", o)) for o in outputs
        ])

    def check(self, outputs) -> list[str]:
        problems = []
        for out, expect in zip(outputs, self.expect):
            if isinstance(out, Exception):
                continue
            if expect is None:
                if not out <= 1e-12:
                    problems.append(f"kernel duality residual {out} above 1e-12")
            elif self.stats and out.passed != expect:
                verdict = "fails" if expect else "passes"
                problems.append(f"{out.test} {out.params} {verdict} at level {out.significance}")
        return problems


WORKLOADS = {w.name: w for w in (Growth, Scan, Fields, Verify)}
