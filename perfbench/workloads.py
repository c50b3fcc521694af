"""The four workloads: fixed lists of public-API calls ("ops") with the
check each op's output must pass.

An op receives a :class:`Pass`, which hands it either the plain objects
(untraced pass) or their traced twins (traced pass), records its output
digest, and collects failed checks.  Work that only feeds per-module
numbers, such as re-running a layer decomposition to time the greedy
packing on its own, is registered with :meth:`Pass.after` and runs
outside the op's span, in traced passes only.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import lipcert as lc
from lipcert.cli.main import main as cli_main

from tracing import TracedPartition, Tracer, traced_function


# Short ops are repeated within a pass: several samples are far
# steadier on a shared host than one.
REPEAT_BUDGET_S = 0.05
MAX_REPEATS = 10


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[["Pass"], None]


class CheckFailed(Exception):
    """An op's output failed its check."""


class Pass:
    """State of one pass over a workload's op list."""

    def __init__(
        self, tracer: Optional[Tracer], workdir: str, reference: Callable[[], float]
    ) -> None:
        self.tracer = tracer
        # Times a fixed loop with no lipcert code in it: the host's speed.
        self.reference = reference
        self.workdir = workdir
        self.digests: dict[int, str] = {}
        self.sigmas: list[int] = []
        self.certified_runs = 0
        # Fastest time of each op in this pass.
        self.latencies: dict[int, float] = {}
        # Per op, (time, reference-loop time) of every attempt, the
        # reference loop timed right after the attempt.
        self.samples: dict[int, list[tuple[float, float]]] = {}
        # Seconds each op took in this pass, repeats and reference included.
        self.cost: dict[int, float] = {}
        self.failures: list[str] = []
        self.context: dict[str, object] = {}
        self.op_id = -1
        self.attempts = 0
        self._after: list[Callable[[], None]] = []
        self._fns: dict[str, lc.TestFunction] = {}

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def fn(self, label: str) -> lc.TestFunction:
        if label not in self._fns:
            plain = lc.get_function(label)
            self._fns[label] = (
                traced_function(plain, self.tracer) if self.traced else plain
            )
        return self._fns[label]

    def partition(self, label: str) -> Optional[lc.BisectionPartition]:
        """None in untraced passes, so the tree search builds its own."""
        if not self.traced:
            return None
        plain, _ = lc.bisection_setup(lc.get_function(label))
        return TracedPartition.wrap(plain, self.tracer)

    def span(self, name: str):
        return self.tracer.span(name) if self.traced else contextlib.nullcontext()

    def add(self, name: str, amount: int) -> None:
        if self.traced:
            self.tracer.add(name, amount)

    def after(self, probe: Callable[[], None]) -> None:
        if self.traced:
            self._after.append(probe)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            raise CheckFailed(what)

    def digest(self, *parts) -> None:
        h = hashlib.sha256()
        for part in parts:
            if isinstance(part, np.ndarray):
                part = np.ascontiguousarray(part).tobytes()
            elif isinstance(part, str):
                part = part.encode()
            h.update(part)
        self.digests[self.op_id] = h.hexdigest()

    def trace_digest(self, trace: lc.RunTrace) -> None:
        arrays = [trace.queries, trace.values, trace.rec_points, trace.rec_values]
        if trace.certificates is not None:
            arrays.append(trace.certificates)
        self.digest(*arrays)

    def certified(self, trace: lc.RunTrace, known_max: float, eps: float) -> None:
        """Validity checks on a certified trace, and its sigma."""
        with self.span("trace.validity"):
            valid = lc.certificate_validity(trace, known_max).ok
            consistent = lc.recommendations_consistent(trace)
        self.add("trace.validity_queries", len(trace))
        self.expect(valid, "certificate overstates the accuracy")
        self.expect(consistent, "recommendations inconsistent")
        self.certified_runs += 1
        sigma = lc.sigma_from_trace(trace, eps)
        if math.isfinite(sigma):
            self.sigmas.append(int(sigma))

    def plain(self, trace: lc.RunTrace) -> None:
        with self.span("trace.validity"):
            consistent = lc.recommendations_consistent(trace)
        self.add("trace.validity_queries", len(trace))
        self.expect(consistent, "recommendations inconsistent")

    def _attempt(self, op: Op) -> float:
        start = perf_counter()
        try:
            op.run(self)
        except Exception as exc:  # any failure counts; the pass goes on
            self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        self.attempts += 1
        return perf_counter() - start

    def _sample(self, latency: float) -> float:
        self.samples.setdefault(self.op_id, []).append((latency, self.reference()))
        return latency

    def run(self, op_id: int, op: Op) -> None:
        """Run one op and record its latency.

        Untraced passes repeat a short op until it has used
        ``REPEAT_BUDGET_S``, at most ``MAX_REPEATS`` times.  Every
        repeat must give the first run's digest.  The reference loop
        runs after every attempt, outside the op's span.
        """
        self.op_id = op_id
        if self.traced:
            self.tracer.op_id = op_id
            self.tracer.enter("op")
            latency = self._attempt(op)
            self.tracer.exit(keep=True)
            self.latencies[op_id] = self._sample(latency)
            probes, self._after = self._after, []
            for probe in probes:
                try:
                    probe()
                except Exception as exc:
                    self.failures.append(f"{op.name} probe: {type(exc).__name__}: {exc}")
            return
        failures = len(self.failures)
        best = spent = self._sample(self._attempt(op))
        digest, sigmas, certified = self.digests.get(op_id), len(self.sigmas), self.certified_runs
        repeats = 1
        while (
            len(self.failures) == failures
            and spent + best <= REPEAT_BUDGET_S
            and repeats < MAX_REPEATS
        ):
            latency = self._sample(self._attempt(op))
            del self.sigmas[sigmas:]
            self.certified_runs = certified
            if self.digests.get(op_id) != digest:
                self.failures.append(f"{op.name}: a repeat gave another output")
            best = min(best, latency)
            spent += latency
            repeats += 1
        self.latencies[op_id] = best

    def combined_digest(self) -> str:
        h = hashlib.sha256()
        for op_id in sorted(self.digests):
            h.update(f"{op_id}:{self.digests[op_id]}\n".encode())
        return h.hexdigest()


def ladder(fn: lc.TestFunction, scales) -> list[tuple[int, float]]:
    eps0 = fn.lip_bound * lc.diameter(fn.domain, fn.norm)
    return [(j, eps0 * 0.5**j) for j in scales]


# --- tree: certified and plain tree search -------------------------------

TREE_BUDGET = {1: 10_000, 2: 30_000}
# Plain runs use the sweep's budget.  Both known repeated-query defects
# already show there (tent-d1 from float collapse at depth, cone-d2 from
# clipped representatives).
NCDOO_BUDGET = 4000
DEFECT_LABELS = ("tent-d1", "cone-d2")


def _doo_stats(p: Pass, label: str, trace: lc.RunTrace, plain_run: bool) -> None:
    p.add("doo.queries", len(trace))

    def probe() -> None:
        count = len(np.unique(trace.queries, axis=0))
        p.add("doo.distinct", count)
        if plain_run and label in DEFECT_LABELS:
            p.add(f"doo.distinct.{label}", count)
            p.add(f"doo.queries.{label}", len(trace))

    p.after(probe)


def _cdoo(label: str, eps: float, budget: int, p: Pass) -> None:
    fn = p.fn(label)
    with p.span("doo.run"):
        trace = lc.cdoo_run(fn, eps, budget, partition=p.partition(label))
    p.trace_digest(trace)
    p.certified(trace, fn.known_max, eps)
    _doo_stats(p, label, trace, plain_run=False)


def _ncdoo(label: str, budget: int, p: Pass) -> None:
    fn = p.fn(label)
    with p.span("doo.run"):
        trace = lc.ncdoo_run(fn, budget, partition=p.partition(label))
    p.trace_digest(trace)
    p.plain(trace)
    p.expect(len(trace) == budget, f"ncdoo stopped at {len(trace)} of {budget}")
    _doo_stats(p, label, trace, plain_run=True)


def tree_ops(seed: int) -> list[Op]:
    ops = []
    for fn in lc.registry():
        budget = TREE_BUDGET[fn.dim]
        for j, eps in ladder(fn, range(1, 9)):
            ops.append(Op(f"cdoo {fn.label} 2^-{j}", partial(_cdoo, fn.label, eps, budget)))
        ops.append(Op(f"ncdoo {fn.label}", partial(_ncdoo, fn.label, NCDOO_BUDGET)))
    return ops


# --- sawtooth: exact 1-D envelope and candidate-set envelope -------------

PS1D_BUDGET = 10_000
PSGRID_BUDGET = 20_000
# Past 2^-7 the disc needs more than the 40k-candidate cap, so the run
# cannot certify and spends its whole budget on the capped candidate set.
CONE_BUDGET = 300


def _ps1d(label: str, eps: float, p: Pass) -> None:
    fn = p.fn(label)
    with p.span("ps1d.run"):
        trace = lc.ps_run_1d(fn, eps, PS1D_BUDGET)
    p.add("ps1d.queries", len(trace))
    p.trace_digest(trace)
    p.certified(trace, fn.known_max, eps)


def _psgrid(label: str, eps: float, budget: int, p: Pass) -> None:
    fn = p.fn(label)
    candidates = None
    if p.traced:
        with p.span("psgrid.candidates_for"):
            candidates = lc.candidates_for(fn.domain, fn.lip_bound, eps, fn.norm)
    with p.span("psgrid.run"):
        trace = lc.ps_run_grid(fn, eps, budget, candidates=candidates)
    if candidates is not None:
        p.add("psgrid.queries", len(trace))
        p.add("psgrid.runs", 1)
        p.add("psgrid.candidates", len(candidates))
        p.add("psgrid.query_candidates", len(trace) * len(candidates))
        p.add("psgrid.dim_query_candidates", len(trace) * len(candidates) * fn.dim)
    p.trace_digest(trace)
    p.certified(trace, fn.known_max, eps)


def envelope_probe(tracer: Tracer, points: int = 2048, repeats: int = 5) -> float:
    """Median seconds of one exact envelope maximisation over ``points``
    observations of the flat function, evenly spaced."""
    env = lc.Envelope1D(0.0, 1.0, 1.0)
    for x in (np.arange(points) + 0.5) / points:
        env.insert(float(x), 0.0)
    times = []
    for _ in range(repeats):
        with tracer.span("envelope1d.max_and_argmax"):
            start = perf_counter()
            env.max_and_argmax()
            times.append(perf_counter() - start)
    return float(np.median(times))


def sawtooth_ops(seed: int) -> list[Op]:
    ops = []
    for label, deepest in (("constant-d1", 12), ("multibump-d1", 14)):
        for j, eps in ladder(lc.get_function(label), range(1, deepest + 1)):
            ops.append(Op(f"ps1d {label} 2^-{j}", partial(_ps1d, label, eps)))
    for label, deepest, budget in (
        ("constant-d2", 6, PSGRID_BUDGET),
        ("multibump-d2", 6, PSGRID_BUDGET),
        ("cone-d2", 8, CONE_BUDGET),
    ):
        for j, eps in ladder(lc.get_function(label), range(1, deepest + 1)):
            ops.append(Op(f"psgrid {label} 2^-{j}", partial(_psgrid, label, eps, budget)))
    return ops


# --- estimate-audit: packing estimates, integrals, verifiers, audits -----

MC_SAMPLES = 200_000
LEMMA_TRIALS = 500
VERIFY_DEPTH = 8
AUDIT_EPS = 1.0 / 16.0
# audit_certified_run's default budget for its certified run.
AUDIT_BUDGET = 200_000


def _estimate(label: str, eps: float, p: Pass) -> None:
    fn = p.fn(label)
    with p.span("layers.estimate_sc"):
        report = lc.estimate_sc(fn, eps)
    p.digest(lc.report_to_json(report))
    p.expect(lc.sandwich_check(report).ok, "sandwich check failed")

    def probe() -> None:
        # The same decomposition and per-layer packings estimate_sc
        # makes, called one by one so each layer is timed alone.
        with p.span("layers.decomposition"):
            dec = lc.layer_decomposition(fn, eps)
        p.add("layers.grid_points", len(dec.points))
        counts = []
        for label_k in range(dec.scale.m_eps + 1):
            pts = dec.points[dec.labels == label_k]
            if len(pts) == 0:
                counts.append(0)
                continue
            radius = dec.scale.accuracy_for_class(label_k) / dec.lip
            with p.span("packing.greedy"):
                counts.append(len(lc.greedy_packing(pts, radius, dec.norm)))
            p.add("packing.points", len(pts))
        p.expect(tuple(counts) == report.packing_counts, "layer packings disagree")

    p.after(probe)


def _integral_mc(label: str, eps: float, seed: int, p: Pass) -> None:
    fn = p.fn(label)
    with p.span("layers.integral_mc"):
        value, stderr = lc.integral_estimate(
            fn, eps, method="montecarlo", mc_samples=MC_SAMPLES, seed=seed
        )
    p.digest(np.array([value, stderr]))
    p.expect(math.isfinite(value) and value > 0, f"integral {value}")
    p.expect(math.isfinite(stderr) and stderr >= 0, f"stderr {stderr}")


def _lemmas(seed: int, p: Pass) -> None:
    with p.span("packing.lemma_trials"):
        verdict = lc.lemma_consistency_trials(LEMMA_TRIALS, seed)
    p.add("packing.lemma_trials", verdict.trials_run)
    p.digest(repr((verdict.ok, verdict.trials_run, verdict.counterexample)))
    p.expect(verdict.ok and verdict.trials_run == LEMMA_TRIALS, "lemma trial failed")


def _verify(label: Optional[str], seed: int, p: Pass) -> None:
    if label is None:
        partition = lc.BisectionPartition(lc.Box(np.zeros(2), np.ones(2)))
    else:
        partition, _ = lc.bisection_setup(lc.get_function(label))
    with p.span("partition.verify"):
        check = lc.verify_assumptions(partition, VERIFY_DEPTH, seed=seed)
    p.add("partition.verify_pairs", check.pairs_checked)
    p.digest(repr(check))
    if label is None:
        p.expect(check.ok, f"unit square violates {check.violation}")
    else:
        # Known defect: the ball-restricted partition's separation
        # constant does not hold.  Reported, not counted as a failure.
        p.context[f"verify.{label}"] = "ok" if check.ok else check.violation


def _audit(label: str, p: Pass) -> None:
    fn = p.fn(label)
    # The certified run the audits rewind: the same search, budget and
    # target.  Its trace gives the op's sigma and certified count; the
    # audits themselves only report the rewound query count.
    with p.span("doo.run"):
        trace = lc.cdoo_run(fn, AUDIT_EPS, AUDIT_BUDGET, partition=p.partition(label))
    p.certified(trace, fn.known_max, AUDIT_EPS)
    _doo_stats(p, label, trace, plain_run=False)
    sigma = lc.sigma_from_trace(trace, AUDIT_EPS)
    before_points = p.tracer.counts["functions.batch_points"] if p.traced else 0
    with p.span("adversary.audit"):
        before = lc.audit_certified_run(fn, AUDIT_EPS)
        at_stop = lc.audit_certified_run(fn, AUDIT_EPS, n_override=before.n + 1)
    if p.traced:
        p.add(
            "adversary.points_scanned",
            p.tracer.counts["functions.batch_points"] - before_points,
        )
    p.digest(
        trace.queries, trace.values, lc.audit_to_json(before), lc.audit_to_json(at_stop)
    )
    p.expect(before.n + 1 == sigma, f"audit at query {before.n}, certified at {sigma}")
    for report in (before, at_stop):
        if report.case_fired != "inconclusive":
            p.expect(report.coincidence is True, "perturbed replay diverged")
    p.expect(before.case_fired != "inconclusive", "no witness one query early")
    p.expect(
        at_stop.case_fired == "inconclusive" or at_stop.eps_tilde < AUDIT_EPS,
        "witness at the certified stop",
    )


def estimate_audit_ops(seed: int) -> list[Op]:
    ops = []
    # The 2^-7 grids of cone-d2 and multibump-d2 hold about 1M points.
    # constant-d2 stops at 2^-6: at 2^-7 its single layer is the whole
    # grid and one call takes longer than a pass may.
    for label, deepest in (("constant-d2", 6), ("cone-d2", 7), ("multibump-d2", 7)):
        fn = lc.get_function(label)
        for j, eps in ladder(fn, range(1, deepest + 1)):
            ops.append(Op(f"estimate_sc {label} 2^-{j}", partial(_estimate, label, eps)))
        (_, eps), = ladder(fn, [6])
        ops.append(Op(f"integral mc {label}", partial(_integral_mc, label, eps, seed)))
    ops.append(Op("lemma trials", partial(_lemmas, seed)))
    ops.append(Op("verify unit square", partial(_verify, None, seed)))
    ops.append(Op("verify cone-d2", partial(_verify, "cone-d2", seed)))
    for label in ("halftent-d1", "multibump-d2"):
        ops.append(Op(f"audit {label}", partial(_audit, label)))
    return ops


# --- sweep: the command line, in process ---------------------------------

# A budget of 4000 makes the sweep alone 12 s, too long for the
# several passes a run needs on a shared host.
SWEEP_BUDGET = 1000
SWEEP_HALVINGS = 4
SWEEP_ROWS = len(lc.LABELS) * SWEEP_HALVINGS


def sweep_config(workdir: str, seed: int) -> str:
    path = os.path.join(workdir, "sweep.cfg")
    with open(path, "w") as handle:
        handle.write(
            f"eps-count = {SWEEP_HALVINGS}\n"
            f"budget = {SWEEP_BUDGET}\n"
            f"seed = {seed}\n"
            f"out = {os.path.join(workdir, 'sweep.csv')}\n"
        )
    return path


def _cli(p: Pass, span: str, argv: list[str]) -> None:
    out = io.StringIO()
    with p.span(span), contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli_main(argv)
    p.expect(code == 0, f"exit {code}: {out.getvalue().strip()}")


def _sweep(config: str, p: Pass) -> None:
    _cli(p, "cli.sweep", ["sweep", "--config", config])
    stem = os.path.join(p.workdir, "sweep")
    paths = [stem + ".csv"] + [
        f"{stem}.{name}.dat"
        for name in ("sigma-vs-bound", "sigma-vs-zeta", "sc-vs-integral")
    ]
    blobs = []
    for path in paths:
        with open(path, "rb") as handle:
            blobs.append(handle.read())
    p.digest(*blobs)
    p.add("sweep.bytes_written", sum(len(b) for b in blobs))
    rows = list(csv.DictReader(io.StringIO(blobs[0].decode())))
    p.add("sweep.rows", len(rows))
    p.expect(len(rows) == SWEEP_ROWS, f"{len(rows)} rows")
    for row in rows:
        p.expect(not row["verdicts"].startswith("error:"), f"row {row['function']} errored")
        p.expect("cert=pass" in row["verdicts"], f"row {row['function']}: {row['verdicts']}")
        p.certified_runs += 1
        if row["sigma"] != "inf":
            p.sigmas.append(int(row["sigma"]))


def _cli_run(algo: str, label: str, eps: Optional[float], budget: Optional[int], p: Pass) -> None:
    path = os.path.join(p.workdir, f"{algo}-{label}.json")
    argv = ["run", "--function", label, "--algo", algo, "--out", path]
    if eps is not None:
        argv += ["--eps", repr(eps)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    _cli(p, f"cli.run.{algo}", argv)
    with open(path, "rb") as handle:
        blob = handle.read()
    p.digest(blob)
    trace = lc.trace_from_json(blob.decode())
    fn = lc.get_function(label)
    if eps is None:
        p.plain(trace)
    else:
        p.certified(trace, fn.known_max, eps)

    def probe() -> None:
        with p.span("trace.to_json"):
            lc.trace_to_json(trace)
        p.add("trace.json_queries", len(trace))
        if algo == "psgrid":
            with p.span("psgrid.candidates_for"):
                lc.candidates_for(fn.domain, fn.lip_bound, eps, fn.norm)

    p.after(probe)


def sweep_ops(seed: int, workdir: str) -> list[Op]:
    config = sweep_config(workdir, seed)
    ops = [Op("sweep", partial(_sweep, config))]
    for fn in lc.registry():
        (_, coarse), (_, fine) = ladder(fn, [5, 8])
        ops.append(Op(f"run cdoo {fn.label}", partial(_cli_run, "cdoo", fn.label, coarse, None)))
        ops.append(Op(f"run ncdoo {fn.label}", partial(_cli_run, "ncdoo", fn.label, None, SWEEP_BUDGET)))
        if fn.dim == 1:
            ops.append(Op(f"run ps1d {fn.label}", partial(_cli_run, "ps1d", fn.label, fine, None)))
        else:
            ops.append(Op(f"run psgrid {fn.label}", partial(_cli_run, "psgrid", fn.label, coarse, None)))
    return ops


def build_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    if workload == "tree":
        return tree_ops(seed)
    if workload == "sawtooth":
        return sawtooth_ops(seed)
    if workload == "estimate-audit":
        return estimate_audit_ops(seed)
    if workload == "sweep":
        return sweep_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
