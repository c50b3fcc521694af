"""Benchmark of lipcert's public API, measured from outside the package.

Usage, from the repository root:

    python3 perfbench/run.py --workload tree --seed 0 --seconds 26 --trace 0

``--trace 0`` runs untraced passes over the workload's op list and
reports the end-to-end metrics.  ``--trace 1`` spends half the time on
untraced passes and half on traced ones, and reports the per-module
metrics together with the tracing overhead.  Either way every op's output is checked, every
metric is printed by name with its unit, and the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 15
REFERENCE_CALLS = 8
TAIL_LADDER = (99, 95, 90, 80, 75, 60, 50)
# Fastest reference_loop() on a 2-core x86-64 host (Python 3.11.7,
# numpy 2.4.6): the sum of its two halves' fastest times, 0.909 ms and
# 0.987 ms, each over more than 1500 calls.  Times are reported at this
# host speed.
REFERENCE_MS = 1.896


def load():
    """Import the package from this checkout, and the workloads."""
    sys.path.insert(0, SRC)
    import lipcert

    if not os.path.abspath(lipcert.__file__).startswith(SRC + os.sep):
        raise ImportError(f"lipcert imported from {lipcert.__file__}, not {SRC}")
    import workloads

    return lipcert, workloads


def setup(workload: str, seed: int, workdir: str):
    """Import, registry and inputs: everything before the first timed op."""
    lc, wl = load()
    lc.registry()
    return lc, wl, wl.build_ops(workload, seed, workdir)


def host_scale(reference_s: float) -> float:
    """Factor that brings a time taken while the reference loop took
    ``reference_s`` to the reference host speed."""
    return REFERENCE_MS / (reference_s * 1e3)


def probe_setup() -> float:
    """This process's set-up time, at the reference host speed: scaled
    by the fastest of a few reference loops timed right after it."""
    elapsed = perf_counter() - _T0
    return elapsed * host_scale(fastest_reference())


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes, each at the reference
    host speed."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def cache_sizes() -> dict:
    sizes = {}
    for level in ("LEVEL1_DCACHE", "LEVEL2_CACHE", "LEVEL3_CACHE"):
        try:
            done = subprocess.run(
                ["getconf", f"{level}_SIZE"], capture_output=True, text=True, timeout=10
            )
            sizes[level.lower()] = int(done.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            sizes[level.lower()] = None
    return sizes


def fastest_reference() -> float:
    """The host's speed now: the fastest of a few reference loops."""
    return min(reference_loop() for _ in range(REFERENCE_CALLS))


def warm_up(lc, workdir: str) -> None:
    """Small calls that pay first-use costs before anything is timed."""
    tent = lc.get_function("tent-d1")
    lc.cdoo_run(tent, 0.25, 100)
    lc.ps_run_1d(tent, 0.25, 100)
    lc.ps_run_grid(lc.get_function("multibump-d2"), 0.25, 100)
    lc.estimate_sc(lc.get_function("constant-d2"), 0.125)
    lc.write_trace(lc.ncdoo_run(tent, 50), os.path.join(workdir, "warm.json"))


def reference_loop() -> float:
    """Seconds for a fixed stdlib and numpy loop of about two
    milliseconds, with no ``lipcert`` code in it.  One half is
    interpreter arithmetic and whole-array numpy; the other half is
    small arrays, clipping and a heap, as in a tree search's inner loop.
    """
    import heapq

    import numpy as np

    start = perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i % 7
    a = np.arange(10_000, dtype=float)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    lower, upper = np.zeros(2), np.ones(2)
    heap = []
    for i in range(200):
        point = np.array([i * 0.01, 1.0 - i * 0.005])
        clipped = np.clip(point, lower, upper)
        total += float(np.abs(clipped - point).max())
        heapq.heappush(heap, (-total, i, clipped))
    return perf_counter() - start


def release_free_memory() -> None:
    """Hand memory freed by the last op back to the system.  Without
    this the allocator keeps it, fragmented, and a later op's peak
    resident size depends on which ops ran before it."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def run_pass(wl, ops, order, tracer, workdir, deadline=None, cost=None):
    """One pass over the ops, in ``order``.

    With a deadline the pass stops before the first op whose ``cost``
    in an earlier pass would carry it past the deadline.
    """
    p = wl.Pass(tracer, workdir, reference_loop)
    for op_id in order:
        start = perf_counter()
        if deadline is not None and start + cost[op_id] > deadline:
            break
        p.run(op_id, ops[op_id])
        release_free_memory()
        p.cost[op_id] = perf_counter() - start
    return p


def untraced_passes(wl, ops, order, workdir, deadline):
    """One whole pass, then passes until the deadline; the last one
    usually stops part-way, and its ops still count."""
    passes = [run_pass(wl, ops, order, None, workdir)]
    while len(passes[-1].latencies) == len(ops) and perf_counter() < deadline:
        p = run_pass(wl, ops, order, None, workdir, deadline, passes[0].cost)
        if not p.latencies:
            break
        passes.append(p)
    return passes


def passes_until(deadline, run):
    """Whole passes until the next one would end past the deadline;
    at least one."""
    results, durations = [], []
    while True:
        start = perf_counter()
        results.append(run())
        durations.append(perf_counter() - start)
        if perf_counter() + max(durations) > deadline:
            return results


def tail_percentile(ops_per_pass: int) -> int:
    for q in TAIL_LADDER:
        if ops_per_pass * (1 - q / 100) >= 10:
            return q
    return 50


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def scaled_latencies(passes, order, first=False) -> list:
    """Per op, the lower quartile of its attempts' times over
    ``passes``, each scaled to the reference host speed by the
    reference loop timed right after it.  With ``first``, only each
    pass's first attempt counts."""
    result = []
    for op_id in order:
        times = [
            latency * host_scale(ref)
            for p in passes
            if op_id in p.samples
            for latency, ref in p.samples[op_id][: 1 if first else None]
        ]
        result.append(percentile(times, 25))
    return result


def pass_scale(p) -> float:
    """Median host-speed scale over a pass's attempts."""
    return statistics.median(host_scale(ref) for s in p.samples.values() for _, ref in s)


def tracing_overhead(passes, traced, order) -> float:
    """Traced minus untraced time over the op list, at the reference
    host speed.  The untraced side uses each pass's first attempt,
    since a traced pass runs each op once."""
    untraced = scaled_latencies(passes, order, first=True)
    return sum(scaled_latencies(traced, order)) - sum(untraced)


def end_to_end(passes, order, setup_s):
    """Op times at the reference host speed, and the other metrics.

    The host this benchmark runs on is shared, and its speed drifts by
    up to a factor of two within seconds to minutes.  An op's latency
    is the lower quartile of its attempts over the run's passes, each
    attempt scaled by the host speed measured right after it.
    ``wall_s`` sums the latencies over the op list.
    """
    best = scaled_latencies(passes, order)
    q = tail_percentile(len(best))
    first = passes[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(best), "s"),
        "op_ms_p50": (statistics.median(best) * 1e3, "ms"),
        "op_ms_tail": (percentile(best, q) * 1e3, "ms"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sigma_sum": (sum(first.sigmas), "queries"),
        "certified_frac": (len(first.sigmas) / max(1, first.certified_runs), "frac"),
    }
    note = {
        "op_ms_tail_percentile": q,
        "op_ms_tail_ops": len(best),
        "passes": sum(len(p.latencies) for p in passes) / len(order),
        "host_scales": [pass_scale(p) for p in passes],
        "unscaled_pass_s": [sum(p.latencies.values()) for p in passes],
    }
    return metrics, note


def per(a: float, b: float, scale: float = 1.0) -> float:
    return a / b * scale if b else 0.0


def per_module(tracer, scale: float, overhead_s: float, envelope_s: float) -> dict:
    """Per-module metrics of one traced pass, unscaled except for the
    two tracing numbers, which are at the reference host speed."""
    T, S, C, N = tracer.total, tracer.self_time, tracer.counts, tracer.calls
    doo_q = C["doo.queries"]
    parts = ("representative", "children", "feasible")
    part_total = sum(T[f"partition.{name}"] for name in parts)
    m = {
        "functions.calls": (N["functions.evaluate"], "count"),
        "functions.points": (C["functions.points"], "count"),
        "functions.us_per_point": (per(T["functions.evaluate"], C["functions.points"], 1e6), "us"),
        "functions.share": (per(tracer.in_ops["functions.evaluate"], T["op"]), "frac"),
    }
    for name in parts:
        m[f"partition.{name}_us"] = (per(T[f"partition.{name}"], doo_q, 1e6), "us/query")
    m.update({
        "partition.us_per_query": (per(part_total, doo_q, 1e6), "us/query"),
        "partition.share": (per(part_total, T["doo.run"]), "frac"),
        "partition.verify_ms": (T["partition.verify"] * 1e3, "ms"),
        "partition.verify_pairs": (C["partition.verify_pairs"], "count"),
        "doo.us_per_query": (per(T["doo.run"], doo_q, 1e6), "us/query"),
        "doo.self_us_per_query": (per(S["doo.run"], doo_q, 1e6), "us/query"),
        "doo.distinct_frac": (per(C["doo.distinct"], doo_q), "frac"),
        "doo.repeat_queries": (doo_q - C["doo.distinct"], "count"),
    })
    for label in ("tent-d1", "cone-d2"):
        queries = C[f"doo.queries.{label}"]
        distinct = C[f"doo.distinct.{label}"]
        m[f"doo.distinct_frac.{label}"] = (per(distinct, queries), "frac")
        m[f"doo.repeat_queries.{label}"] = (queries - distinct, "count")
    # Computed, not measured: per query the candidate array (d floats a
    # point) is streamed five times and envelope-sized float temporaries
    # about twelve times.
    psgrid_bytes = 8 * (5 * C["psgrid.dim_query_candidates"] + 12 * C["psgrid.query_candidates"])
    m.update({
        "ps1d.us_per_query": (per(T["ps1d.run"], C["ps1d.queries"], 1e6), "us/query"),
        "ps1d.self_us_per_query": (per(S["ps1d.run"], C["ps1d.queries"], 1e6), "us/query"),
        "envelope1d.max_us_n2048": (envelope_s * 1e6, "us"),
        "psgrid.us_per_query": (per(T["psgrid.run"], C["psgrid.queries"], 1e6), "us/query"),
        "psgrid.self_us_per_query": (per(S["psgrid.run"], C["psgrid.queries"], 1e6), "us/query"),
        "psgrid.candidates": (per(C["psgrid.candidates"], C["psgrid.runs"]), "count"),
        "psgrid.ns_per_candidate": (per(S["psgrid.run"], C["psgrid.query_candidates"], 1e9), "ns"),
        "psgrid.bytes_per_query": (per(psgrid_bytes, C["psgrid.queries"]), "B/query"),
        "psgrid.candidates_ms": (T["psgrid.candidates_for"] * 1e3, "ms"),
        "layers.decomp_ms": (T["layers.decomposition"] * 1e3, "ms"),
        "layers.grid_points": (C["layers.grid_points"], "count"),
        "layers.ns_per_point": (per(T["layers.decomposition"], C["layers.grid_points"], 1e9), "ns"),
        "layers.estimate_ms": (T["layers.estimate_sc"] * 1e3, "ms"),
        "layers.integral_mc_ms": (T["layers.integral_mc"] * 1e3, "ms"),
        "packing.greedy_ns_per_point": (per(T["packing.greedy"], C["packing.points"], 1e9), "ns"),
        "packing.greedy_share": (per(T["packing.greedy"], T["layers.estimate_sc"]), "frac"),
        "packing.lemma_ms_per_trial": (per(T["packing.lemma_trials"], C["packing.lemma_trials"], 1e3), "ms"),
        "adversary.audit_ms": (T["adversary.audit"] * 1e3, "ms"),
        "adversary.self_ms": (S["adversary.audit"] * 1e3, "ms"),
        "adversary.points_scanned": (C["adversary.points_scanned"], "count"),
        "trace.validity_us_per_query": (per(T["trace.validity"], C["trace.validity_queries"], 1e6), "us/query"),
        "trace.json_us_per_query": (per(T["trace.to_json"], C["trace.json_queries"], 1e6), "us/query"),
        "sweep.rows": (C["sweep.rows"], "count"),
        "sweep.ms_per_row": (per(T["cli.sweep"], C["sweep.rows"], 1e3), "ms"),
        "sweep.bytes_written": (C["sweep.bytes_written"], "B"),
    })
    for algo in ("cdoo", "ncdoo", "ps1d", "psgrid"):
        m[f"cli.run_ms.{algo}"] = (per(T[f"cli.run.{algo}"], N[f"cli.run.{algo}"], 1e3), "ms")
    m.update({
        "tracing.overhead_s": (overhead_s, "s"),
        # Op time that no module span covers: the benchmark's own glue.
        "tracing.unattributed_s": (S["op"] * scale, "s"),
        "tracing.spans": (sum(N.values()), "count"),
    })
    return m


def median_metrics(per_pass: list) -> dict:
    return {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


def recorded_digest(workload: str, seed: int):
    try:
        with open(os.path.join(HERE, "CONTEXT.json")) as handle:
            recorded = json.load(handle)
    except OSError:
        return None
    entry = recorded.get("workloads", {}).get(workload, {})
    return entry.get("digest") if recorded.get("seed") == seed else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # A terminated run still removes its scratch directory, and
    # subprocess.run kills a set-up probe it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        try:
            lc, wl, ops = setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"perfbench: cannot import lipcert from {SRC}: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(probe_setup())
            return 0
        return measure(args, lc, wl, ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, lc, wl, ops, workdir) -> int:
    from tracing import Tracer
    import numpy as np

    setup_s = setup_seconds(args.workload, args.seed)
    warm_up(lc, workdir)
    order = list(range(len(ops)))
    random.Random(args.seed).shuffle(order)
    calib_start = fastest_reference() * 1e3

    start = perf_counter()
    untraced_deadline = start + (args.seconds / 2 if args.trace else args.seconds)
    passes = untraced_passes(wl, ops, order, workdir, untraced_deadline)
    traced, tracers = [], []
    if args.trace:
        def traced_pass():
            tracer = Tracer()
            return tracer, run_pass(wl, ops, order, tracer, workdir)

        for tracer, p in passes_until(start + args.seconds, traced_pass):
            tracers.append(tracer)
            traced.append(p)
    calib_end = fastest_reference() * 1e3

    agree = all(
        p.digests.get(op_id) == digest
        for op_id, digest in passes[0].digests.items()
        for p in passes + traced
        if op_id in p.latencies
    )
    failures = [f for p in passes + traced for f in p.failures]
    attempted = sum(p.attempts for p in passes + traced)
    correct = not failures and agree
    digest = passes[0].combined_digest()
    recorded = recorded_digest(args.workload, args.seed)

    metrics, note = end_to_end(passes, order, setup_s)
    print(f"workload {args.workload}, seed {args.seed}: {note['passes']:.2f} untraced "
          f"and {len(traced)} traced passes of {len(ops)} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(f"  op_ms_tail is p{note['op_ms_tail_percentile']} over "
          f"{note['op_ms_tail_ops']} ops")
    if args.trace:
        overhead = tracing_overhead(passes, traced, order)
        envelope_s = wl.envelope_probe(tracers[-1]) if args.workload == "sawtooth" else 0.0
        layer = median_metrics([
            per_module(t, pass_scale(p), overhead, envelope_s)
            for t, p in zip(tracers, traced)
        ])
        for name, (value, unit) in layer.items():
            print(f"  {name} = {value!r} {unit}")
        unattributed = layer["tracing.unattributed_s"][0]
        closed = unattributed <= overhead
        print(f"  closure: module spans cover the traced op time up to "
              f"{unattributed:.3f} s; the tracing overhead is {overhead:.3f} s; "
              f"within it: {'yes' if closed else 'no'}")
        if args.workload == "tree" and not closed:
            # On tree, partition, evaluator and doo self time must add
            # up to the op time within the tracing overhead.
            correct = False
            print("FAILED closure: partition, evaluator and doo self time "
                  "miss the op time by more than the tracing overhead")
        tracers[-1].write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = layer
    context = {
        "digest": digest,
        "digest_matches_recorded": None if recorded is None else recorded == digest,
        "passes_agree": agree,
        "calibration_ms": [calib_start, calib_end],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cache_bytes": cache_sizes(),
        **note,
        **passes[0].context,
    }
    print("context " + json.dumps(context, default=str))
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
