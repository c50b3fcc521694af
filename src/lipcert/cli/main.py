"""Command-line front end.

Subcommands: ``run`` (one optimization run, trace to JSON), ``sweep``
(batch CSV from a config file), ``complexity`` (packing estimate with
the integral bracket), ``audit`` (adversarial lower-bound search), and
``verify`` (self-checks of the package's own guarantees).

Exit codes: 0 success (including unreached accuracy targets and
inconclusive audits), 1 usage or configuration error or a file that
cannot be read or written, 2 a verified invariant actually failed.  A
relative ``--out`` path is resolved under ``LIPCERT_OUT_DIR`` when that
variable is set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import cache
from typing import Optional

import numpy as np

from ..adversary import audit_certified_run, audit_to_json
from ..complexity import (
    estimate_sc,
    lemma_consistency_trials,
    report_to_json,
    sandwich_check,
)
from ..core import (
    Box,
    Norm,
    certificate_validity,
    recommendations_consistent,
    sigma_from_trace,
    write_json,
    write_trace,
    zeta_from_trace,
)
from ..optimizers import ALGORITHMS, CERTIFIED
from ..partition import BisectionPartition, verify_assumptions
from .registry import LABELS, default_algorithm, get_function, registry
from .sweep import parse_sweep_config, run_sweep


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_out(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    base = os.environ.get("LIPCERT_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lipcert", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="single optimization run")
    run.add_argument("--function", required=True, choices=LABELS)
    run.add_argument("--algo", default="cdoo", choices=tuple(ALGORITHMS))
    run.add_argument("--L", type=float, default=1.0, help="Lipschitz bound")
    run.add_argument("--eps", type=float, help="accuracy target (certified runs)")
    run.add_argument("--budget", type=int, default=100_000)
    run.add_argument("--out", help="write the trace JSON here")

    sweep = sub.add_parser("sweep", help="batch CSV from a config")
    sweep.add_argument("--config", required=True, help="flat key = value config file")
    sweep.add_argument("--out", help="override the config's CSV path")

    complexity = sub.add_parser(
        "complexity", help="packing-based complexity estimate"
    )
    complexity.add_argument("--function", required=True, choices=LABELS)
    complexity.add_argument("--L", type=float, default=1.0)
    complexity.add_argument("--eps", type=float, required=True)
    complexity.add_argument("--grid-step", type=float)
    complexity.add_argument("--method", default="grid", choices=("grid", "montecarlo"))
    complexity.add_argument("--samples", type=int, default=20_000)
    complexity.add_argument("--seed", type=int, default=0)
    complexity.add_argument("--norm", choices=("sup", "euclidean", "l1"))
    complexity.add_argument("--out", help="write the report JSON here")

    audit = sub.add_parser(
        "audit", help="adversarial lower-bound audit"
    )
    audit.add_argument("--function", required=True, choices=LABELS)
    audit.add_argument("--algo", default="cdoo", choices=CERTIFIED)
    audit.add_argument("--L", type=float, default=1.0)
    audit.add_argument("--eps", type=float, required=True)
    audit.add_argument("--budget", type=int, default=200_000)
    audit.add_argument(
        "--n", type=int, help="audit after this many queries (default: one before the stop)"
    )
    audit.add_argument("--out", help="write the audit JSON here")

    verify = sub.add_parser(
        "verify", help="self-checks of the package guarantees"
    )
    verify.add_argument(
        "--suite",
        default="all",
        choices=("lemmas", "assumptions", "traces", "all"),
    )
    verify.add_argument("--trials", type=int, default=500)
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--max-depth", type=int, default=4)
    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    # Built on the first call rather than at import; parsing does not
    # change a parser, so every later call in the process reuses it.
    return build_parser()


def _cmd_run(args: argparse.Namespace) -> int:
    fn = get_function(args.function, lip=args.L)
    trace = ALGORITHMS[args.algo](fn, args.eps, args.budget)
    for warning in trace.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    parts = [
        f"algorithm={trace.algorithm}",
        f"function={trace.function}",
        f"n={len(trace)}",
        f"best={float(trace.rec_values[-1])!r}",
    ]
    if trace.certificates is not None:
        sigma = sigma_from_trace(trace)
        parts.insert(2, f"eps={trace.eps!r}")
        parts.append(f"sigma={'inf' if math.isinf(sigma) else sigma}")
        parts.append(f"certificate={float(trace.certificates[-1])!r}")
    elif fn.known_max is not None and args.eps is not None:
        zeta = zeta_from_trace(trace, fn.known_max, args.eps)
        parts.append(f"zeta={'inf' if math.isinf(zeta) else zeta}")
    # written last, so that a run refused for its target leaves no file
    out = _resolve_out(args.out)
    if out:
        write_trace(trace, out)
    print(" ".join(parts))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        with open(args.config) as handle:
            config = parse_sweep_config(handle.read())
    except OSError as exc:
        print(f"lipcert sweep: cannot read config: {exc}", file=sys.stderr)
        return 1
    out = _resolve_out(config.out if args.out is None else args.out)
    stem = config.plot_stem
    config = replace(config, out=out, plot_stem=_resolve_out(stem) if stem else None)
    result = run_sweep(config)
    failures = sum(1 for row in result.rows if str(row["verdicts"]).startswith("error:"))
    print(
        f"wrote {result.csv_path} ({len(result.rows)} rows, {failures} errors) "
        f"and {len(result.plot_paths)} plot files"
    )
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    fn = get_function(args.function, lip=args.L)
    report = estimate_sc(
        fn,
        args.eps,
        norm=None if args.norm is None else Norm(args.norm),
        grid_step=args.grid_step,
        integral_method=args.method,
        mc_samples=args.samples,
        seed=args.seed,
    )
    out = _resolve_out(args.out)
    if out:
        write_json(report_to_json(report), out)
    verdict = sandwich_check(report)
    print(
        f"function={report.function} eps={report.eps!r} SC={report.sc} "
        f"SNC={report.snc} integral={report.integral!r} "
        f"sandwich={'pass' if verdict.ok else 'fail'}"
    )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    fn = get_function(args.function, lip=args.L)
    report = audit_certified_run(
        fn, args.eps, algorithm=args.algo, budget=args.budget, n_override=args.n
    )
    out = _resolve_out(args.out)
    if out:
        write_json(audit_to_json(report), out)
    parts = [
        f"function={report.function}",
        f"n={report.n}",
        f"case={report.case_fired}",
    ]
    if report.case_fired != "inconclusive":
        parts.append(f"eps_tilde={float(report.eps_tilde)!r}")
        parts.append(f"regret={float(report.regret_achieved)!r}")
        parts.append(f"coincidence={'yes' if report.coincidence else 'NO'}")
    print(" ".join(parts))
    return 0


def _verify_lemmas(trials: int, seed: int) -> bool:
    verdict = lemma_consistency_trials(trials, seed)
    if verdict.ok:
        print(f"PASS lemmas: {verdict.trials_run} trials")
        return True
    print(f"FAIL lemmas: counterexample {verdict.counterexample}")
    return False


def _verify_assumptions(max_depth: int) -> bool:
    ok = True
    cases = [
        ("unit box d=1", BisectionPartition(_unit_box(1)), max_depth + 2),
        ("unit box d=2", BisectionPartition(_unit_box(2)), max_depth),
        ("unit box d=3", BisectionPartition(_unit_box(3)), max_depth),
    ]
    for name, partition, depth in cases:
        check = verify_assumptions(partition, depth)
        status = "PASS" if check.ok else "FAIL"
        detail = (
            f"{check.cells_checked} cells, {check.pairs_checked} pairs"
            if check.ok
            else f"violation {check.violation}"
        )
        print(f"{status} assumptions ({name}, depth {depth}): {detail}")
        ok &= check.ok
    return ok


def _unit_box(dim: int):
    return Box(np.zeros(dim), np.ones(dim))


def _verify_traces() -> bool:
    ok = True
    runs = [(fn, default_algorithm(fn)) for fn in registry(1.0) if fn.known_max is not None]
    # Both sawtooth runners; psgrid on this sup-norm grid marks each
    # queried candidate by its distance 0 to the query.
    runs += [(get_function("multibump-d1"), "ps1d"), (get_function("multibump-d2"), "psgrid")]
    # The runs that would repeat points if the tree search broke its
    # rules: clamped ball representatives, which the memo catches, and
    # cells that float64 cannot split, on the unit box and off its grid,
    # where boxes rely on each center being its children's split point.
    tent = get_function("tent-d1")
    moved = replace(tent, label="tent-d1 on [0.1, 1.73]", domain=Box([0.1], [1.73]))
    runs += [(get_function("cone-d2"), "cdoo"), (tent, "ncdoo"), (moved, "ncdoo")]
    for fn, algo in runs:
        trace = ALGORITHMS[algo](fn, fn.lip_bound * 0.125, 4000)
        consistent = recommendations_consistent(trace)
        distinct = len(np.unique(trace.queries, axis=0))
        good = consistent and distinct == len(trace)
        detail = f"consistent={consistent} distinct={distinct}/{len(trace)}"
        if trace.certificates is not None:
            check = certificate_validity(trace, fn.known_max)
            good &= check.ok
            detail = f"max_excess={check.max_excess!r} {detail}"
        status = "PASS" if good else "FAIL"
        print(f"{status} traces ({fn.label}, {algo}): {detail}")
        ok &= good
    return ok


def _cmd_verify(args: argparse.Namespace) -> int:
    ok = True
    if args.suite in ("lemmas", "all"):
        ok &= _verify_lemmas(args.trials, args.seed)
    if args.suite in ("assumptions", "all"):
        ok &= _verify_assumptions(args.max_depth)
    if args.suite in ("traces", "all"):
        ok &= _verify_traces()
    return 0 if ok else 2


def main(argv: Optional[list[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "complexity": _cmd_complexity,
        "audit": _cmd_audit,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"lipcert {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
