"""End-to-end gate: each test exercises one numbered criterion from the
release checklist and registers its verdict with the terminal summary.

The heavy artifacts (optimizer traces and complexity reports across the
accuracy ladder) are built once per module and shared, so the whole gate
stays well inside its runtime budgets.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import lipcert as lc
from lipcert import (
    NOT_REACHED,
    SUP,
    audit_certified_run,
    cdoo_run,
    certificate_validity,
    estimate_sc,
    lemma_consistency_trials,
    ncdoo_run,
    ps_run_1d,
    ps_run_grid,
    recommendations_consistent,
    sigma_from_trace,
    zeta_from_trace,
)
from lipcert.cli.sweep import parse_sweep_config, run_sweep

TRACE_SCALES = tuple(range(1, 9))
CDOO_BUDGET = {1: 10_000, 2: 30_000}
PS1D_BUDGET = 3_000
PSGRID_BUDGET = 1_500
REPORT_SCALES = {1: tuple(range(1, 9)), 2: tuple(range(1, 7))}


def eps_ladder(fn, scales):
    eps0 = fn.lip_bound * lc.diameter(fn.domain, fn.norm)
    return [(j, eps0 * 0.5**j) for j in scales]


@pytest.fixture(scope="module")
def trace_cache(all_functions):
    traces = {}
    start = time.perf_counter()
    for fn in all_functions:
        for j, eps in eps_ladder(fn, TRACE_SCALES):
            traces["cdoo", fn.label, j] = cdoo_run(fn, eps, CDOO_BUDGET[fn.dim])
            if fn.dim == 1:
                traces["ps1d", fn.label, j] = ps_run_1d(fn, eps, PS1D_BUDGET)
            else:
                traces["psgrid", fn.label, j] = ps_run_grid(fn, eps, PSGRID_BUDGET)
    return traces, time.perf_counter() - start


@pytest.fixture(scope="module")
def sup_reports(all_functions):
    return {
        (fn.label, j): estimate_sc(fn, eps, norm=SUP)
        for fn in all_functions
        for j, eps in eps_ladder(fn, REPORT_SCALES[fn.dim])
    }


@pytest.fixture(scope="module")
def native_reports(all_functions):
    return {
        (fn.label, j): estimate_sc(fn, eps)
        for fn in all_functions
        for j, eps in eps_ladder(fn, REPORT_SCALES[fn.dim])
    }


def test_certificates_never_overstate_accuracy(acceptance, all_functions, trace_cache):
    traces, elapsed = trace_cache
    by_label = {fn.label: fn for fn in all_functions}
    violations = []
    for (algo, label, j), trace in traces.items():
        check = certificate_validity(trace, by_label[label].known_max)
        if not check.ok:
            violations.append(f"{algo}/{label}/2^-{j}: excess {check.max_excess}")
        if not recommendations_consistent(trace):
            violations.append(f"{algo}/{label}/2^-{j}: recommendation drift")
    ok = not violations and elapsed < 60.0
    acceptance.record(
        1, ok, f"{len(traces)} traces, {len(violations)} violations, {elapsed:.1f}s"
    )
    assert not violations, violations[:3]
    assert elapsed < 60.0


def test_first_queries_match_hand_derivation(acceptance):
    trace = cdoo_run(lc.get_function("tent-d1"), 0.25, 100)
    queries = trace.queries.ravel().tolist()
    certs = trace.certificates.tolist()
    sigma = sigma_from_trace(trace)
    ok = (
        queries == [0.5, 0.25, 0.75, 0.125, 0.375]
        and certs == [1.0, 1.0, 1.0, 0.25, 0.25]
        and sigma == 4
    )
    acceptance.record(2, ok, f"queries {queries}, stop {sigma}")
    assert queries == [0.5, 0.25, 0.75, 0.125, 0.375]
    assert certs == [1.0, 1.0, 1.0, 0.25, 0.25]
    assert sigma == 4


def test_certified_stop_within_packing_bound(acceptance, all_functions, trace_cache, sup_reports):
    traces, _ = trace_cache
    failures = []
    checked = 0
    for fn in all_functions:
        a_factor = 1.0 + (2.0 * 8.0) ** fn.dim
        for j, eps in eps_ladder(fn, REPORT_SCALES[fn.dim]):
            sigma = sigma_from_trace(traces["cdoo", fn.label, j], eps)
            bound = 2.0 * a_factor * sup_reports[fn.label, j].sc
            checked += 1
            if math.isinf(sigma) or sigma > bound:
                failures.append(f"{fn.label}/2^-{j}: {sigma} > {bound}")
    acceptance.record(3, not failures, f"{checked} pairs checked")
    assert not failures, failures[:3]


def test_packing_sum_sits_inside_integral_bracket(acceptance, all_functions, native_reports):
    failures = []
    for (label, j), report in native_reports.items():
        if not lc.sandwich_check(report).ok:
            failures.append(f"{label}/2^-{j}")
    closed_form = []
    for fn in all_functions:
        if fn.label.startswith("constant"):
            for j, eps in eps_ladder(fn, REPORT_SCALES[fn.dim]):
                if native_reports[fn.label, j].integral != eps ** -fn.dim:
                    closed_form.append(f"{fn.label}/2^-{j}: flat integral off")
    slope = lc.get_function("slope-d1")
    for j, eps in eps_ladder(slope, REPORT_SCALES[1]):
        est = lc.estimate_sc(slope, eps, grid_step=1e-4).integral
        exact = math.log((1.0 + eps) / eps)
        if abs(est - exact) > 0.005 * exact:
            closed_form.append(f"slope/2^-{j}: {est} vs {exact}")
    ok = not failures and not closed_form
    acceptance.record(
        4, ok, f"{len(native_reports)} brackets, {len(closed_form)} closed-form misses"
    )
    assert not failures, failures[:3]
    assert not closed_form, closed_form[:3]


def test_cone_certifies_in_two_queries(acceptance):
    cone = lc.get_function("cone-d2")
    trace = ps_run_grid(cone, 0.5, PSGRID_BUDGET)
    sigma = sigma_from_trace(trace, 0.5)
    first_at_center = np.array_equal(trace.queries[0], np.zeros(2))
    boundary_hit = float(trace.values[1]) == 1.0
    ok = sigma == 2 and first_at_center and boundary_hit
    acceptance.record(5, ok, f"stop {sigma}, best {float(trace.rec_values[-1])!r}")
    assert sigma == 2
    assert first_at_center
    assert boundary_hit
    assert certificate_validity(trace, cone.known_max).ok


def test_flat_function_certification_overhead(acceptance, trace_cache):
    traces, _ = trace_cache
    flat = lc.get_function("constant-d1")
    plain = ncdoo_run(flat, 600)
    zetas = [
        zeta_from_trace(plain, flat.known_max, eps)
        for _, eps in eps_ladder(flat, TRACE_SCALES)
    ]
    sigmas = [
        sigma_from_trace(traces["cdoo", "constant-d1", j], eps)
        for j, eps in eps_ladder(flat, range(1, 8))
    ]
    ratios = [b / a for a, b in zip(sigmas, sigmas[1:])]
    ok = all(z == 1 for z in zetas) and all(1.8 <= r <= 2.2 for r in ratios)
    acceptance.record(
        6, ok, f"zeta {sorted(set(zetas))}, {len(ratios)} halving ratios"
    )
    assert zetas == [1] * len(zetas)
    assert len(ratios) == 6
    for ratio in ratios:
        assert 1.8 <= ratio <= 2.2


def test_randomized_packing_lemmas_hold(acceptance):
    start = time.perf_counter()
    verdict = lemma_consistency_trials(500, seed=7)
    elapsed = time.perf_counter() - start
    ok = verdict.ok and verdict.trials_run == 500 and elapsed < 30.0
    acceptance.record(7, ok, f"{verdict.trials_run} trials, {elapsed:.1f}s")
    assert verdict.ok, verdict.counterexample
    assert verdict.trials_run == 500
    assert elapsed < 30.0


def test_audit_finds_witness_only_before_the_stop(acceptance):
    eps = 1.0 / 16.0
    problems = []
    for label in ("halftent-d1", "multibump-d2"):
        fn = lc.get_function(label)
        before = audit_certified_run(fn, eps)
        if before.case_fired == "inconclusive":
            problems.append(f"{label}: no witness one step early")
            continue
        if before.coincidence is not True:
            problems.append(f"{label}: replay diverged")
        if not before.regret_achieved >= 3.0 * before.eps_tilde:
            problems.append(f"{label}: regret {before.regret_achieved} too small")
        at_stop = audit_certified_run(fn, eps, n_override=before.n + 1)
        if at_stop.case_fired != "inconclusive" and not at_stop.eps_tilde < eps:
            problems.append(f"{label}: witness at the certified stop")
    acceptance.record(8, not problems, "two functions, both sides")
    assert not problems, problems


def test_sweep_bytes_reproduce_under_fixed_seed(acceptance, tmp_path):
    text = (
        "functions = tent-d1, multibump-d1\n"
        "eps-count = 4\n"
        "budget = 4000\n"
        "integral-method = montecarlo\n"
        "mc-samples = 4000\n"
        "seed = 123\n"
        f"out = {tmp_path / 'sweep.csv'}\n"
    )
    first = run_sweep(parse_sweep_config(text))
    blobs = [open(first.csv_path, "rb").read()]
    blobs += [open(p, "rb").read() for p in first.plot_paths]

    second = run_sweep(parse_sweep_config(text))
    again = [open(second.csv_path, "rb").read()]
    again += [open(p, "rb").read() for p in second.plot_paths]

    threaded = run_sweep(parse_sweep_config(text + "jobs = 3\n"))
    third = [open(threaded.csv_path, "rb").read()]
    third += [open(p, "rb").read() for p in threaded.plot_paths]

    ok = blobs == again == third
    acceptance.record(9, ok, f"{len(blobs)} files, serial and threaded reps")
    assert blobs == again
    assert blobs == third
