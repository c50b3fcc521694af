"""Certified and non-certified optimistic tree search."""

from __future__ import annotations

import math

import numpy as np
import pytest

import lipcert as lc
from lipcert import (
    BisectionPartition,
    Box,
    cdoo_run,
    certificate_validity,
    ncdoo_run,
    recommendations_consistent,
    sigma_from_trace,
    zeta_from_trace,
)


def test_hand_traced_tent_instance():
    # Worked by hand: root center first; each round splits the leaf with
    # the largest value-plus-slack, ties toward shallower then lower
    # index; both depth-1 children tie with the root bound, and the
    # first depth-3 round drops the certificate to 1/4.
    fn = lc.get_function("tent-d1")
    trace = cdoo_run(fn, eps=0.25, budget=100)
    assert trace.queries.ravel().tolist() == [0.5, 0.25, 0.75, 0.125, 0.375]
    assert trace.values.tolist() == [0.0, -0.25, -0.25, -0.375, -0.125]
    assert trace.certificates.tolist() == [1.0, 1.0, 1.0, 0.25, 0.25]
    assert sigma_from_trace(trace) == 4
    assert trace.rec_points.ravel().tolist() == [0.5] * 5
    assert recommendations_consistent(trace)


def test_trivial_accuracy_stops_at_root():
    fn = lc.get_function("tent-d1")
    trace = cdoo_run(fn, eps=1.0, budget=100)
    assert len(trace) == 1
    assert sigma_from_trace(trace) == 1


def test_budget_cuts_mid_round():
    fn = lc.get_function("tent-d1")
    trace = cdoo_run(fn, eps=0.25, budget=4)
    # the depth-2 round would add two queries; the budget takes one
    assert len(trace) == 4
    assert trace.queries.ravel().tolist() == [0.5, 0.25, 0.75, 0.125]
    assert sigma_from_trace(trace) == 4


def test_budget_before_certification_gives_inf_sigma():
    fn = lc.get_function("tent-d1")
    trace = cdoo_run(fn, eps=0.25, budget=3)
    assert len(trace) == 3
    assert math.isinf(sigma_from_trace(trace))


def test_certified_prefix_matches_uncertified_run():
    # same expansion rule, so queries agree point for point
    fn = lc.get_function("multibump-d1")
    certified = cdoo_run(fn, eps=1e-9, budget=300)
    plain = ncdoo_run(fn, budget=300)
    assert np.array_equal(certified.queries, plain.queries)
    assert np.array_equal(certified.values, plain.values)
    assert plain.certificates is None
    assert plain.eps is None


def test_certificates_valid_on_every_registry_function():
    for fn in lc.registry():
        budget = 600 if fn.dim == 1 else 2000
        trace = cdoo_run(fn, eps=0.01, budget=budget)
        check = certificate_validity(trace, fn.known_max)
        assert check.ok, (fn.label, check)
        assert recommendations_consistent(trace), fn.label


def test_certificates_valid_under_rescaled_bound():
    fn = lc.get_function("halftent-d1", lip=3.0)
    trace = cdoo_run(fn, eps=0.05, budget=2000)
    assert certificate_validity(trace, fn.known_max).ok
    assert sigma_from_trace(trace) < math.inf


def test_sigma_doubles_on_constant_target():
    fn = lc.get_function("constant-d1")
    for j in (1, 2, 3, 6):
        trace = cdoo_run(fn, eps=2.0**-j, budget=10_000)
        assert sigma_from_trace(trace) == 2 ** (j + 1), j


def test_uncertified_recommendation_is_immediate_on_constant():
    fn = lc.get_function("constant-d1")
    trace = ncdoo_run(fn, budget=64)
    assert len(trace) == 64
    assert zeta_from_trace(trace, fn.known_max, 2.0**-6) == 1


def test_lip_below_required_is_rejected():
    fn = lc.get_function("tent-d1")
    with pytest.raises(ValueError):
        cdoo_run(fn, eps=0.25, budget=10, lip=0.5)


def test_larger_lip_is_allowed_and_still_valid():
    fn = lc.get_function("tent-d1")
    trace = cdoo_run(fn, eps=0.25, budget=200, lip=4.0)
    assert certificate_validity(trace, fn.known_max).ok


def test_partition_dimension_mismatch():
    fn = lc.get_function("tent-d1")
    wrong = BisectionPartition(Box(np.zeros(2), np.ones(2)))
    with pytest.raises(ValueError):
        cdoo_run(fn, eps=0.25, budget=10, partition=wrong)


def test_invalid_budget_and_eps():
    fn = lc.get_function("tent-d1")
    with pytest.raises(ValueError):
        cdoo_run(fn, eps=0.25, budget=0)
    with pytest.raises(ValueError):
        cdoo_run(fn, eps=0.0, budget=10)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_evaluation_raises_instead_of_certifying(poison, bad):
    # max(0.0, nan) is 0.0, so a poisoned value used to become a zero
    # certificate and a "certified" stop
    fn = poison(lc.get_function("tent-d1"), [0.25, 0.75], bad)
    with pytest.raises(ValueError, match=r"non-finite value .* at x = \[0\.25\]"):
        cdoo_run(fn, eps=1 / 16, budget=1000)


def test_depth_cap_freezes_instead_of_crashing():
    # a 1-d run long enough to drive the peak cell to the index depth
    # cap must keep going on other cells and stay sound
    fn = lc.get_function("tent-d1")
    trace = ncdoo_run(fn, budget=5000)
    assert len(trace) == 5000
    certified = cdoo_run(fn, eps=1e-19, budget=5000)
    assert certificate_validity(certified, fn.known_max).ok


def test_queries_stay_in_domain():
    for label in ("multibump-d2", "cone-d2"):
        fn = lc.get_function(label)
        trace = cdoo_run(fn, eps=0.05, budget=2000)
        for q in trace.queries:
            assert fn.domain.contains(q), (label, q)


def test_cone_run_certifies_through_the_enclosing_box():
    # ball domain: infeasible outside-cells are pruned, the rest is the
    # usual box machinery with the sup-converted bound
    fn = lc.get_function("cone-d2")
    trace = cdoo_run(fn, eps=0.1, budget=4000)
    assert trace.lip_bound == pytest.approx(math.sqrt(2.0))
    assert sigma_from_trace(trace) < math.inf
    assert certificate_validity(trace, fn.known_max).ok
