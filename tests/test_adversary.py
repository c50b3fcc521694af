"""Cone perturbations and audits of certified stops."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lipcert as lc
from lipcert import SUP, audit_certified_run, audit_to_json, cdoo_run, sigma_from_trace
from lipcert import adversary
from lipcert.core import write_json

unit_interval = st.integers(min_value=0, max_value=1000).map(lambda k: k / 1000)


def test_bump_shape_frozen_values():
    bump = adversary._bump(
        center=np.array([0.5]), peak=0.25, radius=0.5, slope=0.5, norm=SUP
    )
    assert bump(np.array([0.5])) == 0.25
    assert bump(np.array([0.75])) == 0.125
    assert bump(np.array([1.0])) == 0.0
    # identically zero outside the support, not merely small
    far = bump(np.array([[0.999], [0.0], [1.0]]))
    assert np.array_equal(far[1:], np.zeros(2))


@given(x=unit_interval, y=unit_interval)
@settings(deadline=None)
def test_bump_respects_its_slope_and_the_combined_bound(x, y):
    # sized as the audit sizes it at eps_tilde = 1/128: the slope is the
    # headroom between the declared bound and the exact constant
    half = lc.get_function("halftent-d1")
    slope = half.lip_bound - half.exact_lip
    peak = 8.0 / 128
    bump = adversary._bump(np.array([0.375]), peak, peak / slope, slope, half.norm)
    gx, gy = bump(np.array([x])), bump(np.array([y]))
    assert abs(gx - gy) <= slope * abs(x - y) + 1e-12
    for sign in (+1.0, -1.0):
        fx = float(half(np.array([x]))) + sign * gx
        fy = float(half(np.array([y]))) + sign * gy
        assert abs(fx - fy) <= half.lip_bound * abs(x - y) + 1e-12


def test_audit_halftent_one_before_the_stop():
    rep = audit_certified_run(lc.get_function("halftent-d1"), 1 / 16)
    assert rep.algorithm == "cdoo" and rep.function == "halftent-d1"
    assert rep.case_fired == "outside-ball"
    assert rep.eps_tilde == 1 / 2048
    assert rep.n == 23
    assert rep.coincidence is True
    assert rep.regret_achieved == 1 / 256
    assert rep.regret_achieved >= 3 * rep.eps_tilde
    assert rep.headroom_factor == 32.0
    # ladder climbs the schedule first, then halves below the target
    assert rep.scales_tried[:5] == (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)
    assert rep.scales_tried[-1] == rep.eps_tilde


def test_audit_at_the_stop_only_fires_below_target(monkeypatch):
    half = lc.get_function("halftent-d1")
    sigma = int(sigma_from_trace(cdoo_run(half, 1 / 16, 5000), 1 / 16))
    assert sigma == 24
    rep = audit_certified_run(half, 1 / 16, n_override=sigma)
    assert rep.case_fired != "inconclusive"
    assert rep.eps_tilde < 1 / 16
    monkeypatch.setattr(adversary, "_EXTRA_HALVINGS", 0)
    narrow = audit_certified_run(half, 1 / 16, n_override=sigma)
    assert narrow.case_fired == "inconclusive"
    assert narrow.eps_tilde is None and narrow.center is None
    assert narrow.coincidence is None and narrow.regret_achieved is None
    assert narrow.scales_tried == (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)


def test_audit_other_algorithm_routes():
    half = lc.get_function("halftent-d1")
    ps = audit_certified_run(half, 1 / 16, algorithm="ps1d", budget=5000)
    assert ps.case_fired == "outside-ball"
    assert ps.eps_tilde == 1 / 512 and ps.n == 8
    assert ps.coincidence is True
    assert ps.regret_achieved >= 3 * ps.eps_tilde

    grid = audit_certified_run(
        lc.get_function("multibump-d2"), 1 / 8, algorithm="psgrid", budget=3000
    )
    assert grid.case_fired == "outside-ball"
    assert grid.coincidence is True
    assert grid.regret_achieved >= 3 * grid.eps_tilde


def test_audit_argument_guards():
    half = lc.get_function("halftent-d1")
    with pytest.raises(ValueError):
        audit_certified_run(lc.get_function("tent-d1"), 1 / 16)
    nameless = lc.TestFunction(
        label="x", domain=half.domain, norm=SUP, lip_bound=1.0,
        evaluator=half.evaluator, exact_lip=0.5,
    )
    with pytest.raises(ValueError):
        audit_certified_run(nameless, 1 / 16)
    with pytest.raises(ValueError):
        audit_certified_run(half, 1 / 16, algorithm="annealing")
    with pytest.raises(ValueError):
        audit_certified_run(half, 1 / 16, n_override=0)
    with pytest.raises(ValueError):
        audit_certified_run(half, 1 / 16, budget=3)


def test_audit_rejects_an_unqueried_recommendation(monkeypatch):
    # the regret is proven for a recommendation outside the bump's
    # support, which the sites' distance to the queries guarantees only
    # when the recommendation is a query
    half = lc.get_function("halftent-d1")
    honest = adversary.ALGORITHMS["cdoo"]

    def off_the_queries(fn, eps, budget):
        trace = honest(fn, eps, budget)
        return replace(trace, rec_points=trace.rec_points + 1e-7)

    monkeypatch.setitem(adversary.ALGORITHMS, "cdoo", off_the_queries)
    with pytest.raises(ValueError, match="not one of them"):
        audit_certified_run(half, 1 / 16)


def test_audit_json_layout(tmp_path):
    rep = audit_certified_run(lc.get_function("halftent-d1"), 1 / 16)
    doc = json.loads(audit_to_json(rep))
    assert list(doc) == [
        "algorithm", "function", "eps", "eps_tilde", "K_adv", "center", "n",
        "case_fired", "coincidence", "regret_achieved",
    ]
    assert doc["K_adv"] == 32.0
    assert doc["eps_tilde"] == 1 / 2048
    assert isinstance(doc["center"], list)
    target = tmp_path / "audit.json"
    write_json(audit_to_json(rep), target)
    assert json.loads(target.read_text()) == doc


def test_audit_coarsens_grids_past_the_cap(monkeypatch):
    monkeypatch.setattr(adversary, "_GRID_CAP", 100)
    steps = []

    def recording(box, step):
        steps.append(step)
        return lc.midpoint_grid(box, step)

    monkeypatch.setattr(adversary, "midpoint_grid", recording)
    rep = audit_certified_run(lc.get_function("halftent-d1"), 1 / 16)
    assert rep.case_fired == "outside-ball"
    assert rep.coincidence is True and rep.regret_achieved > 0
    # each grid starts at half the bump radius, 8 eps_tilde for this
    # slope of 1/2, and grows by 1.5 until the unit interval fits the cap
    firsts = [8.0 * eps_tilde for eps_tilde in rep.scales_tried]
    assert len(steps) == len(firsts)
    assert all(math.ceil(1.0 / step - 1e-12) <= 100 for step in steps)
    assert any(step > first for step, first in zip(steps, firsts))
    assert all(step == first or step / 1.5 < 1 / 100 for step, first in zip(steps, firsts))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_audit_sizes_grids_past_float_range_without_a_warning(monkeypatch):
    # 600 halvings below 1/8 give axis counts near 1e180, finite, whose
    # product is not; with no cap the sizing runs once per scale, and
    # empty grids make every scale inconclusive
    monkeypatch.setattr(adversary, "_EXTRA_HALVINGS", 600)
    monkeypatch.setattr(adversary, "_GRID_CAP", math.inf)
    steps = []

    def empty(box, step):
        steps.append(step)
        return np.empty((0, box.dim)), np.full(box.dim, step)

    monkeypatch.setattr(adversary, "midpoint_grid", empty)
    rep = audit_certified_run(lc.get_function("multibump-d2"), 1 / 8)
    assert rep.case_fired == "inconclusive"
    assert len(steps) == len(rep.scales_tried) and steps[-1] < 1e-154
