"""Layer decomposition, packing-sum complexity estimates, and the
integral bracket around them."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lipcert as lc
from lipcert import (
    Box,
    ComplexityReport,
    SUP,
    estimate_sc,
    integral_estimate,
    layer_decomposition,
    report_to_json,
    sandwich_check,
)
from lipcert import TestFunction as LipschitzFunction
from lipcert.complexity import layers
from lipcert.core import write_json


def make_cone_mix(peaks, heights, lip=1.0):
    """Max of downward cones; the exact maximum is the tallest peak."""
    peaks = np.asarray(peaks, dtype=float)
    heights = np.asarray(heights, dtype=float)

    def evaluator(x):
        return (heights[None, :] - lip * np.abs(x - peaks[None, :])).max(axis=1)

    return LipschitzFunction(
        label="cone-mix",
        domain=Box(np.zeros(1), np.ones(1)),
        norm=SUP,
        lip_bound=lip,
        evaluator=evaluator,
        known_max=float(heights.max()),
    )


def test_decomposition_tent_structure():
    dec = layer_decomposition(lc.get_function("tent-d1"), 0.25)
    assert dec.points.shape == (32, 1)
    xs = dec.points.ravel()
    assert np.all(np.diff(xs) > 0)
    assert np.allclose(dec.values, -np.abs(xs - 0.5))
    assert np.allclose(dec.gaps, np.abs(xs - 0.5))
    assert dec.scale.schedule == (1.0, 0.5, 0.25)
    assert [int((dec.labels == k).sum()) for k in range(3)] == [16, 0, 16]
    assert np.array_equal(dec.labels, dec.scale.classify(dec.gaps))
    assert dec.max_used == 0.0 and dec.max_is_exact
    assert dec.cell_volume == 1 / 32
    assert dec.lip == 1.0 and dec.norm.kind == "sup"


def test_decomposition_ball_domain_filters_points():
    cone = lc.get_function("cone-d2")
    dec = layer_decomposition(cone, 0.5)
    assert np.all(cone.domain.contains(dec.points))
    # grid cells tile the enclosing box, so kept cells approximate the
    # disc area from inside
    area = len(dec.points) * dec.cell_volume
    assert abs(area - math.pi) / math.pi < 0.05


def test_decomposition_argument_guards(monkeypatch):
    tent = lc.get_function("tent-d1")
    with pytest.raises(ValueError):
        layer_decomposition(tent, 0.0)
    with pytest.raises(ValueError):
        layer_decomposition(tent, -0.5)
    with pytest.raises(ValueError):
        layer_decomposition(tent, 0.25, grid_step=0.25 / 4)
    # exactly the finest admissible step is fine
    dec = layer_decomposition(tent, 0.25, grid_step=0.25 / 8)
    assert len(dec.points) == 32
    monkeypatch.setattr(layers, "_MAX_GRID_POINTS", 100)
    with pytest.raises(ValueError):
        layer_decomposition(tent, 1e-4)


def test_estimated_max_is_flagged_and_safe():
    fn = make_cone_mix([0.3], [0.0])
    fn = LipschitzFunction(
        label=fn.label, domain=fn.domain, norm=fn.norm, lip_bound=fn.lip_bound,
        evaluator=fn.evaluator, known_max=None,
    )
    dec = layer_decomposition(fn, 0.25)
    assert not dec.max_is_exact
    assert dec.max_used >= dec.values.max()
    # margin is one Lipschitz cell diagonal above the grid maximum
    assert dec.max_used <= dec.values.max() + dec.lip * dec.cell_volume ** (1 / fn.dim) + 1e-12


def test_tent_report_frozen_values():
    rep = estimate_sc(lc.get_function("tent-d1"), 0.25)
    assert rep.packing_counts == (2, 0, 2)
    assert rep.sc == 4 and rep.snc == 2
    assert rep.eps0 == 1.0 and rep.eps == 0.25 and rep.m_eps == 2
    assert rep.schedule == (1.0, 0.5, 0.25)
    assert rep.c_lower == 0.5 and rep.c_upper == 128.0
    assert rep.gamma == 0.5
    assert rep.method == "grid" and rep.seed is None and rep.integral_stderr is None
    assert rep.lip == 1.0 and rep.norm_kind == "sup"
    assert sandwich_check(rep).ok
    # midpoint quadrature against the closed-form integral of
    # 1 / (|x - 1/2| + 1/4) over [0, 1]
    assert rep.integral == pytest.approx(2 * math.log(3), rel=2e-3)


def test_constant_reports_have_exact_integrals():
    for eps in (0.5, 0.25, 0.125):
        rep = estimate_sc(lc.get_function("constant-d1"), eps)
        # flat gap makes the quadrature exact in binary arithmetic
        assert rep.integral == 1.0 / eps
        assert rep.snc == 0
        assert rep.packing_counts[1:] == (0,) * rep.m_eps
    rep2 = estimate_sc(lc.get_function("constant-d2"), 0.25)
    assert rep2.integral == 16.0
    assert rep2.packing_counts == (16, 0, 0)
    assert rep2.snc == 0


def test_slope_integral_matches_log_closed_form():
    rep = estimate_sc(lc.get_function("slope-d1"), 0.01, grid_step=1e-4)
    assert rep.integral_stderr is None
    assert rep.integral == pytest.approx(math.log(101.0), rel=5e-3)


@pytest.mark.parametrize(
    "label,eps", [("slope-d1", 0.01), ("cone-d2", 0.1), ("multibump-d2", 0.05)]
)
def test_grid_integral_is_the_estimates_integral(label, eps):
    fn = lc.get_function(label)
    est, stderr = integral_estimate(fn, eps, method="grid")
    assert stderr is None
    assert est == estimate_sc(fn, eps).integral


def test_montecarlo_integral_route():
    tent = lc.get_function("tent-d1")
    est, stderr = integral_estimate(tent, 0.25, method="montecarlo", mc_samples=20000, seed=1)
    assert stderr is not None and stderr > 0
    assert abs(est - 2 * math.log(3)) <= 5 * stderr
    again, _ = integral_estimate(tent, 0.25, method="montecarlo", mc_samples=20000, seed=1)
    assert again == est
    other, _ = integral_estimate(tent, 0.25, method="montecarlo", mc_samples=20000, seed=2)
    assert other != est

    rep = estimate_sc(tent, 0.25, integral_method="montecarlo", mc_samples=5000, seed=7)
    assert rep.method == "montecarlo" and rep.seed == 7
    assert rep.integral_stderr is not None

    with pytest.raises(ValueError):
        integral_estimate(tent, 0.25, method="simpson")
    with pytest.raises(ValueError):
        integral_estimate(tent, 0.25, method="montecarlo", mc_samples=1)
    no_max = make_cone_mix([0.5], [0.0])
    no_max = LipschitzFunction(
        label="x", domain=no_max.domain, norm=SUP, lip_bound=1.0,
        evaluator=no_max.evaluator, known_max=None,
    )
    with pytest.raises(ValueError):
        integral_estimate(no_max, 0.25, method="montecarlo")


def test_sandwich_check_rederivation_and_slack(monkeypatch):
    rep = estimate_sc(lc.get_function("tent-d1"), 0.25)
    verdict = sandwich_check(rep)
    assert verdict.ok and verdict.lower_ok and verdict.upper_ok
    assert json.loads(report_to_json(rep))["verdicts"] == {
        "sandwich_lower": True, "sandwich_upper": True, "layers_within_total": True,
    }
    assert verdict.lower_value == rep.c_lower * rep.integral
    assert verdict.upper_value == rep.c_upper * rep.integral
    assert verdict.sc == rep.sc
    # zero slack forces the lower comparison against nothing at all
    monkeypatch.setattr(layers, "_SANDWICH_SLACK", 0.0)
    assert not sandwich_check(rep).lower_ok
    assert json.loads(report_to_json(rep))["verdicts"]["sandwich_lower"] is False


def test_sandwich_check_requires_gamma():
    rep = estimate_sc(lc.get_function("tent-d1"), 0.25)
    bare = ComplexityReport(
        function=rep.function, eps0=rep.eps0, eps=rep.eps, m_eps=rep.m_eps,
        schedule=rep.schedule, packing_counts=rep.packing_counts, sc=rep.sc,
        snc=rep.snc, integral=rep.integral, method=rep.method, seed=rep.seed,
        gamma=None, c_lower=rep.c_lower, c_upper=rep.c_upper,
        lip=rep.lip, norm_kind=rep.norm_kind,
    )
    with pytest.raises(ValueError):
        sandwich_check(bare)


def test_gamma_validation_and_default():
    tent = lc.get_function("tent-d1")
    assert estimate_sc(tent, 0.25).gamma == 0.5
    assert estimate_sc(lc.get_function("cone-d2"), 0.5).gamma == 0.25
    with pytest.raises(ValueError):
        estimate_sc(tent, 0.25, gamma=0.0)
    with pytest.raises(ValueError):
        estimate_sc(tent, 0.25, gamma=1.5)
    rep = estimate_sc(tent, 0.25, gamma=1.0)
    assert rep.c_upper == 64.0


def test_value_shift_leaves_report_unchanged():
    base = make_cone_mix([0.25, 0.7], [0.0, -0.125])

    def shifted_eval(x, inner=base.evaluator):
        return inner(x) + 10.0

    shifted = LipschitzFunction(
        label="cone-mix+10", domain=base.domain, norm=SUP, lip_bound=1.0,
        evaluator=shifted_eval, known_max=10.0,
    )
    rep_a = estimate_sc(base, 0.125)
    rep_b = estimate_sc(shifted, 0.125)
    assert rep_a.packing_counts == rep_b.packing_counts
    assert rep_a.sc == rep_b.sc and rep_a.snc == rep_b.snc
    assert rep_a.integral == pytest.approx(rep_b.integral, rel=1e-12)


def test_norm_override_converts_bound():
    rep = estimate_sc(lc.get_function("cone-d2"), 0.5, norm=SUP)
    assert rep.norm_kind == "sup"
    assert rep.lip == pytest.approx(math.sqrt(2.0))


def test_cone_report_bracket_constants():
    rep = estimate_sc(lc.get_function("cone-d2"), 0.5)
    assert rep.c_lower == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert rep.c_upper == pytest.approx(65536.0 / math.pi, rel=1e-12)
    assert sandwich_check(rep).ok


def test_report_json_layout(tmp_path):
    rep = estimate_sc(lc.get_function("tent-d1"), 0.25)
    doc = json.loads(report_to_json(rep))
    assert list(doc) == [
        "eps0", "eps", "m_eps", "schedule", "packing_counts", "SC", "SNC",
        "integral", "method", "seed", "gamma", "c", "C", "verdicts",
    ]
    assert doc["SC"] == 4 and doc["SNC"] == 2
    assert doc["packing_counts"] == [2, 0, 2]
    assert doc["c"] == 0.5 and doc["C"] == 128.0
    assert doc["verdicts"]["sandwich_lower"] is True

    target = tmp_path / "report.json"
    write_json(report_to_json(rep), target)
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == doc


@given(
    peaks=st.lists(
        st.integers(min_value=0, max_value=64).map(lambda k: k / 64),
        min_size=1, max_size=4, unique=True,
    ),
    drops=st.lists(
        st.integers(min_value=0, max_value=32).map(lambda k: k / 64),
        min_size=1, max_size=4,
    ),
)
@settings(deadline=None, max_examples=25)
def test_grid_integral_against_trapezoid_oracle(peaks, drops):
    n = min(len(peaks), len(drops))
    heights = [-d for d in drops[:n]]
    if max(heights) != 0.0:
        heights[0] = 0.0
    fn = make_cone_mix(peaks[:n], heights)
    eps = 0.25
    est = estimate_sc(fn, eps, grid_step=eps / 64).integral
    xs = np.linspace(0.0, 1.0, 20001)
    gaps = fn.known_max - fn(xs[:, None])
    oracle = np.trapezoid(1.0 / (gaps + eps), xs)
    assert est == pytest.approx(float(oracle), rel=5e-3)


@given(level=st.integers(min_value=1, max_value=7))
@settings(deadline=None, max_examples=7)
def test_report_invariants_across_scales(level):
    rep = estimate_sc(lc.get_function("multibump-d1"), 2.0 ** (-level))
    assert len(rep.packing_counts) == rep.m_eps + 1
    assert rep.sc == sum(rep.packing_counts)
    assert rep.snc == rep.sc - rep.packing_counts[0]
    assert rep.snc <= rep.sc
    assert json.loads(report_to_json(rep))["verdicts"]["layers_within_total"] is True
    assert sandwich_check(rep).ok
