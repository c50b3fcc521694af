"""Layer decomposition, packing-sum complexity estimates, and the
integral bracket around them."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lipcert as lc
from lipcert import (
    EUCLIDEAN,
    L1,
    SUP,
    Ball,
    Box,
    ComplexityScale,
    LayerDecomposition,
    estimate_sc,
    integral_estimate,
    layer_decomposition,
    report_to_json,
    sandwich_check,
)
from lipcert import TestFunction as LipschitzFunction
from lipcert.complexity import layers
from lipcert.core import write_json
from lipcert.core.geometry import _grid_axes
from seeded_objectives import peaks


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
    # zero slack forces the lower comparison against nothing at all
    monkeypatch.setattr(layers, "_SANDWICH_SLACK", 0.0)
    assert not sandwich_check(rep).lower_ok
    assert json.loads(report_to_json(rep))["verdicts"]["sandwich_lower"] is False


def test_gamma_is_two_to_the_minus_d_on_boxes_and_balls():
    assert estimate_sc(lc.get_function("tent-d1"), 0.25).gamma == 0.5
    assert estimate_sc(lc.get_function("cone-d2"), 0.5).gamma == 0.25
    rep = estimate_sc(_cone_3d(Ball(np.zeros(3), 1.0, EUCLIDEAN)), 2.0**-1)
    assert rep.gamma == 0.125
    # C = 1 / (gamma * volume of the l1 ball of radius 1 / (128 L))
    assert rep.c_upper == 1.0 / (0.125 * L1.ball_volume(1.0 / 128.0, 3))


def _counted(fn):
    calls = []

    def counting(x, inner=fn.evaluator):
        calls.append(len(x))
        return inner(x)

    return dataclasses.replace(fn, evaluator=counting), calls


@pytest.mark.parametrize(
    "known_max, kwargs, message",
    [
        (True, {"integral_method": "simpson"}, "unknown integral method 'simpson'"),
        (False, {"integral_method": "montecarlo"}, "needs exact maximum metadata"),
        (True, {"integral_method": "montecarlo", "mc_samples": 1}, "at least two samples"),
        (True, {"integral_method": "montecarlo", "eps": math.nan}, "accuracy target"),
    ],
    ids=["simpson", "montecarlo-without-max", "one-sample", "nan-target"],
)
def test_estimate_refuses_an_integral_before_evaluating_the_grid(known_max, kwargs, message):
    # each refusal used to come after the whole grid was evaluated and packed
    fn = lc.get_function("multibump-d2")
    if not known_max:
        fn = dataclasses.replace(fn, known_max=None)
    fn, calls = _counted(fn)
    with pytest.raises(ValueError, match=message):
        estimate_sc(fn, **{"eps": 2.0**-6, **kwargs})
    assert calls == []


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
def test_montecarlo_integral_refuses_a_bad_target_before_sampling(eps):
    # it used to return (nan, nan) for nan and (0.0, 0.0) for inf
    fn, calls = _counted(lc.get_function("tent-d1"))
    with pytest.raises(ValueError, match="accuracy target must be positive and finite"):
        integral_estimate(fn, eps, method="montecarlo")
    assert calls == []


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


def _whole_grid(axes):
    """The product grid of ``axes`` in lexicographic order, by meshgrid."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _oracle_decomposition(fn, eps, norm=None, grid_step=None):
    """The one-shot decomposition the blocked one replaced: the whole
    midpoint grid built by meshgrid, filtered, evaluated and classified
    at once.  It carries its meshgrid rows as its ``points``, put in the
    property's cache, so that neither the comparison nor the oracle
    packing derives them."""
    if norm is None:
        norm = fn.norm
    lip = lc.convert_lip_bound(fn.lip_bound, fn.norm.kind, norm.kind, fn.dim)
    if grid_step is None:
        grid_step = (eps / lip) / 8.0
    box = fn.domain.enclosing_box()
    counts = np.maximum(1.0, np.ceil(box.edges / grid_step - 1e-12)).astype(int)
    steps = box.edges / counts
    axes = [box.lower[j] + (np.arange(counts[j]) + 0.5) * steps[j] for j in range(box.dim)]
    points = _whole_grid(axes)
    inside = None
    if fn.domain is not box:
        inside = np.asarray(fn.domain.contains(points))
        points = points[inside]
    values = np.asarray(fn(points), dtype=float)
    if fn.known_max is not None:
        max_used, max_is_exact = float(fn.known_max), True
    else:
        max_used = float(values.max()) + lip * float(norm.length(steps))
        max_is_exact = False
    gaps = np.maximum(max_used - values, 0.0)
    scale = ComplexityScale.from_accuracy(lip * lc.diameter(fn.domain, norm), eps)
    if scale.m_eps == 0:
        labels = np.zeros(gaps.shape, dtype=int)
    else:
        pos = np.searchsorted(np.asarray(scale.schedule[::-1]), gaps, side="left")
        pos = np.minimum(pos, scale.m_eps)
        labels = np.where(pos == 0, 0, scale.m_eps - pos + 1)
    assert labels.max(initial=0) <= np.iinfo(np.uint8).max
    decomposition = LayerDecomposition(
        values=values, gaps=gaps, labels=labels.astype(np.uint8), scale=scale, lip=lip,
        norm=norm, max_used=max_used, max_is_exact=max_is_exact,
        cell_volume=float(np.prod(steps)), axes=tuple(axes), inside=inside,
    )
    vars(decomposition)["points"] = points
    return decomposition


def _oracle_packing_counts(decomposition):
    """The per-layer packing the grid packing replaced: each layer's
    points compressed out of the decomposition and packed by
    greedy_packing."""
    scale = decomposition.scale
    counts = []
    for label in range(scale.m_eps + 1):
        pts = np.compress(decomposition.labels == label, decomposition.points, axis=0)
        if len(pts) == 0:
            counts.append(0)
            continue
        radius = scale.accuracy_for_class(label) / decomposition.lip
        counts.append(len(lc.greedy_packing(pts, radius, decomposition.norm)))
    return counts


def _oracle_grid_integral(decomposition, eps):
    integrand = 1.0 / (decomposition.gaps + eps) ** decomposition.points.shape[1]
    return float(integrand.sum() * decomposition.cell_volume)


def _cone_3d(domain):
    """A downward l1 cone in three dimensions, on a box or a ball."""
    peak = np.array([0.3, -0.2, 0.1])
    return LipschitzFunction(
        label="cone-d3", domain=domain, norm=L1, lip_bound=1.0,
        evaluator=lambda x: -np.abs(x - peak).sum(axis=1), known_max=0.0,
    )


_BLOCKED_CASES = [
    ("tent-d1", 2.0**-6),
    ("multibump-d1", 2.0**-5),
    ("multibump-d2", 2.0**-4),
    ("cone-d2", 2.0**-4),
    ("cone-d2 no max", 2.0**-4),
    ("cone-d3 box", 2.0**-2),
    ("cone-d3 ball", 2.0**-2),
]


def _blocked_case(name):
    if name == "cone-d3 box":
        return _cone_3d(Box(-np.ones(3), np.ones(3)))
    if name == "cone-d3 ball":
        return _cone_3d(Ball(np.zeros(3), 1.0, EUCLIDEAN))
    fn = lc.get_function(name.split()[0])
    return dataclasses.replace(fn, known_max=None) if name.endswith("no max") else fn


# 7 divides none of the grids, 64 divides the box grids of every case
# but cone-d3, and the default block holds each grid whole.
@pytest.mark.parametrize("block", [7, 64, None])
@pytest.mark.parametrize("name,fraction", _BLOCKED_CASES)
def test_blocked_decomposition_is_the_one_shot_one(monkeypatch, name, fraction, block):
    fn = _blocked_case(name)
    eps = fn.lip_bound * lc.diameter(fn.domain, fn.norm) * fraction
    if block is not None:
        monkeypatch.setattr(layers, "_GRID_BLOCK", block)
    dec = layer_decomposition(fn, eps)
    oracle = _oracle_decomposition(fn, eps)
    if block == 7:
        assert round(fn.domain.enclosing_box().volume() / dec.cell_volume) % 7 != 0
    assert (dec.inside is None) == (fn.domain is fn.domain.enclosing_box())
    assert len(dec.axes) == len(oracle.axes)
    pairs = [(f.name, getattr(dec, f.name), getattr(oracle, f.name))
             for f in dataclasses.fields(LayerDecomposition) if f.name != "axes"]
    pairs += [(f"axes[{j}]", got, want) for j, (got, want) in enumerate(zip(dec.axes, oracle.axes))]
    assert "points" not in vars(dec)
    pairs.append(("points", dec.points, vars(oracle)["points"]))
    assert dec.labels.dtype == np.uint8
    for name, got, want in pairs:
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.flags.c_contiguous, name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name
    report = report_to_json(estimate_sc(fn, eps))
    monkeypatch.setattr(layers, "layer_decomposition", _oracle_decomposition)
    monkeypatch.setattr(layers, "_grid_integral", _oracle_grid_integral)
    monkeypatch.setattr(layers, "_packing_counts", _oracle_packing_counts)
    assert report == report_to_json(estimate_sc(fn, eps))


def _traced_peak(call):
    """The result of ``call()`` and the peak of memory traced during it,
    above what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_decomposition_memory_is_its_output():
    # The decomposition holds 17 bytes per point at d = 2 (values, gaps
    # and one-byte labels).  On this 1,048,576-point grid the one-shot
    # version peaked at 88.0 bytes per point under tracemalloc, on the
    # full-grid temporaries of the meshgrid and of the evaluator; built
    # and evaluated in blocks it peaked at 40.02 while it stored the
    # points and int64 labels, and at 17.6 without them.
    fn = lc.get_function("multibump-d2")
    eps = fn.lip_bound * lc.diameter(fn.domain, fn.norm) * 2.0**-7
    dec, peak = _traced_peak(lambda: layer_decomposition(fn, eps))
    assert len(dec.values) == 1 << 20
    assert dec.labels.dtype == np.uint8
    assert peak / len(dec.values) < 20.0


def test_estimate_memory_is_the_decomposition_and_the_integrand():
    # estimate_sc adds to the decomposition's 17 bytes per point the
    # grid integral's float integrand, 8; a layer's boolean image and
    # the packing's memo, alive one layer at a time, are smaller.  On
    # this 1,048,576-point grid it peaked at 48.0 bytes per point under
    # tracemalloc while the decomposition stored the points and int64
    # labels, and at 25.0 without them.
    fn = lc.get_function("multibump-d2")
    eps = fn.lip_bound * lc.diameter(fn.domain, fn.norm) * 2.0**-7
    report, peak = _traced_peak(lambda: estimate_sc(fn, eps))
    assert sandwich_check(report).ok
    assert peak / (1 << 20) < 27.0


def test_estimate_and_grid_integral_never_read_points(monkeypatch):
    def unread(self):
        raise AssertionError("points read")

    monkeypatch.setattr(LayerDecomposition, "points", property(unread))
    for name in ("multibump-d2", "cone-d2", "multibump-d1"):
        fn = lc.get_function(name)
        eps = fn.lip_bound * lc.diameter(fn.domain, fn.norm) * 2.0**-4
        estimate_sc(fn, eps)
        integral_estimate(fn, eps, method="grid")
    ball = _cone_3d(Ball(np.zeros(3), 1.0, EUCLIDEAN))
    estimate_sc(ball, 2.0**-1)
    integral_estimate(ball, 2.0**-1, method="grid")


def test_greedy_packing_memory_is_the_row_loop_plus_one_column_copy():
    # On this 302,592-point layer the loop that gathered candidate rows
    # peaked at 40.01 bytes per point under tracemalloc, on the (n, 2)
    # quotient and int64 keys of its bucket build.  Gathering by column
    # adds one contiguous copy of the coordinates, 8 * d bytes per point,
    # and builds the keys one column at a time; it peaks at 48.01.
    fn = lc.get_function("multibump-d2")
    eps = fn.lip_bound * lc.diameter(fn.domain, fn.norm) * 2.0**-7
    dec = layer_decomposition(fn, eps)
    pts = dec.points[dec.labels == 4]
    radius = dec.scale.accuracy_for_class(4) / dec.lip
    del dec
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lc.greedy_packing(pts, radius, fn.norm)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(pts) == 302_592
    assert peak / len(pts) < 40.02 + 8 * pts.shape[1]


# --- grid packing against greedy_packing -----------------------------------


def _assert_grid_packing_is_greedy(image, axes, radius, norm):
    """The grid packing of ``image`` keeps greedy_packing's points of the
    grid rows where ``image`` is True, bit for bit and in order."""
    grid = _whole_grid(axes)
    want = lc.greedy_packing(grid[image.reshape(-1)], radius, norm)
    got = grid[layers._grid_packing(image.copy(), axes, radius, norm.kind)]
    assert got.shape == want.shape and np.array_equal(got, want), (norm.kind, radius)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["box", "sup", "euclidean", "l1"])
def test_every_layer_packs_as_greedy_packing(kind, d):
    # Peaks on moved and scaled boxes and balls, measured in each norm in
    # turn: about 128 grid points at d = 1 and 400 to 18,400 at d = 2, 3.
    for seed, norm in enumerate((SUP, EUCLIDEAN, L1)):
        fn, eps0 = peaks([seed, d, len(kind)], kind, d)
        eps = eps0 * (2.0**-4, 2.0**-2, 2.0**-1)[d - 1]
        dec = layer_decomposition(fn, eps, norm=norm)
        grid = _whole_grid(dec.axes)
        inside = np.ones(len(grid), dtype=bool) if dec.inside is None else dec.inside
        assert np.array_equal(grid[inside], dec.points)
        for label in range(dec.scale.m_eps + 1):
            image = layers._layer_image(dec, label)
            assert np.array_equal(image.reshape(-1)[inside], dec.labels == label)
            radius = dec.scale.accuracy_for_class(label) / dec.lip
            _assert_grid_packing_is_greedy(image, dec.axes, radius, norm)


# On a dyadic grid many pairs lie exactly at a radius that is a multiple
# of the step, so a block one index short on any side keeps a point that
# greedy_packing removes; radii run from below one step to past the
# grid's extent.
_DYADIC_RADII = [2.0**-6, 2.0**-4, 3 * 2.0**-4, 5 * 2.0**-4, 4.0]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_packing_on_dyadic_grids(d):
    # 32, 256 and 512 points
    axes, _ = _grid_axes(Box(np.zeros(d), np.full(d, (2.0, 1.0, 0.5)[d - 1])), 2.0**-4)
    shape = tuple(len(axis) for axis in axes)
    rng = np.random.default_rng(d)
    for density in (1.0, 0.6, 0.1):
        image = rng.random(shape) < density
        for norm in (SUP, EUCLIDEAN, L1):
            for radius in _DYADIC_RADII:
                _assert_grid_packing_is_greedy(image, axes, radius, norm)


def test_grid_packing_with_repeated_coordinates():
    # Floats near 1e16 are 2 apart, so the 128 entries of axis 0 take 33
    # distinct values, and the sorted axis holds runs of equal entries.
    axes, _ = _grid_axes(Box(np.array([1e16, 0.0]), np.array([1e16 + 64, 1.0])), 0.5)
    assert len(axes[0]) == 128 and len(np.unique(axes[0])) == 33
    rng = np.random.default_rng(16)
    for density in (1.0, 0.3):
        image = rng.random((128, 2)) < density
        for norm in (SUP, EUCLIDEAN, L1):
            for radius in (0.25, 1.0, 2.0, 6.0, 100.0):
                _assert_grid_packing_is_greedy(image, axes, radius, norm)


def test_grid_packing_of_one_point_and_of_none():
    axes, _ = _grid_axes(Box(np.zeros(2), np.ones(2)), 0.25)
    for norm in (SUP, EUCLIDEAN, L1):
        image = np.zeros((4, 4), dtype=bool)
        assert layers._grid_packing(image.copy(), axes, 0.5, norm.kind) == []
        image[2, 1] = True
        assert layers._grid_packing(image.copy(), axes, 0.5, norm.kind) == [9]
        _assert_grid_packing_is_greedy(image, axes, 0.5, norm)


def test_grid_packing_block_holds_a_pair_that_rounds_onto_the_radius():
    # fl(0.5 - -0.2) is 0.7, so greedy_packing drops 0.5 at radius 0.7,
    # though 0.5 lies past fl(-0.2 + 0.7) = 0.49999999999999994: a block
    # bounded by the radius alone would keep it.
    axes = (np.array([-0.2, 0.5]),)
    assert -0.2 + 0.7 < 0.5
    for norm in (SUP, EUCLIDEAN, L1):
        assert layers._grid_packing(np.ones(2, dtype=bool), axes, 0.7, norm.kind) == [0]
        _assert_grid_packing_is_greedy(np.ones(2, dtype=bool), axes, 0.7, norm)
