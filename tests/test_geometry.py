"""Norms, domains, and the shared grid helper."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipcert import (
    EUCLIDEAN,
    L1,
    SUP,
    Ball,
    Box,
    Norm,
    convert_lip_bound,
    diameter,
    midpoint_grid,
)
import lipcert as lc
from lipcert.cli.sweep import SweepConfig
from lipcert.core import check_run_args
from lipcert.core.geometry import _grid_axes, _grid_total, _norm_ratio
from lipcert.optimizers.piyavskii import Envelope1D, candidates_for


# squares of coordinates must not underflow, or the euclidean length
# degenerates to 0 and ratio checks become vacuous
coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64).map(
    lambda x: 0.0 if abs(x) < 1e-100 else x
)


@st.composite
def vectors(draw, max_dim=4):
    d = draw(st.integers(min_value=1, max_value=max_dim))
    return np.asarray(draw(st.lists(coords, min_size=d, max_size=d)))


def test_norm_lengths_match_numpy():
    v = np.array([3.0, -4.0, 0.5])
    assert SUP.length(v) == 4.0
    assert EUCLIDEAN.length(v) == pytest.approx(np.linalg.norm(v))
    assert L1.length(v) == pytest.approx(7.5)


def test_norm_length_batches():
    pts = np.array([[1.0, -2.0], [0.0, 0.0], [3.0, 3.0]])
    assert np.array_equal(SUP.length(pts), np.array([2.0, 0.0, 3.0]))
    assert np.allclose(L1.length(pts), np.array([3.0, 0.0, 6.0]))


@pytest.mark.parametrize(
    "norm, dim",
    [(norm, d) for norm in (SUP, EUCLIDEAN, L1) for d in range(1, 8)]
    + [(SUP, d) for d in range(8, 13)]
    + [(norm, d) for norm in (EUCLIDEAN, L1) for d in range(8, 13)],
)
def test_norm_length_along_columns_is_bitwise_equal(norm, dim):
    v = np.random.default_rng(dim).normal(size=(500, dim)) * np.logspace(-3, 3, dim)
    # rows stored column by column, as ps_run_grid passes its differences
    assert np.array_equal(norm.length(np.ascontiguousarray(v.T).T), norm.length(v))


def _row_reduction_length(kind, v):
    """``Norm.length`` as it was written before the column kernel: one
    numpy reduction over the last axis.  Kept here as the oracle."""
    v = np.asarray(v, dtype=float)
    if kind == "sup":
        out = np.abs(v).max(axis=-1)
    elif kind == "euclidean":
        out = np.sqrt((v * v).sum(axis=-1))
    else:
        out = np.abs(v).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def _column_sum_length(kind, v):
    """The euclidean or l1 norm with the coordinates added left to right,
    ``((t_0 + t_1) + t_2) + ...``: the oracle from d = 8 on, where numpy
    sums rows pairwise."""
    v = np.asarray(v, dtype=float)
    terms = v * v if kind == "euclidean" else np.abs(v)
    out = terms[..., 0]
    for j in range(1, v.shape[-1]):
        out = out + terms[..., j]
    out = np.sqrt(out) if kind == "euclidean" else out
    return float(out) if np.ndim(out) == 0 else out


def _same_bits(got, want):
    """Equal bit patterns, NaN matching NaN of any payload."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.array_equal(np.isnan(got), np.isnan(want)):
        return False
    keep = ~np.isnan(want)
    return np.array_equal(got[keep].view(np.uint64), want[keep].view(np.uint64))


_SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.0**-1060, 1e-160,
     1e155, -1e160, 1e300, 1.0, -1.0, 2.0**-53, 1.0 + 2.0**-52, 3.0],
)


def _awkward_rows(dim, seed, rows=300):
    """Rows mixing wide-range normals, repeated values and the specials:
    signed zeros, infinities, NaN, subnormals, squares that underflow or
    overflow, and sums that round differently in another order."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-12, 12, size=(rows, dim))
    special = rng.random((rows, dim)) < 0.3
    v[special] = rng.choice(_SPECIALS, size=int(special.sum()))
    v[: rows // 10] = v[: rows // 10, :1]  # rows of one repeated value
    return v


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", ("sup", "euclidean", "l1"))
@pytest.mark.parametrize("dim", range(1, 13))
def test_norm_length_matches_row_reductions(kind, dim):
    # numpy reduces rows of up to 7 entries, and takes a maximum of any
    # length, in column order; longer sums it adds pairwise
    norm = Norm(kind)
    oracle = _row_reduction_length if kind == "sup" or dim <= 7 else _column_sum_length
    v = _awkward_rows(dim, seed=dim)
    assert np.isnan(v).any() and np.isinf(v).any()
    layouts = {
        "(n, d)": v,
        "F-ordered view": np.asfortranarray(v),
        "transposed copy's view": np.ascontiguousarray(v.T).T,
        "strided rows": v[::3],
        "(n, k, d)": v.reshape(60, 5, dim),
        "(n, k, d) F-ordered": np.asfortranarray(v.reshape(60, 5, dim)),
        "0 rows": v[:0],
        "(0, k, d)": v[:0].reshape(0, 3, dim),
    }
    for name, batch in layouts.items():
        got = norm.length(batch)
        assert isinstance(got, np.ndarray), name
        assert _same_bits(got, oracle(kind, batch)), name
    for row in v[::7]:
        got = norm.length(row)
        assert type(got) is float
        assert _same_bits(got, oracle(kind, row)), row
    # a list of Python floats is converted like an array
    assert _same_bits(norm.length(v[1].tolist()), oracle(kind, v[1]))
    # NaN propagates through every norm
    assert math.isnan(norm.length(np.r_[np.full(dim - 1, np.inf), np.nan]))
    assert math.isnan(norm.length(np.r_[np.nan, np.full(dim - 1, 1.0)]))


@pytest.mark.parametrize("norm", (SUP, EUCLIDEAN, L1))
def test_norm_length_edge_shapes(norm):
    # a 0-d input is a vector of one coordinate
    assert norm.length(3.0) == norm.length(-3.0) == 3.0
    assert type(norm.length(np.float64(-2.5))) is float
    # a last axis of length 0 holds no vector, whatever the norm
    for empty in ([], np.zeros((4, 0)), np.zeros((0, 0)), np.zeros((2, 3, 0))):
        with pytest.raises(ValueError, match="dimension 0"):
            norm.length(empty)


def test_box_contains_matches_the_broadcast_test():
    box = Box(np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 2.0 + 2.0**-40]))
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.5, 3.0, size=(2000, 3))
    # corners, faces and points a rounding step outside them
    edge = np.array([box.lower, box.upper, np.nextafter(box.upper, 9), np.nextafter(box.lower, -9)])
    pick = rng.integers(0, 4, size=(400, 3))
    pts[:400] = edge[pick, np.arange(3)]
    pts[400:410, 1] = np.nan
    pts[410:420] = [0.5, -0.0, 2.0]
    want = np.logical_and(pts >= box.lower, pts <= box.upper).all(axis=-1)
    assert 0 < want.sum() < len(want)
    assert np.array_equal(box.contains(pts), want)
    assert np.array_equal(box.contains(np.asfortranarray(pts)), want)
    assert np.array_equal(box.contains(pts.reshape(50, 40, 3)), want.reshape(50, 40))
    assert box.contains(pts[:0]).shape == (0,)
    for p, w in zip(pts[::50], want[::50]):
        assert box.contains(p) is bool(w)
    with pytest.raises(ValueError, match="dimension 3"):
        box.contains(np.zeros(2))
    with pytest.raises(ValueError, match="dimension 3"):
        box.contains(np.zeros((4, 1)))


@given(vectors())
@settings(deadline=None)
def test_norm_ordering(v):
    # sup <= euclid <= l1 pointwise, for any vector.
    assert SUP.length(v) <= EUCLIDEAN.length(v) + 1e-12
    assert EUCLIDEAN.length(v) <= L1.length(v) + 1e-12


@given(vectors())
@settings(deadline=None)
def test_conversion_factors_dominate_quotients(v):
    # convert_lip_bound multiplies by the largest possible length ratio,
    # so the converted bound dominates the ratio any one vector attains.
    if np.all(v == 0):
        return
    d = len(v)
    for a in ("sup", "euclidean", "l1"):
        for b in ("sup", "euclidean", "l1"):
            factor = convert_lip_bound(1.0, a, b, d)
            na = Norm(a).length(v)
            nb = Norm(b).length(v)
            assert na <= factor * nb * (1 + 1e-12)


def test_conversion_factor_values():
    assert convert_lip_bound(1.0, "euclidean", "sup", 4) == pytest.approx(2.0)
    assert convert_lip_bound(1.0, "l1", "sup", 3) == 3.0
    assert convert_lip_bound(1.0, "l1", "euclidean", 4) == pytest.approx(2.0)
    assert convert_lip_bound(5.0, "sup", "l1", 7) == 5.0
    for kind in ("sup", "euclidean", "l1"):
        assert convert_lip_bound(2.5, kind, kind, 3) == 2.5


def test_norm_ratio_is_tight_on_witness_vectors():
    # The sup->l1 ratio d is attained by the all-ones vector; the
    # euclidean->sup ratio sqrt(d) likewise.
    d = 3
    ones = np.ones(d)
    assert L1.length(ones) / SUP.length(ones) == _norm_ratio("l1", "sup", d)
    assert EUCLIDEAN.length(ones) / SUP.length(ones) == pytest.approx(
        _norm_ratio("euclidean", "sup", d)
    )


def test_unit_ball_volumes():
    assert SUP.unit_ball_volume(3) == 8.0
    assert EUCLIDEAN.unit_ball_volume(2) == pytest.approx(math.pi)
    assert EUCLIDEAN.unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert L1.unit_ball_volume(2) == pytest.approx(2.0)
    assert L1.unit_ball_volume(3) == pytest.approx(4.0 / 3.0)


def test_ball_volume_scales_with_radius_power():
    assert EUCLIDEAN.ball_volume(2.0, 2) == pytest.approx(4.0 * math.pi)
    assert SUP.ball_volume(0.5, 3) == pytest.approx(1.0)


def test_box_basics():
    box = Box(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    assert box.dim == 2
    assert np.array_equal(box.edges, np.array([2.0, 2.0]))
    assert box.volume() == 4.0
    assert box.contains(np.array([0.0, -1.0]))
    assert box.contains(np.array([2.0, 1.0]))
    assert not box.contains(np.array([2.0, 1.0 + 1e-9]))


def test_box_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Box(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Box([0.0], [math.inf]),
        lambda: Box([-math.inf, 0.0], [1.0, 1.0]),
        # each bound is finite, but the edge overflows to inf
        lambda: Box([-1e308], [1e308]),
        lambda: Ball([math.nan, 0.0], 1.0, EUCLIDEAN),
        lambda: Ball([0.0, math.inf], 1.0, SUP),
        lambda: Ball([0.0, 0.0], math.inf, EUCLIDEAN),
        # a finite center and radius whose enclosing box overflows
        lambda: Ball([0.0, 0.0], 1e308, EUCLIDEAN),
        lambda: Ball([1.7e308, 0.0], 1e307, EUCLIDEAN),
        # a radius below the float spacing at the center: a flat box
        lambda: Ball([1e16, 0.0], 0.5, EUCLIDEAN),
    ],
    ids=[
        "inf-upper", "inf-lower", "inf-edge", "nan-center", "inf-center", "inf-radius",
        "wide-ball", "ball-past-the-floats", "ball-below-the-spacing",
    ],
)
def test_domains_must_be_finite(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_domains_reject_zero_dimensions():
    with pytest.raises(ValueError, match="nonempty"):
        Box([], [])
    with pytest.raises(ValueError, match="nonempty"):
        Ball([], 1.0, SUP)


def test_box_arrays_are_read_only():
    box = Box(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        box.lower[0] = 5.0


def test_ball_contains_and_enclosing_box():
    ball = Ball(np.array([1.0, 1.0]), 0.5, EUCLIDEAN)
    assert ball.contains(np.array([1.0, 1.5]))
    assert not ball.contains(np.array([1.4, 1.4]))
    outer = ball.enclosing_box()
    assert np.array_equal(outer.lower, np.array([0.5, 0.5]))
    assert np.array_equal(outer.upper, np.array([1.5, 1.5]))


def test_box_is_its_own_enclosing_box_and_has_a_center():
    box = Box(np.array([-1.0, 0.3]), np.array([2.0, 0.4]))
    assert box.enclosing_box() is box
    assert np.array_equal(box.center, box.lower + box.edges * 0.5)
    assert box.contains(box.center)


def test_ball_contains_rejects_wrongly_shaped_points():
    # a (1, 1) batch or a bare scalar would broadcast against the
    # two-dimensional center and read as inside
    ball = Ball(np.zeros(2), 1.0, EUCLIDEAN)
    for bad in ([[0.5]], 0.5, np.zeros(3), np.zeros((4, 1))):
        with pytest.raises(ValueError, match="dimension 2"):
            ball.contains(bad)
    assert ball.contains([0.5, 0.5]) is True
    assert np.array_equal(ball.contains([[0.5, 0.5], [1.0, 0.5]]), [True, False])


@pytest.mark.parametrize("dim", range(1, 10))
@pytest.mark.parametrize("norm", [SUP, EUCLIDEAN, L1], ids=lambda n: n.kind)
def test_ball_contains_batches_match_the_row_test(norm, dim):
    # a batch is measured by column; each verdict must be the per-row
    # norm.length(x - center) <= radius, bit for bit, on the sphere and
    # one float step either side of it included
    unit = Ball(np.zeros(dim), 1.0, norm)
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    on = np.concatenate([axes, np.nextafter(axes, 0.0 * axes)])
    off = np.nextafter(axes, 2.0 * axes)
    assert unit.contains(on).all() and not unit.contains(off).any()
    assert unit.contains(np.eye(dim)[0]) is True
    assert unit.contains(off[0]) is False

    rng = np.random.default_rng(dim)
    ball = Ball(rng.uniform(-3.0, 3.0, size=dim), float(rng.uniform(0.5, 2.0)), norm)
    u = rng.standard_normal((900, dim))
    # scaled onto the sphere and a few float steps either side of it
    steps = 1.0 + rng.integers(-3, 4, size=(900, 1)) * 2.0**-52
    pts = ball.center + u * (ball.radius / norm.length(u))[:, None] * steps
    pts[:300] = ball.center + rng.uniform(-1.5, 1.5, size=(300, dim)) * ball.radius
    pts = np.concatenate([pts, ball.center + ball.radius * axes, unit.center + axes])
    want = np.array([norm.length(p - ball.center) <= ball.radius for p in pts])
    assert 0 < want[300:900].sum() < 600
    assert np.array_equal(ball.contains(pts), want)
    assert np.array_equal(ball.contains(np.asfortranarray(pts)), want)
    assert np.array_equal(ball.contains(pts[:, None, :]), want[:, None])
    assert ball.contains(pts[:0]).shape == (0,)
    for p, w in zip(pts[::37], want[::37]):
        assert ball.contains(p) is bool(w)


def test_diameter_closed_forms():
    box = Box(np.zeros(2), np.array([3.0, 4.0]))
    assert diameter(box, SUP) == 4.0
    assert diameter(box, EUCLIDEAN) == pytest.approx(5.0)
    assert diameter(box, L1) == 7.0
    ball = Ball(np.zeros(2), 1.0, EUCLIDEAN)
    assert diameter(ball, EUCLIDEAN) == 2.0
    # measuring a euclidean ball in the sup norm cannot shrink it
    assert diameter(ball, SUP) == 2.0
    assert diameter(ball, L1) == pytest.approx(2.0 * math.sqrt(2.0))


def test_domain_volume():
    assert Box(np.zeros(3), np.full(3, 2.0)).volume() == 8.0
    assert Ball(np.zeros(2), 2.0, EUCLIDEAN).volume() == pytest.approx(
        4.0 * math.pi
    )


def test_uniform_sample_stays_inside():
    rng = np.random.default_rng(0)
    ball = Ball(np.array([0.5, 0.5]), 0.25, EUCLIDEAN)
    pts = ball.uniform_sample(rng, 200)
    assert pts.shape == (200, 2)
    assert all(ball.contains(p) for p in pts)
    box = Box(np.zeros(2), np.ones(2))
    pts = box.uniform_sample(rng, 50)
    assert np.all((pts >= 0.0) & (pts <= 1.0))


def test_midpoint_grid_counts_and_placement():
    box = Box(np.zeros(1), np.ones(1))
    pts, steps = midpoint_grid(box, 0.25)
    assert steps[0] == pytest.approx(0.25)
    assert np.allclose(pts.ravel(), [0.125, 0.375, 0.625, 0.875])

    # a step that does not divide the edge rounds the count up
    pts, steps = midpoint_grid(box, 0.3)
    assert len(pts) == 4
    assert steps[0] == pytest.approx(0.25)


@pytest.mark.parametrize("step", [0.0, -0.25, math.nan, -math.inf])
def test_midpoint_grid_refuses_a_step_that_is_not_positive(step):
    # nan passed a `step <= 0` test and ended in a ZeroDivisionError
    with pytest.raises(ValueError, match="step must be positive"):
        midpoint_grid(Box(np.zeros(2), np.ones(2)), step)


def test_midpoint_grid_is_lexicographic_in_2d():
    box = Box(np.zeros(2), np.ones(2))
    pts, _ = midpoint_grid(box, 0.5)
    expected = np.array(
        [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]]
    )
    assert np.array_equal(pts, expected)


def test_midpoint_grid_cap():
    # the cap layer_decomposition sets raises before anything grid-sized
    # is allocated, also when the count is too large for a float
    box = Box(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="grid of 1e\\+08 points exceeds the cap of 1000"):
        _grid_axes(box, 1e-4, max_points=1000)
    with pytest.raises(ValueError, match="grid of inf points exceeds the cap of 1000"):
        _grid_axes(box, 1e-320, max_points=1000)
    assert len(_grid_axes(box, 1e-4)[0][0]) == 10_000


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grid_total_past_float_range_is_inf_without_a_warning():
    # each count is finite, 1e200, but their product is not; numpy's
    # product used to warn of the overflow
    box = Box(np.zeros(2), np.ones(2))
    assert _grid_total(box, 1e-200) == math.inf
    assert _grid_total(box, 1e-4) == 1e8
    with pytest.raises(ValueError, match="grid of inf points exceeds the cap of 1000"):
        _grid_axes(box, 1e-200, max_points=1000)


@given(st.floats(min_value=0.01, max_value=0.9), st.integers(min_value=1, max_value=3))
@settings(deadline=None)
def test_midpoint_grid_cells_tile_the_box(step, d):
    box = Box(np.zeros(d), np.ones(d))
    pts, steps = midpoint_grid(box, step)
    counts = np.rint(1.0 / steps).astype(int)
    assert len(pts) == int(np.prod(counts))
    # cell volume times count recovers the box volume
    assert len(pts) * float(np.prod(steps)) == pytest.approx(1.0)


def _trace_read_with_bound(lip):
    doc = json.loads(lc.trace_to_json(lc.cdoo_run(lc.get_function("tent-d1"), 0.25, 100)))
    doc["header"]["L"] = lip
    return lc.trace_from_json(json.dumps(doc))


# every entry that takes a Lipschitz bound, each called with a bad one
_BOUND_ENTRIES = {
    "TestFunction": lambda lip: dataclasses.replace(
        lc.get_function("tent-d1"), lip_bound=lip, exact_lip=None
    ),
    "convert_lip_bound": lambda lip: convert_lip_bound(lip, "sup", "sup", 2),
    "Envelope1D": lambda lip: Envelope1D(0.0, 1.0, lip),
    "candidates_for": lambda lip: candidates_for(
        lc.get_function("cone-d2").domain, lip, 0.1, EUCLIDEAN
    ),
    "trace_from_json": _trace_read_with_bound,
    "SweepConfig": lambda lip: SweepConfig(lip=lip),
}


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("entry", list(_BOUND_ENTRIES))
def test_every_entry_refuses_a_non_finite_lipschitz_bound(entry, bad):
    with pytest.raises(ValueError, match="Lipschitz bound must be positive and finite"):
        _BOUND_ENTRIES[entry](bad)


@pytest.mark.parametrize("field", ["exact_lip", "known_max"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_test_function_refuses_non_finite_ground_truth(field, bad):
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(lc.get_function("tent-d1"), **{field: bad})


def _trace_read_with_eps(eps):
    doc = json.loads(lc.trace_to_json(lc.cdoo_run(lc.get_function("tent-d1"), 0.25, 100)))
    doc["header"]["eps"] = eps
    return lc.trace_from_json(json.dumps(doc))


def _certified_tent():
    return lc.cdoo_run(lc.get_function("tent-d1"), 0.25, 100)


# every entry that takes an accuracy target, each called with a bad one
_ACCURACY_ENTRIES = {
    "check_run_args": lambda eps: check_run_args(eps, 10),
    "sigma_from_trace": lambda eps: lc.sigma_from_trace(_certified_tent(), eps),
    "zeta_from_trace": lambda eps: lc.zeta_from_trace(_certified_tent(), 0.0, eps),
    "candidates_for": lambda eps: candidates_for(
        lc.get_function("cone-d2").domain, 1.0, eps, EUCLIDEAN
    ),
    "layer_decomposition": lambda eps: lc.layer_decomposition(lc.get_function("tent-d1"), eps),
    "cdoo_run": lambda eps: lc.cdoo_run(lc.get_function("tent-d1"), eps, 50),
    "ps_run_1d": lambda eps: lc.ps_run_1d(lc.get_function("tent-d1"), eps, 50),
    "ps_run_grid": lambda eps: lc.ps_run_grid(lc.get_function("cone-d2"), eps, 50),
    "trace_from_json": _trace_read_with_eps,
}


@pytest.mark.parametrize("bad", [0.0, -0.5, math.inf, math.nan])
@pytest.mark.parametrize("entry", list(_ACCURACY_ENTRIES))
def test_every_entry_refuses_a_bad_accuracy_target(entry, bad):
    # an infinite target used to pass every entry but
    # layer_decomposition, and certified every run at its first query
    with pytest.raises(ValueError, match=f"accuracy target must be positive and finite, got {bad}"):
        _ACCURACY_ENTRIES[entry](bad)


def test_norm_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown norm kind 'l2'"):
        Norm("l2")
