"""Norms, domains, and the shared grid helper."""

from __future__ import annotations

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
    domain_volume,
    midpoint_grid,
    norm_ratio,
    uniform_sample,
)


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
    + [(SUP, d) for d in range(8, 13)],
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
    norm = Norm(kind)
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
        assert _same_bits(got, _row_reduction_length(kind, batch)), name
    for row in v[::7]:
        got = norm.length(row)
        assert type(got) is float
        assert _same_bits(got, _row_reduction_length(kind, row)), row
    # a list of Python floats is converted like an array
    assert _same_bits(norm.length(v[1].tolist()), _row_reduction_length(kind, v[1]))
    # NaN propagates through every norm
    assert math.isnan(norm.length(np.r_[np.full(dim - 1, np.inf), np.nan]))
    assert math.isnan(norm.length(np.r_[np.nan, np.full(dim - 1, 1.0)]))


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
    assert L1.length(ones) / SUP.length(ones) == norm_ratio("l1", "sup", d)
    assert EUCLIDEAN.length(ones) / SUP.length(ones) == pytest.approx(
        norm_ratio("euclidean", "sup", d)
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
    clamped = box.clamp(np.array([5.0, 0.0]))
    assert np.array_equal(clamped, np.array([2.0, 0.0]))


def test_box_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Box(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


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
    assert domain_volume(Box(np.zeros(3), np.full(3, 2.0))) == 8.0
    assert domain_volume(Ball(np.zeros(2), 2.0, EUCLIDEAN)) == pytest.approx(
        4.0 * math.pi
    )


def test_uniform_sample_stays_inside():
    rng = np.random.default_rng(0)
    ball = Ball(np.array([0.5, 0.5]), 0.25, EUCLIDEAN)
    pts = uniform_sample(ball, rng, 200)
    assert pts.shape == (200, 2)
    assert all(ball.contains(p) for p in pts)
    box = Box(np.zeros(2), np.ones(2))
    pts = uniform_sample(box, rng, 50)
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


def test_midpoint_grid_is_lexicographic_in_2d():
    box = Box(np.zeros(2), np.ones(2))
    pts, _ = midpoint_grid(box, 0.5)
    expected = np.array(
        [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]]
    )
    assert np.array_equal(pts, expected)


def test_midpoint_grid_cap():
    box = Box(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        midpoint_grid(box, 1e-4, max_points=1000)


@given(st.floats(min_value=0.01, max_value=0.9), st.integers(min_value=1, max_value=3))
@settings(deadline=None)
def test_midpoint_grid_cells_tile_the_box(step, d):
    box = Box(np.zeros(d), np.ones(d))
    pts, steps = midpoint_grid(box, step)
    counts = np.rint(1.0 / steps).astype(int)
    assert len(pts) == int(np.prod(counts))
    # cell volume times count recovers the box volume
    assert len(pts) * float(np.prod(steps)) == pytest.approx(1.0)
