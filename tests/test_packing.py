"""Greedy and exact packing/covering, and the randomized lemma suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipcert import (
    EUCLIDEAN,
    L1,
    SUP,
    greedy_packing,
    lemma_consistency_trials,
)
from lipcert.complexity import packing
from lipcert.complexity.packing import _exact_covering_bruteforce, _exact_packing_bruteforce
from lipcert.core._buckets import Buckets, covering_side, max_magnitude


NORMS = (SUP, EUCLIDEAN, L1)

coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def point_sets(draw, max_dim=3, max_points=10):
    d = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=1, max_value=max_points))
    pts = draw(
        st.lists(
            st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n
        )
    )
    return np.asarray(pts)


def pairwise_ok(points, radius, norm):
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if not norm.length(points[i] - points[j]) > radius:
                return False
    return True


def _ref_greedy(points, radius, norm):
    """Greedy packing as it gathered candidate rows, ``points[idx]``,
    before it gathered by column: the oracle of the bucket loop."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n <= max(packing._SCAN_LIMIT, 3 ** points.shape[1]):
        buckets = None
    else:
        buckets = Buckets(points, covering_side(radius, max_magnitude(points)))
        order = buckets.order
    alive = np.ones(n, dtype=bool)
    chosen = []
    i = 0
    while i < n:
        chosen.append(i)
        alive[i] = False
        if buckets is None:
            if i + 1 < n:
                dists = norm.length(points[i + 1 :] - points[i])
                alive[i + 1 :] &= dists > radius
        else:
            ends = buckets.runs(i)
            idx = np.concatenate([order[a:b] for a, b in zip(ends[0::2], ends[1::2])])
            idx = idx[alive[idx]]
            if len(idx):
                dists = norm.length(points[idx] - points[i])
                alive[idx[dists <= radius]] = False
        i = packing._next_alive(alive, i + 1)
    return points[chosen].copy()


def _same(got, want):
    return got.shape == want.shape and np.array_equal(got, want)


LAYOUTS = {
    "C": lambda p: p,
    "F": np.asfortranarray,
    "reversed columns": lambda p: p[:, ::-1],
}


@st.composite
def bucketed_sets(draw, dims=(1, 2, 3, 4), max_points=900):
    """Sets past the scan limit, so greedy packing hashes them: dyadic
    lattices, on which many pairs lie exactly at the radius, or uniform
    random points, near 0 or near 1e6, with a radius from below the
    spacing up to the diameter, in one of three memory layouts.  Random
    sets also hold, for each norm, 30 points on the sphere of that
    radius around the first point, which is always kept: rounding puts
    some just inside and some just outside, so a last-bit change in how
    a distance is measured changes the packing."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(max(packing._SCAN_LIMIT, 3**d) + 1, max_points))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e6]))
    lattice = draw(st.booleans())
    if lattice:
        spacing = 2.0 ** -draw(st.integers(0, 8))
        cells = draw(st.integers(2, 12))
        pts = offset + rng.integers(0, cells, size=(n, d)) * spacing
        extent = (cells - 1) * spacing
    else:
        extent = 10.0 ** draw(st.integers(-3, 2))
        pts = offset + extent * rng.random((n, d))
        spacing = extent / n ** (1 / d)
    if draw(st.booleans()):
        radius = spacing * draw(st.integers(1, 4))
    else:
        low = spacing / 2
        radius = low * (max(extent * d, spacing) / low) ** draw(st.floats(0.0, 1.0))
    if not lattice:
        u = rng.standard_normal((len(NORMS), 30, d))
        shells = [pts[0] + u_k * (radius / nm.length(u_k))[:, None] for nm, u_k in zip(NORMS, u)]
        pts = np.concatenate([pts] + shells)
    pts = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](pts)
    return pts, radius


@given(bucketed_sets())
@settings(deadline=None, max_examples=40)
def test_greedy_matches_the_row_gather_loop_bitwise(case):
    pts, radius = case
    assert len(pts) > packing._SCAN_LIMIT
    for norm in NORMS:
        assert _same(greedy_packing(pts, radius, norm), _ref_greedy(pts, radius, norm))


def test_greedy_matches_the_row_gather_loop_in_eight_dimensions():
    # past 3**8 points, so the bucket path runs; euclidean and l1 sum
    # eight terms, where a different order of the coordinates would
    # move points on the sphere around the first one across the radius
    rng = np.random.default_rng(8)
    for norm, radius in ((SUP, 0.6), (EUCLIDEAN, 1.0), (L1, 2.5)):
        pts = rng.random((3**8 + 40, 8))
        u = rng.standard_normal((60, 8))
        pts = np.concatenate([pts, pts[0] + u * (radius / norm.length(u))[:, None]])
        for layout in LAYOUTS.values():
            view = layout(pts)
            want = _ref_greedy(view, radius, norm)
            assert 1 < len(want) < len(pts)
            assert _same(greedy_packing(view, radius, norm), want)


def test_greedy_keeps_first_point_and_input_order():
    pts = np.array([[0.0], [0.05], [1.0], [0.5]])
    chosen = greedy_packing(pts, 0.3, SUP)
    assert chosen.tolist() == [[0.0], [1.0], [0.5]]


def test_greedy_on_single_point():
    pts = np.array([[3.0, 4.0]])
    assert len(greedy_packing(pts, 10.0, EUCLIDEAN)) == 1


@given(point_sets(), st.floats(min_value=0.05, max_value=2.0))
@settings(deadline=None, max_examples=120)
def test_greedy_output_is_separated_and_maximal(pts, radius):
    for norm in NORMS:
        chosen = greedy_packing(pts, radius, norm)
        assert 1 <= len(chosen) <= len(pts)
        assert pairwise_ok(chosen, radius, norm)
        # maximality: every input point sits within radius of a chosen one
        for p in pts:
            dmin = min(float(norm.length(p - c)) for c in chosen)
            assert dmin <= radius + 1e-12


@given(point_sets(max_points=9), st.floats(min_value=0.05, max_value=2.0))
@settings(deadline=None, max_examples=100)
def test_greedy_vs_exact_packing(pts, radius):
    for norm in NORMS:
        greedy = len(greedy_packing(pts, radius, norm))
        exact = _exact_packing_bruteforce(pts, radius, norm)
        assert greedy <= exact
        # a maximal packing is at least half... no: any maximal packing
        # covers at radius, so exact-at-2-radius also bounds it below
        assert exact <= len(pts)


def test_exact_packing_small_cases():
    pts = np.array([[0.0], [1.0], [2.0]])
    assert _exact_packing_bruteforce(pts, 0.5, SUP) == 3
    assert _exact_packing_bruteforce(pts, 1.0, SUP) == 2
    assert _exact_packing_bruteforce(pts, 2.0, SUP) == 1
    assert _exact_packing_bruteforce(pts, 1.5, SUP) == 2


def test_exact_covering_small_cases():
    # ball centers are drawn from the set itself; that internal variant
    # still satisfies the packing chain on both sides
    pts = np.array([[0.0], [1.0], [2.0]])
    assert _exact_covering_bruteforce(pts, 0.5, SUP) == 3
    assert _exact_covering_bruteforce(pts, 1.0, SUP) == 1
    # at radius 0.9 no point reaches either neighbour
    assert _exact_covering_bruteforce(pts, 0.9, SUP) == 3
    pts = np.array([[0.0], [0.5], [2.0]])
    assert _exact_covering_bruteforce(pts, 0.6, SUP) == 2


def test_exact_packing_respects_size_limit():
    pts = np.zeros((25, 1))
    with pytest.raises(ValueError):
        _exact_packing_bruteforce(pts, 0.5, SUP)


@given(point_sets(max_points=9), st.floats(min_value=0.05, max_value=1.5))
@settings(deadline=None, max_examples=100)
def test_packing_covering_chain(pts, radius):
    # packing at twice the radius <= covering <= packing, the classical
    # chain, against both exact oracles
    for norm in NORMS:
        n2 = _exact_packing_bruteforce(pts, 2.0 * radius, norm)
        m = _exact_covering_bruteforce(pts, radius, norm)
        n1 = _exact_packing_bruteforce(pts, radius, norm)
        assert n2 <= m <= n1


@given(
    point_sets(max_points=8),
    st.floats(min_value=0.05, max_value=0.5),
    st.floats(min_value=1.0, max_value=3.0),
)
@settings(deadline=None, max_examples=60)
def test_packing_rescaling_inequality(pts, r1, factor):
    # shrinking the radius can grow the packing by at most the covering
    # ratio (4 r2 / r1)^d
    r2 = r1 * factor
    d = pts.shape[1]
    for norm in NORMS:
        n1 = _exact_packing_bruteforce(pts, r1, norm)
        n2 = _exact_packing_bruteforce(pts, r2, norm)
        assert n1 <= (4.0 * r2 / r1) ** d * n2


def test_lemma_trials_pass_with_zero_counterexamples():
    verdict = lemma_consistency_trials(trials=200, seed=3)
    assert verdict.ok
    assert verdict.trials_run == 200
    assert verdict.counterexample is None


def test_lemma_trials_are_seed_deterministic():
    a = lemma_consistency_trials(trials=50, seed=9)
    b = lemma_consistency_trials(trials=50, seed=9)
    assert a.ok and b.ok
    assert a.trials_run == b.trials_run


def test_lemma_trials_validate_arguments(monkeypatch):
    with pytest.raises(ValueError):
        lemma_consistency_trials(trials=0, seed=1)
    monkeypatch.setattr(packing, "_LEMMA_MAX_POINTS", 40)
    with pytest.raises(ValueError):
        lemma_consistency_trials(trials=10, seed=1)


@pytest.mark.parametrize(
    "oracle",
    [
        lambda pts: greedy_packing(pts, 0.2, SUP),
        lambda pts: _exact_packing_bruteforce(pts, 0.2, SUP),
        lambda pts: _exact_covering_bruteforce(pts, 0.2, SUP),
    ],
    ids=["greedy", "exact packing", "exact covering"],
)
@pytest.mark.parametrize(
    "pts", [np.array([0.1, 0.5, 0.9]), np.float64(0.5), np.zeros((3, 1, 1))],
    ids=["flat", "scalar", "3-d"],
)
def test_point_sets_must_be_two_dimensional(oracle, pts):
    # a flat array used to become a single point of dimension len(pts):
    # greedy_packing(np.array([0.1, 0.5, 0.9]), 0.2, SUP) gave one point
    with pytest.raises(ValueError, match=r"point set of shape \(n, d\)"):
        oracle(pts)


def test_lemma_trials_report_a_counterexample(monkeypatch):
    # a greedy packing that keeps every point twice breaks
    # greedy(r) <= packing(r) on the first trial
    monkeypatch.setattr(packing, "greedy_packing", lambda pts, r, norm: np.concatenate([pts, pts]))
    verdict = lemma_consistency_trials(trials=5, seed=3)
    assert not verdict.ok
    assert verdict.trials_run == 1
    example = verdict.counterexample
    assert example["trial"] == 0 and example["check"] == "greedy(r) <= packing(r)"
    assert example["lhs"] == 2 * len(example["points"]) > example["rhs"]
    assert set(example) == {"trial", "check", "lhs", "rhs", "points", "norm", "radius", "radii"}
