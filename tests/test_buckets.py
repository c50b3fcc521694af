"""Bucket-hashed neighbour search, and the greedy packing, audit scan and
separation check built on it, compared bitwise with the direct
computations they replaced."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lipcert as lc
from lipcert import EUCLIDEAN, L1, SUP, adversary, greedy_packing
from lipcert import partition as partition_module
from lipcert.complexity import packing
from lipcert.core._buckets import Buckets, covering_side

NORMS = (SUP, EUCLIDEAN, L1)


# --- references: the direct computations the buckets replaced ------------


def _ref_greedy(points, radius, norm):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    if n == 0:
        return points.copy()
    first = points[:, 0]
    chosen = []
    alive = np.ones(n, dtype=bool)
    if np.all(np.diff(first) >= 0):
        i = 0
        while i < n:
            if alive[i]:
                chosen.append(i)
                hi = int(np.searchsorted(first, first[i] + radius, side="right"))
                window = points[i:hi]
                dists = np.atleast_1d(norm.length(window - points[i]))
                alive[i:hi] &= dists > radius
            i += 1
    else:
        for i in range(n):
            if alive[i]:
                chosen.append(i)
                if i + 1 < n:
                    dists = np.atleast_1d(norm.length(points[i + 1 :] - points[i]))
                    alive[i + 1 :] &= dists > radius
    return points[chosen].copy()


def _ref_min_distance_to(queries, points, norm):
    out = np.full(len(points), math.inf)
    chunk = max(1, 2_000_000 // max(1, len(queries)))
    for start in range(0, len(points), chunk):
        block = points[start : start + chunk]
        dists = norm.length(block[:, None, :] - queries[None, :, :])
        out[start : start + chunk] = np.atleast_2d(dists).min(axis=1)
    return out


def _ref_near_pairs(a_pts, b_pts, radius):
    d = a_pts.shape[1]
    ka = np.floor(a_pts / radius).astype(np.int64)
    kb = np.floor(b_pts / radius).astype(np.int64)
    origin = np.minimum(ka.min(axis=0), kb.min(axis=0)) - 1
    ka -= origin
    kb -= origin
    span = np.maximum(ka.max(axis=0), kb.max(axis=0)) + 2

    def pack(keys):
        out = np.zeros(len(keys), dtype=np.int64)
        for j in range(d):
            out = out * span[j] + keys[:, j]
        return out

    b_packed = pack(kb)
    order = np.argsort(b_packed, kind="stable")
    b_sorted = b_packed[order]
    a_idx_parts, b_idx_parts = [], []
    for offset in itertools.product((-1, 0, 1), repeat=d):
        shifted = pack(ka + np.asarray(offset, dtype=np.int64))
        left = np.searchsorted(b_sorted, shifted, side="left")
        right = np.searchsorted(b_sorted, shifted, side="right")
        counts = right - left
        total = int(counts.sum())
        if total == 0:
            continue
        a_idx = np.repeat(np.arange(len(a_pts)), counts)
        starts = np.repeat(left, counts)
        prefix = np.repeat(np.cumsum(counts) - counts, counts)
        b_idx = order[starts + (np.arange(total) - prefix)]
        a_idx_parts.append(a_idx)
        b_idx_parts.append(b_idx)
    if not a_idx_parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(a_idx_parts), np.concatenate(b_idx_parts)


def _same(got, want):
    return got.shape == want.shape and np.array_equal(got, want)


# --- point sets ------------------------------------------------------------


@st.composite
def dyadic_sets(draw, dims=(1, 2, 3, 4), max_points=600, offset=0.0, bits=(1, 6)):
    """Points on a coarse dyadic lattice, so many pairs sit at exactly
    the radius, in input order or sorted by first coordinate."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, max_points))
    k = draw(st.integers(*bits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = offset + rng.integers(-(2**k), 2**k + 1, size=(n, d)) / 2.0**k
    if draw(st.booleans()):
        pts = pts[np.lexsort(pts.T[::-1])]
    radius = draw(st.integers(1, 2 ** (k + 1))) / 2.0**k
    return pts, radius


@st.composite
def near_pairs(draw, dims=(1, 2, 3, 8)):
    """Random float points at any magnitude with a radius equal to the
    computed distance of some pair, so rounding sits right at it."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-8, 2))
    offset = draw(st.sampled_from([0.0, 1.0, -3.7, 1e6, -1e9]))
    pts = offset + scale * rng.random((n, d))
    pts[1::2] = pts[0::2][: len(pts[1::2])] + scale * 1e-3 * rng.standard_normal((n // 2, d))
    norm = draw(st.sampled_from(NORMS))
    radius = float(np.max(norm.length(pts[1::2] - pts[0::2][: n // 2])))
    return pts, max(radius, scale * 1e-6), norm


# --- the buckets themselves -----------------------------------------------


@given(near_pairs())
@settings(deadline=None, max_examples=60)
def test_runs_hold_every_point_within_the_radius(case):
    pts, radius, norm = case
    buckets = Buckets(pts, covering_side(radius, float(np.abs(pts).max())))
    for i in range(len(pts)):
        ends = buckets.runs(i)
        found = set()
        for a, b in zip(ends[0::2], ends[1::2]):
            found.update(buckets.order[a:b].tolist())
        close = np.flatnonzero(np.atleast_1d(norm.length(pts - pts[i])) <= radius)
        assert set(close.tolist()) <= found


@given(near_pairs(), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=30)
def test_join_holds_every_pair_within_the_radius(case, seed):
    pts, radius, norm = case
    rng = np.random.default_rng(seed)
    hashed = pts[rng.random(len(pts)) < 0.5]
    if len(hashed) == 0:
        hashed = pts[:1]
    side = covering_side(radius, float(np.abs(pts).max()))
    got = set(zip(*(a.tolist() for a in Buckets(hashed, side).join(pts))))
    for j, h in enumerate(hashed):
        close = np.flatnonzero(np.atleast_1d(norm.length(pts - h)) <= radius)
        assert {(int(i), j) for i in close} <= got


@given(dyadic_sets(), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_join_pairs_match_the_old_near_pairs(case, seed):
    pts, radius = case
    rng = np.random.default_rng(seed)
    hashed = pts[rng.random(len(pts)) < 0.3]
    if len(hashed) == 0:
        hashed = pts[-1:]
    got = Buckets(hashed, radius).join(pts)
    want = _ref_near_pairs(pts, hashed, radius)
    assert all(_same(g, w) for g, w in zip(got, want))


def test_buckets_hold_pairs_whose_distance_underflows():
    # the squares of 1e-170 underflow to zero, so these points measure
    # 0 <= 1e-300 apart in the euclidean norm although they are 1e-170
    # apart; buckets of side 1e-300 would put them 1e130 buckets apart
    pts = np.array([[1e-170, 0.0], [0.0, 0.0], [0.0, -1e-170]])
    radius = 1e-300
    assert float(EUCLIDEAN.length(pts[0] - pts[2])) <= radius
    buckets = Buckets(pts, covering_side(radius, float(np.abs(pts).max())))
    ends = buckets.runs(0)
    runs = [buckets.order[a:b] for a, b in zip(ends[0::2], ends[1::2])]
    assert {1, 2} <= set(np.concatenate(runs).tolist())
    assert _same(greedy_packing(np.tile(pts, (100, 1)), radius, EUCLIDEAN), pts[:1])


def test_buckets_coarsen_instead_of_overflowing_the_packed_key():
    rng = np.random.default_rng(5)
    pts = rng.random((400, 8)) * 1e6
    buckets = Buckets(pts, 1e-3)
    assert buckets.side > 1e-3
    assert int(buckets.sorted_keys.max()) < 2**62
    for i in range(0, 400, 37):
        ends = buckets.runs(i)
        assert any(i in buckets.order[a:b] for a, b in zip(ends[0::2], ends[1::2]))


# --- greedy packing against the old scans ----------------------------------


@given(dyadic_sets())
@settings(deadline=None, max_examples=80)
def test_greedy_matches_reference_on_dyadic_sets(case):
    pts, radius = case
    for norm in NORMS:
        assert _same(greedy_packing(pts, radius, norm), _ref_greedy(pts, radius, norm))


@given(dyadic_sets())
@settings(deadline=None, max_examples=40)
def test_greedy_bucket_path_matches_reference_on_small_sets(case):
    # with no scan limit, every set above 3**d points takes the bucket path
    pts, radius = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing, "_SCAN_LIMIT", 0)
        for norm in NORMS:
            assert _same(greedy_packing(pts, radius, norm), _ref_greedy(pts, radius, norm))


@given(dyadic_sets(dims=(8,), max_points=300))
@settings(deadline=None, max_examples=25)
def test_greedy_matches_reference_in_eight_dimensions(case):
    # euclidean and l1 sum eight terms, where numpy's reduction order
    # would show if the distances were taken over different blocks
    pts, radius = case
    for norm in (EUCLIDEAN, L1):
        assert _same(greedy_packing(pts, radius, norm), _ref_greedy(pts, radius, norm))


@given(dyadic_sets(dims=(1, 2, 3), offset=1e6, bits=(10, 10)))
@settings(deadline=None, max_examples=20)
def test_greedy_matches_reference_far_from_the_origin(case):
    pts, _ = case
    for norm in NORMS:
        want = _ref_greedy(pts, 2.0**-10, norm)
        assert _same(greedy_packing(pts, 2.0**-10, norm), want)


@pytest.mark.parametrize("fn", lc.registry(), ids=lambda fn: fn.label)
def test_greedy_matches_reference_on_every_layer(fn):
    eps0 = fn.lip_bound * lc.diameter(fn.domain, fn.norm)
    for j in range(1, 6):
        dec = lc.layer_decomposition(fn, eps0 * 0.5**j)
        for label in range(dec.scale.m_eps + 1):
            pts = dec.points[dec.labels == label]
            if len(pts):
                radius = dec.scale.accuracy_for_class(label) / dec.lip
                want = _ref_greedy(pts, radius, dec.norm)
                assert _same(greedy_packing(pts, radius, dec.norm), want)


@pytest.mark.parametrize("row", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_greedy_rejects_non_finite_points(row, bad):
    # a NaN distance compares false both ways, so a NaN point used to
    # wipe out every other point as a "maximal packing"
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    pts[row, 0] = bad
    with pytest.raises(ValueError, match=f"row {row} is"):
        greedy_packing(pts, 0.3, SUP)


def test_greedy_with_infinite_radius_keeps_one_point():
    rng = np.random.default_rng(0)
    for n in (5, 1000):
        pts = rng.random((n, 2))
        assert _same(greedy_packing(pts, math.inf, EUCLIDEAN), pts[:1])


# --- the audit's free sites and the separation check -----------------------


@given(dyadic_sets(dims=(1, 2, 3)), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_free_mask_matches_reference(case, seed):
    sites, radius = case
    rng = np.random.default_rng(seed)
    queries = sites[rng.integers(0, len(sites), size=int(rng.integers(1, 30)))]
    queries = queries + rng.integers(-2, 3, size=queries.shape) / 8.0
    for norm in NORMS:
        want = _ref_min_distance_to(queries, sites, norm) > radius
        assert _same(adversary._free_mask(queries, sites, radius, norm), want)


def test_audit_free_sets_match_reference(monkeypatch):
    real = adversary._free_mask
    scanned = []

    def checked(queries, sites, radius, norm):
        free = real(queries, sites, radius, norm)
        assert _same(free, _ref_min_distance_to(queries, sites, norm) > radius)
        scanned.append(len(sites))
        return free

    monkeypatch.setattr(adversary, "_free_mask", checked)
    for label in ("halftent-d1", "multibump-d2"):
        fn = lc.get_function(label)
        before = lc.audit_certified_run(fn, 1 / 16)
        lc.audit_certified_run(fn, 1 / 16, n_override=before.n + 1)
    assert len(scanned) >= 4


class _CheckedBuckets(Buckets):
    """Buckets whose join is compared with the old near-pair join."""

    joins = 0

    def __init__(self, points, side):
        super().__init__(points, side)
        self._args = (points, side)

    def join(self, others):
        got = super().join(others)
        want = _ref_near_pairs(others, *self._args)
        assert all(_same(g, w) for g, w in zip(got, want))
        _CheckedBuckets.joins += 1
        return got


@pytest.mark.parametrize(
    "build, depth, seed, expected",
    [
        (lambda: lc.BisectionPartition(lc.Box(np.zeros(2), np.ones(2))), 8, 0,
         "AssumptionCheck(ok=True, violation=None, cells_checked=87381, pairs_checked=118885)"),
        (lambda: lc.bisection_setup(lc.get_function("cone-d2"))[0], 8, 0,
         "AssumptionCheck(ok=False, violation={'kind': 'separation', 'cell_a': (1, 0), "
         "'cell_b': (2, 0), 'measured': 0.0, 'required': 0.25}, cells_checked=21, "
         "pairs_checked=69)"),
        (lambda: lc.BisectionPartition(lc.Box([0.1, -2.3, 0.7], [0.45, 1.9, 3.3])), 4, 3,
         "AssumptionCheck(ok=True, violation=None, cells_checked=4681, pairs_checked=1097)"),
    ],
    ids=["unit-square", "cone-d2", "off-unit-box-d3"],
)
def test_verify_assumptions_join_is_unchanged(monkeypatch, build, depth, seed, expected):
    monkeypatch.setattr(partition_module, "Buckets", _CheckedBuckets)
    before = _CheckedBuckets.joins
    check = lc.verify_assumptions(build(), depth, seed=seed)
    assert repr(check) == expected
    assert _CheckedBuckets.joins > before
