"""Sawtooth envelope search in 1-d and its grid variant."""

from __future__ import annotations

import hashlib
import math
import struct
import warnings
from dataclasses import replace

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
    CandidateSet,
    Envelope1D,
    candidates_for,
    certificate_validity,
    midpoint_grid,
    ps_run_1d,
    ps_run_grid,
    recommendations_consistent,
    sigma_from_trace,
)
from lipcert.optimizers import piyavskii

from seeded_objectives import NORMS, peaks


def envelope_values(lip, xs, fs, grid):
    """Brute-force envelope min_j (f_j + lip |x - x_j|) at each grid point."""
    return np.min(fs[None, :] + lip * np.abs(grid[:, None] - xs[None, :]), axis=1)


def brute_envelope_max(a, b, lip, xs, fs, resolution=200_001):
    """Dense-grid oracle for the max of the envelope."""
    grid = np.linspace(a, b, resolution)
    upper = envelope_values(lip, xs, fs, grid)
    i = int(np.argmax(upper))
    return float(upper[i]), float(grid[i])


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=-1.0, max_value=1.0),
        ),
        min_size=1,
        max_size=4,
    ),
    st.floats(min_value=0.5, max_value=4.0),
)
@settings(deadline=None, max_examples=80)
def test_envelope_max_matches_dense_oracle(points, anchors, lip):
    # observations must come from a genuinely lip-Lipschitz function,
    # which a max of downward cones is by construction; the envelope's
    # shortcuts (observation value at queried points, two-cone peaks)
    # are only exact under that consistency
    def f(x):
        return max(a - lip * abs(x - p) for p, a in anchors)

    env = Envelope1D(0.0, 1.0, lip)
    xs = np.asarray(points)
    fs = np.asarray([f(x) for x in xs])
    for x, fx in zip(xs, fs):
        env.insert(float(x), float(fx))
    got_val, got_arg = env.max_and_argmax()
    want_val, _ = brute_envelope_max(0.0, 1.0, lip, xs, fs)
    # the dense oracle undershoots by at most lip * grid spacing
    assert got_val >= want_val - 1e-12
    assert got_val <= want_val + lip * (1.0 / 200_000) + 1e-12
    # the exact argmax must attain the exact max
    attained = float(np.min(fs + lip * np.abs(got_arg - xs)))
    assert attained == pytest.approx(got_val, abs=1e-12)
    # and the envelope never dips below the function it bounds
    grid = np.linspace(0.0, 1.0, 2001)
    truth = np.asarray([f(x) for x in grid])
    assert np.all(envelope_values(lip, xs, fs, grid) >= truth - 1e-9)


def scan_envelope_max(a, b, lip, points):
    """Reference maximisation of the envelope of ``points`` (pairs x, f)
    on [a, b] by a full left-to-right scan: the left end, each queried
    point, each gap's interior peak, the right end.  Strictly larger
    values win, so ties go to the leftmost candidate."""
    xs, fs = map(list, zip(*sorted(points)))
    best_x = a
    best_v = -math.inf

    def consider(x, v):
        nonlocal best_x, best_v
        if v > best_v:
            best_x, best_v = x, v

    def end_value(end):
        return float((np.asarray(fs) + lip * np.abs(end - np.asarray(xs))).min())

    if xs[0] > a:
        consider(a, end_value(a))
    for j in range(len(xs)):
        consider(xs[j], fs[j])
        if j + 1 < len(xs):
            xl, xr = xs[j], xs[j + 1]
            fl, fr = fs[j], fs[j + 1]
            peak_x = 0.5 * (xl + xr) + (fr - fl) / (2.0 * lip)
            if xl < peak_x < xr:
                consider(peak_x, 0.5 * (fl + fr) + 0.5 * lip * (xr - xl))
    if xs[-1] < b:
        consider(b, end_value(b))
    return best_v, best_x


@given(
    st.one_of(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
        st.lists(st.integers(0, 16).map(lambda k: k / 16), min_size=1, max_size=17),
    ),
    st.lists(st.integers(-4, 4).map(lambda k: k / 4), min_size=30, max_size=30),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.5, 1.0, 3.0, 16.0]),
)
@settings(deadline=None, max_examples=200)
def test_envelope_max_matches_full_scan(points, levels, flat, mirror, lip):
    # values need not respect the bound: the heap must agree with the
    # scan whatever the data, ties included (flat values, mirrored points)
    if mirror:
        points = [p for q in points for p in (q, 1.0 - q)]
        levels = [v for w in levels for v in (w, w)]
    seen = {}
    env = Envelope1D(0.0, 1.0, lip)
    for x, v in zip(points, levels):
        if x in seen:
            continue
        seen[x] = 0.0 if flat else v
        env.insert(x, seen[x])
        got_val, got_arg = env.max_and_argmax()
        want_val, want_arg = scan_envelope_max(0.0, 1.0, lip, seen.items())
        assert (got_val, got_arg) == (want_val, want_arg)
        assert math.copysign(1.0, got_val) == math.copysign(1.0, want_val)


def test_envelope_prefers_leftmost_argmax():
    env = Envelope1D(0.0, 1.0, 1.0)
    env.insert(0.5, 0.0)
    # ends tie at value 0.5; the left end must win
    _, arg = env.max_and_argmax()
    assert arg == 0.0


def test_envelope_interior_peak():
    env = Envelope1D(0.0, 1.0, 2.0)
    env.insert(0.0, 0.0)
    env.insert(1.0, 0.0)
    val, arg = env.max_and_argmax()
    assert val == pytest.approx(1.0)
    assert arg == pytest.approx(0.5)


def test_envelope_rejects_duplicates_and_outside_points():
    env = Envelope1D(0.0, 1.0, 1.0)
    env.insert(0.5, 0.0)
    with pytest.raises(ValueError):
        env.insert(0.5, 0.1)
    with pytest.raises(ValueError):
        env.insert(1.5, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_envelope_rejects_non_finite_values(bad):
    env = Envelope1D(0.0, 1.0, 1.0)
    env.insert(0.5, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        env.insert(0.25, bad)
    # the rejected point left no trace
    assert len(env) == 1
    assert env.max_and_argmax() == (0.5, 0.0)


def far_tent():
    """A tent of height 3e307 at 1.3e308 on [1e308, 1.6e308], where the
    sum of two points of the interval overflows."""
    return lc.TestFunction(
        "far-tent",
        Box([1e308], [1.6e308]),
        SUP,
        1.0,
        lambda x: 3e307 - np.abs(x[:, 0] - 1.3e308),
        known_max=3e307,
    )


def test_ps1d_finds_the_peak_of_a_gap_whose_ends_sum_past_float_range():
    # the gap [1e308, 1.6e308] used to be dropped, and 0 certified at
    # the second query
    fn = far_tent()
    trace = ps_run_1d(fn, 1e300, 10, x1=1e308)
    assert trace.queries.ravel().tolist() == [1e308, 1.6e308, 1.3e308]
    assert certificate_validity(trace, fn.known_max).ok
    assert trace.certificates[-1] == 0.0


def test_ps1d_default_first_query_is_the_midpoint_near_float_range():
    # the midpoint used to be computed as inf and refused
    fn = far_tent()
    trace = ps_run_1d(fn, 1e300, 10)
    assert trace.queries[0, 0] == 1.3e308
    assert certificate_validity(trace, fn.known_max).ok


def test_envelope_refuses_a_peak_position_that_is_not_finite():
    # the values differ by more than float range, so the cones' crossing
    # cannot be placed; the gap used to be dropped without a word
    env = Envelope1D(0.0, 1.0, 1.0)
    env.insert(0.0, -1e308)
    with pytest.raises(ValueError, match=r"peak of the gap \[0.0, 1.0\] is not finite"):
        env.insert(1.0, 1e308)


def test_hand_traced_tent_run():
    # First query at the midpoint; the envelope then peaks at both ends
    # with value 1/2, left end first; after both ends the envelope max
    # equals the best observed value and the certificate hits zero.
    fn = lc.get_function("tent-d1")
    trace = ps_run_1d(fn, eps=0.25, budget=50)
    assert trace.queries.ravel().tolist() == [0.5, 0.0, 1.0]
    assert trace.certificates.tolist() == [0.5, 0.5, 0.0]
    assert sigma_from_trace(trace) == 3


def test_custom_first_query():
    fn = lc.get_function("tent-d1")
    trace = ps_run_1d(fn, eps=0.05, budget=50, x1=0.25)
    assert trace.queries.ravel()[0] == 0.25
    assert certificate_validity(trace, fn.known_max).ok
    assert sigma_from_trace(trace) < math.inf


def test_certificates_valid_across_1d_registry():
    for fn in lc.registry():
        if fn.dim != 1:
            continue
        trace = ps_run_1d(fn, eps=0.01, budget=500)
        check = certificate_validity(trace, fn.known_max)
        assert check.ok, (fn.label, check)


def test_x1_outside_domain_rejected():
    fn = lc.get_function("tent-d1")
    with pytest.raises(ValueError):
        ps_run_1d(fn, eps=0.1, budget=10, x1=2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_first_query_raises(poison, bad):
    fn = poison(lc.get_function("tent-d1"), [0.25], bad)
    with pytest.raises(ValueError, match="non-finite"):
        ps_run_1d(fn, eps=1 / 16, budget=100, x1=0.25)


def test_1d_only():
    fn = lc.get_function("multibump-d2")
    with pytest.raises(ValueError):
        ps_run_1d(fn, eps=0.1, budget=10)


def test_grid_candidates_cover_the_box():
    box = Box(np.zeros(2), np.ones(2))
    cand = candidates_for(box, lip=1.0, eps=0.25, norm=SUP)
    assert len(cand.points) == 16
    # every box point is within cover_radius of some candidate
    assert cand.cover_radius == pytest.approx(0.125)
    rng = np.random.default_rng(1)
    for p in rng.uniform(size=(100, 2)):
        dists = np.max(np.abs(cand.points - p), axis=1)
        assert dists.min() <= cand.cover_radius + 1e-12


def test_ring_candidates_cover_the_disk():
    ball = Ball(np.zeros(2), 1.0, EUCLIDEAN)
    cand = candidates_for(ball, lip=1.0, eps=1.0 / 3.0, norm=EUCLIDEAN)
    # the center plus 6 rings of 38 angles
    assert len(cand.points) == 1 + 6 * 38
    assert any(np.array_equal(p, np.array([1.0, 0.0])) for p in cand.points)
    rng = np.random.default_rng(2)
    pts = ball.uniform_sample(rng, 300)
    for p in pts:
        dists = np.linalg.norm(cand.points - p, axis=1)
        assert dists.min() <= cand.cover_radius + 1e-9


@pytest.mark.parametrize("j", range(2, 8))
def test_ring_candidates_stay_inside_a_moved_disc(j):
    # Off the origin some outer-ring points used to round outside the
    # disc (3 of 25,793 at 2^-5), and ps_run_grid refused the set.
    disc = Ball(np.array([0.5, 0.5]), 1.0, EUCLIDEAN)
    fn = lc.TestFunction(
        "cone-moved",
        disc,
        EUCLIDEAN,
        1.0,
        lambda x: EUCLIDEAN.length(x - 0.5),
        exact_lip=1.0,
        known_max=1.0,
    )
    eps = fn.lip_bound * 2.0**-j
    cand = candidates_for(disc, fn.lip_bound, eps, EUCLIDEAN)
    assert disc.contains(cand.points).all()
    trace = ps_run_grid(fn, eps, 3000, candidates=cand)
    assert certificate_validity(trace, fn.known_max).ok


def test_ring_pull_far_from_the_origin_takes_few_tries(monkeypatch):
    # At a centre near 1e6 some ring points round outside the disc by
    # about an ulp of the centre, millions of floats of a radius near 0.2;
    # the pull used to step through them one at a time, 20 s per set.
    disc = peaks([1, 2, 9], "euclidean", 2)[0].domain
    assert np.abs(disc.center).max() > 1e5
    contains, calls = Ball.contains, []

    def counted(ball, x):
        calls.append(None)
        assert len(calls) < 1000, "the rings took 1,000 containment tests"
        return contains(ball, x)

    monkeypatch.setattr(Ball, "contains", counted)
    eps = disc.radius * 2.0**-5
    cand = candidates_for(disc, 1.0, eps, EUCLIDEAN)
    monkeypatch.undo()
    assert disc.contains(cand.points).all()
    # the pulls are a few ulps of the centre, added to the radius
    plain = candidates_for(Ball(np.zeros(2), disc.radius, EUCLIDEAN), 1.0, eps, EUCLIDEAN)
    assert len(cand) == len(plain)
    assert plain.cover_radius < cand.cover_radius < plain.cover_radius + 1e-8


def test_candidates_for_meets_accuracy_target():
    ball = Ball(np.zeros(2), 1.0, EUCLIDEAN)
    cand = candidates_for(ball, lip=1.0, eps=0.1, norm=EUCLIDEAN)
    assert cand.cover_radius <= 0.1
    box = Box(np.zeros(2), np.ones(2))
    cand = candidates_for(box, lip=2.0, eps=0.2, norm=EUCLIDEAN)
    assert cand.cover_radius <= 0.1 + 1e-12


def test_candidates_for_caps_honestly(monkeypatch):
    monkeypatch.setattr(piyavskii, "_MAX_CANDIDATES", 500)
    ball = Ball(np.zeros(2), 1.0, EUCLIDEAN)
    cand = candidates_for(ball, lip=1.0, eps=1e-4, norm=EUCLIDEAN)
    assert len(cand.points) <= 500
    # cap forces a coarser net; the radius must say so
    assert cand.cover_radius > 1e-4


@pytest.mark.parametrize(
    "domain, norm, lip, eps",
    [
        # 1-D boxes
        (Box([0.0], [1.0]), SUP, 1.0, 1e-7),
        (Box([-0.3], [2.2]), SUP, 3.3, 2.0**-20),
        # one rescale by the nominal count left these over the cap:
        # 35 and 15 points per axis in d = 3 and 4
        (Box(np.zeros(3), np.ones(3)), SUP, 1.0, 2.0**-6),
        (Box(np.zeros(3), np.ones(3)), EUCLIDEAN, 1.0, 2.0**-9),
        (Box([0.0, 0.0, 0.0], [1.0, 0.5, 2.0]), EUCLIDEAN, 0.3, 2.0**-10),
        (Box(np.zeros(4), np.ones(4)), SUP, 1.0, 2.0**-6),
        (Box(np.zeros(4), np.ones(4)), L1, 3.3, 2.0**-12),
        # the per-axis ceiling of a flat box
        (Box([-1.0, 0.3], [2.0, 0.4]), SUP, 0.3, 2.0**-12),
        (Box([-1.0, 0.3], [2.0, 0.4]), EUCLIDEAN, 1.0, 2.0**-14),
        # 80 rings of 500 angles fill the cap before the center
        (Ball(np.zeros(2), 1.0, EUCLIDEAN), EUCLIDEAN, 1.0, 1.0 / 39.75),
        (Ball(np.zeros(2), 1.0, EUCLIDEAN), EUCLIDEAN, 1.0, 1e-6),
    ],
)
def test_candidates_for_stays_within_the_cap(domain, norm, lip, eps):
    cand = candidates_for(domain, lip, eps, norm)
    assert len(cand) <= piyavskii._MAX_CANDIDATES


def test_ring_counts_stay_finite_past_float_range():
    # every target past the cap gets the same 79 rings of 501 angles,
    # also one at which 2 * rho * lip / eps overflows
    disc = lc.get_function("cone-d2").domain
    capped = candidates_for(disc, 1.0, 2.0**-10, EUCLIDEAN)
    assert len(capped) == 79 * 501 + 1
    for eps in (1e-100, 1e-320):
        cand = candidates_for(disc, 1.0, eps, EUCLIDEAN)
        assert cand.points.tobytes() == capped.points.tobytes()
        assert cand.cover_radius == capped.cover_radius


@pytest.mark.parametrize("eps", [1e-200, 1e-300, 1e-310, 1e-320])
def test_grid_counts_stay_finite_past_float_range(eps):
    # a grid count past float range used to make the step infinite and
    # the set one point with cover radius 0.5
    box = lc.get_function("constant-d2").domain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cand = candidates_for(box, 1.0, eps, SUP)
    assert len(cand) == 200 * 200 and cand.cover_radius == 0.0025


@pytest.mark.parametrize("label", ["constant-d2", "multibump-d2"])
def test_grid_candidates_keep_their_bytes(label):
    # the sets of finite grid counts, which the overflow rule must not touch
    fn = lc.get_function(label)
    digest = hashlib.sha256()
    for j in range(1, 13):
        cand = candidates_for(fn.domain, fn.lip_bound, fn.lip_bound * 2.0**-j, fn.norm)
        digest.update(cand.points.tobytes())
        digest.update(struct.pack("<d", cand.cover_radius))
    assert digest.hexdigest()[:16] == "f5483106eae801ef"


def test_two_query_certification_on_cone():
    fn = lc.get_function("cone-d2")
    cand = candidates_for(fn.domain, fn.lip_bound, 0.1, EUCLIDEAN)
    trace = ps_run_grid(fn, eps=0.1, budget=100, candidates=cand)
    assert sigma_from_trace(trace) == 2
    assert trace.queries[0].tolist() == [0.0, 0.0]
    # second query is the planted boundary point, already optimal
    assert float(np.linalg.norm(trace.queries[1])) == 1.0
    assert trace.certificates[1] == pytest.approx(fn.lip_bound * cand.cover_radius)


def scan_grid_run(fn, eps, budget, candidates, length=None):
    """Reference candidate-set run: the envelope kept in full, queried
    candidates found by comparing every row, and a masked copy of the
    envelope for each pick.  Distances come from ``length`` applied to
    the ``(n, d)`` differences, ``fn.norm.length`` by default."""
    lip, norm, cand = fn.lip_bound, fn.norm, candidates.points
    length = norm.length if length is None else length
    x = fn.domain.lower + fn.domain.edges * 0.5
    best_on_cand = np.full(len(cand), math.inf)
    used = np.zeros(len(cand), dtype=bool)
    queries, values, certs = [], [], []
    best_v = -math.inf
    slack = lip * candidates.cover_radius
    while True:
        fx = float(fn(x))
        used |= np.all(cand == x, axis=1)
        np.minimum(best_on_cand, fx + lip * length(cand - x), out=best_on_cand)
        queries.append(x)
        values.append(fx)
        best_v = max(best_v, fx)
        certs.append(max(0.0, max(float(best_on_cand.max()), best_v) + slack - best_v))
        if certs[-1] <= eps or len(queries) == budget:
            break
        masked = np.where(used, -math.inf, best_on_cand)
        pick = int(np.argmax(masked))
        if masked[pick] == -math.inf:
            break
        x = cand[pick]
    return np.asarray(queries), np.asarray(values), np.asarray(certs)


def assert_grid_run_matches_scan(fn, eps, budget, candidates, length=None):
    trace = ps_run_grid(fn, eps, budget, candidates=candidates)
    queries, values, certs = scan_grid_run(fn, eps, budget, candidates, length)
    assert np.array_equal(trace.queries, queries)
    assert np.array_equal(trace.values, values)
    assert np.array_equal(trace.certificates, certs)
    return trace


def bumpy_box_function(norm, dim, seed):
    center = np.random.default_rng(seed).uniform(size=dim)

    def evaluator(points):
        wave = np.sin(7.0 * points).sum(axis=-1) / dim
        return 1.0 - norm.length(points - center) + 0.2 * wave

    # The objective's constant is at most 2.4.  A bound ten times that
    # keeps the cones steep, so no candidate's envelope falls below the
    # best value early and a run queries most of its candidates.
    box = Box(np.zeros(dim), np.ones(dim))
    return lc.TestFunction(f"bumpy-{norm.kind}-d{dim}", box, norm, 25.0, evaluator)


@pytest.mark.parametrize("norm", (SUP, EUCLIDEAN, L1), ids=lambda n: n.kind)
@pytest.mark.parametrize("dim", range(2, 8))
def test_grid_run_matches_full_scan(norm, dim):
    fn = bumpy_box_function(norm, dim, seed=dim)
    rng = np.random.default_rng(100 + dim)
    points = rng.uniform(size=(300, dim))
    # repeated rows are marked together when either copy is queried
    points = np.concatenate([points, points[:40], points[:5]])
    # a declared cover below eps / lip, so the run does not stop at once
    cand = CandidateSet(points, cover_radius=1e-8)
    trace = assert_grid_run_matches_scan(fn, 1e-6, 400, cand)
    assert len(trace) > 100
    # the default first query, the centre, as a candidate given twice
    centre = fn.domain.lower + fn.domain.edges * 0.5
    twice = CandidateSet(np.concatenate([points, [centre, centre]]), cover_radius=1e-8)
    trace = assert_grid_run_matches_scan(fn, 1e-6, 400, twice)
    assert trace.queries[1].tolist() != centre.tolist()
    # a midpoint grid of a few hundred points
    grid, _ = midpoint_grid(fn.domain, 1.0 / round(400 ** (1.0 / dim)))
    trace = assert_grid_run_matches_scan(fn, 1e-6, 300, CandidateSet(grid, 1e-8))
    assert len(trace) > 100
    # sorted by first coordinate, in five long runs of equal values
    runs = points.copy()
    runs[:, 0] = np.random.default_rng(dim).integers(0, 5, size=len(runs)) / 4.0
    runs = runs[np.argsort(runs[:, 0], kind="stable")]
    trace = assert_grid_run_matches_scan(fn, 1e-6, 400, CandidateSet(runs, 1e-8))
    assert len(trace) > 100


def column_order_length(kind):
    """Row lengths with the coordinate terms combined left to right, one
    column at a time, the order ``Norm.length`` takes at every d, written
    out so that the oracle does not call the code it checks."""

    def length(v):
        terms = v * v if kind == "euclidean" else np.abs(v)
        acc = terms[:, 0]
        for j in range(1, v.shape[1]):
            acc = np.maximum(acc, terms[:, j]) if kind == "sup" else acc + terms[:, j]
        return np.sqrt(acc) if kind == "euclidean" else acc

    return length


def row_pairwise_length(kind):
    """Euclidean or l1 row lengths as numpy sums C-contiguous rows,
    pairwise from 8 terms on."""

    def length(v):
        acc = np.ascontiguousarray(v * v if kind == "euclidean" else np.abs(v)).sum(axis=1)
        return np.sqrt(acc) if kind == "euclidean" else acc

    return length


@pytest.mark.parametrize("norm", (SUP, EUCLIDEAN, L1), ids=lambda n: n.kind)
@pytest.mark.parametrize("dim", (8, 9))
def test_grid_run_sums_long_rows_in_column_order(norm, dim):
    fn = bumpy_box_function(norm, dim, seed=dim)
    rng = np.random.default_rng(100 + dim)
    # coordinates of mixed magnitude, so that the summation order shows
    points = rng.uniform(size=(300, dim)) ** rng.integers(1, 40, size=dim)
    cand = CandidateSet(points, cover_radius=1e-8)
    trace = assert_grid_run_matches_scan(fn, 1e-6, 200, cand, length=column_order_length(norm.kind))
    assert len(trace) == 200
    if norm.kind != "sup":
        # rows summed pairwise give other certificates on these points, so
        # a run that summed that way would fail the match above (a maximum
        # does not depend on the order)
        pairwise = scan_grid_run(fn, 1e-6, 200, cand, length=row_pairwise_length(norm.kind))
        assert not np.array_equal(pairwise[2], trace.certificates)
    # a product grid of two coordinates per axis, sorted by first coordinate
    axes = np.sort(rng.uniform(size=(dim, 2)) ** rng.integers(1, 4, size=(dim, 1)), axis=1)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    cand = CandidateSet(grid, cover_radius=1e-8)
    trace = assert_grid_run_matches_scan(fn, 1e-6, 200, cand, length=column_order_length(norm.kind))
    assert len(trace) > 50


def wavy_box_function(box, norm, lip, seed=0):
    """A rippled cone on ``box`` at a random centre, ``(lip / 4)(0.2 s
    sin(7 r / s) - r)`` for ``r`` the distance to the centre and ``s`` the
    box diameter.  Its constant in ``norm`` is at most ``0.6 lip``."""
    centre = box.lower + box.edges * np.random.default_rng(seed).uniform(size=box.dim)
    size = float(norm.length(box.edges))

    def evaluator(points):
        r = norm.length(points - centre)
        return (lip / 4.0) * (0.2 * size * np.sin(7.0 * r / size) - r)

    return lc.TestFunction(f"wavy-{norm.kind}-d{box.dim}", box, norm, lip, evaluator)


@pytest.mark.parametrize("norm", (SUP, EUCLIDEAN, L1), ids=lambda n: n.kind)
@pytest.mark.parametrize("offset", (0.0, -37.5, 1e6))
@pytest.mark.parametrize("scale", (1e-3, 7.5))
def test_grid_run_matches_full_scan_on_moved_grids(norm, offset, scale):
    # A query updates only the slice of a sorted set that its cone can
    # reach; far from the origin and at small scales rounding decides the
    # reach, and the slice must allow for it.
    lower = np.array([offset, 0.5 * offset])
    box = Box(lower, lower + scale * np.array([1.0, 0.75]))
    fn = wavy_box_function(box, norm, 1.0 / scale, seed=3)
    grid, _ = midpoint_grid(box, scale / 24.0)
    trace = assert_grid_run_matches_scan(fn, 1e-9, 300, CandidateSet(grid, 1e-12 * scale))
    assert len(trace) > 100


@pytest.mark.parametrize("norm", (SUP, EUCLIDEAN, L1), ids=lambda n: n.kind)
@pytest.mark.parametrize("lip", (0.1, 1.0 / 3.0, 3.7))
def test_grid_run_matches_full_scan_at_non_dyadic_bounds(norm, lip):
    box = Box(np.zeros(2), np.ones(2))
    fn = wavy_box_function(box, norm, lip, seed=4)
    grid, _ = midpoint_grid(box, 1.0 / 20.0)
    trace = assert_grid_run_matches_scan(fn, 1e-9, 300, CandidateSet(grid, 1e-12))
    assert len(trace) > 100


@pytest.mark.parametrize("norm", (SUP, EUCLIDEAN, L1), ids=lambda n: n.kind)
def test_grid_run_matches_full_scan_under_a_refuted_bound(norm):
    # At a quarter of its bound the objective outruns the cones, and some
    # query observes more than the envelope allowed there (fx > top).
    # The slice must still hold the queried row.  The run goes on past
    # it: the cover slack is eps, and adding it to the best value and
    # taking it off again often rounds above eps.
    box = Box(np.zeros(2), np.ones(2))
    fn = wavy_box_function(box, norm, 3.7, seed=5)
    fn = replace(fn, lip_bound=fn.lip_bound / 4, exact_lip=None)
    grid, _ = midpoint_grid(box, 1.0 / 12.0)
    eps = 0.01
    trace = assert_grid_run_matches_scan(fn, eps, 300, CandidateSet(grid, eps / fn.lip_bound))
    q, v = trace.queries, trace.values
    refuted = [
        k
        for k in range(1, len(q))
        if v[k] > np.min(v[:k] + fn.lip_bound * norm.length(q[:k] - q[k]))
    ]
    assert refuted and refuted[0] < len(q) - 1


def test_grid_run_matches_full_scan_on_registry_sets():
    fn = lc.get_function("constant-d2")
    # the default center is not a candidate of this 4-point grid
    cand = CandidateSet(midpoint_grid(fn.domain, 0.5)[0], cover_radius=1e-8)
    assert len(assert_grid_run_matches_scan(fn, 1e-6, 50, cand)) == 5
    fn = lc.get_function("multibump-d2")
    cand = candidates_for(fn.domain, fn.lip_bound, 0.05, fn.norm)
    assert_grid_run_matches_scan(fn, 0.05, 300, cand)
    twice = CandidateSet(np.concatenate([cand.points, [[0.5, 0.5]] * 2]), cand.cover_radius)
    assert_grid_run_matches_scan(fn, 0.05, 300, twice)


@pytest.mark.parametrize("order", ("sorted", "unsorted"))
@pytest.mark.parametrize("norm", (SUP, EUCLIDEAN, L1), ids=lambda n: n.kind)
def test_grid_run_marks_exactly_the_queried_rows(norm, order):
    # Values lie in [1, 1.5]: adding a cover slack of 0.75 ulp(1) to the
    # best value rounds up a whole ulp, so no certificate reaches eps =
    # 0.75 ulp(1), and the run queries every distinct row.
    box = Box([-1.0, -1.0], [1.0, 1.0])
    fn = lc.TestFunction(
        f"dome-{norm.kind}", box, norm, 1.0, lambda x: 1.5 - 0.125 * norm.length(x - 0.1)
    )
    points = np.concatenate(
        [
            np.random.default_rng(7).uniform(-1.0, 1.0, size=(12, 2)),
            # a signed-zero pair and an exact duplicate: equal rows, to be
            # marked together whichever is queried
            [[-0.0, 0.5], [0.0, 0.5], [0.3, -0.7], [0.3, -0.7]],
            # distinct rows whose euclidean distance squares to 0
            [[2.0**-600, 0.25], [2.0**-599, 0.25]],
        ]
    )
    if order == "sorted":
        # the first coordinates ascend: each query updates a slice
        points = points[np.argsort(points[:, 0], kind="stable")]
    eps = 0.75 * 2.0**-52
    trace = assert_grid_run_matches_scan(fn, eps, 100, CandidateSet(points, eps))
    # the centre, then the 16 distinct rows
    assert len(trace) == 17
    assert len(np.unique(trace.queries, axis=0)) == 17


def test_grid_run_warns_on_coarse_candidates():
    fn = lc.get_function("multibump-d2")
    coarse = candidates_for(fn.domain, 1.0, 0.5, SUP)  # cover 0.25
    trace = ps_run_grid(fn, eps=0.01, budget=10, candidates=coarse)
    assert any("cover" in w for w in trace.warnings)
    assert len(trace) == 1


def test_grid_run_stops_at_once_when_the_cap_leaves_eps_out_of_reach():
    # At L * diam * 2^-8 the capped ring set covers only to 0.0126,
    # above eps / L = 0.0078; no certificate can reach eps, so the run
    # stops after its first query instead of spending the budget.
    fn = lc.get_function("cone-d2")
    eps = fn.lip_bound * lc.diameter(fn.domain, fn.norm) * 2.0**-8
    trace = ps_run_grid(fn, eps, 300)
    assert len(trace) == 1
    assert any("cannot be certified" in w for w in trace.warnings)
    assert trace.certificates[0] > eps
    assert certificate_validity(trace, fn.known_max).ok


def test_grid_run_valid_on_2d_registry():
    for fn in lc.registry():
        if fn.dim != 2:
            continue
        trace = ps_run_grid(fn, eps=0.05, budget=600)
        check = certificate_validity(trace, fn.known_max)
        assert check.ok, (fn.label, check)
        assert lc.recommendations_consistent(trace)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_grid_run_rejects_non_finite_values(poison, bad):
    fn = poison(lc.get_function("multibump-d2"), [0.5, 0.5], bad)
    with pytest.raises(ValueError, match=r"non-finite value .* at x = \[0\.5, 0\.5\]"):
        ps_run_grid(fn, eps=1 / 16, budget=100)


def test_grid_run_rejects_outside_candidates():
    fn = lc.get_function("multibump-d2")
    bad = CandidateSet(points=np.array([[0.5, 0.5], [1.5, 0.5]]), cover_radius=0.5)
    with pytest.raises(ValueError):
        ps_run_grid(fn, eps=0.1, budget=10, candidates=bad)


def test_grid_certificates_account_for_unseen_candidates():
    # with a fine net and a small budget the certificate must stay
    # honest: max over unqueried candidates plus the cover slack
    fn = lc.get_function("constant-d2")
    trace = ps_run_grid(fn, eps=0.01, budget=5)
    assert len(trace) == 5
    assert certificate_validity(trace, fn.known_max).ok
    assert trace.certificates[-1] > 0.0


def test_grid_exhausts_candidates_then_stops():
    # constant 0.3, so the final certificate (0.3 + 0.25) - 0.3 rounds
    # just above eps = 0.25 = lip * cover_radius: never certified, never
    # out of reach, and the run ends by exhausting its candidates
    fn = replace(
        lc.get_function("constant-d2"), evaluator=lambda x: np.full(len(x), 0.3), known_max=0.3
    )
    cand = candidates_for(fn.domain, 1.0, 0.5, SUP)  # 4 points, cover 0.25
    trace = ps_run_grid(fn, eps=0.25, budget=50, candidates=cand)
    # the default first query (the center) is not a candidate; after it
    # and all four candidates only the cover slack remains and the run
    # stops well short of the budget
    assert len(trace) == 5
    assert not trace.warnings
    assert trace.certificates[-1] > 0.25
    assert trace.certificates[-1] == pytest.approx(fn.lip_bound * cand.cover_radius)


def test_envelope_needs_an_interval_and_an_observation():
    with pytest.raises(ValueError, match="empty interval"):
        Envelope1D(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="no observations"):
        Envelope1D(0.0, 1.0, 1.0).max_and_argmax()


@pytest.mark.parametrize(
    "points, radius, fragment",
    [
        (np.array([0.1, 0.5]), 0.1, r"\(n, d\) array, n >= 1, got \(2,\)"),
        (np.zeros((2, 2, 1)), 0.1, r"\(n, d\) array, n >= 1, got \(2, 2, 1\)"),
        (np.zeros((0, 2)), 0.1, r"n >= 1, got \(0, 2\)"),
        (np.zeros((1, 2)), 0.0, "cover radius must be positive"),
        (np.zeros((1, 2)), math.nan, "cover radius must be positive"),
    ],
    ids=["flat", "3-d", "empty", "zero radius", "nan radius"],
)
def test_candidate_set_refuses_bad_points_and_radii(points, radius, fragment):
    # a flat array used to become one point of dimension len(points)
    with pytest.raises(ValueError, match=fragment):
        CandidateSet(points, radius)


@pytest.mark.parametrize(
    "ball",
    [Ball(np.zeros(2), 1.0, SUP), Ball(np.zeros(3), 1.0, EUCLIDEAN)],
    ids=["sup disk", "euclidean 3-ball"],
)
def test_candidates_for_has_no_rule_for_other_balls(ball):
    with pytest.raises(ValueError, match="no rigorous candidate builder"):
        candidates_for(ball, 1.0, 0.1, ball.norm)


def test_grid_run_rejects_candidates_of_another_dimension():
    cone = lc.get_function("cone-d2")
    with pytest.raises(ValueError, match="candidate dimension"):
        ps_run_grid(cone, 0.5, 10, candidates=CandidateSet(np.zeros((4, 3)), 0.1))


# --- seeded soundness off the registry ------------------------------------


def assert_sound(trace, fn):
    assert certificate_validity(trace, fn.known_max).ok
    assert recommendations_consistent(trace)
    assert len(np.unique(trace.queries, axis=0)) == len(trace)


@pytest.mark.parametrize("seed", range(3))
def test_ps1d_is_sound_on_seeded_objectives(seed):
    # the d = 1 boxes of the tree search's seeded suite (tests/test_doo.py)
    fn, eps0 = peaks([seed, 1, 3], "box", 1)
    eps = eps0 * 2.0**-9
    coarse, fine = ps_run_1d(fn, eps, 2000), ps_run_1d(fn, eps / 2, 2000)
    for trace in (coarse, fine):
        assert_sound(trace, fn)
    # the run at eps / 2 repeats the run at eps, then continues
    n = len(coarse)
    assert len(fine) > n
    assert np.array_equal(fine.queries[:n], coarse.queries)
    assert np.array_equal(fine.certificates[:n], coarse.certificates)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("norm", sorted(NORMS))
@pytest.mark.parametrize("kind, d", [("box", 2), ("box", 3), ("euclidean", 2)])
def test_psgrid_is_sound_on_seeded_objectives(kind, d, norm, seed):
    # boxes in d = 2 and 3 and the planar euclidean disc, each with the
    # objective stated in every norm; far from the origin the disc's
    # rings are pulled in (tests/test_doo.py draws the same domains)
    fn, eps0 = peaks([seed, d, len(kind)], kind, d, norm=norm)
    eps = eps0 * 2.0**-5
    trace = ps_run_grid(fn, eps, 2000)
    assert_sound(trace, fn)
    assert not trace.warnings
    assert trace.certificates[-1] <= eps
