"""Sawtooth envelope search in 1-d and its grid variant."""

from __future__ import annotations

import math

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
    grid_candidates,
    ps_run_1d,
    ps_run_grid,
    ring_candidates,
    sigma_from_trace,
)


def brute_envelope_max(a, b, lip, xs, fs, resolution=200_001):
    """Dense-grid oracle for the max of min_j (f_j + lip |x - x_j|)."""
    grid = np.linspace(a, b, resolution)
    upper = np.min(
        fs[None, :] + lip * np.abs(grid[:, None] - xs[None, :]), axis=1
    )
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
    assert np.all(env.value(grid) >= truth - 1e-9)


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
    cand = grid_candidates(box, 0.25, SUP)
    assert len(cand.points) == 16
    # every box point is within cover_radius of some candidate
    assert cand.cover_radius == pytest.approx(0.125)
    rng = np.random.default_rng(1)
    for p in rng.uniform(size=(100, 2)):
        dists = np.max(np.abs(cand.points - p), axis=1)
        assert dists.min() <= cand.cover_radius + 1e-12


def test_ring_candidates_cover_the_disk():
    ball = Ball(np.zeros(2), 1.0, EUCLIDEAN)
    cand = ring_candidates(ball, n_rings=6, n_angles=40)
    assert any(np.array_equal(p, np.array([1.0, 0.0])) for p in cand.points)
    rng = np.random.default_rng(2)
    pts = lc.uniform_sample(ball, rng, 300)
    for p in pts:
        dists = np.linalg.norm(cand.points - p, axis=1)
        assert dists.min() <= cand.cover_radius + 1e-9


def test_candidates_for_meets_accuracy_target():
    ball = Ball(np.zeros(2), 1.0, EUCLIDEAN)
    cand = candidates_for(ball, lip=1.0, eps=0.1, norm=EUCLIDEAN)
    assert cand.cover_radius <= 0.1
    box = Box(np.zeros(2), np.ones(2))
    cand = candidates_for(box, lip=2.0, eps=0.2, norm=EUCLIDEAN)
    assert cand.cover_radius <= 0.1 + 1e-12


def test_candidates_for_caps_honestly():
    ball = Ball(np.zeros(2), 1.0, EUCLIDEAN)
    cand = candidates_for(ball, lip=1.0, eps=1e-4, norm=EUCLIDEAN, max_points=500)
    assert len(cand.points) <= 500
    # cap forces a coarser net; the radius must say so
    assert cand.cover_radius > 1e-4


def test_two_query_certification_on_cone():
    fn = lc.get_function("cone-d2")
    cand = candidates_for(fn.domain, fn.lip_bound, 0.1, EUCLIDEAN)
    trace = ps_run_grid(fn, eps=0.1, budget=100, candidates=cand)
    assert sigma_from_trace(trace) == 2
    assert trace.queries[0].tolist() == [0.0, 0.0]
    # second query is the planted boundary point, already optimal
    assert float(np.linalg.norm(trace.queries[1])) == 1.0
    assert trace.certificates[1] == pytest.approx(fn.lip_bound * cand.cover_radius)


def scan_grid_run(fn, eps, budget, candidates, x1=None, length=None):
    """Reference candidate-set run: the envelope kept in full, queried
    candidates found by comparing every row, and a masked copy of the
    envelope for each pick.  Distances come from ``length`` applied to
    the ``(n, d)`` differences, ``fn.norm.length`` by default."""
    lip, norm, cand = fn.lip_bound, fn.norm, candidates.points
    length = norm.length if length is None else length
    if x1 is None:
        x = fn.domain.lower + fn.domain.edges * 0.5
    else:
        x = np.asarray(x1, dtype=float)
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


def assert_grid_run_matches_scan(fn, eps, budget, candidates, x1=None, length=None):
    trace = ps_run_grid(fn, eps, budget, candidates=candidates, x1=x1)
    queries, values, certs = scan_grid_run(fn, eps, budget, candidates, x1, length)
    assert np.array_equal(trace.queries, queries)
    assert np.array_equal(trace.values, values)
    assert np.array_equal(trace.certificates, certs)
    return trace


def bumpy_box_function(norm, dim, seed):
    center = np.random.default_rng(seed).uniform(size=dim)

    def evaluator(points):
        wave = np.sin(7.0 * points).sum(axis=-1) / dim
        return 1.0 - norm.length(points - center) + 0.2 * wave

    box = Box(np.zeros(dim), np.ones(dim))
    return lc.TestFunction(f"bumpy-{norm.kind}-d{dim}", box, norm, 2.5, evaluator)


@pytest.mark.parametrize("norm", (SUP, EUCLIDEAN, L1), ids=lambda n: n.kind)
@pytest.mark.parametrize("dim", range(2, 8))
def test_grid_run_matches_full_scan(norm, dim):
    fn = bumpy_box_function(norm, dim, seed=dim)
    rng = np.random.default_rng(100 + dim)
    points = rng.uniform(size=(300, dim))
    # repeated rows are marked together when either copy is queried
    points = np.concatenate([points, points[:40], points[:5]])
    cand = CandidateSet(points, cover_radius=0.05)
    trace = assert_grid_run_matches_scan(fn, 0.01, 400, cand)
    assert len(trace) > 100
    # a first query that is a candidate, and one of the repeated rows
    assert_grid_run_matches_scan(fn, 0.01, 400, cand, x1=points[3])
    # a midpoint grid of a few hundred points
    grid = grid_candidates(fn.domain, 1.0 / round(400 ** (1.0 / dim)), norm)
    assert_grid_run_matches_scan(fn, 0.01, 300, grid)


def column_order_length(kind):
    """Row lengths with the coordinate terms combined left to right, one
    column at a time; ``Norm.length`` sums rows of 8 or more pairwise."""

    def length(v):
        terms = v * v if kind == "euclidean" else np.abs(v)
        acc = terms[:, 0]
        for j in range(1, v.shape[1]):
            acc = np.maximum(acc, terms[:, j]) if kind == "sup" else acc + terms[:, j]
        return np.sqrt(acc) if kind == "euclidean" else acc

    return length


@pytest.mark.parametrize("norm", (SUP, EUCLIDEAN, L1), ids=lambda n: n.kind)
@pytest.mark.parametrize("dim", (8, 9))
def test_grid_run_sums_long_rows_in_column_order(norm, dim):
    fn = bumpy_box_function(norm, dim, seed=dim)
    rng = np.random.default_rng(100 + dim)
    # coordinates of mixed magnitude, so that the summation order shows
    points = rng.uniform(size=(300, dim)) ** rng.integers(1, 40, size=dim)
    cand = CandidateSet(points, cover_radius=0.05)
    trace = assert_grid_run_matches_scan(fn, 0.01, 200, cand, length=column_order_length(norm.kind))
    assert len(trace) == 200


def test_grid_run_matches_full_scan_on_registry_sets():
    fn = lc.get_function("constant-d2")
    # the default center is not a candidate of this set
    cand = grid_candidates(fn.domain, 0.5, SUP)
    assert len(assert_grid_run_matches_scan(fn, 1e-6, 50, cand)) == 5
    fn = lc.get_function("multibump-d2")
    cand = candidates_for(fn.domain, fn.lip_bound, 0.05, fn.norm)
    assert_grid_run_matches_scan(fn, 0.05, 300, cand)
    assert_grid_run_matches_scan(fn, 0.05, 300, cand, x1=cand.points[123])


def test_grid_run_warns_on_coarse_candidates():
    fn = lc.get_function("multibump-d2")
    coarse = grid_candidates(fn.domain, 0.5, SUP)
    trace = ps_run_grid(fn, eps=0.01, budget=10, candidates=coarse)
    assert any("cover" in w for w in trace.warnings)


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
    bad = CandidateSet(
        points=np.array([[0.5, 0.5], [1.5, 0.5]]),
        cover_radius=0.5,
        note="broken",
    )
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
    fn = lc.get_function("constant-d2")
    cand = grid_candidates(fn.domain, 0.5, SUP)  # 4 points
    trace = ps_run_grid(fn, eps=1e-6, budget=50, candidates=cand)
    # the default first query (the center) is not a candidate; after it
    # and all four candidates only the cover slack remains and the run
    # stops well short of the budget
    assert len(trace) == 5
    assert trace.certificates[-1] == pytest.approx(fn.lip_bound * cand.cover_radius)
