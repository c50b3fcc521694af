"""Certified and non-certified optimistic tree search."""

from __future__ import annotations

import heapq
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lipcert as lc
from lipcert import (
    EUCLIDEAN,
    Ball,
    BisectionPartition,
    Box,
    Norm,
    bisection_setup,
    cdoo_run,
    certificate_validity,
    ncdoo_run,
    recommendations_consistent,
    sigma_from_trace,
    zeta_from_trace,
)
from lipcert.core import build_trace, check_run_args

from seeded_objectives import NORMS, peaks


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


def test_larger_lip_is_allowed_and_still_valid():
    fn = lc.get_function("tent-d1")
    trace = cdoo_run(replace(fn, lip_bound=4.0), eps=0.25, budget=200)
    assert trace.lip_bound == 4.0
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


@pytest.mark.parametrize(
    "run, label",
    [
        (lambda fn, budget: cdoo_run(fn, 0.01, budget), "tent-d1"),
        (lambda fn, budget: ncdoo_run(fn, budget), "tent-d1"),
        (lambda fn, budget: lc.ps_run_1d(fn, 0.01, budget), "tent-d1"),
        (lambda fn, budget: lc.ps_run_grid(fn, 0.01, budget), "cone-d2"),
    ],
    ids=["cdoo", "ncdoo", "ps1d", "psgrid"],
)
def test_a_bool_budget_is_rejected(run, label):
    # True is an int equal to 1, but a trace must not record it as a
    # budget; the check comes before the first evaluation
    fn, calls = _counted(lc.get_function(label))
    for budget in (True, False, 0):
        with pytest.raises(ValueError, match="budget must be a positive integer"):
            run(fn, budget)
    assert calls == []
    assert run(fn, 1).budget == 1


def _counted(fn):
    calls = []

    def counting(x, inner=fn.evaluator):
        calls.append(len(x))
        return inner(x)

    return replace(fn, evaluator=counting), calls


@pytest.mark.parametrize(
    "run, label",
    [(cdoo_run, "tent-d1"), (lc.ps_run_1d, "tent-d1"), (lc.ps_run_grid, "cone-d2")],
    ids=["cdoo", "ps1d", "psgrid"],
)
def test_a_certified_run_rejects_a_missing_eps(run, label):
    # cdoo used to run to its budget with no certificates, and the
    # sawtooth runners raised TypeError, ps1d after one evaluation
    fn, calls = _counted(lc.get_function(label))
    with pytest.raises(ValueError, match="accuracy target must be positive and finite, got None"):
        run(fn, None, 50)
    assert calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_evaluation_raises_instead_of_certifying(poison, bad):
    # max(0.0, nan) is 0.0, so a poisoned value used to become a zero
    # certificate and a "certified" stop
    fn = poison(lc.get_function("tent-d1"), [0.25, 0.75], bad)
    with pytest.raises(ValueError, match=r"non-finite value .* at x = \[0\.25\]"):
        cdoo_run(fn, eps=1 / 16, budget=1000)


def test_budget_cut_evaluates_only_the_recorded_children(poison):
    fn = lc.get_function("multibump-d2")
    counted, evaluated = _counted(fn)
    # the root's split has four children, and the budget records one
    trace = ncdoo_run(counted, 2)
    assert len(trace) == 2
    assert sum(evaluated) == 2
    # so a child left out of the trace can no longer fail the run
    full = ncdoo_run(fn, 5)
    poisoned = poison(fn, full.queries[2:], math.nan)
    assert np.array_equal(ncdoo_run(poisoned, 2).queries, full.queries[:2])
    assert np.array_equal(cdoo_run(poisoned, 1e-9, 2).queries, full.queries[:2])


def test_depth_cap_freezes_instead_of_crashing():
    # a 1-d run long enough to drive the peak cell to the index depth
    # cap must keep going on other cells and stay sound
    fn = lc.get_function("tent-d1")
    trace = ncdoo_run(fn, budget=5000)
    assert len(trace) == 5000
    certified = cdoo_run(fn, eps=1e-19, budget=5000)
    assert certificate_validity(certified, fn.known_max).ok


def test_a_root_float64_cannot_split_ends_the_run():
    # floats are 2 apart near 1e16, so the root's children [1e16, 1e16 + 2]
    # and [1e16 + 2, 1e16 + 4] would have centers on their bounds: the
    # root is frozen and the run stops after its one query
    fn = _tent_at(Box([1e16], [1e16 + 4]), lc.SUP, np.array([1e16 + 2]))
    assert len(ncdoo_run(fn, 10)) == 1
    certified = cdoo_run(fn, 1e-3, 10)
    assert len(certified) == 1 and certified.certificates.tolist() == [4.0]
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


@pytest.mark.parametrize(
    "label, box",
    [
        ("tent-d1", Box([0.0], [0.25])),
        ("halftent-d1", Box([0.0], [0.25])),
        ("tent-d1", Box([-1.0], [2.0])),
        ("cone-d2", Box([-1.0, -1.0], [1.0, 1.0])),
    ],
)
def test_partition_must_fit_the_domain(label, box):
    # a sub-box certified tent-d1 at query 13 with a certificate below
    # the true gap; a wider box queried points outside the domain; the
    # cone's enclosing box without its ball does both
    fn = lc.get_function(label)
    with pytest.raises(ValueError, match="bisection_setup"):
        cdoo_run(fn, eps=0.01, budget=1000, partition=BisectionPartition(box))
    with pytest.raises(ValueError, match="bisection_setup"):
        ncdoo_run(fn, budget=1000, partition=BisectionPartition(box))


def test_partition_ball_must_be_the_domain():
    fn = lc.get_function("cone-d2")
    canonical, _ = bisection_setup(fn)
    smaller = Ball(np.zeros(2), 0.5, EUCLIDEAN)
    with pytest.raises(ValueError, match="bisection_setup"):
        cdoo_run(fn, 0.1, 100, partition=BisectionPartition(canonical.box, smaller))
    l1 = Ball(np.zeros(2), 1.0, Norm("l1"))
    with pytest.raises(ValueError, match="bisection_setup"):
        cdoo_run(fn, 0.1, 100, partition=BisectionPartition(canonical.box, l1))
    with pytest.raises(ValueError, match="bisection_setup"):
        cdoo_run(fn, 0.1, 100, partition=canonical.box)
    fresh = BisectionPartition(canonical.box, Ball(np.zeros(2), 1.0, EUCLIDEAN))
    assert np.array_equal(
        cdoo_run(fn, 0.1, 100, partition=fresh).queries, cdoo_run(fn, 0.1, 100).queries
    )


def test_partition_must_not_override_the_verified_geometry():
    # verify_assumptions checks _cells, which split does not read, so a
    # subclass overriding it would be verified on cells it is not
    # searched on
    class OwnCells(BisectionPartition):
        def _cells(self, pos, depth):
            return super()._cells(pos, depth)

    fn = lc.get_function("cone-d2")
    canonical, _ = bisection_setup(fn)
    part = OwnCells(canonical.box, canonical.restrict_to)
    with pytest.raises(ValueError, match="own _cells"):
        cdoo_run(fn, 0.1, 100, partition=part)
    with pytest.raises(ValueError, match="own _cells"):
        ncdoo_run(fn, 100, partition=part)


# --- reference: the tree search as it ran on keyed cell methods ----------

# A cell key is a (depth, index) tuple; depth-h indices run over
# range(arity ** h) in dimension-major child-code order.
_ROOT = (0, 0)


def _ref_positions(part, key):
    depth, rem = key
    pos = np.zeros(part.dim, dtype=np.int64)
    for level in range(depth):
        code = rem % part.arity
        rem //= part.arity
        for j in range(part.dim):
            pos[j] += ((code >> (part.dim - 1 - j)) & 1) << level
    return pos


def _ref_bounds(part, key):
    pos = _ref_positions(part, key)
    step = part.box.edges * 0.5**key[0]
    return part.box.lower + pos * step, part.box.lower + (pos + 1) * step


def _ref_center(part, key):
    # the split point of the cell's children, the odd multiple of the
    # half-step that the separation constant assumes
    pos = _ref_positions(part, key)
    return part.box.lower + (2 * pos + 1) * (part.box.edges * 0.5 ** (key[0] + 1))


def _ref_representative(part, key):
    lower, upper = _ref_bounds(part, key)
    center = _ref_center(part, key)
    ball = part.restrict_to
    if ball is None or ball.contains(center):
        return center
    return np.clip(ball.center, lower, upper)


def _ref_feasible(part, key):
    ball = part.restrict_to
    if ball is None:
        return True
    lower, upper = _ref_bounds(part, key)
    return bool(ball.contains(np.clip(ball.center, lower, upper)))


def _ref_children(part, key):
    depth, index = key
    if (depth + 1) * part.dim > 60:
        raise ValueError("too deep")
    return [(depth + 1, index * part.arity + c) for c in range(part.arity)]


def _ref_frozen(part, key):
    # float64 cannot split the cell when some child's center is not
    # strictly inside the child's bounds
    for kid in _ref_children(part, key):
        lower, upper = _ref_bounds(part, kid)
        center = _ref_center(part, kid)
        if not (np.all(lower < center) and np.all(center < upper)):
            return True
    return False


def _ref_search(fn, eps, budget):
    # Queries each new point once, evaluated on its own.  It keys every
    # point, on boxes too, so a box run that skipped its memo and
    # repeated a point would differ from it.  Frozen cells wait on the
    # heap and join the envelope when popped.
    part, lip = bisection_setup(fn)
    check_run_args(eps, budget)
    certified = eps is not None
    rep0 = _ref_representative(part, _ROOT)
    v0 = float(fn(rep0))
    queries, values = [rep0], [v0]
    # keyed by coordinate tuples, under which -0.0 equals 0.0
    seen = {tuple(rep0.tolist()): v0}
    certs = [max(0.0, lip * part.diam_bound)]
    best_val = v0
    heap = [(-(v0 + lip * part.diam_bound), 0, 0)]
    frozen_b = -np.inf
    done = certified and certs[0] <= eps
    while heap and len(values) < budget and not done:
        neg_b, depth, index = heapq.heappop(heap)
        optimistic = -neg_b
        if depth >= part.max_depth or _ref_frozen(part, (depth, index)):
            frozen_b = max(frozen_b, optimistic)
            continue
        kids = [k for k in _ref_children(part, (depth, index)) if _ref_feasible(part, k)]
        slack = lip * part.diam_bound * part.shrink ** (depth + 1)
        for kid in kids:
            rep = _ref_representative(part, kid)
            key = tuple(rep.tolist())
            if key not in seen:
                val = seen[key] = float(fn(rep[None])[0])
                queries.append(rep)
                values.append(val)
                best_val = max(best_val, val)
                certs.append(max(0.0, max(optimistic, frozen_b) - best_val))
            heapq.heappush(heap, (-(seen[key] + slack), *kid))
            if len(values) == budget:
                done = True
                break
        if certified and not done and certs[-1] <= eps:
            done = True
    return build_trace("ref", fn.label, lip, eps, budget, [(np.asarray(queries), values, certs)])


def _assert_same_run(trace, ref):
    assert np.array_equal(trace.queries, ref.queries)
    assert np.array_equal(trace.values, ref.values)
    if ref.certificates is None:
        assert trace.certificates is None
    else:
        assert np.array_equal(trace.certificates, ref.certificates)


def _custom(label, domain, norm):
    peak = domain.center + 0.1 if isinstance(domain, Ball) else domain.lower + 0.37 * domain.edges
    return lc.TestFunction(
        label=label,
        domain=domain,
        norm=norm,
        lip_bound=1.0,
        evaluator=lambda x: np.sin(7 * x).sum(axis=1) * 0.1 / x.shape[1]
        - 0.9 * norm.length(x - peak),
    )


@pytest.mark.parametrize("fn", lc.registry(), ids=lambda fn: fn.label)
def test_search_matches_reference_on_registry(fn):
    budget = 600 if fn.dim == 1 else 2000
    _assert_same_run(cdoo_run(fn, 0.01, budget), _ref_search(fn, 0.01, budget))
    _assert_same_run(ncdoo_run(fn, budget), _ref_search(fn, None, budget))


def test_search_matches_reference_at_depth_sixty():
    # The index cap allows depth 60, but near the peak at 0.5 float64
    # runs out of resolution first: children of a depth-52 cell in
    # [0.5, 1), or of a depth-53 cell in [0.25, 0.5), where floats are
    # twice as dense, would have centers on their own bounds.  Those
    # cells freeze instead of splitting, in the run and in the reference
    # alike, and no point is queried twice.
    frozen = []

    class Recording(BisectionPartition):
        def split(self, depth, pos):
            kids = super().split(depth, pos)
            if kids is None:
                frozen.append(depth)
            return kids

    fn = lc.get_function("tent-d1")
    plain, _ = bisection_setup(fn)
    trace = ncdoo_run(fn, 4000, partition=Recording(plain.box))
    _assert_same_run(trace, _ref_search(fn, None, 4000))
    assert len(np.unique(trace.queries)) == len(trace) == 4000
    assert set(frozen) == {52, 53}


@pytest.mark.parametrize("budget", [1, 2, 3, 5])
@pytest.mark.parametrize("label", ["tent-d1", "multibump-d2", "cone-d2"])
def test_search_matches_reference_when_budget_cuts_a_split(label, budget):
    fn = lc.get_function(label)
    _assert_same_run(cdoo_run(fn, 1e-9, budget), _ref_search(fn, 1e-9, budget))
    _assert_same_run(ncdoo_run(fn, budget), _ref_search(fn, None, budget))


@pytest.mark.parametrize(
    "domain",
    [
        Box([0.1, -2.3, 0.7], [0.45, 1.9, 3.3]),
        Ball([0.3, -0.2, 0.15], 0.71, EUCLIDEAN),
        Ball([0.3, -0.2, 0.15], 0.71, Norm("l1")),
    ],
    ids=["box", "euclidean-ball", "l1-ball"],
)
def test_search_matches_reference_off_the_unit_box(domain):
    fn = _custom("custom-d3", domain, domain.norm if isinstance(domain, Ball) else lc.SUP)
    _assert_same_run(cdoo_run(fn, 1e-9, 2000), _ref_search(fn, 1e-9, 2000))
    _assert_same_run(ncdoo_run(fn, 2000), _ref_search(fn, None, 2000))


def test_search_matches_reference_with_a_custom_lip():
    fn = lc.get_function("multibump-d2")
    fn = replace(fn, lip_bound=fn.lip_bound * 2.7)
    _assert_same_run(cdoo_run(fn, 0.05, 3000), _ref_search(fn, 0.05, 3000))


def test_search_matches_reference_through_a_wrapping_subclass():
    splits = []

    class Wrapping(BisectionPartition):
        def split(self, depth, pos):
            splits.append(depth)
            return super().split(depth, pos)

    for label in ("multibump-d1", "cone-d2"):
        fn = lc.get_function(label)
        plain, _ = bisection_setup(fn)
        wrapped = Wrapping(box=plain.box, restrict_to=plain.restrict_to)
        splits.clear()
        _assert_same_run(cdoo_run(fn, 0.01, 2000, partition=wrapped), _ref_search(fn, 0.01, 2000))
        assert splits and splits[0] == 0


def _index(pos, depth, dim):
    index = 0
    for level in range(depth - 1, -1, -1):
        code = 0
        for j in range(dim):
            code |= int((pos[j] >> level) & 1) << (dim - 1 - j)
        index = (index << dim) | code
    return index


_SPLIT_PARTITIONS = [
    BisectionPartition(Box([0.1], [1.73])),
    BisectionPartition(Box([0.1, -2.3], [0.45, 1.9])),
    BisectionPartition(Box([0.1, -2.3, 0.7], [0.45, 1.9, 3.3])),
    BisectionPartition(Box(np.full(8, -1.3), np.full(8, 1.3)), Ball(np.zeros(8), 1.3, EUCLIDEAN)),
    BisectionPartition(Box(np.full(2, -1.0), np.ones(2)), Ball(np.zeros(2), 1.0, EUCLIDEAN)),
    BisectionPartition(
        Box([-0.41, -0.91, -0.56], [1.01, 0.51, 0.86]),
        Ball([0.3, -0.2, 0.15], 0.71, Norm("l1")),
    ),
    BisectionPartition(Box(np.zeros(8), np.ones(8))),
]


@pytest.mark.parametrize(
    "part",
    _SPLIT_PARTITIONS,
    ids=lambda p: f"d{p.dim}-{'box' if p.restrict_to is None else p.restrict_to.norm.kind}",
)
def test_split_matches_the_keyed_methods(part):
    rng = np.random.default_rng(part.dim)
    depths = [0, 1, part.max_depth - 1] + rng.integers(0, part.max_depth, size=6).tolist()
    ball = part.restrict_to
    cells = []
    for depth in depths:
        cells.append((depth, tuple(rng.integers(0, 2**depth, size=part.dim).tolist())))
        if ball is not None:
            # random cells of an 8-d box mostly miss its ball
            point = ball.uniform_sample(rng, 1)[0]
            frac = (point - part.box.lower) / part.box.edges
            cell = np.minimum((frac * 2**depth).astype(np.int64), 2**depth - 1)
            cells.append((depth, tuple(cell.tolist())))
    for depth, pos in cells:
        key = (depth, _index(pos, depth, part.dim))
        assert np.array_equal(_ref_positions(part, key), pos)
        split = part.split(depth, pos)
        assert (split is None) == _ref_frozen(part, key)
        if split is None:
            continue
        codes, kid_pos, reps = split
        kids = _ref_children(part, key)
        # each child's split is None where the reference rule freezes that
        # child (of an 8-d cell's children, about every 32nd: the rule is
        # slow there)
        every = max(1, len(codes) // 8)
        for code, kid in zip(codes[::every], kid_pos[::every]):
            want = depth + 1 >= part.max_depth or _ref_frozen(part, kids[code])
            assert (part.split(depth + 1, kid) is None) == want
        mask = [_ref_feasible(part, k) for k in kids]
        assert codes == [c for c in range(part.arity) if mask[c]]
        for code, row_pos, rep in zip(codes, kid_pos, reps):
            kid = kids[code]
            assert kid[1] == _index(row_pos, depth + 1, part.dim)
            assert np.array_equal(rep, _ref_representative(part, kid))
    assert part.split(part.max_depth, (0,) * part.dim) is None
    with pytest.raises(ValueError):
        part.split(part.max_depth + 1, (0,) * part.dim)


# --- no point is queried twice -------------------------------------------


def _tent_at(domain, norm, peak):
    return lc.TestFunction(
        label="tent-at",
        domain=domain,
        norm=norm,
        lip_bound=1.0,
        evaluator=lambda x: -norm.length(x - peak),
        exact_lip=1.0,
        known_max=0.0,
    )


def _assert_certified_once(fn, eps, budget):
    certified = cdoo_run(fn, eps, budget)
    assert certificate_validity(certified, fn.known_max).ok
    assert len(np.unique(certified.queries, axis=0)) == len(certified)


def _assert_plain_once(fn, budget):
    plain = ncdoo_run(fn, budget)
    assert len(plain) == budget
    assert len(np.unique(plain.queries, axis=0)) == budget


def _assert_each_point_once(fn, eps, budget):
    _assert_certified_once(fn, eps, budget)
    _assert_plain_once(fn, budget)


@pytest.mark.parametrize("fn", lc.registry(), ids=lambda fn: fn.label)
def test_no_point_is_queried_twice_on_the_registry(fn):
    # tent-d1's runs reach cells that float64 cannot split, and cone-d2's
    # clamped representatives land on points queried before
    eps0 = fn.lip_bound * lc.diameter(fn.domain, fn.norm)
    for j in (1, 4, 8):
        _assert_certified_once(fn, eps0 * 0.5**j, 4000)
    _assert_plain_once(fn, 4000)


def test_cone_sigma_counts_distinct_points():
    fn = lc.get_function("cone-d2")
    sigmas = [sigma_from_trace(cdoo_run(fn, fn.lip_bound * 2.0**-k, 30_000)) for k in (3, 5, 7)]
    assert sigmas == [258, 1226, 4850]


@pytest.mark.parametrize(
    "domain, norm",
    [
        # coordinates a million times the edge: float64 resolves cells
        # only down to about depth 33
        (Box([1e6], [1e6 + 1]), lc.SUP),
        # every depth-1 cell's center lies outside the ball, and all 32
        # clamp onto the root's center
        (Ball(np.zeros(5), 1.0, EUCLIDEAN), EUCLIDEAN),
    ],
    ids=["far-box", "euclidean-ball-d5"],
)
def test_no_point_is_queried_twice_off_the_registry(domain, norm):
    peak = domain.lower + 0.37 * domain.edges if isinstance(domain, Box) else domain.center + 0.1
    _assert_each_point_once(_tent_at(domain, norm, peak), 1e-12, 3000)


@given(
    d=st.integers(1, 5),
    ball=st.booleans(),
    kind=st.sampled_from(sorted(NORMS)),
    offset=st.floats(-1e9, 1e9) | st.just(0.0),
    scale=st.floats(1e-3, 1e3),
    unit=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
)
@settings(max_examples=25, deadline=None)
def test_no_point_is_queried_twice_on_drawn_domains(d, ball, kind, offset, scale, unit):
    norm = NORMS[kind]
    center = np.full(d, offset)
    # a peak at most 0.3 * scale from the center in every norm
    peak = center + 0.3 * scale * np.asarray(unit[:d]) / d
    if ball:
        domain = Ball(center, scale, norm)
    else:
        domain = Box(center - scale * np.linspace(1.0, 2.0, d), center + scale)
    _assert_each_point_once(_tent_at(domain, norm, peak), 1e-12 * scale, 600)


@pytest.mark.parametrize("eps", [math.inf, math.nan])
@pytest.mark.parametrize(
    "run, label",
    [(cdoo_run, "tent-d1"), (lc.ps_run_1d, "tent-d1"), (lc.ps_run_grid, "cone-d2")],
    ids=["cdoo", "ps1d", "psgrid"],
)
def test_a_certified_run_refuses_a_non_finite_eps_before_evaluating(run, label, eps):
    # an infinite target used to certify at the first query
    fn, calls = _counted(lc.get_function(label))
    with pytest.raises(ValueError, match=f"accuracy target must be positive and finite, got {eps}"):
        run(fn, eps, 50)
    assert calls == []


# --- seeded soundness off the registry ------------------------------------


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["box", "sup", "euclidean", "l1"])
def test_tree_search_is_sound_on_seeded_objectives(kind, d, seed):
    fn, eps0 = peaks([seed, d, len(kind)], kind, d)
    eps = eps0 * 2.0**-10
    coarse, fine = cdoo_run(fn, eps, 800), cdoo_run(fn, eps / 2, 800)
    plain = ncdoo_run(fn, 1000)
    for trace in (coarse, fine, plain):
        assert recommendations_consistent(trace)
        assert len(np.unique(trace.queries, axis=0)) == len(trace)
    for trace in (coarse, fine):
        assert certificate_validity(trace, fn.known_max).ok
    # the run at eps / 2 repeats the run at eps, then continues
    n = len(coarse)
    assert np.array_equal(fine.queries[:n], coarse.queries)
    assert np.array_equal(fine.certificates[:n], coarse.certificates)
