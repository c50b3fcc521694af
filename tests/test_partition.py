"""Bisection partition geometry and the assumption verifier."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lipcert import partition as partition_module
from lipcert import (
    EUCLIDEAN,
    Ball,
    BisectionPartition,
    Box,
    Norm,
    bisection_setup,
    get_function,
    verify_assumptions,
)


@pytest.fixture
def unit2():
    return BisectionPartition(Box(np.zeros(2), np.ones(2)))


def test_constants(unit2):
    assert unit2.dim == 2
    assert unit2.arity == 4
    assert unit2.shrink == 0.5
    assert unit2.diam_bound == 1.0
    assert unit2.separation == 0.5
    assert unit2.norm.kind == "sup"


def test_constants_anisotropic():
    part = BisectionPartition(Box(np.zeros(2), np.array([4.0, 1.0])))
    assert part.diam_bound == 4.0
    assert part.separation == 0.5


def test_root_cell(unit2):
    lower, upper, reps, feas = unit2._depth_summary(0)
    assert np.array_equal(lower, np.zeros((1, 2)))
    assert np.array_equal(upper, np.ones((1, 2)))
    assert np.array_equal(reps, np.array([[0.5, 0.5]]))
    assert feas.tolist() == [True]


def test_children_are_dimension_major(unit2):
    codes, kid_pos, reps = unit2.split(0, (0, 0))
    assert codes == [0, 1, 2, 3]
    assert not any(unit2.split(1, kid) is None for kid in kid_pos)
    # child code's most significant bit moves along dimension 0
    assert kid_pos == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert np.array_equal(reps, [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    # the verifier's index order is the same child-code order
    assert np.array_equal(unit2._depth_summary(1)[2], reps)


def test_child_bounds_partition_the_parent(unit2):
    # depth-1 cell 2 sits at position (1, 0); its children are the
    # depth-2 cells 8..11
    lower1, upper1, _, _ = unit2._depth_summary(1)
    parent_lower, parent_upper = lower1[2], upper1[2]
    codes, kid_pos, reps = unit2.split(1, (1, 0))
    lower2, upper2, reps2, _ = unit2._depth_summary(2)
    assert np.array_equal(reps, reps2[8:12])
    vol = 0.0
    for lo, hi in zip(lower2[8:12], upper2[8:12]):
        assert np.all(lo >= parent_lower - 1e-15)
        assert np.all(hi <= parent_upper + 1e-15)
        vol += float(np.prod(hi - lo))
    assert vol == pytest.approx(float(np.prod(parent_upper - parent_lower)))


def test_representative_is_cell_center(unit2):
    lower, upper, reps, _ = unit2._depth_summary(3)
    assert np.array_equal(reps, (lower + upper) / 2.0)


def test_index_bounds_checked(unit2):
    with pytest.raises(ValueError):
        unit2.split(-1, (0, 0))
    with pytest.raises(ValueError):
        unit2.split(unit2.max_depth + 1, (0, 0))
    with pytest.raises(ValueError):
        unit2._depth_summary(-1)


def test_depth_cap():
    part = BisectionPartition(Box(np.zeros(1), np.ones(1)))
    assert part.max_depth == 60
    codes, kid_pos, _ = part.split(59, (0,))
    # children at the cap are frozen whatever their geometry
    assert codes == [0, 1] and [part.split(60, kid) for kid in kid_pos] == [None, None]
    with pytest.raises(ValueError):
        part.split(61, (0,))
    part2 = BisectionPartition(Box(np.zeros(2), np.ones(2)))
    assert part2.max_depth == 30
    codes, kid_pos, _ = part2.split(29, (0, 0))
    assert codes == [0, 1, 2, 3] and [part2.split(30, kid) for kid in kid_pos] == [None] * 4
    with pytest.raises(ValueError):
        part2.split(31, (0, 0))
    part3 = BisectionPartition(Box(np.zeros(3), np.ones(3)))
    assert part3.max_depth == 20
    # a tiny edge caps the depth where the deepest children's half-step
    # 1e-300 * 2**-(h+1) would be subnormal
    tiny = BisectionPartition(Box([0.0], [1e-300]))
    assert tiny.max_depth == 24
    assert 1e-300 * 2.0**-25 >= sys.float_info.min > 1e-300 * 2.0**-26
    codes, kid_pos, reps = tiny.split(23, (2**23 - 1,))
    assert codes == [0, 1] and [tiny.split(24, kid) for kid in kid_pos] == [None, None]
    half_step = 1e-300 * 2.0**-25
    assert reps.ravel().tolist() == [(2**25 - 3) * half_step, (2**25 - 1) * half_step]
    assert BisectionPartition(Box([0.0], [5e-324])).max_depth == 0
    assert BisectionPartition(Box([0.0], [2.0**-960])).max_depth == 60


def test_frozen_marks_children_float64_cannot_split():
    part = BisectionPartition(Box(np.zeros(1), np.ones(1)))
    # [1 - 2**-52, 1) holds one float between its bounds; its children's
    # centers would sit on their bounds
    assert part.split(52, (2**52 - 1,)) is None
    # so does its sibling, [1 - 2**-51, 1 - 2**-52)
    codes, kid_pos, _ = part.split(51, (2**51 - 1,))
    assert codes == [0, 1] and [part.split(52, kid) for kid in kid_pos] == [None, None]
    # near zero float64 still resolves depth-59 cells: no child is frozen
    codes, kid_pos, reps = part.split(58, (0,))
    assert reps.ravel().tolist() == [2.0**-60, 3 * 2.0**-60]
    assert [part.split(59, kid) is None for kid in kid_pos] == [False, False]
    # floats are twice as far apart just above 0.5 as just below it, so
    # of these two siblings on [0.45, 0.6] only the one below 0.5 splits
    wide = BisectionPartition(Box([0.45], [0.6]))
    codes, kid_pos, reps = wide.split(48, (93824992236885,))
    assert reps.ravel().tolist() == [0.49999999999999994, 0.5000000000000002]
    assert [wide.split(49, kid) is None for kid in kid_pos] == [False, True]
    # on [0.1, 1.73] both siblings beside 0.5 are frozen
    wide = BisectionPartition(Box([0.1], [1.73]))
    codes, kid_pos, reps = wide.split(51, (552588911333803,))
    assert reps.ravel().tolist() == [0.5, 0.5000000000000003]
    assert [wide.split(52, kid) is None for kid in kid_pos] == [True, True]


def _ref_frozen(part, depth, pos):
    # a cell cannot be split at max_depth, nor when float64 puts one of
    # its children's centers, the odd multiple of the half-step past the
    # box's lower corner, on or outside that child's bounds
    if depth >= part.max_depth:
        return True
    kid_pos = 2 * np.asarray(pos, dtype=np.int64) + part._bits
    lower, upper, _, _ = part._cells(kid_pos, depth + 1)
    center = part.box.lower + (2 * kid_pos + 1) * (part.box.edges * 0.5 ** (depth + 2))
    return not (np.all(lower < center) and np.all(center < upper))


def _reference_split(part, depth, pos):
    # the batched geometry: _cells over all 2**d children, then the
    # feasible ones, each with its _ref_frozen verdict
    kid_pos = 2 * np.asarray(pos, dtype=np.int64) + part._bits
    _, _, reps, feas = part._cells(kid_pos, depth + 1)
    feas = np.ones(len(kid_pos), dtype=bool) if feas is None else feas
    frozen = [_ref_frozen(part, depth + 1, kid) for kid in kid_pos[feas]]
    return np.flatnonzero(feas).tolist(), kid_pos[feas].tolist(), reps[feas], frozen


@st.composite
def _cells_to_split(draw):
    # up to d = 9: from d = 8 on numpy sums rows pairwise, and split
    # must still add a ball's distances in Norm.length's column order
    d = draw(st.integers(1, 4) | st.integers(5, 9))
    offset = draw(st.sampled_from([0.0, -0.0, 0.5, -1e9, 1e9]) | st.floats(-1e9, 1e9))
    scale = draw(st.sampled_from([1.0, 0.5]) | st.floats(1e-3, 1e3))
    kind = draw(st.sampled_from(["box", "sup", "euclidean", "l1"]))
    if kind == "box":
        edges = draw(st.lists(st.floats(0.25, 4.0), min_size=d, max_size=d))
        part = BisectionPartition(Box(np.full(d, offset), offset + scale * np.array(edges)))
        middle = part.box.center
    else:
        # with offset -0.0, a -0.0 coordinate puts cell bounds at 0.0 on
        # the ball's center
        coords = st.just(-0.0) | st.floats(-1.0, 1.0)
        middle = np.array([draw(coords) * scale + offset for _ in range(d)])
        ball = Ball(middle, scale, Norm(kind))
        # a box wider than its ball (the tree search splits only the
        # enclosing one) has cells beside the ball's center whose centers
        # miss the ball
        wider = draw(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 3.0))
        outer = ball.enclosing_box()
        part = BisectionPartition(Box(outer.lower, outer.upper + wider * scale), ball)
    top = part.max_depth - 1
    if d == 1 and draw(st.booleans()):
        # deep cells near 0 and near 0.5, where float64 spacing changes
        depth = draw(st.integers(50, top))
        near = draw(st.sampled_from([0, 2 ** (depth - 1)]))
        pos = [min(max(near + draw(st.integers(-3, 3)), 0), 2**depth - 1)]
    else:
        depth = draw(st.sampled_from([0, top]) | st.integers(0, top))
        # cells on the lower and upper faces, beside the ball's center or
        # the box's, or anywhere
        pos = []
        for j in range(d):
            mid = float((middle[j] - part.box.lower[j]) / part.box.edges[j])
            frac = draw(st.sampled_from([0.0, mid, 1.0]) | st.floats(0.0, 1.0))
            p = int(frac * 2**depth) + draw(st.sampled_from([0, -1]))
            pos.append(min(max(p, 0), 2**depth - 1))
    return part, depth, tuple(pos)


# Children beside the line x = -0.0 through the ball's center whose
# centers miss the ball: numpy's clamp gives their nearest points +0.0
_TIES = BisectionPartition(Box([-1.0, -1.0], [3.0, 3.0]), Ball([-0.0, 0.0], 1.0, EUCLIDEAN))
# An 8-D ball whose radius lies between two roundings of its children's
# distances: numpy's row sum puts 6 of them outside, the sum over the
# columns in order, which Norm.length and split both take, inside
_CENTER_8D = np.array([-0.22, 0.011, 0.399, -0.212, -0.676, 0.662, 0.888, -0.53])
_ROW_SUMS = BisectionPartition(
    Box(_CENTER_8D - 1.0, _CENTER_8D + 2.0), Ball(_CENTER_8D, 0.9682458365518541, EUCLIDEAN)
)


@given(_cells_to_split())
@example((_TIES, 2, (1, 2)))
@example((_TIES, 2, (0, 2)))
@example((_ROW_SUMS, 1, (1, 1, 0, 0, 0, 1, 0, 0)))
@settings(deadline=None, max_examples=300)
def test_split_equals_the_batched_geometry_bit_for_bit(case):
    part, depth, pos = case
    kids = part.split(depth, pos)
    assert (kids is None) == _ref_frozen(part, depth, pos)
    if kids is None:
        return
    codes, positions, reps = kids
    want_codes, want_positions, want_reps, want_frozen = _reference_split(part, depth, pos)
    assert codes == want_codes
    assert positions == [tuple(p) for p in want_positions]
    assert all(type(x) is int for p in positions for x in p)
    assert reps.dtype == want_reps.dtype == np.float64
    assert reps.shape == want_reps.shape == (len(codes), part.dim)
    # bytes, so that -0.0 and 0.0 differ
    assert reps.tobytes() == want_reps.tobytes()
    assert [part.split(depth + 1, p) is None for p in positions] == want_frozen


@given(
    d=st.integers(1, 3),
    offset=st.floats(-1e6, 1e6) | st.sampled_from([0.0, 1000.0]),
    scale=st.floats(1e-3, 7.5) | st.just(0.7),
    edges=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
    target=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
@example(d=1, offset=1000.0, scale=0.7, edges=[1.0] * 3, target=[0.01] * 3)
@settings(deadline=None, max_examples=150)
def test_no_split_repeats_an_ancestor_or_a_sibling(d, offset, scale, edges, target):
    # Walk from the root toward a target point until split returns None.
    # No child's representative equals an ancestor's or a sibling's, so
    # a box run needs no memo.  The example used to repeat
    # 1000.0069999999996 from depth 39 at depth 41.
    part = BisectionPartition(Box(np.full(d, offset), offset + scale * np.array(edges[:d])))
    goal = part.box.lower + np.array(target[:d]) * part.box.edges
    pos, depth = (0,) * d, 0
    seen = {tuple(part._cells(np.array([pos]), 0)[2][0].tolist())}
    while (kids := part.split(depth, pos)) is not None:
        _, kid_pos, reps = kids
        rows = list(map(tuple, reps.tolist()))
        assert len(set(rows)) == len(rows), ("sibling", depth + 1, rows)
        assert seen.isdisjoint(rows), ("ancestor", depth + 1, seen.intersection(rows))
        nearest = int(np.argmin(np.abs(reps - goal).max(axis=1)))
        pos = kid_pos[nearest]
        seen.add(rows[nearest])
        depth += 1
    assert depth >= 1


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
@settings(deadline=None)
def test_cells_nest_into_parents(d, depth, raw_index):
    part = BisectionPartition(Box(np.zeros(d), np.ones(d)))
    index = raw_index % part.arity**depth
    # walk down from the root along the index's child codes
    pos = (0,) * d
    lo, hi = np.zeros(d), np.ones(d)
    for level in range(depth):
        code = index // part.arity ** (depth - 1 - level) % part.arity
        codes, kid_pos, reps = part.split(level, pos)
        assert codes == list(range(part.arity))
        pos = kid_pos[code]
        klo, khi, krep, _ = part._cells(np.array([pos]), level + 1)
        assert np.all(khi - klo == pytest.approx(0.5 ** (level + 1)))
        assert np.all(klo >= lo - 1e-15)
        assert np.all(khi <= hi + 1e-15)
        assert np.array_equal(krep[0], reps[code])
        lo, hi = klo[0], khi[0]
    if part.arity**depth <= 4096:
        lower, upper, _, _ = part._depth_summary(depth)
        assert np.array_equal(lower[index], lo)
        assert np.array_equal(upper[index], hi)


@pytest.fixture
def disc():
    ball = Ball(np.zeros(2), 1.0, EUCLIDEAN)
    return BisectionPartition(Box(np.full(2, -1.0), np.ones(2)), restrict_to=ball)


def test_ball_restriction_feasibility(disc):
    assert disc._depth_summary(0)[3].tolist() == [True]
    # depth-2 corner cell [-1,-0.5]^2 (index 0) is feasible, since its
    # corner (-0.5,-0.5) has norm sqrt(0.5) < 1
    assert disc._depth_summary(2)[3][0]
    assert 0 in disc.split(1, (0, 0))[0]
    # depth-3 corner cell [-1,-0.75]^2 (index 0) is fully outside the ball
    assert not disc._depth_summary(3)[3][0]
    assert 0 not in disc.split(2, (0, 0))[0]
    # so none of its children is feasible: no children
    codes, kid_pos, reps = disc.split(3, (0, 0))
    assert codes == kid_pos == [] and reps.shape == (0, 2)


def test_ball_restriction_moves_representative_inside(disc):
    # cell [0.5,1]^2 is child 3 of depth-1 cell (1, 1); its center is
    # outside the ball
    codes, kid_pos, reps = disc.split(1, (1, 1))
    assert codes[-1] == 3 and kid_pos[-1] == (3, 3)
    rep = reps[-1]
    assert not disc.restrict_to.contains(np.full(2, 0.75))
    assert disc.restrict_to.contains(rep)
    assert np.all(rep >= 0.5) and np.all(rep <= 1.0)
    assert np.array_equal(rep, disc._depth_summary(2)[2][15])


def test_ball_must_fit_in_box():
    with pytest.raises(ValueError):
        BisectionPartition(
            Box(np.zeros(2), np.ones(2)),
            restrict_to=Ball(np.zeros(2), 1.0, EUCLIDEAN),
        )


def test_bisection_setup_converts_the_bound():
    import lipcert

    cone = lipcert.get_function("cone-d2")
    part, lip = bisection_setup(cone)
    assert isinstance(part, BisectionPartition)
    assert part.restrict_to is cone.domain
    assert lip == pytest.approx(np.sqrt(2.0))

    tent = lipcert.get_function("tent-d1")
    part, lip = bisection_setup(tent)
    assert part.restrict_to is None
    assert lip == 1.0


def test_verify_assumptions_passes_on_boxes():
    for d, depth in ((1, 6), (2, 4), (3, 3)):
        part = BisectionPartition(Box(np.zeros(d), np.ones(d)))
        result = verify_assumptions(part, max_depth=depth)
        assert result.ok, result.violation
        assert result.cells_checked == sum(part.arity**h for h in range(depth + 1))
        assert result.pairs_checked > 0


def test_verify_assumptions_passes_on_shifted_anisotropic_box():
    part = BisectionPartition(Box(np.array([-2.0, 1.0]), np.array([1.0, 2.0])))
    result = verify_assumptions(part, max_depth=4)
    assert result.ok, result.violation


def test_verify_assumptions_detects_clipped_rep_collision():
    # Clipping representatives into a restriction ball can make a parent
    # and child share a representative, which breaks the separation
    # guarantee; the verifier must report it rather than pass.
    ball = Ball(np.full(2, 0.5), 0.5, EUCLIDEAN)
    part = BisectionPartition(Box(np.zeros(2), np.ones(2)), restrict_to=ball)
    result = verify_assumptions(part, max_depth=5)
    assert not result.ok
    assert result.violation["kind"] == "separation"
    assert result.violation["measured"] < result.violation["required"]


class CollapsedReps(BisectionPartition):
    """Representatives at depth >= 2 all sit at the box center, outside
    most of their cells."""

    def _cells(self, pos, depth):
        lower, upper, reps, feas = super()._cells(pos, depth)
        if depth >= 2:
            reps = np.broadcast_to((self.box.lower + self.box.upper) / 2.0, reps.shape)
        return lower, upper, reps, feas


class CornerReps(BisectionPartition):
    """Representatives on the cells' lower corners: inside every cell,
    but a cell and its first child share one."""

    def _cells(self, pos, depth):
        lower, upper, _, feas = super()._cells(pos, depth)
        return lower, upper, lower, feas


class WideCells(BisectionPartition):
    """Cells at depth >= 2 twice as wide as they are."""

    spare_first = False

    def _cells(self, pos, depth):
        lower, upper, reps, feas = super()._cells(pos, depth)
        grow = np.full(len(pos), depth >= 2)
        if self.spare_first:
            grow &= pos.any(axis=1)
        return lower, upper + (upper - lower) * grow[:, None], reps, feas


class WideButFirst(WideCells):
    """As WideCells, except the first cell of each depth."""

    spare_first = True


class CenterReps(BisectionPartition):
    """Cell centers as representatives even under a ball restriction,
    where a feasible cell's center can lie outside the ball."""

    def _cells(self, pos, depth):
        lower, upper, _, feas = super()._cells(pos, depth)
        return lower, upper, (lower + upper) * 0.5, feas


class PassThrough(BisectionPartition):
    def _cells(self, pos, depth):
        return super()._cells(pos, depth)


def test_verify_assumptions_flags_reps_outside_their_cells():
    broken = CollapsedReps(Box(np.zeros(1), np.ones(1)))
    result = verify_assumptions(broken, max_depth=3)
    assert result.violation == {"kind": "representative-outside-cell", "depth": 2, "cell": 0}


def test_verify_assumptions_flags_oversized_cells():
    # the first cell's corners are measured exactly; the other cells only
    # through sampled interior pairs, which name the cell they came from
    unit = Box(np.zeros(2), np.ones(2))
    corners = verify_assumptions(WideCells(unit), max_depth=3)
    assert repr(corners) == (
        "AssumptionCheck(ok=False, violation={'kind': 'diameter', 'depth': 2, "
        "'measured': 0.5, 'required': 0.25}, cells_checked=21, pairs_checked=9)"
    )
    sampled = verify_assumptions(WideButFirst(unit), max_depth=3)
    assert not sampled.ok
    assert list(sampled.violation) == ["kind", "depth", "cell", "measured", "required"]
    assert sampled.violation["cell"] != 0
    assert sampled.violation["measured"] > sampled.violation["required"] == 0.25
    assert (sampled.cells_checked, sampled.pairs_checked) == (21, 25)


def test_verify_assumptions_flags_shared_corner_reps():
    broken = CornerReps(Box(np.zeros(2), np.ones(2)))
    result = verify_assumptions(broken, max_depth=3)
    assert not result.ok
    assert result.violation["kind"] == "separation"
    assert result.violation["cell_a"] == (0, 0)
    assert result.violation["cell_b"] == (1, 0)
    assert result.violation["measured"] == 0.0


def test_verify_assumptions_reads_a_subclass_geometry():
    unit = Box(np.zeros(2), np.ones(2))
    for box, ball in (
        (unit, None),
        (Box(np.array([-2.0, 1.0]), np.array([1.0, 2.0])), None),
        (unit, Ball(np.full(2, 0.5), 0.5, EUCLIDEAN)),
    ):
        wrapped = verify_assumptions(PassThrough(box, ball), max_depth=4, seed=3)
        assert wrapped == verify_assumptions(BisectionPartition(box, ball), max_depth=4, seed=3)


def test_verify_assumptions_rejects_non_partitions(unit2):
    for other in (object(), unit2.box, None):
        with pytest.raises(ValueError, match="BisectionPartition"):
            verify_assumptions(other, max_depth=2)


def test_verify_assumptions_is_deterministic():
    part = BisectionPartition(Box(np.zeros(2), np.ones(2)))
    a = verify_assumptions(part, max_depth=4, seed=5)
    b = verify_assumptions(part, max_depth=4, seed=5)
    assert (a.ok, a.cells_checked, a.pairs_checked) == (
        b.ok,
        b.cells_checked,
        b.pairs_checked,
    )


def test_verify_assumptions_rejects_negative_depth(unit2):
    with pytest.raises(ValueError):
        verify_assumptions(unit2, max_depth=-1)


def test_verify_assumptions_refuses_depths_it_cannot_enumerate(monkeypatch, unit2):
    monkeypatch.setattr(partition_module, "_MAX_VERIFY_CELLS", 340)
    # depths 0..4 of the unit square hold 1 + 4 + 16 + 64 + 256 = 341 cells
    with pytest.raises(ValueError, match="builds 341 cells, more than 340"):
        verify_assumptions(unit2, max_depth=4)
    assert verify_assumptions(unit2, max_depth=3).cells_checked == 85
    with pytest.raises(ValueError, match=r"max_depth must be in 0\.\.30, got 31"):
        verify_assumptions(unit2, max_depth=31)


def test_verify_assumptions_flags_reps_outside_the_ball():
    part, _ = bisection_setup(get_function("cone-d2"))
    result = verify_assumptions(CenterReps(part.box, part.restrict_to), max_depth=3)
    # the depth-2 cell [-1, -0.5]^2 meets the disk, but its center does not
    assert result.violation == {"kind": "representative-outside-domain", "depth": 2, "cell": 0}


def _near_a_million(seed):
    rng = np.random.default_rng(seed)
    d = 1 + seed % 3
    lower = 1e6 + rng.uniform(0, 1000, size=d)
    return Box(lower, lower + rng.uniform(0.5, 1.5, size=d)), {1: 8, 2: 4, 3: 3}[d]


@pytest.mark.parametrize("seed", range(8))
def test_verify_assumptions_passes_far_from_zero(seed):
    # bounds and centers round relative to the coordinates, so a slack
    # relative to the cells reported 7 of these 8 boxes, as it did
    # Box([1e6], [1e6 + 0.7]) (separation 0.1749999999301508 against
    # 0.17499999998835847 between cells (0, 0) and (1, 0))
    box, depth = _near_a_million(seed)
    for part in (BisectionPartition(box), BisectionPartition(Box(-box.upper, -box.lower))):
        result = verify_assumptions(part, max_depth=depth)
        assert result.ok, result.violation
    repro = verify_assumptions(BisectionPartition(Box([1e6], [1e6 + 0.7])), max_depth=3)
    assert repro.ok, repro.violation


@pytest.mark.parametrize("seed", range(3))
def test_verify_assumptions_still_flags_broken_partitions_far_from_zero(seed):
    box, _ = _near_a_million(seed)
    shared = verify_assumptions(CornerReps(box), max_depth=3)
    assert shared.violation["kind"] == "separation"
    assert (shared.violation["cell_a"], shared.violation["cell_b"]) == ((0, 0), (1, 0))
    assert shared.violation["measured"] == 0.0
    wide = verify_assumptions(WideCells(box), max_depth=3)
    assert wide.violation["kind"] == "diameter" and wide.violation["depth"] == 2
    assert wide.violation["measured"] > 1.9 * wide.violation["required"]
