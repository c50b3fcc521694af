"""Hierarchical bisection partitions with verifiable geometric guarantees.

Depth h of the tree splits the base box into ``2**(d*h)`` congruent cells
by halving every coordinate h times.  A depth-h cell is addressed by its
integer position, one coordinate in ``range(2**h)`` per dimension, and
owns a representative point.  The flat ``(depth, index)`` pair names a
cell only in the violation reports of :func:`verify_assumptions` and in
the tree search's tie order.  Two guarantees make the certified search
sound:

  * shrinkage: a depth-h cell has sup-norm diameter at most
    ``diam_bound * shrink**h``;
  * separation: representatives of two distinct cells at depths h and h'
    are at least ``separation * shrink**max(h, h')`` apart.

Both are checked, not assumed, by :func:`verify_assumptions`.  Domains
that are balls are handled by bisecting the enclosing box and filtering
cells that miss the ball; such cells are infeasible and never queried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional

import numpy as np

from .core import SUP, Ball, Box, Norm, TestFunction, convert_lip_bound
from .core._buckets import Buckets, covering_side, max_magnitude
from .core.geometry import _all_columns, _pair_lengths


# int64 cell indices and exact dyadic arithmetic both need d * depth to
# stay well below 63 bits.
_MAX_BITS = 60
# Offsets from a cell's position to its lower and upper corners.
_CORNERS = np.array([0, 1], dtype=np.int64).reshape(2, 1, 1)
# verify_assumptions builds every cell of every depth it checks.
_MAX_VERIFY_CELLS = 2_000_000
# Rounding verify_assumptions allows, per unit of the largest box coordinate.
_COORD_SLACK = 2.0**-48


@dataclass(frozen=True)
class BisectionPartition:
    """Coordinate-halving partition of a box, optionally restricted to a
    ball inside it.

    Attributes:
      box: base hyperrectangle being partitioned.
      restrict_to: optional ball; cells that do not intersect it are
        infeasible.  The ball must live inside the box.
    """

    box: Box
    restrict_to: Optional[Ball] = None

    def __post_init__(self) -> None:
        if self.restrict_to is not None:
            ball = self.restrict_to
            if ball.dim != self.box.dim:
                raise ValueError("restriction ball dimension must match the box")
            outer = ball.enclosing_box()
            if not (
                np.all(outer.lower >= self.box.lower - 1e-12)
                and np.all(outer.upper <= self.box.upper + 1e-12)
            ):
                raise ValueError("restriction ball must sit inside the box")

    @cached_property
    def dim(self) -> int:
        return self.box.dim

    @property
    def arity(self) -> int:
        """Children per cell; halving d coordinates gives 2**d."""
        return 2**self.dim

    @property
    def norm(self) -> Norm:
        """Norm in which the two guarantees are stated."""
        return SUP

    @property
    def shrink(self) -> float:
        """Per-level diameter decay; halving every coordinate gives 1/2."""
        return 0.5

    @property
    def diam_bound(self) -> float:
        """Sup-norm diameter of the root cell, i.e. the longest edge."""
        return float(self.box.edges.max())

    @property
    def separation(self) -> float:
        """Representative-separation constant, half the shortest edge.

        Representatives are cell centers, computed as odd multiples of
        ``edge_j / 2**(h+1)`` past the lower corner.  Two distinct cells
        at depths h <= h' disagree in some coordinate at resolution h', and odd
        multiples of a dyadic step are at least one step apart, giving
        distance at least ``min_edge / 2**(h'+1)``.  The bound is attained
        by a cell and its first child, so no larger constant is valid.
        """
        return float(self.box.edges.min()) / 2.0

    def split(
        self, depth: int, pos: tuple[int, ...]
    ) -> Optional[tuple[list[int], list[tuple[int, ...]], np.ndarray]]:
        """Feasible children of the depth-``depth`` cell at integer
        position ``pos`` (a tuple of d ints), in child-code order.

        Returns ``(codes, positions, representatives)``: child ``c`` has
        index ``parent_index * arity + c`` at depth ``depth + 1``, integer
        position ``2 * pos + bits[c]`` (a tuple of ints) and, in one
        ``(n, d)`` float array, the representative :meth:`_cells` gives
        for that position.  ``bits[c, j]`` is bit ``d - 1 - j`` of ``c``,
        so the code's most significant bit selects the upper half along
        dimension 0.  No children (``n = 0``) means that none meets the
        ball restriction, so the cell holds no domain point left to
        search and can be dropped.  None is the one rule for a cell that
        cannot be split: one at :attr:`max_depth`, or one that float64
        cannot halve, where some child's center would not lie strictly
        inside that child's bounds and would repeat a point already seen.
        Raises ``ValueError`` for a depth outside ``0..max_depth``.

        The children are computed in Python floats, with the operations
        of :meth:`_cells` in its order, so that every value equals the
        batched one bit for bit.  Each axis has two halves, whose bounds
        ``q*s + l``, ``(q+1)*s + l``, ``(q+2)*s + l`` and centers
        ``(2q+1)*(s/2) + l``, ``(2q+3)*(s/2) + l`` are computed once, and
        the children take the halves in code order, through
        :func:`itertools.product`.  A ball restriction then goes through
        :meth:`_ball_children`.
        """
        if not 0 <= depth <= self.max_depth:
            raise ValueError(f"depth {depth} is outside 0..{self.max_depth}")
        if depth == self.max_depth:
            return None
        scale = 0.5 ** (depth + 1)
        lows, edges = self._box_floats
        axis_pos, axis_bounds, axis_centers = [], [], []
        for p, low, edge in zip(pos, lows, edges):
            q, s, t = 2 * p, edge * scale, edge * scale * 0.5
            a, m, b = q * s + low, (q + 1) * s + low, (q + 2) * s + low
            center_a, center_b = (2 * q + 1) * t + low, (2 * q + 3) * t + low
            if not a < center_a < m < center_b < b:
                return None
            axis_pos.append((q, q + 1))
            axis_bounds.append((a, m, b))
            axis_centers += (center_a, center_b)
        positions = list(product(*axis_pos))
        reps = np.array(axis_centers)[self._center_index]
        if self.restrict_to is None:
            return list(range(len(positions))), positions, reps
        return self._ball_children(axis_bounds, axis_centers, positions, reps)

    def _ball_children(
        self,
        axis_bounds: list[tuple[float, float, float]],
        axis_centers: list[float],
        positions: list[tuple[int, ...]],
        reps: np.ndarray,
    ) -> tuple[list[int], list[tuple[int, ...]], np.ndarray]:
        """The children that meet the ball restriction, with their codes,
        positions and representatives, from the per-axis bounds and
        centers :meth:`split` computed and the children's positions and
        centers (``reps``, overwritten).

        Each half's point nearest to the ball's center and its norm terms
        are computed once per axis, and the children add the terms up
        (or take the largest of them) axis by axis, in the column order
        of :meth:`Norm.length`, so that every distance equals the one
        :meth:`_cells` takes, at every d.
        """
        kind, radius, ball_center = self._ball_floats
        axis_near, center_dists, near_dists = [], None, None
        for (a, m, b), center_a, center_b, c in zip(
            axis_bounds, axis_centers[::2], axis_centers[1::2], ball_center
        ):
            # np.maximum(c, lo) and np.minimum(x, hi) return their second
            # argument on a tie, which decides the sign of a zero
            near_a, near_b = (a if a >= c else c), (m if m >= c else c)
            near_a, near_b = (m if near_a >= m else near_a), (b if near_b >= b else near_b)
            axis_near.append((near_a, near_b))
            x0, x1, y0, y1 = center_a - c, center_b - c, near_a - c, near_b - c
            if kind == "euclidean":
                terms_c, terms_n = (x0 * x0, x1 * x1), (y0 * y0, y1 * y1)
            else:
                terms_c, terms_n = (abs(x0), abs(x1)), (abs(y0), abs(y1))
            if center_dists is None:
                center_dists, near_dists = terms_c, terms_n
            elif kind == "sup":
                center_dists = [t if t >= u else u for u in center_dists for t in terms_c]
                near_dists = [t if t >= u else u for u in near_dists for t in terms_n]
            else:
                center_dists = [u + t for u in center_dists for t in terms_c]
                near_dists = [u + t for u in near_dists for t in terms_n]
        if kind == "euclidean":
            center_dists = list(map(math.sqrt, center_dists))
            near_dists = list(map(math.sqrt, near_dists))
        if max(center_dists) > radius:
            # a child whose center lies outside the ball is represented by
            # its point nearest the ball's center
            nearest = list(product(*axis_near))
            for code, dist in enumerate(center_dists):
                if dist > radius:
                    reps[code] = nearest[code]
        if max(near_dists) <= radius:
            return list(range(len(positions))), positions, reps
        codes = [code for code, dist in enumerate(near_dists) if dist <= radius]
        return codes, [positions[code] for code in codes], reps[codes]

    @cached_property
    def _ball_floats(self) -> tuple[str, float, list[float]]:
        """The ball restriction's norm kind, radius and center, the last
        two as Python floats."""
        ball = self.restrict_to
        return ball.norm.kind, float(ball.radius), ball.center.tolist()

    @cached_property
    def max_depth(self) -> int:
        """Deepest addressable level; cells there cannot be split again.

        It also stops where a half-step ``edge * 2**-(h+1)`` would be
        subnormal, which binds only on edges below ``2**-960``, so that
        no two cells share a box representative.  On an axis, with each
        step rounded to nearest, a depth-h cell at position p has bounds
        ``p*s_h + l`` and ``(p+1)*s_h + l``, and its center
        ``(2p+1)*s_(h+1) + l`` is its children's split point (``s_h =
        edge * 2**-h`` is exact while normal).  As ``2k*s_(h+1)`` and
        ``k*s_h`` round alike, a child's bounds are its parent's and the
        parent's center, bit for bit; rounding is monotone, so a cell
        lies within each ancestor's child that holds it.
        :meth:`split` makes children only when each child's center lies
        strictly inside its own bounds on every axis.  So a center never
        equals an ancestor's, an endpoint of those intervals, nor one in
        another branch: the two lie in open intervals that are disjoint
        on some axis.
        """
        edge_exp = math.frexp(float(self.box.edges.min()))[1]
        return max(0, min(_MAX_BITS // self.dim, edge_exp + 1020))

    @cached_property
    def _bits(self) -> np.ndarray:
        """``(arity, d)`` table of child offsets: ``bits[c, j]`` is 1 when
        child ``c`` takes the upper half along dimension j."""
        codes = np.arange(self.arity, dtype=np.int64)
        return (codes[:, None] >> np.arange(self.dim - 1, -1, -1)) & 1

    @cached_property
    def _center_index(self) -> np.ndarray:
        """``(arity, d)`` index that lays out the per-axis child centers,
        ``[lower half's on axis 0, upper half's on axis 0, lower half's
        on axis 1, ...]``, as the children's rows."""
        return 2 * np.arange(self.dim) + self._bits

    @cached_property
    def _box_floats(self) -> tuple[list[float], list[float]]:
        """The box's lower corner and edges as Python floats."""
        return self.box.lower.tolist(), self.box.edges.tolist()

    def _cells(
        self, pos: np.ndarray, depth: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Geometry of the depth-``depth`` cells at integer positions
        ``pos`` (shape ``(n, d)``), batched: what
        :func:`verify_assumptions` checks, and the reference that
        :meth:`split` equals bit for bit.  :meth:`split` does not read
        it: it computes its children's geometry in Python floats.

        Returns ``(lower, upper, reps, feasible)``.  Cells at a fixed depth
        tile the box: a cell is half-open (closed at its lower faces)
        except that faces on the box boundary are closed.  Plain boxes use
        the cell center as representative.  Under a ball restriction a
        center outside the ball is replaced by the point of the cell
        nearest to the ball's center; that point realises the
        cell-to-center distance, so it lies in the ball exactly when the
        cell meets it, and ``feasible`` marks those cells.  ``feasible``
        is None when there is no ball restriction, since then every cell
        is.  Both bounds come from one pass over the stacked corner
        positions ``(pos, pos + 1)``, and both ball tests from one
        :meth:`Norm.length` call.
        """
        step = self.box.edges * 0.5**depth
        lower, upper = (pos + _CORNERS) * step + self.box.lower
        center = (2 * pos + 1) * (step * 0.5) + self.box.lower
        ball = self.restrict_to
        if ball is None:
            return lower, upper, center, None
        # row 0: the centers, row 1: the points nearest the ball's center
        points = np.empty((2,) + lower.shape)
        points[0] = center
        # np.clip's value, without its Python-level argument handling
        np.minimum(np.maximum(ball.center, lower, out=points[1]), upper, out=points[1])
        inside = ball.norm.length(points - ball.center) <= ball.radius
        reps = np.where(inside[0][:, None], center, points[1])
        return lower, upper, reps, inside[1]

    def _depth_summary(
        self, depth: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Representatives and feasibility for every cell of a depth.

        Returns ``(lower, upper, reps, feasible_mask)`` as arrays over the
        depth's cells in index order, the order in which
        :func:`verify_assumptions` reports cells.
        """
        if not 0 <= depth <= self.max_depth:
            raise ValueError(f"depth {depth} is outside 0..{self.max_depth}")
        pos = np.zeros((1, self.dim), dtype=np.int64)
        for _ in range(depth):
            # index = parent_index * arity + code, so children of
            # consecutive parents stay consecutive
            pos = (2 * pos[:, None, :] + self._bits).reshape(-1, self.dim)
        lower, upper, reps, feas = self._cells(pos, depth)
        if feas is None:
            feas = np.ones(len(pos), dtype=bool)
        return lower, upper, reps, feas


def bisection_setup(fn: TestFunction) -> tuple[BisectionPartition, float]:
    """Canonical partition and sup-norm Lipschitz bound for an objective.

    Box domains are bisected directly.  Ball domains are bisected through
    their enclosing box with the ball as feasibility restriction.  The
    returned bound converts the function's declared bound into the sup
    norm, which is the norm the partition's guarantees are stated in.
    """
    box = fn.domain.enclosing_box()
    restrict = fn.domain if isinstance(fn.domain, Ball) else None
    lip = convert_lip_bound(fn.lip_bound, fn.norm.kind, "sup", fn.dim)
    return BisectionPartition(box=box, restrict_to=restrict), lip


@dataclass(frozen=True)
class AssumptionCheck:
    """Result of verifying the shrinkage and separation guarantees.

    ``violation`` is None on success, otherwise a dict naming the failed
    guarantee, the offending cells, and the measured versus required
    values for the first violation found.
    """

    ok: bool
    violation: Optional[dict]
    cells_checked: int
    pairs_checked: int


def verify_assumptions(
    partition: BisectionPartition, max_depth: int, seed: int = 0
) -> AssumptionCheck:
    """Verify shrinkage and separation for every cell up to a depth.

    Diameters are checked exactly on cell corners and additionally on
    seeded random interior pairs: at each depth, one pair in each of
    ``min(cells, 512)`` cells drawn with replacement.  Representatives
    must lie in their cells, and in the ball when the partition has one.
    Separation is checked for every pair of feasible representatives
    across all depth combinations.  The candidates come from a bucket
    join sized by ``covering_side``, which ``core._buckets`` proves
    complete, so no pair below the bound can be missed.  The first
    violation found is reported with its cells, named by
    ``(depth, index)``, and measured distance.

    Bounds and centers round relative to the coordinates, so those checks
    allow ``_COORD_SLACK * M = 32 u M`` (``u = 2**-53``, M the largest box
    coordinate in absolute value) beyond a relative 1e-12: a bound or center
    ``k*s + lower`` rounds by under ``8 u M``, a length by under ``18 u M``.

    Args:
      partition: a :class:`BisectionPartition`.  A subclass is verified
        through its own :meth:`~BisectionPartition._cells`.
        :meth:`~BisectionPartition.split` computes the same geometry in
        Python floats without reading it, so the tree search refuses a
        subclass that overrides ``_cells``: what it verifies would not
        be what is searched.
      max_depth: deepest level to verify, inclusive.  Every cell of
        every depth is built, so a depth past ``partition.max_depth``,
        or one whose depths hold more than ``_MAX_VERIFY_CELLS`` cells
        in all, raises ValueError.
      seed: seed for the interior sampling; results are deterministic.
    """
    if not isinstance(partition, BisectionPartition):
        raise ValueError(
            f"expected a BisectionPartition, got {type(partition).__name__}"
        )
    if not 0 <= max_depth <= partition.max_depth:
        raise ValueError(f"max_depth must be in 0..{partition.max_depth}, got {max_depth}")
    # cells in depths 0..max_depth, the sum of arity**h
    total = (partition.arity ** (max_depth + 1) - 1) // (partition.arity - 1)
    if total > _MAX_VERIFY_CELLS:
        raise ValueError(
            f"verifying to depth {max_depth} builds {total} cells, more than "
            f"{_MAX_VERIFY_CELLS}; lower max_depth"
        )
    rng = np.random.default_rng(seed)
    norm = partition.norm
    slack = _COORD_SLACK * max_magnitude(partition.box.lower, partition.box.upper)
    cells_checked = 0
    pairs_checked = 0
    seen_pts: list[np.ndarray] = []
    seen_keys: list[np.ndarray] = []

    def failure(kind: str, **details) -> AssumptionCheck:
        # the counts so far, and the violation's fields in the order given
        return AssumptionCheck(
            ok=False,
            violation={"kind": kind, **details},
            cells_checked=cells_checked,
            pairs_checked=pairs_checked,
        )

    for depth in range(max_depth + 1):
        lower, upper, reps, feas = partition._depth_summary(depth)
        cells_checked += len(reps)
        bound = partition.diam_bound * partition.shrink**depth
        diam = float(norm.length(upper[0] - lower[0]))
        if diam > bound * (1 + 1e-12) + slack:
            return failure("diameter", depth=depth, measured=diam, required=bound)
        pick = rng.integers(0, len(reps), size=min(len(reps), 512))
        u = lower[pick] + rng.random((len(pick), partition.dim)) * (upper[pick] - lower[pick])
        v = lower[pick] + rng.random((len(pick), partition.dim)) * (upper[pick] - lower[pick])
        dists = np.atleast_1d(norm.length(u - v))
        pairs_checked += len(pick)
        if dists.max(initial=0.0) > bound * (1 + 1e-12) + slack:
            bad = int(np.argmax(dists))
            return failure(
                "diameter",
                depth=depth,
                cell=int(pick[bad]),
                measured=float(dists[bad]),
                required=bound,
            )
        inside = _all_columns((reps >= lower - 1e-12) & (reps <= upper + 1e-12))
        if not inside.all():
            bad = int(np.flatnonzero(~inside)[0])
            return failure("representative-outside-cell", depth=depth, cell=bad)
        ball = partition.restrict_to
        if ball is not None and feas.any():
            r_feas = reps[feas]
            dist = np.atleast_1d(ball.norm.length(r_feas - ball.center))
            if dist.max(initial=0.0) > ball.radius * (1 + 1e-12):
                bad = int(np.flatnonzero(feas)[int(np.argmax(dist))])
                return failure("representative-outside-domain", depth=depth, cell=bad)
        # Separation against every shallower-or-equal depth, at the bound
        # of the deeper one.  Equality is allowed; only strictly closer
        # pairs violate.
        feas_idx = np.flatnonzero(feas)
        cur_pts = reps[feas_idx]
        cur_keys = np.stack(
            [np.full(len(feas_idx), depth, dtype=np.int64), feas_idx.astype(np.int64)],
            axis=1,
        )
        if len(cur_pts) > 0 and seen_pts:
            all_pts = np.concatenate(seen_pts + [cur_pts])
            all_keys = np.concatenate(seen_keys + [cur_keys])
            bound_sep = partition.separation * partition.shrink**depth
            side = covering_side(bound_sep, max_magnitude(all_pts))
            ai, bi = Buckets(cur_pts, side).join(all_pts)
            if len(ai):
                dists = _pair_lengths(
                    norm, np.ascontiguousarray(all_pts.T), ai, np.ascontiguousarray(cur_pts.T), bi
                )
                same = np.logical_and(
                    all_keys[ai, 0] == depth, all_keys[ai, 1] == cur_keys[bi, 1]
                )
                pairs_checked += int((~same).sum())
                bad_mask = np.logical_and(~same, dists < bound_sep * (1 - 1e-12) - slack)
                if bad_mask.any():
                    bad = int(np.flatnonzero(bad_mask)[0])
                    return failure(
                        "separation",
                        cell_a=(int(all_keys[ai[bad], 0]), int(all_keys[ai[bad], 1])),
                        cell_b=(depth, int(cur_keys[bi[bad], 1])),
                        measured=float(dists[bad]),
                        required=bound_sep,
                    )
        seen_pts.append(cur_pts)
        seen_keys.append(cur_keys)
    return AssumptionCheck(
        ok=True, violation=None, cells_checked=cells_checked, pairs_checked=pairs_checked
    )
