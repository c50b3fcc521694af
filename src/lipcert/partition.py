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

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import SUP, Ball, Box, Norm, TestFunction, convert_lip_bound, enclosing_box
from .core._buckets import Buckets
from .core.geometry import _all_columns


# int64 cell indices and exact dyadic arithmetic both need d * depth to
# stay well below 63 bits.
_MAX_BITS = 60


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

    @property
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

        Representatives are cell centers, whose coordinates are odd
        multiples of ``edge_j / 2**(h+1)``.  Two distinct cells at depths
        h <= h' disagree in some coordinate at resolution h', and odd
        multiples of a dyadic step are at least one step apart, giving
        distance at least ``min_edge / 2**(h'+1)``.  The bound is attained
        by a cell and its first child, so no larger constant is valid.
        """
        return float(self.box.edges.min()) / 2.0

    @property
    def max_depth(self) -> int:
        """Deepest addressable level; cells there cannot be split again."""
        return _MAX_BITS // self.dim

    def split(
        self, depth: int, pos: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feasible children of the depth-``depth`` cell at integer
        position ``pos`` (int64, shape ``(d,)``), in child-code order.

        Returns ``(codes, positions, representatives)``: child ``c`` has
        index ``parent_index * arity + c`` at depth ``depth + 1``, integer
        position ``2 * pos + bits[c]`` and the representative
        :meth:`_cells` gives for that position.  ``bits[c, j]`` is bit
        ``d - 1 - j`` of ``c``, so the code's most significant bit selects
        the upper half along dimension 0.  One call costs a fixed number
        of numpy passes over the ``(arity, d)`` child arrays, with no
        per-child Python work and no index decoding.  Raises
        ``ValueError`` for a negative depth or one at :attr:`max_depth`.
        """
        if not 0 <= depth < self.max_depth:
            raise ValueError(
                f"cannot split a depth-{depth} cell; depths 0..{self.max_depth - 1} split"
            )
        kid_pos = 2 * pos + self._bits
        _, _, reps, feas = self._cells(kid_pos, depth + 1)
        if feas is None:
            return self._codes, kid_pos, reps
        return np.flatnonzero(feas), kid_pos[feas], reps[feas]

    @cached_property
    def _bits(self) -> np.ndarray:
        """``(arity, d)`` table of child offsets: ``bits[c, j]`` is 1 when
        child ``c`` takes the upper half along dimension j."""
        return (self._codes[:, None] >> np.arange(self.dim - 1, -1, -1)) & 1

    @cached_property
    def _codes(self) -> np.ndarray:
        # split hands this array to every caller, so none may write to it
        codes = np.arange(self.arity, dtype=np.int64)
        codes.flags.writeable = False
        return codes

    def _cells(
        self, pos: np.ndarray, depth: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Geometry of the depth-``depth`` cells at integer positions
        ``pos`` (shape ``(n, d)``): the one place it is computed, read by
        both :meth:`split` and :func:`verify_assumptions`.

        Returns ``(lower, upper, reps, feasible)``.  Cells at a fixed depth
        tile the box: a cell is half-open (closed at its lower faces)
        except that faces on the box boundary are closed.  Plain boxes use
        the cell center as representative.  Under a ball restriction a
        center outside the ball is replaced by the point of the cell
        nearest to the ball's center; that point realises the
        cell-to-center distance, so it lies in the ball exactly when the
        cell meets it, and ``feasible`` marks those cells.  ``feasible``
        is None when there is no ball restriction, since then every cell
        is.
        """
        step = self.box.edges * 0.5**depth
        lower = self.box.lower + pos * step
        upper = self.box.lower + (pos + 1) * step
        center = lower + (upper - lower) * 0.5
        ball = self.restrict_to
        if ball is None:
            return lower, upper, center, None
        clamped = np.clip(ball.center, lower, upper)
        feas = ball.contains(clamped)
        reps = np.where(ball.contains(center)[:, None], center, clamped)
        return lower, upper, reps, feas

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
    box = enclosing_box(fn.domain)
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
    across all depth combinations, using a bucket join so that no pair
    below the bound can be missed.  The first violation found is reported
    with its cells, named by ``(depth, index)``, and measured distance.

    Args:
      partition: a :class:`BisectionPartition`.  A subclass is verified
        through its own :meth:`~BisectionPartition._cells`, the geometry
        its :meth:`~BisectionPartition.split` hands the tree search.
      max_depth: deepest level to verify, inclusive.
      seed: seed for the interior sampling; results are deterministic.
    """
    if not isinstance(partition, BisectionPartition):
        raise ValueError(
            f"expected a BisectionPartition, got {type(partition).__name__}"
        )
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    rng = np.random.default_rng(seed)
    norm = partition.norm
    cells_checked = 0
    pairs_checked = 0
    seen_pts: list[np.ndarray] = []
    seen_keys: list[np.ndarray] = []
    for depth in range(max_depth + 1):
        lower, upper, reps, feas = partition._depth_summary(depth)
        cells_checked += len(reps)
        bound = partition.diam_bound * partition.shrink**depth
        diam = float(norm.length(upper[0] - lower[0]))
        if diam > bound * (1 + 1e-12):
            return AssumptionCheck(
                ok=False,
                violation={
                    "kind": "diameter",
                    "depth": depth,
                    "measured": diam,
                    "required": bound,
                },
                cells_checked=cells_checked,
                pairs_checked=pairs_checked,
            )
        pick = rng.integers(0, len(reps), size=min(len(reps), 512))
        u = lower[pick] + rng.random((len(pick), partition.dim)) * (upper[pick] - lower[pick])
        v = lower[pick] + rng.random((len(pick), partition.dim)) * (upper[pick] - lower[pick])
        dists = np.atleast_1d(norm.length(u - v))
        pairs_checked += len(pick)
        if dists.max(initial=0.0) > bound * (1 + 1e-12):
            bad = int(np.argmax(dists))
            return AssumptionCheck(
                ok=False,
                violation={
                    "kind": "diameter",
                    "depth": depth,
                    "cell": int(pick[bad]),
                    "measured": float(dists[bad]),
                    "required": bound,
                },
                cells_checked=cells_checked,
                pairs_checked=pairs_checked,
            )
        inside = _all_columns((reps >= lower - 1e-12) & (reps <= upper + 1e-12))
        if not inside.all():
            bad = int(np.flatnonzero(~inside)[0])
            return AssumptionCheck(
                ok=False,
                violation={
                    "kind": "representative-outside-cell",
                    "depth": depth,
                    "cell": bad,
                },
                cells_checked=cells_checked,
                pairs_checked=pairs_checked,
            )
        ball = partition.restrict_to
        if ball is not None and feas.any():
            r_feas = reps[feas]
            dist = np.atleast_1d(ball.norm.length(r_feas - ball.center))
            if dist.max(initial=0.0) > ball.radius * (1 + 1e-12):
                bad = int(np.flatnonzero(feas)[int(np.argmax(dist))])
                return AssumptionCheck(
                    ok=False,
                    violation={
                        "kind": "representative-outside-domain",
                        "depth": depth,
                        "cell": bad,
                    },
                    cells_checked=cells_checked,
                    pairs_checked=pairs_checked,
                )
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
            # Candidates share or touch a bucket of side bound_sep.  By the
            # bound in core._buckets, the 1e-12 margin of the strict test
            # below absorbs the key rounding while coordinates stay within
            # about 4,500 bucket sides of zero; past that, completeness
            # rests on the quotients being exact, as they are for dyadic
            # boxes.
            ai, bi = Buckets(cur_pts, bound_sep).join(all_pts)
            if len(ai):
                dists = np.atleast_1d(norm.length(all_pts[ai] - cur_pts[bi]))
                same = np.logical_and(
                    all_keys[ai, 0] == depth, all_keys[ai, 1] == cur_keys[bi, 1]
                )
                pairs_checked += int((~same).sum())
                bad_mask = np.logical_and(~same, dists < bound_sep * (1 - 1e-12))
                if bad_mask.any():
                    bad = int(np.flatnonzero(bad_mask)[0])
                    return AssumptionCheck(
                        ok=False,
                        violation={
                            "kind": "separation",
                            "cell_a": (int(all_keys[ai[bad], 0]), int(all_keys[ai[bad], 1])),
                            "cell_b": (depth, int(cur_keys[bi[bad], 1])),
                            "measured": float(dists[bad]),
                            "required": bound_sep,
                        },
                        cells_checked=cells_checked,
                        pairs_checked=pairs_checked,
                    )
        seen_pts.append(cur_pts)
        seen_keys.append(cur_keys)
    return AssumptionCheck(
        ok=True, violation=None, cells_checked=cells_checked, pairs_checked=pairs_checked
    )
