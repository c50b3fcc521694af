"""Hierarchical bisection partitions with verifiable geometric guarantees.

Depth h of the tree splits the base box into ``2**(d*h)`` congruent cells
by halving every coordinate h times.  Cells are addressed by (depth,
index); each cell owns a representative point.  Two guarantees make the
certified search sound:

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
from typing import NamedTuple, Optional

import numpy as np

from .core import SUP, Ball, Box, Norm, TestFunction, convert_lip_bound, enclosing_box
from .core._buckets import Buckets


class CellKey(NamedTuple):
    """Address of one cell: depth in the tree and index within the depth.

    Depth-h indices run over ``range(arity ** h)`` in the dimension-major
    binary order produced by :meth:`BisectionPartition.children`.
    """

    depth: int
    index: int


ROOT = CellKey(0, 0)

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

    def _check_depth(self, depth: int) -> None:
        if depth < 0:
            raise ValueError(f"depth must be nonnegative, got {depth}")
        if depth * self.dim > _MAX_BITS:
            raise ValueError(f"depth {depth} is too deep for {self.dim} dimensions")

    def _positions(self, key: CellKey) -> np.ndarray:
        """Per-dimension integer cell coordinates in ``range(2**depth)``."""
        depth, index = key
        self._check_depth(depth)
        if not 0 <= index < self.arity**depth:
            raise ValueError(f"index {index} out of range at depth {depth}")
        d = self.dim
        pos = np.zeros(d, dtype=np.int64)
        rem = index
        for level in range(depth):
            code = rem % self.arity
            rem //= self.arity
            for j in range(d):
                pos[j] += ((code >> (d - 1 - j)) & 1) << level
        return pos

    def cell_bounds(self, key: CellKey) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of a cell.

        Cells at a fixed depth tile the box: a cell is half-open (closed
        at its lower faces) except that faces on the box boundary are
        closed, so every box point belongs to exactly one cell per depth.
        """
        lower, upper, _, _ = self._cells(self._positions(key)[None], key.depth)
        return lower[0], upper[0]

    def representative(self, key: CellKey) -> np.ndarray:
        """Query point owned by a cell.

        Plain boxes use the cell center.  Under a ball restriction a
        center outside the ball is replaced by the point of the cell
        nearest to the ball's center, which lies in the ball whenever the
        cell meets it at all; representatives of feasible cells therefore
        always belong to the domain.
        """
        _, _, reps, _ = self._cells(self._positions(key)[None], key.depth)
        return reps[0]

    def children(self, key: CellKey) -> list[CellKey]:
        """The ``arity`` sub-cells, in dimension-major binary order: the
        child code's most significant bit selects the upper half along
        dimension 0."""
        self._check_depth(key.depth + 1)
        base = key.index * self.arity
        return [CellKey(key.depth + 1, base + c) for c in range(self.arity)]

    def feasible(self, key: CellKey) -> bool:
        """Whether the cell intersects the domain.

        The nearest point of the cell to the ball center realises the
        cell-to-center distance, so the cell meets the ball exactly when
        that point does.
        """
        _, _, _, feas = self._cells(self._positions(key)[None], key.depth)
        return feas is None or bool(feas[0])

    def split(
        self, depth: int, pos: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feasible children of the depth-``depth`` cell at integer
        position ``pos`` (int64, shape ``(d,)``), in child-code order.

        Returns ``(codes, positions, representatives)``: child ``c`` has
        index ``parent_index * arity + c`` at depth ``depth + 1``, integer
        position ``2 * pos + bits[c]`` and the point
        :meth:`representative` gives for it, bit for bit.  ``bits[c, j]``
        is bit ``d - 1 - j`` of ``c``.  One call costs a fixed number of
        numpy passes over the ``(arity, d)`` child arrays, with no
        per-child Python work and no index decoding.  Raises
        ``ValueError`` past :attr:`max_depth`, as :meth:`children` does.
        """
        self._check_depth(depth + 1)
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
        ``pos`` (shape ``(n, d)``): the one place it is computed.

        Returns ``(lower, upper, reps, feasible)``.  ``feasible`` is None
        when there is no ball restriction, since then every cell is.
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

    def locate(self, x: np.ndarray, depth: int) -> CellKey:
        """Key of the depth-``depth`` cell containing a box point."""
        self._check_depth(depth)
        x = np.asarray(x, dtype=float)
        if not self.box.contains(x):
            raise ValueError("point lies outside the partitioned box")
        frac = (x - self.box.lower) / self.box.edges
        pos = np.minimum((frac * 2**depth).astype(np.int64), 2**depth - 1)
        pos = np.maximum(pos, 0)
        index = 0
        d = self.dim
        for level in range(depth - 1, -1, -1):
            code = 0
            for j in range(d):
                code |= int((pos[j] >> level) & 1) << (d - 1 - j)
            index = index * self.arity + code
        return CellKey(depth, index)

    def _depth_summary(
        self, depth: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Representatives and feasibility for every cell of a depth.

        Returns ``(lower, upper, reps, feasible_mask)`` as arrays over the
        depth's cells in index order, bitwise equal to the keyed methods.
        Only used by the bulk verifier.
        """
        self._check_depth(depth)
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


def _verify_bisection(
    partition: BisectionPartition,
    max_depth: int,
    samples_per_cell: int,
    rng: np.random.Generator,
) -> AssumptionCheck:
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
        if samples_per_cell > 0 and len(reps) > 0:
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
        inside = np.logical_and(
            reps >= lower - 1e-12, reps <= upper + 1e-12
        ).all(axis=1)
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


def _verify_generic(
    partition,
    max_depth: int,
    samples_per_cell: int,
    rng: np.random.Generator,
) -> AssumptionCheck:
    norm: Norm = getattr(partition, "norm", SUP)
    cells_checked = 0
    pairs_checked = 0
    seen: list[tuple[CellKey, np.ndarray]] = []
    frontier = [ROOT] if partition.feasible(ROOT) else []
    for depth in range(max_depth + 1):
        bound = partition.diam_bound * partition.shrink**depth
        bound_sep = partition.separation * partition.shrink**depth
        for key in frontier:
            cells_checked += 1
            lower, upper = partition.cell_bounds(key)
            diam = float(norm.length(upper - lower))
            if diam > bound * (1 + 1e-12):
                return AssumptionCheck(
                    ok=False,
                    violation={
                        "kind": "diameter",
                        "depth": depth,
                        "cell": key.index,
                        "measured": diam,
                        "required": bound,
                    },
                    cells_checked=cells_checked,
                    pairs_checked=pairs_checked,
                )
            for _ in range(samples_per_cell):
                u = lower + rng.random(len(lower)) * (upper - lower)
                v = lower + rng.random(len(lower)) * (upper - lower)
                pairs_checked += 1
                if float(norm.length(u - v)) > bound * (1 + 1e-12):
                    return AssumptionCheck(
                        ok=False,
                        violation={
                            "kind": "diameter",
                            "depth": depth,
                            "cell": key.index,
                            "measured": float(norm.length(u - v)),
                            "required": bound,
                        },
                        cells_checked=cells_checked,
                        pairs_checked=pairs_checked,
                    )
            rep = np.asarray(partition.representative(key), dtype=float)
            if np.any(rep < lower - 1e-12) or np.any(rep > upper + 1e-12):
                return AssumptionCheck(
                    ok=False,
                    violation={
                        "kind": "representative-outside-cell",
                        "depth": depth,
                        "cell": key.index,
                    },
                    cells_checked=cells_checked,
                    pairs_checked=pairs_checked,
                )
            for other_key, other_rep in seen:
                if other_key == key:
                    continue
                pairs_checked += 1
                dist = float(norm.length(rep - other_rep))
                if dist < bound_sep * (1 - 1e-12):
                    return AssumptionCheck(
                        ok=False,
                        violation={
                            "kind": "separation",
                            "cell_a": tuple(other_key),
                            "cell_b": tuple(key),
                            "measured": dist,
                            "required": bound_sep,
                        },
                        cells_checked=cells_checked,
                        pairs_checked=pairs_checked,
                    )
            seen.append((key, rep))
        if depth < max_depth:
            frontier = [
                child
                for key in frontier
                for child in partition.children(key)
                if partition.feasible(child)
            ]
    return AssumptionCheck(
        ok=True, violation=None, cells_checked=cells_checked, pairs_checked=pairs_checked
    )


def verify_assumptions(
    partition,
    max_depth: int,
    samples_per_cell: int = 2,
    seed: int = 0,
) -> AssumptionCheck:
    """Verify shrinkage and separation for every cell up to a depth.

    Diameters are checked exactly on cell corners and additionally on
    seeded random interior pairs.  Separation is checked for every pair
    of feasible representatives across all depth combinations, using a
    bucket join so that no pair below the bound can be missed.  The first
    violation found is reported with its cells and measured distance.

    Args:
      partition: a :class:`BisectionPartition`, or any object exposing
        the same cell interface (used for deliberately broken partitions
        in tests).
      max_depth: deepest level to verify, inclusive.
      samples_per_cell: random interior pairs per sampled cell.
      seed: seed for the interior sampling; results are deterministic.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    rng = np.random.default_rng(seed)
    if type(partition) is BisectionPartition:
        return _verify_bisection(partition, max_depth, samples_per_cell, rng)
    return _verify_generic(partition, max_depth, samples_per_cell, rng)
