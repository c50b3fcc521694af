"""Packing and covering primitives: a deterministic greedy packing that
scales to large grids, exact branch-and-bound oracles for small point
sets, and a randomized consistency suite for the inequalities relating
them.

A radius-r packing of a finite set is a subset with pairwise distances
strictly above r.  A radius-r covering with centers in the set is a
subset whose distance-r balls cover every point.  The two are linked:
any maximal packing covers, and points of a 2r-separated packing cannot
share a covering center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import Norm
from ..core._buckets import Buckets, covering_side, max_magnitude
from ..core.geometry import _pair_lengths

_EXACT_LIMIT = 24
# Up to this many points, greedy packing measures every later point
# directly instead of hashing them into buckets first.  On uniform random
# sets in d = 1..3 with radii 0.05-0.5, sup and euclidean, the direct scan
# was faster at 512 and 768 points in every case and about even at 1024
# for the smallest radius (d = 2, euclidean, radius 0.05: 2.0 against
# 2.4 ms at 512 points, 2.8 against 2.5 ms at 1024).
_SCAN_LIMIT = 512
# Largest point set and the dimensions lemma_consistency_trials draws;
# the exact oracles stay fast at this size.
_LEMMA_MAX_POINTS = 12
_LEMMA_DIMS = (1, 2, 3)


def greedy_packing(points: np.ndarray, radius: float, norm: Norm) -> np.ndarray:
    """Greedy maximal packing in input order.

    Scans the points once, keeping each point whose distance to every
    previously kept point exceeds ``radius``.  The result is a packing by
    construction and maximal because every rejected point is within
    ``radius`` of some kept point.  Output depends only on the input
    order, sorted or not, never on randomness: each kept point ``p``
    removes the later points ``q`` with ``norm.length(q - p) <= radius``,
    and the next kept point is the first one not removed.

    It packs arbitrary point sets, for :func:`lemma_consistency_trials`
    and the ``perfbench`` probe.  :func:`estimate_sc` packs its layers on
    their grid instead, with ``complexity.layers._grid_packing``, which
    the tests hold to this function bit for bit.

    Cost: up to ``max(_SCAN_LIMIT, 3**d)`` points, each kept point
    measures every later point.  Larger sets are copied once into
    contiguous coordinate columns, ``8 * d`` bytes per point, and hashed
    into buckets of side a little above ``radius`` (``O(n log n)``, see
    ``core._buckets``).  Each kept point then measures only the points
    not yet removed in its own and the ``3**d - 1`` adjacent buckets, on
    a grid of step ``h`` about ``(3 * radius / h)**d`` candidates.  Their
    coordinates are gathered along the columns, since a gather of
    ``(n, d)`` rows costs about five times as much per point, and their
    lengths come out bitwise those of ``norm.length`` on the rows.
    Beyond the candidates, each kept point pays about fifteen numpy
    calls.

    Raises:
      ValueError: unless ``points`` is ``(n, d)`` and finite and ``radius`` positive.
    """
    points = _point_set(points, radius, "packing")
    n = len(points)
    if n == 0:
        return points.copy()
    if not np.isfinite(points).all():
        bad = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise ValueError(f"packing points must be finite, row {bad} is {points[bad].tolist()}")
    # Hashing pays only when a point's 3**d neighbouring buckets can hold
    # fewer points than the whole set.
    if n <= max(_SCAN_LIMIT, 3 ** points.shape[1]):
        buckets = None
    else:
        cols = np.ascontiguousarray(points.T)
        buckets = Buckets(cols.T, covering_side(radius, max_magnitude(points)))
        order = buckets.order
    alive = np.ones(n, dtype=bool)
    chosen: list[int] = []
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
            idx = idx.compress(alive[idx])
            if len(idx):
                alive[idx] = _pair_lengths(norm, cols, idx, cols, slice(i, i + 1)) > radius
        i = _next_alive(alive, i + 1)
    return points[chosen]


def _point_set(points: np.ndarray, radius: float, kind: str) -> np.ndarray:
    """``points`` as floats, if it is ``(n, d)`` and the ``kind`` radius is positive."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"expected a point set of shape (n, d), got shape {points.shape}")
    if not radius > 0:
        raise ValueError(f"{kind} radius must be positive, got {radius}")
    return points


def _next_alive(alive: np.ndarray, start: int) -> int:
    """First index at or after ``start`` still alive, or ``len(alive)``.
    A boolean ``argmax`` stops at the first true entry, so a whole packing
    scans each index once."""
    if start < len(alive):
        j = start + int(alive[start:].argmax())
        if alive[j]:
            return j
    return len(alive)


def _pairwise(points: np.ndarray, norm: Norm) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return norm.length(diff)


def _row_masks(near: np.ndarray) -> list[int]:
    """Row ``i`` of a square boolean matrix as the bitmask of its true
    columns; exact in int64 for the ``_EXACT_LIMIT`` points allowed."""
    bits = near.astype(np.int64) << np.arange(len(near), dtype=np.int64)
    return bits.sum(axis=1).tolist()


def _exact_packing_bruteforce(points: np.ndarray, radius: float, norm: Norm) -> int:
    """Largest packing size, by branch and bound on the conflict graph.

    Vertices are points, edges join pairs at distance at most ``radius``;
    the answer is the maximum independent set.  Intended for the small
    sets used as ground truth; refuses more than a couple dozen points.
    """
    points = _point_set(points, radius, "packing")
    return _max_packing(_pairwise(points, norm), radius)


def _max_packing(dists: np.ndarray, radius: float) -> int:
    """:func:`_exact_packing_bruteforce` on the pairwise distances."""
    n = len(dists)
    if n > _EXACT_LIMIT:
        raise ValueError(f"exact packing supports at most {_EXACT_LIMIT} points, got {n}")
    near = dists <= radius
    np.fill_diagonal(near, False)
    conflict = _row_masks(near)
    best = 0

    def grow(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        v = (candidates & -candidates).bit_length() - 1
        grow(candidates & ~(conflict[v] | (1 << v)), size + 1)
        grow(candidates & ~(1 << v), size)

    grow((1 << n) - 1, 0)
    return best


def _exact_covering_bruteforce(points: np.ndarray, radius: float, norm: Norm) -> int:
    """Smallest covering with centers in the set, by branch and bound.

    Branches on an uncovered point with the fewest potential centers;
    every feasible covering must pick one of them, so the search is
    complete.  A fractional bound on the remaining points prunes.
    """
    points = _point_set(points, radius, "covering")
    return _min_covering(_pairwise(points, norm), radius)


def _min_covering(dists: np.ndarray, radius: float) -> int:
    """:func:`_exact_covering_bruteforce` on the pairwise distances."""
    n = len(dists)
    if n > _EXACT_LIMIT:
        raise ValueError(f"exact covering supports at most {_EXACT_LIMIT} points, got {n}")
    if n == 0:
        return 0
    near = dists <= radius
    covers = _row_masks(near)
    # The centers whose balls hold point u, in increasing order.
    centers_of = [np.flatnonzero(col).tolist() for col in near.T]
    widest = max(c.bit_count() for c in covers)
    best = n

    def descend(uncovered: int, size: int) -> None:
        nonlocal best
        if uncovered == 0:
            best = min(best, size)
            return
        if size + -(-uncovered.bit_count() // widest) >= best:
            return
        scarcest, options = -1, n + 1
        probe = uncovered
        while probe:
            u = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            if len(centers_of[u]) < options:
                scarcest, options = u, len(centers_of[u])
        centers = sorted(centers_of[scarcest], key=lambda i: -(covers[i] & uncovered).bit_count())
        for i in centers:
            descend(uncovered & ~covers[i], size + 1)

    descend((1 << n) - 1, 0)
    return best


@dataclass(frozen=True)
class LemmaSuiteVerdict:
    """Outcome of the randomized packing/covering consistency trials.
    ``counterexample`` stores the first failing instance in full, so a
    failure is reproducible without the RNG."""

    ok: bool
    trials_run: int
    counterexample: Optional[dict]


def lemma_consistency_trials(trials: int, seed: int) -> LemmaSuiteVerdict:
    """Random stress test of the packing/covering inequalities.

    Each trial draws a point set in the unit cube, a norm, and radii,
    then checks with the exact oracles:

      * sandwich at one radius r: the packing number at 2r is at most
        the minimum covering size at r, which is at most the greedy and
        the exact packing numbers at r;
      * radius comparison r1 < r2: the packing number at r1 is at most
        ``(4 * r2 / r1) ** d`` times the packing number at r2.

    Args:
      trials: number of random instances.
      seed: RNG seed; verdicts are reproducible.

    Returns:
      A verdict with the first counterexample, if any, spelled out.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    norms = [Norm("sup"), Norm("euclidean"), Norm("l1")]
    for trial in range(trials):
        d = int(rng.choice(_LEMMA_DIMS))
        n = int(rng.integers(2, _LEMMA_MAX_POINTS + 1))
        pts = rng.random((n, d))
        norm = norms[int(rng.integers(3))]
        r = float(rng.uniform(0.05, 0.7))
        dists = _pairwise(pts, norm)
        pack_2r = _max_packing(dists, 2.0 * r)
        cover_r = _min_covering(dists, r)
        pack_r = _max_packing(dists, r)
        greedy_r = len(greedy_packing(pts, r, norm))
        checks = [
            ("packing(2r) <= covering(r)", pack_2r, cover_r),
            ("covering(r) <= greedy(r)", cover_r, greedy_r),
            ("greedy(r) <= packing(r)", greedy_r, pack_r),
        ]
        r2 = float(rng.uniform(0.1, 0.8))
        r1 = r2 * float(rng.uniform(0.2, 0.95))
        pack_r1 = _max_packing(dists, r1)
        pack_r2 = _max_packing(dists, r2)
        checks.append(
            (
                "packing(r1) <= (4 r2 / r1)^d packing(r2)",
                pack_r1,
                (4.0 * r2 / r1) ** d * pack_r2,
            )
        )
        for name, lhs, rhs in checks:
            if lhs > rhs:
                return LemmaSuiteVerdict(
                    ok=False,
                    trials_run=trial + 1,
                    counterexample={
                        "trial": trial,
                        "check": name,
                        "lhs": lhs,
                        "rhs": rhs,
                        "points": pts.tolist(),
                        "norm": norm.kind,
                        "radius": r,
                        "radii": (r1, r2),
                    },
                )
    return LemmaSuiteVerdict(ok=True, trials_run=trials, counterexample=None)
