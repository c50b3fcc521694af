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
from ..core._buckets import Buckets, covering_side

_EXACT_LIMIT = 24
# Up to this many points, greedy packing measures every later point
# directly instead of hashing them into buckets first.  On uniform random
# sets in d = 1..3 with radii 0.05-0.5, sup and euclidean, the direct scan
# was faster at 512 and 768 points in every case and about even at 1024
# for the smallest radius (d = 2, euclidean, radius 0.05: 2.0 against
# 2.4 ms at 512 points, 2.8 against 2.5 ms at 1024).
_SCAN_LIMIT = 512


def greedy_packing(points: np.ndarray, radius: float, norm: Norm) -> np.ndarray:
    """Greedy maximal packing in input order.

    Scans the points once, keeping each point whose distance to every
    previously kept point exceeds ``radius``.  The result is a packing by
    construction and maximal because every rejected point is within
    ``radius`` of some kept point.  Output depends only on the input
    order, sorted or not, never on randomness: each kept point ``p``
    removes the later points ``q`` with ``norm.length(q - p) <= radius``,
    and the next kept point is the first one not removed.

    Cost: up to ``max(_SCAN_LIMIT, 3**d)`` points, each kept point
    measures every later point.  Larger sets are hashed once into
    buckets of side a little above ``radius`` (``O(n log n)``, see
    ``core._buckets``), and each kept point measures only the points not
    yet removed in its own and the ``3**d - 1`` adjacent buckets: on a
    grid of step ``h``, about ``(3 * radius / h)**d`` candidates.

    Raises:
      ValueError: if ``radius`` is not positive or a point is not finite.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not radius > 0:
        raise ValueError(f"packing radius must be positive, got {radius}")
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
        buckets = Buckets(points, covering_side(radius, float(np.abs(points).max())))
        order = buckets.order
    alive = np.ones(n, dtype=bool)
    chosen: list[int] = []
    i = 0
    while i < n:
        chosen.append(i)
        alive[i] = False
        if buckets is None:
            if i + 1 < n:
                dists = np.atleast_1d(norm.length(points[i + 1 :] - points[i]))
                alive[i + 1 :] &= dists > radius
        else:
            ends = buckets.runs(i)
            idx = np.concatenate([order[a:b] for a, b in zip(ends[0::2], ends[1::2])])
            idx = idx[alive[idx]]
            if len(idx):
                dists = np.atleast_1d(norm.length(points[idx] - points[i]))
                alive[idx[dists <= radius]] = False
        i = _next_alive(alive, i + 1)
    return points[chosen].copy()


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
    return np.atleast_2d(norm.length(diff))


def exact_packing_bruteforce(points: np.ndarray, radius: float, norm: Norm) -> int:
    """Largest packing size, by branch and bound on the conflict graph.

    Vertices are points, edges join pairs at distance at most ``radius``;
    the answer is the maximum independent set.  Intended for the small
    sets used as ground truth; refuses more than a couple dozen points.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not radius > 0:
        raise ValueError(f"packing radius must be positive, got {radius}")
    n = len(points)
    if n == 0:
        return 0
    if n > _EXACT_LIMIT:
        raise ValueError(f"exact packing supports at most {_EXACT_LIMIT} points, got {n}")
    dists = _pairwise(points, norm)
    conflict = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and dists[i, j] <= radius:
                conflict[i] |= 1 << j
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


def exact_covering_bruteforce(points: np.ndarray, radius: float, norm: Norm) -> int:
    """Smallest covering with centers in the set, by branch and bound.

    Branches on an uncovered point with the fewest potential centers;
    every feasible covering must pick one of them, so the search is
    complete.  A fractional bound on the remaining points prunes.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not radius > 0:
        raise ValueError(f"covering radius must be positive, got {radius}")
    n = len(points)
    if n == 0:
        return 0
    if n > _EXACT_LIMIT:
        raise ValueError(f"exact covering supports at most {_EXACT_LIMIT} points, got {n}")
    dists = _pairwise(points, norm)
    covers = [0] * n
    for i in range(n):
        for j in range(n):
            if dists[i, j] <= radius:
                covers[i] |= 1 << j
    widest = max(c.bit_count() for c in covers)
    full = (1 << n) - 1
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
            count = sum(1 for c in covers if c >> u & 1)
            if count < options:
                scarcest, options = u, count
        centers = [i for i in range(n) if covers[i] >> scarcest & 1]
        centers.sort(key=lambda i: -(covers[i] & uncovered).bit_count())
        for i in centers:
            descend(uncovered & ~covers[i], size + 1)

    descend(full, 0)
    return best


@dataclass(frozen=True)
class LemmaSuiteVerdict:
    """Outcome of the randomized packing/covering consistency trials.
    ``counterexample`` stores the first failing instance in full, so a
    failure is reproducible without the RNG."""

    ok: bool
    trials_run: int
    counterexample: Optional[dict]


def lemma_consistency_trials(
    trials: int,
    seed: int,
    max_points: int = 12,
    dims: tuple[int, ...] = (1, 2, 3),
) -> LemmaSuiteVerdict:
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
      max_points: largest point-set size to draw.
      dims: dimensions to draw from.

    Returns:
      A verdict with the first counterexample, if any, spelled out.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    norms = [Norm("sup"), Norm("euclidean"), Norm("l1")]
    for trial in range(trials):
        d = int(rng.choice(dims))
        n = int(rng.integers(2, max_points + 1))
        pts = rng.random((n, d))
        norm = norms[int(rng.integers(3))]
        r = float(rng.uniform(0.05, 0.7))
        pack_2r = exact_packing_bruteforce(pts, 2.0 * r, norm)
        cover_r = exact_covering_bruteforce(pts, r, norm)
        pack_r = exact_packing_bruteforce(pts, r, norm)
        greedy_r = len(greedy_packing(pts, r, norm))
        checks = [
            ("packing(2r) <= covering(r)", pack_2r, cover_r),
            ("covering(r) <= greedy(r)", cover_r, greedy_r),
            ("greedy(r) <= packing(r)", greedy_r, pack_r),
        ]
        r2 = float(rng.uniform(0.1, 0.8))
        r1 = r2 * float(rng.uniform(0.2, 0.95))
        pack_r1 = exact_packing_bruteforce(pts, r1, norm)
        pack_r2 = exact_packing_bruteforce(pts, r2, norm)
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
