"""Fixed-radius neighbour search by bucket hashing (internal).

Points are hashed into axis-aligned cubic buckets of one side length,
keyed by ``floor(x / side)`` per coordinate, and sorted once by a packed
integer key in which the last axis varies fastest.  A key's own and
adjacent buckets then fill ``3**(d-1)`` contiguous runs of the sorted
keys, one per offset of the other axes, and one table of run bounds
serves both lookups: :meth:`Buckets.runs` reads the runs of one hashed
point (greedy packing), and :meth:`Buckets.join` reads them for every
point of another set at once (the separation check of
``verify_assumptions`` and the audit's free-point scan).  Both return
candidates only; callers keep their exact distance test.

**Completeness.**  Let ``r > 0`` be a radius, ``M`` the largest absolute
coordinate of any point involved, ``u = 2**-53`` the unit roundoff, and
``side >= covering_side(r, M)``.  If ``Norm.length(p - q) <= r`` as
computed in float64, in the sup, euclidean or l1 norm, then the keys of
``p`` and ``q`` differ by at most one on every axis:

1. Let ``t_j = fl(p_j - q_j)``, so ``|p_j - q_j| <= |t_j| / (1 - u)``.
   The sup norm is ``max_j |t_j|`` exactly.  The l1 norm is a float sum
   of the nonnegative ``|t_k|``; rounding is monotone and ``x + y >= x``
   for ``y >= 0``, so every partial sum, in any order, is at least each
   of its terms.  The euclidean norm is ``fl(sqrt(S))`` with ``S`` such
   a sum of ``fl(t_k * t_k)``; if ``t_j * t_j`` is a normal number,
   ``S >= t_j**2 (1 - u)`` and ``sqrt(S) <= r / (1 - u)``, otherwise
   ``|t_j| < 2**-511``.  In every case ``|p_j - q_j| <= r (1 + 5u) +
   2**-510``.
2. The keys come from ``a = fl(p_j / side)`` and ``b = fl(q_j / side)``,
   each within ``M u / side + 2**-1075`` of the exact quotient, so
   ``|a - b| <= N / side + 2**-1074`` with ``N = r (1 + 5u) + 2 M u +
   2**-510``.  :func:`covering_side` adds ``r (1 + 2**-20)``, ``M
   2**-40`` and ``2**-500`` in three roundings; each term still exceeds
   its counterpart in ``N`` by a factor above ``1 + 2**-21`` (where
   ``M 2**-40`` underflows, ``2 M u`` is below ``2**-1033`` and the last
   term covers it), so ``N / side < 1 - 2**-22`` and ``|a - b| < 1``.
3. ``|a - b| <= 1`` gives ``|floor(a) - floor(b)| <= 1``, since
   ``floor(a) <= a <= b + 1 < floor(b) + 2``.  The quotients are below
   ``M / side <= 2**40`` in size, so the conversion to int64 is exact.

Keys are shifted so that every hashed key lies in ``[1, span - 2]`` on
each axis, which keeps the ``±1`` neighbours of a key inside
``[0, span - 1]`` and makes packing one-to-one on them.  If the product
of the spans would not fit in int64, the side is doubled until it does;
a larger side only adds candidates.  With ``radius = inf`` the side is
infinite and every point lands in bucket zero.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

# Packed keys, shifted by at most one bucket per axis, stay below this.
_KEY_LIMIT = 2**62


def covering_side(radius: float, magnitude: float) -> float:
    """A bucket side for which every pair at computed distance at most
    ``radius``, among points with coordinates at most ``magnitude`` in
    absolute value, lands in the same or adjacent buckets (see the
    module docstring)."""
    return radius * (1.0 + 2.0**-20) + magnitude * 2.0**-40 + 2.0**-500


def max_magnitude(*point_sets: np.ndarray) -> float:
    """Largest absolute coordinate in nonempty point sets: the ``M`` of
    :func:`covering_side`.  Negation is exact, so the extremes give
    ``np.abs(points).max()`` without an absolute copy of each set."""
    return max(max(float(p.max()), -float(p.min())) for p in point_sets)


class Buckets:
    """Points ``(n, d)`` hashed into buckets of side at least ``side``.

    ``order`` lists point indices by packed bucket key, stable within a
    bucket; ``sorted_keys`` is the packed key along that order.  Keys are
    computed and packed one coordinate column at a time, so the build
    holds a few ``(n,)`` arrays and no ``(n, d)`` one.  It reads the
    columns fastest when ``points`` is laid out by column
    (``points.T`` C-contiguous).
    """

    def __init__(self, points: np.ndarray, side: float) -> None:
        d = points.shape[1]
        # Division by a positive side and floor are both monotone, so the
        # extreme keys of a column are the keys of its extreme values.
        lows = [float(points[:, j].min()) for j in range(d)]
        highs = [float(points[:, j].max()) for j in range(d)]
        while True:
            origin = [math.floor(low / side) - 1 for low in lows]
            span = [math.floor(high / side) - o + 2 for high, o in zip(highs, origin)]
            if math.prod(span) < _KEY_LIMIT:
                break
            side *= 2.0
        self.side = side
        self.origin = origin
        self.span = span
        self.strides = [math.prod(span[j + 1 :]) for j in range(d)]
        self.keys = self._packed(points)
        self.order = np.argsort(self.keys, kind="stable")
        self.sorted_keys = self.keys[self.order]
        # Packed shift of each run's middle bucket, one per offset of the
        # first d - 1 axes; a run spans shifts -1..1 along the last axis.
        # Keys are integers, so a run that ends at key k stops where key
        # k + 1 would start: one left search finds both run ends.
        heads = np.array(
            [
                sum(o * s for o, s in zip(offset, self.strides))
                for offset in itertools.product((-1, 0, 1), repeat=d - 1)
            ],
            dtype=np.int64,
        )
        self._run_ends = np.stack([heads - 1, heads + 2], axis=1).ravel()

    def _packed(self, points: np.ndarray, reach: Optional[np.ndarray] = None) -> np.ndarray:
        """Packed keys ``floor(x_j / side) - origin_j`` of ``points``,
        summed column by column in int64.  With ``reach`` given, it is
        cleared where a key falls outside ``[0, span - 1]``, and such keys
        are clipped into that range, which keeps the sum in int64 but
        packs them meaninglessly."""
        packed = np.zeros(len(points), dtype=np.int64)
        for j, (origin, span, stride) in enumerate(zip(self.origin, self.span, self.strides)):
            quotient = np.divide(points[:, j], self.side)
            keys = np.floor(quotient, out=quotient).astype(np.int64)
            keys -= origin
            if reach is not None:
                reach &= (keys >= 0) & (keys < span)
                np.clip(keys, 0, span - 1, out=keys)
            keys *= stride
            packed += keys
        return packed

    def runs(self, i: int) -> list[int]:
        """The ``3**(d-1)`` runs of ``order`` that hold the buckets adjacent
        to hashed point ``i``'s own, in increasing key order, as the flat
        list ``[start_0, stop_0, start_1, stop_1, ...]``."""
        return self.sorted_keys.searchsorted(self.keys[i] + self._run_ends).tolist()

    def join(self, others: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs ``(i, j)``: ``others[i]`` and hashed point ``j``
        lie in the same or adjacent buckets.  Pairs come run-major: by
        run in the order of :meth:`runs`, then by ``i``, then by ``j``'s
        position in ``order``."""
        # A point more than one bucket outside the hashed range on some
        # axis has no neighbours; the rest, shifted by one bucket, keep
        # every coordinate in [-1, span], which never packs onto a
        # hashed key (those lie in [1, span - 2]).
        reach = np.ones(len(others), dtype=bool)
        packed = self._packed(others, reach)
        if reach.all():
            rows = np.arange(len(others))
        else:
            rows = np.flatnonzero(reach)
            packed = packed[rows]
        o_parts: list[np.ndarray] = []
        h_parts: list[np.ndarray] = []
        ends = self._run_ends.tolist()
        for start, stop in zip(ends[0::2], ends[1::2]):
            left = self.sorted_keys.searchsorted(packed + start)
            counts = self.sorted_keys.searchsorted(packed + stop) - left
            total = int(counts.sum())
            if total == 0:
                continue
            starts = np.repeat(left - (np.cumsum(counts) - counts), counts)
            o_parts.append(np.repeat(rows, counts))
            h_parts.append(self.order[starts + np.arange(total)])
        if not o_parts:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(o_parts), np.concatenate(h_parts)
