"""Sawtooth-envelope certification: exact in one dimension, candidate-set
based in higher dimension.

Observing f at points x_j pins f below the envelope
``min_j f(x_j) + lip * dist(x, x_j)`` whenever ``lip`` really bounds the
Lipschitz constant.  The gap between the envelope's maximum and the best
observed value is therefore a certificate.  In one dimension the
envelope's maximum is computed exactly from the cone intersections; in
higher dimension it is upper-bounded over a finite candidate set whose
covering radius is accounted for in the certificate.  A set too coarse
for the certificate ever to reach the target stops the run after its
first query.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import (
    Ball,
    Box,
    Domain,
    Norm,
    RunTrace,
    TestFunction,
    build_trace,
    midpoint_grid,
)
from ..core._buckets import covering_side, max_magnitude
from ..core.geometry import (
    _all_columns,
    _check_accuracy,
    _check_lip_bound,
    _column_length,
    _grid_total,
)

# Largest candidate set candidates_for builds; past it the set coarsens.
_MAX_CANDIDATES = 40000


class Envelope1D:
    """Pointwise minimum of upward cones on an interval.

    Supports exact maximisation: on each gap between consecutive queried
    points the two bounding cones cross at one peak, and when the bound
    is valid every other cone is at least as large there, so the maximum
    over the interval ends, the queried points and the interior peaks is
    the envelope's maximum.

    The candidates are kept up to date per insertion rather than
    rescanned: a heap holds the gap peaks, and running extrema hold the
    best queried point and the envelope at the interval ends.  An
    insertion replaces one gap by two, so it pushes two peaks and
    leaves the old gap's peak in the heap until it reaches the top.
    ``insert`` costs O(log n) plus a list insertion, and
    ``max_and_argmax`` O(log n) amortised, for n observations.
    """

    def __init__(self, a: float, b: float, lip: float) -> None:
        if not a < b:
            raise ValueError(f"empty interval [{a}, {b}]")
        _check_lip_bound(lip)
        self.a = float(a)
        self.b = float(b)
        self.lip = float(lip)
        self._xs: list[float] = []
        self._fs: list[float] = []
        # (-value, x, xl, xr) for the peak of the gap (xl, xr); a peak
        # is stale once the gap is split
        self._peaks: list[tuple[float, float, float, float]] = []
        # (-value, x) of the best queried point, leftmost on ties
        self._point = (math.inf, math.inf)
        # envelope at the interval ends: min_j f_j + lip * |end - x_j|
        self._end_a = math.inf
        self._end_b = math.inf

    def __len__(self) -> int:
        return len(self._xs)

    def insert(self, x: float, fx: float) -> None:
        if not self.a <= x <= self.b:
            raise ValueError(f"query {x} outside [{self.a}, {self.b}]")
        if not math.isfinite(fx):
            raise ValueError(f"non-finite value {fx} at {x}")
        xs, fs = self._xs, self._fs
        pos = bisect.bisect_left(xs, x)
        if pos < len(xs) and xs[pos] == x:
            raise ValueError(f"point {x} already observed")
        xs.insert(pos, x)
        fs.insert(pos, fx)
        self._point = min(self._point, (-fx, x))
        if pos > 0:
            self._push_peak(pos - 1)
        if pos + 1 < len(xs):
            self._push_peak(pos)
        self._end_a = min(self._end_a, fx + self.lip * abs(self.a - x))
        self._end_b = min(self._end_b, fx + self.lip * abs(self.b - x))

    def _push_peak(self, j: int) -> None:
        """Push the peak of the gap between observations ``j`` and
        ``j + 1`` if the two cones cross strictly inside it.  The
        midpoint is taken as the sum of halves, which cannot overflow; a
        position that is still not finite, from values whose difference
        overflows, raises instead of dropping the gap."""
        xl, xr = self._xs[j], self._xs[j + 1]
        fl, fr = self._fs[j], self._fs[j + 1]
        lip = self.lip
        peak_x = 0.5 * xl + 0.5 * xr + (fr - fl) / (2.0 * lip)
        if not math.isfinite(peak_x):
            raise ValueError(f"peak of the gap [{xl}, {xr}] is not finite")
        if xl < peak_x < xr:
            peak_v = 0.5 * (fl + fr) + 0.5 * lip * (xr - xl)
            heapq.heappush(self._peaks, (-peak_v, peak_x, xl, xr))

    def max_and_argmax(self) -> tuple[float, float]:
        """Exact envelope maximum and its leftmost argmax.

        Candidates: the left interval end unless it was queried, each
        queried point, each interior peak of a gap, and the right end
        unless it was queried.  Their positions are distinct, and the
        best point and the top peak both order equal values by position,
        so taking the better of the two and comparing it with the ends
        (the left end winning ties, the right end only when strictly
        larger) resolves ties to the leftmost candidate.
        """
        xs, peaks = self._xs, self._peaks
        if not xs:
            raise ValueError("envelope has no observations")
        while peaks:
            _, _, xl, xr = peaks[0]
            if xs[bisect.bisect_left(xs, xl) + 1] == xr:
                break
            heapq.heappop(peaks)
        inner = min(self._point, peaks[0][:2]) if peaks else self._point
        best_x = self.a
        best_v = -math.inf
        if xs[0] > self.a:
            best_v = self._end_a
        if -inner[0] > best_v:
            best_v, best_x = -inner[0], inner[1]
        if xs[-1] < self.b and self._end_b > best_v:
            best_v, best_x = self._end_b, self.b
        return best_v, best_x


def ps_run_1d(fn: TestFunction, eps: float, budget: int) -> RunTrace:
    """Exact sawtooth certification on an interval.

    The first query is the interval's midpoint, taken as ``0.5 * a +
    0.5 * b`` so that it stays finite near float range.  Each round
    queries, observes, recomputes the envelope maximum, emits the
    certificate (envelope maximum minus best observed value), and moves
    to the envelope's leftmost argmax.  Each round is one query,
    and :func:`~lipcert.core.build_trace` stops the run after the round
    whose certificate reaches ``eps`` or that spends the budget.  The
    envelope uses the objective's ``lip_bound``; in one dimension all
    supported norms coincide.

    Args:
      fn: one-dimensional objective on a box domain.
      eps: accuracy to certify; refused before any query unless positive and finite.
      budget: maximum number of queries.
    """
    _check_accuracy(eps)
    if fn.dim != 1 or not isinstance(fn.domain, Box):
        raise ValueError("exact sawtooth certification needs a 1-D box domain")
    lip = fn.lip_bound
    a, b = float(fn.domain.lower[0]), float(fn.domain.upper[0])
    env = Envelope1D(a, b, lip)
    rounds = _ps1d_rounds(fn, env, 0.5 * a + 0.5 * b)
    return build_trace("ps1d", fn.label, lip, eps, budget, rounds)


def _ps1d_rounds(fn: TestFunction, env: Envelope1D, x: float):
    best_v = -math.inf
    while True:
        point = np.array([[x]])
        fx = fn._values(point)[0]
        env.insert(x, fx)
        best_v = max(best_v, fx)
        env_max, x = env.max_and_argmax()
        yield point, [fx], [max(0.0, env_max - best_v)]


@dataclass(frozen=True)
class CandidateSet:
    """Finite point set with a rigorous covering radius: every domain
    point is within ``cover_radius`` of some candidate, in the norm the
    set was built for."""

    points: np.ndarray
    cover_radius: float

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=float)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError(f"candidates must be an (n, d) array, n >= 1, got {points.shape}")
        if not self.cover_radius > 0:
            raise ValueError(f"cover radius must be positive, got {self.cover_radius}")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)


def candidates_for(domain: Domain, lip: float, eps: float, norm: Norm) -> CandidateSet:
    """Default candidate set aiming at a covering radius of
    ``eps / (2 * lip)``: concentric rings on a planar euclidean ball, a
    midpoint grid on a box.

    When the target would need more than ``_MAX_CANDIDATES`` candidates
    the set is coarsened to fit and the honest, larger covering radius is
    reported; certificates stay valid but may never reach ``eps``.  Every
    candidate lies in the domain.
    """
    _check_lip_bound(lip)
    _check_accuracy(eps)
    if isinstance(domain, Ball):
        if domain.norm.kind != "euclidean" or domain.dim != 2:
            raise ValueError(
                "no rigorous candidate builder for this ball; supply one explicitly"
            )
        rho = domain.radius
        # Past the cap the counts depend on the target only through the
        # ratio of the two ceilings, which no longer moves them below
        # rho * lip * 2**-20 (79 rings of 501 angles under a cap of
        # 40,000); a finer target is raised to that, so they stay finite.
        eps = max(eps, rho * lip * 2.0**-20)
        n_rings = max(1, math.ceil(2.0 * rho * lip / eps))
        n_angles = max(8, math.ceil(4.0 * math.pi * rho * lip / eps))
        if n_rings * n_angles + 1 > _MAX_CANDIDATES:
            factor = math.sqrt(n_rings * n_angles / _MAX_CANDIDATES)
            n_rings = max(1, int(n_rings / factor))
            # the center takes one place of the cap
            n_angles = max(8, min(int(n_angles / factor), (_MAX_CANDIDATES - 1) // n_rings))
        # The center plus n_rings rings of n_angles equally spaced points;
        # the outermost ring lies on the boundary, and angle zero puts
        # center + (radius, 0) in the set bitwise.  Any ball point is
        # within half a ring spacing of some ring radially and within an
        # arc of pi * radius / n_angles along it, so the sum of the two is
        # a valid covering radius.  A ring some of whose points round
        # outside the ball is pulled in by one ulp of its radius, then by
        # twice as much at each try, until all of them lie inside, and the
        # largest pull is added to the radius.  Far from the origin the
        # coordinates' rounding outweighs millions of the radius's ulps,
        # which a float-by-float pull would step through one by one.
        angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
        directions = np.stack([np.cos(angles), np.sin(angles)])
        radii = [j * rho / n_rings for j in range(1, n_rings + 1)]
        # one row per coordinate, one column per candidate, so that the
        # ball test and ps_run_grid read contiguous coordinate rows
        cols = np.empty((2, 1 + n_rings * n_angles))
        cols[:, 0] = domain.center
        rings = cols[:, 1:].reshape(2, n_rings, n_angles)
        np.multiply(np.array(radii)[:, None], directions[:, None, :], out=rings)
        rings += domain.center[:, None, None]
        inside = domain.contains(cols[:, 1:].T).reshape(n_rings, n_angles)
        pull = 0.0
        for j in np.flatnonzero(~inside.all(axis=1)):
            radius, step = radii[j], math.ulp(radii[j])
            while not domain.contains(rings[:, j].T).all():
                radius = radii[j] - step
                step *= 2.0
                rings[:, j] = domain.center[:, None] + radius * directions
            pull = max(pull, radii[j] - radius)
        cover = rho / (2.0 * n_rings) + math.pi * rho / n_angles + pull
        return CandidateSet(points=cols.T, cover_radius=cover)
    step = eps / (lip * float(norm.length(np.ones(domain.dim))))
    while (total := _grid_total(domain, step)) > _MAX_CANDIDATES:
        if total == math.inf:
            # no factor to rescale by: the cap's d-th root of cells
            # along the longest edge fits the cap
            step = float(domain.edges.max()) / int(_MAX_CANDIDATES ** (1.0 / domain.dim))
        else:
            step *= (total / _MAX_CANDIDATES) ** (1.0 / domain.dim)
    # Every box point is within half a grid step per coordinate of some
    # candidate, so the covering radius is the norm of the half-step vector.
    # The candidates lie in the box.  On an axis [a, b] of n intervals the
    # offset from a is positive and at most (n - 1/2)(b - a)(1 + 2**-53)**3,
    # after rounding the edge, the step and the product; that is at most
    # b - a, so rounding a plus the offset cannot pass the float b.
    points, steps = midpoint_grid(domain, step)
    return CandidateSet(points=points, cover_radius=float(norm.length(steps * 0.5)))


def ps_run_grid(
    fn: TestFunction,
    eps: float,
    budget: int,
    candidates: Optional[CandidateSet] = None,
) -> RunTrace:
    """Candidate-set sawtooth certification in dimension two or more.

    The envelope is tracked on the candidate set only; the certificate
    adds ``lip * cover_radius`` to bridge from the candidates to the
    whole domain, so it stays valid despite the discretisation.  Each
    round queries the not-yet-queried candidate with the largest
    envelope value (first index on ties).  The first query is the
    domain's center, and the envelope uses the objective's ``lip_bound``
    in its own norm.  Each round is one query, and
    :func:`~lipcert.core.build_trace` stops the run after the round
    whose certificate reaches ``eps`` or that spends the budget; the
    rounds end once every candidate is queried.  Every certificate is
    at least ``lip * cover_radius``, so a set whose covering radius
    exceeds ``eps / lip`` ends the rounds after the first query, with a
    warning in the trace.

    The envelope is one array updated in place, with queried candidates
    set to ``-inf``: under sup and l1 these are the candidates at
    computed distance 0 from the query, marked by one boolean store;
    under the euclidean norm, whose squares can underflow, the
    candidates at distance 0 are compared with the query coordinate by
    coordinate.  A query updates only the candidates whose envelope
    its cone can lower.  When the candidates' first coordinates are
    nondecreasing, as in every midpoint grid, these lie in one slice
    found by bisection on the first coordinate (its completeness is
    proved in ``_psgrid_rounds``); otherwise, and on the first query,
    the slice is the whole set.  So a query costs one ``argmax`` over the
    n candidates plus a distance pass over its slice of k: O(n + k d)
    time.  The candidates are stored once per run as one row per
    coordinate, and the O(n d) scratch memory for differences, distances
    and cone values is allocated once per run, not per query.  The
    distances combine the d coordinate terms in order, as
    :meth:`Norm.length` does, and match it bitwise.

    Args:
      fn: objective in dimension at least two.
      eps: accuracy to certify; refused before any query unless positive and finite.
      budget: maximum number of queries.
      candidates: candidate set, refused unless it lies in the objective's
        domain; defaults to :func:`candidates_for` on that domain.
    """
    _check_accuracy(eps)
    if fn.dim < 2:
        raise ValueError("use the exact 1-D sawtooth method in one dimension")
    lip = fn.lip_bound
    if candidates is None:
        candidates = candidates_for(fn.domain, lip, eps, fn.norm)
    elif candidates.points.shape[1] != fn.dim:
        raise ValueError("candidate dimension does not match the objective")
    elif not np.asarray(fn.domain.contains(candidates.points)).all():
        raise ValueError("candidate set contains points outside the domain")
    hopeless = candidates.cover_radius > eps / lip
    warnings: tuple[str, ...] = ()
    if hopeless:
        warnings = (
            f"covering radius {candidates.cover_radius:g} exceeds eps/lip "
            f"{eps / lip:g}; the target accuracy cannot be certified",
        )
    rounds = _psgrid_rounds(fn, candidates, hopeless)
    return build_trace("psgrid", fn.label, lip, eps, budget, rounds, warnings)


def _psgrid_rounds(fn: TestFunction, candidates: CandidateSet, hopeless: bool):
    """The rounds of :func:`ps_run_grid`, one query each.

    A query at ``x`` with value ``fx`` updates the envelope only on a
    slice ``[lo, hi)`` of the candidates, and leaves it bitwise as a pass
    over all of them would.  Every query after the first is at the
    argmax candidate, so beforehand every envelope value is at most
    ``top = env(x)``.  Let ``R`` be ``max(0, top - fx)`` rounded up to a
    float, divided by ``lip`` and rounded up again, so that ``R >= max(0,
    top - fx) / lip`` exactly; let ``M`` be the largest absolute
    candidate coordinate, ``u = 2**-53`` and ``s = covering_side(R, M)``.
    The slice holds the candidates whose first coordinate lies in
    ``[fl(x_0 - s), fl(x_0 + s)]``.

    **Completeness.**  Let ``p`` be a candidate, ``d`` its computed
    distance to ``x`` and ``c = fl(fx + fl(lip * d))`` its cone value.

    1. If ``d >= R``, then ``lip * d >= G`` for the float ``G >= top -
       fx`` that ``R`` was divided from.  Rounding is monotone, so
       ``fl(lip * d) >= G``, then ``fx + fl(lip * d) >= top`` and ``c >=
       top``.  The envelope value at ``p`` is at most ``top``, so
       ``min(env, c)`` leaves it as it is.  Only candidates with ``d <
       R`` can change.
    2. By step 1 of the completeness proof in ``core._buckets``, ``d <=
       R`` gives ``|p_0 - x_0| <= R (1 + 5u) + 2**-510``.  ``x`` is a
       candidate, so the bounds ``fl(x_0 -+ s)`` are within ``u (M + s)``
       of ``x_0 -+ s``, and ``s`` exceeds ``R (1 + 5u) + 2**-510 + u (M +
       s)``, since :func:`covering_side` adds ``R 2**-20``, ``M 2**-40``
       and ``2**-500`` to ``R``.  So ``p`` lies in the slice.
    3. Rows equal to ``x`` have first coordinate ``x_0`` and ``s > 0``,
       so they lie in the slice and are set to ``-inf`` as in a full
       pass.  This holds also when ``fx > top`` refutes the bound, where
       the clamp at 0 keeps ``R`` from going negative.  Under sup and
       l1 they are the rows of the slice at computed distance 0:
       ``fl(p_j - x_j)`` is 0 exactly when ``p_j == x_j``, thanks to
       gradual underflow, ``abs`` keeps a nonzero difference nonzero,
       and a maximum, or a float sum of nonnegative terms, is 0 only
       when every term is.  Under the euclidean norm a nonzero
       difference can square to 0, so its rows at distance 0 are
       compared with ``x``.

    The slice is contiguous when the first coordinates are nondecreasing,
    which the run checks once.  Otherwise, and on the first query, where
    ``top`` is ``inf``, the slice is every candidate.
    """
    lip = fn.lip_bound
    kind = fn.norm.kind
    # under sup and l1 distance 0 marks exactly the rows equal to x
    exact_zero = kind != "euclidean"
    values = fn._values
    subtract, multiply, add, minimum, equal = np.subtract, np.multiply, np.add, np.minimum, np.equal
    left, right, up = bisect.bisect_left, bisect.bisect_right, math.nextafter
    inf = math.inf
    cand = candidates.points
    n = len(cand)
    # envelope on the candidates, -inf on those already queried
    env = np.full(n, inf)
    cols = np.ascontiguousarray(cand.T)
    diff = np.empty_like(cols)
    dist = np.empty(n)
    cone = np.empty(n)
    hit = np.empty(n, dtype=bool)
    # the first coordinates, when they are nondecreasing
    lead = None
    if bool(np.all(cols[0, 1:] >= cols[0, :-1])):
        lead = cols[0].tolist()
        magnitude = max_magnitude(cand)
    # the query as a (1, d) row, evaluated and yielded, and as a (d, 1)
    # column that the subtraction broadcasts
    point = np.array(fn.domain.center)[None]
    column = point.T
    top = inf
    best_v = -inf
    slack = lip * candidates.cover_radius
    while True:
        fx = values(point)[0]
        lo, hi = 0, n
        if lead is not None and top < inf:
            # the reach R of the docstring, rounded up at each step; the
            # compare gives max(0.0, top - fx)
            rise = top - fx
            rise = up(rise if rise > 0.0 else 0.0, inf)
            side = covering_side(up(rise / lip, inf), magnitude)
            x0 = lead[pick]
            lo = left(lead, x0 - side)
            hi = right(lead, x0 + side)
        part = diff[:, lo:hi]
        subtract(cols[:, lo:hi], column, out=part)
        near = _column_length(kind, part, part, dist[lo:hi])
        lowered = multiply(lip, near, out=cone[lo:hi])
        add(fx, lowered, out=lowered)
        minimum(env[lo:hi], lowered, out=env[lo:hi])
        if exact_zero:
            env[lo:hi][equal(near, 0.0, out=hit[lo:hi])] = -inf
        else:
            # a nonzero difference can square to distance 0, so compare
            # the rows at distance 0
            zero = lo + equal(near, 0.0, out=hit[lo:hi]).nonzero()[0]
            env[zero[_all_columns(cand[zero] == point)]] = -inf
        if fx > best_v:
            best_v = fx
        pick = int(env.argmax())
        top = float(env[pick])
        # A queried candidate's envelope is at most its own observation,
        # so at most best_v: leaving it out of top does not change
        # max(top, best_v).  The covering correction bridges from the
        # candidates to the whole domain.  The compares give max's results.
        cert = (best_v if best_v > top else top) + slack - best_v
        yield point, [fx], [cert if cert > 0.0 else 0.0]
        if hopeless or top == -inf:
            return
        point = cand[pick : pick + 1]
        column = cols[:, pick : pick + 1]
