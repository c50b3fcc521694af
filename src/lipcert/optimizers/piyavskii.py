"""Sawtooth-envelope certification: exact in one dimension, candidate-set
based in higher dimension.

Observing f at points x_j pins f below the envelope
``min_j f(x_j) + lip * dist(x, x_j)`` whenever ``lip`` really bounds the
Lipschitz constant.  The gap between the envelope's maximum and the best
observed value is therefore a certificate.  In one dimension the
envelope's maximum is computed exactly from the cone intersections; in
higher dimension it is upper-bounded over a finite candidate set whose
covering radius is accounted for in the certificate.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core import (
    Ball,
    Box,
    Domain,
    Norm,
    RunTrace,
    TestFunction,
    build_trace,
    check_run_args,
    enclosing_box,
    midpoint_grid,
)
from ..core.geometry import _column_length


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
        if not lip > 0:
            raise ValueError(f"Lipschitz bound must be positive, got {lip}")
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
        ``j + 1`` if the two cones cross strictly inside it."""
        xl, xr = self._xs[j], self._xs[j + 1]
        fl, fr = self._fs[j], self._fs[j + 1]
        lip = self.lip
        peak_x = 0.5 * (xl + xr) + (fr - fl) / (2.0 * lip)
        if xl < peak_x < xr:
            peak_v = 0.5 * (fl + fr) + 0.5 * lip * (xr - xl)
            heapq.heappush(self._peaks, (-peak_v, peak_x, xl, xr))

    def value(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Envelope value from all cones, for a scalar or an array."""
        if not self._xs:
            raise ValueError("envelope has no observations")
        x = np.asarray(x, dtype=float)
        xs = np.asarray(self._xs)
        fs = np.asarray(self._fs)
        out = (fs + self.lip * np.abs(x[..., None] - xs)).min(axis=-1)
        return float(out) if np.ndim(out) == 0 else out

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


def ps_run_1d(
    fn: TestFunction,
    eps: float,
    budget: int,
    x1: Optional[float] = None,
    lip: Optional[float] = None,
) -> RunTrace:
    """Exact sawtooth certification on an interval.

    Each round queries, observes, recomputes the envelope maximum, emits
    the certificate (envelope maximum minus best observed value), and
    moves to the envelope's leftmost argmax.  Stops once the certificate
    reaches ``eps`` or the budget runs out.

    Args:
      fn: one-dimensional objective on a box domain.
      eps: accuracy to certify.
      budget: maximum number of queries.
      x1: first query; defaults to the interval midpoint.
      lip: Lipschitz bound; defaults to the objective's declared bound.
        In one dimension all supported norms coincide.
    """
    if fn.dim != 1 or not isinstance(fn.domain, Box):
        raise ValueError("exact sawtooth certification needs a 1-D box domain")
    lip = check_run_args(eps, budget, lip, fn.lip_bound)
    a, b = float(fn.domain.lower[0]), float(fn.domain.upper[0])
    x = 0.5 * (a + b) if x1 is None else float(x1)
    if not a <= x <= b:
        raise ValueError(f"first query {x} outside [{a}, {b}]")

    env = Envelope1D(a, b, lip)
    queries: list[float] = []
    values: list[float] = []
    certs: list[float] = []
    best_v = -math.inf
    while True:
        fx = float(fn(np.array([x])))
        env.insert(x, fx)
        queries.append(x)
        values.append(fx)
        best_v = max(best_v, fx)
        env_max, env_argmax = env.max_and_argmax()
        certs.append(max(0.0, env_max - best_v))
        if certs[-1] <= eps or len(queries) == budget:
            break
        x = env_argmax

    return build_trace(
        "ps1d", fn.label, lip, eps, budget, np.asarray(queries)[:, None], values, certs
    )


@dataclass(frozen=True)
class CandidateSet:
    """Finite point set with a rigorous covering radius: every domain
    point is within ``cover_radius`` of some candidate, in the norm the
    set was built for."""

    points: np.ndarray
    cover_radius: float
    note: str = ""

    def __post_init__(self) -> None:
        points = np.atleast_2d(np.asarray(self.points, dtype=float)).copy()
        if len(points) == 0:
            raise ValueError("a candidate set needs at least one point")
        if not self.cover_radius > 0:
            raise ValueError(f"cover radius must be positive, got {self.cover_radius}")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)


def grid_candidates(box: Box, step: float, norm: Norm) -> CandidateSet:
    """Midpoint-grid candidates for a box.

    Every box point is within half a grid step per coordinate of some
    candidate, so the covering radius is the norm of the half-step
    vector.
    """
    points, steps = midpoint_grid(box, step)
    return CandidateSet(
        points=points,
        cover_radius=float(norm.length(steps * 0.5)),
        note=f"midpoint grid, step {step:g}",
    )


def ring_candidates(ball: Ball, n_rings: int, n_angles: int) -> CandidateSet:
    """Concentric-ring candidates for a planar euclidean ball.

    The set is the center plus ``n_rings`` rings of ``n_angles`` equally
    spaced points; the outermost ring lies exactly on the boundary, and
    angle zero puts ``center + (radius, 0)`` in the set bitwise.  Any
    ball point is within half a ring spacing of some ring radially and
    within an arc of ``pi * radius / n_angles`` along it, so the sum of
    the two is a valid covering radius.
    """
    if ball.norm.kind != "euclidean" or ball.dim != 2:
        raise ValueError("ring candidates are defined for planar euclidean balls")
    if n_rings < 1 or n_angles < 3:
        raise ValueError("need at least one ring and three angles")
    rho = ball.radius
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rings = [ball.center[None, :]]
    for j in range(1, n_rings + 1):
        rings.append(ball.center + (j * rho / n_rings) * directions)
    cover = rho / (2.0 * n_rings) + math.pi * rho / n_angles
    return CandidateSet(
        points=np.concatenate(rings),
        cover_radius=cover,
        note=f"{n_rings} rings x {n_angles} angles",
    )


def candidates_for(
    domain: Domain, lip: float, eps: float, norm: Norm, max_points: int = 40000
) -> CandidateSet:
    """Default candidate set aiming at a covering radius of
    ``eps / (2 * lip)``.

    When the target would need more than ``max_points`` candidates the
    set is coarsened to fit and the honest, larger covering radius is
    reported; certificates stay valid but may never reach ``eps``.
    """
    if not lip > 0 or not eps > 0:
        raise ValueError("Lipschitz bound and accuracy target must be positive")
    if isinstance(domain, Ball):
        if domain.norm.kind != "euclidean" or domain.dim != 2:
            raise ValueError(
                "no rigorous candidate builder for this ball; supply one explicitly"
            )
        rho = domain.radius
        n_rings = max(1, math.ceil(2.0 * rho * lip / eps))
        n_angles = max(8, math.ceil(4.0 * math.pi * rho * lip / eps))
        if n_rings * n_angles + 1 > max_points:
            factor = math.sqrt(n_rings * n_angles / max_points)
            n_rings = max(1, int(n_rings / factor))
            n_angles = max(8, int(n_angles / factor))
        return ring_candidates(domain, n_rings, n_angles)
    box = enclosing_box(domain)
    unit = float(norm.length(np.ones(box.dim)))
    step = eps / (lip * unit)
    counts = np.maximum(1, np.ceil(box.edges / step))
    total = float(np.prod(counts))
    if total > max_points:
        step *= (total / max_points) ** (1.0 / box.dim)
    return grid_candidates(box, step, norm)


def ps_run_grid(
    fn: TestFunction,
    eps: float,
    budget: int,
    candidates: Optional[CandidateSet] = None,
    x1: Optional[np.ndarray] = None,
    lip: Optional[float] = None,
) -> RunTrace:
    """Candidate-set sawtooth certification in dimension two or more.

    The envelope is tracked on the candidate set only; the certificate
    adds ``lip * cover_radius`` to bridge from the candidates to the
    whole domain, so it stays valid despite the discretisation.  Each
    round queries the not-yet-queried candidate with the largest
    envelope value (first index on ties).

    The envelope is one array updated in place, with queried candidates
    set to ``-inf``, so a query costs one distance pass and one
    ``argmax`` over the n candidates: O(n d) time.  The candidates are
    stored once per run as one row per coordinate, and the O(n d)
    scratch memory for differences, distances and cone values is
    allocated once per run, not per query.  The distances combine the
    d coordinate terms in order, as :meth:`Norm.length` does; they
    match it bitwise for ``d <= 7``, while from ``d = 8`` on
    ``Norm.length`` sums each row pairwise and the euclidean and l1
    distances may differ from it in the last bit.

    Args:
      fn: objective in dimension at least two.
      eps: accuracy to certify.
      budget: maximum number of queries.
      candidates: candidate set; defaults to :func:`candidates_for` on
        the objective's domain.  If its covering radius is too coarse to
        ever certify ``eps`` the trace carries a warning.
      x1: first query; defaults to the domain's center.
      lip: Lipschitz bound in the objective's norm; defaults to the
        declared bound.
    """
    if fn.dim < 2:
        raise ValueError("use the exact 1-D sawtooth method in one dimension")
    lip = check_run_args(eps, budget, lip, fn.lip_bound)
    norm = fn.norm
    if candidates is None:
        candidates = candidates_for(fn.domain, lip, eps, norm)
    cand = candidates.points
    if cand.shape[1] != fn.dim:
        raise ValueError("candidate dimension does not match the objective")
    inside = np.asarray(fn.domain.contains(cand))
    if not inside.all():
        raise ValueError("candidate set contains points outside the domain")
    warnings: tuple[str, ...] = ()
    if candidates.cover_radius > eps / lip:
        warnings = (
            f"covering radius {candidates.cover_radius:g} exceeds eps/lip "
            f"{eps / lip:g}; the target accuracy cannot be certified",
        )
    if x1 is None:
        if isinstance(fn.domain, Ball):
            x = np.array(fn.domain.center, dtype=float)
        else:
            x = fn.domain.lower + fn.domain.edges * 0.5
    else:
        x = np.asarray(x1, dtype=float)
        if not fn.domain.contains(x):
            raise ValueError("first query lies outside the domain")

    # envelope on the candidates, -inf on those already queried
    env = np.full(len(cand), math.inf)
    cols = np.ascontiguousarray(cand.T)
    diff = np.empty_like(cols)
    dist = np.empty(len(cand))
    cone = np.empty(len(cand))
    hit = np.empty(len(cand), dtype=bool)
    queries: list[np.ndarray] = []
    values: list[float] = []
    certs: list[float] = []
    best_v = -math.inf
    slack = lip * candidates.cover_radius
    while True:
        fx = float(fn(x))
        np.subtract(cols, x[:, None], out=diff)
        _column_length(norm.kind, diff, diff, dist)
        np.multiply(lip, dist, out=cone)
        np.add(fx, cone, out=cone)
        np.minimum(env, cone, out=env)
        # only rows at distance 0 can equal x, but a nonzero difference
        # can underflow to distance 0, so compare those rows
        zero = np.flatnonzero(np.equal(dist, 0.0, out=hit))
        env[zero[np.all(cand[zero] == x, axis=1)]] = -math.inf
        queries.append(x)
        values.append(fx)
        best_v = max(best_v, fx)
        pick = int(np.argmax(env))
        top = float(env[pick])
        # A queried candidate's envelope is at most its own observation,
        # so at most best_v: leaving it out of top does not change
        # max(top, best_v).  The covering correction bridges from the
        # candidates to the whole domain.
        certs.append(max(0.0, max(top, best_v) + slack - best_v))
        if certs[-1] <= eps or len(queries) == budget or top == -math.inf:
            break
        x = cand[pick]

    return build_trace(
        "psgrid", fn.label, lip, eps, budget, np.asarray(queries), values, certs,
        warnings,
    )
