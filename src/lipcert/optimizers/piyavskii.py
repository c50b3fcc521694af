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


class Envelope1D:
    """Pointwise minimum of upward cones on an interval.

    Supports exact maximisation: on each gap between consecutive queried
    points the two bounding cones cross at one peak, and when the bound
    is valid every other cone is at least as large there, so scanning
    endpoint values and interior peaks left to right finds the maximum
    and its leftmost argmax.
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

    def __len__(self) -> int:
        return len(self._xs)

    def insert(self, x: float, fx: float) -> None:
        if not self.a <= x <= self.b:
            raise ValueError(f"query {x} outside [{self.a}, {self.b}]")
        pos = bisect.bisect_left(self._xs, x)
        if pos < len(self._xs) and self._xs[pos] == x:
            raise ValueError(f"point {x} already observed")
        self._xs.insert(pos, x)
        self._fs.insert(pos, fx)

    def queried(self, x: float) -> bool:
        pos = bisect.bisect_left(self._xs, x)
        return pos < len(self._xs) and self._xs[pos] == x

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

        Candidates left to right: the left interval end, each queried
        point, each interior peak of a gap, the right end.  Strictly
        larger values win, so ties resolve to the leftmost candidate.
        """
        if not self._xs:
            raise ValueError("envelope has no observations")
        xs, fs, lip = self._xs, self._fs, self.lip
        best_x = self.a
        best_v = -math.inf

        def consider(x: float, v: float) -> None:
            nonlocal best_x, best_v
            if v > best_v:
                best_x, best_v = x, v

        if xs[0] > self.a:
            consider(self.a, self.value(self.a))
        for j in range(len(xs)):
            consider(xs[j], fs[j])
            if j + 1 < len(xs):
                xl, xr = xs[j], xs[j + 1]
                fl, fr = fs[j], fs[j + 1]
                peak_x = 0.5 * (xl + xr) + (fr - fl) / (2.0 * lip)
                if xl < peak_x < xr:
                    consider(peak_x, 0.5 * (fl + fr) + 0.5 * lip * (xr - xl))
        if xs[-1] < self.b:
            consider(self.b, self.value(self.b))
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
        if env.queried(env_argmax):
            # Only reachable with an invalid bound; without this guard a
            # repeated argmax would loop forever.
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

    best_on_cand = np.full(len(cand), math.inf)
    used = np.zeros(len(cand), dtype=bool)
    queries: list[np.ndarray] = []
    values: list[float] = []
    certs: list[float] = []
    best_v = -math.inf
    slack = lip * candidates.cover_radius
    while True:
        fx = float(fn(x))
        used |= np.all(cand == x, axis=1)
        np.minimum(best_on_cand, fx + lip * norm.length(cand - x), out=best_on_cand)
        queries.append(x)
        values.append(fx)
        best_v = max(best_v, fx)
        # On the queried points themselves the envelope equals the best
        # observation (for a valid bound), so the domain-wide envelope
        # maximum is at most the larger of the candidate maximum and the
        # best value, plus the covering correction.
        certs.append(max(0.0, max(float(best_on_cand.max()), best_v) + slack - best_v))
        if certs[-1] <= eps or len(queries) == budget:
            break
        masked = np.where(used, -math.inf, best_on_cand)
        pick = int(np.argmax(masked))
        if masked[pick] == -math.inf:
            break
        x = cand[pick]

    return build_trace(
        "psgrid", fn.label, lip, eps, budget, np.asarray(queries), values, certs,
        warnings,
    )
