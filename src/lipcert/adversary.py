"""Adversarial lower-bound audits of certified runs.

A certified stop is only meaningful if no function consistent with the
queries could still be badly suboptimal at the recommendation.  The
audit makes that concrete: it looks for a cone-shaped perturbation that
vanishes at every query the algorithm made (so the perturbed run is
query-for-query identical) yet moves the maximum enough that the
recommendation is provably far from optimal on the perturbed objective.
Finding one at the certified accuracy would disprove the certificate;
finding one only at finer accuracies shows the certified stopping time
was tight, not wasteful.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    ComplexityScale,
    Norm,
    RunTrace,
    TestFunction,
    diameter,
    midpoint_grid,
    sigma_from_trace,
)
from .core._buckets import Buckets, covering_side, max_magnitude
from .core.geometry import _grid_total, _pair_lengths
from .optimizers import ALGORITHMS, CERTIFIED

# How far the audit's accuracy ladder descends below the target.
_EXTRA_HALVINGS = 12
# Largest candidate grid the audit scans per scale.
_GRID_CAP = 400_000


def _bump(
    center: np.ndarray, peak: float, radius: float, slope: float, norm: Norm
) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of a cone of height ``peak`` at ``center`` falling at rate
    ``slope``, identically zero, bitwise, beyond ``radius = peak / slope``."""

    def bump(x: np.ndarray) -> np.ndarray:
        dist = norm.length(x - center)
        return np.where(dist <= radius, np.maximum(0.0, peak - slope * dist), 0.0)

    return bump


@dataclass(frozen=True)
class AuditReport:
    """Outcome of an adversarial audit at one stopped run.

    ``case_fired`` is ``outside-ball`` when a bump added at a query-free
    site, away from the recommendation, produced the witness, or
    ``inconclusive`` when no scale admitted two query-free bump sites.
    ``coincidence`` records whether the perturbed rerun matched the
    original queries bitwise; ``regret_achieved`` is the proven
    suboptimality of the original recommendation on the perturbed
    objective.
    """

    algorithm: str
    function: str
    eps: float
    eps_tilde: Optional[float]
    headroom_factor: float
    center: Optional[np.ndarray]
    n: int
    case_fired: str
    coincidence: Optional[bool]
    regret_achieved: Optional[float]
    scales_tried: tuple[float, ...] = ()


def _free_mask(queries: np.ndarray, sites: np.ndarray, radius: float, norm: Norm) -> np.ndarray:
    """Whether no query lies within ``radius`` of each site."""
    side = covering_side(radius, max_magnitude(queries, sites))
    site, query = Buckets(queries, side).join(sites)
    dists = _pair_lengths(norm, np.ascontiguousarray(sites.T), site, queries.T, query)
    free = np.ones(len(sites), dtype=bool)
    free[site[dists <= radius]] = False
    return free


def audit_certified_run(
    fn: TestFunction,
    eps: float,
    algorithm: str = "cdoo",
    budget: int = 200_000,
    n_override: Optional[int] = None,
) -> AuditReport:
    """Audit a certified run one query before it certified.

    Runs the algorithm to its certified stop, rewinds to ``n`` queries
    (one less than the stopping count unless overridden), and searches a
    ladder of accuracies for two bump sites that are near-optimal yet
    query-free.  If found, a bump is added at the first site, the run
    is replayed on it to confirm bitwise coincidence, and the
    recommendation's proven regret on the bumped objective is reported.
    The ladder starts at the certified accuracy, climbs the halving
    schedule, then descends ``_EXTRA_HALVINGS`` halvings below the
    target, since a correct certificate rules out witnesses at the target
    scale itself.  The recommendation must be one of the rewound
    queries, as it is for every certified algorithm, or ``ValueError``
    is raised.

    The search is sound but not complete: a reported witness is a real
    lower bound, while ``inconclusive`` only means none was found on the
    grids tried.

    Args:
      fn: objective with exact maximum and Lipschitz metadata.
      eps: accuracy the run certifies.
      algorithm: ``cdoo``, ``ps1d``, or ``psgrid``.
      budget: budget for the initial certified run.
      n_override: audit after this many queries instead of one before
        the certified stop.
    """
    if fn.known_max is None:
        raise ValueError("auditing needs exact maximum metadata")
    if fn.exact_lip is None or not fn.exact_lip < fn.lip_bound:
        raise ValueError(
            "auditing needs an exact Lipschitz constant strictly below the bound"
        )
    if algorithm not in CERTIFIED:
        raise ValueError(f"audit does not support algorithm {algorithm!r}")

    def run(variant: TestFunction, steps: int) -> RunTrace:
        return ALGORITHMS[algorithm](variant, eps, steps)

    base = run(fn, budget)
    sigma = sigma_from_trace(base, eps)
    if not math.isfinite(sigma):
        raise ValueError(
            "the run never certified the target accuracy within its budget; "
            "raise the budget or the accuracy"
        )
    n = int(sigma) - 1 if n_override is None else int(n_override)
    if not 1 <= n <= len(base):
        raise ValueError(f"audit point {n} outside the recorded run of {len(base)}")
    queries = base.queries[:n]
    rec_point = base.rec_points[n - 1]
    rec_value = float(base.rec_values[n - 1])
    if not np.all(queries == rec_point, axis=1).any():
        # The regret below needs the recommendation outside every bump
        # site's support, which only the sites' distance to the queries
        # guarantees.
        raise ValueError(
            f"{algorithm} recommended {rec_point.tolist()} after {n} queries, "
            "which is not one of them; the audit needs a queried recommendation"
        )

    norm = fn.norm
    slope = fn.lip_bound - fn.exact_lip
    headroom = 16.0 * fn.lip_bound / slope
    scale = ComplexityScale.from_accuracy(
        fn.lip_bound * diameter(fn.domain, norm), eps
    )
    ladder = list(reversed(scale.schedule))
    ladder += [eps * 0.5**k for k in range(1, _EXTRA_HALVINGS + 1)]
    box = fn.domain.enclosing_box()
    tried: list[float] = []
    for eps_tilde in ladder:
        tried.append(eps_tilde)
        peak = 8.0 * eps_tilde
        ball_radius = peak / slope
        separation = headroom * eps_tilde / fn.lip_bound
        step = ball_radius / 2.0
        while _grid_total(box, step) > _GRID_CAP:
            step *= 1.5
        grid, _ = midpoint_grid(box, step)
        grid = np.compress(fn.domain.contains(grid), grid, axis=0)
        if len(grid) == 0:
            continue
        gaps = fn.known_max - np.asarray(fn(grid), dtype=float)
        near_optimal = np.compress(gaps <= eps_tilde, grid, axis=0)
        if len(near_optimal) < 2:
            continue
        free = np.compress(
            _free_mask(queries, near_optimal, ball_radius, norm), near_optimal, axis=0
        )
        if len(free) < 2:
            continue
        # The two sites are the first two points a greedy packing of
        # free at separation keeps: free[0], and a second one exactly
        # when some later point lies farther than separation from it.
        if not (norm.length(free[1:] - free[0]) > separation).any():
            continue
        center = free[0].copy()
        # The bump's slope uses up exactly the headroom, so the perturbed
        # objective keeps the declared bound, and it vanishes beyond
        # ball_radius, where every query lies, so the replay must
        # coincide.  Adding the bump lifts its center to near-certain
        # optimality while the recommendation, a query, keeps its value.
        bump = _bump(center, peak, ball_radius, slope, norm)
        inner = fn.evaluator
        fn_plus = replace(
            fn,
            label=fn.label + "+bump",
            evaluator=lambda x: inner(x) + bump(x),
            exact_lip=None,
            known_max=None,
        )
        regret = float(fn(center)) + peak - rec_value
        replay = run(fn_plus, n)
        coincidence = (
            np.array_equal(replay.queries, queries)
            and np.array_equal(replay.values, base.values[:n])
            and np.array_equal(replay.rec_points, base.rec_points[:n])
        )
        return AuditReport(
            algorithm=algorithm,
            function=fn.label,
            eps=eps,
            eps_tilde=eps_tilde,
            headroom_factor=headroom,
            center=center,
            n=n,
            case_fired="outside-ball",
            coincidence=coincidence,
            regret_achieved=regret,
            scales_tried=tuple(tried),
        )
    return AuditReport(
        algorithm=algorithm,
        function=fn.label,
        eps=eps,
        eps_tilde=None,
        headroom_factor=headroom,
        center=None,
        n=n,
        case_fired="inconclusive",
        coincidence=None,
        regret_achieved=None,
        scales_tried=tuple(tried),
    )


def audit_to_json(report: AuditReport) -> str:
    """Serialize an audit report to the stable JSON layout."""
    doc = {
        "algorithm": report.algorithm,
        "function": report.function,
        "eps": report.eps,
        "eps_tilde": report.eps_tilde,
        "K_adv": report.headroom_factor,
        "center": None if report.center is None else [float(v) for v in report.center],
        "n": report.n,
        "case_fired": report.case_fired,
        "coincidence": report.coincidence,
        "regret_achieved": report.regret_achieved,
    }
    return json.dumps(doc, indent=2)
