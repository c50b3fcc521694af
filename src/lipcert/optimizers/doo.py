"""Optimistic tree search over a bisection partition, with and without
error certificates.

Both variants expand, at each round, the active leaf with the largest
optimistic value: observed value at the representative plus the Lipschitz
bound times the cell diameter bound.  The certified variant additionally
emits, after each query, a bound on how far the recommendation can be
from the maximum, and stops once that bound reaches the target accuracy.
The non-certified variant runs to its budget and emits no bounds.

Each leaf carries its integer cell position, so expanding a cell costs
one :meth:`BisectionPartition.split` (a fixed number of numpy passes
over its ``2**d`` children), one batched evaluation, and one heap push
per child.  Nothing is decoded from flat cell indices.

Cells keep splitting down to ``max_depth``, past the depth where float64
still tells neighbouring representatives apart, so a long run can query
the same point again.  That is kept on purpose for now: a float-resolution
depth cap would end such runs early and change their query sequences.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from ..core import RunTrace, TestFunction, build_trace, check_run_args
from ..partition import BisectionPartition, bisection_setup


def _fits(partition: object, canonical: BisectionPartition) -> bool:
    """Whether ``partition`` has :func:`bisection_setup`'s geometry."""
    if not isinstance(partition, BisectionPartition):
        return False
    box, ball, want = partition.box, partition.restrict_to, canonical.restrict_to
    if not (
        np.array_equal(box.lower, canonical.box.lower)
        and np.array_equal(box.upper, canonical.box.upper)
    ):
        return False
    if want is None or ball is None:
        return ball is want
    return (
        np.array_equal(ball.center, want.center)
        and ball.radius == want.radius
        and ball.norm == want.norm
    )


def _tree_search(
    fn: TestFunction,
    partition: Optional[BisectionPartition],
    eps: Optional[float],
    budget: int,
    algorithm: str,
) -> RunTrace:
    canonical, lip = bisection_setup(fn)
    if partition is None:
        partition = canonical
    elif not _fits(partition, canonical):
        # A smaller box leaves part of the domain out of the certificate;
        # a larger one queries points outside the domain.
        raise ValueError(
            "partition must bisect the objective's enclosing box, restricted "
            "to the domain when it is a ball, as bisection_setup builds it"
        )
    check_run_args(eps, budget)
    certified = eps is not None

    diam = partition.diam_bound
    arity = partition.arity
    shrink = partition.shrink
    max_depth = partition.max_depth
    root = np.zeros((1, partition.dim), np.int64)
    _, _, root_reps, _ = partition._cells(root, 0)
    rep0 = root_reps[0]
    v0 = float(fn(rep0))
    blocks = [rep0[None]]
    values = [v0]
    certs = [max(0.0, lip * diam)]
    best_val = v0

    # Active leaves as (-optimistic, depth, index, positions, row): ties
    # go to smaller depth, then smaller index, and (depth, index) is
    # unique, so the compare never reaches the position block the leaf's
    # split returned.
    leaves = [(-(v0 + lip * diam), 0, 0, root, 0)]
    frozen_b = -np.inf
    done = certified and certs[0] <= eps
    while leaves and len(values) < budget and not done:
        neg_b, depth, index, block, row = heapq.heappop(leaves)
        optimistic = -neg_b
        if depth >= max_depth:
            # Cell indices (and dyadic geometry) cannot resolve another
            # split.  The cell stays in the certificate envelope but is
            # never refined; the run ends early if only such cells remain.
            frozen_b = max(frozen_b, optimistic)
            continue
        codes, kid_pos, kid_reps = partition.split(depth, block[row])
        if not len(codes):
            continue
        # Only the children the budget lets the trace record are evaluated.
        taken = min(len(codes), budget - len(values))
        kid_reps = kid_reps[:taken]
        kid_vals = fn(kid_reps).tolist()
        blocks.append(kid_reps)
        slack = lip * diam * shrink ** (depth + 1)
        # The popped leaf had the largest optimistic value among the
        # still-splittable cells; together with the frozen cells'
        # envelope this bounds the maximum over the domain.
        top = max(optimistic, frozen_b)
        base = index * arity
        for kid, code in enumerate(codes[:taken].tolist()):
            val = kid_vals[kid]
            values.append(val)
            best_val = max(best_val, val)
            certs.append(max(0.0, top - best_val))
            heapq.heappush(leaves, (-(val + slack), depth + 1, base + code, kid_pos, kid))
        done = len(values) == budget
        # The accuracy check sits at round granularity: a round whose
        # certificate passes the target is still recorded in full.
        if certified and certs[-1] <= eps:
            done = True

    return build_trace(
        algorithm, fn.label, lip, eps, budget, np.concatenate(blocks), values,
        certs if certified else None,
    )


def cdoo_run(
    fn: TestFunction,
    eps: float,
    budget: int,
    partition: Optional[BisectionPartition] = None,
) -> RunTrace:
    """Certified tree search.

    The search uses the objective's ``lip_bound`` converted to the sup
    norm, as :func:`bisection_setup` returns it; to run with a looser
    bound, pass ``dataclasses.replace(fn, lip_bound=...)``.

    Args:
      fn: objective to maximise.
      eps: accuracy to certify; the run stops once a certificate reaches
        it, or at the budget, whichever comes first.
      budget: maximum number of queries.
      partition: bisection partition to search over; defaults to the
        canonical partition of the objective's domain.  Any other must
        have the same geometry (a subclass may wrap
        :meth:`~BisectionPartition.split`), or ``ValueError`` is raised.

    Returns:
      A trace whose certificates, for any truly valid bound, dominate the
      recommendation's suboptimality at every step.
    """
    return _tree_search(fn, partition, eps, budget, "cdoo")


def ncdoo_run(
    fn: TestFunction,
    budget: int,
    partition: Optional[BisectionPartition] = None,
) -> RunTrace:
    """Non-certified tree search: same expansion rule and query order as
    :func:`cdoo_run`, but no certificates and no accuracy stop; the run
    uses the whole budget."""
    return _tree_search(fn, partition, None, budget, "ncdoo")
