"""Optimistic tree search over a bisection partition, with and without
error certificates.

Both variants expand, at each round, the active leaf with the largest
optimistic value: observed value at the representative plus the Lipschitz
bound times the cell diameter bound.  The certified variant additionally
emits, after each query, a bound on how far the recommendation can be
from the maximum, and stops once that bound reaches the target accuracy.
The non-certified variant runs to its budget and emits no bounds.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from ..core import RunTrace, TestFunction, build_trace, check_run_args
from ..partition import ROOT, BisectionPartition, CellKey, bisection_setup


class _ActiveLeafSet:
    """Max-heap of active leaves keyed by optimistic value.

    Ties are broken toward smaller depth, then smaller index, so pop
    order is deterministic.  Each cell key may be pushed at most once.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int]] = []

    def push(self, key: CellKey, optimistic: float) -> None:
        heapq.heappush(self._heap, (-optimistic, key.depth, key.index))

    def pop(self) -> tuple[CellKey, float]:
        neg_b, depth, index = heapq.heappop(self._heap)
        return CellKey(depth, index), -neg_b

    def __len__(self) -> int:
        return len(self._heap)


def _tree_search(
    fn: TestFunction,
    partition: Optional[BisectionPartition],
    lip: Optional[float],
    eps: Optional[float],
    budget: int,
    algorithm: str,
) -> RunTrace:
    default_partition, required = bisection_setup(fn)
    if partition is None:
        partition = default_partition
    if partition.dim != fn.dim:
        raise ValueError("partition dimension does not match the objective")
    lip = check_run_args(eps, budget, lip, required)
    certified = eps is not None

    rep0 = partition.representative(ROOT)
    v0 = float(fn(rep0))
    queries = [rep0]
    values = [v0]
    certs = [max(0.0, lip * partition.diam_bound)]
    best_val = v0

    leaves = _ActiveLeafSet()
    leaves.push(ROOT, v0 + lip * partition.diam_bound)
    depth_limit = getattr(partition, "max_depth", None)
    frozen_b = -np.inf
    done = certified and certs[0] <= eps
    while len(leaves) and len(values) < budget and not done:
        key, optimistic = leaves.pop()
        if depth_limit is not None and key.depth >= depth_limit:
            # Cell indices (and dyadic geometry) cannot resolve another
            # split.  The cell stays in the certificate envelope but is
            # never refined; the run ends early if only such cells remain.
            frozen_b = max(frozen_b, optimistic)
            continue
        kids = [k for k in partition.children(key) if partition.feasible(k)]
        if not kids:
            continue
        kid_reps = np.stack([partition.representative(k) for k in kids])
        kid_vals = fn(kid_reps)
        slack = lip * partition.diam_bound * partition.shrink ** (key.depth + 1)
        for kid, rep, val in zip(kids, kid_reps, kid_vals):
            val = float(val)
            queries.append(rep)
            values.append(val)
            best_val = max(best_val, val)
            # The popped leaf had the largest optimistic value among the
            # still-splittable cells; together with the frozen cells'
            # envelope this bounds the maximum over the domain.
            certs.append(max(0.0, max(optimistic, frozen_b) - best_val))
            leaves.push(kid, val + slack)
            if len(values) == budget:
                done = True
                break
        # The accuracy check sits at round granularity: a round whose
        # certificate passes the target is still recorded in full.
        if certified and not done and certs[-1] <= eps:
            done = True

    return build_trace(
        algorithm, fn.label, lip, eps, budget, np.asarray(queries), values,
        certs if certified else None,
    )


def cdoo_run(
    fn: TestFunction,
    eps: float,
    budget: int,
    partition: Optional[BisectionPartition] = None,
    lip: Optional[float] = None,
) -> RunTrace:
    """Certified tree search.

    Args:
      fn: objective to maximise.
      eps: accuracy to certify; the run stops once a certificate reaches
        it, or at the budget, whichever comes first.
      budget: maximum number of queries.
      partition: bisection partition to search over; defaults to the
        canonical partition of the objective's domain.
      lip: sup-norm Lipschitz bound; defaults to the objective's declared
        bound converted to the sup norm.  Passing a smaller value than
        the conversion implies is rejected.

    Returns:
      A trace whose certificates, for any truly valid bound, dominate the
      recommendation's suboptimality at every step.
    """
    return _tree_search(fn, partition, lip, eps, budget, "cdoo")


def ncdoo_run(
    fn: TestFunction,
    budget: int,
    partition: Optional[BisectionPartition] = None,
    lip: Optional[float] = None,
) -> RunTrace:
    """Non-certified tree search: same expansion rule and query order as
    :func:`cdoo_run`, but no certificates and no accuracy stop; the run
    uses the whole budget."""
    return _tree_search(fn, partition, lip, None, budget, "ncdoo")
