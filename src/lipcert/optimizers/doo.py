"""Optimistic tree search over a bisection partition, with and without
error certificates.

Both variants expand, at each round, the active leaf with the largest
optimistic value: observed value at the representative plus the Lipschitz
bound times the cell diameter bound.  The search yields its rounds, the
root and then the fresh children of each split, each query with a bound
on how far the recommendation can be from the maximum, and
:func:`~lipcert.core.build_trace` stops it: after the round that spends
the budget or, for the certified variant, after the round whose last
bound reaches the target accuracy.  The non-certified variant runs to
its budget and keeps no bounds.

Each leaf carries its integer cell position as a tuple of ints, so
expanding a cell costs one :meth:`BisectionPartition.split` (in Python
floats, one axis at a time), one evaluator call on the array of its
fresh representatives, whose values come back as Python floats checked
one by one (``TestFunction._values``), and one heap push per child.
The rest of a round is Python float arithmetic: the children's slack
comes from a table built one depth at a time, and the certificates
from plain compares.  Nothing is decoded from flat cell indices.

No point is queried twice.  A cell that float64 cannot split, because
some child's center would not lie strictly inside that child's bounds,
is frozen exactly like a cell at ``max_depth``: split returns None, its
optimistic value joins the certificate's envelope, and the round ends
with no split and no query.  The test is local, so a run keeps
splitting wherever float64 still resolves its cells, such as near zero.
On a box that rule is enough, as :attr:`BisectionPartition.max_depth`
proves.  On a ball, whose clamped representatives meet, the run also
keeps the value of every point it queries: a child whose point is kept
takes the stored value and goes on the heap like any other, but it is
not a query, so the trace does not record it and it spends no budget.
Both variants apply both rules, so they still share their sequence.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

import numpy as np

from ..core import RunTrace, TestFunction, build_trace
from ..core.geometry import _check_accuracy
from ..partition import BisectionPartition, bisection_setup


def _fits(partition: object, canonical: BisectionPartition) -> bool:
    """Whether ``partition`` has :func:`bisection_setup`'s geometry.

    A subclass that overrides ``_cells`` does not: that method's geometry
    is what :func:`~lipcert.partition.verify_assumptions` checks, but
    ``split`` does not read it, so the run would search other cells.
    """
    if not isinstance(partition, BisectionPartition):
        return False
    if type(partition)._cells is not BisectionPartition._cells:
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
            "to the domain when it is a ball, as bisection_setup builds it, "
            "with BisectionPartition's own _cells"
        )
    return build_trace(algorithm, fn.label, lip, eps, budget, _rounds(fn, partition, lip, budget))


def _rounds(fn: TestFunction, partition: BisectionPartition, lip: float, budget: int):
    """The search's rounds: the root, then the fresh children of each
    split, cut so that no point past the budget is evaluated."""
    diam = partition.diam_bound
    arity = partition.arity
    shrink = partition.shrink
    split = partition.split
    push, pop = heapq.heappush, heapq.heappop
    values = fn._values
    root = (0,) * partition.dim
    _, _, root_reps, _ = partition._cells(np.array([root]), 0)
    rep0 = root_reps[:1]
    v0 = values(rep0)[0]
    yield rep0, [v0], [max(0.0, lip * diam)]
    n = 1
    best_val = v0
    # On a ball, the value of every queried point by its coordinates (a
    # tuple compare reads -0.0 as 0.0); box runs key nothing.
    memo = None if partition.restrict_to is None else {tuple(rep0[0].tolist()): v0}
    # slacks[h] is the optimistic slack of a depth-(h + 1) cell, built as
    # deep as the run splits: a depth-h leaf is popped only after its
    # parent's split built slacks[h - 1].
    slacks: list[float] = []

    # Active leaves as (-optimistic, depth, index, position): ties go to
    # smaller depth, then smaller index, and (depth, index) is unique, so
    # the compare never reaches the position.  A popped leaf that cannot
    # be split, frozen by the depth cap or by float64, joins an envelope
    # of optimistic values that stays in the certificate.  While it waits
    # on the heap, every leaf popped has an optimistic value at least its
    # own, so the certificates cover its cell from the round that pushed it.
    # Values are finite, so the compares below give max's results: its
    # first argument unless a later one is strictly larger.
    leaves = [(-(v0 + lip * diam), 0, 0, root)]
    frozen_b = -math.inf
    while leaves:
        neg_b, depth, index, pos = pop(leaves)
        optimistic = -neg_b
        if (kids := split(depth, pos)) is None:
            if optimistic > frozen_b:
                frozen_b = optimistic
            continue
        codes, kid_pos, kid_reps = kids
        if not codes:
            continue
        room = budget - n
        if memo is None:
            # Only the children the budget lets the trace record are
            # evaluated.
            fresh = kid_reps if len(kid_reps) <= room else kid_reps[:room]
            kid_vals = fresh_vals = values(fresh)
        else:
            # A child whose point was queried before, by an earlier split
            # or a sibling, takes the stored value and spends no budget.
            keys = list(map(tuple, kid_reps.tolist()))
            new = [key for key in dict.fromkeys(keys) if key not in memo]
            if len(new) > room:
                # the budget runs out at this child; later ones are dropped
                del keys[keys.index(new[room]) :]
                del new[room:]
            if len(new) == len(keys):
                fresh = kid_reps[: len(new)]
            else:
                fresh = kid_reps[[keys.index(key) for key in new]]
            fresh_vals = values(fresh) if new else []
            memo.update(zip(new, fresh_vals))
            kid_vals = [memo[key] for key in keys]
        if depth == len(slacks):
            slacks.append(lip * diam * shrink ** (depth + 1))
        slack = slacks[depth]
        base = index * arity
        for code, kid, val in zip(codes, kid_pos, kid_vals):
            push(leaves, (-(val + slack), depth + 1, base + code, kid))
        if fresh_vals:
            # The popped leaf had the largest optimistic value among the
            # leaves; together with the frozen cells' envelope this
            # bounds the maximum over the domain.
            top = frozen_b if frozen_b > optimistic else optimistic
            certs = []
            for val in fresh_vals:
                if val > best_val:
                    best_val = val
                gap = top - best_val
                certs.append(gap if gap > 0.0 else 0.0)
            n += len(fresh_vals)
            yield fresh, fresh_vals, certs


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
      eps: accuracy to certify, refused before any query unless positive and
        finite; the run stops after the round whose certificate reaches it.
      budget: maximum number of queries.
      partition: bisection partition to search over; defaults to the
        canonical partition of the objective's domain.  Any other must
        have the same geometry (a subclass may wrap
        :meth:`~BisectionPartition.split`), or ``ValueError`` is raised.

    Returns:
      A trace whose certificates, for any truly valid bound, dominate the
      recommendation's suboptimality at every step.
    """
    _check_accuracy(eps)
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
