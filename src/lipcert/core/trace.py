"""Run traces for query-by-query optimization with error certificates.

A trace records, for each query index n starting at 1: the query point,
its value, the recommendation after n queries, and (for certified
algorithms) a certificate bounding the recommendation's suboptimality.
Traces serialize to a stable JSON layout and support the two stopping
statistics: certified time (first certificate at or below a target) and
plain hitting time (first recommendation within the target of the true
maximum).
"""

from __future__ import annotations

import json
import os
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

from .geometry import _check_accuracy, _check_lip_bound

NOT_REACHED = math.inf
# Float slack a true gap may exceed its certificate by and still pass.
_VALIDITY_TOL = 1e-9


@dataclass(frozen=True)
class RunTrace:
    """Immutable record of one optimization run.

    Attributes:
      algorithm: label of the algorithm that produced the run.
      function: label of the objective.
      lip_bound: Lipschitz bound the run was given.
      eps: accuracy target the run was asked to certify, or None for
        algorithms that do not certify.
      budget: query budget the run was given.
      queries: query points, shape ``(n, d)``.
      values: observed values, shape ``(n,)``.
      rec_points: recommendation after each query, shape ``(n, d)``.
      rec_values: value of each recommendation, shape ``(n,)``.
      certificates: claimed suboptimality bounds, shape ``(n,)``, or None
        for non-certified runs.  Certificates are nonnegative and not
        NaN; ``+inf`` is a vacuous bound.
      warnings: free-form diagnostics attached by the producer.  Not
        serialized; the JSON layout carries only the fields above.
    """

    algorithm: str
    function: str
    lip_bound: float
    eps: Optional[float]
    budget: int
    queries: np.ndarray
    values: np.ndarray
    rec_points: np.ndarray
    rec_values: np.ndarray
    certificates: Optional[np.ndarray]
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        queries = np.asarray(self.queries, dtype=float)
        values = np.asarray(self.values, dtype=float).reshape(-1)
        recs = np.asarray(self.rec_points, dtype=float)
        for name, column in (("queries", queries), ("rec_points", recs)):
            if column.ndim != 2:
                raise ValueError(f"trace {name} must have shape (n, d), got shape {column.shape}")
        rec_values = np.asarray(self.rec_values, dtype=float).reshape(-1)
        n = len(values)
        if n == 0:
            raise ValueError("a trace must contain at least one query")
        if queries.shape != recs.shape or queries.shape[0] != n or rec_values.shape[0] != n:
            raise ValueError("trace arrays must agree on the number of records")
        certificates = self.certificates
        if certificates is not None:
            certificates = np.asarray(certificates, dtype=float).reshape(-1)
            if certificates.shape[0] != n:
                raise ValueError("certificate array must have one entry per record")
            # NaN compares false against every bound, so it would pass
            # certificate_validity; +inf is allowed as a vacuous bound
            if not (certificates >= 0).all():
                raise ValueError("certificates must be nonnegative and not NaN")
            certificates.flags.writeable = False
        for arr in (queries, values, recs, rec_values):
            arr.flags.writeable = False
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rec_points", recs)
        object.__setattr__(self, "rec_values", rec_values)
        object.__setattr__(self, "certificates", certificates)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def dim(self) -> int:
        return self.queries.shape[1]


def check_run_args(eps: Optional[float], budget: int) -> None:
    """Argument checks of every run, made by :func:`build_trace` before
    its first round: a positive integer budget, not a ``bool``, and,
    unless ``eps`` is None for a run that certifies nothing, a positive
    finite accuracy target.  The Lipschitz bound is not an argument;
    every run uses the objective's own ``lip_bound``."""
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    if eps is not None:
        _check_accuracy(eps)


def _best_so_far(values: np.ndarray, running: np.ndarray) -> np.ndarray:
    """Index of the best of the first n values for every n, ties going to
    the earliest; ``running`` is ``np.maximum.accumulate(values)``."""
    improved = np.ones(len(values), dtype=bool)
    improved[1:] = values[1:] > running[:-1]
    return np.maximum.accumulate(np.where(improved, np.arange(len(values)), 0))


def build_trace(
    algorithm: str,
    function: str,
    lip_bound: float,
    eps: Optional[float],
    budget: int,
    rounds: Iterable[tuple[np.ndarray, list[float], list[float]]],
    warnings: tuple[str, ...] = (),
) -> RunTrace:
    """Run a search to its stop and trace what it queried, observed and
    certified.

    ``rounds`` yields, for each round of the search, its queries as a
    ``(k, d)`` array, their values, and the certificate after each.  The
    run stops after the round that spends the budget (records past it
    are dropped) or whose last certificate is at or below ``eps``, or
    when the rounds end; it is never resumed.  The accuracy check sits
    at round granularity: a round whose certificate passes the target is
    still recorded in full.  With ``eps`` None the trace keeps no
    certificates and the run has no accuracy stop.

    The recommendation after n queries is the best of the first n, ties
    going to the earliest index: the rule
    :func:`recommendations_consistent` checks.
    """
    check_run_args(eps, budget)
    blocks, values, certificates = [], [], []
    for points, vals, certs in rounds:
        blocks.append(points)
        values.extend(vals)
        certificates.extend(certs)
        if len(values) >= budget or eps is not None and certs[-1] <= eps:
            break
    queries = np.asarray(np.concatenate(blocks)[:budget], dtype=float)
    values = np.asarray(values[:budget], dtype=float)
    best = _best_so_far(values, np.maximum.accumulate(values))
    return RunTrace(
        algorithm=algorithm,
        function=function,
        lip_bound=lip_bound,
        eps=eps,
        budget=budget,
        queries=queries,
        values=values,
        rec_points=queries[best],
        rec_values=values[best],
        certificates=None if eps is None else certificates[:budget],
        warnings=warnings,
    )


def recommendations_consistent(trace: RunTrace) -> bool:
    """Check the recommendation bookkeeping bitwise.

    The recommendation after n queries must be the best query so far with
    ties resolved toward the earliest index, and its stored value must
    equal the observed value exactly (no smoothing or recomputation).
    """
    running = np.maximum.accumulate(trace.values)
    if not np.array_equal(running, trace.rec_values):
        return False
    # A NaN value would have failed the check above, so ">" orders them all.
    best = _best_so_far(trace.values, running)
    return np.array_equal(trace.rec_points, trace.queries[best])


def sigma_from_trace(trace: RunTrace, eps: Optional[float] = None) -> Union[int, float]:
    """First query count whose certificate is at or below ``eps``.

    Args:
      trace: a certified run.
      eps: accuracy target; defaults to the target stored in the trace.

    Returns:
      The 1-based count, or ``NOT_REACHED`` if no certificate qualifies.
    """
    if trace.certificates is None:
        raise ValueError("trace carries no certificates")
    eps = trace.eps if eps is None else eps
    _check_accuracy(eps)
    hits = np.flatnonzero(trace.certificates <= eps)
    return int(hits[0]) + 1 if len(hits) else NOT_REACHED


def zeta_from_trace(
    trace: RunTrace, known_max: float, eps: Optional[float] = None
) -> Union[int, float]:
    """First query count whose recommendation is within ``eps`` of the max.

    Unlike the certified time this uses ground truth, so it is available
    for non-certified runs and is never larger than the certified time on
    a valid certified run.
    """
    eps = trace.eps if eps is None else eps
    _check_accuracy(eps)
    if known_max is None or not math.isfinite(known_max):
        raise ValueError("a finite known maximum is required")
    hits = np.flatnonzero(known_max - trace.rec_values <= eps)
    return int(hits[0]) + 1 if len(hits) else NOT_REACHED


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of validating every certificate in a trace against ground
    truth.  ``max_excess`` is the largest amount by which a true gap
    exceeded its certificate; validity means it is within tolerance."""

    ok: bool
    first_violation: Optional[int]
    max_excess: float


def certificate_validity(trace: RunTrace, known_max: float) -> CertificateCheck:
    """Check that every certificate really bounds the recommendation gap.

    A certificate at index n is valid when
    ``known_max - rec_value_n <= certificate_n + _VALIDITY_TOL``.
    """
    if trace.certificates is None:
        raise ValueError("trace carries no certificates")
    if known_max is None or not math.isfinite(known_max):
        raise ValueError("a finite known maximum is required")
    excess = (known_max - trace.rec_values) - trace.certificates
    worst = float(excess.max())
    bad = np.flatnonzero(excess > _VALIDITY_TOL)
    return CertificateCheck(
        ok=len(bad) == 0,
        first_violation=int(bad[0]) + 1 if len(bad) else None,
        max_excess=worst,
    )


def _float_or_none(x: Optional[float]) -> Optional[float]:
    return None if x is None else float(x)


def _json_floats(column: np.ndarray) -> list[str]:
    """JSON text of each entry of a float column, as ``json`` writes it:
    the shortest repr for finite values and ``Infinity``, ``-Infinity``
    or ``NaN`` otherwise."""
    if np.isfinite(column).all():
        return list(map(float.__repr__, column.tolist()))
    return list(map(json.dumps, column.tolist()))


def trace_to_json(trace: RunTrace) -> str:
    """Serialize a trace to the stable JSON layout.

    The layout is a header with the run parameters followed by one record
    per query: index ``n``, query point ``x``, value ``fx``,
    recommendation ``xstar``, its value ``fxstar`` and, for certified
    runs only, the certificate ``xi``.  The text is exactly what
    ``json.dumps(doc, indent=2)`` gives for that document: two-space
    indentation with one list entry per line, keys in the order above,
    floats in their shortest round-trip repr, ``Infinity`` for a ``+inf``
    certificate, and non-ASCII label characters escaped.  Output bytes
    depend only on the trace contents.
    """
    header = {
        "algorithm": trace.algorithm,
        "function": trace.function,
        "L": float(trace.lip_bound),
        "eps": _float_or_none(trace.eps),
        "budget": int(trace.budget),
        # no algorithm draws random numbers, so no run has a seed
        "seed": None,
    }
    # One %-template per record, filled from columns turned into text once.
    n, dim = len(trace), trace.dim
    point = "[\n" + ",\n".join(["        %s"] * dim) + "\n      ]" if dim else "[]"
    fields = ['"n": %d', f'"x": {point}', '"fx": %s', f'"xstar": {point}', '"fxstar": %s']
    columns = [*trace.queries.T, trace.values, *trace.rec_points.T, trace.rec_values]
    if trace.certificates is not None:
        fields.append('"xi": %s')
        columns.append(trace.certificates)
    record = "    {\n" + ",\n".join("      " + f for f in fields) + "\n    }"
    width = len(columns) + 1
    cells: list = [None] * (n * width)
    cells[0::width] = range(1, n + 1)
    for j, column in enumerate(columns, start=1):
        cells[j::width] = _json_floats(column)
    records = ",\n".join([record] * n) % tuple(cells)
    head = json.dumps(header, indent=2).replace("\n", "\n  ")
    return '{\n  "header": ' + head + ',\n  "records": [\n' + records + "\n  ]\n}"


def trace_from_json(text: str) -> RunTrace:
    """Inverse of :func:`trace_to_json`; round-trips bitwise.

    Raises ValueError for what no run can have produced: a header whose
    ``eps`` and ``budget`` fail :func:`check_run_args`, whose ``L`` is
    not positive and finite, or whose budget is smaller than the number
    of records; a record whose ``n`` is not its 1-based position; and a
    query, value or recommendation that is not finite.  A ``+inf`` certificate is
    valid.
    """
    doc = json.loads(text)
    header = doc["header"]
    records = doc["records"]
    if not records:
        raise ValueError("trace document contains no records")
    lip, eps, budget = float(header["L"]), _float_or_none(header["eps"]), header["budget"]
    check_run_args(eps, budget)
    _check_lip_bound(lip)
    if len(records) > budget:
        raise ValueError(f"{len(records)} records exceed the budget of {budget}")
    for i, record in enumerate(records, start=1):
        if record.get("n") != i:
            raise ValueError(f"record {i} has n = {record.get('n')!r}, not its position {i}")
    queries = np.array([r["x"] for r in records], dtype=float)
    values = np.array([r["fx"] for r in records], dtype=float)
    recs = np.array([r["xstar"] for r in records], dtype=float)
    rec_values = np.array([r["fxstar"] for r in records], dtype=float)
    for name, column in (("x", queries), ("fx", values), ("xstar", recs), ("fxstar", rec_values)):
        finite = np.isfinite(column.reshape(len(records), -1)).all(axis=1)
        if not finite.all():
            raise ValueError(f"record {np.argmin(finite) + 1} has a non-finite {name}")
    has_xi = [r.get("xi") is not None for r in records]
    if not any(has_xi):
        certificates = None
    elif all(has_xi):
        certificates = np.array([r["xi"] for r in records], dtype=float)
    else:
        raise ValueError("either every record or none must carry a certificate")
    return RunTrace(
        algorithm=header["algorithm"],
        function=header["function"],
        lip_bound=lip,
        eps=eps,
        budget=budget,
        queries=queries,
        values=values,
        rec_points=recs,
        rec_values=rec_values,
        certificates=certificates,
    )


def write_json(text: str, path: Union[str, os.PathLike]) -> None:
    """Write a JSON document and a final newline to a path."""
    with open(path, "w") as handle:
        handle.write(text)
        handle.write("\n")


def write_trace(trace: RunTrace, path: Union[str, os.PathLike]) -> None:
    write_json(trace_to_json(trace), path)


def read_trace(path: Union[str, os.PathLike]) -> RunTrace:
    with open(path) as handle:
        return trace_from_json(handle.read())
