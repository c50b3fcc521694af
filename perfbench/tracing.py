"""Spans recorded from outside the package.

The benchmark never edits ``lipcert``.  It observes each module at the
boundary it already exposes: the calls the benchmark itself makes into
public functions, the evaluator of a test function (swapped with
``dataclasses.replace``), and the three cell methods of a bisection
partition (a subclass passed as ``partition=`` to the tree search).

Every span has a name, start, end, parent and op id.  Spans around the
benchmark's own calls are kept whole; spans at the evaluator and
partition boundaries fire hundreds of thousands of times per pass, so
each is folded into running totals and into its parent's child time as
it closes.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from collections import defaultdict
from time import perf_counter

import lipcert as lc


class Tracer:
    """Span stack with per-name totals; kept in memory until written."""

    def __init__(self) -> None:
        self.op_id = -1
        self.spans: list[tuple[str, float, float, str, int]] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # Totals of spans nested in an op span, without the probes.
        self.in_ops: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self, keep: bool = False) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack and self._stack[0][0] == "op":
            self.in_ops[name] += duration
        if keep:
            self.spans.append(
                (name, start, end, parent[0] if parent else "", self.op_id)
            )

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit(keep=True)

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def traced_function(fn: lc.TestFunction, tracer: Tracer) -> lc.TestFunction:
    """The same objective with a span around every evaluator call."""
    inner = fn.evaluator

    def evaluate(x):
        tracer.enter("functions.evaluate")
        try:
            return inner(x)
        finally:
            tracer.exit()
            tracer.counts["functions.points"] += len(x)
            if len(x) > 2**fn.dim:
                tracer.counts["functions.batch_points"] += len(x)

    return dataclasses.replace(fn, evaluator=evaluate)


class TracedPartition(lc.BisectionPartition):
    """Bisection partition with spans around the cell methods the tree
    search calls.  Geometry is inherited unchanged, so query sequences
    match the plain partition bitwise."""

    @classmethod
    def wrap(cls, plain: lc.BisectionPartition, tracer: Tracer) -> "TracedPartition":
        part = cls(box=plain.box, restrict_to=plain.restrict_to)
        object.__setattr__(part, "_tracer", tracer)
        return part

    def representative(self, key):
        self._tracer.enter("partition.representative")
        try:
            return super().representative(key)
        finally:
            self._tracer.exit()

    def children(self, key):
        self._tracer.enter("partition.children")
        try:
            return super().children(key)
        finally:
            self._tracer.exit()

    def feasible(self, key):
        self._tracer.enter("partition.feasible")
        try:
            return super().feasible(key)
        finally:
            self._tracer.exit()
