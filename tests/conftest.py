"""Shared fixtures and the acceptance-summary reporter.

The ``acceptance`` fixture lets tests in test_acceptance.py register one
verdict per numbered criterion; the terminal summary then prints a
single pass/fail line for each, so the gate status is readable without
scrolling through the full pytest output.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import lipcert


_RESULTS: dict[int, tuple[str, bool, str]] = {}

_CRITERIA = {
    1: "certificate soundness across algorithms and scales",
    2: "hand-traced certified tree-search instance",
    3: "query count within the packing-based bound",
    4: "complexity sandwiched by the gap integral",
    5: "two-query certification on the exact-cover cone",
    6: "certified vs non-certified cost separation",
    7: "packing/covering lemma trials vs exact oracles",
    8: "adversarial audit fires below sigma and not at sigma",
    9: "byte-identical sweeps under a fixed seed",
}


class AcceptanceRecorder:
    def record(self, criterion: int, ok: bool, detail: str = "") -> None:
        if criterion not in _CRITERIA:
            raise ValueError(f"unknown criterion number {criterion}")
        name = _CRITERIA[criterion]
        _RESULTS[criterion] = (name, bool(ok), detail)


@pytest.fixture(scope="session")
def acceptance() -> AcceptanceRecorder:
    return AcceptanceRecorder()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tr = terminalreporter
    tr.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        name = _CRITERIA[number]
        if number in _RESULTS:
            _, ok, detail = _RESULTS[number]
            status = "PASS" if ok else "FAIL"
            line = f"{status} criterion {number}: {name}"
            if detail:
                line += f" ({detail})"
        else:
            line = f"---- criterion {number}: {name} (no result recorded)"
        tr.write_line(line)


@pytest.fixture(scope="session")
def all_functions() -> tuple[lipcert.TestFunction, ...]:
    return lipcert.registry()


@pytest.fixture
def poison():
    """Builder of an objective that evaluates to ``bad`` at the given
    points and like the original everywhere else."""

    def make(fn: lipcert.TestFunction, points, bad: float) -> lipcert.TestFunction:
        inner = fn.evaluator
        points = np.asarray(points, dtype=float).reshape(-1, fn.dim)

        def evaluate(x: np.ndarray) -> np.ndarray:
            out = np.array(inner(x), dtype=float)
            for p in points:
                out[np.all(x == p, axis=1)] = bad
            return out

        return replace(fn, evaluator=evaluate)

    return make
