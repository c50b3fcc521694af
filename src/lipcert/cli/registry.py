"""Benchmark objectives with exact metadata.

Every entry's maximum, maximizer set, and Lipschitz constant are exact
dyadic values, so traces and estimates computed against them are
reproducible bitwise and gaps near the maximum are exact zeros rather
than rounding noise.  All functions scale linearly with the bound
parameter: values, exact constants, and maxima are proportional to it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core import EUCLIDEAN, SUP, Ball, Box, TestFunction

LABELS = (
    "constant-d1",
    "tent-d1",
    "halftent-d1",
    "slope-d1",
    "multibump-d1",
    "constant-d2",
    "cone-d2",
    "multibump-d2",
)


def _constant(lip: float, dim: int) -> TestFunction:
    return TestFunction(
        label=f"constant-d{dim}",
        domain=Box(np.zeros(dim), np.ones(dim)),
        norm=SUP,
        lip_bound=lip,
        evaluator=lambda x: np.zeros(len(x)),
        exact_lip=0.0,
        known_max=0.0,
        argmax_note="every point of the cube",
    )


def _tent(lip: float) -> TestFunction:
    return TestFunction(
        label="tent-d1",
        domain=Box(np.zeros(1), np.ones(1)),
        norm=SUP,
        lip_bound=lip,
        evaluator=lambda x, L=lip: -L * np.abs(x[:, 0] - 0.5),
        exact_lip=lip,
        known_max=0.0,
        argmax_note="the single point 1/2",
    )


def _halftent(lip: float) -> TestFunction:
    # Trapezoid at half the declared slope: flat top on [3/8, 5/8],
    # shoulders falling at rate lip / 2.  The headroom between the true
    # constant and the bound is what the adversarial audit exploits.
    return TestFunction(
        label="halftent-d1",
        domain=Box(np.zeros(1), np.ones(1)),
        norm=SUP,
        lip_bound=lip,
        evaluator=lambda x, L=lip: -(L / 2.0)
        * np.maximum(np.abs(x[:, 0] - 0.5) - 0.125, 0.0),
        exact_lip=lip / 2.0,
        known_max=0.0,
        argmax_note="the plateau [3/8, 5/8]",
    )


def _slope(lip: float) -> TestFunction:
    # Linear decrease at the full rate; its sandwich integral has the
    # closed form log((eps0 + eps) / eps) / lip in one dimension.
    return TestFunction(
        label="slope-d1",
        domain=Box(np.zeros(1), np.ones(1)),
        norm=SUP,
        lip_bound=lip,
        evaluator=lambda x, L=lip: -L * x[:, 0],
        exact_lip=lip,
        known_max=0.0,
        argmax_note="the left endpoint 0",
    )


def _bumps(
    centers: np.ndarray, widths: np.ndarray, heights: np.ndarray, lip: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of three plateau bumps, ``max_k lip * heights[k] - (lip /
    2) * max(dist_k - widths[k], 0)`` with ``dist_k`` the sup distance to
    ``centers[k]``.  It works on ``(3, n)`` arrays, one row per bump,
    with the constants broadcast once here; the sup distance and the
    maximum over bumps are ``np.maximum`` chains, which equal numpy's
    short-axis reductions bitwise at a fraction of their cost."""
    centers = [c[:, None] for c in centers.T]
    widths = widths[:, None]
    tops = lip * heights[:, None]
    half = lip / 2.0

    def evaluate(x: np.ndarray) -> np.ndarray:
        dist = np.abs(x[:, 0] - centers[0])
        for j in range(1, len(centers)):
            dist = np.maximum(dist, np.abs(x[:, j] - centers[j]))
        plateaus = tops - half * np.maximum(dist - widths, 0.0)
        return np.maximum(np.maximum(plateaus[0], plateaus[1]), plateaus[2])

    return evaluate


def _multibump_1d(lip: float) -> TestFunction:
    return TestFunction(
        label="multibump-d1",
        domain=Box(np.zeros(1), np.ones(1)),
        norm=SUP,
        lip_bound=lip,
        evaluator=_bumps(
            np.array([[7.0 / 64.0], [0.5], [57.0 / 64.0]]),
            np.array([1.0 / 16.0, 1.0 / 32.0, 1.0 / 32.0]),
            np.array([0.0, -1.0 / 128.0, -1.0 / 64.0]),
            lip,
        ),
        exact_lip=lip / 2.0,
        known_max=0.0,
        argmax_note="the plateau [3/64, 11/64] of the tallest bump",
    )


def _cone_2d(lip: float) -> TestFunction:
    def evaluate(x: np.ndarray) -> np.ndarray:
        squares = x * x
        return lip * np.sqrt(squares[:, 0] + squares[:, 1])

    return TestFunction(
        label="cone-d2",
        domain=Ball(np.zeros(2), 1.0, EUCLIDEAN),
        norm=EUCLIDEAN,
        lip_bound=lip,
        evaluator=evaluate,
        exact_lip=lip,
        known_max=lip,
        argmax_note="the whole boundary circle",
    )


def _multibump_2d(lip: float) -> TestFunction:
    return TestFunction(
        label="multibump-d2",
        domain=Box(np.zeros(2), np.ones(2)),
        norm=SUP,
        lip_bound=lip,
        evaluator=_bumps(
            np.array([[5.0 / 16.0, 5.0 / 16.0], [0.75, 0.25], [0.25, 0.75]]),
            np.array([3.0 / 16.0, 1.0 / 32.0, 1.0 / 32.0]),
            np.array([0.0, -1.0 / 128.0, -1.0 / 64.0]),
            lip,
        ),
        exact_lip=lip / 2.0,
        known_max=0.0,
        argmax_note="the square plateau [1/8, 1/2]^2 of the tallest bump",
    )


def registry(lip: float = 1.0) -> tuple[TestFunction, ...]:
    """All benchmark objectives at a common Lipschitz bound."""
    if not lip > 0:
        raise ValueError(f"Lipschitz bound must be positive, got {lip}")
    return (
        _constant(lip, 1),
        _tent(lip),
        _halftent(lip),
        _slope(lip),
        _multibump_1d(lip),
        _constant(lip, 2),
        _cone_2d(lip),
        _multibump_2d(lip),
    )


def get_function(label: str, lip: float = 1.0) -> TestFunction:
    """Look one benchmark up by label."""
    for fn in registry(lip):
        if fn.label == label:
            return fn
    raise ValueError(f"unknown function {label!r}; known labels: {', '.join(LABELS)}")


def default_algorithm(fn: TestFunction) -> str:
    """Certified algorithm used when none is requested: candidate-set
    sawtooth on ball domains, certified tree search elsewhere."""
    return "psgrid" if isinstance(fn.domain, Ball) else "cdoo"
