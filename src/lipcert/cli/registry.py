"""Benchmark objectives with exact metadata.

Every entry's maximum, maximizer set, and Lipschitz constant are exact
dyadic values, so traces and estimates computed against them are
reproducible bitwise and gaps near the maximum are exact zeros rather
than rounding noise.  All functions scale linearly with the bound
parameter: values, exact constants, and maxima are proportional to it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from ..core import EUCLIDEAN, SUP, Ball, Box, TestFunction


def _constant(label: str, lip: float, dim: int) -> TestFunction:
    # Every point of the cube is a maximizer.
    return TestFunction(
        label=label,
        domain=Box(np.zeros(dim), np.ones(dim)),
        norm=SUP,
        lip_bound=lip,
        evaluator=lambda x: np.zeros(len(x)),
        exact_lip=0.0,
        known_max=0.0,
    )


def _tent(label: str, lip: float) -> TestFunction:
    # The single maximizer is 1/2.
    return TestFunction(
        label=label,
        domain=Box(np.zeros(1), np.ones(1)),
        norm=SUP,
        lip_bound=lip,
        evaluator=lambda x, L=lip: -L * np.abs(x[:, 0] - 0.5),
        exact_lip=lip,
        known_max=0.0,
    )


def _halftent(label: str, lip: float) -> TestFunction:
    # Trapezoid at half the declared slope: flat top (the maximizers) on
    # [3/8, 5/8], shoulders falling at rate lip / 2.  The headroom between
    # the true constant and the bound is what the adversarial audit exploits.
    return TestFunction(
        label=label,
        domain=Box(np.zeros(1), np.ones(1)),
        norm=SUP,
        lip_bound=lip,
        evaluator=lambda x, L=lip: -(L / 2.0)
        * np.maximum(np.abs(x[:, 0] - 0.5) - 0.125, 0.0),
        exact_lip=lip / 2.0,
        known_max=0.0,
    )


def _slope(label: str, lip: float) -> TestFunction:
    # Linear decrease at the full rate from the maximizer 0; its sandwich
    # integral has the closed form log((eps0 + eps) / eps) / lip in one
    # dimension.
    return TestFunction(
        label=label,
        domain=Box(np.zeros(1), np.ones(1)),
        norm=SUP,
        lip_bound=lip,
        evaluator=lambda x, L=lip: -L * x[:, 0],
        exact_lip=lip,
        known_max=0.0,
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


def _multibump_1d(label: str, lip: float) -> TestFunction:
    # The maximizers are the plateau [3/64, 11/64] of the tallest bump.
    return TestFunction(
        label=label,
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
    )


def _cone_2d(label: str, lip: float) -> TestFunction:
    def evaluate(x: np.ndarray) -> np.ndarray:
        squares = x * x
        return lip * np.sqrt(squares[:, 0] + squares[:, 1])

    # The maximizers are the whole boundary circle.
    return TestFunction(
        label=label,
        domain=Ball(np.zeros(2), 1.0, EUCLIDEAN),
        norm=EUCLIDEAN,
        lip_bound=lip,
        evaluator=evaluate,
        exact_lip=lip,
        known_max=lip,
    )


def _multibump_2d(label: str, lip: float) -> TestFunction:
    # The maximizers are the square plateau [1/8, 1/2]^2 of the tallest
    # bump.
    return TestFunction(
        label=label,
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
    )


# Every benchmark by label, in registry order; a builder takes the label
# and the bound.
_BUILDERS: dict[str, Callable[[str, float], TestFunction]] = {
    "constant-d1": partial(_constant, dim=1),
    "tent-d1": _tent,
    "halftent-d1": _halftent,
    "slope-d1": _slope,
    "multibump-d1": _multibump_1d,
    "constant-d2": partial(_constant, dim=2),
    "cone-d2": _cone_2d,
    "multibump-d2": _multibump_2d,
}
LABELS = tuple(_BUILDERS)


def registry(lip: float = 1.0) -> tuple[TestFunction, ...]:
    """All benchmark objectives at a common Lipschitz bound."""
    return tuple(build(label, lip) for label, build in _BUILDERS.items())


def get_function(label: str, lip: float = 1.0) -> TestFunction:
    """Look one benchmark up by label."""
    if label not in _BUILDERS:
        raise ValueError(f"unknown function {label!r}; known labels: {', '.join(LABELS)}")
    return _BUILDERS[label](label, lip)


def default_algorithm(fn: TestFunction) -> str:
    """Certified algorithm used when none is requested: candidate-set
    sawtooth on planar euclidean balls, the one ball shape
    :func:`~lipcert.candidates_for` builds a set for, and certified tree
    search elsewhere."""
    domain = fn.domain
    planar_disc = isinstance(domain, Ball) and domain.dim == 2 and domain.norm.kind == "euclidean"
    return "psgrid" if planar_disc else "cdoo"
