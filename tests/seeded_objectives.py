"""Seeded Lipschitz objectives with an exact maximum, on moved and scaled
domains, for the soundness suites of the tree search and the sawtooth
runners."""

from __future__ import annotations

import math

import numpy as np

import lipcert as lc
from lipcert import EUCLIDEAN, Ball, Box, Norm

NORMS = {"sup": lc.SUP, "euclidean": EUCLIDEAN, "l1": Norm("l1")}


def peaks(seed, kind, d, norm=None):
    """``(fn, L * diam)`` for ``f(x) = max_i (a_i - L_i ||x - c_i||)`` with
    every ``c_i`` in the domain and ``L_i <= L``, so the maximum is exactly
    ``max_i a_i``: a box (``kind="box"``) or a ball of norm ``kind``,
    moved by up to 1e6 and scaled by 1e-3 to 7.5, with L from 1e-4 to
    3.7.  ``norm`` names the objective's norm, drawn when None; the draw
    is made either way, so the other draws do not depend on it."""
    rng = np.random.default_rng(seed)
    offset = rng.uniform(-1e6, 1e6, d) * rng.choice([0.0, 1e-6, 1e-3, 1.0])
    scale = float(np.exp(rng.uniform(math.log(1e-3), math.log(7.5))))
    if kind == "box":
        domain = Box(offset, offset + scale * rng.uniform(0.3, 1.0, d))
    else:
        domain = Ball(offset, scale, NORMS[kind])
    drawn = NORMS[rng.choice(sorted(NORMS))]
    norm = drawn if norm is None else NORMS[norm]
    lip = float(np.exp(rng.uniform(math.log(1e-4), math.log(3.7))))
    sites = domain.uniform_sample(rng, 6)
    sites = sites[domain.contains(sites)]
    heights = rng.uniform(-1.0, 1.0, len(sites)) * lip * scale
    slopes = lip * rng.uniform(0.2, 1.0, len(sites))
    fn = lc.TestFunction(
        label=f"peaks-{kind}-d{d}",
        domain=domain,
        norm=norm,
        lip_bound=lip,
        evaluator=lambda x: np.max(
            [h - s * norm.length(x - c) for h, s, c in zip(heights, slopes, sites)], axis=0
        ),
        known_max=float(heights.max()),
    )
    return fn, lip * lc.diameter(domain, norm)
