"""Objective wrapper pairing an evaluator with its certification metadata.

A test function carries the domain, the norm its regularity is stated in,
a Lipschitz bound the certification machinery may rely on, and optional
ground truth (exact Lipschitz constant, exact maximum) used by audits and
validity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .geometry import Ball, Box, Domain, Norm, _check_lip_bound


@dataclass(frozen=True)
class TestFunction:
    """Deterministic objective with Lipschitz metadata.

    Attributes:
      label: short identifier used in traces, reports, and CSV rows.
      domain: box or ball the function is defined on.
      norm: norm in which the Lipschitz bounds are stated.
      lip_bound: bound the algorithms are allowed to use; must dominate
        the true constant for certificates to be meaningful.
      evaluator: vectorized callable mapping ``(n, d)`` to ``(n,)``.
        Evaluations must be deterministic, side-effect free and
        pointwise: each row's value depends only on that row, not on
        the other rows of the batch.  The layer decomposition evaluates
        its grid block by block, and the tree search reuses a point's
        value from an earlier batch.
      exact_lip: true Lipschitz constant when known, else None.  Audits
        require it to sit strictly below ``lip_bound``.
      known_max: exact maximum value when known, else None.

    Runs and estimates read ``lip_bound`` and take no bound of their own;
    for a looser one, pass ``dataclasses.replace(fn, lip_bound=...)``.
    """

    label: str
    domain: Domain
    norm: Norm
    lip_bound: float
    evaluator: Callable[[np.ndarray], np.ndarray]
    exact_lip: Optional[float] = None
    known_max: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.domain, (Box, Ball)):
            raise TypeError(f"unsupported domain type {type(self.domain).__name__}")
        _check_lip_bound(self.lip_bound)
        if self.exact_lip is not None:
            if not 0 <= self.exact_lip < math.inf:
                raise ValueError(
                    "exact Lipschitz constant must be nonnegative and finite, "
                    f"got {self.exact_lip}"
                )
            if self.exact_lip > self.lip_bound * (1 + 1e-12):
                raise ValueError(
                    f"exact Lipschitz constant {self.exact_lip} exceeds the "
                    f"declared bound {self.lip_bound}"
                )
        if self.known_max is not None and not math.isfinite(self.known_max):
            raise ValueError(f"known maximum must be finite, got {self.known_max}")

    @cached_property
    def dim(self) -> int:
        return self.domain.dim

    def __call__(self, x: np.ndarray) -> Union[float, np.ndarray]:
        """Evaluate at a point ``(d,)``, giving a float, or a batch
        ``(n, d)``, giving ``(n,)`` values; any other shape raises.

        The evaluator must return ``n`` finite values; anything else
        raises, so a broken evaluation never reaches a certificate.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(f"expected shape ({self.dim},) or (n, {self.dim}), got {x.shape}")
        points = x.reshape(-1, self.dim)
        out = np.asarray(self.evaluator(points), dtype=float)
        if out.shape == (len(points),):
            if x.ndim == 1:
                value = float(out[0])
                if math.isfinite(value):
                    return value
            elif np.count_nonzero(np.isfinite(out)) == len(out):
                return out
        raise ValueError(self._bad_output(points, out))

    def _bad_output(self, points: np.ndarray, out: np.ndarray) -> str:
        if out.shape != (len(points),):
            return (
                f"{self.label}: evaluator returned shape {out.shape} for "
                f"{len(points)} points"
            )
        i = int(np.flatnonzero(~np.isfinite(out))[0])
        return f"{self.label}: non-finite value {out[i]} at x = {points[i].tolist()}"
