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

_FLOAT64 = np.dtype(float)


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

    Every output is checked before it is used.  The runners evaluate a
    few points per round, at most ``2**d`` children of a split, and read
    them through :meth:`_values`, which checks a list of Python floats;
    a batch passed to :meth:`__call__`, such as a grid block of the layer
    decomposition, is checked in numpy.
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
        raises, so a broken evaluation never reaches a certificate.  A
        point is checked by :meth:`_values`, the path the runners take; a
        batch, such as a block of a layer decomposition's grid, is checked
        in numpy.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(f"expected shape ({self.dim},) or (n, {self.dim}), got {x.shape}")
        if x.ndim == 1:
            return self._values(x[None])[0]
        out = np.asarray(self.evaluator(x), dtype=float)
        if out.shape == (len(x),) and np.count_nonzero(np.isfinite(out)) == len(out):
            return out
        raise ValueError(self._bad_output(x, out))

    def _values(self, points: np.ndarray) -> list[float]:
        """The values at ``points``, an ``(n, d)`` float array, as Python
        floats: how the runners evaluate their few points per round.

        A float64 array of shape ``(n,)`` is read with ``tolist`` and each
        value checked with :func:`math.isfinite`; any other output is
        first converted with ``np.asarray(out, dtype=float)``, so it reads
        the same values as :meth:`__call__` does.  An output of another
        shape, or a non-finite value, raises with :meth:`_bad_output`'s
        message.
        """
        out = self.evaluator(points)
        if type(out) is not np.ndarray or out.dtype is not _FLOAT64:
            out = np.asarray(out, dtype=float)
        if out.shape == (len(points),):
            values = out.tolist()
            if all(map(math.isfinite, values)):
                return values
        raise ValueError(self._bad_output(points, out))

    def _bad_output(self, points: np.ndarray, out: np.ndarray) -> str:
        if out.shape != (len(points),):
            return (
                f"{self.label}: evaluator returned shape {out.shape} for "
                f"{len(points)} points"
            )
        i = int(np.flatnonzero(~np.isfinite(out))[0])
        return f"{self.label}: non-finite value {out[i]} at x = {points[i].tolist()}"
