"""Geometric accuracy schedules and suboptimality-layer classification.

A schedule starts at the coarsest meaningful accuracy (Lipschitz bound
times domain diameter), halves until it would pass the target, and ends
exactly at the target.  Points of the domain are classified by how their
suboptimality gap compares to the schedule entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Gaps classified at a time, bounding the integer temporaries.
_CLASSIFY_BLOCK = 1 << 16


@dataclass(frozen=True)
class ComplexityScale:
    """Halving schedule from a coarsest accuracy down to a target.

    Attributes:
      eps0: coarsest accuracy, normally the Lipschitz bound times the
        domain diameter.
      eps: target accuracy, in ``(0, eps0]``.
      m_eps: number of halvings; the schedule has ``m_eps + 1`` entries.
      schedule: strictly decreasing accuracies ``(a_0, a_1, ..., a_m)``
        with ``a_0 = eps0``, ``a_k = eps0 / 2**k`` for ``k < m_eps``, and
        ``a_m = eps``.
    """

    eps0: float
    eps: float
    m_eps: int
    schedule: tuple[float, ...]

    @classmethod
    def from_accuracy(cls, eps0: float, eps: float) -> "ComplexityScale":
        if not eps0 > 0:
            raise ValueError(f"coarsest accuracy must be positive, got {eps0}")
        if not 0 < eps <= eps0 * (1 + 1e-12):
            raise ValueError(
                f"target accuracy must lie in (0, {eps0}], got {eps}"
            )
        eps = min(eps, eps0)
        m = max(0, math.ceil(math.log2(eps0 / eps) - 1e-9))
        schedule = tuple(eps0 * 0.5**k for k in range(m)) + (eps,)
        return cls(eps0=eps0, eps=eps, m_eps=m, schedule=schedule)

    def classify(self, gaps: np.ndarray) -> np.ndarray:
        """Assign each suboptimality gap to a schedule class.

        Class 0 collects gaps at most the target accuracy.  Class k for
        ``k in 1..m_eps`` collects gaps in ``(a_k, a_{k-1}]``, so class 1
        is the coarsest band and class ``m_eps`` sits just above the
        target.  Gaps exceeding ``eps0`` beyond float tolerance mean the
        claimed maximum or Lipschitz bound is wrong and raise.

        The labels come in the smallest unsigned integer type that holds
        ``m_eps``, one byte for any schedule of up to 255 halvings, and
        are computed ``_CLASSIFY_BLOCK`` gaps at a time.
        """
        gaps = np.asarray(gaps, dtype=float)
        worst = float(gaps.max(initial=0.0))
        if worst > self.eps0 * (1 + 1e-9):
            raise ValueError(
                f"gap {worst} exceeds the coarsest accuracy {self.eps0}; "
                "the claimed maximum or the Lipschitz bound is inconsistent"
            )
        labels = np.empty(gaps.shape, dtype=np.min_scalar_type(self.m_eps))
        flat_gaps, flat = gaps.reshape(-1), labels.reshape(-1)
        for start in range(0, flat.size, _CLASSIFY_BLOCK):
            stop = start + _CLASSIFY_BLOCK
            flat[start:stop] = self._classes(flat_gaps[start:stop])
        return labels

    def _classes(self, gaps: np.ndarray) -> np.ndarray:
        """Classes of gaps already checked against ``eps0``, as intp."""
        # Position p among the ascending thresholds, capped at m_eps, is
        # class m_eps + 1 - p, except that p = 0 is class 0; the classes
        # are computed in the buffer searchsorted returns.
        thresholds = np.asarray(self.schedule[::-1])
        classes = np.searchsorted(thresholds, gaps, side="left")
        np.minimum(classes, self.m_eps, out=classes)
        np.subtract(self.m_eps + 1, classes, out=classes)
        classes[classes > self.m_eps] = 0
        return classes

    def accuracy_for_class(self, label: int) -> float:
        """Accuracy at which a class is packed: the target for class 0,
        schedule entry k for class k."""
        if not 0 <= label <= self.m_eps:
            raise ValueError(f"class label must lie in [0, {self.m_eps}], got {label}")
        return self.schedule[self.m_eps] if label == 0 else self.schedule[label]
