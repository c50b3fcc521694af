"""Norms, box and ball domains, and exact geometric quantities.

Everything here is closed-form and deterministic: distances, diameters,
ball volumes, Lipschitz-bound conversions between norms, and the midpoint
grids used by the grid-based estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

NORM_KINDS = ("sup", "euclidean", "l1")

# Tight equivalence factors max{|v|_a : |v|_b = 1} in dimension d, as a
# function of d, keyed by (a, b).  A Lipschitz bound taken with respect to
# norm a times the (a, b) factor is a valid bound with respect to norm b.
_EQUIVALENCE = {
    ("sup", "sup"): lambda d: 1.0,
    ("sup", "euclidean"): lambda d: 1.0,
    ("sup", "l1"): lambda d: 1.0,
    ("euclidean", "sup"): lambda d: math.sqrt(d),
    ("euclidean", "euclidean"): lambda d: 1.0,
    ("euclidean", "l1"): lambda d: 1.0,
    ("l1", "sup"): lambda d: float(d),
    ("l1", "euclidean"): lambda d: math.sqrt(d),
    ("l1", "l1"): lambda d: 1.0,
}


def norm_ratio(from_kind: str, to_kind: str, dim: int) -> float:
    """Return max{|v|_from / |v|_to} over nonzero v in dimension ``dim``."""
    _check_kind(from_kind)
    _check_kind(to_kind)
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return _EQUIVALENCE[(from_kind, to_kind)](dim)


def convert_lip_bound(lip: float, from_kind: str, to_kind: str, dim: int) -> float:
    """Convert a Lipschitz bound between norms.

    If a function changes by at most ``lip`` per unit of ``from_kind``
    distance, it changes by at most the returned value per unit of
    ``to_kind`` distance.  The conversion factor is tight over all
    functions, so no validity is lost.
    """
    if lip <= 0:
        raise ValueError(f"Lipschitz bound must be positive, got {lip}")
    return lip * norm_ratio(from_kind, to_kind, dim)


def _check_kind(kind: str) -> None:
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


# Up to this many coordinates numpy reduces a row in column order, which
# ``_column_length`` reproduces; longer rows are summed pairwise.
_COLUMN_DIMS = 7


def _column_length(
    kind: str,
    cols: np.ndarray,
    terms: Union[np.ndarray, None] = None,
    out: Union[np.ndarray, None] = None,
) -> np.ndarray:
    """Norm of the vectors whose coordinate ``j`` is ``cols[j]``, for
    ``cols`` of shape ``(d, ...)``, combining the coordinates in order
    ``j = 0, 1, ...`` (see :meth:`Norm.length`).

    ``terms``, shaped like ``cols`` (and possibly ``cols`` itself),
    receives ``|x_j|`` or ``x_j * x_j``, and ``out``, shaped like
    ``cols[0]``, the result; None allocates.  The result is ``out``
    when ``d >= 2`` or the norm is euclidean.
    """
    if kind == "euclidean":
        terms = np.multiply(cols, cols, out=terms)
    else:
        terms = np.absolute(cols, out=terms)
    combine = np.maximum if kind == "sup" else np.add
    acc = terms[0]
    for j in range(1, len(terms)):
        acc = combine(acc, terms[j], out=out)
    return np.sqrt(acc, out=out) if kind == "euclidean" else acc


def _all_columns(ok: np.ndarray) -> Union[np.bool_, np.ndarray]:
    """``ok.all(axis=-1)`` as an ``&`` over the columns, which numpy
    computes several times faster when the last axis is short."""
    cols = ok.T
    acc = cols[0]
    for j in range(1, len(cols)):
        acc = acc & cols[j]
    return acc.T


@dataclass(frozen=True)
class Norm:
    """One of the three supported norms: ``sup``, ``euclidean``, ``l1``."""

    kind: str

    def __post_init__(self) -> None:
        _check_kind(self.kind)

    def length(self, v: np.ndarray) -> Union[float, np.ndarray]:
        """Norm of a vector ``(d,)`` (a ``float``), of each row of a batch
        ``(n, d)``, or along the last axis of any ``(..., d)`` array.

        For ``1 <= d <= 7`` the coordinate columns are combined in order
        ``j = 0, 1, ..., d - 1``: ``sup`` is a chain of ``np.maximum``
        over ``|x_j|``, ``euclidean`` is ``x_0 * x_0``, then ``+= x_j *
        x_j`` for each later column, then ``sqrt``, and ``l1`` adds the
        ``|x_j|`` in order.  numpy reduces a row of fewer than 8 entries
        in that same order, so the results are bitwise those of
        ``.max(axis=-1)`` and ``.sum(axis=-1)``, without the cost numpy
        pays to reduce a short axis.  From ``d = 8`` on those row
        reductions are used as they are, because numpy sums longer rows
        pairwise.
        """
        v = np.asarray(v, dtype=float)
        if 1 <= (v.shape[-1] if v.ndim else 0) <= _COLUMN_DIMS:
            if v.ndim == 1:
                return float(_column_length(self.kind, v[:, None])[0])
            return _column_length(self.kind, v.T).T
        if self.kind == "sup":
            out = np.abs(v).max(axis=-1)
        elif self.kind == "euclidean":
            out = np.sqrt((v * v).sum(axis=-1))
        else:
            out = np.abs(v).sum(axis=-1)
        return float(out) if out.ndim == 0 else out

    def distance(self, x: np.ndarray, y: np.ndarray) -> Union[float, np.ndarray]:
        return self.length(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))

    def unit_ball_volume(self, dim: int) -> float:
        """Exact volume of the unit ball of this norm in dimension ``dim``."""
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        if self.kind == "sup":
            return 2.0**dim
        if self.kind == "euclidean":
            return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
        return 2.0**dim / math.factorial(dim)

    def ball_volume(self, radius: float, dim: int) -> float:
        """Volume of a radius ``radius`` ball; scales as ``radius ** dim``."""
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        return radius**dim * self.unit_ball_volume(dim)


SUP = Norm("sup")
EUCLIDEAN = Norm("euclidean")
L1 = Norm("l1")


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned hyperrectangle with per-dimension bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def edges(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x: np.ndarray) -> Union[bool, np.ndarray]:
        """Closed membership test for a point ``(d,)`` or batch ``(n, d)``."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != self.lower.shape:
            raise ValueError(f"expected points of dimension {self.dim}, got shape {x.shape}")
        ok = _all_columns((x >= self.lower) & (x <= self.upper))
        return bool(ok) if x.ndim == 1 else ok

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of the box, coordinate by coordinate.

        Coordinate clamping minimises every |x_j - y_j| simultaneously, so
        the result is a nearest box point under all three supported norms.
        """
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def volume(self) -> float:
        return float(np.prod(self.edges))

    def uniform_sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.lower + rng.random((count, self.dim)) * self.edges


@dataclass(frozen=True)
class Ball:
    """Closed norm ball given by center, radius, and the norm defining it."""

    center: np.ndarray
    radius: float
    norm: Norm

    def __post_init__(self) -> None:
        center = np.atleast_1d(np.asarray(self.center, dtype=float)).copy()
        if center.ndim != 1:
            raise ValueError("center must be a 1-D array")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, x: np.ndarray) -> Union[bool, np.ndarray]:
        """Closed membership test for a point ``(d,)`` or batch ``(n, d)``."""
        # a single point's length is a float, so its comparison a bool
        return self.norm.length(np.asarray(x, dtype=float) - self.center) <= self.radius

    def enclosing_box(self) -> Box:
        """Smallest axis-aligned box containing the ball.

        Every supported unit ball fits in the unit sup ball, so the box
        extends by exactly ``radius`` in each coordinate.
        """
        return Box(self.center - self.radius, self.center + self.radius)

    def volume(self) -> float:
        return self.norm.ball_volume(self.radius, self.dim)

    def uniform_sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform points in the ball via rejection from the enclosing box."""
        box = self.enclosing_box()
        out = np.empty((count, self.dim))
        filled = 0
        while filled < count:
            batch = box.uniform_sample(rng, max(count - filled, 16) * 2)
            keep = batch[self.contains(batch)]
            take = min(len(keep), count - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return out


Domain = Union[Box, Ball]


def diameter(domain: Domain, norm: Norm) -> float:
    """Exact largest distance between two domain points, in closed form.

    For a box the supremum is attained at opposite corners, so it equals
    the norm of the edge vector.  For a ball of radius r the difference of
    two points ranges over the ball of radius 2r, giving 2r times the
    equivalence factor between the measuring norm and the ball's norm.
    """
    if isinstance(domain, Box):
        return float(norm.length(domain.edges))
    if isinstance(domain, Ball):
        return 2.0 * domain.radius * norm_ratio(norm.kind, domain.norm.kind, domain.dim)
    raise TypeError(f"unsupported domain type {type(domain).__name__}")


def enclosing_box(domain: Domain) -> Box:
    if isinstance(domain, Box):
        return domain
    if isinstance(domain, Ball):
        return domain.enclosing_box()
    raise TypeError(f"unsupported domain type {type(domain).__name__}")


def domain_volume(domain: Domain) -> float:
    if isinstance(domain, (Box, Ball)):
        return domain.volume()
    raise TypeError(f"unsupported domain type {type(domain).__name__}")


def uniform_sample(domain: Domain, rng: np.random.Generator, count: int) -> np.ndarray:
    if isinstance(domain, (Box, Ball)):
        return domain.uniform_sample(rng, count)
    raise TypeError(f"unsupported domain type {type(domain).__name__}")


def midpoint_grid(
    box: Box, step: float, max_points: Union[int, None] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Regular midpoint grid over a box.

    Each dimension j is split into ``ceil(edge_j / step)`` equal intervals
    and the interval midpoints are combined into a full product grid.

    Args:
      box: the box to discretise.
      step: upper bound on the per-dimension spacing; actual spacings are
        ``edge_j / ceil(edge_j / step) <= step``.
      max_points: optional cap on the total number of grid points; exceeding
        it raises instead of allocating.

    Returns:
      A pair ``(points, steps)`` where ``points`` has shape ``(n, d)`` in
      lexicographic order (first coordinate varies slowest) and ``steps``
      holds the actual per-dimension spacings.  Every box point is within
      ``steps / 2`` of a grid point coordinate-wise.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    counts = np.maximum(1, np.ceil(box.edges / step - 1e-12).astype(int))
    total = int(np.prod(counts.astype(float)))
    if max_points is not None and total > max_points:
        raise ValueError(
            f"grid of {total} points exceeds the cap of {max_points}; "
            "use a coarser step or a larger accuracy target"
        )
    steps = box.edges / counts
    axes = [
        box.lower[j] + (np.arange(counts[j]) + 0.5) * steps[j]
        for j in range(box.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    return points, steps
