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


def _norm_ratio(from_kind: str, to_kind: str, dim: int) -> float:
    """Return max{|v|_from / |v|_to} over nonzero v in dimension ``dim``."""
    _check_kind(from_kind)
    _check_kind(to_kind)
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return _EQUIVALENCE[(from_kind, to_kind)](dim)


def _check_lip_bound(lip: float) -> None:
    """Raise ValueError unless ``lip`` is a usable Lipschitz bound: a
    positive finite number.  Every entry that takes a bound calls it."""
    if not 0 < lip < math.inf:
        raise ValueError(f"Lipschitz bound must be positive and finite, got {lip}")


def _check_accuracy(eps: float) -> None:
    """Raise ValueError unless ``eps`` is a positive finite accuracy
    target.  Every entry that takes a target calls it."""
    if eps is None or not 0 < eps < math.inf:
        raise ValueError(f"accuracy target must be positive and finite, got {eps}")


def convert_lip_bound(lip: float, from_kind: str, to_kind: str, dim: int) -> float:
    """Convert a Lipschitz bound between norms.

    If a function changes by at most ``lip`` per unit of ``from_kind``
    distance, it changes by at most the returned value per unit of
    ``to_kind`` distance.  The conversion factor is tight over all
    functions, so no validity is lost.
    """
    _check_lip_bound(lip)
    return lip * _norm_ratio(from_kind, to_kind, dim)


def _check_kind(kind: str) -> None:
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def _column_length(
    kind: str,
    cols: np.ndarray,
    terms: Union[np.ndarray, None] = None,
    out: Union[np.ndarray, None] = None,
) -> np.ndarray:
    """Norm of the vectors whose coordinate ``j`` is ``cols[j]``, for
    ``cols`` of shape ``(d, ...)`` with ``d >= 1``, combining the
    coordinates in order ``j = 0, 1, ...`` (see :meth:`Norm.length`).

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
        ``(n, d)``, or along the last axis of any ``(..., d)`` array.  A
        0-d input is a vector of one coordinate; a last axis of length 0
        raises ``ValueError``.

        The coordinate columns are combined in order ``j = 0, 1, ...,
        d - 1`` at every d: ``sup`` is a chain of ``np.maximum`` over
        ``|x_j|``, ``euclidean`` is ``x_0 * x_0``, then ``+= x_j * x_j``
        for each later column, then ``sqrt``, and ``l1`` adds the
        ``|x_j|`` in order.  The result does not depend on the memory
        layout of ``v``.  For ``d <= 7`` it is bitwise that of
        ``.max(axis=-1)`` and ``.sum(axis=-1)``, which reduce rows that
        short in the same order, without the cost numpy pays to reduce a
        short axis; from ``d = 8`` on numpy sums rows pairwise, in an
        order that depends on the layout.
        """
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] == (0,):
            raise ValueError(f"vectors of dimension 0 have no norm, got shape {v.shape}")
        if v.ndim <= 1:
            return float(_column_length(self.kind, v.reshape(-1, 1))[0])
        return _column_length(self.kind, v.T).T

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


def _pair_lengths(
    norm: Norm,
    a_cols: np.ndarray,
    a_idx: np.ndarray,
    b_cols: np.ndarray,
    b_idx: Union[np.ndarray, slice],
) -> np.ndarray:
    """``norm.length(a[a_idx] - b[b_idx])``, bit for bit, for point sets
    ``a`` and ``b`` given by their coordinate columns ``a_cols`` and
    ``b_cols``, shaped ``(d, n)``.  ``b_idx`` is an index array as long
    as ``a_idx``, or a slice of one index that every pair shares.

    The pairs' coordinates are gathered along the columns, which costs
    about a fifth as much per index as gathering ``(n, d)`` rows, and
    their differences are measured in the order :meth:`Norm.length`
    uses.
    """
    diff = a_cols.take(a_idx, axis=1)
    diff -= b_cols[:, b_idx]
    return _column_length(norm.kind, diff, terms=diff, out=diff[0])


def _points(x: np.ndarray, dim: int) -> np.ndarray:
    """``x`` as floats, if it is a point ``(dim,)`` or a batch ``(..., dim)``."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ValueError(f"expected points of dimension {dim}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned hyperrectangle with per-dimension bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        if lower.shape != upper.shape or lower.ndim != 1 or lower.size == 0:
            raise ValueError("lower and upper must be nonempty 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        with np.errstate(over="ignore"):
            if not np.isfinite(upper - lower).all():
                raise ValueError("every bound and edge of a box must be finite")
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

    @property
    def center(self) -> np.ndarray:
        return self.lower + self.edges * 0.5

    def contains(self, x: np.ndarray) -> Union[bool, np.ndarray]:
        """Closed membership test for a point ``(d,)`` or batch ``(n, d)``."""
        x = _points(x, self.dim)
        ok = _all_columns((x >= self.lower) & (x <= self.upper))
        return bool(ok) if x.ndim == 1 else ok

    def enclosing_box(self) -> Box:
        """The box itself, as :meth:`Ball.enclosing_box` is for a ball."""
        return self

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
        if center.ndim != 1 or center.size == 0:
            raise ValueError("center must be a nonempty 1-D array")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        # the edges of enclosing_box(), finite and positive only when its
        # bounds are finite and apart
        with np.errstate(over="ignore", invalid="ignore"):
            edges = (center + self.radius) - (center - self.radius)
        if not np.all((0 < edges) & (edges < math.inf)):
            raise ValueError("a ball's enclosing box must have finite, positive edges")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, x: np.ndarray) -> Union[bool, np.ndarray]:
        """Closed membership test for a point ``(d,)`` or batch ``(n, d)``,
        bitwise ``norm.length(x - center) <= radius``.  A batch's
        differences are taken by column, ``x.T - center[:, None]``, so the
        norm combines contiguous columns."""
        x = _points(x, self.dim)
        diff = np.subtract(x.T, self.center.reshape((-1,) + (1,) * (x.ndim - 1)))
        inside = _column_length(self.norm.kind, diff, terms=diff) <= self.radius
        return bool(inside) if x.ndim == 1 else inside.T

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
            keep = np.compress(self.contains(batch), batch, axis=0)
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
        return 2.0 * domain.radius * _norm_ratio(norm.kind, domain.norm.kind, domain.dim)
    raise TypeError(f"unsupported domain type {type(domain).__name__}")


def _grid_counts(box: Box, step: float) -> np.ndarray:
    """Intervals per dimension of :func:`midpoint_grid`'s grid, as floats
    so that a product of huge counts cannot overflow; a count too large
    for a float is inf."""
    with np.errstate(over="ignore"):
        return np.maximum(1.0, np.ceil(box.edges / step - 1e-12))


def _grid_axes(
    box: Box, step: float, max_points: Union[int, None] = None
) -> tuple[list[np.ndarray], np.ndarray]:
    """The midpoints along each axis of :func:`midpoint_grid`'s grid and
    its per-dimension spacings.  A grid of more than ``max_points``
    points raises before anything grid-sized is allocated, even one
    whose count is too large for a float."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    counts = _grid_counts(box, step)
    total = float(np.prod(counts))
    if max_points is not None and total > max_points:
        raise ValueError(
            f"grid of {total:.6g} points exceeds the cap of {max_points}; "
            "use a coarser step or a larger accuracy target"
        )
    counts = counts.astype(int)
    steps = box.edges / counts
    axes = [
        box.lower[j] + (np.arange(counts[j]) + 0.5) * steps[j]
        for j in range(box.dim)
    ]
    return axes, steps


def _grid_rows(
    axes: list[np.ndarray], start: int, stop: int, out: Union[np.ndarray, None] = None
) -> np.ndarray:
    """Rows ``start`` to ``stop - 1`` of the product grid of ``axes`` in
    lexicographic order (first coordinate slowest), as an ``(n, d)``
    array whose coordinates are copies of the axis entries; written to
    ``out`` if given, else to a new array.

    Row ``i`` holds entry ``(i // stride) % len(axis)`` of each axis,
    ``stride`` being the product of the later axis lengths.  Along one
    axis the rows therefore run through its entries from index
    ``start // stride`` on, cyclically, each repeated ``stride`` times
    except the first and the last, which the range may cut.
    """
    rows = np.empty((stop - start, len(axes))) if out is None else out
    stride = 1
    for j in range(len(axes) - 1, -1, -1):
        axis = axes[j]
        first, last = start // stride, (stop - 1) // stride
        k, m = first % len(axis), last - first + 1
        cycle = axis[k : k + m] if k + m <= len(axis) else np.resize(np.roll(axis, -k), m)
        if stride == 1:
            rows[:, j] = cycle
        else:
            reps = np.full(m, stride)
            reps[0] -= start - first * stride
            reps[-1] -= (last + 1) * stride - stop
            rows[:, j] = np.repeat(cycle, reps)
        stride *= len(axis)
    return rows


def midpoint_grid(box: Box, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Regular midpoint grid over a box.

    Each dimension j is split into ``ceil(edge_j / step)`` equal intervals
    and the interval midpoints are combined into a full product grid.

    Args:
      box: the box to discretise.
      step: upper bound on the per-dimension spacing; actual spacings are
        ``edge_j / ceil(edge_j / step) <= step``.

    Returns:
      A pair ``(points, steps)`` where ``points`` has shape ``(n, d)`` in
      lexicographic order (first coordinate varies slowest) and ``steps``
      holds the actual per-dimension spacings.  Every box point is within
      ``steps / 2`` of a grid point coordinate-wise.
    """
    axes, steps = _grid_axes(box, step)
    return _grid_rows(axes, 0, math.prod(len(axis) for axis in axes)), steps
