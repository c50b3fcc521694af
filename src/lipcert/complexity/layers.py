"""Layer decomposition of a domain by suboptimality, packing-based
complexity estimates, and the integral sandwich that brackets them.

Points are binned by their gap to the maximum using a halving accuracy
schedule: the near-optimal set (gap at most the target) and one band per
schedule entry above it.  Packing each layer at its own scale and summing
estimates the certified query complexity; dropping the near-optimal term
estimates the non-certified one.  An integral of ``1 / (gap + eps)^d``
over the domain brackets the certified estimate between two closed-form
constants, which is checked rather than assumed.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from ..core import (
    ComplexityScale,
    Norm,
    TestFunction,
    convert_lip_bound,
    diameter,
)
from ..core._buckets import covering_side, max_magnitude
from ..core.geometry import _check_accuracy, _grid_axes, _grid_rows
from .packing import _next_alive

# Largest decomposition grid; past it the call fails instead of allocating.
_MAX_GRID_POINTS = 2_000_000
# Grid points built, filtered and evaluated at a time.
_GRID_BLOCK = 1 << 16
# Factor the lower sandwich side allows, because the greedy packing can
# undercount the true packing number.
_SANDWICH_SLACK = 2.0


@dataclass(frozen=True)
class LayerDecomposition:
    """Grid view of a domain binned by suboptimality gap.

    It stores 17 bytes per grid point in the domain, at any dimension:
    the values and gaps and a one-byte label.  On a ball, ``inside``
    adds one byte per point of the enclosing box's grid.  The points
    themselves are derived from ``axes`` and ``inside`` on first read.

    Attributes:
      values: objective values at the points.
      gaps: nonnegative suboptimality gaps against ``max_used``.
      labels: schedule class per point (0 = near-optimal), as ``uint8``.
      scale: the accuracy schedule the labels refer to.
      lip: Lipschitz bound in ``norm``.
      norm: norm used for diameters and packing radii.
      max_used: maximum value the gaps are measured against.
      max_is_exact: whether ``max_used`` came from exact metadata or was
        estimated from the grid with a safety margin.
      cell_volume: volume represented by each grid point.
      axes: the grid's midpoints along each axis; the points are rows of
        their product in lexicographic order.
      inside: per point of the whole product grid, in lexicographic
        order, whether it lies in the domain; None on a box, where every
        grid point does.
    """

    values: np.ndarray
    gaps: np.ndarray
    labels: np.ndarray
    scale: ComplexityScale
    lip: float
    norm: Norm
    max_used: float
    max_is_exact: bool
    cell_volume: float
    axes: tuple[np.ndarray, ...]
    inside: Optional[np.ndarray]

    @cached_property
    def points(self) -> np.ndarray:
        """Grid points inside the domain, in lexicographic order, as an
        ``(n, d)`` array whose coordinates are copies of the ``axes``
        entries: the rows the values were evaluated at, bit for bit.
        Built on first read, 8 * d bytes per point, and cached."""
        points = np.empty((len(self.values), len(self.axes)))
        kept = 0
        for start, rows in _row_blocks(self.axes):
            if self.inside is not None:
                rows = np.compress(self.inside[start : start + len(rows)], rows, axis=0)
            points[kept : kept + len(rows)] = rows
            kept += len(rows)
        return points


def _row_blocks(axes: tuple[np.ndarray, ...]) -> Iterator[tuple[int, np.ndarray]]:
    """The rows of the product grid of ``axes`` in lexicographic order,
    ``_GRID_BLOCK`` at a time, as ``(start, rows)``; every block is
    written into one buffer, which the next block overwrites."""
    total = math.prod(len(axis) for axis in axes)
    buffer = np.empty((min(_GRID_BLOCK, total), len(axes)))
    for start in range(0, total, _GRID_BLOCK):
        stop = min(start + _GRID_BLOCK, total)
        yield start, _grid_rows(axes, start, stop, out=buffer[: stop - start])


def _grid_values(
    fn: TestFunction, axes: tuple[np.ndarray, ...], inside: Optional[np.ndarray]
) -> np.ndarray:
    """The objective at the grid points inside its domain, in
    lexicographic order, filling ``inside`` (None on a box) as the
    blocks of :func:`_row_blocks` are filtered.  The values are sized to
    the whole grid and shrunk in place to the points inside."""
    values = np.empty(math.prod(len(axis) for axis in axes))
    kept = 0
    for start, rows in _row_blocks(axes):
        if inside is not None:
            mask = inside[start : start + len(rows)]
            mask[:] = fn.domain.contains(rows)
            rows = np.compress(mask, rows, axis=0)
        if len(rows):
            values[kept : kept + len(rows)] = fn(rows)
            kept += len(rows)
    if kept == 0:
        raise ValueError("no grid points fall inside the domain")
    if kept < len(values):
        # A ball keeps part of its box.  No view of the array is alive,
        # so it shrinks in place and frees its tail.
        values.resize(kept, refcheck=False)
    return values


def layer_decomposition(
    fn: TestFunction,
    eps: float,
    norm: Optional[Norm] = None,
    grid_step: Optional[float] = None,
) -> LayerDecomposition:
    """Evaluate the objective on a midpoint grid and bin by gap.

    Args:
      fn: objective with a box or ball domain.
      eps: target accuracy; the schedule runs from the Lipschitz bound
        times the domain diameter down to it.
      norm: measurement norm; defaults to the objective's own.  The
        Lipschitz bound is the declared one converted into ``norm``.
      grid_step: grid resolution; must be at most an eighth of
        ``eps / lip`` so that discretisation is fine relative to the
        smallest packing radius.  Defaults to exactly that.  A grid of
        more than ``_MAX_GRID_POINTS`` points fails with advice instead
        of allocating.

    The result holds 16 + 1 bytes per grid point in the domain, at any
    dimension: the values and gaps, and the labels as ``uint8`` (the
    grid cap keeps the schedule to about 20 classes at d <= 3).  On a
    ball it also holds ``inside``, one byte per point of the enclosing
    box's grid.  The points are not stored: ``points`` derives them
    from the axes on first read and caches them.  The grid is built,
    filtered to the domain and evaluated ``_GRID_BLOCK`` points at a
    time, in lexicographic order and in one reused buffer, so the other
    temporaries are bounded by the block.  Evaluating in blocks relies
    on the evaluator being pointwise, as :class:`TestFunction` requires.
    """
    _check_accuracy(eps)
    if norm is None:
        norm = fn.norm
    lip = convert_lip_bound(fn.lip_bound, fn.norm.kind, norm.kind, fn.dim)
    finest = (eps / lip) / 8.0
    if grid_step is None:
        grid_step = finest
    elif grid_step > finest * (1 + 1e-9):
        raise ValueError(
            f"grid step {grid_step} is coarser than (eps / lip) / 8 = {finest}; "
            "packing counts would not be trustworthy"
        )
    box = fn.domain.enclosing_box()
    axes, steps = _grid_axes(box, grid_step, max_points=_MAX_GRID_POINTS)
    axes = tuple(axes)
    total = math.prod(len(axis) for axis in axes)
    inside = None if fn.domain is box else np.empty(total, dtype=bool)
    values = _grid_values(fn, axes, inside)
    if fn.known_max is not None:
        max_used = float(fn.known_max)
        max_is_exact = True
    else:
        # Without metadata the true maximum can exceed the grid maximum
        # by at most the bound times the distance to the nearest grid
        # point, estimated here by a full cell diagonal.
        max_used = float(values.max()) + lip * float(norm.length(steps))
        max_is_exact = False
    gaps = np.subtract(max_used, values)
    np.maximum(gaps, 0.0, out=gaps)
    eps0 = lip * diameter(fn.domain, norm)
    scale = ComplexityScale.from_accuracy(eps0, eps)
    return LayerDecomposition(
        values=values,
        gaps=gaps,
        labels=scale.classify(gaps),
        scale=scale,
        lip=lip,
        norm=norm,
        max_used=max_used,
        max_is_exact=max_is_exact,
        cell_volume=float(np.prod(steps)),
        axes=axes,
        inside=inside,
    )


def _packing_counts(decomposition: LayerDecomposition) -> list[int]:
    """Greedy packing size of each layer at its own radius, each layer
    packed as a boolean image of the decomposition's grid."""
    scale = decomposition.scale
    counts = []
    for label in range(scale.m_eps + 1):
        image = _layer_image(decomposition, label)
        radius = scale.accuracy_for_class(label) / decomposition.lip
        kept = _grid_packing(image, decomposition.axes, radius, decomposition.norm.kind)
        counts.append(len(kept))
    return counts


def _layer_image(decomposition: LayerDecomposition, label: int) -> np.ndarray:
    """Whether each point of the whole grid lies in layer ``label``, as a
    boolean array shaped like the grid.  A ball's layer is scattered
    through ``inside``, with no integer image of the grid."""
    shape = tuple(len(axis) for axis in decomposition.axes)
    if decomposition.inside is None:
        return decomposition.labels.reshape(shape) == label
    image = np.zeros(len(decomposition.inside), dtype=bool)
    image[decomposition.inside] = decomposition.labels == label
    return image.reshape(shape)


def _grid_packing(
    image: np.ndarray, axes: tuple[np.ndarray, ...], radius: float, kind: str
) -> list[int]:
    """Flat indices of :func:`greedy_packing`'s kept points on the grid
    points where ``image`` is True, the grid being the product of
    ``axes`` (each sorted, as ``_grid_axes`` makes them) in
    lexicographic order, and ``image`` shaped like it.  ``image`` is
    cleared in the process.

    The image is scanned in lexicographic order, the order of the
    decomposition's points, and each kept point ``p`` clears, with one
    in-place store, the later points ``q`` of its block that lie within
    ``radius``.  On axis ``j`` the block spans the entries within
    ``side = covering_side(radius, M)`` of ``p_j``, ``M`` being the
    largest absolute axis entry; on the first axis it starts at ``p``'s
    own row, since the scan has already kept or cleared every earlier
    point.  The window of axis ``j`` and its ``|q_j - p_j|`` (or square)
    depend only on ``p``'s index ``k`` on that axis, so they are
    computed once per ``(j, k)`` and kept for the call, at most the axis
    length times the window on each axis, and reused by every later kept
    point that shares the index.  A kept point then costs a few numpy
    calls on the block, and no layer is copied out of the grid or
    hashed.

    **The same bits as greedy_packing.**  A grid point's coordinates are
    copies of the axis entries (``_grid_rows``), so ``t_j = q_j - p_j``
    is the float that :func:`greedy_packing` subtracts, and the ``|t_j|``
    or ``t_j * t_j`` are combined by broadcasting in the order ``j = 0,
    1, ...`` that :meth:`Norm.length` uses.

    **The block is complete.**  If ``Norm.length(q - p) <= radius`` as
    computed, step 1 of the ``core._buckets`` proof bounds ``|q_j -
    p_j| <= radius (1 + 5u) + 2**-510``, which ``side`` exceeds even
    after its own three roundings, through its ``radius * 2**-20`` and
    ``2**-500`` terms.  So ``p_j - side <= q_j <= p_j + side`` exactly,
    and, rounding being monotone and ``q_j`` a float, ``fl(p_j - side)
    <= q_j <= fl(p_j + side)``, and ``bisect_left`` of the first and
    ``bisect_right`` of the second bound ``q_j``'s index on the sorted
    axis.  A block that is too wide only measures extra points.
    """
    d = len(axes)
    side = covering_side(radius, max_magnitude(*axes))
    entries = [axis.tolist() for axis in axes]
    # Axis j shaped (n_j, 1, ..., 1), so that its window broadcasts
    # against the windows of the later axes.
    cols = [axis.reshape((-1,) + (1,) * (d - 1 - j)) for j, axis in enumerate(axes)]
    strides = [math.prod(image.shape[j + 1 :]) for j in range(d)]
    flat = image.reshape(-1)
    combine = np.maximum if kind == "sup" else np.add
    kept: list[int] = []
    # Per axis, index k -> (window slice, its terms).
    memo: list[dict[int, tuple[slice, np.ndarray]]] = [{} for _ in range(d)]
    i = _next_alive(flat, 0)
    while i < len(flat):
        kept.append(i)
        block = []
        acc = None
        rest = i
        for j, stride in enumerate(strides):
            k, rest = divmod(rest, stride)
            window = memo[j].get(k)
            if window is None:
                entry = entries[j]
                p = entry[k]
                lo = k if j == 0 else bisect_left(entry, p - side)
                hi = bisect_right(entry, p + side)
                t = cols[j][lo:hi] - p
                t = np.multiply(t, t, out=t) if kind == "euclidean" else np.absolute(t, out=t)
                window = memo[j][k] = (slice(lo, hi), t)
            block.append(window[0])
            acc = window[1] if acc is None else combine(acc, window[1])
        if kind == "euclidean":
            # At d = 1 the accumulator is the memo's term array itself.
            acc = np.sqrt(acc, out=acc) if d > 1 else np.sqrt(acc)
        view = image[tuple(block)]
        view &= acc > radius
        i = _next_alive(flat, i + 1)
    return kept


@dataclass(frozen=True)
class ComplexityReport:
    """Packing-based complexity estimate with its integral bracket.

    ``packing_counts`` is indexed by schedule class, near-optimal set
    first.  ``sc`` sums every class; ``snc`` leaves the near-optimal set
    out.  ``c_lower`` and ``c_upper`` are the closed-form constants for
    which ``c_lower * integral <= sc <= c_upper * integral`` is expected;
    :func:`sandwich_check` says whether the data actually satisfies both
    sides.
    """

    function: str
    eps0: float
    eps: float
    m_eps: int
    schedule: tuple[float, ...]
    packing_counts: tuple[int, ...]
    sc: int
    snc: int
    integral: float
    method: str
    seed: Optional[int]
    gamma: float
    c_lower: float
    c_upper: float
    lip: float
    norm_kind: str
    integral_stderr: Optional[float] = None


@dataclass(frozen=True)
class SandwichVerdict:
    """Two-sided comparison of the estimate against its integral bracket."""

    ok: bool
    lower_ok: bool
    upper_ok: bool
    lower_value: float
    upper_value: float


def sandwich_check(report: ComplexityReport) -> SandwichVerdict:
    """The sandwich verdict of a report.

    The lower side allows a factor ``_SANDWICH_SLACK`` (two) because the
    greedy packing can undercount the true packing number; the upper side
    is checked as stated.
    """
    sc = report.sc
    lower_value = report.c_lower * report.integral
    upper_value = report.c_upper * report.integral
    lower_ok = lower_value <= _SANDWICH_SLACK * sc + 1e-9
    upper_ok = sc <= upper_value * (1 + 1e-9)
    return SandwichVerdict(
        ok=lower_ok and upper_ok,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        lower_value=lower_value,
        upper_value=upper_value,
    )


def _grid_integral(decomposition: LayerDecomposition, eps: float) -> float:
    """Midpoint quadrature of ``1 / (gap + eps)^d`` on the grid."""
    integrand = np.add(decomposition.gaps, eps)
    integrand **= len(decomposition.axes)
    np.divide(1.0, integrand, out=integrand)
    return float(integrand.sum() * decomposition.cell_volume)


def integral_estimate(
    fn: TestFunction,
    eps: float,
    method: str = "grid",
    mc_samples: int = 20000,
    seed: int = 0,
) -> tuple[float, Optional[float]]:
    """Estimate the integral of ``1 / (gap + eps)^d`` over the domain.

    Args:
      method: ``grid`` for midpoint quadrature on the default grid of
        :func:`layer_decomposition` in the objective's own norm,
        ``montecarlo`` for seeded uniform sampling.  For a finer grid,
        read ``integral`` from :func:`estimate_sc` with its
        ``grid_step``.

    Returns:
      The estimate and, for Monte Carlo, its standard error (None for
      the grid method).
    """
    _check_accuracy(eps)
    if method == "grid":
        return _grid_integral(layer_decomposition(fn, eps), eps), None
    if method == "montecarlo":
        if fn.known_max is None:
            raise ValueError("Monte Carlo integration needs exact maximum metadata")
        if mc_samples < 2:
            raise ValueError(f"need at least two samples, got {mc_samples}")
        rng = np.random.default_rng(seed)
        samples = fn.domain.uniform_sample(rng, mc_samples)
        gaps = np.maximum(fn.known_max - np.asarray(fn(samples), dtype=float), 0.0)
        integrand = 1.0 / (gaps + eps) ** fn.dim
        volume = fn.domain.volume()
        estimate = float(integrand.mean() * volume)
        stderr = float(integrand.std(ddof=1) / math.sqrt(mc_samples) * volume)
        return estimate, stderr
    raise ValueError(f"unknown integral method {method!r}")


def estimate_sc(
    fn: TestFunction,
    eps: float,
    norm: Optional[Norm] = None,
    grid_step: Optional[float] = None,
    integral_method: str = "grid",
    mc_samples: int = 20000,
    seed: int = 0,
) -> ComplexityReport:
    """Full certified-complexity estimate with the integral bracket.

    Packs the near-optimal set at the target scale and every layer at
    its own scale, sums the counts, and attaches the integral estimate
    plus the closed-form bracket constants.  The greedy counts are exact
    packings of the grid restricted to each layer; they undercount the
    continuum packing number by at most a constant factor, which the
    sandwich verdict's slack absorbs.

    Args:
      fn: objective with exact maximum metadata, or a grid-estimated
        maximum is used and flagged.
      eps: target accuracy.
      norm, grid_step: as in :func:`layer_decomposition`.
      integral_method: ``grid`` reuses the decomposition's evaluations;
        ``montecarlo`` draws seeded uniform samples, before the grid is
        built, so that a refused method or sample count costs no grid.
      mc_samples, seed: Monte Carlo parameters.

    The domain regularity constant ``gamma`` is ``2**-d``, exact for
    boxes and balls: around any domain point, at least the orthant of a
    ball pointing back into the domain stays in it.
    """
    stderr = None
    seed_used: Optional[int] = None
    if integral_method != "grid":
        integral, stderr = integral_estimate(
            fn, eps, method=integral_method, mc_samples=mc_samples, seed=seed
        )
        seed_used = seed
    decomposition = layer_decomposition(fn, eps, norm=norm, grid_step=grid_step)
    counts = _packing_counts(decomposition)
    sc = int(sum(counts))
    snc = int(sum(counts[1:]))
    if integral_method == "grid":
        integral = _grid_integral(decomposition, decomposition.scale.eps)
    gamma = 2.0 ** (-fn.dim)
    used_lip = decomposition.lip
    used_norm = decomposition.norm
    c_lower = 1.0 / used_norm.ball_volume(1.0 / used_lip, fn.dim)
    c_upper = 1.0 / (gamma * used_norm.ball_volume(1.0 / (128.0 * used_lip), fn.dim))
    return ComplexityReport(
        function=fn.label,
        eps0=decomposition.scale.eps0,
        eps=decomposition.scale.eps,
        m_eps=decomposition.scale.m_eps,
        schedule=decomposition.scale.schedule,
        packing_counts=tuple(counts),
        sc=sc,
        snc=snc,
        integral=integral,
        method=integral_method,
        seed=seed_used,
        gamma=gamma,
        c_lower=c_lower,
        c_upper=c_upper,
        lip=used_lip,
        norm_kind=used_norm.kind,
        integral_stderr=stderr,
    )


def report_to_json(report: ComplexityReport) -> str:
    """Serialize a report to the stable JSON layout."""
    verdict = sandwich_check(report)
    doc = {
        "eps0": report.eps0,
        "eps": report.eps,
        "m_eps": report.m_eps,
        "schedule": list(report.schedule),
        "packing_counts": list(report.packing_counts),
        "SC": report.sc,
        "SNC": report.snc,
        "integral": report.integral,
        "method": report.method,
        "seed": report.seed,
        "gamma": report.gamma,
        "c": report.c_lower,
        "C": report.c_upper,
        "verdicts": {
            "sandwich_lower": verdict.lower_ok,
            "sandwich_upper": verdict.upper_ok,
            "layers_within_total": report.snc <= report.sc,
        },
    }
    return json.dumps(doc, indent=2)
