"""Benchmark registry: labels, exact metadata, and scaling."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import lipcert as lc
from lipcert import LABELS, Ball, Box, default_algorithm, get_function, registry


EXPECTED = {
    "constant-d1": (1, "sup", 0.0, 0.0, Box),
    "tent-d1": (1, "sup", 1.0, 0.0, Box),
    "halftent-d1": (1, "sup", 0.5, 0.0, Box),
    "slope-d1": (1, "sup", 1.0, 0.0, Box),
    "multibump-d1": (1, "sup", 0.5, 0.0, Box),
    "constant-d2": (2, "sup", 0.0, 0.0, Box),
    "cone-d2": (2, "euclidean", 1.0, 1.0, Ball),
    "multibump-d2": (2, "sup", 0.5, 0.0, Box),
}


def dense_points(fn, per_axis=513):
    box = fn.domain.enclosing_box()
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(box.lower, box.upper)]
    if fn.dim == 1:
        pts = axes[0][:, None]
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
    return pts[np.asarray(fn.domain.contains(pts))]


def test_labels_and_lookup():
    fns = registry()
    assert tuple(fn.label for fn in fns) == LABELS
    assert len(fns) == 8
    for label in LABELS:
        assert get_function(label).label == label
    with pytest.raises(ValueError, match="tent-d1"):
        get_function("rosenbrock")


def test_metadata_frozen():
    for fn in registry():
        dim, norm_kind, exact_lip, known_max, domain_type = EXPECTED[fn.label]
        assert fn.dim == dim
        assert fn.norm.kind == norm_kind
        assert fn.lip_bound == 1.0
        assert fn.exact_lip == exact_lip
        assert fn.known_max == known_max
        assert isinstance(fn.domain, domain_type)


def test_declared_maximum_is_exact():
    # a dyadic grid hits every plateau and peak, so the sampled maximum
    # must equal the declared one bitwise and never exceed it
    for fn in registry():
        pts = dense_points(fn, per_axis=513)
        vals = np.asarray(fn(pts), dtype=float)
        assert vals.max() == fn.known_max
    rng = np.random.default_rng(5)
    for fn in registry():
        sample = fn.domain.uniform_sample(rng, 4000)
        assert np.asarray(fn(sample)).max() <= fn.known_max + 1e-12


def test_specific_maximizers():
    assert lc.get_function("tent-d1")(np.array([0.5])) == 0.0
    half = lc.get_function("halftent-d1")
    assert half(np.array([[3 / 8], [0.5], [5 / 8]])).tolist() == [0.0, 0.0, 0.0]
    assert lc.get_function("slope-d1")(np.array([0.0])) == 0.0
    assert lc.get_function("multibump-d1")(np.array([7 / 64])) == 0.0
    assert lc.get_function("cone-d2")(np.array([1.0, 0.0])) == 1.0
    assert lc.get_function("multibump-d2")(np.array([5 / 16, 5 / 16])) == 0.0


def test_exact_lipschitz_constant_on_dense_grid():
    # adjacent-point quotients never exceed the exact constant and some
    # pair comes within 2% of it
    for fn in registry():
        if fn.dim == 1:
            pts = dense_points(fn, per_axis=2049)
            vals = np.asarray(fn(pts))
            gaps = fn.norm.length(np.diff(pts, axis=0))
            quot = np.abs(np.diff(vals)) / gaps
        elif isinstance(fn.domain, Box):
            pts = dense_points(fn, per_axis=257)
            grid = np.asarray(fn(pts)).reshape(257, 257)
            step = 1.0 / 256.0
            quot = np.concatenate([
                np.abs(np.diff(grid, axis=0)).ravel() / step,
                np.abs(np.diff(grid, axis=1)).ravel() / step,
            ])
        else:
            # collinear pairs through the center realise the cone's slope
            pts = dense_points(fn, per_axis=257)
            vals = np.asarray(fn(pts))
            rng = np.random.default_rng(11)
            idx = rng.integers(0, len(pts), size=(20000, 2))
            idx = idx[idx[:, 0] != idx[:, 1]]
            diffs = pts[idx[:, 0]] - pts[idx[:, 1]]
            quot = np.abs(vals[idx[:, 0]] - vals[idx[:, 1]]) / fn.norm.length(diffs)
        assert quot.max() <= fn.exact_lip + 1e-9
        if fn.exact_lip > 0:
            assert quot.max() >= fn.exact_lip * 0.98


def test_everything_scales_with_the_bound():
    for one, three in zip(registry(1.0), registry(3.0)):
        assert three.lip_bound == 3.0
        assert three.exact_lip == 3.0 * one.exact_lip
        assert three.known_max == 3.0 * one.known_max
        pts = dense_points(one, per_axis=65)
        assert np.allclose(np.asarray(three(pts)), 3.0 * np.asarray(one(pts)))
    with pytest.raises(ValueError):
        registry(0.0)
    with pytest.raises(ValueError):
        get_function("tent-d1", lip=-1.0)


def test_evaluators_are_deterministic_batch_maps():
    for fn in registry():
        pts = dense_points(fn, per_axis=33)
        first = np.asarray(fn(pts))
        assert first.shape == (len(pts),)
        assert np.array_equal(first, np.asarray(fn(pts)))


# The three evaluators as they were written with broadcast temporaries and
# short-axis reductions, kept as oracles for the column-wise forms.
_BUMPS_1D = (
    np.array([7.0 / 64.0, 0.5, 57.0 / 64.0]),
    np.array([1.0 / 16.0, 1.0 / 32.0, 1.0 / 32.0]),
    np.array([0.0, -1.0 / 128.0, -1.0 / 64.0]),
)
_BUMPS_2D = (
    np.array([[5.0 / 16.0, 5.0 / 16.0], [0.75, 0.25], [0.25, 0.75]]),
    np.array([3.0 / 16.0, 1.0 / 32.0, 1.0 / 32.0]),
    np.array([0.0, -1.0 / 128.0, -1.0 / 64.0]),
)


def _broadcast_multibump_1d(x, L):
    centers, widths, heights = _BUMPS_1D
    dist = np.abs(x[:, 0][:, None] - centers)
    plateaus = L * heights - (L / 2.0) * np.maximum(dist - widths, 0.0)
    return plateaus.max(axis=1)


def _broadcast_multibump_2d(x, L):
    centers, widths, heights = _BUMPS_2D
    dist = np.abs(x[:, None, :] - centers).max(axis=2)
    plateaus = L * heights - (L / 2.0) * np.maximum(dist - widths, 0.0)
    return plateaus.max(axis=1)


def _broadcast_cone(x, L):
    return L * np.sqrt((x * x).sum(axis=1))


_ORACLES = {
    "multibump-d1": _broadcast_multibump_1d,
    "multibump-d2": _broadcast_multibump_2d,
    "cone-d2": _broadcast_cone,
}


def _plateau_edges(label):
    """Points on and one rounding step either side of every plateau edge
    (the cone's: its centre, the unit circle and tiny radii)."""
    if label == "cone-d2":
        t = np.linspace(0.0, 2.0 * np.pi, 97)
        r = np.array([0.0, 5e-324, 1e-170, 1e-9, 0.5, 1.0])
        return np.concatenate(
            [np.column_stack([np.cos(t), np.sin(t)]) * k for k in r]
            + [np.array([[1.0, 0.0], [0.0, -1.0], [-0.0, 0.0], [0.6, 0.8]])]
        )
    centers, widths, _ = _BUMPS_1D if label == "multibump-d1" else _BUMPS_2D
    dim = 1 if label == "multibump-d1" else 2
    centers, widths = np.reshape(centers, (3, dim)), np.reshape(widths, (3, 1))
    ends = np.concatenate([centers - widths, centers + widths])
    ends = np.concatenate([ends, np.nextafter(ends, 2.0), np.nextafter(ends, -1.0)])
    if dim == 1:
        return np.clip(ends, 0.0, 1.0)
    # every pairing of edge coordinates, so corners and sides are hit
    xs = np.unique(np.clip(ends.ravel(), 0.0, 1.0))
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


@pytest.mark.parametrize("label", sorted(_ORACLES))
@pytest.mark.parametrize("lip", (1.0, 3.0, 0.1))
def test_evaluators_match_their_broadcast_forms(label, lip):
    fn = get_function(label, lip=lip)
    oracle = _ORACLES[label]
    grid = lc.layer_decomposition(fn, lip * 2.0**-5).points
    batches = {
        "layer grid": grid,
        "plateau edges": _plateau_edges(label),
        "4 rows": np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, fn.dim)) ** 3,
        "F-ordered": np.asfortranarray(grid[::5]),
    }
    for name, x in batches.items():
        got = fn.evaluator(x)
        want = oracle(x, lip)
        assert got.shape == want.shape, name
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
        assert np.array_equal(fn(x), want), name
    for x in batches["plateau edges"][::3]:
        got = fn(x)
        assert type(got) is float
        assert np.float64(got).view(np.uint64) == oracle(x[None, :], lip).view(np.uint64)[0]


def test_evaluator_output_shape_checked():
    tent = get_function("tent-d1")
    column = lc.TestFunction(
        label="column", domain=tent.domain, norm=tent.norm, lip_bound=1.0,
        evaluator=lambda x: tent.evaluator(x)[:, None],
    )
    with pytest.raises(ValueError, match=r"shape \(3, 1\) for 3 points"):
        column(np.array([[0.1], [0.2], [0.3]]))
    with pytest.raises(ValueError, match="shape"):
        column(np.array([0.1]))


def test_domains():
    for fn in registry():
        if isinstance(fn.domain, Box):
            assert fn.domain.lower.tolist() == [0.0] * fn.dim
            assert fn.domain.upper.tolist() == [1.0] * fn.dim
        else:
            assert fn.domain.center.tolist() == [0.0, 0.0]
            assert fn.domain.radius == 1.0


def peak_on_unit_ball(dim, norm):
    """``-|x|`` on the unit ball of ``norm`` at the origin: maximum 0."""
    return lc.TestFunction(
        f"peak-{norm.kind}-d{dim}",
        Ball(np.zeros(dim), 1.0, norm),
        norm,
        1.0,
        lambda x: -norm.length(x),
        exact_lip=1.0,
        known_max=0.0,
    )


def test_default_algorithm_choice():
    for fn in registry():
        expected = "psgrid" if fn.label == "cone-d2" else "cdoo"
        assert default_algorithm(fn) == expected
    # psgrid has no candidate set for these balls and used to be chosen
    # anyway, so the default run raised; the tree search certifies them
    for dim, norm, queries in (
        (1, lc.EUCLIDEAN, 17),
        (2, lc.SUP, 57),
        (2, lc.L1, 69),
        (3, lc.EUCLIDEAN, 373),
    ):
        fn = peak_on_unit_ball(dim, norm)
        assert default_algorithm(fn) == "cdoo"
        trace = lc.optimizers.ALGORITHMS[default_algorithm(fn)](fn, 2.0**-4, 1000)
        assert len(trace) == queries
        assert lc.sigma_from_trace(trace) <= queries
        assert lc.certificate_validity(trace, fn.known_max).ok


@pytest.mark.parametrize(
    "label, x",
    [
        ("tent-d1", np.float64(0.3)),
        ("tent-d1", np.array([0.3, 0.4])),
        ("tent-d1", np.zeros((2, 2))),
        ("tent-d1", np.zeros((1, 1, 1))),
        ("cone-d2", np.zeros(3)),
        ("cone-d2", np.zeros((4, 3))),
    ],
    ids=["scalar", "flat batch", "wide batch", "3-d array", "long point", "long rows"],
)
def test_objective_takes_only_a_point_or_a_batch(label, x):
    # a scalar and a flat batch used to be read as one-dimensional
    # points, with a return type that depended on the array's length
    fn = get_function(label)
    with pytest.raises(ValueError, match=r"expected shape \(\d,\) or \(n, \d\)"):
        fn(x)


def test_objective_refuses_a_bad_domain_or_exact_constant():
    tent = get_function("tent-d1")
    with pytest.raises(TypeError, match="unsupported domain type"):
        lc.TestFunction(
            label="t", domain="unit interval", norm=tent.norm, lip_bound=1.0,
            evaluator=tent.evaluator,
        )
    with pytest.raises(ValueError, match="exceeds the declared bound"):
        replace(tent, exact_lip=2.0)
