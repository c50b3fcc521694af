"""How the runners read their evaluator: a bad output raises before its
round is recorded, and any array-like of finite values reads as float64."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import lipcert as lc
from lipcert.core import build_trace
from lipcert.optimizers import doo, piyavskii

# runner, objective: the tree search on a box and on a ball (where it
# keeps every queried value), and both sawtooth runners
RUNS = {
    "cdoo-box": (lambda fn: lc.cdoo_run(fn, 1e-3, 200), "multibump-d2"),
    "ncdoo-box": (lambda fn: lc.ncdoo_run(fn, 200), "multibump-d2"),
    "cdoo-ball": (lambda fn: lc.cdoo_run(fn, 1e-3, 200), "cone-d2"),
    "ncdoo-ball": (lambda fn: lc.ncdoo_run(fn, 200), "cone-d2"),
    "ps1d": (lambda fn: lc.ps_run_1d(fn, 1e-3, 100), "multibump-d1"),
    "psgrid": (lambda fn: lc.ps_run_grid(fn, 1 / 16, 100), "multibump-d2"),
}
# the query whose batch the evaluator spoils, past the root's split
CHOSEN = 7


def _bad_at(fn, point, spoil):
    """``fn`` whose evaluator passes the output of a batch holding
    ``point`` through ``spoil(out, rows)``; ``batches`` records the
    sizes of the batches it spoils."""
    inner = fn.evaluator
    batches = []

    def evaluate(x):
        out = inner(x)
        rows = np.all(x == point, axis=1)
        if not rows.any():
            return out
        batches.append(len(x))
        return spoil(np.array(out, dtype=float), rows)

    return replace(fn, evaluator=evaluate), batches


def _tapped(monkeypatch):
    """The rounds the runners hand to ``build_trace``, as they are yielded."""
    seen = []

    def tapping(*args):
        rounds = args[5]

        def tap():
            for block in rounds:
                seen.append(block)
                yield block

        return build_trace(*args[:5], tap(), *args[6:])

    monkeypatch.setattr(doo, "build_trace", tapping)
    monkeypatch.setattr(piyavskii, "build_trace", tapping)
    return seen


def _non_finite(bad):
    def spoil(out, rows):
        out[rows] = bad
        return out

    return spoil


SPOILERS = {
    "nan": (_non_finite(math.nan), "non-finite value nan at x = {x}"),
    "+inf": (_non_finite(math.inf), "non-finite value inf at x = {x}"),
    "-inf": (_non_finite(-math.inf), "non-finite value -inf at x = {x}"),
    "short": (lambda out, rows: out[:-1], "evaluator returned shape ({short},) for {n} points"),
    "column": (lambda out, rows: out[:, None], "evaluator returned shape ({n}, 1) for {n} points"),
}


@pytest.mark.parametrize("spoiler", SPOILERS)
@pytest.mark.parametrize("run_name", RUNS)
def test_a_bad_output_raises_before_its_round_is_recorded(run_name, spoiler, monkeypatch):
    run, label = RUNS[run_name]
    fn = lc.get_function(label)
    ref = run(fn)
    assert len(ref) > CHOSEN
    point = ref.queries[CHOSEN]
    spoil, message = SPOILERS[spoiler]
    bad, batches = _bad_at(fn, point, spoil)
    seen = _tapped(monkeypatch)
    with pytest.raises(ValueError) as caught:
        run(bad)
    # the chosen point is fresh in one batch, and the run stops there
    assert len(batches) == 1
    n = batches[0]
    want = f"{label}: " + message.format(x=point.tolist(), n=n, short=n - 1)
    assert re.fullmatch(re.escape(want), str(caught.value))
    # every round yielded comes before the chosen query's
    recorded = np.concatenate([block[0] for block in seen])
    assert len(recorded) <= CHOSEN
    assert np.array_equal(recorded, ref.queries[: len(recorded)])


def _trace_bits(trace):
    return (
        trace.queries.tobytes(),
        trace.values.tobytes(),
        trace.rec_points.tobytes(),
        trace.rec_values.tobytes(),
        None if trace.certificates is None else np.asarray(trace.certificates).tobytes(),
    )


CONVERSIONS = {
    "list": lambda out: out.tolist(),
    "int64": lambda out: np.round(out * 64).astype(np.int64),
    "float32": lambda out: out.astype(np.float32),
}


@pytest.mark.parametrize("kind", CONVERSIONS)
@pytest.mark.parametrize("run_name", RUNS)
def test_any_array_like_output_reads_as_its_float64_values(run_name, kind, monkeypatch):
    # the run reads what np.asarray(out, dtype=float) holds, as Python
    # floats: an int64 array's own tolist() would give ints
    run, label = RUNS[run_name]
    fn = lc.get_function(label)
    convert = CONVERSIONS[kind]
    inner = fn.evaluator
    raw = replace(fn, evaluator=lambda x: convert(inner(x)))
    ref = replace(fn, evaluator=lambda x: np.asarray(convert(inner(x)), dtype=float))
    want = _trace_bits(run(ref))
    seen = _tapped(monkeypatch)
    assert _trace_bits(run(raw)) == want
    assert all(type(value) is float for _, values, _ in seen for value in values)
