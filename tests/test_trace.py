"""Run traces: invariants, stopping indices, validity, serialization."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lipcert as lc
from lipcert.core import build_trace
from lipcert import (
    NOT_REACHED,
    RunTrace,
    certificate_validity,
    read_trace,
    recommendations_consistent,
    sigma_from_trace,
    trace_from_json,
    trace_to_json,
    write_trace,
    zeta_from_trace,
)


def make_trace(values, certs=None, eps=None):
    values = np.asarray(values, dtype=float)
    n = len(values)
    queries = np.arange(n, dtype=float)[:, None]
    rec_values = np.maximum.accumulate(values)
    idx = np.zeros(n, dtype=int)
    best = 0
    for i in range(1, n):
        if values[i] > values[best]:
            best = i
        idx[i] = best
    rec_points = queries[idx]
    return RunTrace(
        algorithm="stub",
        function="stub-fn",
        lip_bound=1.0,
        eps=eps,
        budget=n,
        seed=None,
        queries=queries,
        values=values,
        rec_points=rec_points,
        rec_values=rec_values,
        certificates=None if certs is None else np.asarray(certs, dtype=float),
    )


def test_len_and_shapes():
    tr = make_trace([0.0, 1.0, 0.5], certs=[2.0, 1.0, 0.5], eps=0.5)
    assert len(tr) == 3
    assert tr.queries.shape == (3, 1)


def test_arrays_are_frozen():
    tr = make_trace([0.0, 1.0])
    with pytest.raises(ValueError):
        tr.values[0] = 9.0


def test_shape_validation():
    with pytest.raises(ValueError):
        RunTrace(
            algorithm="stub",
            function="f",
            lip_bound=1.0,
            eps=None,
            budget=2,
            seed=None,
            queries=np.zeros((2, 1)),
            values=np.zeros(3),
            rec_points=np.zeros((2, 1)),
            rec_values=np.zeros(2),
            certificates=None,
        )


def test_negative_certificates_rejected():
    with pytest.raises(ValueError):
        make_trace([0.0, 1.0], certs=[1.0, -0.001])


def test_nan_certificates_rejected():
    with pytest.raises(ValueError, match="NaN"):
        make_trace([0.0, 1.0], certs=[1.0, math.nan])
    # +inf stays a valid, vacuous bound
    assert make_trace([0.0, 1.0], certs=[math.inf, 0.5]).certificates[0] == math.inf
    # a NaN read back from a file must not pass certificate_validity
    doc = json.loads(trace_to_json(lc.cdoo_run(lc.get_function("tent-d1"), 0.25, 100)))
    doc["records"][2]["xi"] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        trace_from_json(json.dumps(doc))


def test_partly_missing_certificates_rejected():
    doc = json.loads(trace_to_json(make_trace([0.0, 1.0, 0.5], certs=[2.0, 1.0, 0.5])))
    del doc["records"][1]["xi"]
    with pytest.raises(ValueError, match="every record or none"):
        trace_from_json(json.dumps(doc))
    doc["records"][0]["xi"] = doc["records"][2]["xi"] = None
    assert trace_from_json(json.dumps(doc)).certificates is None


def test_recommendations_consistent_accepts_running_argmax():
    tr = make_trace([0.0, 2.0, 1.0, 2.0])
    assert recommendations_consistent(tr)


def test_recommendations_consistent_rejects_late_tie():
    # equal later value must not displace the earlier recommendation
    values = np.array([1.0, 1.0])
    queries = np.array([[0.0], [1.0]])
    tr = RunTrace(
        algorithm="stub",
        function="f",
        lip_bound=1.0,
        eps=None,
        budget=2,
        seed=None,
        queries=queries,
        values=values,
        rec_points=np.array([[0.0], [1.0]]),
        rec_values=values.copy(),
        certificates=None,
    )
    assert not recommendations_consistent(tr)


def _loop_consistent(trace):
    """The per-query loop recommendations_consistent ran before it was
    vectorised, kept as the reference."""
    running = np.maximum.accumulate(trace.values)
    if not np.array_equal(running, trace.rec_values):
        return False
    best = -math.inf
    best_idx = 0
    for i, v in enumerate(trace.values):
        if v > best:
            best = v
            best_idx = i
        if not np.array_equal(trace.rec_points[i], trace.queries[best_idx]):
            return False
    return True


_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -math.inf, math.inf, math.nan])


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_recommendations_consistent_matches_the_loop(data):
    # ties, signed zeros, infinities and NaN in values and points, then
    # a few tampered recommendation points, coordinates or values
    n = data.draw(st.integers(min_value=1, max_value=10))
    values = np.array(data.draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
    queries = np.array(
        data.draw(st.lists(st.lists(_ENTRIES, min_size=2, max_size=2), min_size=n, max_size=n))
    )
    honest = build_trace("stub", "stub-fn", 1.0, None, n, queries, values)
    rec_points = honest.rec_points.copy()
    rec_values = honest.rec_values.copy()
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        how = data.draw(st.sampled_from(["point", "coordinate", "value"]))
        if how == "point":
            rec_points[i] = queries[data.draw(st.integers(min_value=0, max_value=n - 1))]
        elif how == "coordinate":
            rec_points[i, data.draw(st.integers(min_value=0, max_value=1))] = data.draw(_ENTRIES)
        else:
            rec_values[i] = data.draw(_ENTRIES)
    trace = RunTrace(
        algorithm="stub",
        function="stub-fn",
        lip_bound=1.0,
        eps=None,
        budget=n,
        seed=None,
        queries=queries,
        values=values,
        rec_points=rec_points,
        rec_values=rec_values,
        certificates=None,
    )
    assert recommendations_consistent(trace) == _loop_consistent(trace)


def test_sigma_first_crossing():
    tr = make_trace([0.0, 0.0, 0.0], certs=[1.0, 0.5, 0.25], eps=0.5)
    assert sigma_from_trace(tr) == 2
    assert sigma_from_trace(tr, 1.0) == 1
    assert sigma_from_trace(tr, 0.25) == 3
    assert sigma_from_trace(tr, 0.1) is NOT_REACHED
    assert math.isinf(sigma_from_trace(tr, 0.1))


def test_sigma_needs_certificates():
    tr = make_trace([0.0, 1.0])
    with pytest.raises(ValueError):
        sigma_from_trace(tr, 0.5)


def test_zeta_first_true_optimality():
    tr = make_trace([0.0, 0.6, 0.9])
    assert zeta_from_trace(tr, known_max=1.0, eps=0.5) == 2
    assert zeta_from_trace(tr, known_max=1.0, eps=0.1) == 3
    assert zeta_from_trace(tr, known_max=1.0, eps=0.05) is NOT_REACHED
    assert zeta_from_trace(tr, known_max=1.0, eps=1.0) == 1


def test_certificate_validity_flags_undercover():
    tr = make_trace([0.0, 0.5], certs=[1.0, 0.2], eps=0.2)
    good = certificate_validity(tr, known_max=0.7)
    assert good.ok
    bad = certificate_validity(tr, known_max=0.8)
    assert not bad.ok
    assert bad.first_violation == 2
    assert bad.max_excess == pytest.approx(0.1)


def test_certificate_validity_tolerance():
    tr = make_trace([0.0], certs=[0.5])
    assert certificate_validity(tr, known_max=0.5 + 1e-10).ok
    assert not certificate_validity(tr, known_max=0.5 + 1e-8).ok


def test_json_round_trip_bitwise():
    fn = lc.get_function("tent-d1")
    tr = lc.cdoo_run(fn, eps=0.25, budget=50)
    back = trace_from_json(trace_to_json(tr))
    assert back.algorithm == tr.algorithm
    assert back.function == tr.function
    assert back.eps == tr.eps
    assert back.budget == tr.budget
    assert back.lip_bound == tr.lip_bound
    assert np.array_equal(back.queries, tr.queries)
    assert np.array_equal(back.values, tr.values)
    assert np.array_equal(back.rec_points, tr.rec_points)
    assert np.array_equal(back.rec_values, tr.rec_values)
    assert np.array_equal(back.certificates, tr.certificates)


def test_json_layout():
    tr = make_trace([0.25], certs=[1.0], eps=0.5)
    data = json.loads(trace_to_json(tr))
    assert set(data) == {"header", "records"}
    assert data["header"] == {
        "algorithm": "stub",
        "function": "stub-fn",
        "L": 1.0,
        "eps": 0.5,
        "budget": 1,
        "seed": None,
    }
    assert data["records"] == [
        {"n": 1, "x": [0.0], "fx": 0.25, "xstar": [0.0], "fxstar": 0.25, "xi": 1.0}
    ]


def test_uncertified_trace_serializes_without_xi():
    tr = make_trace([0.25, 0.5])
    data = json.loads(trace_to_json(tr))
    assert data["header"]["eps"] is None
    assert all("xi" not in rec for rec in data["records"])
    back = trace_from_json(trace_to_json(tr))
    assert back.certificates is None


def test_file_round_trip(tmp_path):
    fn = lc.get_function("halftent-d1")
    tr = lc.ps_run_1d(fn, eps=0.125, budget=100)
    path = tmp_path / "trace.json"
    write_trace(tr, path)
    back = read_trace(path)
    assert np.array_equal(back.queries, tr.queries)
    assert np.array_equal(back.certificates, tr.certificates)
