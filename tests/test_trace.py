"""Run traces: invariants, stopping indices, validity, serialization."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lipcert as lc
from lipcert.cli import main
from lipcert.core import build_trace
from lipcert.optimizers import ALGORITHMS, CERTIFIED
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
            queries=np.zeros((2, 1)),
            values=np.zeros(3),
            rec_points=np.zeros((2, 1)),
            rec_values=np.zeros(2),
            certificates=None,
        )


@pytest.mark.parametrize("column", ["queries", "rec_points"])
@pytest.mark.parametrize("n", [1, 2])
def test_point_columns_must_be_n_by_d(column, n):
    # A flat column once read as one record of dimension n.
    fields = dict(
        algorithm="stub", function="f", lip_bound=1.0, eps=None, budget=n,
        queries=np.full((n, 1), 0.3), values=np.zeros(n),
        rec_points=np.full((n, 1), 0.3), rec_values=np.zeros(n), certificates=None,
    )
    fields[column] = np.array([0.3, 0.4][:n])
    with pytest.raises(ValueError, match=rf"{column} must have shape \(n, d\), got shape \({n},\)"):
        RunTrace(**fields)
    fields[column] = np.zeros((n, 1, 1))
    with pytest.raises(ValueError, match=rf"got shape \({n}, 1, 1\)"):
        RunTrace(**fields)


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
    honest = build_trace("stub", "stub-fn", 1.0, None, n, [(queries, values, [math.inf] * n)])
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
        queries=queries,
        values=values,
        rec_points=rec_points,
        rec_values=rec_values,
        certificates=None,
    )
    assert recommendations_consistent(trace) == _loop_consistent(trace)


def _rounds(certificates, pulled):
    # round j queries one point per certificate, 10 j + i, of value j,
    # and logs in pulled each time it is advanced
    for j, certs in enumerate(certificates):
        pulled.append(j)
        points = 10.0 * j + np.arange(len(certs), dtype=float)[:, None]
        yield points, [float(j)] * len(certs), list(certs)


def _loop(eps, budget, certificates):
    pulled = []
    trace = build_trace("stub", "stub-fn", 1.0, eps, budget, _rounds(certificates, pulled))
    return trace, pulled


def test_build_trace_records_the_round_that_passes_eps_in_full():
    trace, pulled = _loop(1.0, 100, [[4.0], [3.0, 0.5, 0.25], [0.1]])
    assert trace.certificates.tolist() == [4.0, 3.0, 0.5, 0.25]
    assert trace.queries.ravel().tolist() == [0.0, 10.0, 11.0, 12.0]
    assert pulled == [0, 1]
    assert recommendations_consistent(trace)


def test_build_trace_stops_at_the_budget():
    trace, pulled = _loop(0.01, 5, [[4.0, 3.0], [2.0, 1.0], [0.5, 0.25], [0.1]])
    # the round that spends the budget is recorded up to it
    assert trace.certificates.tolist() == [4.0, 3.0, 2.0, 1.0, 0.5]
    assert trace.values.tolist() == [0.0, 0.0, 1.0, 1.0, 2.0]
    assert trace.queries.shape == (5, 1)
    assert pulled == [0, 1, 2]
    trace, pulled = _loop(0.01, 4, [[4.0, 3.0], [2.0, 1.0], [0.5]])
    assert len(trace) == 4 and pulled == [0, 1]


def test_build_trace_stops_when_the_rounds_end():
    trace, pulled = _loop(0.01, 100, [[4.0], [3.0, 2.0]])
    assert trace.certificates.tolist() == [4.0, 3.0, 2.0]
    assert trace.budget == 100 and pulled == [0, 1]


def test_build_trace_without_eps_keeps_no_certificates_and_has_no_accuracy_stop():
    trace, pulled = _loop(None, 3, [[0.0], [0.0], [0.0], [0.0]])
    assert trace.certificates is None and trace.eps is None
    assert len(trace) == 3 and pulled == [0, 1, 2]


def test_build_trace_never_advances_the_rounds_past_the_stop():
    def rounds():
        yield np.zeros((1, 2)), [0.0], [0.5]
        raise AssertionError("advanced past the stop")

    assert len(build_trace("stub", "stub-fn", 1.0, 0.5, 10, rounds())) == 1
    assert len(build_trace("stub", "stub-fn", 1.0, None, 1, rounds())) == 1
    # and checks its arguments before the first round
    with pytest.raises(ValueError, match="budget must be a positive integer"):
        build_trace("stub", "stub-fn", 1.0, 0.5, 0, iter([()]))


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


def _oracle_json(trace):
    """The dict-and-``json.dumps`` writer that trace_to_json replaced,
    kept as the reference for its bytes."""
    records = []
    for i in range(len(trace)):
        record = {
            "n": i + 1,
            "x": [float(v) for v in trace.queries[i]],
            "fx": float(trace.values[i]),
            "xstar": [float(v) for v in trace.rec_points[i]],
            "fxstar": float(trace.rec_values[i]),
        }
        if trace.certificates is not None:
            record["xi"] = float(trace.certificates[i])
        records.append(record)
    doc = {
        "header": {
            "algorithm": trace.algorithm,
            "function": trace.function,
            "L": float(trace.lip_bound),
            "eps": None if trace.eps is None else float(trace.eps),
            "budget": int(trace.budget),
            "seed": None,
        },
        "records": records,
    }
    return json.dumps(doc, indent=2)


def _bowl_d3():
    peak = np.array([0.37, 0.61, 0.2])
    return lc.TestFunction(
        label="bowl-d3",
        domain=lc.Box(np.zeros(3), np.ones(3)),
        norm=lc.SUP,
        lip_bound=1.0,
        evaluator=lambda x: -np.abs(x - peak).max(axis=1),
    )


def _algorithm_runs():
    for fn in (*lc.registry(), _bowl_d3()):
        for algo in ALGORITHMS:
            if algo == "ps1d" and fn.dim != 1 or algo == "psgrid" and fn.dim == 1:
                continue
            yield pytest.param(fn, algo, id=f"{algo}-{fn.label}")


@pytest.mark.parametrize("fn, algo", _algorithm_runs())
def test_json_bytes_match_the_oracle(fn, algo):
    trace = ALGORITHMS[algo](fn, fn.lip_bound * 2.0**-4, 1500)
    assert (trace.certificates is not None) == (algo in CERTIFIED)
    assert trace_to_json(trace) == _oracle_json(trace)


def _edge_trace(queries, values, certificates, **header):
    # rounds without certificates are built as a run that certifies
    # nothing, and then take the header's eps
    eps = None if certificates is None else 0.5
    if certificates is None:
        certificates = [math.inf] * len(values)
    trace = build_trace("stub", "stub-fn", 1.0, eps, len(values), [(queries, values, certificates)])
    return replace(trace, **{"eps": 0.5, **header})


@pytest.mark.parametrize(
    "trace",
    [
        _edge_trace([[0.5]], [0.25], [math.inf]),
        _edge_trace([[-0.0, 5e-324], [1e308, -1e-310]], [-0.0, 1e308], [math.inf, 2.5e-320]),
        _edge_trace([[1e-310, -0.0, 0.1]], [-1e308], None, eps=None),
        _edge_trace([[0.0], [1.0]], [-math.inf, 1.0], [math.inf, 0.0]),
        _edge_trace(np.zeros((2, 0)), [0.0, 1.0], None),
        _edge_trace(
            [[0.1], [0.2]], [1.0, 2.0], None,
            algorithm='say "hi"\\', function="f\u00e9\u2603-\U0001f600\n", lip_bound=1e308,
        ),
    ],
    ids=[
        "one-record-inf-xi",
        "zeros-subnormals-huge",
        "plain-d3",
        "neg-inf-value",
        "no-coordinates",
        "labels",
    ],
)
def test_json_bytes_match_the_oracle_on_edge_values(trace):
    assert trace_to_json(trace) == _oracle_json(trace)


def test_run_out_writes_the_oracle_bytes(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["run", "--function", "multibump-d2", "--eps", "0.1", "--out", str(out)]) == 0
    capsys.readouterr()
    trace = lc.cdoo_run(lc.get_function("multibump-d2"), 0.1, 100_000)
    assert out.read_bytes() == (_oracle_json(trace) + "\n").encode()


@pytest.mark.parametrize("field", ["x", "fx", "xstar", "fxstar"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reader_rejects_non_finite_data(field, bad):
    doc = json.loads(trace_to_json(lc.cdoo_run(lc.get_function("cone-d2"), 0.25, 10)))
    if field in ("x", "xstar"):
        doc["records"][3][field][1] = bad
    else:
        doc["records"][3][field] = bad
    with pytest.raises(ValueError, match=f"record 4 has a non-finite {field}$"):
        trace_from_json(json.dumps(doc))


def test_reader_keeps_infinite_certificates():
    trace = make_trace([0.0, 1.0], certs=[math.inf, 0.5], eps=0.5)
    back = trace_from_json(trace_to_json(trace))
    assert np.array_equal(back.certificates, trace.certificates)


@pytest.mark.parametrize("edit", ["swap", "duplicate", "renumber", "missing"])
def test_reader_rejects_records_out_of_position(edit):
    doc = json.loads(trace_to_json(lc.cdoo_run(lc.get_function("tent-d1"), 0.25, 100)))
    records = doc["records"]
    if edit == "swap":
        records[1], records[2] = records[2], records[1]
    elif edit == "duplicate":
        records.insert(2, dict(records[1]))
    elif edit == "renumber":
        records[2]["n"] = 2
    else:
        del records[2]["n"]
    with pytest.raises(ValueError, match="record (2|3) has n = "):
        trace_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "key, value, fragment",
    [
        ("budget", 2.5, "budget must be a positive integer"),
        ("budget", True, "budget must be a positive integer"),
        ("budget", 0, "budget must be a positive integer"),
        ("budget", 1, "5 records exceed the budget of 1"),
        ("L", -1, "Lipschitz bound must be positive"),
        ("L", math.nan, "Lipschitz bound must be positive"),
        ("eps", -0.5, "accuracy target must be positive"),
    ],
)
def test_reader_rejects_headers_no_run_produces(key, value, fragment):
    doc = json.loads(trace_to_json(lc.cdoo_run(lc.get_function("tent-d1"), 0.25, 100)))
    assert len(doc["records"]) == 5
    # a budget the run spent in full still reads back
    doc["header"]["budget"] = 5
    assert trace_from_json(json.dumps(doc)).budget == 5
    doc["header"][key] = value
    with pytest.raises(ValueError, match=fragment):
        trace_from_json(json.dumps(doc))


def test_trace_needs_records_and_one_certificate_per_record():
    empty = dict(
        algorithm="stub", function="f", lip_bound=1.0, eps=None, budget=1,
        queries=np.zeros((0, 1)), values=np.zeros(0), rec_points=np.zeros((0, 1)),
        rec_values=np.zeros(0), certificates=None,
    )
    with pytest.raises(ValueError, match="at least one query"):
        RunTrace(**empty)
    with pytest.raises(ValueError, match="one entry per record"):
        make_trace([0.0, 1.0, 0.5], certs=[1.0, 0.5], eps=0.5)


@pytest.mark.parametrize(
    "check, certified, known_max, fragment",
    [
        (certificate_validity, False, 1.0, "carries no certificates"),
        (lambda tr, m: zeta_from_trace(tr, m), True, None, "finite known maximum"),
        (lambda tr, m: zeta_from_trace(tr, m), True, math.inf, "finite known maximum"),
        (certificate_validity, True, None, "finite known maximum"),
    ],
    ids=["validity-uncertified", "zeta-no-max", "zeta-inf-max", "validity-no-max"],
)
def test_trace_statistics_refuse_what_they_cannot_measure(check, certified, known_max, fragment):
    certs = [1.0, 0.5] if certified else None
    tr = make_trace([0.0, 1.0], certs=certs, eps=0.5)
    with pytest.raises(ValueError, match=fragment):
        check(tr, known_max)


def test_reader_rejects_a_document_without_records():
    doc = json.loads(trace_to_json(make_trace([0.0, 1.0])))
    doc["records"] = []
    with pytest.raises(ValueError, match="contains no records"):
        trace_from_json(json.dumps(doc))
