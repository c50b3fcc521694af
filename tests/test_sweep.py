"""Config parsing and batch-sweep output files."""

from __future__ import annotations

import csv
import math

import pytest

from lipcert import LABELS, get_function, ncdoo_run, ps_run_grid, zeta_from_trace
from lipcert.cli.sweep import (
    CSV_COLUMNS,
    SweepConfig,
    parse_sweep_config,
    run_sweep,
)


def read_rows(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


def small_config(tmp_path, extra=""):
    return parse_sweep_config(
        "functions = constant-d1, tent-d1\n"
        "eps-count = 3\n"
        "budget = 2000\n"
        f"out = {tmp_path / 'small.csv'}\n" + extra
    )


def test_defaults_from_empty_config():
    config = parse_sweep_config("")
    assert config == SweepConfig()
    assert config.functions == LABELS
    assert config.eps_count == 6
    assert config.out == "sweep.csv"
    assert config.plot_stem is None


def test_full_config_round_trip():
    config = parse_sweep_config(
        """
        # comment-only lines and blanks are skipped
        functions = tent-d1, cone-d2
        L = 2.0
        eps-count = 4
        eps-floor = 1e-3
        budget = 500   # trailing comments too
        budget.tent-d1 = 40
        algorithm.cone-d2 = psgrid
        grid-step-divisor = 16
        integral-method = montecarlo
        mc-samples = 1000
        seed = 9
        jobs = 2
        out = here.csv
        plot-stem = plots/sweep
        """
    )
    assert config.functions == ("tent-d1", "cone-d2")
    assert config.lip == 2.0 and config.eps_count == 4 and config.eps_floor == 1e-3
    assert config.budget == 500 and config.budgets == {"tent-d1": 40}
    assert config.algorithms == {"cone-d2": "psgrid"}
    assert config.grid_step_divisor == 16.0
    assert config.integral_method == "montecarlo" and config.mc_samples == 1000
    assert config.seed == 9 and config.jobs == 2
    assert config.out == "here.csv" and config.plot_stem == "plots/sweep"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("colour = red", "unknown key"),
        ("just words", "key = value"),
        ("seed = 1\nseed = 2", "duplicate"),
        ("functions = warp-d9", "unknown function"),
        ("budget.warp-d9 = 10", "unknown function"),
        ("algorithm.tent-d1 = sgd", "unknown algorithm"),
        ("eps-count = 0", "at least 1"),
        ("eps-floor = nan", "eps-floor must be finite and non-negative"),
        ("eps-floor = inf", "eps-floor must be finite and non-negative"),
        ("eps-floor = -1e-3", "eps-floor must be finite and non-negative"),
        ("L = 0", "positive"),
        ("L = inf", "Lipschitz bound must be positive and finite"),
        ("L = nan", "Lipschitz bound must be positive and finite"),
        ("budget = 0", "positive"),
        ("budget.tent-d1 = 0", "positive"),
        ("grid-step-divisor = 4", "at least 8"),
        ("grid-step-divisor = inf", "finite and at least 8"),
        ("grid-step-divisor = nan", "finite and at least 8"),
        ("integral-method = simpson", "integral-method"),
        ("jobs = 0", "at least 1"),
        ("mc-samples = 1", "mc-samples must be at least 2"),
        ("mc-samples = 0", "mc-samples must be at least 2"),
        ("seed = -1", "seed must be non-negative"),
        ("budget = many", "budget"),
        ("budget.tent-d1 = 1\nbudget.tent-d1 = 2", "line 2: duplicate key 'budget.tent-d1'"),
        ("algorithm.cone-d2 = cdoo\n\nalgorithm.cone-d2 = psgrid", "line 3: .*'algorithm.cone-d2'"),
        ("seed = 1\nbudget.tent-d1 = abc", "line 2: key 'budget.tent-d1': invalid"),
        ("seed = x", "line 1: key 'seed'"),
    ],
)
def test_config_rejections(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_sweep_config(text)


def test_small_sweep_rows_frozen(tmp_path):
    result = run_sweep(small_config(tmp_path))
    header, rows = read_rows(result.csv_path)
    assert header == list(CSV_COLUMNS)
    assert len(rows) == 6
    by_fn = {}
    for row in rows:
        by_fn.setdefault(row[0], []).append(row)
    assert [r[4] for r in by_fn["constant-d1"]] == ["0.5", "0.25", "0.125"]
    assert [r[5] for r in by_fn["constant-d1"]] == ["4", "8", "16"]
    assert [r[5] for r in by_fn["tent-d1"]] == ["4", "4", "8"]
    assert {r[6] for r in rows} == {"1"}
    assert {r[3] for r in by_fn["constant-d1"]} == {"0.0"}
    assert {r[3] for r in by_fn["tent-d1"]} == {"1.0"}
    assert {r[-1] for r in rows} == {"cert=pass;prop1=pass;sandwich=pass"}
    # the greedy certified count and the exact flat-gap integral
    assert [r[7] for r in by_fn["constant-d1"]] == ["2", "4", "8"]
    assert [r[9] for r in by_fn["constant-d1"]] == ["2.0", "4.0", "8.0"]


def test_sweep_determinism_and_thread_equivalence(tmp_path):
    first = run_sweep(small_config(tmp_path))
    bytes_first = open(first.csv_path, "rb").read()
    plots_first = [open(p, "rb").read() for p in first.plot_paths]

    again = run_sweep(small_config(tmp_path))
    assert open(again.csv_path, "rb").read() == bytes_first

    threaded = run_sweep(small_config(tmp_path, extra="jobs = 3\n"))
    assert open(threaded.csv_path, "rb").read() == bytes_first
    for path, blob in zip(threaded.plot_paths, plots_first):
        assert open(path, "rb").read() == blob


def test_cdoo_zeta_equals_the_plain_twin(tmp_path):
    # the certified run's own prefix replaces a full-budget plain run
    config = parse_sweep_config(
        "functions = slope-d1, cone-d2\n"
        "algorithm.cone-d2 = cdoo\n"
        "eps-count = 4\n"
        "budget = 1000\n"
        f"out = {tmp_path / 'twin.csv'}\n"
    )
    _, rows = read_rows(run_sweep(config).csv_path)
    assert len(rows) == 8
    for row in rows:
        fn = get_function(row[0])
        twin = zeta_from_trace(ncdoo_run(fn, 1000), fn.known_max, float(row[4]))
        assert row[6] == str(twin), row
    # no cone query repeats a point, so 0.25 and 0.125 take 6 and 18
    assert [r[6] for r in rows] == ["1", "2", "4", "6", "1", "2", "6", "18"]


def test_cone_row_reads_its_own_run_and_skips_prop1(tmp_path):
    # The cone runs psgrid by default, and a cdoo run there searches a
    # ball-restricted partition, whose separation constant is refuted:
    # Proposition 1 applies to neither.
    rows = {}
    for name, override in (("default", ""), ("cdoo", "algorithm.cone-d2 = cdoo\n")):
        config = parse_sweep_config(
            "functions = cone-d2\n"
            "eps-count = 3\n"
            "budget = 1000\n"
            f"out = {tmp_path / name}.csv\n" + override
        )
        _, rows[name] = read_rows(run_sweep(config).csv_path)
        assert len(rows[name]) == 3
        for row in rows[name]:
            assert row[-1] == "cert=pass;prop1=na;sandwich=pass"
    cone = get_function("cone-d2")
    for row in rows["default"]:
        eps = float(row[4])
        own = ps_run_grid(cone, eps, 1000)
        assert row[6] == str(zeta_from_trace(own, cone.known_max, eps))
    # a plain tree-search twin needed 7 queries at 2^-3
    assert [r[6] for r in rows["default"]] == ["1", "2", "2"]


def test_budget_cap_yields_inf_sigma_not_an_error(tmp_path):
    config = parse_sweep_config(
        "functions = constant-d1\n"
        "eps-count = 3\n"
        "budget.constant-d1 = 4\n"
        f"out = {tmp_path / 'cap.csv'}\n"
    )
    _, rows = read_rows(run_sweep(config).csv_path)
    assert [r[5] for r in rows] == ["4", "inf", "inf"]
    assert rows[1][-1] == "cert=pass;prop1=na;sandwich=pass"


def test_algorithm_mismatch_becomes_error_row(tmp_path):
    config = parse_sweep_config(
        "functions = constant-d1, tent-d1\n"
        "eps-count = 2\n"
        "budget = 2000\n"
        "algorithm.tent-d1 = psgrid\n"
        f"out = {tmp_path / 'err.csv'}\n"
    )
    result = run_sweep(config)
    _, rows = read_rows(result.csv_path)
    tent_rows = [r for r in rows if r[0] == "tent-d1"]
    assert len(tent_rows) == 2
    for row in tent_rows:
        assert row[-1] == "error:ValueError"
        assert row[5] == "ERROR" and row[7] == "ERROR"
        assert row[1] == "1"
    good = [r for r in rows if r[0] == "constant-d1"]
    assert all(r[-1] == "cert=pass;prop1=pass;sandwich=pass" for r in good)
    # error rows cannot be plotted and their block is dropped entirely
    for path in result.plot_paths:
        text = open(path).read()
        assert "# function=constant-d1" in text
        assert "tent-d1" not in text


def test_eps_floor_truncates_the_ladder(tmp_path):
    config = parse_sweep_config(
        "functions = constant-d1\n"
        "eps-count = 6\n"
        "eps-floor = 0.2\n"
        "budget = 2000\n"
        f"out = {tmp_path / 'floor.csv'}\n"
    )
    _, rows = read_rows(run_sweep(config).csv_path)
    assert [r[4] for r in rows] == ["0.5", "0.25"]


def test_plot_files_structure(tmp_path):
    result = run_sweep(small_config(tmp_path))
    suffixes = [p.rsplit("small.", 1)[1] for p in result.plot_paths]
    assert suffixes == [
        "sigma-vs-bound.dat", "sigma-vs-zeta.dat", "sc-vs-integral.dat",
    ]
    _, rows = read_rows(result.csv_path)
    first = rows[0]
    lines = open(result.plot_paths[0]).read().splitlines()
    assert lines[0] == "# log10(sigma) log10(2*a_bound)"
    assert lines[1] == "# function=constant-d1"
    x, y = (float(v) for v in lines[2].split())
    assert x == pytest.approx(math.log10(float(first[5])))
    assert y == pytest.approx(math.log10(2.0 * float(first[10])))
    assert "# function=tent-d1" in lines
    # one blank separator after each block
    assert lines.count("") >= 1


def test_plot_stem_override(tmp_path):
    config = small_config(tmp_path, extra=f"plot-stem = {tmp_path / 'renamed'}\n")
    result = run_sweep(config)
    assert all(str(tmp_path / "renamed.") in p for p in result.plot_paths)
