"""Command-line interface: outputs, exit codes, file side effects."""

from __future__ import annotations

import json
import math
import shutil
import subprocess

import pytest

import importlib

from lipcert import LemmaSuiteVerdict
from lipcert.cli.main import build_parser, main
from lipcert.cli.sweep import parse_sweep_config
from lipcert.core import build_trace
from lipcert.optimizers import ALGORITHMS, CERTIFIED

# the package re-exports the entry function under the same name, so the
# module object has to come from the import system directly
cli_module = importlib.import_module("lipcert.cli.main")


def test_run_certified_summary_and_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main([
        "run", "--function", "tent-d1", "--eps", "0.25", "--budget", "100",
        "--out", str(out),
    ])
    assert code == 0
    line = capsys.readouterr().out
    assert line == (
        "algorithm=cdoo function=tent-d1 eps=0.25 n=5 best=-0.0 "
        "sigma=4 certificate=0.25\n"
    )
    doc = json.loads(out.read_text())
    assert doc["header"]["algorithm"] == "cdoo" and len(doc["records"]) == 5


def test_run_requires_eps_for_certified(capsys):
    assert main(["run", "--function", "tent-d1"]) == 1
    assert "accuracy target must be positive and finite, got None" in capsys.readouterr().err


def test_run_plain_twin_reports_zeta(capsys):
    code = main([
        "run", "--function", "constant-d1", "--algo", "ncdoo", "--eps", "0.25",
        "--budget", "50",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out == "algorithm=ncdoo function=constant-d1 n=50 best=0.0 zeta=1\n"


def test_run_candidate_sawtooth_two_query_stop(capsys):
    code = main([
        "run", "--function", "cone-d2", "--algo", "psgrid", "--eps", "0.5",
        "--budget", "1500",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "sigma=2" in out and "best=1.0" in out


@pytest.mark.parametrize("label", ["slope-d1", "multibump-d2"])
def test_complexity_past_float_range_exits_one(label, capsys):
    # the grid count is inf; the cap's one-line error, not a traceback
    assert main(["complexity", "--function", label, "--eps", "1e-320"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lipcert complexity: grid of inf points exceeds the cap")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_complexity_prints_only_its_error_when_the_grid_count_overflows(capsys):
    # each axis count is finite but their product is not; numpy's
    # overflow warning used to print before the error
    assert main(["complexity", "--function", "multibump-d2", "--eps", "1e-200"]) == 1
    assert capsys.readouterr().err == (
        "lipcert complexity: grid of inf points exceeds the cap of 2000000; "
        "use a coarser step or a larger accuracy target\n"
    )


def test_complexity_refuses_a_nan_grid_step(capsys):
    # it used to report that no grid points fall inside the domain
    args = ["complexity", "--function", "slope-d1", "--eps", "0.1", "--grid-step", "nan"]
    assert main(args) == 1
    assert capsys.readouterr().err == "lipcert complexity: step must be positive, got nan\n"


def test_run_psgrid_past_float_range_warns_and_stops(capsys):
    code = main([
        "run", "--function", "cone-d2", "--algo", "psgrid", "--eps", "1e-320",
        "--budget", "3",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: covering radius 0.0125998 exceeds eps/lip")
    assert captured.out.startswith("algorithm=psgrid function=cone-d2 eps=1e-320 n=1 ")


def test_run_domain_error_exits_one(capsys):
    code = main([
        "run", "--function", "tent-d1", "--algo", "ps1d", "--eps", "0.25",
        "--x1", "2.0",
    ])
    assert code == 1
    assert "outside" in capsys.readouterr().err


def test_unwritable_out_exits_one(tmp_path, capsys):
    missing = tmp_path / "missing" / "out.json"
    for argv in (
        ["run", "--function", "tent-d1", "--eps", "0.25"],
        ["complexity", "--function", "tent-d1", "--eps", "0.25"],
        ["audit", "--function", "halftent-d1", "--eps", "0.0625"],
    ):
        assert main(argv + ["--out", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"lipcert {argv[0]}: ") and str(missing) in err
    assert not missing.parent.exists()


def test_run_non_finite_evaluation_exits_one(capsys, monkeypatch, poison):
    tent = cli_module.get_function("tent-d1")
    monkeypatch.setattr(
        cli_module, "get_function",
        lambda label, lip=1.0: poison(tent, [0.25], float("nan")),
    )
    code = main(["run", "--function", "tent-d1", "--eps", "0.0625"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite value nan at x = [0.25]" in captured.err


def test_every_algorithm_runs_from_the_table(capsys):
    for name in ALGORITHMS:
        label = "cone-d2" if name == "psgrid" else "tent-d1"
        argv = ["run", "--function", label, "--algo", name, "--eps", "0.5",
                "--budget", "20"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(f"algorithm={name} ")


def test_certified_algorithms_accepted_by_sweep_and_audit():
    tent = cli_module.get_function("tent-d1")
    for name, runner in ALGORITHMS.items():
        if name != "psgrid":
            trace = runner(tent, 0.5, 20)
            assert (trace.certificates is not None) == (name in CERTIFIED)
    parser = build_parser()
    for name in CERTIFIED:
        config = parse_sweep_config(f"algorithm.tent-d1 = {name}\n")
        assert config.algorithms == {"tent-d1": name}
        args = parser.parse_args(
            ["audit", "--function", "tent-d1", "--eps", "0.1", "--algo", name]
        )
        assert args.algo == name
    with pytest.raises(ValueError, match="unknown algorithm"):
        parse_sweep_config("algorithm.tent-d1 = ncdoo\n")
    with pytest.raises(SystemExit):
        parser.parse_args(
            ["audit", "--function", "tent-d1", "--eps", "0.1", "--algo", "ncdoo"]
        )


def test_run_x1_only_for_ps1d(capsys):
    code = main(["run", "--function", "tent-d1", "--eps", "0.25", "--x1", "0.3"])
    assert code == 1
    assert "--x1 applies to ps1d only" in capsys.readouterr().err
    code = main([
        "run", "--function", "tent-d1", "--algo", "ps1d", "--eps", "0.25",
        "--x1", "0.3",
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("algorithm=ps1d ")


def test_usage_errors_exit_one():
    for argv in ([], ["frobnicate"], ["run"], ["run", "--function", "nope"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1


def test_main_reuses_one_parser_without_leaking_state(capsys, monkeypatch):
    seen = []
    run = cli_module._cmd_run
    monkeypatch.setattr(cli_module, "_cmd_run", lambda args: seen.append(args) or run(args))
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--function", "tent-d1", "--bogus"])
    assert excinfo.value.code == 1
    base = ["run", "--function", "tent-d1", "--eps", "0.25", "--budget", "20"]
    assert main(base + ["--algo", "ps1d", "--x1", "0.3"]) == 0
    assert main(base) == 0
    assert [(args.algo, args.x1) for args in seen] == [("ps1d", 0.3), ("cdoo", None)]
    assert capsys.readouterr().out.startswith("algorithm=ps1d ")
    assert build_parser() is not build_parser()


def test_out_dir_env_resolves_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LIPCERT_OUT_DIR", str(tmp_path))
    code = main([
        "run", "--function", "tent-d1", "--eps", "0.5", "--budget", "50",
        "--out", "rel.json",
    ])
    assert code == 0
    assert (tmp_path / "rel.json").exists()
    absolute = tmp_path / "abs.json"
    main([
        "run", "--function", "tent-d1", "--eps", "0.5", "--budget", "50",
        "--out", str(absolute),
    ])
    assert absolute.exists()
    capsys.readouterr()


def test_complexity_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "complexity", "--function", "tent-d1", "--eps", "0.25", "--out", str(out),
    ])
    assert code == 0
    line = capsys.readouterr().out
    assert line.startswith("function=tent-d1 eps=0.25 SC=4 SNC=2 integral=")
    assert line.rstrip().endswith("sandwich=pass")
    doc = json.loads(out.read_text())
    assert doc["c"] == 0.5 and doc["C"] == 128.0

    assert main(["complexity", "--function", "tent-d1", "--eps", "0.25",
                 "--gamma", "2.0"]) == 1
    assert "regularity" in capsys.readouterr().err
    code = main([
        "complexity", "--function", "tent-d1", "--eps", "0.25",
        "--method", "montecarlo", "--samples", "2000", "--seed", "4",
    ])
    assert code == 0
    capsys.readouterr()


def test_audit_command(tmp_path, capsys):
    out = tmp_path / "audit.json"
    code = main([
        "audit", "--function", "halftent-d1", "--eps", "0.0625", "--out", str(out),
    ])
    assert code == 0
    line = capsys.readouterr().out
    assert line == (
        "function=halftent-d1 n=23 case=outside-ball "
        "eps_tilde=0.00048828125 regret=0.00390625 coincidence=yes\n"
    )
    assert json.loads(out.read_text())["K_adv"] == 32.0

    # no Lipschitz headroom on the tent
    assert main(["audit", "--function", "tent-d1", "--eps", "0.0625"]) == 1
    assert "Lipschitz" in capsys.readouterr().err


def test_verify_suites_pass(capsys):
    assert main(["verify", "--suite", "lemmas", "--trials", "50", "--seed", "3"]) == 0
    assert capsys.readouterr().out == "PASS lemmas: 50 trials\n"

    assert main(["verify", "--suite", "assumptions", "--max-depth", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(l.startswith("PASS assumptions") for l in lines)

    assert main(["verify", "--suite", "traces"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the registry's default algorithms, both sawtooth runners, then cdoo
    # on the cone and ncdoo on the tent, also moved off the unit box, each
    # with every point queried once
    assert len(lines) == 13 and all(l.startswith("PASS traces") for l in lines)
    assert lines[-5].startswith("PASS traces (multibump-d1, ps1d): ")
    assert lines[-4].startswith("PASS traces (multibump-d2, psgrid): ")
    assert lines[-3].startswith("PASS traces (cone-d2, cdoo): ")
    assert lines[-2] == "PASS traces (tent-d1, ncdoo): consistent=True distinct=4000/4000"
    assert lines[-1] == (
        "PASS traces (tent-d1 on [0.1, 1.73], ncdoo): consistent=True distinct=4000/4000"
    )


def test_verify_failure_exits_two(capsys, monkeypatch):
    broken = LemmaSuiteVerdict(ok=False, trials_run=1, counterexample={"r": 1.0})
    monkeypatch.setattr(cli_module, "lemma_consistency_trials", lambda t, s: broken)
    assert main(["verify", "--suite", "lemmas"]) == 2
    assert "FAIL lemmas" in capsys.readouterr().out


def test_verify_traces_fails_on_a_repeated_point(capsys, monkeypatch):
    def repeating(fn, eps, budget):
        queries, values = [[0.5], [0.25], [0.5]], [0.0, -0.25, 0.0]
        rounds = [(queries, values, [math.inf] * 3)]
        return build_trace("ncdoo", fn.label, fn.lip_bound, None, budget, rounds)

    monkeypatch.setitem(ALGORITHMS, "ncdoo", repeating)
    assert main(["verify", "--suite", "traces"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "FAIL traces (tent-d1, ncdoo): consistent=True distinct=2/3"
    assert lines[-1].startswith("FAIL traces (tent-d1 on [0.1, 1.73], ncdoo): ")
    assert all(l.startswith("PASS traces") for l in lines[:-2])


def test_sweep_command(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "functions = constant-d1\neps-count = 2\nbudget = 500\n"
        f"out = {tmp_path / 'rows.csv'}\n"
    )
    code = main(["sweep", "--config", str(config)])
    assert code == 0
    assert capsys.readouterr().out == (
        f"wrote {tmp_path / 'rows.csv'} (2 rows, 0 errors) and 3 plot files\n"
    )
    assert (tmp_path / "rows.csv").exists()

    override = tmp_path / "other.csv"
    assert main(["sweep", "--config", str(config), "--out", str(override),
                 "--jobs", "2"]) == 0
    assert override.exists()
    capsys.readouterr()

    # the override goes through the config's own check, and writes nothing
    for jobs in ("0", "-3"):
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "no.csv"),
                     "--jobs", jobs]) == 1
        assert "jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "no.csv").exists()

    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err

    config.write_text("nonsense = 1\n")
    assert main(["sweep", "--config", str(config)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_console_script_entry_point():
    exe = shutil.which("lipcert")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for token in ("run", "sweep", "complexity", "audit", "verify"):
        assert token in proc.stdout


def test_cli_refuses_a_non_finite_bound_and_an_unenumerable_depth(monkeypatch, capsys):
    monkeypatch.setattr(importlib.import_module("lipcert.partition"), "_MAX_VERIFY_CELLS", 100)
    # the unit cube to depth 3 holds 585 cells; the line and square pass
    assert main(["verify", "--suite", "assumptions", "--max-depth", "3"]) == 1
    assert "585 cells, more than 100" in capsys.readouterr().err
    code = main([
        "run", "--function", "constant-d1", "--L", "inf", "--eps", "0.1", "--budget", "50",
    ])
    assert code == 1
    assert "Lipschitz bound must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "algo, label",
    [("cdoo", "tent-d1"), ("ncdoo", "tent-d1"), ("ps1d", "tent-d1"), ("psgrid", "cone-d2")],
)
def test_run_refuses_an_infinite_eps(algo, label, tmp_path, capsys):
    # cdoo used to exit 0 with sigma=1 and write "eps": Infinity
    out = tmp_path / "trace.json"
    code = main([
        "run", "--function", label, "--algo", algo, "--eps", "inf", "--budget", "50",
        "--out", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "accuracy target must be positive and finite, got inf" in captured.err
    assert not out.exists()


def test_run_prints_trace_warnings(capsys):
    # past the candidate cap the covering radius exceeds eps / L, so the
    # run stops after one query and says why
    code = main([
        "run", "--function", "cone-d2", "--algo", "psgrid", "--eps", "0.00390625",
        "--budget", "100",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: covering radius")
    assert "the target accuracy cannot be certified" in captured.err
    assert " n=1 " in captured.out
