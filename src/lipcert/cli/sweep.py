"""Batch evaluation: run a certified optimizer across an accuracy ladder,
estimate complexities, and emit one CSV row per (function, accuracy)
pair plus log-log companion files for plotting.

Configs are flat ``key = value`` text files; unknown keys are rejected
outright so typos fail fast instead of silently using defaults.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from ..complexity import estimate_sc, sandwich_check
from ..core import (
    TestFunction,
    certificate_validity,
    diameter,
    sigma_from_trace,
    zeta_from_trace,
)
from ..core.geometry import _check_lip_bound
from ..optimizers import ALGORITHMS, CERTIFIED
from ..partition import bisection_setup
from .registry import LABELS, default_algorithm, get_function

CSV_COLUMNS = (
    "function",
    "d",
    "L",
    "Lip",
    "eps",
    "sigma",
    "zeta",
    "SC",
    "SNC",
    "integral",
    "a_bound",
    "sandwich_lower",
    "sandwich_upper",
    "verdicts",
)

@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; every field has a workable default.  Making
    one, through :func:`parse_sweep_config` or ``dataclasses.replace``
    alike, checks every field and raises ``ValueError`` for a value no
    sweep can run with."""

    functions: tuple[str, ...] = LABELS
    lip: float = 1.0
    eps_count: int = 6
    eps_floor: float = 1e-6
    budget: int = 120_000
    budgets: dict = field(default_factory=dict)
    algorithms: dict = field(default_factory=dict)
    grid_step_divisor: float = 8.0
    integral_method: str = "grid"
    mc_samples: int = 20_000
    seed: int = 0
    jobs: int = 1
    out: str = "sweep.csv"
    plot_stem: Optional[str] = None

    def __post_init__(self) -> None:
        for name in self.functions:
            if name not in LABELS:
                raise ValueError(f"unknown function {name!r} in 'functions'")
        for name in list(self.budgets) + list(self.algorithms):
            if name not in LABELS:
                raise ValueError(f"override for unknown function {name!r}")
        for name, algo in self.algorithms.items():
            if algo not in CERTIFIED:
                raise ValueError(f"unknown algorithm {algo!r} for {name!r}")
        _check_lip_bound(self.lip)
        if self.eps_count < 1:
            raise ValueError("eps-count must be at least 1")
        if not 0 <= self.eps_floor < math.inf:
            raise ValueError("eps-floor must be finite and non-negative")
        if self.budget < 1 or any(b < 1 for b in self.budgets.values()):
            raise ValueError("budgets must be positive")
        if not 8 * (1 - 1e-12) <= self.grid_step_divisor < math.inf:
            raise ValueError("grid-step-divisor must be finite and at least 8")
        if self.integral_method not in ("grid", "montecarlo"):
            raise ValueError(f"unknown integral-method {self.integral_method!r}")
        if self.mc_samples < 2:
            raise ValueError("mc-samples must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


# Config key of each scalar setting: its field name with dashes, and L
# for the bound.  The two dicts are filled from the prefixed keys.
_SCALAR_KEYS = {
    "L" if f.name == "lip" else f.name.replace("_", "-"): f.name
    for f in fields(SweepConfig)
    if f.name not in ("budgets", "algorithms")
}
_PREFIX_KEYS = ("budget.", "algorithm.")


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse a flat ``key = value`` config.

    Blank lines and ``#`` comments are ignored.  Per-function overrides
    use dotted keys, for example ``budget.tent-d1 = 4000``.  Any key
    outside the schema, or given twice, raises with the offending name
    and line; a key left out keeps the :class:`SweepConfig` default.
    """
    # key -> (line number, key, value); overrides by function name
    values: dict = {}
    overrides: dict = {prefix: {} for prefix in _PREFIX_KEYS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        prefix = next((p for p in _PREFIX_KEYS if key.startswith(p)), None)
        if key in _SCALAR_KEYS:
            table, name = values, key
        elif prefix is not None:
            table, name = overrides[prefix], key[len(prefix) :]
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if name in table:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        table[name] = (lineno, key, value.strip())

    def convert(entry: tuple, caster):
        lineno, key, value = entry
        try:
            return caster(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: key {key!r}: {exc}") from None

    defaults = SweepConfig()
    settings: dict = {}
    for key, entry in values.items():
        name = _SCALAR_KEYS[key]
        default = getattr(defaults, name)
        if name == "functions":
            names = (label.strip() for label in entry[2].split(","))
            settings[name] = tuple(label for label in names if label) or default
        else:
            settings[name] = convert(entry, str if default is None else type(default))
    budgets, algorithms = overrides.values()
    return replace(
        defaults,
        budgets={name: convert(entry, int) for name, entry in budgets.items()},
        algorithms={name: entry[2] for name, entry in algorithms.items()},
        **settings,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def _compute_row(config: SweepConfig, fn: TestFunction, eps: float) -> dict:
    label = fn.label
    algorithm = config.algorithms.get(label) or default_algorithm(fn)
    budget = config.budgets.get(label, config.budget)
    certified = ALGORITHMS[algorithm](fn, eps, budget)
    sigma = sigma_from_trace(certified, eps)
    # A valid run's recommendation is within eps of the maximum by the
    # time it certifies eps, so its own prefix holds the hitting time.
    zeta = zeta_from_trace(certified, fn.known_max, eps)
    report = estimate_sc(
        fn,
        eps,
        grid_step=(eps / fn.lip_bound) / config.grid_step_divisor,
        integral_method=config.integral_method,
        mc_samples=config.mc_samples,
        seed=config.seed,
    )
    partition, _ = bisection_setup(fn)
    ratio = 4.0 * partition.diam_bound / partition.separation
    a_factor = 1.0 + partition.arity * (
        1.0 if ratio <= 1.0 else ratio ** fn.dim
    )
    a_bound = a_factor * report.sc
    cert_ok = certificate_validity(certified, fn.known_max).ok
    # Proposition 1 bounds the certified tree search on a partition whose
    # separation constant holds; a ball restriction refutes it.
    if algorithm != "cdoo" or partition.restrict_to is not None or math.isinf(sigma):
        prop1 = "na"
    else:
        prop1 = "pass" if sigma <= 2.0 * a_bound else "fail"
    sandwich_ok = sandwich_check(report).ok
    verdicts = ";".join(
        (
            f"cert={'pass' if cert_ok else 'fail'}",
            f"prop1={prop1}",
            f"sandwich={'pass' if sandwich_ok else 'fail'}",
        )
    )
    return {
        "function": label,
        "d": fn.dim,
        "L": config.lip,
        "Lip": fn.exact_lip,
        "eps": eps,
        "sigma": sigma,
        "zeta": zeta,
        "SC": report.sc,
        "SNC": report.snc,
        "integral": report.integral,
        "a_bound": a_bound,
        "sandwich_lower": report.c_lower * report.integral,
        "sandwich_upper": report.c_upper * report.integral,
        "verdicts": verdicts,
    }


def _error_row(
    config: SweepConfig, fn: TestFunction, eps: float, exc: Exception
) -> dict:
    row = {column: "ERROR" for column in CSV_COLUMNS}
    row.update(
        {
            "function": fn.label,
            "d": fn.dim,
            "L": config.lip,
            "eps": eps,
            "verdicts": f"error:{type(exc).__name__}",
        }
    )
    return row


@dataclass(frozen=True)
class SweepResult:
    csv_path: str
    plot_paths: tuple[str, ...]
    rows: tuple[dict, ...]


def run_sweep(config: SweepConfig) -> SweepResult:
    """Execute a sweep and write its CSV and plot-data files.

    Rows are computed per (function, accuracy) pair, in parallel when
    ``jobs`` exceeds one, but always written in configuration order, so
    repeated runs of the same config produce identical bytes.  A row
    whose computation raises is emitted with ERROR cells and the
    exception type in the verdicts column; the sweep itself continues.
    """
    tasks: list[tuple[TestFunction, float]] = []
    for label in config.functions:
        fn = get_function(label, lip=config.lip)
        eps0 = fn.lip_bound * diameter(fn.domain, fn.norm)
        for j in range(1, config.eps_count + 1):
            eps = eps0 * 0.5**j
            if eps < config.eps_floor:
                break
            tasks.append((fn, eps))

    def compute(task: tuple[TestFunction, float]) -> dict:
        fn, eps = task
        try:
            return _compute_row(config, fn, eps)
        except Exception as exc:
            return _error_row(config, fn, eps, exc)

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(compute, tasks))
    else:
        rows = [compute(task) for task in tasks]

    with open(config.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[column]) for column in CSV_COLUMNS])

    stem = config.plot_stem
    if stem is None:
        stem = os.path.splitext(config.out)[0]
    plot_paths = _write_plot_data(stem, config.functions, rows)
    return SweepResult(
        csv_path=config.out, plot_paths=tuple(plot_paths), rows=tuple(rows)
    )


def _log10_or_none(value) -> Optional[float]:
    if not isinstance(value, (int, float)):
        return None
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        return None
    return math.log10(value)


def _write_plot_data(stem: str, functions: tuple[str, ...], rows: list[dict]) -> list[str]:
    """One two-column log-log file per comparison, with per-function
    blocks separated by blank lines.  Rows with undefined logs (errors,
    unreached stops) are dropped."""
    comparisons = (
        ("sigma-vs-bound", "log10(sigma) log10(2*a_bound)", "sigma",
         lambda row: 2.0 * row["a_bound"] if isinstance(row["a_bound"], float) else None),
        ("sigma-vs-zeta", "log10(sigma) log10(zeta)", "sigma", lambda row: row["zeta"]),
        ("sc-vs-integral", "log10(SC) log10(integral)", "SC", lambda row: row["integral"]),
    )
    paths = []
    for name, header, x_key, y_of in comparisons:
        path = f"{stem}.{name}.dat"
        with open(path, "w") as handle:
            handle.write(f"# {header}\n")
            for label in functions:
                block = [
                    (_log10_or_none(row[x_key]), _log10_or_none(y_of(row)))
                    for row in rows
                    if row["function"] == label
                ]
                block = [(x, y) for x, y in block if x is not None and y is not None]
                if not block:
                    continue
                handle.write(f"# function={label}\n")
                for x, y in block:
                    handle.write(f"{x!r} {y!r}\n")
                handle.write("\n")
        paths.append(path)
    return paths
