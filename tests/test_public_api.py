"""Every public name has a caller inside the package or in a demo,
every defaulted parameter of a public function is set by some caller,
and no module imports a name it never reads."""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lipcert

ROOT = Path(__file__).resolve().parents[1]

# Kept without a caller for symmetry: L1 completes the SUP/EUCLIDEAN norm
# set, and read_trace is the inverse of write_trace.
EXEMPT = {"L1", "read_trace"}


def _references(path: Path) -> set[str]:
    """Names a module reads, as bare names or attributes.  Imports,
    ``__all__`` strings, docstrings and definitions do not count."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
    return refs


def test_every_public_name_is_reached():
    files = list((ROOT / "src" / "lipcert").rglob("*.py")) + list((ROOT / "demos").glob("*.py"))
    reached = set().union(*map(_references, files))
    unreached = sorted(set(lipcert.__all__) - reached - EXEMPT)
    assert unreached == [], f"public names with no caller: {unreached}"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the demos count as callers above, so each must run as shipped, in
    # its own process and from a directory other than the checkout
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


# Defaulted parameters set only where the callee cannot be named, each
# with where that is.
EXEMPT_PARAMETERS = {
    ("ps_run_1d", "x1"): "`lipcert run --x1` binds it with partial() on the "
    "runner it looked up in ALGORITHMS",
}


def _callee(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _parameters_set(path: Path) -> set[tuple[str, object]]:
    """``(function, keyword)`` for every keyword a call passes, and
    ``(function, index)`` for every positional argument, ``index`` being
    ``"*"`` for a starred one.  A ``partial`` of a named function counts
    as a call with the arguments bound after it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        found.update((name, kw.arg) for kw in node.keywords if kw.arg)
        found.update(
            (name, "*" if isinstance(arg, ast.Starred) else index)
            for index, arg in enumerate(args)
        )
    return found


def test_every_defaulted_parameter_is_set_by_a_caller():
    files = (
        list((ROOT / "src" / "lipcert").rglob("*.py"))
        + list((ROOT / "demos").glob("*.py"))
        + list((ROOT / "perfbench").glob("*.py"))
    )
    found = set().union(*map(_parameters_set, files))
    unset = []
    for name in lipcert.__all__:
        function = getattr(lipcert, name)
        if not inspect.isfunction(function):
            continue
        for index, param in enumerate(inspect.signature(function).parameters.values()):
            if param.default is param.empty or (name, param.name) in EXEMPT_PARAMETERS:
                continue
            ways = {(name, param.name)}
            if param.kind is param.POSITIONAL_OR_KEYWORD:
                ways |= {(name, index), (name, "*")}
            if not ways & found:
                unset.append(f"{name}.{param.name}")
    assert unset == [], f"defaulted parameters no caller sets: {unset}"


def _unread_imports(path: Path) -> list[str]:
    """Names an import binds in a module and no expression reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # a package __init__ imports names to re-export them
    stale = {
        str(path.relative_to(ROOT)): names
        for path in sorted((ROOT / "src" / "lipcert").rglob("*.py"))
        if path.name != "__init__.py" and (names := _unread_imports(path))
    }
    assert stale == {}, f"imported but never read: {stale}"
