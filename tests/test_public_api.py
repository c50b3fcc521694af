"""Every public name has a caller inside the package or in a demo,
every defaulted parameter of a public function is set by some caller,
no module imports a name it never reads, and the README names every
command-line flag and sweep config key."""

from __future__ import annotations

import argparse
import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lipcert
from lipcert.cli.main import build_parser
from lipcert.cli.sweep import _PREFIX_KEYS, _SCALAR_KEYS

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


def _callee(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _parameters_set(path: Path) -> set[tuple[str, object]]:
    """``(function, keyword)`` for every keyword a call passes, and
    ``(function, index)`` for every positional argument, ``index`` being
    ``"*"`` for a starred one."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        name = _callee(node.func)
        found.update((name, kw.arg) for kw in node.keywords if kw.arg)
        found.update(
            (name, "*" if isinstance(arg, ast.Starred) else index)
            for index, arg in enumerate(node.args)
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
            if param.default is param.empty:
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


def test_readme_names_every_flag_and_config_key():
    readme = (ROOT / "README.md").read_text()
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }
    unnamed = [f for f in sorted(flags) if not re.search(re.escape(f) + r"(?![\w-])", readme)]
    # config keys count where a line of the README sets them
    written = re.findall(r"^([\w.-]+) =", readme, re.MULTILINE)
    unnamed += [key for key in sorted(_SCALAR_KEYS) if key not in written]
    unnamed += [p for p in _PREFIX_KEYS if not any(w.startswith(p) for w in written)]
    assert unnamed == [], f"flags and config keys the README does not name: {unnamed}"
