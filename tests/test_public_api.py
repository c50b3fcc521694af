"""Every public name has a caller inside the package or in a demo."""

from __future__ import annotations

import ast
from pathlib import Path

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
