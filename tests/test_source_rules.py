"""Rules on the package source itself, which no behavioural test sees."""

from __future__ import annotations

import ast
from pathlib import Path

import bipower

SRC = Path(bipower.__file__).parent


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so guards on the paper's claims
    # and on inputs must raise explicitly.
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 7
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in src: {found}"
