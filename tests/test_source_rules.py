"""Rules on the package source itself, which no behavioural test sees."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def test_core_does_not_import_chordal_power():
    # core holds the graph, the search and the Γ test the search uses;
    # chordal_power builds on it, never the other way round.
    tree = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.append(module)
            imported.extend(f"{module}.{alias.name}".lstrip(".") for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert not [name for name in imported if "chordal_power" in name.split(".")]


def test_cli_import_leaves_out_the_process_pool():
    # Only parallel campaigns start a pool; every other command would pay
    # for importing it at start-up.
    script = (
        "import sys\n"
        "import bipower.cli\n"
        "print(*sorted(name for name in ('concurrent.futures.process', 'multiprocessing') if name in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
