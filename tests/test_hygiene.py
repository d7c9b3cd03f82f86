"""Static checks on the package sources that need no linter: every module
uses each name it imports (the package `__init__` re-exports, so it is
exempt), and the layers above the incentive table never read raw payoffs."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "coordsolve"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements and never read as a bare name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, a.b\n"
        "from x import y, z as w\n"
        "w(a)\n"
    )
    assert unused_imports(source) == ["os", "y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Modules whose stage-game facts all come from the solver's incentive table.
TABLE_READERS = ("sync.py", "design.py")


def payoff_reads(source):
    """Line numbers of every `._payoff` attribute access."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_payoff"
    ]


def test_detector_finds_payoff_reads():
    source = "pay = game._payoff\nx = game.payoff(0, 1)\ny = f(g)._payoff(0, 1)\n"
    assert payoff_reads(source) == [1, 3]


@pytest.mark.parametrize("name", TABLE_READERS)
def test_no_raw_payoff_reads(name):
    assert payoff_reads((SRC / name).read_text()) == []
