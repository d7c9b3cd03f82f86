"""Static checks on the package sources that need no linter: every module
uses each name it imports (the package `__init__` re-exports, so it is
exempt), the layers above the incentive table never read raw payoffs or
payoff rows, the oracle and the assumption report never read the table or
a family's payoff rows, every library function the benchmark tracer
wraps still exists, and only errors.py holds a numeric budget default or
constructs ResourceLimitError."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "coordsolve"
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
TABLE_READERS = ("sync.py", "design.py", "ordered.py")


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


# Functions of other modules that read only the solver's incentive table.
TABLE_FUNCTIONS = (
    ("graphical.py", "reduce_to_weakest_link"),
    ("graphical.py", "_first_minimal_satisfying"),
)
# The raw-payoff routes to a strict-gain or equilibrium fact.
RAW_ROUTES = {"gains", "is_ne", "least_ne", "iterated_strict_elimination"}


def function_source(path, name):
    """Source of the module-level function `name` in `path`."""
    source = path.read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return ast.get_source_segment(source, node)
    raise LookupError(f"{path.name} defines no function {name}")


def raw_route_calls(source):
    """Names of RAW_ROUTES functions called, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in RAW_ROUTES:
                out.add(name)
    return sorted(out)


def test_detector_finds_raw_route_calls():
    source = "gains(g, 0, 1)\ncore.least_ne(g)\nx = is_ne\ngainers[1]\n"
    assert raw_route_calls(source) == ["gains", "least_ne"]


@pytest.mark.parametrize("path, name", TABLE_FUNCTIONS, ids=lambda v: v)
def test_table_functions_read_no_payoffs(path, name):
    source = function_source(SRC / path, name)
    assert payoff_reads(source) == []
    assert raw_route_calls(source) == []
    assert references(source, ROW_ROUTES) == []


@pytest.mark.parametrize("name", TABLE_READERS)
def test_table_readers_take_no_raw_route(name):
    assert raw_route_calls((SRC / name).read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_the_payoff_elimination_adapter(path):
    """Dominance in the package runs on iesds_scan over a table; the adapter
    from a payoff function, iterated_strict_elimination, is for callers
    outside it."""
    assert "iterated_strict_elimination" not in raw_route_calls(path.read_text())


# Independent ground truth: these read raw payoffs only, so that a wrong
# table builder or family rule cannot also mislead the checks against it.
GROUND_TRUTH = (
    ("oracle.py", None),
    ("core.py", "check_assumptions"),
    ("core.py", "_check_pairs"),
    ("core.py", "_equal_top_subset"),
)
# The table, its builder, and a family's rules with the gains read off them.
TABLE_ROUTES = {"incentive_table", "_build_table", "_rules", "rule_gainers", "RuleGains"}
# The row primitive.
ROW_ROUTES = {"payoff_row"}


def references(source, routes):
    """Line numbers of every reference to a name in `routes`, bare or as an
    attribute (a call, or a read that could alias it)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in routes:
            out.append(node.lineno)
    return sorted(out)


def test_detector_finds_table_references():
    source = (
        "g, l = incentive_table(game)\n"
        "f = core.incentive_table\n"
        "t = game._build_table()\n"
        "x = game.table\n"
    )
    assert references(source, TABLE_ROUTES) == [1, 2, 3]


def test_detector_finds_row_references():
    source = (
        "u = game.payoff_row(0, masks)\n"
        "x = game.payoff(0, 1)\n"
        "f = game._row\n"
        "rows = game._rows\n"
        "r = payoff_row\n"
    )
    assert references(source, ROW_ROUTES) == [1, 5]


def ground_truth_source(path, name):
    return (SRC / path).read_text() if name is None else function_source(SRC / path, name)


@pytest.mark.parametrize("path, name", GROUND_TRUTH, ids=lambda v: v)
def test_ground_truth_reads_no_incentive_table(path, name):
    assert references(ground_truth_source(path, name), TABLE_ROUTES) == []


@pytest.mark.parametrize("path, name", GROUND_TRUTH, ids=lambda v: v)
def test_ground_truth_reads_no_payoff_rows(path, name):
    """A wrong family row must not mislead the checks against it either."""
    assert references(ground_truth_source(path, name), ROW_ROUTES) == []


@pytest.mark.parametrize("name", TABLE_READERS)
def test_table_readers_read_no_payoff_rows(name):
    assert references((SRC / name).read_text(), ROW_ROUTES) == []


def test_benchmark_tracer_targets_resolve():
    """Each function the benchmark wraps (SPANNED) and counts (core.is_ne,
    and payoff evaluations through StageGame.__init__) still resolves, so
    deleting one fails here and not only in the benchmark's own self-test."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, path) for _, module, path in tracer.SPANNED]
    targets.append(("coordsolve.core", "is_ne"))
    targets.append(("coordsolve.core", "StageGame.__init__"))
    assert [t for t in targets if tracer._resolve(*t) is None] == []


# The one budget rule: errors.py holds the default and the refusal routine.
BUDGET_HOME = "errors.py"


def is_number(node):
    """Is this expression built from numeric literals alone (10**7, 5 * 10**6)?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return is_number(node.operand)
    if isinstance(node, ast.BinOp):
        return is_number(node.left) and is_number(node.right)
    return False


def numeric_budget_names(source):
    """Module-level `*_BUDGET` names bound to a number."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for t in targets:
            if isinstance(t, ast.Name) and t.id.endswith("_BUDGET") and is_number(value):
                out.append(t.id)
    return out


BUDGET_PARAMS = ("budget", "limit")


def numeric_budget_defaults(source):
    """Parameters named `budget` or `limit` whose default is a number."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        out += [a.arg for a, d in pairs if a.arg in BUDGET_PARAMS and is_number(d)]
    return out


def refusals(source):
    """Line numbers of every call constructing ResourceLimitError."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        == "ResourceLimitError"
    ]


def test_detector_finds_numeric_budget_names():
    source = (
        'ENV_BUDGET = "COORDSOLVE_BUDGET"\n'
        "DEFAULT_BUDGET = 10**7\n"
        "CHECK_BUDGET: int = 5 * 10**6\n"
        "OTHER = 3\n"
        "def f():\n"
        "    LOCAL_BUDGET = 1\n"
    )
    assert numeric_budget_names(source) == ["DEFAULT_BUDGET", "CHECK_BUDGET"]


def test_detector_finds_numeric_budget_defaults():
    source = (
        "def f(game, budget=DEFAULT_BUDGET, limit=10**6):\n"
        "    def g(x, *, budget=5 * 10**6, size=3):\n"
        "        return lambda limit=-1: limit\n"
        "def h(budget, limit=None):\n"
        "    pass\n"
    )
    assert numeric_budget_defaults(source) == ["limit", "budget", "limit"]


def test_detector_finds_refusals():
    source = (
        "try:\n"
        "    raise ResourceLimitError('x', size=1)\n"
        "except ResourceLimitError:\n"
        "    raise errors.ResourceLimitError('y')\n"
    )
    assert refusals(source) == [2, 4]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != BUDGET_HOME], ids=lambda p: p.name
)
def test_one_budget_rule(path):
    """Every capped path refuses through errors.charge, under the default
    errors.DEFAULT_BUDGET, and no module keeps a budget number of its own,
    as a name or as a parameter's default."""
    source = path.read_text()
    assert refusals(source) == []
    assert numeric_budget_names(source) == []
    assert numeric_budget_defaults(source) == []
