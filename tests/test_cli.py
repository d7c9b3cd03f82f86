import contextlib
import copy
import io
import json
import random
import resource
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from coordsolve import Digraph, members, ordered, table_game, weakest_link_horizon
from coordsolve.cli import ParseError, main, parse_game
from coordsolve.ordered import classify, ordered_min_horizon
from coordsolve.sync import SyncSolver

from util import (
    README_TABLE_ROWS,
    clique_edges,
    count_table_builds,
    emit_game,
    hub_intervention_graph,
    ne_set_reference,
    parse_payoff_rows_reference,
    random_game,
    table_documents,
    two_triangles_graph,
)


def write_game(tmp_path, doc, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def hub_doc():
    return {
        "players": 9,
        "kind": "weakest_link",
        "edges": [list(e) for e in sorted(hub_intervention_graph().edges)],
    }


def triangles_doc():
    return {
        "players": 8,
        "kind": "weakest_link",
        "edges": [list(e) for e in sorted(two_triangles_graph().edges)],
    }


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# -- parse_game -----------------------------------------------------------------


def test_parse_table_document_attaches_report():
    doc = {
        "players": 2,
        "kind": "table",
        "payoffs": [[1, 0, 3, 2], [1, 2, 0, 3]],
    }
    game = parse_game(doc)
    assert game.n == 2
    assert not game.report.deviation_proof


def test_parse_game_defers_report():
    game = parse_game(triangles_doc())
    assert "report" not in game.__dict__
    assert game.report.satisfies_assumptions
    assert "report" in game.__dict__


def test_parse_weakest_link_star():
    doc = {
        "players": 7,
        "kind": "weakest_link",
        "edges": [[0, j] for j in range(1, 7)] + [[j, 0] for j in range(1, 7)],
    }
    game = parse_game(doc)
    assert game.kind == "weakest_link"
    assert game.report.satisfies_assumptions


def test_parse_aggregative():
    game = parse_game({"players": 3, "kind": "aggregative", "c": [2, 2, 2]})
    assert game.params["c"] == (2, 2, 2)


def test_parse_rational_strings():
    doc = {
        "players": 1,
        "kind": "table",
        "payoffs": [["0", "-1/2"]],
    }
    game = parse_game(doc)
    from fractions import Fraction

    assert game.payoff(0, 1) == Fraction(-1, 2)


def test_parse_errors_carry_paths():
    with pytest.raises(ParseError) as info:
        parse_game({"players": 2, "kind": "table", "payoffs": [[1, 2, 3, 4]]})
    assert ".payoffs" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_game(
            {"players": 1, "kind": "table", "payoffs": [[0, 0.5]]}
        )
    assert "payoffs[0][1]" in str(info.value)
    with pytest.raises(ParseError):
        parse_game({"players": 2, "kind": "sudoku"})


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"players": True, "kind": "table", "payoffs": [[0, 1]]}, "$.players:"),
        (
            {"players": 3, "kind": "aligned_nsg", "in_starts": [2, 1, 0], "nested": "no"},
            "$.nested: expected a boolean",
        ),
    ],
    ids=["players", "nested"],
)
def test_mistyped_scalars_name_their_path(tmp_path, capsys, doc, where):
    assert main(["ordered", "--game", write_game(tmp_path, doc)]) == 1
    assert where in capsys.readouterr().err


def test_emit_round_trip():
    docs = [
        {"players": 2, "kind": "table", "payoffs": [[1, 0, 3, 2], [1, 2, 0, 3]]},
        triangles_doc(),
        {"players": 3, "kind": "aggregative", "c": [1, 1, 2]},
        {
            "players": 3,
            "kind": "threshold",
            "edges": [[0, 1], [1, 0], [0, 2], [1, 2]],
            "k": [1, 1, 2],
        },
    ]
    for doc in docs:
        game = parse_game(doc)
        twin = parse_game(emit_game(game))
        for i in range(game.n):
            for X in range(1 << game.n):
                assert game.payoff(i, X) == twin.payoff(i, X)


# -- subcommands ------------------------------------------------------------------


def test_tau_subcommand(tmp_path, capsys):
    path = write_game(tmp_path, hub_doc())
    code = main(["tau", "--game", path, "--target", "5,6,7,8,9"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "4"


def test_tau_json_schema(tmp_path, capsys):
    path = write_game(tmp_path, hub_doc())
    code, payload = run_json(
        capsys, ["tau", "--game", path, "--target", "5,6,7,8,9", "--json"]
    )
    assert code == 0
    assert payload == {"target": [5, 6, 7, 8, 9], "tau": 4}


def threshold22_doc():
    """22 players, each with three in-neighbours drawn by random.Random(22)
    and a threshold of 2 or 3."""
    rng = random.Random(22)
    edges = []
    for v in range(22):
        edges += [[u, v] for u in rng.sample([u for u in range(22) if u != v], 3)]
    k = [rng.choice([2, 3]) for _ in range(22)]
    return {"players": 22, "kind": "threshold", "edges": edges, "k": k}


def test_tau_on_22_player_threshold_document(tmp_path, capsys):
    """The recursion's limits cut this query down to a few dozen contexts
    (165,863 exact ones without them).  The work is bounded by the entries
    the solver keeps, not by a time."""
    doc = threshold22_doc()
    path = write_game(tmp_path, doc, "th22.json")
    assert main(["tau", "--game", path, "--target", "1"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    solver = SyncSolver(parse_game(doc))
    assert solver.min_horizon(1) == 4
    assert len(solver._memo) + len(solver._lower) < 1000


def test_outcomes_json_schema(tmp_path, capsys):
    path = write_game(tmp_path, triangles_doc())
    code, payload = run_json(
        capsys, ["outcomes", "--game", path, "--t", "2", "--json"]
    )
    assert code == 0
    assert payload == {
        "t": 2,
        "outcomes": [[], [1, 2, 3], [4, 5, 6], [1, 2, 3, 4, 5, 6, 7, 8]],
    }


def test_phi_json_schema(tmp_path, capsys):
    path = write_game(tmp_path, triangles_doc())
    code, payload = run_json(capsys, ["phi", "--game", path, "--t", "3", "--json"])
    assert code == 0
    assert payload == {"t": 3, "phi": [1, 2, 3, 4, 5, 6, 7, 8]}


def test_phi_degenerate_all_dominant(tmp_path, capsys):
    # both players' action 1 strictly dominant: the full set at horizon 1
    doc = {"players": 2, "kind": "table", "payoffs": [[0, 1, 0, 2], [0, 0, 1, 2]]}
    path = write_game(tmp_path, doc)
    code, payload = run_json(capsys, ["phi", "--game", path, "--t", "1", "--json"])
    assert code == 0
    assert payload == {"t": 1, "phi": [1, 2]}


def test_candidate_flags_are_usage_errors(tmp_path, capsys):
    # the τ recursion has one candidate rule, so no subcommand takes one
    path = write_game(tmp_path, triangles_doc())
    for argv in (
        ["tau", "--target", "1,2,3"],
        ["phi", "--t", "2"],
        ["outcomes", "--t", "2"],
        ["horizons"],
        ["check"],
    ):
        assert main(argv + ["--game", path]) == 0
        capsys.readouterr()
        for flag in ("--sss", "--sse"):
            assert main(argv + ["--game", path, flag]) == 1
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_tau_refuses_a_target_outside_every_candidate(tmp_path, capsys):
    # the README's table fails single crossing; no SSE candidate holds
    # player 1 (see test_sync's test_readme_crossing_table_leaves_player_one_out)
    doc = {"players": 2, "kind": "table", "payoffs": [[1, 3, 3, 3], [-3, -1, -3, 0]]}
    assert main(["tau", "--game", write_game(tmp_path, doc), "--target", "1"]) == 2
    assert "no strictly sufficient candidate covers the target" in capsys.readouterr().err


def test_check_json_schema(tmp_path, capsys):
    path = write_game(
        tmp_path,
        {"players": 2, "kind": "table", "payoffs": [[1, 0, 3, 2], [1, 2, 0, 3]]},
    )
    code, payload = run_json(capsys, ["check", "--game", path, "--json"])
    assert code == 0
    assert payload["deviation_proof"] is False
    assert payload["single_crossing"] is True
    assert any(w["check"] == "deviation_proof" for w in payload["witnesses"])


def test_ne_json_schema(tmp_path, capsys):
    path = write_game(tmp_path, triangles_doc())
    code, payload = run_json(capsys, ["ne", "--game", path, "--json"])
    assert code == 0
    assert payload["least"] == []
    assert [1, 2, 3] in payload["equilibria"]


def test_treedepth_subcommand(tmp_path, capsys):
    doc = {"n": 4, "edges": clique_edges(4)}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, ["treedepth", "--graph", str(path), "--json"])
    assert code == 0
    assert payload["tree_depth"] == 4
    assert sorted(len(level) for level in payload["levels"]) == [1, 1, 1, 1]


def test_treedepth_searches_once(tmp_path, capsys, monkeypatch):
    from coordsolve import cli, digraph

    searches = []
    search = digraph.tree_depth

    def counting(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(cli, "tree_depth", counting)
    monkeypatch.setattr(digraph, "tree_depth", counting)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 4, "edges": clique_edges(4)}))
    assert main(["treedepth", "--graph", str(path)]) == 0
    assert len(searches) == 1
    assert capsys.readouterr().out.startswith("tree-depth: 4\n")


def test_treedepth_empty_graph(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 0, "edges": []}))
    assert main(["treedepth", "--graph", str(path)]) == 0
    assert capsys.readouterr().out == "tree-depth: 0\n  level 1: []\n"
    code, payload = run_json(capsys, ["treedepth", "--graph", str(path), "--json"])
    assert (code, payload) == (0, {"levels": [[]], "tree_depth": 0})


def test_treedepth_malformed_graph_exit_code(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 2, "edges": 5}))
    assert main(["treedepth", "--graph", str(path)]) == 1
    assert "$.edges" in capsys.readouterr().err


def test_treedepth_missing_graph_exit_code(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert main(["treedepth", "--graph", str(path)]) == 1
    assert str(path) in capsys.readouterr().err


def test_design_json_schema(tmp_path, capsys):
    path = write_game(tmp_path, triangles_doc())
    code, payload = run_json(capsys, ["design", "--game", path, "--t", "3", "--json"])
    assert code == 0
    assert payload["achieved"] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert len(payload["cells"]) == 3


def test_async_solve_subcommand(tmp_path, capsys):
    path = write_game(tmp_path, triangles_doc())
    cells = json.dumps({"cells": [[0, 3, 6], [1, 4, 7], [2, 5]]})
    code, payload = run_json(
        capsys, ["async-solve", "--game", path, "--partition", cells, "--json"]
    )
    assert code == 0
    assert payload["outcome"] == [1, 2, 3, 4, 5, 6, 7, 8]


@pytest.mark.parametrize(
    "cells, where",
    [
        ([[True], [0, 2]], "partition.cells[0]: expected a 0-based player below 3, got true"),
        ([[0, 0], [1, 2]], "partition.cells[0]: lists player 0 twice"),
        ([[0, 1], [1, 2]], "partition.cells[1]: players [1] are in an earlier cell"),
        ([[0], [2]], "partition.cells: players [1] are in no cell"),
    ],
    ids=["boolean", "duplicate", "overlap", "cover"],
)
def test_malformed_partition_names_its_cell(tmp_path, capsys, cells, where):
    path = write_game(tmp_path, {"players": 3, "kind": "aggregative", "c": [1, 1, 2]})
    partition = json.dumps({"cells": cells})
    assert main(["async-solve", "--game", path, "--partition", partition, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"error: {where}"


BOOL = [[True, 2]]


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["tau", "--target", "1", "--game"], {"players": 3, "kind": "weakest_link", "edges": BOOL}),
        (["treedepth", "--graph"], {"n": 3, "edges": [[True, 2], [False, 1]]}),
    ],
    ids=["game", "graph"],
)
def test_boolean_vertices_are_refused(tmp_path, capsys, argv, doc):
    # JSON true and false were read as vertices 1 and 0
    assert main(argv + [write_game(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $.edges[0]: expected an [i, j] pair of ints\n"


CYCLE3 = [[0, 1], [1, 2], [2, 0]]
AGG3 = {"players": 3, "kind": "aggregative", "c": [1, 1, 2]}


@pytest.mark.parametrize(
    "doc, cells, where",
    [
        ({"players": 3, "kind": "threshold", "edges": CYCLE3, "k": [1, 2, 1]}, None, "$.k[1]"),
        (
            {"players": 3, "kind": "opposed_nsg", "in_starts": [0, 0, 0], "k": [1, 1 << 40, 1]},
            None,
            "$.k[1]",
        ),
        ({"players": 3, "kind": "aggregative", "c": [1, 1, 3]}, None, "$.c[2]"),
        ({"players": 3, "kind": "weakest_link", "edges": [[1, 1], [0, 1]]}, None, "$.edges[0]"),
        ({"players": 3, "kind": "weakest_link", "edges": [[0, 3], [0, 1]]}, None, "$.edges[0]"),
        ({"players": 3, "kind": "aligned_nsg", "in_starts": [2, 4, 0]}, None, "$.in_starts[1]"),
        (
            {"players": 3, "kind": "aligned_nsg", "in_starts": [2, 1, 0], "out_ends": [0, 0, -1]},
            None,
            "$.out_ends[2]",
        ),
        # every in-interval is empty, so no player has the out-interval {0}
        (
            {"players": 3, "kind": "aligned_nsg", "in_starts": [3, 3, 3], "out_ends": [0, 2, 0]},
            None,
            "$.out_ends[1]",
        ),
        (AGG3, [[0, 1], [1, 2]], "partition.cells[1]"),
        (AGG3, [[0], [2]], "partition.cells"),
        ({"players": 3, "kind": "opposed_nsg", "in_starts": [0, 0, 0], "k": [1, 2, 1]}, None, "$"),
    ],
    ids=[
        "threshold_k", "opposed_nsg_k", "aggregative_c", "self_loop", "endpoint", "in_start",
        "out_end", "out_interval", "overlap", "cover", "unordered",
    ],
)
def test_constructor_errors_name_their_document_path(tmp_path, capsys, doc, cells, where):
    argv = ["check", "--game", write_game(tmp_path, doc)]
    if cells is not None:
        argv = ["async-solve", "--partition", json.dumps({"cells": cells})] + argv[1:]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {where}: ")


def test_centrality_horizons_intervene(tmp_path, capsys):
    path = write_game(tmp_path, hub_doc())
    code, payload = run_json(capsys, ["centrality", "--game", path, "--json"])
    assert code == 0
    assert payload["weak"] == [{"horizon": 4, "players": list(range(1, 10))}]
    code, payload = run_json(capsys, ["horizons", "--game", path, "--json"])
    assert code == 0
    assert payload["candidates"] == [{"t": 4, "players": list(range(1, 10))}]
    code, payload = run_json(
        capsys, ["intervene", "--game", path, "--subsidized", "1", "--t", "1", "--json"]
    )
    assert code == 0
    assert payload == {"subsidized": [1], "t": 1, "gain": [5, 6, 7, 8, 9]}


def centrality_docs():
    threshold = dict(triangles_doc(), kind="threshold", k=[1, 2, 1, 2, 1, 2, 1, 1])
    return [
        hub_doc(),
        threshold,
        {"players": 5, "kind": "aggregative", "c": [1, 2, 2, 3, 4]},
        emit_game(random_game(random.Random(8), 4)),
    ]


@pytest.mark.parametrize("doc", centrality_docs(), ids=lambda d: d["kind"])
def test_centrality_builds_one_table(tmp_path, capsys, monkeypatch, doc):
    game = parse_game(doc)
    equilibria = ne_set_reference(game)
    want = [
        [all(X >> i & 1 for X in equilibria if X >> j & 1) for j in range(game.n)]
        for i in range(game.n)
    ]
    path = write_game(tmp_path, doc)
    built = count_table_builds(monkeypatch)
    code, payload = run_json(capsys, ["centrality", "--game", path, "--json"])
    assert code == 0
    # a family game is solved on its rules and builds none
    assert len(built) == (doc["kind"] == "table")
    assert payload["strong"] == want


@pytest.mark.parametrize("doc", centrality_docs(), ids=lambda d: d["kind"])
def test_ne_reads_the_solver(tmp_path, capsys, monkeypatch, doc):
    equilibria = ne_set_reference(parse_game(doc))
    path = write_game(tmp_path, doc)
    built = count_table_builds(monkeypatch)
    code, payload = run_json(capsys, ["ne", "--game", path, "--json"])
    assert code == 0
    assert len(built) == (doc["kind"] == "table")
    assert payload["equilibria"] == [[i + 1 for i in members(X)] for X in equilibria]


def test_ordered_subcommand(tmp_path, capsys):
    path = write_game(tmp_path, {"players": 4, "kind": "aggregative", "c": [2, 2, 2, 2]})
    code, payload = run_json(
        capsys, ["ordered", "--game", path, "--target", "1,2,3,4", "--json"]
    )
    assert code == 0
    assert payload["strongly_cost_ordered"] is True
    assert payload["tau"] == 3


@pytest.mark.parametrize("target", [None, "1,2,3,4", "2"])
def test_ordered_subcommand_builds_one_table(tmp_path, capsys, monkeypatch, target):
    doc = {"players": 4, "kind": "aggregative", "c": [1, 2, 2, 3]}
    game = parse_game(doc)
    flags = classify(game)
    argv = ["ordered", "--game", write_game(tmp_path, doc), "--json"]
    if target is not None:
        argv += ["--target", target]
    built = count_table_builds(monkeypatch)
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert len(built) == 1
    assert payload["cost_ordered"] == flags.cost_ordered
    assert payload["contribution_natural"] == flags.contribution_natural
    if target is not None:
        mask = sum(1 << (int(p) - 1) for p in target.split(","))
        assert payload["tau"] == ordered_min_horizon(game, mask)


NSG_DOCS = [
    {"players": 6, "kind": "aligned_nsg", "in_starts": [2, 2, 4, 4, 5, 4], "nested": False},
    {"players": 4, "kind": "opposed_nsg", "in_starts": [0, 0, 0, 0], "k": [1, 1, 2, 2]},
]


@pytest.mark.parametrize("doc", NSG_DOCS, ids=lambda d: d["kind"])
@pytest.mark.parametrize(
    "argv",
    [["centrality"], ["ordered", "--target", "1,2"], ["tau", "--target", "1,2"]],
    ids=lambda a: a[0],
)
def test_nsg_document_builds_one_table(tmp_path, capsys, monkeypatch, doc, argv):
    # the generator's order check builds the one table: ordered reads the
    # kept one, and the family solvers behind tau and centrality build none
    game = parse_game(doc)
    path = write_game(tmp_path, doc)
    built = count_table_builds(monkeypatch)
    code, payload = run_json(capsys, [argv[0], "--game", path, *argv[1:], "--json"])
    assert code == 0
    assert len(built) == 1
    if "tau" in payload:
        assert payload["tau"] == SyncSolver(game).min_horizon(0b11)


@pytest.mark.parametrize("doc", NSG_DOCS, ids=lambda d: d["kind"])
def test_nsg_document_is_classified_once(tmp_path, capsys, monkeypatch, doc):
    # the generator's order check hands its flags on with its table
    calls = []
    classify_table = ordered._classify_table

    def counted(gainers, n):
        calls.append(n)
        return classify_table(gainers, n)

    monkeypatch.setattr(ordered, "_classify_table", counted)
    path = write_game(tmp_path, doc)
    code, payload = run_json(capsys, ["ordered", "--game", path, "--target", "1,2", "--json"])
    assert code == 0
    assert calls == [doc["players"]]
    assert "tau" in payload


@pytest.mark.parametrize(
    "doc",
    [
        {"players": 2, "kind": "table", "payoffs": [[0, 1, 0, 2], [0, 0, 1, 2]]},
        {"players": 3, "kind": "aggregative", "c": [1, 1, 2]},
        *NSG_DOCS,
    ],
    ids=lambda d: d["kind"],
)
def test_ordered_goes_through_the_public_functions(tmp_path, capsys, monkeypatch, doc):
    # classify keeps its table on the game, and the fast path reads it
    calls = {"classify": 0, "ordered_min_horizon": 0}
    for name in calls:
        original = getattr(ordered, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ordered, name, counted)
    path = write_game(tmp_path, doc)
    built = count_table_builds(monkeypatch)
    code, payload = run_json(capsys, ["ordered", "--game", path, "--target", "1,2", "--json"])
    assert code == 0
    assert calls["ordered_min_horizon"] == 1
    # an nsg document is classified by its generator, then by the command
    # and the fast path, which read back the flags the first call kept
    assert calls["classify"] == 2 + doc["kind"].endswith("_nsg")
    assert len(built) == 1
    assert payload["tau"] == SyncSolver(parse_game(doc)).min_horizon(0b11)


def test_fast_path_below_tau_outside_the_stage_game_conditions(tmp_path, capsys):
    # fails single crossing, common interests and nondegeneracy; cost- and
    # contribution-ordered, so the fast path runs, and its ascending cascade
    # passes answer 1 where lowest-gainer-first steps (core.settle) answer 2
    doc = {
        "players": 4,
        "kind": "table",
        "payoffs": README_TABLE_ROWS,
    }
    path = write_game(tmp_path, doc)
    assert main(["ordered", "--game", path, "--target", "1,2,3,4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "tau: 1"
    assert main(["tau", "--game", path, "--target", "1,2,3,4"]) == 0
    assert capsys.readouterr().out == "2\n"
    code, payload = run_json(capsys, ["oracle", "--game", path, "--t", "1", "--json"])
    assert code == 0
    assert payload["outcomes"] == [[1, 2], [1, 2, 3, 4]]
    code, payload = run_json(capsys, ["check", "--game", path, "--json"])
    assert code == 0
    assert [payload[c] for c in ("single_crossing", "common_interests", "nondegenerate")] == [
        False, False, False,
    ]


def test_tau_on_an_18_player_weakest_link_document(tmp_path, capsys):
    rng = random.Random(18)
    n = 18
    edges = [
        [j, i] for i in range(n) for j in rng.sample([v for v in range(n) if v != i], 3)
    ]
    path = write_game(tmp_path, {"players": n, "kind": "weakest_link", "edges": edges})
    assert main(["tau", "--game", path, "--target", ",".join(map(str, range(1, n + 1)))]) == 0
    want = weakest_link_horizon(Digraph(n, edges), (1 << n) - 1)
    assert capsys.readouterr().out == f"{want}\n"


def test_ordered_reports_strong_without_weak_cost_order(tmp_path, capsys):
    # no single crossing: strongly cost-ordered, yet not cost-ordered
    path = write_game(
        tmp_path,
        {"players": 2, "kind": "table", "payoffs": [[-2, 1, 1, -1], [-2, 0, 0, 1]]},
    )
    assert main(["ordered", "--game", path]) == 0
    out = capsys.readouterr().out
    assert "cost-ordered:          False" in out
    assert "strongly cost-ordered: True" in out


def test_nsg_document_classified_under_the_budget_flag(tmp_path, capsys):
    # parsing an nsg document classifies it: ~12.8M checks at 14 players,
    # over the 10^7 default, so --budget must reach that classification
    doc = {"players": 14, "kind": "aligned_nsg", "in_starts": list(range(13, -1, -1))}
    path = write_game(tmp_path, doc)
    assert main(["ordered", "--game", path, "--budget", "100000000"]) == 0
    assert "contribution-ordered:  True" in capsys.readouterr().out
    assert main(["ordered", "--game", path, "--budget", "1000000"]) == 3
    err = capsys.readouterr().err
    assert err == "resource error: classification needs ~12845056 checks (budget 1000000)\n"


@pytest.mark.parametrize("command", ["async-solve", "oracle"])
def test_partition_directory_names_it(tmp_path, capsys, command):
    path = write_game(tmp_path, {"players": 2, "kind": "aggregative", "c": [1, 1]})
    folder = tmp_path / "cells"
    folder.mkdir()
    assert main([command, "--game", path, "--partition", str(folder)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {folder}: ")


def test_deeply_nested_partition_names_it(tmp_path, capsys):
    path = write_game(tmp_path, {"players": 2, "kind": "aggregative", "c": [1, 1]})
    assert main(["async-solve", "--game", path, "--partition", "[" * 100_000]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: partition: invalid JSON: nested too deeply"


def test_deeply_nested_game_names_its_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["check", "--game", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.strip() == f"error: {path}: invalid JSON: nested too deeply"


def test_game_file_not_utf8_names_it(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"players": 1, "kind": "café"}'.encode("latin-1"))
    assert main(["check", "--game", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")


@pytest.mark.parametrize("value", ["1e5", "1E-5", "1.e5", ".5e2"])
def test_exponent_payoffs_are_refused(value):
    with pytest.raises(ParseError) as info:
        parse_game({"players": 1, "kind": "table", "payoffs": [["0", value]]})
    assert str(info.value).startswith("$.payoffs[0][1]: ")


@settings(max_examples=300, deadline=None)
@given(doc=table_documents())
def test_payoff_memo_matches_one_parse_per_entry(doc):
    """Each distinct string parsed once gives the rows, value types, emitted
    document and first ParseError of one parse per entry."""
    try:
        want = parse_payoff_rows_reference(doc["payoffs"], doc["players"])
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_game(doc)
        assert (got.value.path, str(got.value)) == (exc.path, str(exc))
        return
    game = parse_game(doc)

    def typed(rows):
        return [[(type(v), v) for v in row] for row in rows]

    assert typed(game.params["rows"]) == typed(want)
    assert emit_game(game) == emit_game(table_game(want))


def _parse_error(rows, n):
    with pytest.raises(ParseError) as info:
        parse_game({"players": n, "kind": "table", "payoffs": rows})
    return info.value.path, str(info.value)


def _reference_error(rows, n):
    with pytest.raises(ParseError) as info:
        parse_payoff_rows_reference(rows, n)
    return info.value.path, str(info.value)


def test_first_bad_entry_after_many_good_repeats_is_named():
    good = ["1/2", "-3/4", "0", 7]
    rows = [[good[m % 4] for m in range(32)] for _ in range(5)]
    rows[3][29] = "x"
    rows[4][2] = "1/0"
    assert _parse_error(rows, 5) == _reference_error(rows, 5)
    assert _parse_error(rows, 5)[0] == "$.payoffs[3][29]"


def test_bad_string_repeated_in_a_row_names_its_first_place():
    rows = [["1/2", "1/2", "1e5", "1/2", "1e5", "1e5", "0", "1e5"] for _ in range(3)]
    assert _parse_error(rows, 3) == _reference_error(rows, 3)
    assert _parse_error(rows, 3)[0] == "$.payoffs[0][2]"


@pytest.mark.parametrize("bad", [True, 1.5, [1, 2]], ids=["bool", "float", "list"])
def test_non_string_entry_in_a_row_of_strings_is_named(bad):
    rows = [["1/3"] * 4, ["2/3", "1/3", "2/3", "1/3"]]
    rows[1][3] = bad
    assert _parse_error(rows, 2) == _reference_error(rows, 2)
    assert _parse_error(rows, 2)[0] == "$.payoffs[1][3]"


def test_row_of_ints_and_strings_parses_as_one_parse_per_entry():
    rows = [[0, "1/2", 3, "3", "-0", 3, "1/2", "2/4"], [1, 1, "1", "007", -2, "5/3", 0, "0"],
            ["3/4", 2, 2, " 3/4", "3/4\n", 2, "+5/3", "1.5"]]
    want = parse_payoff_rows_reference(rows, 3)
    got = parse_game({"players": 3, "kind": "table", "payoffs": rows}).params["rows"]
    assert [[(type(v), v) for v in row] for row in got] == [
        [(type(v), v) for v in row] for row in want
    ]


def test_huge_exponent_payoff_exits_promptly(tmp_path):
    # Fraction("1e999999999") would build 10**999999999 before any check
    doc = {"players": 1, "kind": "table", "payoffs": [["1e999999999", 0]]}
    argv = ["check", "--game", write_game(tmp_path, doc)]
    done = subprocess.run(
        [sys.executable, "-m", "coordsolve.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: $.payoffs[0][0]: not an int or 'p/q' string")


def run_capped(argv, limit=1536 << 20, program=("-m", "coordsolve.cli")):
    """Run the CLI (or another Python `program`) in a child process with its
    address space capped, so a document that would fill memory fails fast
    instead."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *program, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=cap,
    )


@pytest.mark.parametrize(
    "argv, doc, noun",
    [
        (["check", "--game"], {"players": 10**12, "kind": "weakest_link", "edges": []}, "players"),
        (["tau", "--target", "1", "--game"], {"players": 10**12, "kind": "aggregative", "c": []}, "players"),
        (["treedepth", "--graph"], {"n": 10**12, "edges": []}, "vertices"),
    ],
)
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_huge_size_refused_before_anything_is_built(tmp_path, argv, doc, noun, flags):
    # Digraph(10**12, ...) used to die with a MemoryError traceback
    done = run_capped(argv + [write_game(tmp_path, doc), "--budget", "1000"] + flags)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == f"resource error: {10**12} {noun} exceed the budget 1000\n"


TABLE_COMMANDS = (
    ["ne"],
    ["tau", "--target", "1"],
    ["phi", "--t", "1"],
    ["outcomes", "--t", "1"],
    ["design", "--t", "1"],
    ["centrality"],
    ["horizons"],
    ["intervene", "--subsidized", "1", "--t", "1"],
)


@pytest.mark.parametrize("argv", TABLE_COMMANDS)
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_huge_incentive_table_refused_before_it_is_built(tmp_path, argv, flags):
    # 40 players pass the size charge; their 2^40-cell table used to die
    # with a MemoryError traceback in core.incentive_table
    doc = {"players": 40, "kind": "weakest_link", "edges": [[0, 1]]}
    path = write_game(tmp_path, doc)
    done = run_capped(argv + ["--game", path, "--budget", "10000000"] + flags)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "resource error: incentive table needs 2^40 cells (budget 10000000)\n"


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda a: a[0])
@pytest.mark.parametrize(
    "doc", [d for d in centrality_docs() if d["kind"] != "table"], ids=lambda d: d["kind"]
)
def test_family_documents_build_no_table(tmp_path, capsys, monkeypatch, doc, argv):
    path = write_game(tmp_path, doc)
    built = count_table_builds(monkeypatch)
    code, _ = run_json(capsys, [argv[0], "--game", path, *argv[1:], "--json"])
    assert code == 0
    assert built == []


def test_size_charge_is_the_player_count(tmp_path, capsys):
    # the count charge is n^2: 8 players pass at --budget 64; the paths
    # with budgets of their own then spend it (IESEDS and the SPNE oracle
    # refuse), and tau, which charges its 2^8-cell table, answers at
    # --budget 256
    path = write_game(tmp_path, triangles_doc())
    cells = json.dumps({"cells": [[i] for i in range(8)]})
    assert main(["async-solve", "--game", path, "--partition", cells, "--budget", "63"]) == 3
    assert "8 players exceed the budget 63" in capsys.readouterr().err
    assert main(["async-solve", "--game", path, "--partition", cells, "--budget", "64"]) == 3
    assert "8 players" not in capsys.readouterr().err
    argv = ["oracle", "--game", path, "--mode", "spne", "--t", "2", "--budget", "64"]
    assert main(argv) == 3
    assert "8 players" not in capsys.readouterr().err
    assert main(["tau", "--game", path, "--target", "1", "--budget", "255"]) == 3
    assert "incentive table needs 2^8 cells (budget 255)" in capsys.readouterr().err
    assert main(["tau", "--game", path, "--target", "1", "--budget", "256"]) == 0
    graph = write_game(tmp_path, {"n": 3, "edges": [[0, 1], [1, 0]]}, "graph.json")
    assert main(["treedepth", "--graph", graph, "--budget", "8"]) == 3
    assert main(["treedepth", "--graph", graph, "--budget", "9"]) == 0


def test_count_charge_boundary_at_the_default_budget(tmp_path, capsys):
    # 3162^2 <= 10^7 < 3163^2: the larger document is refused by its count,
    # the smaller one only by the assumption check's n 2^n payoff reads
    for n, refusal in [(3163, "3163 players exceed the budget"), (3162, "assumption check")]:
        path = write_game(tmp_path, {"players": n, "kind": "weakest_link", "edges": []})
        assert main(["check", "--game", path]) == 3
        assert capsys.readouterr().err.startswith(f"resource error: {refusal}")


WL1E7 = {"players": 10**7, "kind": "weakest_link", "edges": []}


@pytest.mark.parametrize(
    "argv, doc, noun",
    [
        (["check", "--game"], WL1E7, "players"),
        (["tau", "--target", "1", "--game"], WL1E7, "players"),
        (["treedepth", "--graph"], {"n": 10**7, "edges": []}, "vertices"),
    ],
    ids=["check", "tau", "treedepth"],
)
def test_count_charge_bounds_memory_at_the_default_budget(tmp_path, argv, doc, noun):
    # 10^7 passed a charge of n: a weakest-link game's rule masks alone take
    # about n^2/16 bytes, and each run died with a MemoryError traceback
    done = run_capped(argv + [write_game(tmp_path, doc)])
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == f"resource error: {10**7} {noun} exceed the budget 10000000\n"


def test_oracle_subcommand(tmp_path, capsys):
    path = write_game(
        tmp_path,
        {"players": 2, "kind": "table", "payoffs": [[1, 0, 3, 2], [1, 2, 0, 3]]},
    )
    code, payload = run_json(
        capsys, ["oracle", "--game", path, "--mode", "mspne", "--t", "2", "--json"]
    )
    assert code == 0
    assert payload == {"mode": "mspne", "outcomes": [[1, 2]]}


# -- exit codes -------------------------------------------------------------------


def test_unknown_subcommand_usage_error():
    assert main(["frobnicate"]) == 1
    assert main(["--help"]) == 0


def test_missing_command_usage(capsys):
    assert main([]) == 1


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["ne", "--game", str(path)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["phi"],
        ["outcomes"],
        ["design"],
        ["intervene", "--subsidized", "1"],
        ["oracle", "--mode", "spne"],
    ],
    ids=lambda argv: argv[0],
)
def test_horizon_must_be_positive(tmp_path, capsys, argv):
    # every player has action 1 strictly dominant, so only the horizon is wrong
    path = write_game(
        tmp_path, {"players": 2, "kind": "table", "payoffs": [[0, 1, 0, 2], [0, 0, 1, 2]]}
    )
    for t in ("0", "-2"):
        assert main(argv + ["--game", path, "--t", t, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"horizon must be a positive integer, got {t}" in captured.err
    assert main(argv + ["--game", path, "--t", "1", "--json"]) == 0


def test_precondition_exit_code(tmp_path, capsys):
    # player 2's action 1 strictly dominated: tau on it must fail with code 2
    doc = {
        "players": 2,
        "kind": "table",
        "payoffs": [[0, 0, -1, 1], [0, -1, -1, -2]],
    }
    path = write_game(tmp_path, doc)
    assert main(["tau", "--game", path, "--target", "2"]) == 2


def test_ne_refuses_a_nonmonotone_best_response_iteration(tmp_path, capsys):
    # from the all-zero profile both players join; at both, player 2 leaves
    doc = {"players": 2, "kind": "table", "payoffs": [[0, 1, 0, 1], [0, 0, 1, -1]]}
    path = write_game(tmp_path, doc)
    assert main(["ne", "--game", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "precondition error: best-response iteration is not monotone; "
        "single-crossing fails\n"
    )


@pytest.mark.parametrize(
    "doc, problem",
    [
        (
            {"players": 3, "kind": "opposed_nsg", "in_starts": [0, 0, 0], "k": [1, 2, 1]},
            "parameters do not make an ordered threshold game",
        ),
        (
            {"players": 3, "kind": "aligned_nsg", "in_starts": [0, 0, 2], "nested": False},
            "in-intervals do not make an ordered weakest-link game",
        ),
    ],
    ids=lambda v: v["kind"] if isinstance(v, dict) else None,
)
def test_ordered_refuses_an_unordered_generator_document(tmp_path, capsys, doc, problem):
    path = write_game(tmp_path, doc)
    assert main(["ordered", "--game", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: $: {problem}\n"


def test_resource_exit_code(tmp_path, capsys):
    path = write_game(tmp_path, triangles_doc())
    cells = json.dumps({"cells": [[i] for i in range(8)]})
    code = main(
        ["async-solve", "--game", path, "--partition", cells, "--budget", "5"]
    )
    assert code == 3


def test_check_charges_its_payoff_reads_to_the_budget(tmp_path, capsys):
    # the assumption report reads n 2^n payoffs: 9 * 512 for the hub game
    path = write_game(tmp_path, hub_doc())
    assert main(["check", "--game", path, "--budget", str(9 << 9)]) == 0
    capsys.readouterr()
    assert main(["check", "--game", path, "--budget", str((9 << 9) - 1)]) == 3
    err = capsys.readouterr().err
    assert err == f"resource error: assumption check needs {9 << 9} payoff evaluations (budget {(9 << 9) - 1})\n"


def test_large_check_refused_before_any_read(tmp_path, capsys):
    # a 2^39-entry report list used to die with a MemoryError traceback
    path = write_game(tmp_path, {"players": 40, "kind": "weakest_link", "edges": [[0, 1]]})
    assert main(["check", "--game", path]) == 3
    assert main(["check", "--game", path, "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count(f"needs {40 << 40} payoff evaluations") == 2


def test_spne_oracle_budget_exit_code(tmp_path, capsys):
    path = write_game(tmp_path, triangles_doc())
    argv = ["oracle", "--game", path, "--mode", "spne", "--t", "2"]
    assert main(argv + ["--budget", "5"]) == 3
    assert main(argv + ["--budget", "100000"]) == 0


def three_player_cycle_doc():
    return {"players": 3, "kind": "weakest_link", "edges": [[0, 1], [1, 0], [1, 2]]}


def two_player_table_doc():
    return {"players": 2, "kind": "table", "payoffs": [[0, 1, 0, 2], [0, 0, 1, 2]]}


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_design_charges_its_schedule_cells(tmp_path, flags):
    # the schedule pads to T cells: --t 10^9 used to die with a MemoryError
    # traceback in partition_from_certificate
    path = write_game(tmp_path, three_player_cycle_doc())
    done = run_capped(["design", "--game", path, "--t", "1000000000"] + flags)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "resource error: schedule needs 1000000000 cells (budget 10000000)\n"


def test_design_within_the_budget_prints_every_cell(tmp_path, capsys):
    path = write_game(tmp_path, three_player_cycle_doc())
    assert main(["design", "--game", path, "--t", "5"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0].strip() for line in out.splitlines()[1:]] == [
        f"cell {t}" for t in range(1, 6)
    ]
    # the 3^2 count charge and the 2^3-cell table fit a budget of 9; ten
    # schedule cells do not
    assert main(["design", "--game", path, "--t", "9", "--budget", "9"]) == 0
    capsys.readouterr()
    assert main(["design", "--game", path, "--t", "10", "--budget", "9"]) == 3
    assert capsys.readouterr().err == "resource error: schedule needs 10 cells (budget 9)\n"


def test_mspne_oracle_pays_for_its_history_poset_first(tmp_path, capsys, monkeypatch):
    # --t 14 has 14^3 last-stage histories; the poset used to be built, for
    # about 20 s, before the first budget step was spent
    from coordsolve import oracle

    def unreached(*args):
        raise AssertionError("history poset built before the budget was spent")

    monkeypatch.setattr(oracle, "_sorted_with_predecessors", unreached)
    path = write_game(tmp_path, three_player_cycle_doc())
    assert main(["oracle", "--game", path, "--t", "14", "--budget", "1000"]) == 3
    assert capsys.readouterr().err == "resource error: oracle enumeration exceeded 1000 steps\n"


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_huge_mspne_oracle_refused_before_its_histories(tmp_path, flags):
    # _sync_histories used to fill memory at --t 3000 on two players
    path = write_game(tmp_path, two_player_table_doc())
    done = run_capped(["oracle", "--game", path, "--mode", "mspne", "--t", "3000"] + flags)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "resource error: oracle enumeration exceeded 10000000 steps\n"


@pytest.mark.parametrize("kind", ["aligned_nsg", "opposed_nsg"])
@pytest.mark.parametrize("start", [3000000, 1 << 40])
def test_in_start_outside_the_players_names_its_entry(tmp_path, kind, start):
    # the nesting check once built the set of range(2, start) first: 365 MB
    # at 3,000,000 and a MemoryError traceback at 2^40
    doc = {"players": 3, "kind": kind, "in_starts": [2, start, 0]}
    if kind == "opposed_nsg":
        doc["k"] = [1, 1, 1]
    done = run_capped(["tau", "--game", write_game(tmp_path, doc), "--target", "1"], 1000 << 20)
    assert done.returncode == 1
    assert done.stderr == f"error: $.in_starts[1]: in_starts[1]={start} outside 0..3\n"
    assert "Traceback" not in done.stderr


WL20_DOC = {"players": 20, "kind": "weakest_link", "edges": [[0, 1]]}


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_wide_mspne_oracle_refused_before_its_moves(tmp_path, flags):
    # stage 0 alone builds 2^20 moves with 20 deviations each: this used to
    # die with a MemoryError traceback after 11 s
    path = write_game(tmp_path, WL20_DOC)
    done = run_capped(["oracle", "--game", path, "--t", "1"] + flags)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "resource error: oracle enumeration exceeded 10000000 steps\n"


def test_wide_mspne_oracle_builds_no_history(tmp_path, capsys, monkeypatch):
    from coordsolve import oracle

    def unreached(*args):
        raise AssertionError("histories built before the budget was spent")

    monkeypatch.setattr(oracle, "_chances", unreached)
    path = write_game(tmp_path, WL20_DOC)
    assert main(["oracle", "--game", path, "--t", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource error: oracle enumeration exceeded 10000000 steps\n"


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_wide_spne_oracle_refused_before_its_payoff_reads(tmp_path, flags):
    # 20 2^20 payoff reads: this used to answer after 25 s, having charged
    # 2^20 steps
    path = write_game(tmp_path, WL20_DOC)
    done = run_capped(["oracle", "--game", path, "--mode", "spne", "--t", "1"] + flags)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "resource error: oracle enumeration exceeded 10000000 steps\n"


ONE_PLAYER_DOC = {"players": 1, "kind": "table", "payoffs": [[0, 1]]}


def test_long_mspne_oracle_holds_one_entry_per_player(tmp_path):
    # a stage-t history is each player's entry stage: as a tuple of t
    # profiles, this died with a MemoryError traceback
    path = write_game(tmp_path, ONE_PLAYER_DOC)
    argv = ["oracle", "--game", path, "--mode", "mspne", "--t", "1100", "--budget", "1000000000"]
    done = run_capped(argv + ["--json"])
    assert done.returncode == 0
    assert done.stderr == ""
    assert json.loads(done.stdout) == {"mode": "mspne", "outcomes": [[1]]}


@pytest.mark.parametrize(
    "doc, outcome",
    [(two_player_table_doc(), [1, 2]), (ONE_PLAYER_DOC, [1])],
    ids=["2p", "1p"],
)
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_long_horizon_spne_oracle_answers(tmp_path, capsys, doc, outcome, flags):
    # the value sets used to recurse once per stage: RecursionError at 3000
    path = write_game(tmp_path, doc)
    assert main(["oracle", "--game", path, "--mode", "spne", "--t", "3000"] + flags) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if flags:
        assert json.loads(captured.out) == {"mode": "spne", "outcomes": [outcome]}
    else:
        assert captured.out == f"spne outcomes (1):\n  {outcome}\n"


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_huge_spne_oracle_refused_up_front(tmp_path, flags):
    path = write_game(tmp_path, two_player_table_doc())
    argv = ["oracle", "--game", path, "--mode", "spne", "--t", "1000000000000"]
    done = run_capped(argv + flags)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "resource error: oracle enumeration exceeded 10000000 steps\n"


SUBCOMMANDS = (
    ["check"],
    ["ne"],
    ["tau", "--target", "1"],
    ["phi", "--t", "1"],
    ["outcomes", "--t", "1"],
    ["design", "--t", "1"],
    ["async-solve", "--partition", '{"cells": [[0, 1]]}'],
    ["centrality"],
    ["horizons"],
    ["intervene", "--subsidized", "1", "--t", "1"],
    ["ordered"],
    ["oracle", "--t", "1"],
)


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_malformed_budget_flag_names_it(tmp_path, capsys, value):
    path = write_game(tmp_path, {"players": 2, "kind": "aggregative", "c": [1, 1]})
    assert main(["check", "--game", path, "--budget", value]) == 1
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["tau", "--target", "1,x"], "--target"),
        (["tau", "--target", "3"], "--target"),
        (["ordered", "--target", "0"], "--target"),
        (["intervene", "--t", "1", "--subsidized", "3"], "--subsidized"),
        (["intervene", "--t", "1", "--subsidized", "x"], "--subsidized"),
    ],
)
def test_player_list_errors_name_their_flag(tmp_path, capsys, argv, flag):
    path = write_game(tmp_path, {"players": 2, "kind": "aggregative", "c": [1, 1]})
    assert main(argv + ["--game", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert "invalid literal" not in err


# -- mutated documents --------------------------------------------------------------


FUZZ_DOCS = [
    two_player_table_doc(),
    three_player_cycle_doc(),
    {"players": 3, "kind": "threshold", "edges": [[0, 1], [1, 2], [2, 0], [0, 2]], "k": [1, 1, 2]},
    {"players": 2, "kind": "aggregative", "c": [1, 1]},
    *NSG_DOCS,
]
FUZZ_KEYS = ["players", "kind", "payoffs", "edges", "k", "c", "in_starts", "out_ends", "nested"]
FUZZ_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.floats(),
        st.sampled_from(["1/0", "1e5", "table", "", "x"]),
        st.integers(-2, 4),
        st.sampled_from([10**12, -(10**12), 10**100]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(FUZZ_KEYS), inner, max_size=3),
    ),
    max_leaves=6,
)


def _containers(node):
    """Every dict and list in a document, itself included."""
    yield node
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from _containers(child)


@st.composite
def mutated_documents(draw, docs=FUZZ_DOCS, values=FUZZ_VALUES, mutations=1):
    """A valid document from `docs` with `mutations` times one key or list
    entry replaced, dropped or added (new values drawn from `values`)."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(mutations):
        node = draw(st.sampled_from(list(_containers(doc))))
        op = draw(st.sampled_from(["replace", "drop", "add"]) if node else st.just("add"))
        if isinstance(node, dict):
            key = draw(st.sampled_from(list(node) if op != "add" else FUZZ_KEYS))
        else:
            key = draw(st.integers(0, len(node) - (op != "add")))
        if op == "drop":
            del node[key]
        elif op == "add" and isinstance(node, list):
            node.insert(key, draw(values))
        else:
            node[key] = draw(values)
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=mutated_documents())
def test_mutated_documents_never_raise(tmp_path_factory, doc):
    # malformed input exits 1 with a message naming the bad path, never a
    # traceback
    path = write_game(tmp_path_factory.mktemp("fuzz"), doc)
    for argv in SUBCOMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--game", path, "--budget", "100000"])
        assert code in (0, 1, 2, 3), (argv, code)
        if code == 1:
            # a document error names its path from the root `$`, and one in
            # the --partition argument names the partition
            assert err.getvalue().startswith(("error: $", "error: partition")), (
                argv,
                err.getvalue(),
            )


# the nesting check runs only on an aligned document without "nested"
ALIGNED5 = {"players": 5, "kind": "aligned_nsg", "in_starts": [3, 2, 2, 1, 1]}
BOUNDED_FUZZ_DOCS = FUZZ_DOCS + [ALIGNED5]
# counts that size work: 10^5 passed a count charge of n at --budget 100000
BOUNDED_FUZZ_VALUES = st.one_of(FUZZ_VALUES, st.sampled_from([10**5, 10**7]))

FUZZ_CHILD = """
import contextlib, io, json, os, sys
from coordsolve.cli import main

workdir = sys.argv[1]
with open(os.path.join(workdir, "fuzz.json")) as fh:
    fuzz = json.load(fh)
failures = []
for n, doc in enumerate(fuzz["docs"]):
    path = os.path.join(workdir, f"doc{n}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    for argv in fuzz["commands"]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--game", path, "--budget", "100000"])
        named = err.getvalue().startswith(("error: $", "error: partition"))
        if code not in (0, 1, 2, 3) or code == 1 and not named:
            failures.append([doc, argv, code, err.getvalue()])
print(json.dumps(failures))
"""


def test_twice_mutated_documents_stay_bounded(tmp_path):
    # one child process under a 512 MiB address-space cap runs every
    # subcommand on every document, so a blow-up fails this test instead of
    # exhausting the runner; a traceback fails it too
    docs = []

    @example(doc={"players": 10**5, "kind": "weakest_link", "edges": [[0, 1]]})
    @example(doc={**ALIGNED5, "players": 10**7})
    @example(doc={"players": 5, "kind": "aligned_nsg", "in_starts": [3, 2, 10**7, 1, 1]})
    @settings(max_examples=150, deadline=None, database=None)
    @given(doc=mutated_documents(BOUNDED_FUZZ_DOCS, BOUNDED_FUZZ_VALUES, mutations=2))
    def draw(doc):
        docs.append(doc)

    draw()
    (tmp_path / "fuzz.json").write_text(json.dumps({"docs": docs, "commands": SUBCOMMANDS}))
    done = run_capped([str(tmp_path)], 512 << 20, program=("-c", FUZZ_CHILD))
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == []
