import json

import pytest

from coordsolve.cli import ParseError, emit_game, main, parse_game

from util import clique_edges, hub_intervention_graph, two_triangles_graph


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


def test_tau_sss_matches_sse(tmp_path, capsys):
    path = write_game(tmp_path, triangles_doc())
    for target in ("1,2,3", "7", "1,2,3,4,5,6,7,8"):
        argv = ["tau", "--game", path, "--target", target]
        assert main(argv) == 0
        sse = capsys.readouterr().out
        assert main(argv + ["--sss"]) == 0
        assert capsys.readouterr().out == sse


def test_candidate_flags_only_where_read(tmp_path, capsys):
    path = write_game(tmp_path, triangles_doc())
    assert main(["check", "--game", path, "--sss"]) == 1
    assert main(["horizons", "--game", path, "--sse"]) == 1
    assert main(["phi", "--game", path, "--t", "2", "--sss"]) == 0


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


def test_ordered_subcommand(tmp_path, capsys):
    path = write_game(tmp_path, {"players": 4, "kind": "aggregative", "c": [2, 2, 2, 2]})
    code, payload = run_json(
        capsys, ["ordered", "--game", path, "--target", "1,2,3,4", "--json"]
    )
    assert code == 0
    assert payload["strongly_cost_ordered"] is True
    assert payload["tau"] == 3


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


def test_resource_exit_code(tmp_path, capsys):
    path = write_game(tmp_path, triangles_doc())
    cells = json.dumps({"cells": [[i] for i in range(8)]})
    code = main(
        ["async-solve", "--game", path, "--partition", cells, "--budget", "5"]
    )
    assert code == 3


def test_spne_oracle_budget_exit_code(tmp_path, capsys):
    path = write_game(tmp_path, triangles_doc())
    argv = ["oracle", "--game", path, "--mode", "spne", "--t", "2"]
    assert main(argv + ["--budget", "5"]) == 3
    assert main(argv + ["--budget", "100000"]) == 0


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


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_malformed_budget_from_environment_names_it(tmp_path, capsys, monkeypatch, value):
    path = write_game(tmp_path, {"players": 2, "kind": "aggregative", "c": [1, 1]})
    monkeypatch.setenv("COORDSOLVE_BUDGET", value)
    for argv in SUBCOMMANDS:
        assert main(argv + ["--game", path]) == 1
        err = capsys.readouterr().err
        assert "--budget or COORDSOLVE_BUDGET must be a non-negative integer" in err
        assert err.rstrip().endswith(f"got {value}")
    assert main(["treedepth", "--graph", path]) == 1
    # an explicit flag overrides the environment
    assert main(["check", "--game", path, "--budget", "5"]) == 0


def test_budget_from_environment_is_read_on_every_call(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; the environment is not frozen in it
    path = write_game(tmp_path, triangles_doc())
    argv = ["oracle", "--game", path, "--mode", "spne", "--t", "2"]
    monkeypatch.setenv("COORDSOLVE_BUDGET", "5")
    assert main(argv) == 3
    monkeypatch.setenv("COORDSOLVE_BUDGET", "100000")
    assert main(argv) == 0
    monkeypatch.setenv("COORDSOLVE_BUDGET", "5")
    assert main(argv) == 3
    assert main(argv + ["--budget", "100000"]) == 0
    monkeypatch.delenv("COORDSOLVE_BUDGET")
    assert main(argv) == 0


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
