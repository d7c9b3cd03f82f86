"""Input builders, item runners and correctness checks of the workloads.

Every library call goes through a module attribute (`digraph.tree_depth`,
not a name imported here), so the tracer's wrappers see it.

An item answers with a JSON-able dict.  An item whose call raises
PreconditionError or ResourceLimitError answers {"exit": 2} or {"exit": 3},
as the CLI does: such an answer is correct when it is the recorded one.
Any other exception fails the item.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import coordsolve
from coordsolve import asyncgame, cli, design, digraph, graphical, oracle, ordered, sync
from coordsolve.errors import PreconditionError, ResourceLimitError

import corpus


def exit_code(exc):
    if isinstance(exc, PreconditionError):
        return 2
    if isinstance(exc, ResourceLimitError):
        return 3
    return None


def build_game(spec):
    kind, n = spec["kind"], spec["n"]
    if kind == "table":
        return coordsolve.table_game(corpus.fraction_rows(spec))
    if kind == "aggregative":
        return coordsolve.aggregative_game(spec["c"])
    g = coordsolve.Digraph(n, [tuple(e) for e in spec["edges"]])
    if kind == "weakest_link":
        return coordsolve.weakest_link_game(g)
    if kind == "threshold":
        return coordsolve.threshold_game(g, spec["k"])
    raise ValueError(f"unknown game kind {kind!r}")


def _mask(players):
    m = 0
    for p in players:
        m |= 1 << p
    return m


def _is_stage_ne(game, X):
    """Independent check on raw payoffs: nobody gains by a unilateral flip."""
    for i in range(game.n):
        flip = X ^ (1 << i)
        if game.payoff(i, flip) > game.payoff(i, X):
            return False
    return True


def _require(cond, why):
    if not cond:
        raise AssertionError(why)


# ---------------------------------------------------------------------------
# cli-docs


class CliDocs:
    """One item is one in-process `coordsolve.cli.main([..., "--json"])` call
    on a document file; every call parses the document afresh."""

    def __init__(self, items, workdir):
        self.inputs = []
        for item in items:
            path = os.path.join(workdir, item["id"] + ".json")
            with open(path, "w") as fh:
                json.dump(item["doc"], fh)
            flag = "--graph" if item["cmd"] == "treedepth" else "--game"
            self.inputs.append([item["cmd"], flag, path, *item["args"], "--json"])

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return {"exit": code, "out": json.loads(out.getvalue()) if code == 0 else None}, None

    def check(self, item, argv, answer, state):
        code, out = answer["exit"], answer["out"]
        _require(code in (0, 2, 3), f"exit {code}")
        if code != 0:
            return
        cmd, doc, n = item["cmd"], item["doc"], item["n"]
        if cmd == "check":
            # every generated family satisfies the stage conditions
            _require(
                out["single_crossing"] and out["common_interests"]
                and out["deviation_proof"] and out["nondegenerate"] and not out["witnesses"],
                "generated game reported as violating the stage conditions",
            )
        elif cmd in ("tau", "ordered") and "tau" in out and item["kind"] == "aggregative":
            if out["target"] == list(range(1, n + 1)):
                want = ordered.aggregative_min_horizon(doc["c"], n)
                _require(out["tau"] == want, f"tau {out['tau']} != aggregative sweep {want}")
        elif cmd == "ne":
            game = cli.parse_game(doc)
            eqs = [_mask(p - 1 for p in e) for e in out["equilibria"]]
            _require(all(_is_stage_ne(game, X) for X in eqs), "listed profile is not a NE")
            least = _mask(p - 1 for p in out["least"])
            _require(least in eqs and all(least & ~X == 0 for X in eqs), "least NE is not least")
        elif cmd == "treedepth":
            g = coordsolve.Digraph(n, [tuple(e) for e in doc["edges"]])
            levels = [_mask(p - 1 for p in cell) for cell in out["levels"]]
            _require(len(levels) == max(out["tree_depth"], 1), "level count != tree-depth")
            p = coordsolve.Partition(levels)
            _require(p.union() == g.all_vertices, "levels do not cover the graph")
            _require(digraph.check_feasible_partition(g, p), "levels are not a feasible schedule")


# ---------------------------------------------------------------------------
# sync-horizons


class SyncHorizons:
    """One item is one game's full analysis on one shared SyncSolver."""

    def __init__(self, items, workdir):
        self.inputs = [build_game(item["game"]) for item in items]

    def run(self, game):
        solver = sync.SyncSolver(game)
        everyone = game.all_players
        tau = solver.min_horizon(everyone)
        tau_i = []
        for i in range(game.n):
            try:
                tau_i.append(solver.min_horizon(1 << i))
            except PreconditionError:
                tau_i.append(None)
        horizons = range(1, tau + 1)
        phi = [solver.least_outcome(T) for T in horizons]
        outcomes = [solver.outcome_set(T) for T in horizons]
        ledger = design.candidate_horizons(game, solver)
        weak = design.weak_centrality(game, solver)
        schedule, achieved = asyncgame.design(game, tau, solver)
        answer = {
            "tau": tau,
            "tau_i": tau_i,
            "phi": phi,
            "outcomes": outcomes,
            "horizons": [list(c) for c in ledger.candidates],
            "weak": [list(c) for c in weak],
            "design": {"cells": list(schedule.cells), "achieved": achieved},
        }
        return answer, (solver, schedule)

    def check(self, item, game, answer, state):
        solver, schedule = state
        everyone = game.all_players
        tau, phi, outcomes = answer["tau"], answer["phi"], answer["outcomes"]
        sg = graphical.reduce_to_weakest_link(game, solver=solver)
        wl = graphical.weakest_link_horizon(sg.graph, everyone)
        _require(tau == wl, f"tau {tau} != weakest-link horizon {wl}")
        _require(phi[-1] == everyone, "least outcome at tau misses players")
        for T in range(1, tau):
            _require(phi[T - 1] & ~phi[T] == 0, f"least outcome shrinks from T={T}")
        for T, (least, outs) in enumerate(zip(phi, outcomes), start=1):
            _require(least in outs, f"least outcome is not an outcome at T={T}")
            _require(all(least & ~X == 0 for X in outs), f"an outcome misses the least one at T={T}")
        _require(answer["design"]["achieved"] == phi[-1], "design achieves another set")
        got = asyncgame.ieseds(game, schedule).outcome
        _require(got == phi[-1], "ieseds on the designed schedule misses the least outcome")


# ---------------------------------------------------------------------------
# async-oracle


class AsyncOracle:
    """One item is one brute-force instance: IESEDS on a long schedule, exact
    tree-depth with its schedule, or an oracle enumeration with witnesses."""

    def __init__(self, items, workdir):
        self.inputs = []
        for item in items:
            kind = item["kind"]
            if kind == "treedepth":
                inp = coordsolve.Digraph(item["n"], [tuple(e) for e in item["edges"]])
            elif kind == "ieseds":
                cells = [_mask(c) for c in item["cells"]]
                inp = (build_game(item["game"]), coordsolve.Partition(cells))
            else:
                sched = item["schedule"]
                if "T" in sched:
                    schedule = oracle.Sync(sched["T"])
                else:
                    schedule = oracle.Async(coordsolve.Partition([_mask(c) for c in sched["cells"]]))
                inp = (build_game(item["game"]), schedule)
            self.inputs.append((kind, inp))

    def run(self, inp):
        kind, args = inp
        if kind == "treedepth":
            g = args
            value, cert = digraph.tree_depth(g)
            p = digraph.partition_from_treedepth(g, value)
            return {"tree_depth": value, "cells": list(p.cells)}, cert
        if kind == "ieseds":
            game, p = args
            table = asyncgame.ieseds(game, p)
            return {"outcome": table.outcome, "on_path": list(table.on_path)}, None
        game, schedule = args
        mspne = sorted(oracle.enumerate_equilibria(game, schedule, mode="mspne"))
        spne = sorted(oracle.enumerate_equilibria(game, schedule, mode="spne"))
        support = []
        if isinstance(schedule, oracle.Sync):
            support = [oracle.support_strategy(game, schedule.T, X).outcome for X in mspne]
        return {"mspne": mspne, "spne": spne, "support": support}, None

    def check(self, item, inp, answer, state):
        kind, inp = inp
        if kind == "treedepth":
            g, cert, value = inp, state, answer["tree_depth"]
            _require(cert.depth == value, "certificate depth != tree-depth")
            p = coordsolve.Partition(answer["cells"])
            _require(len(p.cells) == value and p.union() == g.all_vertices, "schedule shape")
            _require(digraph.check_feasible_partition(g, p), "schedule is not feasible")
        elif kind == "ieseds":
            game, p = inp
            union = 0
            for a, cell in zip(answer["on_path"], p.cells):
                _require(a & ~cell == 0, "a cell plays outside itself")
                union |= a
            _require(union == answer["outcome"], "outcome != union of on-path moves")
            _require(_is_stage_ne(game, answer["outcome"]), "IESEDS outcome is not a stage NE")
        else:
            game, schedule = inp
            mspne, spne = set(answer["mspne"]), set(answer["spne"])
            _require(mspne and mspne <= spne, "MSPNE outcomes not within SPNE outcomes")
            if isinstance(schedule, oracle.Sync):
                want = set(sync.SyncSolver(game).outcome_set(schedule.T))
                _require(mspne == want, "oracle MSPNE set != solver outcome set")
                _require(answer["support"] == answer["mspne"], "support profile realises another outcome")
            else:
                least = asyncgame.ieseds(game, schedule.partition).outcome
                _require(least in mspne, "IESEDS outcome is not an MSPNE outcome")
                _require(all(least & ~X == 0 for X in mspne), "IESEDS outcome is not the least")


WORKLOADS = {"cli-docs": CliDocs, "sync-horizons": SyncHorizons, "async-oracle": AsyncOracle}
