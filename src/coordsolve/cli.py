"""Command-line interface and the game-document file format.

Documents are JSON.  Player indices inside files are 0-based (edges, cells,
table bitmask order); command-line player arguments and all printed or JSON
output use 1-based labels.  Exact rationals are integers or "p/q" strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import asyncgame, design, ordered, oracle
from .core import (
    Partition,
    aggregative_game,
    least_ne,
    members,
    sorted_coalitions,
    table_game,
)
from .digraph import Digraph, partition_from_certificate, tree_depth
from .errors import DEFAULT_BUDGET, FieldError, PreconditionError, ResourceLimitError, charge
from .graphical import threshold_game, weakest_link_game
from .sync import SyncSolver


class ParseError(Exception):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _at(path, exc):
    """A constructor's ValueError as a ParseError at `path`, or below it at
    the field and entry that a FieldError names."""
    if isinstance(exc, FieldError):
        path += f".{exc.field}" if exc.index is None else f".{exc.field}[{exc.index}]"
    return ParseError(path, str(exc))


# ---------------------------------------------------------------------------
# document parsing


# the entry types of a payoff row that one dict can map (see _payoff_rows)
_ROW_TYPES = {int, str}


def _rational(value, path):
    if isinstance(value, bool):
        raise ParseError(path, "booleans are not payoffs")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if "e" in value or "E" in value:
            # Fraction would read an exponent and build 10**exponent
            raise ParseError(path, f"not an int or 'p/q' string: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(path, f"not a rational: {value!r} ({exc})") from None
    raise ParseError(path, f"payoff must be an int or 'p/q' string, got {value!r}")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _edges(doc, path):
    """The [i, j] int pairs at doc["edges"]; Digraph checks their range."""
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise ParseError(path + ".edges", "expected a list of [i, j] pairs")
    for idx, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2 or not all(map(_is_int, e)):
            raise ParseError(f"{path}.edges[{idx}]", "expected an [i, j] pair of ints")
    return edges


def _int_vector(doc, key, n, path):
    """The list of n ints at doc[key]."""
    vec = doc.get(key)
    if not isinstance(vec, list) or len(vec) != n:
        raise ParseError(f"{path}.{key}", f"expected a list of {n} ints")
    for idx, v in enumerate(vec):
        if not _is_int(v):
            raise ParseError(f"{path}.{key}[{idx}]", f"expected an int, got {v!r}")
    return vec


def _payoff_rows(rows, n, path):
    """The exact payoff rows of a table document, in row-major order.

    A table repeats a few payoffs many times.  A row of ints and strings
    (its types checked first: a JSON row may hold unhashable lists) is
    mapped through one dict, local to the call, from each distinct entry to
    its value: an int to itself, a string parsed once.  Any other row, or
    one holding a string that does not parse, is read entry by entry
    instead, so that the first bad entry in row-major order is the one
    named, with its path.
    """
    values = {}
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 1 << n:
            raise ParseError(
                f"{path}.payoffs[{i}]", f"expected {1 << n} entries (2^n)"
            )
        if set(map(type, row)) <= _ROW_TYPES:
            try:
                for v in set(row).difference(values):
                    values[v] = _rational(v, path)
                parsed.append(list(map(values.__getitem__, row)))
                continue
            except ParseError:
                pass  # named below, at its first place in the row
        parsed.append([_rational(v, f"{path}.payoffs[{i}][{m}]") for m, v in enumerate(row)])
    return parsed


def parse_game(doc, path="$", budget=DEFAULT_BUDGET):
    """Build a StageGame from a document dict.  Its assumption report is
    computed on first read of `game.report`.  A table document parses each
    distinct payoff string once (see _payoff_rows).  An nsg document's
    order classification runs under `budget` (see ordered.generate).  The
    constructors check each value's range; see _at for the paths."""
    if not isinstance(doc, dict):
        raise ParseError(path, "document must be an object")
    n = doc.get("players")
    if not _is_int(n) or n < 1:
        raise ParseError(path + ".players", "positive player count required")
    kind = doc.get("kind")
    try:
        if kind == "table":
            rows = doc.get("payoffs")
            if not isinstance(rows, list) or len(rows) != n:
                raise ParseError(path + ".payoffs", f"expected {n} payoff rows")
            return table_game(_payoff_rows(rows, n, path))
        if kind == "weakest_link":
            return weakest_link_game(Digraph(n, _edges(doc, path)))
        if kind == "threshold":
            g = Digraph(n, _edges(doc, path))
            return threshold_game(g, _int_vector(doc, "k", n, path))
        if kind == "aggregative":
            return aggregative_game(_int_vector(doc, "c", n, path))
        if kind in ("aligned_nsg", "opposed_nsg"):
            nested = doc.get("nested", True)
            if not isinstance(nested, bool):
                raise ParseError(path + ".nested", "expected a boolean")
            in_starts = _int_vector(doc, "in_starts", n, path)
            out_ends = doc.get("out_ends")
            if out_ends is not None:
                out_ends = _int_vector(doc, "out_ends", n, path)
            k = _int_vector(doc, "k", n, path) if kind == "opposed_nsg" else None
            return ordered.generate(
                kind, in_starts=in_starts, out_ends=out_ends, k=k, nested=nested, budget=budget
            )
    except ValueError as exc:
        raise _at(path, exc) from None
    raise ParseError(path + ".kind", f"unknown kind {kind!r}")


def parse_graph(doc, path="$"):
    """Build a Digraph from a `{"n": int, "edges": [[i, j], ...]}` document."""
    if not isinstance(doc, dict):
        raise ParseError(path, "document must be an object")
    n = doc.get("n")
    if not _is_int(n) or n < 0:
        raise ParseError(path + ".n", "non-negative vertex count required")
    try:
        return Digraph(n, _edges(doc, path))
    except ValueError as exc:
        raise _at(path, exc) from None


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(path, str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"not UTF-8 text ({exc})") from None


def _parse_json(text, source):
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError(source, "invalid JSON: nested too deeply") from None
    except ValueError as exc:
        raise ParseError(source, f"invalid JSON: {exc}") from None


def _load_json(path):
    return _parse_json(_read_text(path), path)


def _charge_size(doc, key, noun, budget):
    """Charge n² for a document's player or vertex count n against the
    budget before anything is built from it: the constructors build n masks
    of up to n bits each.  A count that is not an int is left to the parser
    to report."""
    n = doc.get(key) if isinstance(doc, dict) else None
    if _is_int(n):
        charge(n * n, budget, f"{n} {noun} exceed the budget {budget}")


def load_game(path, budget):
    doc = _load_json(path)
    _charge_size(doc, "players", "players", budget)
    return parse_game(doc, budget=budget)


def load_table_game(path, budget):
    """load_game for a command that builds the game's 2^n incentive table
    (directly or in a SyncSolver): its cells are charged against the budget
    before it is built.  The count is compared by bit length, so that a huge
    n never builds 2^n to print it."""
    game = load_game(path, budget)
    if game.n >= budget.bit_length():
        charge(
            1 << game.n, budget, f"incentive table needs 2^{game.n} cells (budget {budget})"
        )
    return game


def load_graph(path, budget):
    doc = _load_json(path)
    _charge_size(doc, "n", "vertices", budget)
    return parse_graph(doc)


# ---------------------------------------------------------------------------
# display helpers (1-based)


def _disp(mask):
    return [i + 1 for i in members(mask)]


def _disp_sets(masks):
    return [_disp(m) for m in masks]


def _parse_players(text, n, flag):
    """Mask of the 1-based player list `text`; errors name its option, `flag`."""
    out = 0
    if text.strip():
        for tok in text.split(","):
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(flag, f"expected a 1-based player, got {tok!r}") from None
            if not 1 <= v <= n:
                raise ParseError(flag, f"player {v} outside 1..{n}")
            out |= 1 << (v - 1)
    return out


def _parse_partition(text, n):
    doc = _parse_json(text, "partition")
    if isinstance(doc, dict):
        doc = doc.get("cells")
    if not isinstance(doc, list):
        raise ParseError("partition", "expected {\"cells\": [[...], ...]}")
    cells = []
    for idx, cell in enumerate(doc):
        path = f"partition.cells[{idx}]"
        if not isinstance(cell, list):
            raise ParseError(path, "expected 0-based player list")
        mask = 0
        for v in cell:
            if not _is_int(v) or not 0 <= v < n:
                got = json.dumps(v)
                raise ParseError(path, f"expected a 0-based player below {n}, got {got}")
            if mask >> v & 1:
                raise ParseError(path, f"lists player {v} twice")
            mask |= 1 << v
        cells.append(mask)
    try:
        p = Partition(cells)
        p.validate_cover(n)
    except ValueError as exc:
        raise _at("partition", exc) from None
    return p


def _emit(args, human_lines, payload):
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args):
    game = load_game(args.game, args.budget)
    # the report reads every player's payoff at every profile once
    reads = game.n << game.n
    charge(
        reads,
        args.budget,
        f"assumption check needs {reads} payoff evaluations (budget {args.budget})",
    )
    rep = game.report
    lines = [
        f"single-crossing:  {'ok' if rep.single_crossing else 'VIOLATED'}",
        f"common-interests: {'ok' if rep.common_interests else 'VIOLATED'}",
        f"deviation-proof:  {'ok' if rep.deviation_proof else 'VIOLATED'}",
        f"nondegenerate:    {'ok' if rep.nondegenerate else 'VIOLATED'}",
    ]
    for w in rep.witnesses[:10]:
        lines.append(
            f"  witness [{w.check}] player {w.player + 1}: "
            f"{_disp(w.low)} vs {_disp(w.high)}"
        )
    payload = {
        "single_crossing": rep.single_crossing,
        "common_interests": rep.common_interests,
        "deviation_proof": rep.deviation_proof,
        "nondegenerate": rep.nondegenerate,
        "witnesses": [
            {"check": w.check, "player": w.player + 1, "low": _disp(w.low), "high": _disp(w.high)}
            for w in rep.witnesses
        ],
    }
    _emit(args, lines, payload)


def _cmd_ne(args):
    game = load_table_game(args.game, args.budget)
    eqs = SyncSolver(game).equilibria()
    least = least_ne(game)
    lines = [f"equilibria ({len(eqs)}):"]
    lines += [f"  {_disp(m)}" for m in eqs]
    lines.append(f"least: {_disp(least)}")
    _emit(args, lines, {"equilibria": _disp_sets(eqs), "least": _disp(least)})


def _cmd_tau(args):
    game = load_table_game(args.game, args.budget)
    target = _parse_players(args.target, game.n, "--target")
    solver = SyncSolver(game)
    value = solver.min_horizon(target)
    _emit(args, [str(value)], {"target": _disp(target), "tau": value})


def _cmd_phi(args):
    game = load_table_game(args.game, args.budget)
    solver = SyncSolver(game)
    out = solver.least_outcome(args.t)
    _emit(args, [f"{_disp(out)}"], {"t": args.t, "phi": _disp(out)})


def _cmd_outcomes(args):
    game = load_table_game(args.game, args.budget)
    solver = SyncSolver(game)
    outs = solver.outcome_set(args.t)
    lines = [f"outcomes at T={args.t} ({len(outs)}):"]
    lines += [f"  {_disp(m)}" for m in outs]
    _emit(args, lines, {"t": args.t, "outcomes": _disp_sets(outs)})


def _cmd_treedepth(args):
    g = load_graph(args.graph, args.budget)
    value, cert = tree_depth(g)
    p = partition_from_certificate(cert, max(value, 1))
    lines = [f"tree-depth: {value}"]
    lines += [f"  level {t + 1}: {_disp(c)}" for t, c in enumerate(p.cells)]
    _emit(
        args,
        lines,
        {"tree_depth": value, "levels": _disp_sets(p.cells)},
    )


def _cmd_design(args):
    game = load_table_game(args.game, args.budget)
    # the schedule holds T cells, the empty ones after tree-depth included
    charge(args.t, args.budget, f"schedule needs {args.t} cells (budget {args.budget})")
    p, achieved = asyncgame.design(game, args.t)
    lines = [f"achieved: {_disp(achieved)}"]
    lines += [f"  cell {t + 1}: {_disp(c)}" for t, c in enumerate(p.cells)]
    _emit(
        args,
        lines,
        {"t": args.t, "cells": _disp_sets(p.cells), "achieved": _disp(achieved)},
    )


def _cmd_async_solve(args):
    game = load_game(args.game, args.budget)
    p = _load_partition_arg(args, game.n)
    table = asyncgame.ieseds(game, p, budget=args.budget)
    lines = [f"least outcome: {_disp(table.outcome)}"]
    lines += [
        f"  stage {t + 1} plays {_disp(a)}" for t, a in enumerate(table.on_path)
    ]
    _emit(
        args,
        lines,
        {
            "cells": _disp_sets(p.cells),
            "outcome": _disp(table.outcome),
            "on_path": _disp_sets(table.on_path),
        },
    )


def _load_partition_arg(args, n):
    text = args.partition
    if text and os.path.exists(text):
        text = _read_text(text)
    return _parse_partition(text, n)


def _cmd_centrality(args):
    game = load_table_game(args.game, args.budget)
    solver = SyncSolver(game)
    weak = design.weak_centrality(game, solver)
    strong = design.strong_centrality(game, solver)
    lines = ["weak centrality classes (ascending horizon):"]
    for value, mask in weak:
        label = "never" if value is None else str(value)
        lines.append(f"  {label}: {_disp(mask)}")
    lines.append("strong dominance pairs (i covers j):")
    for i in range(game.n):
        for j in range(game.n):
            if i != j and strong[i][j]:
                lines.append(f"  {i + 1} covers {j + 1}")
    payload = {
        "weak": [
            {"horizon": value, "players": _disp(mask)} for value, mask in weak
        ],
        "strong": strong,
    }
    _emit(args, lines, payload)


def _cmd_horizons(args):
    game = load_table_game(args.game, args.budget)
    ledger = design.candidate_horizons(game)
    lines = [f"bound: {ledger.bound}"]
    lines += [f"  T={t}: {_disp(m)}" for t, m in ledger.candidates]
    _emit(
        args,
        lines,
        {
            "bound": ledger.bound,
            "candidates": [
                {"t": t, "players": _disp(m)} for t, m in ledger.candidates
            ],
        },
    )


def _cmd_intervene(args):
    game = load_table_game(args.game, args.budget)
    subsidized = _parse_players(args.subsidized, game.n, "--subsidized")
    gain = design.intervention(game, subsidized, args.t)
    _emit(
        args,
        [f"gain: {_disp(gain)}"],
        {"subsidized": _disp(subsidized), "t": args.t, "gain": _disp(gain)},
    )


def _cmd_ordered(args):
    game = load_game(args.game, args.budget)
    flags = ordered.classify(game, args.budget)
    lines = [
        f"cost-ordered:          {flags.cost_ordered}",
        f"strongly cost-ordered: {flags.strongly_cost_ordered}",
        f"contribution-ordered:  {flags.contribution_ordered}",
        f"contribution-natural:  {flags.contribution_natural}",
    ]
    payload = {
        "cost_ordered": flags.cost_ordered,
        "strongly_cost_ordered": flags.strongly_cost_ordered,
        "contribution_ordered": flags.contribution_ordered,
        "contribution_natural": flags.contribution_natural,
    }
    if args.target is not None:
        target = _parse_players(args.target, game.n, "--target")
        value = ordered.ordered_min_horizon(game, target)
        lines.append(f"tau: {value}")
        payload["target"] = _disp(target)
        payload["tau"] = value
    _emit(args, lines, payload)


def _cmd_oracle(args):
    game = load_game(args.game, args.budget)
    if (args.t is None) == (args.partition is None):
        raise ParseError("oracle", "give exactly one of --t or --partition")
    if args.t is not None:
        schedule = oracle.Sync(args.t)
    else:
        schedule = oracle.Async(_load_partition_arg(args, game.n))
    outs = oracle.enumerate_equilibria(
        game, schedule, mode=args.mode, budget=args.budget
    )
    ordered_outs = sorted_coalitions(outs)
    lines = [f"{args.mode} outcomes ({len(ordered_outs)}):"]
    lines += [f"  {_disp(m)}" for m in ordered_outs]
    _emit(
        args,
        lines,
        {"mode": args.mode, "outcomes": _disp_sets(ordered_outs)},
    )


# ---------------------------------------------------------------------------
# driver


def _int_at_least(low, rule):
    """argparse type: an integer >= low; a bad value is reported as
    breaking `rule`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    return parse


_horizon = _int_at_least(1, "horizon must be a positive integer")
_budget = _int_at_least(0, "--budget must be a non-negative integer")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coordsolve",
        description="Solvers for binary-action coordination games with "
        "strategic complementarities.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, handler, game=True):
        if game:
            p.add_argument("--game", required=True, help="game document (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--budget",
            type=_budget,
            default=DEFAULT_BUDGET,
            help=f"evaluation budget for heavy enumerations (default: {DEFAULT_BUDGET})",
        )
        p.set_defaults(handler=handler)
        return p

    add = sub.add_parser
    common(add("check", help="verify the stage-game conditions"), _cmd_check)
    common(add("ne", help="pure Nash equilibria and the least one"), _cmd_ne)
    p = common(add("tau", help="minimum horizon guaranteeing a target"), _cmd_tau)
    p.add_argument("--target", required=True, help="1-based players, e.g. 5,6,7")
    p = common(add("phi", help="least equilibrium outcome at a horizon"), _cmd_phi)
    p.add_argument("--t", type=_horizon, required=True)
    p = common(add("outcomes", help="all equilibrium outcomes at a horizon"), _cmd_outcomes)
    p.add_argument("--t", type=_horizon, required=True)
    p = common(add("treedepth", help="directed tree-depth of a graph"), _cmd_treedepth, False)
    p.add_argument("--graph", required=True, help="graph document (JSON)")
    p = common(add("design", help="optimal asynchronous schedule"), _cmd_design)
    p.add_argument("--t", type=_horizon, required=True)
    p = common(add("async-solve", help="backward elimination on a schedule"), _cmd_async_solve)
    p.add_argument("--partition", required=True, help="JSON cells or file path")
    common(add("centrality", help="weak and strong centrality"), _cmd_centrality)
    common(add("horizons", help="candidate horizons for a principal"), _cmd_horizons)
    p = common(add("intervene", help="marginal gain from subsidising players"), _cmd_intervene)
    p.add_argument("--subsidized", required=True, help="1-based players")
    p.add_argument("--t", type=_horizon, required=True)
    p = common(add("ordered", help="order classification and fast horizon"), _cmd_ordered)
    p.add_argument("--target", default=None, help="1-based players (optional)")
    p = common(add("oracle", help="brute-force equilibrium outcomes"), _cmd_oracle)
    p.add_argument("--mode", choices=["spne", "mspne"], default="mspne")
    p.add_argument("--t", type=_horizon, default=None, help="synchronous horizon")
    p.add_argument("--partition", default=None, help="asynchronous cells")
    return parser


@functools.cache
def _parser():
    """The argparse parser, built once per process."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract is exit 1 (0 for -h)
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args.handler(args)
    except (ParseError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
