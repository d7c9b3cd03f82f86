"""Seeded corpus generators for the three benchmark workloads.

Everything here is plain data (dicts, lists, ints), made from one
`random.Random(seed)` per workload, so the same seed always gives the same
corpus.  Nothing imports coordsolve or the test helpers: a change to the
library or to its tests cannot silently change what the benchmark feeds it.

Instance sizes cycle through a fixed tuple of player counts, so every size
class gets the same share of items on every seed.  Each tuple has three
classes: with equal shares the median item falls inside the middle class and
the 90th percentile inside the top one, never on the gap between two classes.

Every game family is built to satisfy the stage-game conditions (single
crossing, common interests, deviation-proofness, nondegeneracy), so the
solvers answer rather than refuse.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 0

# The full scale is what the benchmark measures; the tiny scale is the same
# mix at toy sizes, for the harness self-test.
SCALES = ("full", "tiny")

CLI_COMMANDS = (
    "check",
    "ne",
    "tau",
    "phi",
    "outcomes",
    "horizons",
    "centrality",
    "design",
    "async-solve",
    "intervene",
    "ordered",
    "treedepth",
)
ORDERED_KINDS = ("aggregative", "aligned_nsg", "opposed_nsg")

# players per size class, and items per pass
PLAN = {
    "cli-docs": {"full": ((7, 8, 9), 108), "tiny": ((4, 5, 6), 24)},
    "sync-horizons": {"full": ((9, 10, 11), 120), "tiny": ((4, 5, 6), 12)},
    "async-oracle": {
        "full": {"ieseds": ((12, 13, 14), 48), "treedepth": ((9, 10, 11), 48), "oracle": 84},
        "tiny": {"ieseds": ((5, 6, 7), 3), "treedepth": ((5, 6, 7), 3), "oracle": 8},
    },
}


# ---------------------------------------------------------------------------
# building blocks


def _mask(players):
    m = 0
    for p in players:
        m |= 1 << p
    return m


def _subset(rng, pool, lo, hi):
    return sorted(rng.sample(pool, rng.randint(lo, min(hi, len(pool)))))


def digraph_edges(rng, n, density):
    """Random digraph in which every vertex keeps at least one in-neighbour."""
    edges = {(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density}
    for j in range(n):
        if not any(e[1] == j for e in edges):
            edges.add((rng.choice([i for i in range(n) if i != j]), j))
    return sorted([i, j] for i, j in edges)


def indegree_edges(rng, n, degree):
    """Random digraph in which every vertex has exactly `degree` in-neighbours.
    Games on these graphs cost about the same to solve on every seed, unlike
    games on Bernoulli digraphs, whose cost follows the drawn density."""
    edges = []
    for j in range(n):
        edges += [[i, j] for i in rng.sample([v for v in range(n) if v != j], degree)]
    return sorted(edges)


def cycles_edges(rng, n, count):
    """Union of `count` random Hamiltonian cycles: strongly connected, every
    in- and out-degree at most `count`.  Exact tree-depth costs much the same
    on every such graph of one size, unlike on Bernoulli digraphs, where it
    swings by orders of magnitude with the density."""
    edges = set()
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        edges.update((order[k], order[(k + 1) % n]) for k in range(n))
    return sorted([i, j] for i, j in edges)


def thresholds(rng, n, edges):
    indeg = [0] * n
    for _, j in edges:
        indeg[j] += 1
    return [rng.randint(1, d) for d in indeg]


def table_spec(rng, n, enabling_size=2):
    """Integer payoff rows plus one positive denominator per player.

    Player i gains from action 1 exactly when the others playing 1 contain one
    of two random "enabling" sets of `enabling_size` players.  (Fixing their
    number and size keeps the solvers' cost much the same from seed to seed.)
    The gain is +-K plus a bonus that
    grows with the others' participation, and the payoff under action 0 is a
    spillover that also grows with it; K dominates both, so the four stage
    conditions hold.  Dividing a player's row by a positive constant keeps
    them, and makes the payoffs proper fractions.
    """
    K = 4 * n
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        enabling = [_mask(rng.sample(others, min(enabling_size, n - 1))) for _ in range(2)]
        beta = rng.randint(0, 2)
        bonus = _mask(_subset(rng, others, 0, n - 1))
        gamma = rng.randint(0, 1)
        spill = _mask(_subset(rng, others, 0, n - 1))
        row = []
        for X in range(1 << n):
            Z = X & ~(1 << i)
            gain = (K if any(e & ~Z == 0 for e in enabling) else -K) + beta * (Z & bonus).bit_count()
            row.append(gamma * (Z & spill).bit_count() + ((X >> i) & 1) * gain)
        rows.append(row)
    return {"kind": "table", "n": n, "rows": rows, "denoms": [rng.choice((2, 3, 5, 7)) for _ in range(n)]}


def fraction_rows(spec):
    return [[Fraction(v, q) for v in row] for row, q in zip(spec["rows"], spec["denoms"])]


def graph_game_spec(rng, n, kind):
    edges = indegree_edges(rng, n, min(3, n - 1))
    spec = {"kind": kind, "n": n, "edges": edges}
    if kind == "threshold":
        spec["k"] = thresholds(rng, n, edges)
    return spec


def aggregative_thresholds(rng, n):
    return sorted(rng.randint(1, n - 1) for _ in range(n))


def random_cells(rng, n, largest):
    """Random ordered partition of the players into cells of 1..largest."""
    order = list(range(n))
    rng.shuffle(order)
    cells = []
    while order:
        k = rng.randint(1, min(largest, len(order)))
        cells.append(sorted(order[:k]))
        order = order[k:]
    return cells


# ---------------------------------------------------------------------------
# cli-docs: game documents and argument vectors


def _document(rng, n, kind):
    """A game document as the CLI reads it (0-based players, "p/q" payoffs)."""
    doc = {"players": n, "kind": kind}
    if kind == "table":
        # single enabling players: parsing, not solving, sets the cost of a
        # table document, which keeps the 90th percentile steady
        spec = table_spec(rng, n, enabling_size=1)
        doc["payoffs"] = [[str(v) for v in row] for row in fraction_rows(spec)]
    elif kind in ("weakest_link", "threshold"):
        spec = graph_game_spec(rng, n, kind)
        doc["edges"] = spec["edges"]
        if kind == "threshold":
            doc["k"] = spec["k"]
    elif kind == "aggregative":
        doc["c"] = aggregative_thresholds(rng, n)
    elif kind == "aligned_nsg":
        # nonincreasing in-interval starts are requirement-nested
        doc["in_starts"] = sorted((rng.randint(0, n - 1) for _ in range(n)), reverse=True)
    else:  # opposed_nsg: complete in-intervals and nondecreasing thresholds
        doc["in_starts"] = [0] * n
        doc["k"] = sorted(rng.randint(1, n - 1) for _ in range(n))
    return doc


def _players_arg(players):
    return ",".join(str(p + 1) for p in players)


# Table documents, the general form of a game and the costliest to parse,
# take two of every seven slots.
CLI_KIND_CYCLE = ("table", "aggregative", "weakest_link", "table", "threshold", "aligned_nsg", "opposed_nsg")


def _cli_kind(cmd, rep):
    """Document kind of the rep-th item of a (size, subcommand) pair.  It is
    fixed, not drawn, so every seed has the same number of documents of each
    kind and size; this puts the 90th percentile inside the band of table
    documents on every seed."""
    if cmd == "ordered":
        return ORDERED_KINDS[rep % len(ORDERED_KINDS)]
    return CLI_KIND_CYCLE[(CLI_COMMANDS.index(cmd) + rep) % len(CLI_KIND_CYCLE)]


def _cli_item(rng, idx, n, cmd, kind):
    if cmd == "treedepth":
        doc = {"n": n, "edges": digraph_edges(rng, n, rng.uniform(0.15, 0.4))}
        return {"id": f"c{idx:03d}", "cmd": cmd, "kind": "graph", "n": n, "doc": doc, "args": []}
    everyone = list(range(n))
    if cmd == "tau":
        target = everyone if rng.random() < 0.5 else _subset(rng, everyone, 1, n)
        args = ["--target", _players_arg(target)]
    elif cmd in ("phi", "outcomes", "design"):
        args = ["--t", str(rng.randint(1, 3))]
    elif cmd == "async-solve":
        args = ["--partition", '{"cells": %s}' % random_cells(rng, n, 3)]
    elif cmd == "intervene":
        args = ["--subsidized", _players_arg(_subset(rng, everyone, 1, 2)), "--t", str(rng.randint(1, 3))]
    elif cmd == "ordered":
        args = ["--target", _players_arg(everyone)] if rng.random() < 0.5 else []
    else:
        args = []
    return {
        "id": f"c{idx:03d}",
        "cmd": cmd,
        "kind": kind,
        "n": n,
        "doc": _document(rng, n, kind),
        "args": args,
    }


def cli_docs(seed, scale="full"):
    """One item is one CLI call; sizes and subcommands are stratified so each
    (size, subcommand) pair gets the same number of items."""
    sizes, count = PLAN["cli-docs"][scale]
    rng = random.Random(f"cli-docs/{seed}")
    items = []
    for idx in range(count):
        n = sizes[idx % len(sizes)]
        slot = idx // len(sizes)
        cmd = CLI_COMMANDS[slot % len(CLI_COMMANDS)]
        items.append(_cli_item(rng, idx, n, cmd, _cli_kind(cmd, slot // len(CLI_COMMANDS))))
    return items


# ---------------------------------------------------------------------------
# sync-horizons: one game per item, built by constructors


SYNC_KINDS = ("weakest_link", "threshold", "table")


def sync_horizons(seed, scale="full"):
    sizes, count = PLAN["sync-horizons"][scale]
    rng = random.Random(f"sync-horizons/{seed}")
    items = []
    for idx in range(count):
        n = sizes[idx % len(sizes)]
        kind = SYNC_KINDS[(idx // len(sizes)) % len(SYNC_KINDS)]
        spec = table_spec(rng, n) if kind == "table" else graph_game_spec(rng, n, kind)
        items.append({"id": f"s{idx:03d}", "game": spec})
    return items


# ---------------------------------------------------------------------------
# async-oracle: the brute-force layers


def _small_game(rng, n, table):
    if table:
        return table_spec(rng, n)
    return {"kind": "weakest_link", "n": n, "edges": digraph_edges(rng, n, rng.uniform(0.2, 0.6))}


def _oracle_item(rng, idx):
    """Sync at n=3/T=3 (three in five items: they cost the most), Sync at
    n=4/T=2, or Async on a partition of n=4..6 players into 2+ cells.  Table
    and weakest-link games alternate rather than being drawn: on a table game
    the enumeration takes half as long again, and drawn counts would move the
    median from seed to seed."""
    shape = idx % 5
    table = (idx // 5) % 2 == 0
    if shape < 3:
        game, schedule = _small_game(rng, 3, table), {"T": 3}
    elif shape == 3:
        game, schedule = _small_game(rng, 4, table), {"T": 2}
    else:
        n = rng.randint(4, 6)
        cells = random_cells(rng, n, 3)
        while len(cells) < 2:
            cells = random_cells(rng, n, 3)
        game, schedule = _small_game(rng, n, table), {"cells": cells}
    return {"id": f"o{idx:03d}", "kind": "oracle", "game": game, "schedule": schedule}


def async_oracle(seed, scale="full"):
    """IESEDS on singleton-cell schedules (every history of every stage is
    solved, 2^n - 1 stage games, so an item's cost is set by n alone),
    tree-depth on unions of three Hamiltonian cycles, and oracle instances.
    The item counts put the median inside the ~35 ms band of n=3/T=3 oracle
    items and the 90th percentile inside the top band, IESEDS at n=14 and
    tree-depth at n=11."""
    plan = PLAN["async-oracle"][scale]
    rng = random.Random(f"async-oracle/{seed}")
    ieseds, treedepth = [], []
    sizes, count = plan["ieseds"]
    for idx in range(count):
        n = sizes[idx % len(sizes)]
        kind = ("weakest_link", "threshold")[(idx // len(sizes)) % 2]
        ieseds.append(
            {
                "id": f"i{idx:03d}",
                "kind": "ieseds",
                "game": graph_game_spec(rng, n, kind),
                "cells": random_cells(rng, n, 1),
            }
        )
    sizes, count = plan["treedepth"]
    for idx in range(count):
        n = sizes[idx % len(sizes)]
        edges = cycles_edges(rng, n, 3)
        treedepth.append({"id": f"t{idx:03d}", "kind": "treedepth", "n": n, "edges": edges})
    oracles = [_oracle_item(rng, idx) for idx in range(plan["oracle"])]
    return _interleave(ieseds, treedepth, oracles)


def _interleave(*lists):
    """Spread each list evenly over the whole sequence, in the same pattern
    on every seed.  IESEDS leaves its memo in a reference cycle that only a
    full garbage collection frees, so the peak memory depends on the order in
    which big and small items run; a fixed order keeps it from varying by
    seed."""
    keyed = []
    for rank, items in enumerate(lists):
        keyed += [((k + 0.5) / len(items), rank, item) for k, item in enumerate(items)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


GENERATORS = {
    "cli-docs": cli_docs,
    "sync-horizons": sync_horizons,
    "async-oracle": async_oracle,
}
