"""Asynchronous game solver: backward iterated elimination over a move
schedule, the greatest achievable set per horizon, and optimal schedule
design via the weakest-link reduction and tree-depth."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .core import Partition, bits, compare_rows, gains, iesds_scan
from .digraph import (
    TreeDepth,
    check_feasible_partition,
    partition_from_certificate,
    reach,
)
from .errors import DEFAULT_BUDGET, charge
from .graphical import reduce_to_weakest_link
from .sync import SyncSolver


@dataclass
class IesedsTable:
    """Backward-elimination record for one schedule.

    on_path replays each stage's least surviving move from the empty
    history, and outcome is their union, in the game's own player labels.
    The record itself is kept in move order: label[M] is the relabelled
    profile M (see ieseds) in the game's labels, and least[t][H] the least
    action vector of cell t surviving iterated strict elimination in the
    auxiliary game at relabelled history H, itself relabelled.

    stage_actions, built from them on first read, gives the same record as
    one dict per stage, in the game's labels: stage_actions[t] maps each
    history of stage t, keyed by the union of the earlier cells' action
    masks (the cells are disjoint, so the union fixes each earlier cell's
    move, and the keys are exactly the submasks of cells[0] | ... |
    cells[t-1]), to the cell's least surviving move."""

    partition: Partition
    on_path: tuple
    outcome: int
    least: list = field(repr=False)
    label: list = field(repr=False)

    @cached_property
    def stage_actions(self):
        label = self.label
        return [dict(zip(label, map(label.__getitem__, least))) for least in self.least]


def _history_cost(cells):
    """The payoff reads that ieseds is charged for on this schedule: stage t
    reads each cell member's payoff at every profile of its cell and the
    cells before it, |cell| 2^(|prefix| + |cell|) reads.  An empty cell
    reads none and is charged one unit per history.  On a game with rules
    a one-player cell reads no payoffs and makes 2^|prefix| rule tests
    instead, so there the charge bounds the work from above."""
    total = 0
    prefix = 0
    for c in cells:
        k = c.bit_count()
        total += max(k, 1) << (prefix + k)
        prefix += k
    return total


def ieseds(game, p, budget=DEFAULT_BUDGET):
    """Least action profile surviving iterated elimination of strictly
    extensively dominated strategies, stage by stage from the back.

    For every stage t and history H, the cell plays an auxiliary simultaneous
    game whose payoffs plug in the least-path continuation of later stages;
    iterated strict dominance runs on it (no best-response shortcut), and
    its least survivor is recorded.

    One bottom-up sweep solves the stages last to first.  The players are
    relabelled into move order, so that stage t's profiles, a history H of
    the earlier cells joined with a move X of cell t, are the ints below
    2^(|prefix| + |cell|).  With nxt[M] the final outcome reached from stage
    t + 1 under history M (the relabelling itself after the last stage),
    member i of the cell pays u_i(nxt[M]) at profile M, and the stage reads
    each member's payoffs as one row, game.payoff_row(i, nxt).  A cell of
    one player has its bit on top, so its least survivor at history H is
    the cell if row[H + 2^|prefix|] > row[H], and nothing otherwise: the
    row's upper half compared against its lower half.  On a game with
    rules (see core.neighbour_game) the mover pays 0 in the lower half and
    +1 or -1 in the upper, so it reads no row: it moves iff at least k of
    its rule's need play 1 in nxt[H + 2^|prefix|].  Either way the
    history's final outcome is picked from nxt's lower or upper half.  An
    empty cell plays nothing and reads nothing.  A larger cell's rows
    become one incentive table for the stage (compare_rows), each
    history's least survivor is iesds_scan(gainers, losers, cell, H), and
    its final outcome is nxt[H | least].  A history's answer depends only
    on the stages after it, so the sweep gives every history the answer a
    lazy recursion from the empty history would reach it with.  The table keeps
    each stage's least survivors as that list over its relabelled histories;
    its stage_actions dicts are built only if read.

    The budget is charged up front with the number of payoff reads of the
    row path (_history_cost), whether or not a stage reads its mover's rule
    instead; a schedule over it raises ResourceLimitError before any read.
    """
    p.validate_cover(game.n)
    cells = p.cells
    cost = _history_cost(cells)
    charge(cost, budget, f"schedule needs {cost} payoff evaluations (budget {budget})")

    # label[M]: the relabelled profile M in the game's player labels
    label = [0]
    for c in cells:
        for i in bits(c):
            b = 1 << i
            label += [m | b for m in label]
    row = game.payoff_row
    rules = game._rules
    stages = [None] * len(cells)
    nxt = label  # after the last stage, a profile is its own outcome
    width = game.n  # |prefix| + |cell| of the stage being solved
    for t in range(len(cells) - 1, -1, -1):
        k = cells[t].bit_count()
        width -= k
        half = 1 << width  # the stage's histories
        cell = ((1 << k) - 1) << width
        if k == 0:
            least = [0] * half  # nxt stays: the stage moves no one
        elif k == 1:
            # the mover's bit is the top one: it plays 1 at H + half, 0 at H
            i = cells[t].bit_length() - 1
            hi = nxt[half:]
            if rules is not None:
                # u_i is 0 at H and +1 or -1 at H + half, by i's rule
                _, need, ki = rules[i]
                least = [cell if (X & need).bit_count() >= ki else 0 for X in hi]
            else:
                u = row(i, nxt)
                least = [cell if a1 > a0 else 0 for a0, a1 in zip(u, u[half:])]
            nxt = [h if a else l for l, h, a in zip(nxt, hi, least)]
        else:
            rows = ((width + r, row(i, nxt)) for r, i in enumerate(bits(cells[t])))
            gainers, losers = compare_rows(rows, (1 << (width + k)) - 1)
            least = [iesds_scan(gainers, losers, cell, H)[0] for H in range(half)]
            nxt = [nxt[H | a] for H, a in enumerate(least)]
        stages[t] = least

    on_path = []
    h = 0
    for least in stages:
        a = least[h]
        on_path.append(label[a])
        h |= a
    return IesedsTable(
        partition=p, on_path=tuple(on_path), outcome=nxt[0], least=stages, label=label
    )


def best_achievable(game, T, solver=None):
    """Greatest set of players that some T-cell schedule brings to action 1 in
    every monotone-SPNE; coincides with the synchronous least outcome at T."""
    solver = solver or SyncSolver(game)
    return solver.least_outcome(T)


def design(game, T, solver=None):
    """Optimal T-cell schedule and the set it achieves.

    The achieved set is the synchronous least outcome at T; the schedule comes
    from the weakest-link reduction restricted to that (reach-closed) set,
    levelled by tree-depth, with everyone else placed in the last cell.  On a
    weakest-link game the reduction is the solver's own graph, and its
    tree-depth memo, which the horizons already filled, certifies the levels.
    """
    solver = solver or SyncSolver(game)
    achieved = solver.least_outcome(T)
    g = reduce_to_weakest_link(game, solver=solver).graph
    scope = reach(g, achieved)
    depths = solver.depths or TreeDepth(g)
    part = partition_from_certificate(depths.certificate(scope), T)
    rest = game.all_players & ~part.union()
    cells = list(part.cells)
    cells[-1] |= rest
    return Partition(cells), achieved


def check_sufficient_feasible(game, g, p, M=None):
    """Is g an M-sufficient graph compatible with the schedule?

    Sufficiency: every i in M strictly gains from action 1 when exactly its
    in-neighbors within M play 1.  Compatibility: no two same-cell members of
    M strongly connected in the suffix subgraph restricted to M.
    """
    if M is None:
        M = game.all_players
    for i in bits(M):
        if not gains(game, i, g.in_mask(i) & M & ~(1 << i)):
            return False
    return check_feasible_partition(g, p, M)
