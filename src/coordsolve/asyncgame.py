"""Asynchronous game solver: backward iterated elimination over a move
schedule, the greatest achievable set per horizon, and optimal schedule
design via the weakest-link reduction and tree-depth."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Partition, bits, gains, iterated_strict_elimination, submasks
from .digraph import check_feasible_partition, partition_from_treedepth, reach
from .errors import ResourceLimitError
from .graphical import reduce_to_weakest_link
from .sync import SyncSolver

DEFAULT_BUDGET = 10**7


@dataclass
class IesedsTable:
    """Backward-elimination record for one schedule.

    stage_actions[t] maps each history of stage t to the least action vector
    of cell t surviving iterated strict elimination in the induced auxiliary
    game.  A history is keyed by the union of the earlier cells' action
    masks (an int); the cells are disjoint, so the union fixes each earlier
    cell's move, and the keys are exactly the submasks of cells[0] | ... |
    cells[t-1].  on_path replays those choices from the empty history and
    outcome is their union."""

    partition: Partition
    stage_actions: list
    on_path: tuple
    outcome: int


def _history_cost(cells):
    total = 0
    prefix = 0
    for c in cells:
        total += (1 << prefix) * max(c.bit_count(), 1)
        prefix += c.bit_count()
    return total


def ieseds(game, p, budget=DEFAULT_BUDGET):
    """Least action profile surviving iterated elimination of strictly
    extensively dominated strategies, stage by stage from the back.

    For every stage t and history H, the cell plays an auxiliary simultaneous
    game whose payoffs plug in the least-path continuation of later stages;
    the literal per-player strict-dominance loop runs on it (no best-response
    shortcut), and its least survivor is recorded.

    One bottom-up sweep solves the stages last to first.  A history is the
    int H, the union of the earlier cells' moves, and stage t solves every
    H within the earlier cells: with nxt[M] the final outcome reached from
    stage t + 1 under history M (the identity after the last stage), the
    auxiliary payoff of X is pay(i, nxt[H | X]), and the history's own final
    outcome is nxt[H | least].  A history's answer depends only on the
    stages after it, so the sweep gives every history the answer a lazy
    recursion from the empty history would reach it with.
    """
    p.validate_cover(game.n)
    cells = p.cells
    T = len(cells)
    cost = _history_cost(cells)
    if cost > budget:
        raise ResourceLimitError(
            f"schedule needs ~{cost} payoff evaluations (budget {budget})", size=cost
        )

    pay = game._payoff
    tables = [None] * T
    prefix = p.union()
    nxt = None  # final outcome per history of the stage after t; None: identity
    for t in range(T - 1, -1, -1):
        cell = cells[t]
        prefix &= ~cell
        tables[t], nxt = _solve_stage(pay, cell, prefix, nxt)

    on_path = []
    h = 0
    for t in range(T):
        a = tables[t][h]
        on_path.append(a)
        h |= a
    return IesedsTable(
        partition=p, stage_actions=tables, on_path=tuple(on_path), outcome=nxt[0]
    )


def _solve_stage(pay, cell, prefix, nxt):
    """Solve one stage for every history H within `prefix`.

    Returns (least, out): least[H] is the cell's least surviving move and
    out[H] the final outcome it leads to, given nxt (None after the last
    stage, where the outcome is the profile itself)."""
    least = {}
    out = {}
    if nxt is None:
        def aux_pay(i, X):
            return pay(i, h | X)  # h: the history the loop below is solving
    else:
        def aux_pay(i, X):
            return pay(i, nxt[h | X])
    for h in submasks(prefix):
        a, _ = iterated_strict_elimination(cell, aux_pay)
        least[h] = a
        out[h] = h | a if nxt is None else nxt[h | a]
    return least, out


def best_achievable(game, T, solver=None):
    """Greatest set of players that some T-cell schedule brings to action 1 in
    every monotone-SPNE; coincides with the synchronous least outcome at T."""
    solver = solver or SyncSolver(game)
    return solver.least_outcome(T)


def design(game, T, solver=None):
    """Optimal T-cell schedule and the set it achieves.

    The achieved set is the synchronous least outcome at T; the schedule comes
    from the weakest-link reduction restricted to that (reach-closed) set,
    levelled by tree-depth, with everyone else placed in the last cell.
    """
    solver = solver or SyncSolver(game)
    achieved = solver.least_outcome(T)
    sg = reduce_to_weakest_link(game, solver=solver)
    g = sg.graph
    scope = reach(g, achieved)
    part = partition_from_treedepth(g, T, vertices=scope)
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
