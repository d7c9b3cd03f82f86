"""Asynchronous game solver: backward iterated elimination over a move
schedule, the greatest achievable set per horizon, and optimal schedule
design via the weakest-link reduction and tree-depth."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Partition, bits, gains, iterated_strict_elimination
from .digraph import check_feasible_partition, partition_from_treedepth, reach
from .errors import ResourceLimitError
from .graphical import reduce_to_weakest_link
from .sync import SyncSolver

DEFAULT_BUDGET = 10**7


@dataclass
class IesedsTable:
    """Backward-elimination record for one schedule.

    stage_actions[t] maps each history (tuple of earlier cells' action masks)
    to the least action vector of cell t surviving iterated strict elimination
    in the induced auxiliary game; on_path replays those choices from the
    empty history and outcome is their union."""

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

    For every stage t and history h, the cell plays an auxiliary simultaneous
    game whose payoffs plug in the least-path continuation of later stages;
    the literal per-player strict-dominance loop runs on it (no best-response
    shortcut), and its least survivor is recorded.
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
    tables = [dict() for _ in range(T)]
    memo = {}

    def least_from(t, h):
        """Final outcome reached from stage t under history h when every stage
        plays its least surviving vector."""
        if t == T:
            out = 0
            for m in h:
                out |= m
            return out
        key = (t, h)
        got = memo.get(key)
        if got is not None:
            return got
        def aux_pay(i, X):
            return pay(i, least_from(t + 1, h + (X,)))

        least, _ = iterated_strict_elimination(cells[t], aux_pay)
        tables[t][h] = least
        out = least_from(t + 1, h + (least,))
        memo[key] = out
        return out

    outcome = least_from(0, ())
    on_path = []
    h = ()
    for t in range(T):
        a = tables[t][h]
        on_path.append(a)
        h = h + (a,)
    return IesedsTable(
        partition=p, stage_actions=tables, on_path=tuple(on_path), outcome=outcome
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
