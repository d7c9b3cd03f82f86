"""Asynchronous game solver: backward iterated elimination over a move
schedule, the greatest achievable set per horizon, and optimal schedule
design via the weakest-link reduction and tree-depth."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .core import Partition, at_least, bits, compare_rows, gains, iesds_scan, member_column
from .digraph import (
    TreeDepth,
    check_feasible_partition,
    partition_from_certificate,
)
from .errors import DEFAULT_BUDGET, charge
from .graphical import reduce_to_weakest_link
from .sync import SyncSolver


@dataclass(eq=False)
class IesedsTable:
    """Backward-elimination record for one schedule.

    on_path replays each stage's least surviving move from the empty
    history, and outcome is their union, in the game's own player labels.
    The record itself is kept in move order: label[M] is the relabelled
    profile M (see ieseds) in the game's labels, and least[t][H] the least
    action vector of cell t surviving iterated strict elimination in the
    auxiliary game at relabelled history H, itself relabelled.

    label, least and stage_actions are built on first read.  stage_actions
    gives the same record as one dict per stage, in the game's labels:
    stage_actions[t] maps each history of stage t, keyed by the union of
    the earlier cells' action masks (the cells are disjoint, so the union
    fixes each earlier cell's move, and the keys are exactly the submasks
    of cells[0] | ... | cells[t-1]), to the cell's least surviving move.
    ieseds keeps each stage as least[t] itself (the list sweep) or, on the
    column sweep, as one int whose bit H is set when the stage's one mover
    plays 1 at history H.  Two tables are equal when their partitions,
    paths, outcomes and least records are."""

    partition: Partition
    on_path: tuple
    outcome: int
    _stages: list = field(repr=False)

    @cached_property
    def label(self):
        return _move_order_labels(self.partition.cells)

    @cached_property
    def least(self):
        least = []
        width = 0
        for c, stage in zip(self.partition.cells, self._stages):
            if type(stage) is int:
                cell = 1 << width if c else 0
                stage = [cell if b == "1" else 0 for b in f"{stage:0{1 << width}b}"[::-1]]
            least.append(stage)
            width += c.bit_count()
        return least

    @cached_property
    def stage_actions(self):
        label = self.label
        return [dict(zip(label, map(label.__getitem__, least))) for least in self.least]

    def __eq__(self, other):
        if not isinstance(other, IesedsTable):
            return NotImplemented
        return (self.partition, self.on_path, self.outcome, self.least) == (
            other.partition,
            other.on_path,
            other.outcome,
            other.least,
        )


def _move_order_labels(cells):
    """label[M]: the relabelled profile M (see ieseds) in the game's player
    labels, for every M below 2^n."""
    label = [0]
    for c in cells:
        for i in bits(c):
            b = 1 << i
            label += [m | b for m in label]
    return label


def _history_cost(cells):
    """The payoff reads that ieseds is charged for on this schedule: stage t
    reads each cell member's payoff at every profile of its cell and the
    cells before it, |cell| 2^(|prefix| + |cell|) reads.  An empty cell
    reads none and is charged one unit per history.  The list sweep reads
    exactly these rows.  A game with rules on a schedule of cells of at
    most one player takes the column sweep instead, which reads no payoffs:
    its 2^|prefix| rule tests per stage run as whole-column operations, and
    on those inputs the charge bounds the work from above."""
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
    2^(|prefix| + |cell|).  A history's answer depends only on the stages
    after it, so the sweep gives every history the answer a lazy recursion
    from the empty history would reach it with.

    A game with rules (see core.neighbour_game) on a schedule whose every
    cell holds at most one player takes the column sweep (_column_sweep):
    the continuation is n ints, one bit per profile, and each stage tests
    its mover's rule at every history at once, and reads no payoffs.  Any
    other input takes the list sweep (_list_sweep), which reads every
    stage's payoff rows through the game's payoff function, a rule game's
    one-player stages included.  Both keep the record that IesedsTable
    expands on first read.

    The budget is charged up front with the number of payoff reads of the
    row path (_history_cost), whichever sweep runs; a schedule over it
    raises ResourceLimitError before any read.
    """
    p.validate_cover(game.n)
    cells = p.cells
    cost = _history_cost(cells)
    charge(cost, budget, f"schedule needs {cost} payoff evaluations (budget {budget})")
    if game._rules is not None and all(c & (c - 1) == 0 for c in cells):
        outcome, on_path, stages = _column_sweep(game, cells)
    else:
        outcome, on_path, stages = _list_sweep(game, cells)
    return IesedsTable(partition=p, on_path=on_path, outcome=outcome, _stages=stages)


def _list_sweep(game, cells):
    """ieseds on any game and schedule: (outcome, on_path, stages), with
    stages[t] the list least[t].

    With nxt[M] the final outcome reached from stage t + 1 under history M
    (the relabelling itself after the last stage), member i of the cell
    pays u_i(nxt[M]) at profile M, and the stage reads each member's
    payoffs as one row, game.payoff_row(i, nxt), one payoff read per
    mask whatever the game's kind.  A cell of one player has its bit on
    top, so its least survivor at history H is the cell if
    row[H + 2^|prefix|] > row[H], and nothing otherwise: the row's upper
    half compared against its lower half, and the history's final outcome
    is picked from nxt's lower or upper half.  An empty cell plays nothing
    and reads nothing.  A larger cell's rows become one incentive table for
    the stage (compare_rows), each history's least survivor is
    iesds_scan(gainers, losers, cell, H), and its final outcome is
    nxt[H | least]."""
    label = _move_order_labels(cells)
    row = game.payoff_row
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
            u = row(i, nxt)
            least = [cell if a1 > a0 else 0 for a0, a1 in zip(u, u[half:])]
            nxt = [h if a else l for l, h, a in zip(nxt, nxt[half:], least)]
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
    return nxt[0], tuple(on_path), stages


def _column_sweep(game, cells):
    """ieseds on a game with rules and a schedule of cells of at most one
    player: (outcome, on_path, stages), with stages[t] one int whose bit H
    is set when stage t's mover plays 1 at history H (0 for an empty cell).

    The continuation is kept as bit columns, not as the list nxt of
    _list_sweep: bit M of col[j] is set when player j ends at 1 from the
    relabelled profile M.  The mover of the stage at width w (its
    relabelled bit) pays 0 at H and +1 or -1 at H + 2^w, by its rule, so it
    moves at every history where at least k of its need end at 1 from
    H + 2^w: at_least over the need's upper halves, each step one operation
    over all histories at once.  A rule is upward closed, so a history with
    more players at 1 never ends with fewer (the stages after it move at
    least where they did), and each later player's new column is its lower
    half with its upper half ORed in where the mover moves.  The mover's
    own new column is where it moves; an earlier player's is its own bit of
    H, which it reads off pat."""
    rules = game._rules
    n = game.n
    pos = [0] * n  # each player's relabelled bit
    w = 0
    for c in cells:
        if c:
            pos[c.bit_length() - 1] = w
            w += 1
    # pat[j]: the profiles with j's relabelled bit set
    pat = [member_column(r, 1 << n) for r in pos]
    col = [0] * n
    later = []  # the players of the stages after the one being solved
    stages = [0] * len(cells)
    for t in range(len(cells) - 1, -1, -1):
        c = cells[t]
        if not c:
            continue  # the stage moves no one, and the columns stay
        w -= 1
        i = c.bit_length() - 1
        half = 1 << w
        low = (1 << half) - 1
        _, need, k = rules[i]
        ups = [col[j] >> half if pos[j] > w else pat[j] & low for j in bits(need)]
        mv = at_least(k, ups, low)
        stages[t] = mv
        for j in later:
            x = col[j]
            col[j] = x & low | x >> half & mv
        col[i] = mv
        later.append(i)
    outcome = 0
    for j in later:
        outcome |= (col[j] & 1) << j

    on_path = []
    h = w = 0
    for c, mv in zip(cells, stages):
        if mv >> h & 1:
            on_path.append(c)
            h |= 1 << w
        else:
            on_path.append(0)
        w += c.bit_count()
    return outcome, tuple(on_path), stages


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
    depths = solver.depths or TreeDepth(g)
    scope = depths.reach(achieved)
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
