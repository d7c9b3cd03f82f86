"""Shared fixtures: small named example games, random game families that
provably satisfy the stage assumptions, and independent reference
implementations used to cross-check the solvers."""

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from operator import or_
from typing import NamedTuple

from hypothesis import strategies as st

from coordsolve import (
    AssumptionReport,
    Context,
    Digraph,
    EliminationTree,
    Partition,
    PreconditionError,
    ResourceLimitError,
    Sync,
    Violation,
    aggregative_game,
    full_context,
    mask_of,
    scc,
    table_game,
    threshold_game,
    weakest_link_game,
)
from coordsolve import core
from coordsolve.core import (
    _ctx_pay,
    bits,
    check_mask,
    compare_rows,
    gains,
    iesds_scan,
    int_row,
    is_ne,
    members,
    rule_gainers,
    settle,
    sorted_coalitions,
    submasks,
)
from coordsolve.asyncgame import _history_cost
from coordsolve.cli import ParseError, _rational
from coordsolve.digraph import reach
from coordsolve.graphical import SufficientGraph, _first_minimal_satisfying
from coordsolve.errors import DEFAULT_BUDGET
from coordsolve.ordered import OrderedFlags
from coordsolve.sync import PolicyNode, SyncSolver
from coordsolve import oracle as oracle_module
from coordsolve.oracle import StrategyProfile, _Budget, _stage_options


def bit(X, i):
    return (X >> i) & 1


# ---------------------------------------------------------------------------
# canonical instances (player indices 0-based, named by their shape)


def clique_edges(size, offset=0):
    return [
        (i + offset, j + offset)
        for i in range(size)
        for j in range(size)
        if i != j
    ]


def two_triangles_graph():
    """Bidirected triangles {0,1,2} and {3,4,5}; 2->6, 5->6, 7->6, 6->7."""
    edges = clique_edges(3) + clique_edges(3, 3)
    edges += [(2, 6), (5, 6), (7, 6), (6, 7)]
    return Digraph(8, edges)


def two_triangles_game():
    return weakest_link_game(two_triangles_graph())


def hub_intervention_graph():
    """Complete bidirected block {0,1,2,3}; 0 feeds all of 4..8."""
    edges = clique_edges(4) + [(0, j) for j in range(4, 9)]
    return Digraph(9, edges)


def star_graph(leaves):
    return Digraph(
        leaves + 1,
        [(0, j) for j in range(1, leaves + 1)] + [(j, 0) for j in range(1, leaves + 1)],
    )


def cycle_graph(n):
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def cross_pairs_graph():
    """E_0={1}, E_1={0}, E_2={1,3}, E_3={0,2}: two linked pairs."""
    return Digraph(4, [(1, 0), (0, 1), (1, 2), (3, 2), (0, 3), (2, 3)])


def cross_pairs_game():
    return weakest_link_game(cross_pairs_graph())


def mixed_two_player_game():
    """Row player has dominant 0; column player matches the row player."""
    return table_game([[1, 0, 3, 2], [1, 2, 0, 3]])


def free_rider_game():
    """Players 0,1 have dominant 0; player 2 follows max(a_0, a_1)."""
    rows = []
    for i in range(3):
        row = []
        for X in range(8):
            a = [bit(X, k) for k in range(3)]
            if i < 2:
                row.append(2 * a[2] - a[i])
            else:
                row.append(a[2] * (2 * max(a[0], a[1]) - 1))
        rows.append(row)
    return table_game(rows)


def seven_player_design_game():
    """The seven-player game with a unique two-cell all-ones schedule."""
    rows = []
    for i in range(7):
        row = []
        for X in range(1 << 7):
            a = [bit(X, k) for k in range(7)]
            if i == 0:
                row.append(a[0] * (2 * a[1] * a[2] - 1) + 2 * a[4])
            elif i == 1:
                row.append(a[1] * (2 * a[0] - 1))
            elif i == 2:
                row.append(a[2] * (2 * a[0] - 1))
            elif i == 3:
                row.append(a[3] * (2 * a[0] * a[4] * a[5] * a[6] - 1))
            elif i == 4:
                row.append(a[4] * (2 * max(a[3], a[5] * a[6]) - 1))
            elif i == 5:
                row.append(a[5] * (2 * max(a[3], a[4] * a[6]) - 1))
            else:
                row.append(a[6] * (2 * max(a[3], a[4] * a[5]) - 1))
        rows.append(row)
    return table_game(rows)


def tie_break_violation_game():
    """Eight players; the indirect-utility tie-break fails for players 0,1."""
    rows = []
    for i in range(8):
        row = []
        for X in range(1 << 8):
            a = [bit(X, k) for k in range(8)]
            t1 = a[2] * a[3] * a[4]
            t2 = a[5] * a[6] * a[7]
            if i == 0:
                row.append(max(a[0] * (4 * a[1] - 3 + t1 + t2), 2 * t1))
            elif i == 1:
                row.append(max(a[1] * (4 * a[0] - 3 + t1 + t2), 2 * t1))
            elif i < 5:
                others = [k for k in (2, 3, 4) if k != i]
                row.append(a[i] * (2 * a[others[0]] * a[others[1]] - 1))
            else:
                others = [k for k in (5, 6, 7) if k != i]
                row.append(a[i] * (2 * a[others[0]] * a[others[1]] - 1))
        rows.append(row)
    return table_game(rows)


# the README's 4-player table ("Notes and limits"): it fails single crossing,
# common interests and nondegeneracy
README_TABLE_ROWS = [
    [0, -1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, 1, 0, 0, 1, -1, 0, 0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 0, -1, -1, 1, -1, 0, 0, 0, 0, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, -1, -1, -1, -1, -1, -1, 1, 1],
]


def spillover_pair_games():
    """Five players, a triangle feeding a pair; the second variant adds an
    epsilon spillover from player 3 to player 0 that kills the low outcome."""

    def base(i, X, eps):
        a = [bit(X, k) for k in range(5)]
        if i == 0:
            return 2 * min(a[0], a[1], a[2]) - a[0] + eps * a[3]
        if i in (1, 2):
            return 2 * min(a[0], a[1], a[2]) - a[i]
        if i == 3:
            return 2 * min(a[0], a[3], a[4]) - a[3]
        return 2 * min(a[3], a[4]) - a[4]

    plain = table_game([[base(i, X, 0) for X in range(32)] for i in range(5)])
    perturbed = table_game(
        [[base(i, X, Fraction(1, 2)) for X in range(32)] for i in range(5)]
    )
    return plain, perturbed


# ---------------------------------------------------------------------------
# random families (constructed to satisfy the stage assumptions by design)


def random_digraph(rng, n, p=0.35):
    edges = [
        (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p
    ]
    return Digraph(n, edges)


def cycle_union_digraph(rng, n, count):
    """Union of `count` random Hamiltonian cycles on n vertices (n >= 2):
    strongly connected, every in- and out-degree at most `count`."""
    edges = set()
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        edges.update((order[k], order[(k + 1) % n]) for k in range(n))
    return Digraph(n, edges)


def random_rooted_digraph(rng, n, p=0.35):
    """Random digraph where every vertex keeps at least one in-neighbor."""
    g = random_digraph(rng, n, p)
    edges = set(g.edges)
    for i in range(n):
        if not g.in_mask(i):
            j = rng.choice([v for v in range(n) if v != i])
            edges.add((j, i))
    return Digraph(n, edges)


def random_game(rng, n, spillovers=True):
    """Random assumption-satisfying table game.

    Each player's incentive to act is an upward-closed family generated by a
    few random minimal coalitions; the gain magnitude carries a monotone bonus
    and the base payoff an optional monotone spillover.  Scales are chosen so
    single crossing, common interests (with the tie-break), deviation
    proofness, and nondegeneracy all hold by construction.
    """
    K = 4 * n
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        seeds = [
            mask_of(rng.sample(others, rng.randint(1, len(others))))
            for _ in range(rng.randint(1, 3))
        ]
        beta = rng.randint(0, 2)
        bonus = mask_of(rng.sample(others, rng.randint(0, len(others))))
        gamma = rng.randint(0, 1) if spillovers else 0
        spill = mask_of(rng.sample(others, rng.randint(0, len(others))))
        row = []
        for X in range(1 << n):
            Z = X & ~(1 << i)
            sat = any(s & ~Z == 0 for s in seeds)
            gain = (2 * sat - 1) * K + beta * (Z & bonus).bit_count()
            base = gamma * (Z & spill).bit_count()
            row.append(base + bit(X, i) * gain)
        rows.append(row)
    return table_game(rows)


def random_partition(rng, n):
    """Random ordered partition of the n players into nonempty cells."""
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    bounds = [0] + cuts + [n]
    return Partition([mask_of(order[a:b]) for a, b in zip(bounds, bounds[1:])])


def planted_game(rng, k):
    """A random_game on k + 1 players whose last player is made to take action
    1 unconditionally (the others may hinge on it), plus one appended player
    whose action 1 is strictly dominated."""
    base = random_game(rng, k + 1)
    n, low = k + 2, (1 << (k + 1)) - 1
    rows = [[base.payoff(i, X & low) for X in range(1 << n)] for i in range(k)]
    rows.append([1 if (X >> k) & 1 else 0 for X in range(1 << n)])  # dominant 1
    rows.append([-1 if (X >> (k + 1)) & 1 else 0 for X in range(1 << n)])  # dominant 0
    return table_game(rows)


def random_threshold_vector(rng, g):
    return [rng.randint(1, max(g.in_mask(i).bit_count(), 1)) for i in range(g.n)]


def random_aggregative(rng, n):
    c = sorted(rng.randint(1, n - 1) for _ in range(n))
    return aggregative_game(c), c


# ---------------------------------------------------------------------------
# independent reference recursions


def check_assumptions_reference(game, ctx=None):
    """All-pairs stage-condition check: every player, every low < high pair
    of opponents' coalitions, straight from the payoff oracle.  Lists every
    violating pair, where check_assumptions keeps one per high set."""
    if ctx is None:
        ctx = full_context(game)
    pay = game.payoff
    rep = AssumptionReport()
    wit = rep.witnesses

    for i in bits(ctx.active):
        b = 1 << i
        others = ctx.active & ~b
        u0 = {}
        u1 = {}
        for m in submasks(others):
            u0[m] = pay(i, m | ctx.ones)
            u1[m] = pay(i, m | ctx.ones | b)

        if not u1[others] > u0[others]:
            rep.nondegenerate = False
            wit.append(Violation("nondegenerate", i, others, others))
        if not u0[0] > u1[0]:
            rep.nondegenerate = False
            wit.append(Violation("nondegenerate", i, 0, 0))

        for high in submasks(others):
            low = (high - 1) & high
            while True:
                if low == high:  # only proper submasks
                    break
                d_lo = u1[low] - u0[low]
                d_hi = u1[high] - u0[high]
                if (d_lo >= 0 and d_hi < 0) or (d_lo > 0 and d_hi <= 0):
                    rep.single_crossing = False
                    wit.append(Violation("single_crossing", i, low, high))
                m_lo = max(u0[low], u1[low])
                m_hi = max(u0[high], u1[high])
                if m_hi < m_lo:
                    rep.common_interests = False
                    wit.append(Violation("common_interests", i, low, high))
                elif u1[high] >= u0[high] and u0[low] >= u1[low] and not m_hi > m_lo:
                    rep.common_interests = False
                    wit.append(Violation("tie-break (interpreted)", i, low, high))
                if (u1[high] >= u0[low] and u1[high] < u0[high]) or (
                    u1[high] > u0[low] and u1[high] <= u0[high]
                ):
                    rep.deviation_proof = False
                    wit.append(Violation("deviation_proof", i, low, high))
                if low == 0:
                    break
                low = (low - 1) & high
    return rep


def check_assumptions_pass_reference(game, ctx=None):
    """check_assumptions as it was before its column test, kept verbatim:
    every player runs the subset-best witness pass.  Verify the stage-game
    conditions for every active player.

    Per active player i and coalitions low < high of i's opponents: single
    crossing, common interests (monotone indirect utility plus the tie-break
    rule, which we interpret on the indirect utility itself and label
    "tie-break (interpreted)"), and the deviation-proof condition.
    Nondegeneracy asks that action 1 be strictly best against all-ones
    opponents and strictly worst against all-zeros.

    Each pairwise condition holds at a high set X unless the best value of
    some payoff quantity over X's proper subsets beats X's own.  One pass
    over the opponents' coalitions, subsets first, carries those best values
    with a subset attaining them: O(k 2^k) per player for k opponents,
    instead of the 3^k pairs.  A failed check records one witness pair per
    (check, player, high set).
    """
    if ctx is None:
        ctx = full_context(game)
    pay = _ctx_pay(game, ctx)
    rep = AssumptionReport()
    wit = rep.witnesses
    # Coalitions of the k opponents by index t < 2^k (bit r of t stands for
    # the r-th opponent); lower[t] lists the indices of t's maximal proper
    # subsets.  k is the same for every active player.
    size = 1 << max(ctx.active.bit_count() - 1, 0)
    lower = [[t ^ (1 << r) for r in bits(t)] for t in range(size)]

    for i in bits(ctx.active):
        bit = 1 << i
        subs = [0]  # subs[t]: the coalition with index t
        for j in bits(ctx.active & ~bit):
            subs += [m | 1 << j for m in subs]
        u0 = [pay(i, m) for m in subs]
        u1 = [pay(i, m | bit) for m in subs]

        # Assumption 2 (nondegeneracy): strict preference flips between extremes.
        if not u1[-1] > u0[-1]:
            rep.nondegenerate = False
            wit.append(Violation("nondegenerate", i, subs[-1], subs[-1]))
        if not u0[0] > u1[0]:
            rep.nondegenerate = False
            wit.append(Violation("nondegenerate", i, 0, 0))

        _check_pairs_reference(rep, i, subs, u0, u1, lower)
    return rep


def _check_pairs_reference(rep, i, subs, u0, u1, lower):
    """The pairwise conditions of player i, one subset-best pass (see
    check_assumptions).  u0[t], u1[t]: i's payoffs for actions 0 and 1
    against the coalition subs[t]."""
    wit = rep.witnesses
    size = len(subs)
    # Only order comparisons among i's payoffs matter; ranks keep them exact
    # and make them int comparisons.
    rank = {v: r for r, v in enumerate(sorted(set(u0) | set(u1)))}
    r0 = [rank[v] for v in u0]
    r1 = [rank[v] for v in u1]
    # Each table packs value * size + t, so that one max or min over packed
    # keys yields the best value over a set's subsets (itself included) and
    # the index t of a subset attaining it.
    sgn = [0] * size  # max of sign(u1 - u0) + 1
    top = [0] * size  # max of max(u0, u1)
    tie = [0] * size  # max of max(u0, u1) over subsets with u1 <= u0, or -1
    dip = [0] * size  # min of u0
    ceiling = len(rank) * size  # packed key above every rank, for empty mins

    for t in range(size):
        a, b = r1[t], r0[t]
        s = (a > b) - (a < b) + 1
        m = a if a > b else b
        below = lower[t]
        # best over the proper subsets of t
        ps = max(map(sgn.__getitem__, below), default=-1)
        pm = max(map(top.__getitem__, below), default=-1)
        pt = max(map(tie.__getitem__, below), default=-1)
        pc = min(map(dip.__getitem__, below), default=ceiling)
        high = subs[t]
        if ps // size > s:
            rep.single_crossing = False
            wit.append(Violation("single_crossing", i, subs[ps % size], high))
        if pm // size > m:
            rep.common_interests = False
            wit.append(Violation("common_interests", i, subs[pm % size], high))
        if a >= b and pt // size >= m:
            # Above m, max(u0, u1) already falls somewhere below t, and a
            # subset tying with t may hide under the larger maximum.
            low = pt % size if pt // size == m else _equal_top_subset_reference(t, m, r0, r1)
            if low is not None:
                rep.common_interests = False
                wit.append(Violation("tie-break (interpreted)", i, subs[low], high))
        c = pc // size
        if (a < b and c <= a) or (a == b and c < a):
            rep.deviation_proof = False
            wit.append(Violation("deviation_proof", i, subs[pc % size], high))

        sgn[t] = max(ps, s * size + t)
        top[t] = max(pm, m * size + t)
        tie[t] = max(pt, m * size + t) if a <= b else pt
        dip[t] = min(pc, b * size + t)


def _equal_top_subset_reference(t, m, r0, r1):
    """A proper subset index L of t with u1 <= u0 and max(u0, u1) == m, or None."""
    low = t
    while low:
        low = (low - 1) & t
        if r1[low] <= r0[low] == m:
            return low
    return None


# Small ranges so that ties, which strict preferences skip, are common.
EXACT_PAYOFFS = st.sampled_from(
    [-2, -1, 0, 1, 2, Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(4, 3)]
)


@st.composite
def tables_with_contexts(draw):
    """An unconstrained exact table game on 1..6 players (ties and
    Fractions, no stage assumption enforced) and a random Context of it."""
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(EXACT_PAYOFFS, min_size=1 << n, max_size=1 << n)) for _ in range(n)]
    active = draw(st.integers(0, (1 << n) - 1))
    ones = draw(st.integers(0, (1 << n) - 1)) & ~active
    return table_game(rows), Context(active, ones)


@st.composite
def monotone_games_with_contexts(draw):
    """A game with a monotone incentive table (a random_game on 2..5 players,
    or a weakest-link, threshold or aggregative family_games game) and a
    random Context of it."""
    seed = st.integers(0, 2**32 - 1).map(random.Random)
    game = draw(
        st.builds(random_game, seed, st.integers(2, 5))
        | family_games().filter(lambda game: game.kind != "table")
    )
    active = draw(st.integers(0, game.all_players))
    ones = draw(st.integers(0, game.all_players)) & ~active
    return game, Context(active, ones)


@st.composite
def near_monotone_tables(draw):
    """A table game on 1..5 players built to meet the pairwise stage
    conditions, with zero to two payoffs then moved, and a random Context
    of it (or None, the full game).  Player i gains K = 4n from action 1
    once the others playing 1 hold an enabling set, loses K otherwise, plus
    a bonus that grows with the others' participation, and earns a
    spillover that grows with it under either action; K dominates both.  A
    moved payoff takes another value of its row, which makes ties, or a
    nearby int, so that the column test both passes and meets each kind of
    failure."""
    n = draw(st.integers(1, 5))
    size = 1 << n
    K = 4 * n
    rows = []
    for i in range(n):
        others = st.integers(0, size - 1).map(lambda m, i=i: m & ~(1 << i))
        enabling, bonus, spill = draw(others), draw(others), draw(others)
        beta, gamma = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        row = []
        for X in range(size):
            Z = X & ~(1 << i)
            gain = (K if enabling & ~Z == 0 else -K) + beta * (Z & bonus).bit_count()
            row.append(gamma * (Z & spill).bit_count() + (X >> i & 1) * gain)
        rows.append(row)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        value = st.sampled_from(rows[i]) | st.integers(-K - 2, K + 2)
        rows[i][draw(st.integers(0, size - 1))] = draw(value)
    active = draw(st.integers(0, size - 1))
    ones = draw(st.integers(0, size - 1)) & ~active
    return table_game(rows), draw(st.sampled_from([None, Context(active, ones)]))


def incentive_table_reference(game):
    """Every strict preference between the two actions, in one pass of
    n 2^(n-1) payoff comparisons: core.incentive_table as every game built
    it before the family constructors passed their own builders, kept
    verbatim.

    Returns (gainers, losers), two lists indexed by coalition mask C:
    gainers[C] holds the players i who strictly prefer action 1 when exactly
    C minus i plays 1, losers[C] those who strictly prefer action 0.  Whether
    i itself belongs to C makes no difference, so a context (S, O) reads
    profile X <= S at index X | O.
    """
    pay = game._payoff
    gainers = [0] * (1 << game.n)
    losers = [0] * (1 << game.n)
    for i in range(game.n):
        bit = 1 << i
        for low in submasks(game.all_players & ~bit):
            high = low | bit
            a0 = pay(i, low)
            a1 = pay(i, high)
            if a1 > a0:
                gainers[low] |= bit
                gainers[high] |= bit
            elif a0 > a1:
                losers[low] |= bit
                losers[high] |= bit
    return gainers, losers


# Table entries for family_games: ties, negatives, and ints mixed with
# Fractions of pairwise coprime denominators.
MIXED_PAYOFFS = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-7, 7), st.sampled_from((2, 3, 5, 7)))
)


@st.composite
def family_games(draw):
    """A game from one of the four family constructors, unconstrained by the
    stage assumptions, with each family builder's edge cases in reach:
    weakest-link players of in-degree 0, thresholds k_i = deg(i), aggregative
    thresholds 1 and n - 1, and table rows mixing ints and Fractions."""
    kind = draw(st.sampled_from(("weakest_link", "threshold", "aggregative", "table")))
    n = draw(st.integers(1 if kind in ("weakest_link", "table") else 2, 6))
    if kind == "aggregative":
        c = [draw(st.sampled_from((1, n - 1)) | st.integers(1, n - 1)) for _ in range(n)]
        return aggregative_game(c)
    if kind == "table":
        rows = [draw(st.lists(MIXED_PAYOFFS, min_size=1 << n, max_size=1 << n)) for _ in range(n)]
        return table_game(rows)
    pairs = [(j, i) for i in range(n) for j in range(n) if i != j]
    edges = {e for e in pairs if draw(st.booleans())}
    if kind == "weakest_link":
        sources = draw(st.integers(0, (1 << n) - 1))  # players left without in-edges
        return weakest_link_game(Digraph(n, [(j, i) for j, i in edges if not sources >> i & 1]))
    edges |= {((i + 1) % n, i) for i in range(n)}  # every threshold needs an in-neighbour
    g = Digraph(n, edges)
    degrees = [g.in_mask(i).bit_count() for i in range(n)]
    k = [draw(st.just(d) | st.integers(1, d)) for d in degrees]
    return threshold_game(g, k)


def is_monotone_reference(gainers):
    """Does gainers[X] <= gainers[Y] hold for every pair X <= Y?  A double
    loop over all pairs of coalitions."""
    size = len(gainers)
    return all(
        gainers[X] & ~gainers[Y] == 0 for X in range(size) for Y in range(size) if X & ~Y == 0
    )


@st.composite
def upward_closed_tables(draw):
    """The gainers table of a game with strategic complementarities on 1..7
    players: player i gains at C exactly when C holds one of a few random
    seed coalitions of i's opponents (none: i never gains; the empty one:
    i always does)."""
    n = draw(st.integers(1, 7))
    size = 1 << n
    gainers = [0] * size
    for i in range(n):
        seeds = draw(st.lists(st.integers(0, size - 1), max_size=3))
        seeds = [s & ~(1 << i) for s in seeds]
        for C in range(size):
            if any(s & ~C == 0 for s in seeds):
                gainers[C] |= 1 << i
    return gainers


def monotone_tables():
    """Monotone gainers tables: upward closures, and the tables of
    family_games that are monotone (every weakest-link, threshold and
    aggregative one, and the few table games that happen to be)."""
    family = family_games().map(lambda game: incentive_table_reference(game)[0])
    return upward_closed_tables() | family.filter(is_monotone_reference)


@st.composite
def flipped_tables(draw):
    """A monotone table with one bit of one entry flipped: monotone again
    only when the flip keeps every pair of coalitions in order."""
    gainers = list(draw(monotone_tables()))
    C = draw(st.integers(0, len(gainers) - 1))
    i = draw(st.integers(0, len(gainers).bit_length() - 2))
    gainers[C] ^= 1 << i
    return gainers


def _route_table_builds(monkeypatch, build):
    """Route every coordsolve module's incentive_table through `build`."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coordsolve" and hasattr(module, "incentive_table"):
            monkeypatch.setattr(module, "incentive_table", build)


def count_table_builds(monkeypatch):
    """Route every coordsolve module's incentive_table through a counter;
    returns the list of games a table was built for, in call order."""
    built = []
    original = core.incentive_table

    def counted(game):
        built.append(game)
        return original(game)

    _route_table_builds(monkeypatch, counted)
    return built


def refuse_family_table_builds(monkeypatch):
    """Make every coordsolve module's incentive_table raise on a game with
    rules (a weakest-link, threshold or aggregative game), so that a test
    on one too large for its table fails at once instead of building it;
    any other game still gets its table."""
    original = core.incentive_table

    def refuse(game):
        if game._rules is not None:
            raise AssertionError(f"an incentive table was built for {game!r}")
        return original(game)

    _route_table_builds(monkeypatch, refuse)


def _gains(game, ones, i, X):
    """Does i strictly gain from action 1 when exactly X | ones (less i)
    plays 1?"""
    others = (X | ones) & ~(1 << i)
    return game.payoff(i, others | 1 << i) > game.payoff(i, others)


def ne_set_reference(game, ctx=None):
    """Pure Nash profiles of the contextual game, straight from payoffs."""
    if ctx is None:
        ctx = full_context(game)
    return sorted_coalitions(X for X in submasks(ctx.active) if is_ne(game, ctx, X))


def sss_set_reference(game, ctx=None, require_ne=False):
    """Strictly sufficient sets of the contextual game, straight from
    payoffs: nonempty X whose members all gain at X, Nash ones only when
    require_ne."""
    if ctx is None:
        ctx = full_context(game)
    out = []
    for X in submasks(ctx.active):
        if X == 0:
            continue
        if all(_gains(game, ctx.ones, i, X) for i in bits(X)):
            if not require_ne or is_ne(game, ctx, X):
                out.append(X)
    return sorted_coalitions(out)


def dominate_chain_reference(game, S, O):
    """The players SyncSolver.value folds in for free from context (S, O),
    in order: repeatedly the lowest active player who strictly gains when
    only the forced ones play 1."""
    chain = []
    while True:
        dom = next((i for i in bits(S) if _gains(game, O, i, 0)), None)
        if dom is None:
            return chain
        chain.append(dom)
        S &= ~(1 << dom)
        O |= 1 << dom


def settle_reference(gainers, S, O):
    """The free dominate steps as SyncSolver._tau and SyncSolver.value wrote
    them out before core.settle: the loop of value, kept verbatim (that of
    _tau was the same without the chain).  Returns (S, O, chain)."""
    chain = []
    while willing := S & gainers[O]:
        low = willing & -willing
        chain.append(low.bit_length() - 1)
        S ^= low
        O |= low
    return S, O, chain


def iesds_reference(game, ctx=None):
    """Iterated strict dominance on the contextual game, straight from
    payoffs: the core.iesds that SyncSolver called before it read dominance
    off the incentive table (core.iesds_scan), on the per-player loop
    iterated_strict_elimination ran before it became a table scan."""
    if ctx is None:
        ctx = full_context(game)
    return iterated_strict_elimination_reference(ctx.active, _ctx_pay(game, ctx))


def graph_iesds_reference(in_masks, S, O):
    """iesds_scan's (least, greatest) for the weakest-link game with these
    in-neighbourhoods, as SyncSolver read it off the graph before the three
    families shared core.iesds_closure: a player of S whose in-neighbours
    all play 1 strictly gains at every profile and is forced in; one with
    an in-neighbour fixed at 0 strictly loses at every profile and drops.
    Both repeat until neither changes anything."""
    ones, zeros = O, ~(S | O)
    undecided = S
    changed = True
    while changed:
        changed = False
        for i in bits(undecided):
            need = in_masks[i]
            if need & ones == need:
                ones |= 1 << i
            elif need & zeros:
                zeros |= 1 << i
            else:
                continue
            undecided ^= 1 << i
            changed = True
    return ones & S, S & ~zeros


class PolicyNodeSolverReference(SyncSolver):
    """SyncSolver with the value recursion it had before the int memo: a
    PolicyNode memoised per context, every divide and delete scanned in
    full.  `value` and `_min_horizon_reduced` are kept verbatim (the latter
    reading its reduced context off the _Reduction it is handed), and the
    candidates always come from the full submask scan (core.sss_scan), as
    before monotone tables were branched on; the reduction and public
    operators are inherited.

    It also keeps the candidate rule SyncSolver once had as an option:
    with `use_sse=False` a divide may split off any strictly sufficient
    set (SSS), not only one that is also a Nash profile, and a family
    game's Nash profiles are then listed as fixed points apart from the
    candidates."""

    def __init__(self, game, use_sse=True):
        super().__init__(game)
        self.use_sse = use_sse

    def _candidates(self, S, O):
        return core.sss_scan(self.gainers, S, O, self.use_sse)

    @cached_property
    def _nash(self):
        S, O = self.base.active, self.base.ones
        if self.game._rules is None:
            return core.ne_scan(self.gainers, self.losers, S, O)
        found = core.fixed_point_scan(self.gainers, S, O)
        return found if self.gainers[O] & S else [0, *found]

    def value(self, S, O):
        """Minimum number of stages to reach all-ones in the auxiliary game
        (S active, O forced to 1), as a PolicyNode.  Every reachable context
        keeps all active players strictly willing at the top profile, so the
        recursion never meets a strictly dominated action 0."""
        key = (S, O)
        node = self._memo.get(key)
        if node is not None:
            return node

        # dominate, for free, the lowest active player who strictly gains
        # already when just O2 plays 1; repeat
        gainers = self.gainers
        chain = []
        S2, O2 = S, O
        while willing := S2 & gainers[O2]:
            low = willing & -willing
            chain.append(low.bit_length() - 1)
            S2 ^= low
            O2 |= low

        if S2 == 0:
            node = PolicyNode("stop", None, None, (), 1)
        else:
            best = None
            for X in self._candidates(S2, O2):
                if X == S2:
                    continue
                left = self.value(X, O2)
                right = self.value(S2 & ~X, O2 | X)
                v = max(left.value, right.value)
                if best is None or v < best.value:
                    best = PolicyNode("divide", None, X, (left, right), v)
            for i in bits(S2):
                child = self.value(S2 & ~(1 << i), O2 | (1 << i))
                if best is None or 1 + child.value < best.value:
                    best = PolicyNode("delete", i, None, (child,), 1 + child.value)
            node = best
        for i in reversed(chain):
            node = PolicyNode("dominate", i, None, (node,), node.value)
        self._memo[key] = node
        return node

    def _min_horizon_reduced(self, targets, r):
        reduced = r.reduced
        want = targets & reduced.active
        if want == 0:
            return 1
        best = None
        for Y in self._candidates(reduced.active, reduced.ones):
            if Y & want == want:
                v = self.value(Y, reduced.ones).value
                if best is None or v < best:
                    best = v
        if best is None:
            raise PreconditionError(
                "no strictly sufficient candidate covers the target; "
                "the game is degenerate beyond repair"
            )
        return best


class UncutSyncSolverReference(SyncSolver):
    """SyncSolver with the value recursion it had before its queries
    carried a limit: `_tau`, `_scan` and `_min_horizon_reduced` kept
    verbatim.  Every branch is solved exactly, with cutoffs only at 2 and at
    a divide's left child, and `_memo` keeps every settled context it meets;
    the whole reduced context is scanned again by `_tau`.  The reduction,
    `value` and the public operators are inherited."""

    def _tau(self, S, O):
        """Minimum number of stages to reach all-ones in the auxiliary game
        (S active, O forced to 1), memoised as an int per settled context
        (core.settle: dominate steps are free).  Every reachable context
        keeps all active players strictly willing at the top profile, so
        the recursion never meets a strictly dominated action 0.  Only
        settled contexts are keys, so a hit on the call's own pair is its
        settled context's value, and only a miss pays for settling."""
        got = self._memo.get((S, O))
        if got is not None:
            return got
        S, O, _ = settle(self.gainers, S, O)
        if not S:
            return 1
        got = self._memo.get((S, O))
        if got is None:
            got = self._memo[S, O] = self._scan(S, O)[0]
        return got

    def _scan(self, S, O):
        """(value, op, arg) of the first strict minimum over the divides,
        then the deletes, of a context with S nonempty and no player left to
        dominate; arg is the split set of a divide, the player of a delete.

        Every value here is at least 2: a delete costs 1 more than its
        child, and a divide's left child (X, O) again has no one to dominate,
        so by induction on |X| it is at least 2 too.  Hence the scan returns
        at the first 2 and skips a divide's right child once its left value
        is no better than the best so far; no skipped branch could be
        strictly better."""
        tau = self._tau
        best = op = arg = None
        for X in self._candidates(S, O):
            if X == S:
                continue
            left = tau(X, O)
            if best is not None and left >= best:
                continue
            v = max(left, tau(S & ~X, O | X))
            if best is None or v < best:
                best, op, arg = v, "divide", X
                if best == 2:
                    return best, op, arg
        for i in bits(S):
            b = 1 << i
            v = 1 + tau(S & ~b, O | b)
            if best is None or v < best:
                best, op, arg = v, "delete", i
                if best == 2:
                    break
        return best, op, arg

    def _min_horizon_reduced(self, targets, r):
        reduced = r.reduced
        want = targets & reduced.active
        if want == 0:
            return 1
        if self.depths is not None:
            # the reduced context is the weakest-link game on the subgraph
            # induced by its active players
            return self.depths.value(reach(self.graph, want, reduced.active))
        best = None
        for Y in self._candidates(reduced.active, reduced.ones):
            if Y & want == want:
                v = self._tau(Y, reduced.ones)
                if best is None or v < best:
                    best = v
                    if best == 1:
                        break
        if best is None:
            raise PreconditionError(
                "no strictly sufficient candidate covers the target; "
                "the game is degenerate beyond repair"
            )
        return best


def reduce_to_weakest_link_reference(game, solver=None):
    """The policy-walk reduction that graphical.reduce_to_weakest_link ran on
    every game before weakest-link games returned their own graph, kept
    verbatim.

    Walks the solved policy tree adding edges per operation, prefixes the
    cascade of initially dominant players, then prunes each in-neighborhood
    to a minimal satisfying subset.  Requires that no player's action 1 is
    iteratively strictly dominated.
    """
    solver = solver or SyncSolver(game)
    if solver.dropped:
        raise PreconditionError(
            f"players {members(solver.dropped)} are forced to action 0; "
            "no sufficient graph covers them"
        )
    n = game.n
    edges = set()

    # initially dominant players cascade first, in elimination order
    remaining = game.all_players
    done = 0
    while done != solver.forced_one:
        willing = solver.forced_one & ~done & solver.gainers[done]
        assert willing, "forced-one cascade stalled"
        step = (willing & -willing).bit_length() - 1
        remaining &= ~(1 << step)
        for j in bits(remaining):
            edges.add((step, j))
        done |= 1 << step

    def walk(node, S):
        while node.op == "dominate" or node.op == "delete":
            i = node.player
            rest = S & ~(1 << i)
            for j in bits(rest):
                edges.add((i, j))
                if node.op == "delete":
                    edges.add((j, i))
            S = rest
            node = node.children[0]
        if node.op == "divide":
            X = node.split
            rest = S & ~X
            for i in bits(X):
                for j in bits(rest):
                    edges.add((i, j))
            walk(node.children[0], X)
            walk(node.children[1], rest)

    walk(solver.policy(), solver.base.active)

    raw = Digraph(n, edges)
    pruned = set()
    for i in range(n):
        E = _first_minimal_satisfying(solver.gainers, i, raw.in_mask(i))
        if E is None:
            raise PreconditionError(
                f"constructed in-neighborhood of player {i} is not satisfying; "
                "the game violates the solver assumptions"
            )
        for j in bits(E):
            pruned.add((j, i))
    return SufficientGraph(Digraph(n, pruned))


@st.composite
def shaped_digraphs(draw, max_n=8):
    """A Bernoulli digraph on 1..max_n vertices in which some vertices are
    made sources (in-edges dropped), sinks (out-edges dropped) or isolated
    (both), so that every shape shows up among small examples."""
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = random_digraph(rng, n, draw(st.sampled_from((0.3, 0.5, 0.7))))
    roles = [rng.choice(("plain",) * 4 + ("source", "sink", "isolated")) for _ in range(n)]
    no_in = {v for v, r in enumerate(roles) if r in ("source", "isolated")}
    no_out = {v for v, r in enumerate(roles) if r in ("sink", "isolated")}
    return Digraph(n, [(i, j) for i, j in g.edges if i not in no_out and j not in no_in])


def chain_sequence_reference(game, target, seed, base):
    """Literal finite-sequence search for the cost-order chain condition:
    the "sequence" reading that ordered.classify once offered beside its
    closure (chain_reaches_table_reference), kept verbatim; equivalent to the
    closure on single-crossing games."""
    full = game.all_players

    def extend(coalition):
        if (coalition >> target) & 1:
            return True
        for p in bits(full & ~coalition & ~base):
            if gains(game, p, (coalition | base) & ~(1 << p)):
                if extend(coalition | (1 << p)):
                    return True
        return False

    return extend(1 << seed)


def chain_reaches_reference(game, target, seed, base):
    """chain_reaches_table_reference as it read raw payoffs before it read the
    incentive table, kept verbatim."""
    coalition = base | (1 << seed)
    pool = game.all_players & ~coalition
    grew = True
    while grew:
        if (coalition >> target) & 1:
            return True
        grew = False
        for p in bits(pool):
            if gains(game, p, coalition):
                coalition |= 1 << p
                pool &= ~(1 << p)
                grew = True
    return (coalition >> target) & 1 == 1


def chain_reaches_table_reference(gainers, full, target, seed, base):
    """ordered._chain_reaches, the cost-order chain clause on the incentive
    table before it ran on ordered._sweep, kept verbatim: starting from
    {seed} on top of `base`, repeatedly admit any player strictly preferring
    to join the current coalition; does `target` ever join?"""
    coalition = base | (1 << seed)
    pool = full & ~coalition
    grew = True
    while grew:
        if (coalition >> target) & 1:
            return True
        grew = False
        for p in bits(pool):
            if gainers[coalition] >> p & 1:
                coalition |= 1 << p
                pool &= ~(1 << p)
                grew = True
    return (coalition >> target) & 1 == 1


def cascade_reference(gainers, S, O):
    """The fast path's inner `cascade` in ordered.ordered_min_horizon before
    it ran on ordered._sweep, kept verbatim (its table passed in)."""
    grew = True
    while grew:
        grew = False
        for i in bits(S):
            if gainers[O] >> i & 1:
                S &= ~(1 << i)
                O |= 1 << i
                grew = True
    return S, O


def classify_reference(game, budget=DEFAULT_BUDGET):
    """ordered.classify as it read raw payoffs before it read the incentive
    table, kept verbatim but for its closing assert that strong cost order
    implies the weak one (which needs single crossing; see test_ordered)."""
    n = game.n
    full = game.all_players
    steps = n * n * (n + 2) * (1 << max(n - 2, 0))
    if steps > budget:
        raise ResourceLimitError(
            f"classification needs ~{steps} checks (budget {budget})", size=steps
        )
    flags = OrderedFlags()
    wit = flags.witnesses

    for j in range(n):
        for i in range(j):
            pool = full & ~(1 << i) & ~(1 << j)
            for X in submasks(pool):
                if gains(game, j, X):
                    if flags.strongly_cost_ordered and not gains(game, i, X):
                        flags.strongly_cost_ordered = False
                        wit.setdefault("strongly_cost_ordered", (i, j, X))
                    if flags.cost_ordered and not chain_reaches_reference(game, i, j, X):
                        flags.cost_ordered = False
                        wit.setdefault("cost_ordered", (i, j, X))

    for k in range(n):
        for j in range(n):
            for i in range(n):
                if k in (i, j) or i == j:
                    continue
                pool = full & ~mask_of((i, j, k))
                for X in submasks(pool):
                    if gains(game, k, X | (1 << i)) and not gains(game, k, X | (1 << j)):
                        if i < j and flags.contribution_ordered:
                            flags.contribution_ordered = False
                            wit.setdefault("contribution_ordered", (i, j, k, X))
                        if flags.contribution_natural:
                            flags.contribution_natural = False
                            wit.setdefault("contribution_natural", (i, j, k, X))
    return flags


def classify_table_reference(gainers, n):
    """ordered._classify_table as a loop over every submask X of each pool
    before it ran on bitsets, kept verbatim."""
    full = (1 << n) - 1
    flags = OrderedFlags()
    wit = flags.witnesses

    for j in range(n):
        for i in range(j):
            pool = full & ~(1 << i) & ~(1 << j)
            for X in submasks(pool):
                if gainers[X] >> j & 1:
                    if flags.strongly_cost_ordered and not gainers[X] >> i & 1:
                        flags.strongly_cost_ordered = False
                        wit.setdefault("strongly_cost_ordered", (i, j, X))
                    if flags.cost_ordered and not chain_reaches_table_reference(
                        gainers, full, i, j, X
                    ):
                        flags.cost_ordered = False
                        wit.setdefault("cost_ordered", (i, j, X))

    for k in range(n):
        for j in range(n):
            for i in range(n):
                if k in (i, j) or i == j:
                    continue
                pool = full & ~mask_of((i, j, k))
                for X in submasks(pool):
                    if gainers[X | 1 << i] >> k & 1 and not gainers[X | 1 << j] >> k & 1:
                        if i < j and flags.contribution_ordered:
                            flags.contribution_ordered = False
                            wit.setdefault("contribution_ordered", (i, j, k, X))
                        if flags.contribution_natural:
                            flags.contribution_natural = False
                            wit.setdefault("contribution_natural", (i, j, k, X))
    return flags


@st.composite
def raw_gainers_tables(draw):
    """A gainers table on 1..7 players with no structure at all: each entry
    is any set of players, with the empty and the full set made common."""
    n = draw(st.integers(1, 7))
    full = (1 << n) - 1
    entry = st.integers(0, full) | st.sampled_from((0, full))
    return draw(st.lists(entry, min_size=1 << n, max_size=1 << n)), n


def ordered_min_horizon_reference(game, targets, flags=None):
    """ordered.ordered_min_horizon as it read raw payoffs (strict gains,
    iterated strict elimination and a Nash check) before it read the
    incentive table, kept verbatim."""
    flags = flags or classify_reference(game)
    if not (flags.cost_ordered and flags.contribution_ordered):
        raise PreconditionError(
            "fast path needs a cost-ordered and contribution-ordered game"
        )
    least, greatest = iterated_strict_elimination_reference(game.all_players, game._payoff)
    dropped = game.all_players & ~greatest
    if targets & dropped:
        raise PreconditionError(
            f"players {members(targets & dropped)} never activate"
        )
    S0 = greatest & ~least
    O0 = least
    want = targets & S0
    if want == 0:
        return 1

    def cascade(S, O):
        grew = True
        while grew:
            grew = False
            for i in bits(S):
                if gains(game, i, O):
                    S &= ~(1 << i)
                    O |= 1 << i
                    grew = True
        return S, O

    def solve(S, O):
        S, O = cascade(S, O)
        if S == 0:
            return 1
        top = max(members(S))
        return 1 + solve(S & ~(1 << top), O | (1 << top))

    order = members(S0)
    ctx = Context(S0, O0)
    best = None
    for k in range(1, len(order) + 1):
        prefix = mask_of(order[:k])
        if prefix & want != want:
            continue
        if all(gains(game, i, (prefix | O0) & ~(1 << i)) for i in bits(prefix)):
            if is_ne(game, ctx, prefix):
                v = solve(prefix, O0)
                if best is None or v < best:
                    best = v
    if best is None:
        raise PreconditionError("no sufficient prefix covers the target")
    return best


def nested_in_intervals_reference(in_starts):
    """ordered._nested_in_intervals as it read each gap [s_i, s_j) as a set
    before the nesting test counted it, kept verbatim."""
    n = len(in_starts)
    for i in range(n):
        for j in range(i + 1, n):
            if in_starts[i] >= in_starts[j]:
                continue
            gap = set(range(in_starts[i], in_starts[j])) - {i}
            if not gap <= {j}:
                return False
    return True


def scc_reference(g, vertices=None):
    """Strongly connected components of the induced subgraph, as masks in a
    topological order of the condensation (sources first): the Tarjan DFS
    `digraph.scc` replaced, kept verbatim."""
    if vertices is None:
        vertices = g.all_vertices
    check_mask(g.n, vertices, "vertices")
    index = {}
    low = {}
    on_stack = 0
    stack = []
    comps = []
    counter = [0]
    succ = g._succ

    for root in bits(vertices):
        if root in index:
            continue
        work = [(root, iter(members(succ[root] & vertices)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack |= 1 << root
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack |= 1 << w
                    work.append((w, iter(members(succ[w] & vertices))))
                    advanced = True
                    break
                elif (on_stack >> w) & 1:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = 0
                while True:
                    w = stack.pop()
                    on_stack &= ~(1 << w)
                    comp |= 1 << w
                    if w == v:
                        break
                comps.append(comp)
    comps.reverse()  # Tarjan pops sinks first; reversed gives topological order
    return comps


def reach_reference(g, targets, vertices=None):
    """R(X), the predecessor closure of X: the frontier loop `digraph.reach`
    replaced, kept verbatim."""
    if vertices is None:
        vertices = g.all_vertices
    check_mask(g.n, targets, "targets")
    check_mask(g.n, vertices, "vertices")
    seen = targets & vertices
    frontier = seen
    pred = g._pred
    while frontier:
        nxt = 0
        for i in bits(frontier):
            nxt |= pred[i] & vertices
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def check_feasible_partition_reference(g, p, M=None):
    """Does the schedule separate M?  `digraph.check_feasible_partition` as
    it read its suffix SCCs off the Tarjan `scc_reference`."""
    if M is None:
        M = g.all_vertices
    suffix = p.union() & M
    for cell in p.cells:
        focus = cell & M
        if focus.bit_count() > 1:
            for comp in scc_reference(g, suffix):
                if (comp & focus).bit_count() > 1:
                    return False
        suffix &= ~cell
    return True


def tree_depth_reference(g, vertices=None):
    """Exact directed tree-depth of the induced subgraph, with certificate:
    the memo-per-SCC search `digraph.tree_depth` replaced, kept verbatim.

    td(empty)=0, td(singleton)=1; a strongly connected block with >=2 vertices
    costs 1 plus the best vertex removal; otherwise the value is the max over
    SCC subgraphs.  Memoized exhaustive search over vertex subsets; removal
    candidates are scanned in ascending index so certificates are
    deterministic.
    """
    if vertices is None:
        vertices = g.all_vertices
    memo = {}

    def solve(mask):
        if mask == 0:
            return EliminationTree(0, None, ())
        comps = scc(g, mask)
        if len(comps) == 1:
            return solve_scc(comps[0])
        return EliminationTree(mask, None, tuple(solve_scc(c) for c in comps))

    def solve_scc(mask):
        if mask.bit_count() == 1:
            return EliminationTree(mask, mask.bit_length() - 1, ())
        node = memo.get(mask)
        if node is not None:
            return node
        best = None
        for v in bits(mask):
            child = solve(mask & ~(1 << v))
            cand = EliminationTree(mask, v, (child,))
            if best is None or cand.depth < best.depth:
                best = cand
                if best.depth == 2:  # minimum possible for a non-singleton SCC
                    break
        memo[mask] = best
        return best

    cert = solve(vertices)
    return cert.depth, cert


# ---------------------------------------------------------------------------
# the per-vertex closures `digraph` read before its neighbourhood-union
# tables, kept verbatim: adjacency lists in, one vertex per loop turn


def _closure(adj, start, within):
    """Vertices of `within` reachable from `start` along `adj` (start
    included, which must lie in `within`)."""
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def _components(succ, pred, mask):
    """SCC masks of the subgraph induced on `mask`, in no particular order."""
    comps = []
    while mask:
        start = mask & -mask
        # A vertex reachable from `start` that also reaches it has every path
        # back inside the forward closure, so the backward pass stays there.
        comp = _closure(pred, start, _closure(succ, start, mask))
        comps.append(comp)
        mask &= ~comp
    return comps


def _cyclic(pred, mask):
    """Does the subgraph induced on `mask` have a cycle?  Peels sources
    (vertices with no in-neighbour left in the mask) until a pass peels
    none, which leaves a cycle behind, or the mask is empty."""
    while mask:
        rest = peeled = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if not pred[low.bit_length() - 1] & mask:
                mask ^= low
        if mask == peeled:
            return True
    return False


def _sources_first(pred, comps, mask):
    """The SCC masks `comps` of the subgraph induced on `mask`, in a
    topological order of its condensation (sources first): by ascending
    ancestor count, as an edge from one block into another gives the second
    strictly more ancestors.  Ties keep the order of `comps`."""
    if len(comps) > 1:
        comps = sorted(comps, key=lambda c: _closure(pred, c, mask).bit_count())
    return comps


class TreeDepthPerVertexReference:
    """Exact directed tree-depth of the subgraphs of one digraph, memoised
    across queries: the search `digraph.TreeDepth` ran before its closures
    read byte-indexed neighbourhood-union tables, kept verbatim.  It peels
    and splits through this module's per-vertex `_cyclic` and `_components`,
    so a test can count both and compare them with the table search's.

    td(empty)=0, td(singleton)=1; a strongly connected block with >=2 vertices
    costs 1 plus the best vertex removal; otherwise the value is the max over
    SCC subgraphs.  Directed tree-depth is cycle rank + 1 (Eggan 1963).

    The search carries a limit: `depth(mask, limit)` and `block_depth(block,
    limit)` return the exact value when it is below `limit`, and otherwise a
    lower bound of at least `limit`.  Exact values go to one int memo and
    cut-off bounds to a second.  Every mask split (by bitset closures) into
    its SCCs keeps the split in a third memo, a block as a one-element list,
    so a later search with a higher limit reuses the split and every induced
    subgraph is split at most once.  At limit 2 an unsplit mask only needs to
    know whether it has a cycle: a peel of sources answers that, and a cyclic
    mask is bounded by 2 without being split (an acyclic one, rare, is split
    into its singletons and is exact at 1).  A mask's max over its SCCs
    stops at the first SCC that reaches the limit.  A block's scan tries each
    removal in ascending index under a cap that starts at the caller's limit
    and drops to each new strict best, calling `depth(block - v, cap - 1)`;
    it stops at depth 2, the least a non-singleton block can have.  Cut-off
    candidates are at least the best so far, so the recorded removal is the
    first vertex of strictly least depth.

    An exact value, a bound, a split and a recorded removal belong to the
    induced subgraph alone, not to the query that found them, so the memos
    serve every later query on any vertex mask: `value` searches with limit
    n + 1 and is exact, and `certificate` walks the recorded removals and
    splits, with split nodes listing their blocks in the topological order
    of `scc` (a mask with no split, or a split of one, is a block).  The
    memos live as long as the object; callers that want a bounded footprint
    make one per query (see tree_depth).
    """

    def __init__(self, g):
        self.g = g
        succ, pred = g._succ, g._pred
        memo = {0: 0}
        lower = {}  # mask -> lower bound, for masks cut off so far
        splits = {}  # mask -> its SCC masks, for every mask split so far
        removed = {}

        def depth(mask, limit):
            value = memo.get(mask)
            if value is not None:
                return value
            bound = lower.get(mask)
            if bound is not None and bound >= limit:
                return bound
            comps = splits.get(mask)
            if comps is None:
                if limit <= 2 and _cyclic(pred, mask):
                    lower[mask] = 2  # a cycle needs depth 2
                    return 2
                comps = splits[mask] = _components(succ, pred, mask)
            value = 0
            for c in comps:
                d = block_depth(c, limit)
                if d >= limit:
                    lower[mask] = d
                    return d
                if d > value:
                    value = d
            memo[mask] = value
            return value

        def block_depth(block, limit):
            if block.bit_count() == 1:
                return 1
            value = memo.get(block)
            if value is not None:
                return value
            if limit <= 2:
                return 2  # the least depth of a non-singleton block
            bound = lower.get(block)
            if bound is not None and bound >= limit:
                return bound
            cap = limit
            rest = block
            while rest:
                low = rest & -rest
                rest ^= low
                cand = 1 + depth(block ^ low, cap - 1)
                if cand < cap:
                    cap = cand
                    removed[block] = low.bit_length() - 1
                    if cap == 2:
                        break
            if cap < limit:
                memo[block] = cap
                return cap
            lower[block] = limit  # every candidate was >= limit
            return limit

        self._depth = depth
        self._splits = splits
        self._removed = removed

    def value(self, vertices=None):
        """Exact tree-depth of the subgraph induced on `vertices` (every
        vertex by default)."""
        if vertices is None:
            vertices = self.g.all_vertices
        check_mask(self.g.n, vertices, "vertices")
        return self._depth(vertices, self.g.n + 1)

    def certificate(self, vertices=None):
        """EliminationTree certifying `value(vertices)`, built along the
        recorded removals and splits."""
        if vertices is None:
            vertices = self.g.all_vertices
        self.value(vertices)
        pred, splits, removed = self.g._pred, self._splits, self._removed

        def certificate(mask):
            if mask == 0:
                return EliminationTree(0, None, ())
            comps = splits.get(mask)
            if comps is None or len(comps) == 1:  # a block
                return block_certificate(mask)
            return EliminationTree(
                mask,
                None,
                tuple(block_certificate(c) for c in _sources_first(pred, comps, mask)),
            )

        def block_certificate(block):
            if block.bit_count() == 1:
                return EliminationTree(block, block.bit_length() - 1, ())
            v = removed[block]
            return EliminationTree(block, v, (certificate(block & ~(1 << v)),))

        return certificate(vertices)


def tree_depth_uncut_reference(g, vertices=None):
    """Exact directed tree-depth of the induced subgraph, with certificate:
    the int-memo search without cutoffs that `digraph.tree_depth` replaced,
    kept verbatim.  It splits subgraphs through this module's `_components`,
    so a test can count its splits.

    td(empty)=0, td(singleton)=1; a strongly connected block with >=2 vertices
    costs 1 plus the best vertex removal; otherwise the value is the max over
    SCC subgraphs.  The search keeps one int memo, mask -> depth, over every
    induced subgraph it reaches, so each is split into SCCs (by bitset
    closures) once; for each strongly connected block it records the removed
    vertex: the first, in ascending index, of strictly least depth, stopping
    at depth 2, the least a non-singleton block can have.  The certificate is
    then built once along the recorded vertices, with split nodes listing
    their blocks in the topological order of `scc`.
    """
    if vertices is None:
        vertices = g.all_vertices
    check_mask(g.n, vertices, "vertices")
    succ, pred = g._succ, g._pred
    memo = {0: 0}
    removed = {}

    def depth(mask):
        value = memo.get(mask)
        if value is None:
            value = max(block_depth(c) for c in _components(succ, pred, mask))
            memo[mask] = value
        return value

    def block_depth(block):
        if block.bit_count() == 1:
            return 1
        best = memo.get(block)
        if best is not None:
            return best
        rest = block
        while rest:
            low = rest & -rest
            rest ^= low
            cand = 1 + depth(block ^ low)
            if best is None or cand < best:
                best = cand
                removed[block] = low.bit_length() - 1
                if best == 2:
                    break
        memo[block] = best
        return best

    def certificate(mask):
        if mask == 0:
            return EliminationTree(0, None, ())
        comps = scc(g, mask)
        if len(comps) == 1:
            return block_certificate(mask)
        return EliminationTree(mask, None, tuple(block_certificate(c) for c in comps))

    def block_certificate(block):
        if block.bit_count() == 1:
            return EliminationTree(block, block.bit_length() - 1, ())
        v = removed[block]
        return EliminationTree(block, v, (certificate(block & ~(1 << v)),))

    value = depth(vertices)
    return value, certificate(vertices)


class TreeDepthUnpeeledReference:
    """Exact directed tree-depth of the subgraphs of one digraph, memoised
    across queries: the search `digraph.TreeDepth` replaced, kept verbatim.
    It splits every mask it meets, cyclic masks at limit 2 included, through
    this module's `_components`, so a test can count its splits.

    td(empty)=0, td(singleton)=1; a strongly connected block with >=2 vertices
    costs 1 plus the best vertex removal; otherwise the value is the max over
    SCC subgraphs.  Directed tree-depth is cycle rank + 1 (Eggan 1963).

    The search carries a limit: `depth(mask, limit)` and `block_depth(block,
    limit)` return the exact value when it is below `limit`, and otherwise a
    lower bound of at least `limit`.  Exact values go to one int memo and
    cut-off bounds to a second.  A mask split (by bitset closures) into two
    or more SCCs keeps its split in a third memo, and a mask split into one
    is a block, so a later search with a higher limit reuses the split and
    every induced subgraph is split at most once.  A mask's max over its SCCs
    stops at the first SCC that reaches the limit.  A block's scan tries each
    removal in ascending index under a cap that starts at the caller's limit
    and drops to each new strict best, calling `depth(block - v, cap - 1)`;
    it stops at depth 2, the least a non-singleton block can have.  Cut-off
    candidates are at least the best so far, so the recorded removal is the
    first vertex of strictly least depth.

    An exact value, a bound, a split and a recorded removal belong to the
    induced subgraph alone, not to the query that found them, so the memos
    serve every later query on any vertex mask: `value` searches with limit
    n + 1 and is exact, and `certificate` walks the recorded removals and
    splits, with split nodes listing their blocks in the topological order
    of `scc`.  The memos live as long as the object; callers that want a
    bounded footprint make one per query (see tree_depth).
    """

    def __init__(self, g):
        self.g = g
        succ, pred = g._succ, g._pred
        memo = {0: 0}
        lower = {}  # mask -> lower bound, for masks cut off so far
        splits = {}  # mask -> its SCC masks, for masks with two or more
        removed = {}

        def depth(mask, limit):
            value = memo.get(mask)
            if value is not None:
                return value
            bound = lower.get(mask)
            if bound is None:
                comps = _components(succ, pred, mask)
                if len(comps) > 1:
                    splits[mask] = comps
            elif bound >= limit:
                return bound
            else:
                comps = splits.get(mask, (mask,))
            value = 0
            for c in comps:
                d = block_depth(c, limit)
                if d >= limit:
                    lower[mask] = d
                    return d
                if d > value:
                    value = d
            memo[mask] = value
            return value

        def block_depth(block, limit):
            if block.bit_count() == 1:
                return 1
            value = memo.get(block)
            if value is not None:
                return value
            if limit <= 2:
                return 2  # the least depth of a non-singleton block
            bound = lower.get(block)
            if bound is not None and bound >= limit:
                return bound
            cap = limit
            rest = block
            while rest:
                low = rest & -rest
                rest ^= low
                cand = 1 + depth(block ^ low, cap - 1)
                if cand < cap:
                    cap = cand
                    removed[block] = low.bit_length() - 1
                    if cap == 2:
                        break
            if cap < limit:
                memo[block] = cap
                return cap
            lower[block] = limit  # every candidate was >= limit
            return limit

        self._depth = depth
        self._splits = splits
        self._removed = removed

    def value(self, vertices=None):
        """Exact tree-depth of the subgraph induced on `vertices` (every
        vertex by default)."""
        if vertices is None:
            vertices = self.g.all_vertices
        check_mask(self.g.n, vertices, "vertices")
        return self._depth(vertices, self.g.n + 1)

    def certificate(self, vertices=None):
        """EliminationTree certifying `value(vertices)`, built along the
        recorded removals and splits."""
        if vertices is None:
            vertices = self.g.all_vertices
        self.value(vertices)
        pred, splits, removed = self.g._pred, self._splits, self._removed

        def certificate(mask):
            if mask == 0:
                return EliminationTree(0, None, ())
            comps = splits.get(mask)
            if comps is None:  # a block's split is the block itself
                return block_certificate(mask)
            return EliminationTree(
                mask,
                None,
                tuple(block_certificate(c) for c in _sources_first(pred, comps, mask)),
            )

        def block_certificate(block):
            if block.bit_count() == 1:
                return EliminationTree(block, block.bit_length() - 1, ())
            v = removed[block]
            return EliminationTree(block, v, (certificate(block & ~(1 << v)),))

        return certificate(vertices)


def tree_depth_unpeeled_reference(g, vertices=None):
    """Exact directed tree-depth of the subgraph induced on `vertices` (every
    vertex by default), with its elimination-tree certificate: one query on a
    fresh TreeDepthUnpeeledReference, as `digraph.tree_depth` was."""
    depths = TreeDepthUnpeeledReference(g)
    return depths.value(vertices), depths.certificate(vertices)


def _kosaraju(nodes, succ):
    order = []
    seen = set()

    def down(u):
        seen.add(u)
        for v in succ.get(u, ()):
            if v not in seen:
                down(v)
        order.append(u)

    for u in nodes:
        if u not in seen:
            down(u)

    pred = {u: set() for u in nodes}
    for u in nodes:
        for v in succ.get(u, ()):
            pred[v].add(u)

    comps = []
    assigned = set()
    for u in reversed(order):
        if u in assigned:
            continue
        comp = set()
        stack = [u]
        while stack:
            w = stack.pop()
            if w in assigned:
                continue
            assigned.add(w)
            comp.add(w)
            stack.extend(pred[w] - assigned)
        comps.append(comp)
    return comps


def cycle_rank(nodes, edge_set):
    """Textbook cycle-rank recursion on an explicit vertex/edge set."""
    nodes = set(nodes)
    succ = {}
    for a, c in edge_set:
        if a in nodes and c in nodes:
            succ.setdefault(a, set()).add(c)
    comps = [c for c in _kosaraju(sorted(nodes), succ) if len(c) > 1]
    if not comps:
        return 0
    best = 0
    for comp in comps:
        inner = min(
            cycle_rank(comp - {v}, edge_set) for v in sorted(comp)
        )
        best = max(best, 1 + inner)
    return best


# ---------------------------------------------------------------------------
# the oracle's all-pairs history order, its per-schedule history builders,
# its SPNE value-set recursion and its all-pairs witness check (kept verbatim
# as the references for the cover-relation `_cover_order`, `_histories`, the
# back-to-front `tuple_spne` and the cover-list `tuple_verify_mspne` below)


def _leq_history(h1, h2):
    """Componentwise profile order on same-stage histories."""
    return all(a & ~b == 0 for a, b in zip(h1, h2))


def _sorted_with_predecessors(histories):
    """Linear extension plus, per history, the indices of earlier histories
    it dominates (for monotone-map pruning and the witness check)."""
    order = sorted(histories, key=lambda h: (sum(m.bit_count() for m in h), h))
    preds = []
    for idx, h in enumerate(order):
        below = [j for j in range(idx) if _leq_history(order[j], h)]
        preds.append(below)
    return order, preds


def _sync_histories(n, T):
    """Histories per stage: stage t sees a nondecreasing chain of t-1 masks."""
    full = (1 << n) - 1
    stages = [[()]]
    for _ in range(2, T + 1):
        nxt = []
        for h in stages[-1]:
            last = h[-1] if h else 0
            for sub in submasks(full & ~last):
                nxt.append(h + (last | sub,))
        stages.append(nxt)
    return stages


def _async_histories(cells):
    stages = [[()]]
    for t in range(1, len(cells)):
        prev = stages[-1]
        nxt = []
        for h in prev:
            for sub in submasks(cells[t - 1]):
                nxt.append(h + (sub,))
        stages.append(nxt)
    return stages


def _spne(game, T, movers, budget):
    """SPNE outcomes of a T-stage game.  movers(t, state) is the set of players
    who choose at stage t (0-based) given the committed profile `state`; the
    stage moves to state | sub for any sub of it.  Each candidate stage
    profile of each distinct subgame spends one budget step."""
    pay = game._payoff
    memo = {}

    def vs(t, state):
        key = (t, state)
        got = memo.get(key)
        if got is not None:
            return got
        if t == T:
            got = frozenset((state,))
            memo[key] = got
            return got
        res = set()
        free = movers(t, state)
        for sub in submasks(free):
            budget.spend()
            a = state | sub
            succ = vs(t + 1, a)
            if not succ:
                continue
            deterred = True
            floors = {}
            for i in bits(free):
                alt = vs(t + 1, a ^ (1 << i))
                if not alt:
                    deterred = False
                    break
                floors[i] = min(pay(i, w) for w in alt)
            if not deterred:
                continue
            for v in succ:
                if all(pay(i, v) >= floors[i] for i in floors):
                    res.add(v)
        got = frozenset(res)
        memo[key] = got
        return got

    root = vs(0, 0)
    # A pure SPNE must induce one on every subgame, including those reached
    # only by multi-player deviations; if any is empty, none exists at all.
    states = {0}
    for t in range(1, T):
        states = {s | sub for s in states for sub in submasks(movers(t - 1, s))}
        if not all(vs(t, s) for s in states):
            return set()
    return set(root)


def spne_reference(game, schedule, budget):
    """SPNE outcomes of a Sync or Async schedule through the recursion, with
    the movers `enumerate_equilibria` used; spends `budget`, an `_Budget`."""
    if isinstance(schedule, Sync):
        full = game.all_players
        return _spne(game, schedule.T, lambda t, state: full & ~state, budget)
    p = schedule.partition
    return _spne(game, p.horizon, lambda t, state: p.cells[t], budget)


def verify_mspne_reference(game, T, profile):
    """Monotonicity plus one-shot deviations at every history."""
    pay = game._payoff
    full = game.all_players
    stages = _sync_histories(game.n, T)

    def play_out(h):
        while len(h) < T:
            h = h + (profile.moves[h],)
        return h[-1]

    for t in range(T):
        hs = stages[t]
        for a_idx, ha in enumerate(hs):
            ma = profile.moves[ha]
            last = ha[-1] if ha else 0
            if last & ~ma:
                return False, f"irreversibility violated at {ha}"
            for hb in hs[a_idx + 1 :]:
                if _leq_history(ha, hb) and profile.moves[ha] & ~profile.moves[hb]:
                    return False, f"monotonicity violated between {ha} and {hb}"
                if _leq_history(hb, ha) and profile.moves[hb] & ~profile.moves[ha]:
                    return False, f"monotonicity violated between {hb} and {ha}"
            base = play_out(ha + (ma,))
            for i in bits(full & ~last):
                dev = ma ^ (1 << i)
                alt = play_out(ha + (dev,))
                if pay(i, alt) > pay(i, base):
                    return False, f"player {i} deviates at {ha}"
    return True, ""


# ---------------------------------------------------------------------------
# the oracle on move-tuple histories, its schedules as per-schedule stage
# moves (kept verbatim, but for its names, as the reference for the oracle
# on each player's entry stage over the stages' movers)


def _sync_moves(full):
    """Synchronous stage moves: at history h, every upgrade of its last
    profile, moved by the players still at 0."""

    def moves_of(t, h):
        last = h[-1] if h else 0
        rest = full & ~last
        for sub in submasks(rest):
            yield last | sub, rest

    return moves_of


def _async_moves(cells):
    """Asynchronous stage moves: at any stage-t history, every profile of
    cell t, moved by its members."""

    def moves_of(t, h):
        for sub in submasks(cells[t]):
            yield sub, cells[t]

    return moves_of


def _histories(T, moves_of):
    """Histories per stage: stage t + 1 extends each stage-t history by each
    move moves_of(t, h) yields, in that order."""
    stages = [[()]]
    for t in range(T - 1):
        stages.append([h + (a,) for h in stages[-1] for a, _ in moves_of(t, h)])
    return stages


def _cover_order(histories):
    """Linear extension plus, per history, the indices of the histories it
    covers: the same history with one player removed from the move where
    that player first plays 1 (at most n of them, each an earlier index).
    The componentwise profile order is the transitive closure of these
    covers, so a floor built along them is the floor of every history
    below."""
    order = sorted(histories, key=lambda h: (sum(m.bit_count() for m in h), h))
    pos = {h: idx for idx, h in enumerate(order)}
    covers = []
    for h in order:
        below = []
        seen = 0
        for j, m in enumerate(h):
            first = m & ~seen
            seen |= m
            while first:
                low = first & -first
                first ^= low
                below.append(pos[h[:j] + (m ^ low,) + h[j + 1 :]])
        covers.append(below)
    return order, covers


def tuple_mspne_outcomes(game, stages, moves_of, budget):
    """Common MSPNE engine over precomputed history stages.

    moves_of(t, h) yields legal stage-t action profiles at history h, with the
    players who move there; choosing a at the last stage ends the game at
    a | h[0] | h[1] | ..., every player who has played 1 (a itself under
    Sync, whose profiles only grow).  A continuation is the tuple of final
    outcomes, one per stage-(t+1) history in linear-extension order (per
    last-stage move for t = T-1); the outcome set of stage t under a
    continuation is solved once per call and memoised on (t, continuation).
    The continuations are walked depth first on an explicit stack, one frame
    per stage being searched.  Each player's payoffs are read once, at
    every profile, and compared as ints (int_row).
    """
    pay = game._payoff
    rows = [int_row([pay(i, M) for M in range(1 << game.n)]) for i in range(game.n)]
    T = len(stages)

    # layers[t] = (covers, moves): moves[idx] lists (a, src, deviations) for
    # history idx, where src picks the outcome of playing a out of the
    # continuation, and each deviation (u, d) a mover's int payoff row and
    # the index of the outcome of playing a with that mover's bit flipped.
    layers = [None] * T
    terminal = []  # the last stage's continuation, one outcome per move
    nxt_pos = None
    flips = {}  # movers -> (int payoff row, bit) per mover
    for t in reversed(range(T)):
        order, covers = _cover_order(stages[t])
        moves = []
        for h in order:
            legal = list(moves_of(t, h))
            legal.reverse()  # ascending, as _monotone_selections takes them
            if t == T - 1:
                src = {}
                for a, _ in legal:
                    src[a] = len(terminal)
                    terminal.append(reduce(or_, h, a))
            else:
                src = {a: nxt_pos[h + (a,)] for a, _ in legal}
            hist = []
            for a, movers in legal:
                pairs = flips.get(movers)
                if pairs is None:
                    pairs = flips[movers] = [(rows[i], 1 << i) for i in bits(movers)]
                hist.append((a, src[a], [(u, src[a ^ b]) for u, b in pairs]))
            moves.append(hist)
        layers[t] = (covers, moves)
        nxt_pos = {h: idx for idx, h in enumerate(order)}

    memo = {}

    def open_frame(t, w):
        """Stage t's search under continuation w, as a stack frame: (t, w,
        selections, outcomes found, ceiling)."""
        covers, moves = layers[t]
        found = _stage_options(moves, w)
        if found is None:
            return t, w, (), set(), 0  # no admissible stage map here
        options, values = found
        if t == 0:  # one history, the empty one: each option is an outcome
            budget.spend(len(options[0]))
            out = set(values[0].values())
            return t, w, (), out, len(out)
        # Every outcome is one of the stage's admissible values (a stage-t
        # outcome set lies within its continuation), so once all of them are
        # found no further selection can add one.
        ceiling = len(set().union(*(vals.values() for vals in values)))
        selections = oracle_module._monotone_selections(covers, options, values, budget)
        return t, w, selections, set(), ceiling

    stack = [open_frame(T - 1, tuple(terminal))]
    while True:
        frame = stack[-1]
        t, w, sels, out, ceiling = frame
        if len(out) < ceiling:
            for picked in sels:
                key = (t - 1, tuple(picked))
                got = memo.get(key)
                if got is None:
                    stack.append(open_frame(*key))
                    break
                out |= got
                if len(out) == ceiling:
                    break
            if stack[-1] is not frame:
                continue
        stack.pop()
        got = memo[t, w] = frozenset(out)
        if not stack:
            return set(got)
        stack[-1][3].update(got)


def tuple_spne(game, T, moves_of, reach):
    """SPNE outcomes of a T-stage game.  Stage t (0-based) can reach the
    submasks of reach(t); from committed profile `state` it moves to
    state | a for each (a, movers) that moves_of yields at a history ending
    in `state`.  The stages are solved from the last to the first, each from
    the next one's value sets alone; the caller has paid for every candidate
    stage profile of every reachable state."""
    pay = game._payoff
    nxt = {s: (s,) for s in submasks(reach(T))}
    for t in reversed(range(T)):
        cur = {}
        for state in submasks(reach(t)):
            res = cur[state] = set()
            for a, free in moves_of(t, (state,)):
                a |= state
                floors = [(i, min(pay(i, w) for w in nxt[a ^ (1 << i)])) for i in bits(free)]
                res.update(v for v in nxt[a] if all(pay(i, v) >= f for i, f in floors))
        # A pure SPNE must induce one on every subgame, including those
        # reached only by multi-player deviations; if any is empty, none
        # exists at all.  So every value set read above is non-empty.
        if t and not all(cur.values()):
            return set()
        nxt = cur
    return nxt[0]


@dataclass
class TupleStrategyProfile:
    """Joint pure strategy for a synchronous game, stored as one action-profile
    mask per (reachable or not) history; replaying from the empty history
    gives `outcome`."""

    T: int
    moves: dict
    outcome: int

    def replay(self):
        h = ()
        for _ in range(self.T):
            h = h + (self.moves[h],)
        return h[-1]


def tuple_verify_mspne(game, T, profile):
    """Irreversibility, monotonicity (against the histories each history
    covers, whose transitive closure is the stage's order) and one-shot
    deviations at every history."""
    pay = game._payoff
    full = game.all_players
    moves = profile.moves

    def play_out(h):
        while len(h) < T:
            h = h + (moves[h],)
        return h[-1]

    for hs in _histories(T, _sync_moves(full)):
        order, covers = _cover_order(hs)
        for ha, below in zip(order, covers):
            ma = moves[ha]
            last = ha[-1] if ha else 0
            if last & ~ma:
                return False, f"irreversibility violated at {ha}"
            for j in below:
                if moves[order[j]] & ~ma:
                    return False, f"monotonicity violated between {order[j]} and {ha}"
            base = play_out(ha + (ma,))
            for i in bits(full & ~last):
                dev = ma ^ (1 << i)
                alt = play_out(ha + (dev,))
                if pay(i, alt) > pay(i, base):
                    return False, f"player {i} deviates at {ha}"
    return True, ""


def tuple_support_strategy(game, T, X, solver=None):
    """The conservative monotone witness carrying outcome X at horizon T.

    Nobody pledges; mid-game moves only echo earlier pledges; the final move
    plays X plus whatever the accumulated pledges force in (the least outcome
    of the residual game at the remaining horizon).  The profile is verified
    to be a monotone equilibrium by one-shot deviation before it is returned.
    """
    solver = solver or SyncSolver(game)
    if X not in set(solver.outcome_set(T)):
        raise PreconditionError(f"{members(X)} is not an achievable outcome at T={T}")
    full = game.all_players
    moves = {}
    stages = _histories(T, _sync_moves(full))

    if X == full:
        for t in range(T):
            for h in stages[t]:
                moves[h] = full
        profile = TupleStrategyProfile(T=T, moves=moves, outcome=full)
    else:
        forced = {(): X}
        for t in range(1, T):
            for h in stages[t]:
                prev = forced[h[:-1]]
                locked = prev | h[-1]
                rest = full & ~locked
                forced[h] = locked | solver.least_outcome(
                    T - t, ctx=Context(rest, locked)
                )
        for t in range(T):
            for h in stages[t]:
                if t < T - 1:
                    moves[h] = h[-1] if h else 0
                else:
                    moves[h] = X | forced[h]
        profile = TupleStrategyProfile(T=T, moves=moves, outcome=0)
        profile.outcome = profile.replay()
        if profile.outcome != X:
            raise RuntimeError(
                f"conservative profile realises {members(profile.outcome)} "
                f"instead of {members(X)}; solver inconsistency"
            )
    ok, why = tuple_verify_mspne(game, T, profile)
    if not ok:
        raise RuntimeError(f"conservative profile fails verification: {why}")
    return profile


def tuple_schedule(game, schedule):
    """(T, moves_of, reach) of a Sync or Async schedule, as the move-tuple
    oracle's `enumerate_equilibria` set them up."""
    if isinstance(schedule, Sync):
        full = game.all_players

        def reach(t):
            return full if t else 0

        return schedule.T, _sync_moves(full), reach
    p = schedule.partition
    earlier = list(accumulate(p.cells, or_, initial=0))
    return p.horizon, _async_moves(p.cells), earlier.__getitem__


def tuple_spne_outcomes(game, schedule):
    """SPNE outcomes through the move-tuple oracle."""
    return tuple_spne(game, *tuple_schedule(game, schedule))


def tuple_engine_outcomes(game, schedule, budget):
    """MSPNE outcomes through the move-tuple oracle's engine, spending
    `budget`, an `_Budget`, on its search steps alone."""
    T, moves_of, _ = tuple_schedule(game, schedule)
    return tuple_mspne_outcomes(game, _histories(T, moves_of), moves_of, budget)


def schedule_movers(game, schedule):
    """The entry-stage oracle's movers per stage."""
    return list(oracle_module._stages(oracle_module._runs(game, schedule)))


def move_tuple(movers, t, e):
    """The move-tuple history of stage-t entry history e: per earlier stage,
    the players who move there and have entered by then."""
    return tuple(
        sum(1 << i for i, s in enumerate(e) if s <= r and movers[r] >> i & 1) for r in range(t)
    )


def tuple_profile(profile):
    """An entry-stage StrategyProfile of a synchronous game as a
    TupleStrategyProfile (entry_profile converts back)."""
    n = len(next(iter(profile.moves[0])))
    movers = [(1 << n) - 1] * profile.T
    moves = {
        move_tuple(movers, t, e): a for t, stage in enumerate(profile.moves) for e, a in stage.items()
    }
    return TupleStrategyProfile(T=profile.T, moves=moves, outcome=profile.outcome)


def entry_profile(n, profile):
    """A TupleStrategyProfile of an n-player synchronous game as an
    entry-stage StrategyProfile."""
    moves = [{} for _ in range(profile.T)]
    for h, a in profile.moves.items():
        t = len(h)
        e = tuple(next((r for r, m in enumerate(h) if m >> i & 1), t) for i in range(n))
        moves[t][e] = a
    return StrategyProfile(T=profile.T, moves=moves, outcome=profile.outcome)


# ---------------------------------------------------------------------------
# MSPNE oracle engine that runs every continuation anew (kept verbatim as the
# reference for the memoised `oracle._mspne_outcomes`)


def _monotone_selections(order, preds, options, budget):
    """All monotone assignments history -> action profile, option lists given
    per history in `order`; yields dicts."""
    chosen = [None] * len(order)

    def rec(idx):
        if idx == len(order):
            yield dict(zip(order, chosen))
            return
        for a in options[idx]:
            budget.spend()
            if all(chosen[j] & ~a == 0 for j in preds[idx]):
                chosen[idx] = a
                yield from rec(idx + 1)
        chosen[idx] = None

    yield from rec(0)


def _mspne_outcomes(game, stages, moves_of, value_terminal, budget):
    """Common MSPNE engine over precomputed history stages.

    moves_of(t, h) yields legal stage-t action profiles at history h;
    value_terminal(h, a) is the final outcome of choosing a at the last stage.
    """
    pay = game._payoff
    T = len(stages)
    outcomes = set()

    layers = [_sorted_with_predecessors(stages[t]) for t in range(T)]

    def stage_options(t, h, value):
        opts = []
        for a, movers in moves_of(t, h):
            v = value(h, a)
            ok = True
            for i in bits(movers):
                flip = a ^ (1 << i)
                if pay(i, v) < pay(i, value(h, flip)):
                    ok = False
                    break
            if ok:
                opts.append((a, v))
        return opts

    def run(t, w_next):
        order, preds = layers[t]
        if t == T - 1:
            value = value_terminal
        else:
            value = lambda h, a: w_next[h + (a,)]
        per_hist = []
        for h in order:
            opts = stage_options(t, h, value)
            if not opts:
                return  # no admissible stage map under this continuation
            per_hist.append(opts)
        actions = [[a for a, _ in opts] for opts in per_hist]
        values = [dict(opts) for opts in per_hist]
        for sel in _monotone_selections(order, preds, actions, budget):
            if t == 0:
                outcomes.add(values[0][sel[()]])
            else:
                w = {}
                for idx, h in enumerate(order):
                    w[h] = values[idx][sel[h]]
                run(t - 1, w)

    run(T - 1, None)
    return outcomes


def reference_stages(game, schedule):
    """(stages, moves_of, terminal) of a Sync or Async schedule: the
    histories of the reference builders, with the stage moves and final
    outcomes `oracle.enumerate_equilibria` uses."""
    full = game.all_players
    if isinstance(schedule, Sync):
        stages = _sync_histories(game.n, schedule.T)

        def moves_of(t, h):
            last = h[-1] if h else 0
            for sub in submasks(full & ~last):
                yield last | sub, full & ~last

        def terminal(h, a):
            return a

    else:
        cells = schedule.partition.cells
        stages = _async_histories(cells)

        def moves_of(t, h):
            for sub in submasks(cells[t]):
                yield sub, cells[t]

        def terminal(h, a):
            out = a
            for m in h:
                out |= m
            return out

    return stages, moves_of, terminal


def mspne_build_costs(n, schedule):
    """Per stage, the closed-form count of what MSPNE builds before its
    search: history entries (n per history), covers, stage profiles and
    one-shot deviations."""
    if isinstance(schedule, Sync):
        return [
            n * (s + 1) ** n + n * s * (s + 1) ** (n - 1) + (s + 2) ** n + 2 * n * (s + 2) ** (n - 1)
            for s in range(schedule.T)
        ]
    costs = []
    m = 0
    for cell in schedule.partition.cells:
        k = cell.bit_count()
        costs.append(n * 2**m + m * 2**m // 2 + 2 ** (m + k) + k * 2 ** (m + k))
        m += k
    return costs


def mspne_build_counts(n, movers):
    """Per stage, the same four counts read off what the oracle builds: the
    entries of the histories and the covers `_sorted_with_predecessors`
    lists, and at each history the stage profiles, one per subset of the
    movers free to enter, with one deviation per free mover."""
    counts = []
    for t, m in enumerate(movers):
        order, covers = oracle_module._sorted_with_predecessors(n, movers, t)
        free = [(m & ~oracle_module._entered(e, t)).bit_count() for e in order]
        counts.append(
            sum(map(len, order))
            + sum(map(len, covers))
            + sum(2**k for k in free)
            + sum(k * 2**k for k in free)
        )
    return counts


def mspne_reference(game, schedule, budget=10**9):
    """MSPNE outcomes of a Sync or Async schedule through the reference
    engine."""
    return _mspne_outcomes(game, *reference_stages(game, schedule), _Budget(budget))


# ---------------------------------------------------------------------------
# MSPNE engine memoised per continuation, with no pruning, recursing over the
# stages and comparing the raw Fraction payoffs (kept verbatim, but for its
# names, as the reference for the pruned, int-payoff, explicit-stack
# `oracle._mspne_outcomes`), and the table builder's row scaling as it was
# written inside `core._rows_table` before `core.int_row`

def _unpruned_selections(covers, options, budget):
    """All monotone assignments history -> action profile, as tuples over the
    histories in linear-extension order.  options[idx] lists history idx's
    admissible profiles and covers[idx] the earlier histories it covers; a
    profile is allowed iff it contains every profile chosen at a cover (and
    so, inductively, every profile chosen below it).  Each node of the
    search spends one budget step per option it examines."""
    n = len(options)
    chosen = [0] * n
    pending = [None] * n
    spend = budget.spend
    idx = 0
    while idx >= 0:
        if pending[idx] is None:
            opts = options[idx]
            spend(len(opts))
            floor = 0
            for j in covers[idx]:
                floor |= chosen[j]
            pending[idx] = iter([a for a in opts if floor & ~a == 0])
        a = next(pending[idx], None)
        if a is None:
            pending[idx] = None
            idx -= 1
        elif idx == n - 1:
            chosen[idx] = a
            yield tuple(chosen)
        else:
            chosen[idx] = a
            idx += 1


def unpruned_mspne_outcomes(game, stages, moves_of, budget):
    """Common MSPNE engine over precomputed history stages.

    moves_of(t, h) yields legal stage-t action profiles at history h, with the
    players who move there; choosing a at the last stage ends the game at
    a | h[0] | h[1] | ..., every player who has played 1 (a itself under
    Sync, whose profiles only grow).  A continuation is the tuple of final
    outcomes, one per stage-(t+1) history in linear-extension order (per
    last-stage move for t = T-1); the outcome set of stage t under a
    continuation is solved once per call and memoised on (t, continuation).
    """
    pay = game._payoff
    T = len(stages)

    # layers[t] = (covers, moves): moves[idx] lists (a, src, deviations) for
    # history idx, where src and each deviation's index pick the outcome of
    # playing a (resp. a with one mover's bit flipped) out of the continuation.
    layers = [None] * T
    terminal = []  # the last stage's continuation, one outcome per move
    nxt_pos = None
    for t in reversed(range(T)):
        order, covers = _cover_order(stages[t])
        moves = []
        for h in order:
            legal = list(moves_of(t, h))
            if t == T - 1:
                src = {}
                for a, _ in legal:
                    src[a] = len(terminal)
                    terminal.append(reduce(or_, h, a))
            else:
                src = {a: nxt_pos[h + (a,)] for a, _ in legal}
            moves.append(
                [(a, src[a], [(i, src[a ^ (1 << i)]) for i in bits(movers)])
                 for a, movers in legal]
            )
        layers[t] = (covers, moves)
        nxt_pos = {h: idx for idx, h in enumerate(order)}

    memo = {}

    def run(t, w):
        covers, moves = layers[t]
        actions = []
        values = []
        for hist in moves:
            acts = []
            vals = {}
            for a, src, devs in hist:
                v = w[src]
                if all(pay(i, v) >= pay(i, w[d]) for i, d in devs):
                    acts.append(a)
                    vals[a] = v
            if not acts:
                return frozenset()  # no admissible stage map here
            actions.append(acts)
            values.append(vals)
        # Every outcome is one of the stage's admissible values (a stage-t
        # outcome set lies within its continuation), so once all of them are
        # found no further selection can add one.
        ceiling = len(set().union(*(vals.values() for vals in values)))
        out = set()
        for sel in _unpruned_selections(covers, actions, budget):
            if t == 0:
                out.add(values[0][sel[0]])
            else:
                key = (t - 1, tuple([vals[a] for vals, a in zip(values, sel)]))
                got = memo.get(key)
                if got is None:
                    got = memo[key] = run(t - 1, key[1])
                out |= got
            if len(out) == ceiling:
                break
        return frozenset(out)

    return set(run(T - 1, tuple(terminal)))


def rows_table_reference(rows):
    """Incentive table of a table game, compared on int rows: each row is
    scaled by the least common denominator of its entries, which keeps every
    comparison exact."""

    def scaled(row):
        ratios = [v.as_integer_ratio() for v in row]
        lcd = math.lcm(*{q for _, q in ratios})
        return [p * (lcd // q) for p, q in ratios]

    full = (1 << len(rows)) - 1
    return compare_rows(((i, scaled(row)) for i, row in enumerate(rows)), full)


# The incentive-table builders of the threshold-style families, kept verbatim
# from before those families were built from one rule per player
# (core.neighbour_game) as the references for the rule's table and view.


def neighbour_table_reference(in_masks, k):
    """Incentive table of a game where i gains from action 1 exactly when at
    least k[i] of its in-neighbours play 1, and loses otherwise (+-1 against
    0 never ties): i joins gainers[A | F] for each A <= in_masks[i] with
    |A| >= k[i] and each F outside in_masks[i].  With k[i] = deg(i) that is
    2^(n-deg(i)) writes for player i."""
    full = (1 << len(in_masks)) - 1
    gainers = [0] * (full + 1)
    for i, (need, ki) in enumerate(zip(in_masks, k)):
        bit = 1 << i
        outside = list(submasks(full & ~need))
        for A in submasks(need):
            if A.bit_count() >= ki:
                for F in outside:
                    gainers[A | F] |= bit
    return gainers, [full ^ g for g in gainers]


def aggregative_table_reference(c):
    """Incentive table of aggregative_game(c) in O(2^n): i gains at C when
    at least c_i others play 1, that is c_i <= |C| - 1 if i is in C and
    c_i <= |C| otherwise; every other player loses (+-1 against 0 never
    ties)."""
    n = len(c)
    full = (1 << n) - 1
    # le[k]: the players with c_i <= k.  At C = 0, le[-1] is masked out by C.
    le = [sum(1 << i for i in range(n) if c[i] <= k) for k in range(n + 1)]
    gainers = [
        (C & le[C.bit_count() - 1]) | (~C & le[C.bit_count()]) for C in range(full + 1)
    ]
    return gainers, [full ^ g for g in gainers]


def rule_table_reference(game):
    """core.incentive_table on a game with rules as it was built before it
    went one rule at a time, kept verbatim: rule_gainers once per
    coalition, n 2^n rule tests."""
    rules = game._rules
    full = game.all_players
    gainers = [rule_gainers(rules, C) for C in range(full + 1)]
    return gainers, [full ^ g for g in gainers]


@st.composite
def rule_games(draw):
    """A neighbour_game on 1..11 players, past the eight players one byte
    of the one-rule-at-a-time build holds, with each player's need a random
    mask of the others and k from 0 to |need| + 1 (never met)."""
    n = draw(st.integers(1, 11))
    full = (1 << n) - 1
    needs = [draw(st.integers(0, full)) & ~(1 << i) for i in range(n)]
    k = [draw(st.integers(0, need.bit_count() + 1)) for need in needs]
    return core.neighbour_game(needs, k, "threshold", {})


def family_table_reference(game):
    """The incentive table of a weakest-link, threshold or aggregative game,
    by the reference builder of its family, from its construction data."""
    if game.kind == "aggregative":
        return aggregative_table_reference(game.params["c"])
    g = Digraph(game.n, game.params["edges"])
    in_masks = [g.in_mask(i) for i in range(game.n)]
    k = game.params.get("k") or [m.bit_count() for m in in_masks]
    return neighbour_table_reference(in_masks, k)


# ---------------------------------------------------------------------------
# IESEDS as a lazy recursion over tuple histories, on the generator-based
# elimination loop (both kept verbatim as the reference for the bottom-up
# sweep of `asyncgame.ieseds` and the table-scan `iterated_strict_elimination`)


class IesedsRecord(NamedTuple):
    """What the IESEDS references return: IesedsTable's public fields, with
    stage_actions a list of dicts."""

    partition: Partition
    stage_actions: list
    on_path: tuple
    outcome: int


def ieseds_record(table):
    """An IesedsTable as the references' IesedsRecord (reads stage_actions)."""
    return IesedsRecord(table.partition, table.stage_actions, table.on_path, table.outcome)


def iterated_strict_elimination_reference(players_mask, pay):
    """Iterated elimination of strictly dominated actions in a binary game.

    `pay(i, X)` gives i's payoff when exactly X (a submask of players_mask)
    plays 1.  Dominance is checked against every surviving opponent profile,
    so the result is order-independent and correct without any assumptions.
    Returns (least, greatest): per-player minimum and maximum surviving action
    encoded as coalition masks.
    """
    can0 = players_mask  # players for whom action 0 still survives
    can1 = players_mask
    changed = True
    while changed:
        changed = False
        for i in bits(can0 & can1):
            bit = 1 << i
            forced1 = can1 & ~can0
            free = can0 & can1 & ~bit
            worse1 = True  # action 1 strictly dominated by 0
            worse0 = True
            for sub in submasks(free):
                prof = sub | forced1
                a1 = pay(i, prof | bit)
                a0 = pay(i, prof)
                if a1 >= a0:
                    worse1 = False
                if a0 >= a1:
                    worse0 = False
                if not worse0 and not worse1:
                    break
            if worse1:
                can1 &= ~bit
                changed = True
            elif worse0:
                can0 &= ~bit
                changed = True
    return can1 & ~can0, can1


def ieseds_reference(game, p, budget=DEFAULT_BUDGET):
    """Least action profile surviving iterated elimination of strictly
    extensively dominated strategies, stage by stage from the back.

    For every stage t and history h, the cell plays an auxiliary simultaneous
    game whose payoffs plug in the least-path continuation of later stages;
    the literal per-player strict-dominance loop runs on it (no best-response
    shortcut), and its least survivor is recorded.  Histories are tuples of
    the earlier cells' action masks, reached lazily from the empty one.
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

        least, _ = iterated_strict_elimination_reference(cells[t], aux_pay)
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
    return IesedsRecord(
        partition=p, stage_actions=tables, on_path=tuple(on_path), outcome=outcome
    )


def ieseds_sweep_reference(game, p, budget=DEFAULT_BUDGET):
    """asyncgame.ieseds as it was before stages read payoff rows through
    game.payoff_row, kept verbatim: one bottom-up sweep over union-mask
    histories in move-order labels, every member's row read one _payoff call
    at a time, and every stage, one-player cells included, compared into a
    full incentive table."""
    p.validate_cover(game.n)
    cells = p.cells
    cost = _history_cost(cells)
    if cost > budget:
        raise ResourceLimitError(
            f"schedule needs {cost} payoff evaluations (budget {budget})", size=cost
        )

    # label[M]: the relabelled profile M in the game's player labels
    label = [0]
    for c in cells:
        for i in bits(c):
            label += [m | 1 << i for m in label]
    pay = game._payoff
    tables = [None] * len(cells)
    nxt = label  # after the last stage, a profile is its own outcome
    width = game.n  # |prefix| + |cell| of the stage being solved
    for t in range(len(cells) - 1, -1, -1):
        k = cells[t].bit_count()
        width -= k
        cell = ((1 << k) - 1) << width
        rows = (
            (width + r, [pay(i, M) for M in nxt]) for r, i in enumerate(bits(cells[t]))
        )
        gainers, losers = compare_rows(rows, (1 << (width + k)) - 1)
        if k <= 1:
            least = [g & cell for g in gainers[: 1 << width]]
        else:
            least = [iesds_scan(gainers, losers, cell, H)[0] for H in range(1 << width)]
        tables[t] = dict(zip(label, map(label.__getitem__, least)))
        nxt = [nxt[H | a] for H, a in enumerate(least)]

    on_path = []
    h = 0
    for stage in tables:
        a = stage[h]
        on_path.append(a)
        h |= a
    return IesedsRecord(
        partition=p, stage_actions=tables, on_path=tuple(on_path), outcome=nxt[0]
    )


# ---------------------------------------------------------------------------
# table documents


def emit_game(game):
    """Document dict reproducing the game (payoffs as exact strings/ints),
    the round-trip writer for cli.parse_game's documents."""
    doc = {"players": game.n, "kind": game.kind}
    if game.kind == "table":
        doc["payoffs"] = [
            [v if isinstance(v, int) else str(v) for v in row]
            for row in game.params["rows"]
        ]
    elif game.kind == "weakest_link":
        doc["edges"] = [list(e) for e in game.params["edges"]]
    elif game.kind == "threshold":
        doc["edges"] = [list(e) for e in game.params["edges"]]
        doc["k"] = list(game.params["k"])
    elif game.kind == "aggregative":
        doc["c"] = list(game.params["c"])
    return doc


def parse_payoff_rows_reference(rows, n, path="$"):
    """The payoff rows of a table document as cli.parse_game built them
    before it parsed each distinct string once: one _rational call per
    entry, kept verbatim."""
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 1 << n:
            raise ParseError(
                f"{path}.payoffs[{i}]", f"expected {1 << n} entries (2^n)"
            )
        parsed.append(
            [_rational(v, f"{path}.payoffs[{i}][{m}]") for m, v in enumerate(row)]
        )
    return parsed


# Good payoffs: ints, and strings Fraction reads (signs, padding, decimals,
# whitespace); the strings "3" and "0" parse to Fractions, not ints.
DOCUMENT_PAYOFFS = st.sampled_from(
    [0, 1, -2, 7, "3", "0", "-1/2", "1/2", "2/4", " 3/4", "3/4\n", "+5/3", "007", "1.5", "-0"]
)
BAD_PAYOFFS = st.sampled_from([True, False, "1e5", "1E5", "1/0", "x", "", 1.5, None])


@st.composite
def table_documents(draw):
    """A table document on 1..5 players whose rows repeat a few payoffs
    heavily; half of them hold one or two bad entries at random positions."""
    n = draw(st.integers(1, 5))
    vocabulary = draw(st.lists(DOCUMENT_PAYOFFS, min_size=1, max_size=4))
    entry = st.sampled_from(vocabulary)
    rows = [draw(st.lists(entry, min_size=1 << n, max_size=1 << n)) for _ in range(n)]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            i = draw(st.integers(0, n - 1))
            rows[i][draw(st.integers(0, (1 << n) - 1))] = draw(BAD_PAYOFFS)
    return {"players": n, "kind": "table", "payoffs": rows}
