"""Weakest-link games on digraphs and the sufficient-graph equivalence layer.

Any compliant stage game can be rewritten, horizon-for-horizon, as a
weakest-link game on a sufficient digraph: the solver's policy tree dictates
the edges (divide: split-off -> remainder; dominate: player -> everyone left;
delete: player <-> everyone left) and a per-player pruning pass shrinks each
in-neighborhood to a minimal satisfying set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .core import bits, gains, mask_of, members, neighbour_game, settle, thresholds
from .digraph import Digraph, TreeDepth
from .errors import DEFAULT_BUDGET, PreconditionError, charge
from .sync import SyncSolver


def weakest_link_game(g):
    """Stage game on g where i gains from action 1 exactly when all of its
    in-neighbors play 1 (payoff +1/-1, and 0 under action 0)."""
    needs = [g.in_mask(i) for i in range(g.n)]
    params = {"edges": tuple(sorted(g.edges))}
    game = neighbour_game(needs, [m.bit_count() for m in needs], "weakest_link", params)
    game._graph = g
    return game


def threshold_game(g, k):
    """Stage game on g where i gains from action 1 exactly when at least k_i
    of its in-neighbors play 1."""
    if len(k) != g.n:
        raise ValueError("one threshold per player required")
    needs = [g.in_mask(i) for i in range(g.n)]
    k = thresholds(k, "k")
    for i, ki in enumerate(k):
        deg = needs[i].bit_count()
        if not 1 <= ki <= deg:
            raise ValueError(f"threshold k[{i}]={ki} outside 1..{deg}")
    return neighbour_game(needs, k, "threshold", {"edges": tuple(sorted(g.edges)), "k": k})


def weakest_link_horizon(g, targets):
    """Horizon needed by the weakest-link game on g to guarantee `targets`:
    the tree-depth of the subgraph induced on everything that reaches them.
    The empty target is degenerate and costs the single mandatory stage."""
    depths = TreeDepth(g)
    scope = depths.reach(targets)
    if scope == 0:
        return 1
    return depths.value(scope)


def _by_size(pool):
    """The submasks of `pool` in (cardinality, lexicographic) order."""
    elems = members(pool)
    for size in range(len(elems) + 1):
        for combo in combinations(elems, size):
            yield mask_of(combo)


def _first_minimal_satisfying(gainers, i, pool):
    """Smallest-cardinality (then lexicographic) subset of `pool` whose joint
    action 1 makes i strictly willing, by the table `gainers`; None if even
    `pool` does not.  Searches the subsets of `pool` by size, at most
    2^|pool| of them."""
    if not gainers[pool] >> i & 1:
        return None
    return next(E for E in _by_size(pool) if gainers[E] >> i & 1)


def _rule_minimal_satisfying(rule, pool):
    """_first_minimal_satisfying for a player with a rule (bit, need, k), read
    off the rule: the k lowest-index players of pool & need, or None when
    fewer remain: the table search's first size-k combination."""
    _, need, k = rule
    pool &= need
    if pool.bit_count() < k:
        return None
    return mask_of(members(pool)[:k])


def minimal_satisfying_sets(game, i):
    """All inclusion-minimal E <= N\\{i} with u_i(E u {i}) > u_i(E).

    Enumerated by increasing cardinality, so supersets of found sets are
    skipped; the full complement must qualify (otherwise i's action 1 is
    dominated and no sufficient graph exists for it)."""
    pool = game.all_players & ~(1 << i)
    if not gains(game, i, pool):
        raise PreconditionError(
            f"player {i} never strictly gains from action 1; "
            "no satisfying set exists"
        )
    found = []
    for E in _by_size(pool):
        if not any(prev & E == prev for prev in found) and gains(game, i, E):
            found.append(E)
    return found


@dataclass(frozen=True)
class SufficientGraph:
    """Digraph whose in-neighborhoods strictly incentivize every player and
    are minimal: no in-edge can be dropped anywhere."""

    graph: Digraph


def reduce_to_weakest_link(game, solver=None):
    """Rewrite the game as a weakest-link instance with identical horizons.

    Walks the solved policy tree collecting each player's in-neighbours per
    operation, prefixes the cascade of initially dominant players, then
    prunes each in-neighborhood to a minimal satisfying subset (read off the
    player's rule on a game with rules).  Requires that no player's action 1
    is iteratively strictly dominated.  A weakest-link game is its own
    reduction: each in-neighbourhood is that player's unique minimal
    satisfying set, so its graph is returned without a solver or a walk.
    """
    if game._graph is not None:
        return SufficientGraph(game._graph)
    solver = solver or SyncSolver(game)
    if solver.dropped:
        raise PreconditionError(
            f"players {members(solver.dropped)} are forced to action 0; "
            "no sufficient graph covers them"
        )
    ins = [0] * game.n  # ins[j]: the players with an edge into j

    # initially dominant players cascade first, in elimination order
    stalled, _, cascade = settle(solver.gainers, solver.forced_one, 0)
    if stalled:
        raise RuntimeError(f"forced-one cascade stalled before {members(stalled)}")
    remaining = game.all_players
    for step in cascade:
        remaining &= ~(1 << step)
        for j in bits(remaining):
            ins[j] |= 1 << step

    def walk(node, S):
        while node.op == "dominate" or node.op == "delete":
            i = node.player
            S &= ~(1 << i)
            for j in bits(S):
                ins[j] |= 1 << i
            if node.op == "delete":
                ins[i] |= S
            node = node.children[0]
        if node.op == "divide":
            X = node.split
            rest = S & ~X
            for j in bits(rest):
                ins[j] |= X
            walk(node.children[0], X)
            walk(node.children[1], rest)

    walk(solver.policy(), solver.base.active)

    rules = game._rules
    for i, pool in enumerate(ins):
        if rules is None:
            ins[i] = _first_minimal_satisfying(solver.gainers, i, pool)
        else:
            ins[i] = _rule_minimal_satisfying(rules[i], pool)
        if ins[i] is None:
            raise PreconditionError(
                f"constructed in-neighborhood of player {i} is not satisfying; "
                "the game violates the solver assumptions"
            )
    edges = [(j, i) for i, E in enumerate(ins) for j in bits(E)]
    return SufficientGraph(Digraph(game.n, edges))


def horizon_via_graphs(game, targets, budget=DEFAULT_BUDGET):
    """Minimum, over all minimal sufficient graphs (one minimal satisfying
    in-set per player), of the weakest-link horizon for `targets`.  A
    verification tool: each combination is a tree-depth solve over up to
    2^n vertex sets, so it charges 2^n per combination and refuses products
    beyond `budget` / 2^n combinations."""
    choices = [minimal_satisfying_sets(game, i) for i in range(game.n)]
    size = 1
    for c in choices:
        size *= len(c)
    cost = size << game.n
    charge(
        cost,
        budget,
        f"minimal-graph product has {size} combinations, {cost} steps at 2^{game.n} each"
        f" (budget {budget})",
    )
    best = None
    for ins in product(*choices):
        edges = [(j, i) for i, E in enumerate(ins) for j in bits(E)]
        v = weakest_link_horizon(Digraph(game.n, edges), targets)
        if best is None or v < best:
            best = v
    return best
