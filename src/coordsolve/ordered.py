"""Ordered-game classification and fast horizon solvers.

A game is ordered when incentives line up along the player index: lower
players activate more easily (cost order) and higher players help others more
(contribution order).  On such games the horizon recursion collapses to
"cascade the dominated prefix, else force in the highest player", and for
aggregative-style games a linear two-pointer sweep suffices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    aggregative_game,
    bits,
    iesds_scan,
    incentive_table,
    mask_of,
    members,
    submasks,
)
from .digraph import Digraph
from .errors import PreconditionError, ResourceLimitError
from .graphical import threshold_game, weakest_link_game

DEFAULT_CHECK_BUDGET = 10**7


@dataclass
class OrderedFlags:
    cost_ordered: bool = True
    strongly_cost_ordered: bool = True
    contribution_ordered: bool = True
    contribution_natural: bool = True
    witnesses: dict = field(default_factory=dict)


def _chain_reaches(gainers, full, target, seed, base):
    """Closure reachability on the incentive table of a game on players
    `full`: starting from {seed} on top of `base`, repeatedly admit any
    player strictly preferring to join the current coalition; does `target`
    ever join?  Complete for the chain condition under single crossing."""
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


def classify(game, budget=DEFAULT_CHECK_BUDGET):
    """Exhaustive quantifier checks for the four order properties, read off
    the game's incentive table.

    The cost-order chain clause is read as strict-improvement closure
    reachability (see _chain_reaches).  Each flag is its own check: strong
    cost order implies the weak one under single crossing, but a game
    without it can be strongly and not weakly cost-ordered.  First witnesses
    are recorded per failed flag.
    """
    _check_classify_budget(game.n, budget)
    gainers, _ = incentive_table(game)
    return _classify_table(gainers, game.n)


def _check_classify_budget(n, budget):
    """Refuse, before any table is built, a classification whose estimated
    check count exceeds the budget."""
    steps = n * n * (n + 2) * (1 << max(n - 2, 0))
    if steps > budget:
        raise ResourceLimitError(
            f"classification needs ~{steps} checks (budget {budget})", size=steps
        )


def _classify_table(gainers, n):
    """The four order flags of classify, read off a game's `gainers` table."""
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
                    if flags.cost_ordered and not _chain_reaches(gainers, full, i, j, X):
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


def ordered_min_horizon(game, targets, flags=None):
    """Horizon for `targets` on a cost- and contribution-ordered game.

    Prefix recursion: cascade-dominate the maximal activating prefix for free,
    otherwise pay one stage to force in the highest-indexed player; minimised
    over strictly-sufficient-equilibrium prefixes covering the target.

    The recursion is exact on strongly-cost-ordered games and on
    requirement-nested interval families (the structured generators); weakly
    cost-ordered games outside that class can make delete-highest suboptimal
    (see the 3-player interval counterexample in the test suite), so treat the
    value as an upper bound there."""
    table = None
    if flags is None:
        # classify(game), sharing its table with the recursion below
        _check_classify_budget(game.n, DEFAULT_CHECK_BUDGET)
        table = incentive_table(game)
        flags = _classify_table(table[0], game.n)
    if not (flags.cost_ordered and flags.contribution_ordered):
        raise PreconditionError(
            "fast path needs a cost-ordered and contribution-ordered game"
        )
    gainers, losers = table or incentive_table(game)
    least, greatest = iesds_scan(gainers, losers, game.all_players, 0)
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
                if gainers[O] >> i & 1:
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
    best = None
    for k in range(1, len(order) + 1):
        prefix = mask_of(order[:k])
        if prefix & want != want:
            continue
        # a strictly sufficient Nash prefix: exactly its members gain in S0
        if gainers[prefix | O0] & S0 == prefix:
            v = solve(prefix, O0)
            if best is None or v < best:
                best = v
    if best is None:
        raise PreconditionError("no sufficient prefix covers the target")
    return best


def aggregative_min_horizon(c, n):
    """Accelerated sweep for a nondecreasing threshold vector: either the next
    cheapest player cascades in, or the most expensive remaining player is
    forced in at the cost of a stage."""
    c = tuple(int(v) for v in c)
    if len(c) != n:
        raise ValueError("need one threshold per player")
    for idx in range(n):
        if not 1 <= c[idx] <= n - 1:
            raise ValueError(f"threshold c[{idx}]={c[idx]} outside 1..{n - 1}")
        if idx and c[idx] < c[idx - 1]:
            raise ValueError("thresholds must be nondecreasing")
    t = 0
    l = 1
    d = 0
    r = n
    while l < r:
        if c[l - 1] <= d:
            l += 1
            d += 1
        else:
            r -= 1
            t += 1
            d += 1
    return t + 1


# ---------------------------------------------------------------------------
# structured generators


def _interval_in_graph(n, in_starts):
    """Digraph whose in-neighborhoods are upward intervals {s_i..n-1}\\{i}."""
    edges = []
    for i, s in enumerate(in_starts):
        if not 0 <= s <= n:
            raise ValueError(f"in-start {s} for player {i} outside 0..{n}")
        for j in range(s, n):
            if j != i:
                edges.append((j, i))
    return Digraph(n, edges)


def _nested_in_intervals(in_starts):
    """Requirement nesting: every lower player's in-interval sits inside every
    higher player's (plus that player himself).  This is the side condition
    under which the delete-highest recursion is provably safe; interval
    vectors violating it can be cost- and contribution-ordered yet still trip
    the fast path."""
    n = len(in_starts)
    for i in range(n):
        for j in range(i + 1, n):
            if in_starts[i] >= in_starts[j]:
                continue
            gap = set(range(in_starts[i], in_starts[j])) - {i}
            if not gap <= {j}:
                return False
    return True


def _check_out_intervals(g, out_ends):
    for i, e in enumerate(out_ends):
        if not 0 <= e <= g.n:
            raise ValueError(f"out-end {e} for player {i} outside 0..{g.n}")
        want = mask_of(j for j in range(e) if j != i)
        if g.out_mask(i) != want:
            raise ValueError(
                f"out-neighborhood of player {i} is {members(g.out_mask(i))}, "
                f"inconsistent with the declared interval end {e}"
            )


def generate(kind, *, c=None, in_starts=None, out_ends=None, k=None, nested=True):
    """Structured ordered-game generators.

    aggregative: nondecreasing thresholds c (strongly cost-ordered and
    contribution natural).  aligned_nsg: weakest-link game on the nested
    digraph with upward in-intervals `in_starts` (0-based start index per
    player; n means empty) and optional declared downward out-intervals
    `out_ends` (exclusive 0-based end; 0 means empty), cost- and
    contribution-ordered.  opposed_nsg: threshold game with thresholds k on
    the same interval shape, strongly cost-ordered and contribution-ordered.
    Parameters that fail to produce the advertised order flags are rejected;
    aligned vectors must additionally satisfy the requirement-nesting side
    condition unless `nested=False` (the loose variant still classifies as
    ordered but is no longer covered by the fast-path guarantee).
    """
    if kind == "aggregative":
        if c is None:
            raise ValueError("aggregative generator needs thresholds c")
        c = tuple(int(v) for v in c)
        if any(c[i] > c[i + 1] for i in range(len(c) - 1)):
            raise ValueError("aggregative thresholds must be nondecreasing")
        game = aggregative_game(c)
        flags = classify(game)
        if not (flags.strongly_cost_ordered and flags.contribution_natural):
            raise ValueError("thresholds do not make an ordered aggregative game")
        return game
    if kind == "aligned_nsg":
        if in_starts is None:
            raise ValueError("aligned_nsg generator needs in_starts")
        if nested and not _nested_in_intervals(in_starts):
            raise ValueError(
                "in-intervals are not requirement-nested; pass nested=False "
                "for the loose variant (no fast-path guarantee)"
            )
        g = _interval_in_graph(len(in_starts), in_starts)
        if out_ends is not None:
            _check_out_intervals(g, out_ends)
        game = weakest_link_game(g)
        flags = classify(game)
        if not (flags.cost_ordered and flags.contribution_ordered):
            raise ValueError("in-intervals do not make an ordered weakest-link game")
        return game
    if kind == "opposed_nsg":
        if in_starts is None or k is None:
            raise ValueError("opposed_nsg generator needs in_starts and k")
        g = _interval_in_graph(len(in_starts), in_starts)
        if out_ends is not None:
            _check_out_intervals(g, out_ends)
        game = threshold_game(g, k)
        flags = classify(game)
        if not (flags.strongly_cost_ordered and flags.contribution_ordered):
            raise ValueError("parameters do not make an ordered threshold game")
        return game
    raise ValueError(f"unknown generator kind {kind!r}")
