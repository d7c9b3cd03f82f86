"""Ordered-game classification and fast horizon solvers.

A game is ordered when incentives line up along the player index: lower
players activate more easily (cost order) and higher players help others more
(contribution order).  On such games the horizon recursion collapses to
"sweep in the players who gain for free, else force in the highest
player", and for aggregative-style games a linear two-pointer sweep
suffices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import accumulate, repeat

from .core import (
    aggregative_game,
    check_mask,
    iesds_scan,
    incentive_table,
    mask_of,
    member_column,
    members,
    thresholds,
)
from .digraph import Digraph
from .errors import DEFAULT_BUDGET, FieldError, PreconditionError, charge
from .graphical import threshold_game, weakest_link_game


@dataclass
class OrderedFlags:
    cost_ordered: bool = True
    strongly_cost_ordered: bool = True
    contribution_ordered: bool = True
    contribution_natural: bool = True
    witnesses: dict = field(default_factory=dict)


def _sweep(gainers, S, O):
    """Ascending passes over the context (S, O): each pass admits, in index
    order, every player of S who strictly gains at the current O (it leaves
    S and joins O); passes repeat until one admits no one.  Returns the
    final (S, O).

    This is not core.settle, which restarts from the lowest willing player
    after each admission: on a table that is not monotone the order of
    admission changes the result (README, Notes and limits)."""
    while True:
        above = -1  # a pass admits the lowest willing player above the last
        while willing := S & gainers[O] & above:
            low = willing & -willing
            S ^= low
            O |= low
            above = -(low << 1)
        if above == -1:
            return S, O


def classify(game, budget=DEFAULT_BUDGET):
    """Exhaustive quantifier checks for the four order properties, read off
    the game's incentive table.

    The cost-order chain clause is read as strict-improvement closure
    reachability: does i join when _sweep starts from X | {j}?  Each flag
    is its own check: strong cost order implies the weak one under single
    crossing, but a game without it can be strongly and not weakly
    cost-ordered.  First witnesses are recorded per failed flag.

    An estimated check count over the budget is refused before any table is
    built.  The game keeps the flags with the table they were read off
    (StageGame._order), so a second call, and the fast path, build nothing.
    """
    if game._order is None:
        n = game.n
        steps = n * n * (n + 2) * (1 << max(n - 2, 0))
        charge(steps, budget, f"classification needs ~{steps} checks (budget {budget})")
        table = incentive_table(game)
        game._order = _classify_table(table[0], n), table
    return game._order[0]


# bytes.translate tables: a byte to the '0' or '1' digit of its bit r
_DIGIT = [bytes(b"01"[b >> r & 1] for b in range(256)) for r in range(8)]


def _gain_columns(gainers, n):
    """The bit columns of `gainers`, one per player i below n: bit C of
    column i is set when gainers[C] holds i.  The entries are read one byte lane
    (eight players) at a time, shifted down to the lane and masked to a
    byte; each player of the lane translates the lane's bytes to the digits
    of its bit (_DIGIT), read as one binary number, coalition 0 last.  This
    inverts core._rule_gainers_list's spread."""
    gain = []
    for lane in range(0, n, 8):
        shifted = map(operator.rshift, gainers, repeat(lane))
        lane_bytes = bytes(map(operator.and_, shifted, repeat(255)))
        for r in range(min(8, n - lane)):
            gain.append(int(lane_bytes.translate(_DIGIT[r])[::-1], 2))
    return gain


def _classify_table(gainers, n):
    """The four order flags of classify, read off a game's `gainers` table.

    The quantifier checks run on bitsets over the 2^n coalitions: gain[k]
    has bit C set when player k strictly gains at C (_gain_columns), and
    one[b] (zero[b]) has bit C set when b is (is not) in C.  A check over
    the submasks X of a pool is then one expression whose set bits are its
    violations, and the first witness in descending submask order is the
    highest set bit.  The chain clause of cost order runs per X, over the
    candidates in the same descending order, but sweeps each start
    X | {j} once: the players a start's _sweep ends with are kept for the
    call, since other pairs (i, j) meet the same start.  A contribution pair
    (k, j) whose lost coalitions no other player's shifted column meets (a
    prefix and a suffix OR) is skipped.  Witnesses are recorded in the order
    a per-X loop over pairs (j, i), then triples (k, j, i), would meet them.
    """
    size = 1 << n
    full = size - 1
    every = (1 << size) - 1
    one = [member_column(b, size) for b in range(n)]
    zero = [every ^ pattern for pattern in one]
    gain = _gain_columns(gainers, n)
    flags = OrderedFlags()
    wit = flags.witnesses
    reached = {}  # start c -> the players _sweep(gainers, full & ~c, c) ends with

    for j in range(n):
        for i in range(j):
            cand = gain[j] & zero[i] & zero[j]
            found = []
            if flags.strongly_cost_ordered and (bad := cand & ~gain[i]):
                found.append((bad.bit_length() - 1, "strongly_cost_ordered"))
            if flags.cost_ordered:
                while cand:
                    X = cand.bit_length() - 1
                    c = X | 1 << j
                    O = reached.get(c)
                    if O is None:
                        O = reached[c] = _sweep(gainers, full & ~c, c)[1]
                    if not O >> i & 1:
                        found.append((X, "cost_ordered"))
                        break
                    cand ^= 1 << X
            # descending X; at one X the strong check comes first (stable sort)
            for X, name in sorted(found, key=lambda f: -f[0]):
                setattr(flags, name, False)
                wit[name] = (i, j, X)

    for k in range(n):
        # shifted[b]: X without b and k such that k gains at X | b
        row = gain[k] & zero[k]
        shifted = [(row & one[b]) >> (1 << b) for b in range(n)]
        # before[b] | after[b + 1]: the union of shifted over players other than b
        before = list(accumulate(shifted, operator.or_, initial=0))
        after = list(accumulate(reversed(shifted), operator.or_, initial=0))[::-1]
        for j in range(n):
            if j == k:
                continue
            lost = zero[j] & ~shifted[j]
            if not (before[j] | after[j + 1]) & lost:
                continue
            for i in range(n):
                if k == i or i == j:
                    continue
                strict = i < j and flags.contribution_ordered
                if not (strict or flags.contribution_natural):
                    continue
                bad = shifted[i] & lost
                if bad:
                    X = bad.bit_length() - 1
                    if strict:
                        flags.contribution_ordered = False
                        wit["contribution_ordered"] = (i, j, k, X)
                    if flags.contribution_natural:
                        flags.contribution_natural = False
                        wit["contribution_natural"] = (i, j, k, X)
    return flags


def ordered_min_horizon(game, targets):
    """Horizon for `targets` on a cost- and contribution-ordered game.

    Prefix recursion: sweep in the players who gain for free (_sweep),
    otherwise pay one stage to force in the highest-indexed player; minimised
    over strictly-sufficient-equilibrium prefixes covering the target.

    Targets with bits outside the game raise ValueError (core.check_mask),
    before the game is classified (see classify); a classified game returns
    its kept flags and table without a charge.

    The recursion is exact on strongly-cost-ordered games and on
    requirement-nested interval families (the structured generators).  On
    other cost-ordered games whose check_assumptions report is all ok,
    delete-highest can be suboptimal (see the 3-player interval
    counterexample in the test suite), so treat the value as an upper bound
    there.  Outside the stage-game conditions it is not even that: the
    4-player table in README "Notes and limits", which fails single
    crossing, common interests and nondegeneracy, gets 1 for all four
    players, whose horizon is 2."""
    check_mask(game.n, targets, "targets")
    flags = classify(game)
    if not (flags.cost_ordered and flags.contribution_ordered):
        raise PreconditionError(
            "fast path needs a cost-ordered and contribution-ordered game"
        )
    gainers, losers = game._order[1]
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

    def solve(S, O):
        stages = 1
        S, O = _sweep(gainers, S, O)
        while S:
            top = 1 << (S.bit_length() - 1)
            S, O = _sweep(gainers, S ^ top, O | top)
            stages += 1
        return stages

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
    c = thresholds(c, "c")
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


def _interval_graph(in_starts, out_ends, nested):
    """Digraph whose in-neighborhoods are upward intervals {s_i..n-1}\\{i},
    n = len(in_starts).  Every entry of `in_starts` and `out_ends` is
    checked against 0..n first (`out_ends`, when given, has n entries),
    then requirement nesting when `nested`, then each declared
    out-interval {0..e_i-1}\\{i} against the graph.  Each of these but
    nesting raises FieldError naming its vector and entry (None: length)."""
    n = len(in_starts)
    if out_ends is not None and len(out_ends) != n:
        raise FieldError("out_ends", None, f"out_ends has {len(out_ends)} entries for {n} players")
    for name, ends in (("in_starts", in_starts), ("out_ends", out_ends or ())):
        for i, e in enumerate(ends):
            if not 0 <= e <= n:
                raise FieldError(name, i, f"{name}[{i}]={e} outside 0..{n}")
    if nested and not _nested_in_intervals(in_starts):
        raise ValueError(
            "in-intervals are not requirement-nested; pass nested=False "
            "for the loose variant (no fast-path guarantee)"
        )
    g = Digraph(n, [(j, i) for i, s in enumerate(in_starts) for j in range(s, n) if j != i])
    for i, e in enumerate(out_ends or ()):
        want = mask_of(j for j in range(e) if j != i)
        if g.out_mask(i) != want:
            raise FieldError(
                "out_ends",
                i,
                f"out-neighborhood of player {i} is {members(g.out_mask(i))}, "
                f"inconsistent with the declared interval end {e}",
            )
    return g


def _nested_in_intervals(in_starts):
    """Requirement nesting: every lower player's in-interval sits inside every
    higher player's (plus that player himself).  This is the side condition
    under which the delete-highest recursion is provably safe; interval
    vectors violating it can be cost- and contribution-ordered yet still trip
    the fast path.  For i < j with s_i < s_j, the gap [s_i, s_j) may hold
    only i and j, so its length is the count of them inside it."""
    n = len(in_starts)
    for i in range(n):
        si = in_starts[i]
        for j in range(i + 1, n):
            sj = in_starts[j]
            if si < sj and sj - si != (si <= i < sj) + (si <= j < sj):
                return False
    return True


def generate(
    kind, *, c=None, in_starts=None, out_ends=None, k=None, nested=True,
    budget=DEFAULT_BUDGET,
):
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
    ordered but is no longer covered by the fast-path guarantee).  For
    both nsg kinds every `in_starts` and `out_ends` entry must lie in
    0..n, and `out_ends` must have n entries, checked before anything else
    reads the vectors; an argument out of range raises FieldError naming it.
    The classification runs under `budget` (see classify).
    """
    if kind == "aggregative":
        if c is None:
            raise ValueError("aggregative generator needs thresholds c")
        c = thresholds(c, "c")
        if any(c[i] > c[i + 1] for i in range(len(c) - 1)):
            raise ValueError("aggregative thresholds must be nondecreasing")
        game = aggregative_game(c)
        wanted = ("strongly_cost_ordered", "contribution_natural")
        problem = "thresholds do not make an ordered aggregative game"
    elif kind == "aligned_nsg":
        if in_starts is None:
            raise ValueError("aligned_nsg generator needs in_starts")
        game = weakest_link_game(_interval_graph(in_starts, out_ends, nested))
        wanted = ("cost_ordered", "contribution_ordered")
        problem = "in-intervals do not make an ordered weakest-link game"
    elif kind == "opposed_nsg":
        if in_starts is None or k is None:
            raise ValueError("opposed_nsg generator needs in_starts and k")
        game = threshold_game(_interval_graph(in_starts, out_ends, False), k)
        wanted = ("strongly_cost_ordered", "contribution_ordered")
        problem = "parameters do not make an ordered threshold game"
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    flags = classify(game, budget)
    if not all(getattr(flags, name) for name in wanted):
        raise ValueError(problem)
    return game
