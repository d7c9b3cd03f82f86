"""Stage-game core: exact payoffs, assumption checks, Nash and dominance machinery.

Players are indexed 0..n-1.  A coalition mask is an int whose bit i is set
exactly when player i plays action 1; the mask doubles as the action profile.
All payoffs are exact (int or Fraction) -- the assumption checks distinguish
ties from strict inequalities, so floats are rejected outright.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import FieldError, PreconditionError


# ---------------------------------------------------------------------------
# player-set helpers


def mask_of(players):
    """Build a coalition mask from an iterable of player indices."""
    m = 0
    for p in players:
        m |= 1 << p
    return m


def members(mask):
    """Sorted tuple of player indices in the mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def bits(mask):
    """Iterate player indices of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_mask(n, mask, name):
    """Reject a mask with bits beyond indices 0..n-1, naming the stray bits
    (ValueError)."""
    if mask < 0:
        raise ValueError(f"{name} mask {mask} is negative")
    stray = mask >> n << n
    if stray:
        raise ValueError(
            f"{name} mask has bits {list(members(stray))} outside 0..{n - 1}"
        )


def sorted_coalitions(masks):
    """Coalition masks in (cardinality, lexicographic) order."""
    return sorted(masks, key=lambda m: (m.bit_count(), members(m)))


def submasks(mask):
    """All submasks of `mask`, including 0 and mask itself (descending)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# ---------------------------------------------------------------------------
# stage games


_EXACT = (int, Fraction)
_EXACT_TYPES = set(_EXACT)


class StageGame:
    """A binary-action normal-form game with an exact payoff oracle.

    `payoff(i, X)` returns player i's utility when exactly the members of X
    play action 1 (i's own action is read from membership).  `kind` is one of
    "table", "weakest_link", "threshold", "aggregative"; `params` keeps the
    construction data so documents can be re-emitted.  `table`, when given,
    is a zero-argument callable returning the game's incentive table
    (gainers, losers); table_game passes one that compares its int rows.
    Every payoff read, payoff_row's included, goes through the payoff
    function.

    `_rules` holds one rule per player of a weakest-link, threshold or
    aggregative game, set only by neighbour_game (None for any other game);
    every fast view of such a game reads them.  `_graph` is a weakest-link
    game's digraph, set only by graphical.weakest_link_game; SyncSolver
    reads its horizons off it as tree-depths.  `_order` is the (flags,
    table) pair set by the game's first ordered.classify call, which
    ordered_min_horizon reads its table from; it lives as long as the game.
    """

    def __init__(self, n, payoff_fn, kind="table", params=None, table=None):
        if n <= 0:
            raise ValueError("need at least one player")
        self.n = n
        self._payoff = payoff_fn
        self.kind = kind
        self.params = params or {}
        self._build_table = table
        self._rules = None
        self._graph = None
        self._order = None

    @property
    def all_players(self):
        return (1 << self.n) - 1

    @cached_property
    def report(self):
        """The AssumptionReport of the full game, computed on first read."""
        return check_assumptions(self)

    def payoff(self, i, coalition):
        if not 0 <= i < self.n:
            raise IndexError(f"player {i} out of range 0..{self.n - 1}")
        if coalition < 0 or coalition >> self.n:
            raise IndexError(f"coalition {coalition:#x} not within {self.n} players")
        return self._payoff(i, coalition)

    def payoff_row(self, i, masks):
        """Player i's payoffs at each coalition in `masks`, as a list in the
        same order: [payoff(i, M) for M in masks], read in one call.  The
        masks may repeat and come in any order; like _payoff, neither i nor
        the masks are range-checked."""
        pay = self._payoff
        return [pay(i, M) for M in masks]

    def __repr__(self):
        return f"StageGame(n={self.n}, kind={self.kind!r})"


def table_game(rows):
    """Game from explicit payoff rows: rows[i][mask] = u_i(mask), exact values."""
    n = len(rows)
    size = 1 << n
    table = []
    for i, row in enumerate(rows):
        if len(row) != size:
            raise ValueError(f"player {i}: expected {size} payoffs, got {len(row)}")
        if not set(map(type, row)) <= _EXACT_TYPES:
            # a bool, a float, or a subclass of int or Fraction, which passes
            for v in row:
                if isinstance(v, bool) or not isinstance(v, _EXACT):
                    raise TypeError(f"player {i}: payoff {v!r} is not an exact rational")
        table.append(tuple(row))
    return StageGame(
        n,
        lambda i, X: table[i][X],
        kind="table",
        params={"rows": table},
        table=lambda: _rows_table(table),
    )


def neighbour_game(needs, k, kind, params):
    """Game where player i gains from action 1 exactly when at least k[i]
    players of the mask needs[i] (which must not hold i) play 1, and loses
    otherwise: payoff +1 or -1 under action 1, 0 under action 0.  The game
    keeps one rule (1 << i, needs[i], k[i]) per player (`_rules`), and its
    payoffs, incentive table and every solver's gains view (RuleGains) read
    them.  Its incentive table is monotone (see is_monotone) and tie-free,
    so losers[C] is the complement of gainers[C].  Weakest-link games take
    k[i] = |needs[i]|, aggregative games the complete digraph."""
    needs = tuple(needs)
    k = tuple(k)

    def pay(i, X):
        if not (X >> i) & 1:
            return 0
        return 1 if (X & needs[i]).bit_count() >= k[i] else -1

    game = StageGame(len(needs), pay, kind=kind, params=params)
    game._rules = tuple(zip((1 << i for i in range(len(needs))), needs, k))
    return game


def thresholds(values, name):
    """The threshold vector `values` as a tuple of ints.  An entry must be
    what operator.index accepts, other than a bool; any other entry (a float,
    a string) raises TypeError naming it as name[idx], rather than being
    truncated or parsed."""
    out = []
    for idx, v in enumerate(values):
        if isinstance(v, bool) or not hasattr(type(v), "__index__"):
            raise TypeError(f"threshold {name}[{idx}]={v!r} is not an int")
        out.append(operator.index(v))
    return tuple(out)


def aggregative_game(c):
    """Game where i strictly wants action 1 iff at least c_i others play 1.
    An entry outside 1..n-1 raises FieldError("c", i)."""
    n = len(c)
    c = thresholds(c, "c")
    for i, ci in enumerate(c):
        if not 1 <= ci <= n - 1:
            raise FieldError("c", i, f"threshold c[{i}]={ci} outside 1..{n - 1}")
    full = (1 << n) - 1
    return neighbour_game([full ^ 1 << i for i in range(n)], c, "aggregative", {"c": c})


# ---------------------------------------------------------------------------
# contexts: auxiliary games with some players forced to 1 and the rest to 0


@dataclass(frozen=True)
class Context:
    """Active players S play the game; players in `ones` are fixed at action 1;
    everyone else is fixed at action 0.  Payoffs of i in S at X <= S are
    u_i(X | ones)."""

    active: int
    ones: int

    def __post_init__(self):
        if self.active & self.ones:
            raise ValueError("active and forced-one sets overlap")


def full_context(game):
    return Context(game.all_players, 0)


def _checked(game, ctx):
    """ctx, or the full context when None; a mask with bits outside the
    game's players raises ValueError (check_mask)."""
    if ctx is None:
        return full_context(game)
    check_mask(game.n, ctx.active, "active")
    check_mask(game.n, ctx.ones, "ones")
    return ctx


def _ctx_pay(game, ctx):
    ones = ctx.ones
    pay = game._payoff
    return lambda i, X: pay(i, X | ones)


# ---------------------------------------------------------------------------
# Assumption report


@dataclass(frozen=True)
class Violation:
    check: str
    player: int
    low: int
    high: int


@dataclass
class AssumptionReport:
    single_crossing: bool = True
    common_interests: bool = True
    deviation_proof: bool = True
    nondegenerate: bool = True
    witnesses: list = field(default_factory=list)

    @property
    def satisfies_assumptions(self):
        """The three stage-game conditions (nondegeneracy is tracked apart)."""
        return self.single_crossing and self.common_interests and self.deviation_proof


def check_assumptions(game, ctx=None):
    """Verify the stage-game conditions for every active player.

    Per active player i and coalitions low < high of i's opponents: single
    crossing, common interests (monotone indirect utility plus the tie-break
    rule, which we interpret on the indirect utility itself and label
    "tie-break (interpreted)"), and the deviation-proof condition.
    Nondegeneracy asks that action 1 be strictly best against all-ones
    opponents and strictly worst against all-zeros.

    Each player's payoffs are scaled to ints first (int_row), which keeps
    every comparison.  A column test over the 2^k coalitions of i's k
    opponents then decides whether all pairwise conditions hold
    (_pairs_hold); only a player who fails one runs the witness pass
    (_check_pairs), in which each condition holds at a high set X unless the
    best value of some payoff quantity over X's proper subsets beats X's
    own.  That pass goes over the opponents' coalitions, subsets first,
    carrying those best values with a subset attaining them: O(k 2^k) per
    player, instead of the 3^k pairs.  A failed check records one witness
    pair per (check, player, high set).
    """
    ctx = _checked(game, ctx)
    pay = _ctx_pay(game, ctx)
    rep = AssumptionReport()
    wit = rep.witnesses
    # Coalitions of the k opponents by index t < 2^k (bit r of t stands for
    # the r-th opponent).  k is the same for every active player.
    k = max(ctx.active.bit_count() - 1, 0)
    size = 1 << k
    columns = [member_column(r, size) for r in range(k)]
    lower = None  # lower[t]: the indices of t's maximal proper subsets

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

        scaled = int_row(u0 + u1)
        a0, a1 = scaled[:size], scaled[size:]
        if not _pairs_hold(a0, a1, columns):
            if lower is None:
                lower = [[t ^ (1 << r) for r in bits(t)] for t in range(size)]
            _check_pairs(rep, i, subs, a0, a1, lower)
    return rep


# bytes.translate table: a 0 or 1 byte to the digit '0' or '1'
_DIGITS = bytes.maketrans(bytes((0, 1)), b"01")


def _column(flags):
    """The int whose bit t is flags[t], for an iterable of bools."""
    return int(bytes(flags)[::-1].translate(_DIGITS), 2)


def _up_set(x, columns):
    """Is the set of indices t with bit t of x closed under adding any bit
    r: t in x and t < 2^k without r imply t | 2^r in x?  `columns` holds
    member_column(r, 2^k) for each r < k; one shift per r."""
    for r, held in enumerate(columns):
        if (x & ~held) << (1 << r) & ~x:
            return False
    return True


def _pairs_hold(a0, a1, columns):
    """Do all of a player's pairwise conditions hold?  a0[t], a1[t]: the
    player's payoffs for actions 0 and 1 against the opponents' coalition
    with index t, as ints; `columns` as in _up_set.  An exact test of the
    three conditions together, on whole columns and on the covers (t, t |
    2^r), with no per-pair loop in Python.  With m = max(a0, a1), and D and
    U the coalitions where a1 <= a0 and a1 >= a0:

    - single crossing holds iff U and [a1 > a0] are up-sets, so D is a
      down-set;
    - given that, common interests (m rises along inclusion, and no set
      of U ties in m with a proper subset in D) holds iff every cover
      (L, H) has 2 m(L) + [L in D] <= 2 m(H) + [H not in U]: m then rises
      along every chain, so a chain from a set of D up to a set of U with
      the same m holds a cover from D to U with the same m;
    - given both, a0 = m rises on the subsets of a set of D, so the least
      a0 below any H != 0 of D is a0(0): deviation-proofness holds iff no
      H != 0 has a1(H) < a0(H) and a1(H) >= a0(0), or a1(H) = a0(H) > a0(0).
    """
    ge = _column(map(operator.ge, a1, a0))
    gt = _column(map(operator.gt, a1, a0))
    if not (_up_set(ge, columns) and _up_set(gt, columns)):
        return False
    m = list(map(max, a0, a1))
    twice = list(map(operator.add, m, m))
    low = list(map(operator.add, twice, map(operator.le, a1, a0)))
    high = list(map(operator.add, twice, map(operator.lt, a1, a0)))
    if not all(all(map(operator.le, x, y)) for x, y in _cover_slices(low, high)):
        return False
    least = a0[0]
    reach = _column(map(least.__le__, a1)) & ~ge
    tie = _column(map(least.__lt__, a1)) & ge & ~gt
    return not (reach | tie) >> 1


def _check_pairs(rep, i, subs, u0, u1, lower):
    """The pairwise conditions of player i, one subset-best pass (see
    check_assumptions).  u0[t], u1[t]: i's payoffs for actions 0 and 1
    against the coalition subs[t], as ints (see int_row)."""
    wit = rep.witnesses
    size = len(subs)
    # Only order comparisons among i's payoffs matter; ranks keep them and
    # are small ints.
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
            low = pt % size if pt // size == m else _equal_top_subset(t, m, r0, r1)
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


def _equal_top_subset(t, m, r0, r1):
    """A proper subset index L of t with u1 <= u0 and max(u0, u1) == m, or None."""
    low = t
    while low:
        low = (low - 1) & t
        if r1[low] <= r0[low] == m:
            return low
    return None


# ---------------------------------------------------------------------------
# incentive table: who strictly gains from action 1, coalition by coalition


def gains(game, i, X):
    """Does player i strictly gain from action 1 when exactly X (other
    players, not i) plays 1?  One cell of incentive_table, read raw."""
    bit = 1 << i
    return game._payoff(i, X | bit) > game._payoff(i, X)


def incentive_table(game):
    """Every strict preference between the two actions.

    Returns (gainers, losers), two lists indexed by coalition mask C:
    gainers[C] holds the players i who strictly prefer action 1 when exactly
    C minus i plays 1, losers[C] those who strictly prefer action 0.  Whether
    i itself belongs to C makes no difference, so a context (S, O) reads
    profile X <= S at index X | O.

    A game with rules (see neighbour_game) lists them at every coalition,
    one rule at a time (_rule_gainers_list), and the players they leave out
    lose; a table game compares its int rows; any other game reads its
    n 2^n payoffs once and compares them (compare_rows).  Nothing is
    cached: each call builds a fresh table.
    """
    rules = game._rules
    if rules is not None:
        full = game.all_players
        gainers = _rule_gainers_list(rules, game.n)
        return gainers, [full ^ g for g in gainers]
    if game._build_table is not None:
        return game._build_table()
    pay = game._payoff
    size = 1 << game.n
    rows = ((i, [pay(i, C) for C in range(size)]) for i in range(game.n))
    return compare_rows(rows, size - 1)


def compare_rows(rows, within):
    """The incentive table of payoff rows: `rows` yields pairs (i, row), where
    row[C] is player i's payoff at each coalition C <= within, and the result
    is (gainers, losers) as in incentive_table, indexed by the submasks of
    `within`.  One comparison per player and pair of coalitions that differ
    in that player only; each row is read once and may be dropped after."""
    gainers = [0] * (within + 1)
    losers = [0] * (within + 1)
    for i, row in rows:
        bit = 1 << i
        rest = within & ~bit
        low = rest
        while True:
            high = low | bit
            a0 = row[low]
            a1 = row[high]
            if a1 > a0:
                gainers[low] |= bit
                gainers[high] |= bit
            elif a0 > a1:
                losers[low] |= bit
                losers[high] |= bit
            if low == 0:
                break
            low = (low - 1) & rest
    return gainers, losers


def int_row(row):
    """A row of exact payoffs as ints in the same order: each entry times
    the least common denominator of the row's entries (a row of ints is
    returned as it is).  Any two entries compare exactly as before, and int
    comparisons are much cheaper than Fraction ones."""
    if type(row[0]) is int and set(map(type, row)) == {int}:
        return row
    ratios = [v.as_integer_ratio() for v in row]
    lcd = math.lcm(*{q for _, q in ratios})
    return [p * (lcd // q) for p, q in ratios]


def _rows_table(rows):
    """Incentive table of a table game, compared on int rows (int_row)."""
    full = (1 << len(rows)) - 1
    return compare_rows(((i, int_row(row)) for i, row in enumerate(rows)), full)


def rule_gainers(rules, C):
    """gainers[C] of a game's rules (see neighbour_game): the players with
    at least k of their `need` in C."""
    out = 0
    for bit, need, k in rules:
        if (C & need).bit_count() >= k:
            out |= bit
    return out


def member_column(j, size):
    """The int whose bit C, for each C below `size` (a power of two above
    2^j), is set when C holds bit j: blocks of 2^j zeros then 2^j ones,
    built by doubling."""
    span = 1 << j
    x = ((1 << span) - 1) << span
    span <<= 1
    while span < size:
        x |= x << span
        span <<= 1
    return x


def at_least(k, columns, ones):
    """The bits of `ones` set in at least k of the ints `columns`.  For
    k = len(columns) that is their AND; otherwise a running count "at least
    c of the columns read so far", c = 0..k, one AND and one OR per count
    and column, keeping only the counts that can still reach k."""
    if k == len(columns):
        for x in columns:
            ones &= x
        return ones
    at = [ones] + [0] * k
    left = len(columns)
    for seen, x in enumerate(columns, 1):
        left -= 1
        for c in range(min(k, seen), max(k - left, 1) - 1, -1):
            at[c] |= at[c - 1] & x
    return at[k]


# bytes.translate tables: a '0' or '1' character to 0 or 1 << r
_SPREAD = [bytes.maketrans(b"01", bytes((0, 1 << r))) for r in range(8)]


def _rule_gainers_list(rules, n):
    """[rule_gainers(rules, C) for C below 2^n], one rule at a time: the
    coalitions where player i gains are one bit column (at_least over its
    need's member columns), spread to one byte per coalition, 1 << (i mod 8)
    where set; the bytes of up to eight players are ORed into one lane."""
    size = 1 << n
    ones = (1 << size) - 1
    held = [member_column(j, size) for j in range(n)]
    for lane in range(0, n, 8):
        acc = 0
        for bit, need, k in rules[lane : lane + 8]:
            col = at_least(k, [held[j] for j in bits(need)], ones)
            spread = _SPREAD[bit.bit_length() - 1 - lane]
            acc |= int.from_bytes(f"{col:0{size}b}"[::-1].encode().translate(spread), "little")
        lane_bytes = acc.to_bytes(size, "little")
        if lane == 0:
            gainers = list(lane_bytes)
        else:
            gainers = [g | b << lane for g, b in zip(gainers, lane_bytes)]
    return gainers


class RuleGains(dict):
    """The gainers list of a game's rules, each entry computed on first read
    (rule_gainers) and kept.  The scans only index it, so they read it as a
    table.  Each SyncSolver keeps its own, never the game, so it holds only
    what that solver read."""

    __slots__ = ("rules",)

    def __init__(self, rules):
        super().__init__()
        self.rules = rules

    def __missing__(self, C):
        self[C] = out = rule_gainers(self.rules, C)
        return out


def sss_scan(gainers, S, O, require_ne=False):
    """Strictly sufficient sets of the context (S, O), read off an incentive
    table: nonempty X <= S whose members all gain at X | O, and, when
    require_ne, no other member of S does (then X is also a Nash profile:
    a gainer never strictly prefers action 0).  Ordered by (cardinality,
    lexicographic)."""
    out = []
    rest = S if require_ne else 0
    X = S
    while X:
        if gainers[X | O] & (X | rest) == X:
            out.append(X)
        X = (X - 1) & S
    return sorted_coalitions(out)


def fixed_point_scan(gainers, S, O):
    """sss_scan(gainers, S, O, True) on a monotone table (see is_monotone),
    without visiting every submask of S.

    The candidates are the nonempty fixed points of f(Y) = gainers[Y | O] & S,
    which is monotone when the table is.  Any fixed point Y of f in an
    interval [L, U] satisfies f(L) <= f(Y) = Y <= f(U), so L grows to
    L | f(L) and U shrinks to U & f(U) until both settle (Tarski 1955); an
    interval with L not inside U holds none, one with L == U holds L, and
    any other splits on the lowest player of U minus L.  On a table that is
    not monotone this misses candidates: on [0, 3, 2, 1] with S = 3, O = 0
    it returns [] where sss_scan returns [2].  `gainers` is only indexed,
    so it may compute each entry on demand instead of storing all 2^n."""
    out = []
    stack = [(0, S)]
    while stack:
        L, U = stack.pop()
        while True:
            up = L | gainers[L | O] & S
            down = U & gainers[U | O]
            if up & ~down:
                break
            if up == L and down == U:
                free = U & ~L
                if free:
                    low = free & -free
                    stack.append((L | low, U))
                    stack.append((L, U ^ low))
                elif L:
                    out.append(L)
                break
            L, U = up, down
    return sorted_coalitions(out)


def _cover_slices(low, high):
    """Pairs (low[X...], high[Y...]) of equal-length slices of two lists
    indexed by coalition, which together pair each coalition X with each
    Y = X plus one bit b, once.  For each b: 2^b strided slices when b is
    low, contiguous blocks of 2^b entries when b is high, whichever gives
    fewer, longer slices."""
    size = len(low)
    step = 1
    while step < size:
        span = 2 * step
        if step * span <= size:
            for r in range(step):
                yield low[r::span], high[r + step :: span]
        else:
            for k in range(0, size, span):
                yield low[k : k + step], high[k + step : k + span]
        step = span


def is_monotone(gainers):
    """Does the table only grow along inclusion: gainers[X] <= gainers[Y]
    whenever X <= Y?  Games with strategic complementarities have such
    tables.  Reads only the table, comparing each coalition with the same
    coalition plus one bit, a pair of slices at a time (_cover_slices)."""
    for low, high in _cover_slices(gainers, gainers):
        if list(map(operator.or_, low, high)) != high:
            return False
    return True


def iesds_scan(gainers, losers, S, O):
    """Iterated elimination of strictly dominated actions on the context
    (S, O), read off an incentive table.  Each round drops at once, for
    every undecided player, action 1 if it loses at every profile of the
    undecided players, action 0 if it gains at every one; in finite games
    the survivors do not depend on the order (Gilboa, Kalai and Zemel 1990).
    Returns (least, greatest)."""
    can0 = can1 = S
    while free := can0 & can1:
        fixed = (can1 & ~can0) | O
        worse1 = worse0 = free
        sub = free
        while worse1 | worse0:
            worse1 &= losers[sub | fixed]
            worse0 &= gainers[sub | fixed]
            if sub == 0:
                break
            sub = (sub - 1) & free
        if not worse1 | worse0:
            break
        can1 &= ~worse1
        can0 &= ~worse0
    return can1 & ~can0, can1


def iesds_closure(gainers, S, O):
    """iesds_scan's (least, greatest) on a monotone table with no ties, such
    as the gainers of a game with rules (see neighbour_game), without
    visiting profiles.  A player of S gains at
    every remaining profile when it gains at the lowest, and loses at every
    one when it does not gain at the highest, so the lowest profile grows
    from O by gainers[low] & S and the highest shrinks from S | O to the
    players of S in gainers[high], until both settle: the least and greatest
    fixed points of f(Y) = O | gainers[Y] & S (Milgrom and Roberts 1990).
    `gainers` is only indexed, so it may be a RuleGains view."""
    low = O
    while (grown := low | gainers[low] & S) != low:
        low = grown
    high = S | O
    while (shrunk := high & ~(S & ~gainers[high])) != high:
        high = shrunk
    return low & S, high & S


def settle(gainers, S, O):
    """The free dominate steps of the context (S, O): while some player of
    S strictly gains when just O plays 1, the lowest such player joins O.
    Returns the settled S and O and the players that joined, in order: the
    policy tree's dominate chain.  `gainers` is only indexed, so it may be
    a RuleGains view."""
    joined = []
    while willing := S & gainers[O]:
        low = willing & -willing
        joined.append(low.bit_length() - 1)
        S ^= low
        O |= low
    return S, O, joined


def ne_scan(gainers, losers, S, O):
    """Pure Nash profiles X <= S of the context (S, O), read off an incentive
    table: no member of X strictly prefers action 0 and no other member of S
    strictly prefers action 1.  Ordered by (cardinality, lexicographic)."""
    out = []
    X = S
    while True:
        C = X | O
        if not (X & losers[C] or S & ~X & gainers[C]):
            out.append(X)
        if X == 0:
            return sorted_coalitions(out)
        X = (X - 1) & S


# ---------------------------------------------------------------------------
# Nash machinery


def least_ne(game, ctx=None):
    """Least pure Nash equilibrium of the contextual game.

    Best-response iteration upward from the all-zero profile, breaking ties
    toward action 0; every round returns, raises or grows the profile, so
    it ends within |S| + 1 rounds.  A non-monotone step means the
    single-crossing condition fails: a precondition error.
    """
    ctx = _checked(game, ctx)
    cur = 0
    while True:
        nxt = 0
        for i in bits(ctx.active):
            if gains(game, i, (cur | ctx.ones) & ~(1 << i)):
                nxt |= 1 << i
        if nxt == cur:
            return cur
        if nxt & cur != cur:
            raise PreconditionError(
                "best-response iteration is not monotone; single-crossing fails"
            )
        cur = nxt


def is_ne(game, ctx, X):
    """Is X <= ctx.active a pure Nash equilibrium of the contextual game?"""
    ctx = _checked(game, ctx)
    check_mask(game.n, X, "profile")
    pay = _ctx_pay(game, ctx)
    for i in bits(ctx.active):
        bit = 1 << i
        if X & bit:
            if pay(i, X) < pay(i, X & ~bit):
                return False
        else:
            if pay(i, X) < pay(i, X | bit):
                return False
    return True


def ne_set(game, ctx=None):
    """All pure Nash equilibria of the contextual game, by brute force over
    the game's incentive table (see ne_scan).

    Returned in (cardinality, lexicographic) order.
    """
    ctx = _checked(game, ctx)
    gainers, losers = incentive_table(game)
    return ne_scan(gainers, losers, ctx.active, ctx.ones)


def iterated_strict_elimination(players_mask, pay):
    """Iterated elimination of strictly dominated actions in a binary game.

    `pay(i, X)` gives i's payoff when exactly X (a submask of players_mask)
    plays 1.  Returns (least, greatest): per-player minimum and maximum
    surviving action encoded as coalition masks.  Reads every pay(i, X)
    once, compares the rows (compare_rows) and runs iesds_scan on the table.
    """
    rows = (
        (i, {X: pay(i, X) for X in submasks(players_mask)}) for i in bits(players_mask)
    )
    gainers, losers = compare_rows(rows, players_mask)
    return iesds_scan(gainers, losers, players_mask, 0)


def sss_set(game, ctx=None, require_ne=False):
    """Strictly sufficient sets of the contextual game.

    Nonempty X <= S whose members all strictly prefer joint action 1 over
    unilaterally staying out; intersected with the Nash set when require_ne
    (the equilibrium variant).  Ordered by (cardinality, lexicographic).
    Scans the game's incentive table; see sss_scan.
    """
    ctx = _checked(game, ctx)
    gainers, _ = incentive_table(game)
    return sss_scan(gainers, ctx.active, ctx.ones, require_ne)


# ---------------------------------------------------------------------------
# partitions (the asynchronous move schedule; also produced by digraph ops)


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint cells of players; the cell index is the move stage.
    A negative cell, or one that shares players with an earlier cell,
    raises FieldError("cells", its index)."""

    cells: tuple

    def __init__(self, cells):
        masks = tuple(int(c) for c in cells)
        seen = 0
        for idx, c in enumerate(masks):
            if c < 0:
                raise FieldError("cells", idx, f"cell mask {c} is negative")
            if c & seen:
                raise FieldError(
                    "cells", idx, f"players {list(members(c & seen))} are in an earlier cell"
                )
            seen |= c
        object.__setattr__(self, "cells", masks)

    @property
    def horizon(self):
        return len(self.cells)

    def union(self):
        m = 0
        for c in self.cells:
            m |= c
        return m

    def validate_cover(self, n):
        """Raise FieldError("cells", None) unless the cells hold exactly the
        players 0..n-1."""
        full = (1 << n) - 1
        union = self.union()
        missing = list(members(full & ~union))
        if missing:
            raise FieldError("cells", None, f"players {missing} are in no cell")
        if union != full:
            raise FieldError("cells", None, f"a cell holds a player outside 0..{n - 1}")
