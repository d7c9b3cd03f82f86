"""Ground-truth brute force for tiny dynamic games.

Both schedules are one model: the players who may move at each stage
(everyone at every Sync stage, cell t at Async stage t), where a stage-t
history is each player's entry stage, the stage where it first played 1,
or t if it has not yet.  MSPNE enumeration walks every monotone strategy
profile stage by stage from the back, over each stage's history poset
kept as its cover relation, rejecting one-shot deviations as soon as a
stage map is fixed, having paid for everything each stage builds first.
Each stage is enumerated once per distinct continuation (the final outcome
each next-stage history leads to), memoised on it, on an explicit stack; a
profile is not tried where one inside it with the same outcome is allowed.
SPNE outcome sets are the exact subgame value sets, solved stage by stage
from the back.  Each call reads every player's raw payoffs once and
compares them as exact ints (core.int_row); nothing here reads the
incentive table or payoff_row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, product, repeat
from math import prod
from operator import or_
from typing import NamedTuple

from .core import Context, Partition, bits, int_row, members, submasks
from .errors import DEFAULT_BUDGET, PreconditionError, charge
from .sync import SyncSolver


class Sync(NamedTuple):
    """Synchronous schedule: T simultaneous stages, irreversible upgrades."""

    T: int


class Async(NamedTuple):
    """Asynchronous schedule: cells move once each, in order."""

    partition: Partition


# ---------------------------------------------------------------------------
# schedules as the players who may move at each stage, and histories as each
# player's entry stage


def _runs(game, schedule):
    """The players who may move at each stage, as (movers, stages) runs:
    everyone at each of Sync's T stages, cell t at Async's stage t."""
    if isinstance(schedule, Sync):
        if schedule.T < 1:
            raise ValueError("horizon must be positive")
        return [(game.all_players, schedule.T)]
    if isinstance(schedule, Async):
        schedule.partition.validate_cover(game.n)
        return [(cell, 1) for cell in schedule.partition.cells]
    raise ValueError("schedule must be Sync(T) or Async(partition)")


def _stages(runs):
    """The movers of each stage, one stage at a time."""
    return chain.from_iterable(repeat(m, k) for m, k in runs)


def _int_rows(game):
    """Each player's raw payoff at every profile, read once, as ints."""
    pay = game._payoff
    return [int_row([pay(i, M) for M in range(1 << game.n)]) for i in range(game.n)]


def _chances(n, movers, t):
    """Per player, the stages before t at which it may move, then t: the
    entry stages a stage-t history can give it."""
    return [[s for s in range(t) if movers[s] >> i & 1] + [t] for i in range(n)]


def _entered(e, t):
    """The players who have played 1 at stage-t history e."""
    return sum([1 << i for i, s in enumerate(e) if s < t])


def _after(e, a, t):
    """The stage-(t+1) history after profile a at stage-t history e."""
    return tuple([s if s < t else t if a >> i & 1 else t + 1 for i, s in enumerate(e)])


def _sorted_with_predecessors(n, movers, t):
    """Stage t's histories in linear-extension order (by 1-actions played,
    then by who enters at each stage, the earliest stage first), plus, per
    history, the indices of the histories it covers: the same history with
    one player's entry moved to its next chance to move, or to t if there
    is none.  The componentwise order (no player enters earlier) is the
    transitive closure of these covers, so a floor built along them is the
    floor of every history below."""
    chances = _chances(n, movers, t)
    # A history's key is the sum of its players' weights: from entry stage
    # s, the 1-actions played since, above the player's bit in the n-bit
    # field of stage s.  Keys are distinct, and histories are listed in
    # product order, where the next chance of player i is `stride[i]` on.
    weights = [
        [(len(c) - 1 - j) << n * t | 1 << i + n * (t - 1 - s) for j, s in enumerate(c[:-1])] + [0]
        for i, c in enumerate(chances)
    ]
    stride = [prod(map(len, chances[i + 1 :])) for i in range(n)]
    hs = list(product(*chances))
    rank = [r for _, r in sorted(zip(map(sum, product(*weights)), range(len(hs))))]
    pos = [0] * len(hs)
    for idx, r in enumerate(rank):
        pos[r] = idx
    order = [hs[r] for r in rank]
    covers = [[pos[r + d] for d, s in zip(stride, hs[r]) if s < t] for r in rank]
    return order, covers


def _build_cost(counts, m):
    """What MSPNE builds at a stage where player i could have moved at
    counts[i] earlier stages and the players of m may move: n entries per
    history, one cover per player who has entered, the stage profiles, and
    one deviation per profile for each player still free to enter."""
    held = prod(c + 1 for c in counts)
    ways = [c + 1 + (m >> i & 1) for i, c in enumerate(counts)]
    profiles = prod(ways)
    return (
        len(counts) * held
        + sum(c * (held // (c + 1)) for c in counts)
        + profiles
        + sum(2 * profiles // ways[i] for i in bits(m))
    )


def _spne_cost(n, runs):
    """SPNE's whole charge: n 2^n payoff reads, and one step per candidate
    stage profile of every reachable subgame.  A player has three at a
    stage where it may have entered already and moves (entered; or not,
    then enters or not), two where only one of those holds, one else."""
    cost, earlier = n << n, 0
    for m, k in runs:  # the run's first stage, then its k - 1 others
        for stages, before in ((1, earlier), (k - 1, earlier | m)):
            cost += stages * 2 ** (before ^ m).bit_count() * 3 ** (before & m).bit_count()
        earlier |= m
    return cost


class _Budget:
    def __init__(self, cap):
        self.cap = cap
        self.used = 0

    def spend(self, k=1):
        self.used += k
        if self.used > self.cap:
            charge(self.used, self.cap, f"oracle enumeration exceeded {self.cap} steps")


# ---------------------------------------------------------------------------
# MSPNE: literal enumeration of monotone profiles, stage-layered


def _monotone_selections(covers, options, values, budget):
    """The continuations of every monotone assignment history -> action
    profile, over the histories in linear-extension order.  options[idx]
    lists history idx's admissible profiles in ascending order, values[idx]
    maps each to its final outcome, and covers[idx] lists the earlier
    histories it covers; a profile is allowed iff it contains every profile
    chosen at a cover (the floor), and so, inductively, every profile chosen
    below it.

    Yields one list, updated in place, of the outcomes chosen per history.
    Two kinds of option are skipped, without changing the set of lists
    yielded.  An allowed profile a with an allowed twin, a profile strictly
    inside a with the same outcome: every completion after a is a completion
    after the twin, since later floors only shrink, and yields the same list.
    And at the last history, which nothing covers, a second option with an
    outcome already tried.  In ascending order the first allowed option has
    no allowed twin, so a history's twins are looked up only when the search
    comes back to it and finds a second allowed option.  Each node of the
    search spends one budget step per option it examines, skipped ones
    included."""
    n = len(options)
    last = n - 1
    chosen = [0] * n
    picked = [0] * n
    floors = [0] * n
    pending = [None] * n
    twins = [None] * n
    spend = budget.spend
    idx = 0
    while idx >= 0:
        it = pending[idx]
        if it is None:
            opts = options[idx]
            spend(len(opts))
            floor = 0
            for j in covers[idx]:
                floor |= chosen[j]
            if idx == last:
                vals = values[idx]
                for v in {vals[a] for a in opts if floor & ~a == 0}:
                    picked[idx] = v
                    yield picked
                idx -= 1
                continue
            floors[idx] = floor
            it = pending[idx] = iter([a for a in opts if floor & ~a == 0])
            a = next(it, None)
        else:
            for a in it:
                tw = twins[idx]
                if tw is None:
                    tw = twins[idx] = _twins(options[idx], values[idx])
                below = tw.get(a)
                if below is None or all(floors[idx] & ~b for b in below):
                    break
            else:
                a = None
        if a is None:
            pending[idx] = None
            idx -= 1
        else:
            chosen[idx] = a
            picked[idx] = values[idx][a]
            idx += 1


def _twins(options, values):
    """For each option with any, the options strictly inside it with the
    same outcome (options ascending, so an option's subsets come first)."""
    twins = {}
    same = {}
    for a in options:
        seen = same.setdefault(values[a], [])
        below = [b for b in seen if b & ~a == 0]
        if below:
            twins[a] = below
        seen.append(a)
    return twins


def _stage_options(moves, w):
    """Per history, the admissible stage profiles under continuation w (no
    mover gains by flipping its own bit) and their final outcomes; None if
    some history has none."""
    options, values = [], []
    for hist in moves:
        acts = []
        vals = {}
        for a, src, devs in hist:
            v = w[src]
            for u, d in devs:
                if u[v] < u[w[d]]:
                    break
            else:
                acts.append(a)
                vals[a] = v
        if not acts:
            return None
        options.append(acts)
        values.append(vals)
    return options, values


def _mspne_outcomes(game, movers, budget):
    """Common MSPNE engine over the stages' movers.

    At stage-t history e the stage profiles are (entered & movers[t]) | sub
    for each sub of the movers still free to enter; choosing a at the last
    stage ends the game at entered | a.  A continuation is the tuple of
    final outcomes, one per stage-(t+1) history in linear-extension order
    (per last-stage profile for t = T-1); the outcome set of stage t under
    a continuation is memoised on (t, continuation).  The continuations
    are walked depth first on an explicit stack, one frame per stage being
    searched.
    """
    n = game.n
    rows = _int_rows(game)
    T = len(movers)

    # layers[t] = (covers, moves): moves[idx] lists (a, src, deviations) for
    # history idx, where src picks the outcome of playing a out of the
    # continuation, and each deviation (u, d) a free mover's int payoff row
    # and the index of the outcome of playing a with that mover's bit flipped.
    layers = [None] * T
    terminal = []  # the last stage's continuation, one outcome per profile
    nxt_pos = None
    flips = {}  # free movers -> (int payoff row, bit) per mover
    for t in reversed(range(T)):
        order, covers = _sorted_with_predecessors(n, movers, t)
        m = movers[t]
        moves = []
        for e in order:
            entered = _entered(e, t)
            free = m & ~entered
            legal = [(entered & m) | sub for sub in submasks(free)]
            legal.reverse()  # ascending, as _monotone_selections takes them
            if t == T - 1:
                src = {}
                for a in legal:
                    src[a] = len(terminal)
                    terminal.append(entered | a)
            else:
                src = {a: nxt_pos[_after(e, a, t)] for a in legal}
            pairs = flips.get(free)
            if pairs is None:
                pairs = flips[free] = [(rows[i], 1 << i) for i in bits(free)]
            moves.append([(a, src[a], [(u, src[a ^ b]) for u, b in pairs]) for a in legal])
        layers[t] = (covers, moves)
        nxt_pos = {e: idx for idx, e in enumerate(order)}

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
        return t, w, _monotone_selections(covers, options, values, budget), set(), ceiling

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


# ---------------------------------------------------------------------------
# SPNE: exact value sets, stage by stage from the back (selections at distinct
# subgames are independent, so a deviation is deterred iff SOME continuation
# punishes it)


def _spne(game, movers):
    """SPNE outcomes over the stages' movers.  Stage t (0-based) can reach
    the submasks of the players who could move before it; from committed
    profile `state` it moves to state | sub for each sub of movers[t] still
    at 0.  The stages are solved from the last to the first, each from the
    next one's value sets alone; the caller has paid for the payoff reads
    and for every candidate stage profile of every reachable state."""
    rows = _int_rows(game)
    reach = list(accumulate(movers, or_, initial=0))
    nxt = {s: (s,) for s in submasks(reach[-1])}
    for t in reversed(range(len(movers))):
        cur = {}
        for state in submasks(reach[t]):
            res = cur[state] = set()
            free = movers[t] & ~state
            pairs = [(rows[i], 1 << i) for i in bits(free)]
            for sub in submasks(free):
                a = state | sub
                floors = [(u, min(u[w] for w in nxt[a ^ b])) for u, b in pairs]
                res.update(v for v in nxt[a] if all(u[v] >= f for u, f in floors))
        # A pure SPNE must induce one on every subgame, including those
        # reached only by multi-player deviations; if any is empty, none
        # exists at all.  So every value set read above is non-empty.
        if t and not all(cur.values()):
            return set()
        nxt = cur
    return nxt[0]


# ---------------------------------------------------------------------------
# public API


def enumerate_equilibria(game, schedule, mode="mspne", budget=DEFAULT_BUDGET):
    """Exhaustively enumerate pure-strategy equilibrium outcomes.

    The schedule becomes the players who may move at each stage: everyone
    at each of Sync(T)'s T stages, cell t at Async's stage t.  mode "mspne"
    walks every monotone profile (one-shot deviations checked at every
    history, on-path or not), stage by stage from the back, once per
    distinct continuation of each stage; mode "spne" drops monotonicity and
    solves the value set of every reachable subgame.  Returns the set of
    terminal coalition masks.

    `budget` (errors.DEFAULT_BUDGET, the CLI's default too) caps the steps
    spent.  For "mspne", each stage's build is paid for, stage by stage,
    before any history is built.  With c_i the earlier stages at which
    player i could have moved and w_i = c_i + 1 + [i moves now], a stage
    builds H = prod (c_i + 1) histories of n entries, sum c_i H / (c_i + 1)
    covers, prod w_i stage profiles and, for each player i who moves,
    2 prod w_i / w_i one-shot deviations: one step each.  A long horizon is
    refused at the first stage that exceeds the budget.  Then each option
    examined at a node of a stage's monotone-selection search costs one
    step; skipping an option that only repeats a continuation saves the
    nodes below it, not its own step.  The n 2^n payoff reads are not
    charged apart: a stage where all n players first move charges
    (n+1) 2^n.  "spne" pays everything before it reads a payoff: n 2^n
    reads and, per stage, one step per candidate stage profile of every
    reachable subgame, the product over players of 1 + [i may have entered
    already] + [i moves now].  Exceeding the budget raises
    ResourceLimitError.
    """
    mode = mode.lower()
    runs = _runs(game, schedule)
    steps = _Budget(budget)
    if mode == "mspne":
        movers = []
        counts = [0] * game.n
        for m in _stages(runs):
            steps.spend(_build_cost(counts, m))
            movers.append(m)
            for i in bits(m):
                counts[i] += 1
        return _mspne_outcomes(game, movers, steps)
    if mode == "spne":
        steps.spend(_spne_cost(game.n, runs))
        return _spne(game, list(_stages(runs)))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# the conservative witness profile


@dataclass
class StrategyProfile:
    """Joint pure strategy for a T-stage game, stored as one action-profile
    mask per (reachable or not) history: moves[t] maps each stage-t history,
    a tuple of entry stages, to its profile.  Replaying from the stage-0
    history gives `outcome`."""

    T: int
    moves: list
    outcome: int

    def replay(self):
        (e,) = self.moves[0]
        for t, stage in enumerate(self.moves):
            e = _after(e, stage[e], t)
        return _entered(e, self.T)


def _verify_mspne(game, movers, profile):
    """Irreversibility, monotonicity (against the histories each history
    covers, whose transitive closure is the stage's order) and one-shot
    deviations at every history, from the last stage to the first, each
    read off the final outcome of every next-stage history."""
    n = game.n
    rows = _int_rows(game)
    value = None  # the final outcome of each stage-(t+1) history
    for t in reversed(range(len(movers))):
        order, covers = _sorted_with_predecessors(n, movers, t)
        m = movers[t]
        stage = profile.moves[t]
        cur = {}
        for e, below in zip(order, covers):
            ma = stage[e]
            entered = _entered(e, t)
            if entered & m & ~ma:
                return False, f"irreversibility violated at stage {t}, history {e}"
            for j in below:
                if stage[order[j]] & ~ma:
                    return False, f"monotonicity violated at stage {t}, between {order[j]} and {e}"

            def final(a):
                return entered | a if value is None else value[_after(e, a, t)]

            base = cur[e] = final(ma)
            for i in bits(m & ~entered):
                if rows[i][final(ma ^ 1 << i)] > rows[i][base]:
                    return False, f"player {i} deviates at stage {t}, history {e}"
        value = cur
    return True, ""


def support_strategy(game, T, X, solver=None):
    """The conservative monotone witness carrying outcome X at horizon T.

    Nobody pledges; mid-game moves only echo earlier pledges; the final move
    plays X plus whatever the accumulated pledges force in (the least outcome
    of the residual game at the remaining horizon).  The profile is verified
    to be a monotone equilibrium by one-shot deviation before it is returned.
    """
    solver = solver or SyncSolver(game)
    if X not in set(solver.outcome_set(T)):
        raise PreconditionError(f"{members(X)} is not an achievable outcome at T={T}")
    n = game.n
    full = game.all_players
    movers = [full] * T
    if X == full:
        moves = [dict.fromkeys(product(*_chances(n, movers, t)), full) for t in range(T)]
        profile = StrategyProfile(T=T, moves=moves, outcome=full)
    else:
        moves = []
        forced = {(0,) * n: X}
        for t in range(T):
            hs = list(product(*_chances(n, movers, t)))
            if t:
                prev, forced = forced, {}
                for e in hs:
                    # extends the stage-(t-1) history where t-1 entrants had not yet
                    locked = prev[tuple([min(s, t - 1) for s in e])] | _entered(e, t)
                    ctx = Context(full & ~locked, locked)
                    forced[e] = locked | solver.least_outcome(T - t, ctx=ctx)
            if t < T - 1:
                moves.append({e: _entered(e, t) for e in hs})
            else:
                moves.append({e: X | forced[e] for e in hs})
        profile = StrategyProfile(T=T, moves=moves, outcome=0)
        profile.outcome = profile.replay()
        if profile.outcome != X:
            raise RuntimeError(
                f"conservative profile realises {members(profile.outcome)} "
                f"instead of {members(X)}; solver inconsistency"
            )
    ok, why = _verify_mspne(game, movers, profile)
    if not ok:
        raise RuntimeError(f"conservative profile fails verification: {why}")
    return profile
