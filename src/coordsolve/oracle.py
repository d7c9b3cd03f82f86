"""Ground-truth brute force for tiny dynamic games.

Outcome sets are computed from first principles, independent of the solver
recursions: MSPNE enumeration walks every monotone, irreversibility-respecting
strategy profile stage-by-stage from the back (joint stage maps assembled over
the history poset, kept as its cover relation, one-shot deviations rejected
as soon as a stage map is fixed), having paid for everything each stage
builds before building any history.  A stage's maps depend on the later
stages only through the continuation, the final outcome each next-stage
history leads to, so each stage is enumerated once per distinct continuation
and its outcome set is memoised on it, on an explicit stack rather than one
Python frame per stage.  Within a stage, a profile is not tried where a
profile inside it with the same outcome is allowed: it could only repeat a
continuation.  Each MSPNE call reads every player's raw payoff once per
profile and compares them as exact ints (core.int_row).  Nothing here reads
the incentive table or a family's payoff rows.  SPNE outcome sets are the exact subgame
value sets, solved stage by stage from the back, where a candidate stage
profile is supportable iff each unilateral deviation can be punished by some
equilibrium value of the deviation subgame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
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
# history plumbing


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


def _sorted_with_predecessors(histories):
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


def _mspne_outcomes(game, stages, moves_of, budget):
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
        order, covers = _sorted_with_predecessors(stages[t])
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


def _spne(game, T, moves_of, reach):
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


# ---------------------------------------------------------------------------
# public API


def enumerate_equilibria(game, schedule, mode="mspne", budget=DEFAULT_BUDGET):
    """Exhaustively enumerate pure-strategy equilibrium outcomes.

    mode "mspne" walks every monotone profile (one-shot deviations checked at
    every history, on-path or not), stage by stage from the back; the profiles
    of a stage are enumerated once per distinct continuation (the final
    outcome each history of the next stage leads to), not once per later
    profile that yields it, and a stage profile is not tried where one
    inside it with the same outcome is allowed.  mode "spne" drops the
    monotonicity restriction and solves the value set of every reachable
    subgame, stage by stage from the back.  Returns the set of terminal
    coalition masks.

    `budget` (errors.DEFAULT_BUDGET, the CLI's default too) caps the steps
    spent.  For "mspne", each stage's build is paid for, stage by stage,
    before any history is built: one step per history slot (a stage-s
    history holds s moves), per cover, per stage move and per one-shot
    deviation of a move.  For Sync(T), stage s (0-based) costs
    s (s+1)^n + n s (s+1)^(n-1) + (s+2)^n + 2n (s+2)^(n-1); for Async, a
    stage with m earlier movers and a cell of k players costs
    s 2^m + m 2^(m-1) + 2^(m+k) + k 2^(m+k).  The stages are charged
    lazily, so a long horizon is refused at the first stage that exceeds
    the budget.  Then every option examined at a node of a stage's
    monotone-selection search, at each distinct continuation, costs one
    step.  An option skipped there (one that only repeats a continuation)
    still costs its step at the node that examines it; the skip saves the
    nodes below it, so fewer nodes mean fewer steps.  For "spne", every
    candidate stage profile of every reachable subgame costs one step, all
    paid before any is solved: 2^n + (T-1) 3^n for Sync(T), and the sum over
    stages t of 2^(|earlier cells| + |cell t|) for Async.  Exceeding the
    budget raises ResourceLimitError.  "mspne" reads each player's payoff
    once per profile, n 2^n reads that are not charged apart: Sync's stage 0
    alone charges (n+1) 2^n, and an Async schedule's last stage 2^n moves
    and k 2^n deviations.
    """
    mode = mode.lower()
    if isinstance(schedule, Sync):
        T = schedule.T
        if T < 1:
            raise ValueError("horizon must be positive")
        n = game.n
        full = game.all_players
        moves_of = _sync_moves(full)
        # stage s has (s+1)^n histories of s moves (each player joined at one
        # of the s earlier stages, or not yet) with one cover per joined
        # player, and (s+2)^n moves (histories one stage longer) with one
        # deviation per player still at 0, who joins now or not
        builds = (
            s * (s + 1) ** (n - 1) * (s + 1 + n) + (s + 2) ** (n - 1) * (s + 2 + 2 * n)
            for s in range(T)
        )
        # stage 0 starts from the empty profile, every later stage from any
        spne_cost = (1 << n) + (T - 1) * 3**n

        def reach(t):
            return full if t else 0

    elif isinstance(schedule, Async):
        p = schedule.partition
        p.validate_cover(game.n)
        T = p.horizon
        moves_of = _async_moves(p.cells)
        # stage s has one history, and one state, per move of the m earlier
        # movers, one cover per earlier mover who played 1, 2^k moves of its
        # k-player cell per history, and k deviations per move
        earlier = list(accumulate(p.cells, or_, initial=0))
        sizes = [(e.bit_count(), c.bit_count()) for e, c in zip(earlier, p.cells)]
        builds = (
            s * 2**m + m * 2**m // 2 + (1 + k) * 2 ** (m + k) for s, (m, k) in enumerate(sizes)
        )
        spne_cost = sum(1 << e.bit_count() for e in earlier[1:])
        reach = earlier.__getitem__
    else:
        raise ValueError("schedule must be Sync(T) or Async(partition)")
    steps = _Budget(budget)
    if mode == "mspne":
        for cost in builds:
            steps.spend(cost)
        return _mspne_outcomes(game, _histories(T, moves_of), moves_of, steps)
    if mode == "spne":
        steps.spend(spne_cost)
        return _spne(game, T, moves_of, reach)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# the conservative witness profile


@dataclass
class StrategyProfile:
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


def _verify_mspne(game, T, profile):
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
        order, covers = _sorted_with_predecessors(hs)
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
    full = game.all_players
    moves = {}
    stages = _histories(T, _sync_moves(full))

    if X == full:
        for t in range(T):
            for h in stages[t]:
                moves[h] = full
        profile = StrategyProfile(T=T, moves=moves, outcome=full)
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
        profile = StrategyProfile(T=T, moves=moves, outcome=0)
        profile.outcome = profile.replay()
        if profile.outcome != X:
            raise RuntimeError(
                f"conservative profile realises {members(profile.outcome)} "
                f"instead of {members(X)}; solver inconsistency"
            )
    ok, why = _verify_mspne(game, T, profile)
    if not ok:
        raise RuntimeError(f"conservative profile fails verification: {why}")
    return profile
