"""Ground-truth brute force for tiny dynamic games.

Outcome sets are computed from first principles, independent of the solver
recursions: MSPNE enumeration walks every monotone, irreversibility-respecting
strategy profile stage-by-stage from the back (joint stage maps assembled over
the history poset, one-shot deviations rejected as soon as a stage map is
fixed).  A stage's maps depend on the later stages only through the
continuation, the final outcome each next-stage history leads to, so each
stage is enumerated once per distinct continuation and its outcome set is
memoised on it; raw payoffs are still read for every such enumeration.  SPNE
outcome sets use the exact subgame value-set recursion, where a candidate
stage profile is supportable iff each unilateral deviation can be punished by
some equilibrium value of the deviation subgame.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .core import Context, Partition, bits, members, submasks
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


def _leq_history(h1, h2):
    """Componentwise profile order on same-stage histories."""
    return all(a & ~b == 0 for a, b in zip(h1, h2))


def _sorted_with_predecessors(histories):
    """Linear extension plus, per history, the indices of earlier histories
    it dominates (for monotone-map pruning)."""
    order = sorted(histories, key=lambda h: (sum(m.bit_count() for m in h), h))
    preds = []
    for idx, h in enumerate(order):
        below = [j for j in range(idx) if _leq_history(order[j], h)]
        preds.append(below)
    return order, preds


class _Budget:
    def __init__(self, cap):
        self.cap = cap
        self.used = 0

    def spend(self, k=1):
        self.used += k
        if self.used > self.cap:
            charge(self.used, self.cap, f"oracle enumeration exceeded {self.cap} steps")

    def spend_posets(self, sizes):
        """Spend, stage by stage and before any history is built, each
        stage's history count H and the H(H-1)/2 pairs that
        _sorted_with_predecessors compares."""
        for h in sizes:
            self.spend(h * (h + 1) // 2)


# ---------------------------------------------------------------------------
# MSPNE: literal enumeration of monotone profiles, stage-layered


def _monotone_selections(preds, options, budget):
    """All monotone assignments history -> action profile, as tuples over the
    histories in linear-extension order.  options[idx] lists history idx's
    admissible profiles and preds[idx] the earlier histories it dominates; a
    profile is allowed iff it contains every profile chosen below it.  Each
    node of the search spends one budget step per option it examines."""
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
            for j in preds[idx]:
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


def _mspne_outcomes(game, stages, moves_of, value_terminal, budget):
    """Common MSPNE engine over precomputed history stages.

    moves_of(t, h) yields legal stage-t action profiles at history h, with the
    players who move there; value_terminal(h, a) is the final outcome of
    choosing a at the last stage.  A continuation is the tuple of final
    outcomes, one per stage-(t+1) history in linear-extension order (per
    last-stage move for t = T-1); the outcome set of stage t under a
    continuation is solved once per call and memoised on (t, continuation).
    """
    pay = game._payoff
    T = len(stages)

    # layers[t] = (preds, moves): moves[idx] lists (a, src, deviations) for
    # history idx, where src and each deviation's index pick the outcome of
    # playing a (resp. a with one mover's bit flipped) out of the continuation.
    layers = [None] * T
    terminal = []  # the last stage's continuation, one outcome per move
    nxt_pos = None
    for t in reversed(range(T)):
        order, preds = _sorted_with_predecessors(stages[t])
        moves = []
        for h in order:
            legal = list(moves_of(t, h))
            if t == T - 1:
                src = {}
                for a, _ in legal:
                    src[a] = len(terminal)
                    terminal.append(value_terminal(h, a))
            else:
                src = {a: nxt_pos[h + (a,)] for a, _ in legal}
            moves.append(
                [(a, src[a], [(i, src[a ^ (1 << i)]) for i in bits(movers)])
                 for a, movers in legal]
            )
        layers[t] = (preds, moves)
        nxt_pos = {h: idx for idx, h in enumerate(order)}

    memo = {}

    def run(t, w):
        preds, moves = layers[t]
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
        for sel in _monotone_selections(preds, actions, budget):
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


def _mspne_sync(game, T, budget):
    full = game.all_players
    # stage t (from 1) has t^n histories: each player joined at one of the
    # t - 1 earlier stages, or not yet
    budget.spend_posets(t**game.n for t in range(1, T + 1))
    stages = _sync_histories(game.n, T)

    def moves_of(t, h):
        last = h[-1] if h else 0
        for sub in submasks(full & ~last):
            yield last | sub, full & ~last

    def terminal(h, a):
        return a

    return _mspne_outcomes(game, stages, moves_of, terminal, budget)


def _mspne_async(game, p, budget):
    cells = p.cells
    # stage t has one history per move of the earlier cells
    earlier = accumulate((c.bit_count() for c in cells[:-1]), initial=0)
    budget.spend_posets(1 << k for k in earlier)
    stages = _async_histories(cells)

    def moves_of(t, h):
        for sub in submasks(cells[t]):
            yield sub, cells[t]

    def terminal(h, a):
        out = a
        for m in h:
            out |= m
        return out

    return _mspne_outcomes(game, stages, moves_of, terminal, budget)


# ---------------------------------------------------------------------------
# SPNE: exact value-set recursion (selections at distinct subgames are
# independent, so a deviation is deterred iff SOME continuation punishes it)


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


# ---------------------------------------------------------------------------
# public API


def enumerate_equilibria(game, schedule, mode="mspne", budget=DEFAULT_BUDGET):
    """Exhaustively enumerate pure-strategy equilibrium outcomes.

    mode "mspne" walks every monotone profile (one-shot deviations checked at
    every history, on-path or not), stage by stage from the back; the profiles
    of a stage are enumerated once per distinct continuation (the final
    outcome each history of the next stage leads to), not once per later
    profile that yields it.  mode "spne" drops the monotonicity restriction and computes the
    outcome set by the value-set recursion.  Returns the set of terminal
    coalition masks.

    `budget` (errors.DEFAULT_BUDGET, the CLI's default too) caps the steps
    spent.  For "mspne", each stage's history poset is paid for before any
    of it is built: its H histories and the H(H-1)/2 pairs ordered to find
    each history's predecessors.  Then every option examined at a node of a
    stage's monotone-selection search, at each distinct continuation, costs
    one step.  For "spne", every candidate stage profile of each distinct
    subgame costs one step.  Exceeding the budget raises ResourceLimitError.
    """
    mode = mode.lower()
    steps = _Budget(budget)
    if isinstance(schedule, Sync):
        if schedule.T < 1:
            raise ValueError("horizon must be positive")
        if mode == "mspne":
            return _mspne_sync(game, schedule.T, steps)
        if mode == "spne":
            full = game.all_players
            return _spne(game, schedule.T, lambda t, state: full & ~state, steps)
    elif isinstance(schedule, Async):
        p = schedule.partition
        p.validate_cover(game.n)
        if mode == "mspne":
            return _mspne_async(game, p, steps)
        if mode == "spne":
            return _spne(game, p.horizon, lambda t, state: p.cells[t], steps)
    else:
        raise ValueError("schedule must be Sync(T) or Async(partition)")
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
    stages = _sync_histories(game.n, T)

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
