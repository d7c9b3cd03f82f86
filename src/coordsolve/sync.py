"""Synchronous (monotone) game solver.

Computes, for a stage game under the package assumptions, the minimum number
of stages needed so that a target set plays 1 in every monotone subgame
perfect equilibrium (`min_horizon`), the least such equilibrium outcome per
horizon (`least_outcome`), the full outcome set per horizon (`outcome_set`),
and a replayable policy tree over three operations: dominate a player whose
action 1 became strictly dominant (free), force a player in at the cost of a
stage (delete), or split off a strictly sufficient set (divide).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .core import (
    Context,
    bits,
    full_context,
    iesds_scan,
    incentive_table,
    members,
    ne_scan,
    sorted_coalitions,
    sss_scan,
)
from .errors import PreconditionError


@dataclass(frozen=True)
class PolicyNode:
    """One step of the solved policy; replaying from its context reproduces
    `value`.  op is "dominate"/"delete" (one child), "divide" (two children:
    the split-off set with the same forced ones, then the remainder with the
    split forced in), or "stop" at the empty game."""

    op: str
    player: int | None
    split: int | None
    children: tuple
    value: int


@dataclass
class _Reduction:
    """One context after iterated strict dominance: the reduced context, the
    players forced to 1 and those forced to 0, and the context's per-player
    horizons once `SyncSolver.horizons` has computed them."""

    reduced: Context
    forced: int
    dropped: int
    taus: MappingProxyType | None = None


class SyncSolver:
    """Solver instance for one stage game; caches subgame values.

    The game is compiled once into its incentive table (`gainers`, `losers`;
    see core.incentive_table), and the candidate, dominance and Nash scans
    read only that.  Degenerate players (strictly dominant actions, iterated)
    are stripped first and folded into the base context: forced ones join
    the forced set, forced zeros leave the game.  A solver instance is not
    thread-safe, but distinct instances are independent.
    """

    def __init__(self, game, use_sse=True):
        self.game = game
        self.use_sse = use_sse
        self.gainers, self.losers = incentive_table(game)
        self._memo = {}
        self._sss_cache = {}
        self._reduce_cache = {}
        top = self._reduce()
        self.base, self.forced_one, self.dropped = top.reduced, top.forced, top.dropped

    # -- context plumbing ---------------------------------------------------

    def _reduce(self, ctx=None):
        """Strip iterated strictly dominant actions from a context (the full
        game by default); one cached _Reduction per context."""
        ctx = ctx or full_context(self.game)
        key = (ctx.active, ctx.ones)
        got = self._reduce_cache.get(key)
        if got is None:
            least, greatest = iesds_scan(self.gainers, self.losers, ctx.active, ctx.ones)
            reduced = Context(ctx.active & greatest & ~least, ctx.ones | least)
            got = _Reduction(reduced, least, ctx.active & ~greatest)
            self._reduce_cache[key] = got
        return got

    def _candidates(self, S, O):
        key = (S, O)
        got = self._sss_cache.get(key)
        if got is None:
            got = sss_scan(self.gainers, S, O, self.use_sse)
            self._sss_cache[key] = got
        return got

    # -- the recursion ------------------------------------------------------

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

    def policy(self):
        """Policy tree for the (reduced) full game."""
        return self.value(self.base.active, self.base.ones)

    # -- public operators ---------------------------------------------------

    def min_horizon(self, targets, ctx=None):
        """Smallest horizon T such that every monotone-SPNE outcome of the
        T-stage game (in the given context) contains `targets`."""
        r = self._reduce(ctx)
        if targets & r.dropped:
            bad = members(targets & r.dropped)
            raise PreconditionError(
                f"players {bad} have a strictly dominated action 1; "
                "no horizon brings them in"
            )
        return self._min_horizon_reduced(targets, r.reduced)

    def _min_horizon_reduced(self, targets, reduced):
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

    def horizons(self, ctx=None):
        """{i: tau_i} over the context's active players (the full game by
        default): the singleton horizon of each, 1 for a player forced in by
        iterated dominance, None for one whose action 1 is iteratively
        dominated.  Computed once per context; the mapping is read-only."""
        r = self._reduce(ctx)
        if r.taus is None:
            r.taus = MappingProxyType({
                i: None
                if r.dropped >> i & 1
                else self._min_horizon_reduced(1 << i, r.reduced)
                for i in bits(r.reduced.active | r.forced | r.dropped)
            })
        return r.taus

    def least_outcome(self, T, ctx=None):
        """Players taking action 1 in every monotone-SPNE of the T-stage game:
        the least equilibrium outcome, forced | {i : tau_i <= T}."""
        out = self._reduce(ctx).forced
        for i, tau in self.horizons(ctx).items():
            if tau is not None and tau <= T:
                out |= 1 << i
        return out

    def outcome_set(self, T):
        """All monotone-SPNE outcomes at horizon T: Nash outcomes whose
        residual game forces nobody in within the remaining T stages."""
        res = []
        S, O = self.base.active, self.base.ones
        for X in ne_scan(self.gainers, self.losers, S, O):
            residual = Context(S & ~X, O | X)
            if self.least_outcome(T, ctx=residual) == 0:
                res.append(O | X)
        return sorted_coalitions(res)
