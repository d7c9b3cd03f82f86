"""Synchronous (monotone) game solver.

Computes, for a stage game under the package assumptions, the minimum number
of stages needed so that a target set plays 1 in every monotone subgame
perfect equilibrium (`min_horizon`), the least such equilibrium outcome per
horizon (`least_outcome`), the full outcome set per horizon (`outcome_set`),
and a replayable policy tree over three operations: dominate a player whose
action 1 became strictly dominant (free), force a player in at the cost of a
stage (delete), or split off a strictly sufficient set (divide).

The recursion memoises only each context's value, an int.  Policy trees are
rebuilt on demand from those values: each node reruns its own scan and
recurses into the children it chose, so a `policy()` call costs O(n) node
scans.
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
    the forced set, forced zeros leave the game.  Subgame values live in an
    int memo (`_memo`, keyed by context); policy trees are not stored but
    rebuilt on demand by `value` and `policy`.  A solver instance is not
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

    def _tau(self, S, O):
        """Minimum number of stages to reach all-ones in the auxiliary game
        (S active, O forced to 1), memoised as an int per context.  Every
        reachable context keeps all active players strictly willing at the
        top profile, so the recursion never meets a strictly dominated
        action 0."""
        key = (S, O)
        got = self._memo.get(key)
        if got is None:
            # dominate, for free, the lowest active player who strictly
            # gains already when just O plays 1; repeat
            gainers = self.gainers
            while willing := S & gainers[O]:
                low = willing & -willing
                S ^= low
                O |= low
            got = self._scan(S, O)[0] if S else 1
            self._memo[key] = got
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

    def value(self, S, O):
        """The solved policy of context (S, O) as a PolicyNode tree; its
        root value is `_tau(S, O)`.  Only the int values are memoised: each
        call rebuilds the tree, rerunning each node's scan over the memo and
        recursing into the children it chose, so it costs one scan per node
        (O(n) nodes, as every step removes a player or splits the set)."""
        # the free dominate steps, as in _tau
        gainers = self.gainers
        chain = []
        while willing := S & gainers[O]:
            low = willing & -willing
            chain.append(low.bit_length() - 1)
            S ^= low
            O |= low

        if S == 0:
            node = PolicyNode("stop", None, None, (), 1)
        else:
            v, op, arg = self._scan(S, O)
            if op == "divide":
                children = (self.value(arg, O), self.value(S & ~arg, O | arg))
                node = PolicyNode("divide", None, arg, children, v)
            else:
                b = 1 << arg
                node = PolicyNode("delete", arg, None, (self.value(S & ~b, O | b),), v)
        for i in reversed(chain):
            node = PolicyNode("dominate", i, None, (node,), node.value)
        return node

    def policy(self):
        """Policy tree for the (reduced) full game, rebuilt from the int
        memo on each call (see value)."""
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
