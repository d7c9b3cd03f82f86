"""Synchronous (monotone) game solver.

Computes, for a stage game under the package assumptions, the minimum number
of stages needed so that a target set plays 1 in every monotone subgame
perfect equilibrium (`min_horizon`), the least such equilibrium outcome per
horizon (`least_outcome`), the full outcome set per horizon (`outcome_set`),
and a replayable policy tree over three operations: dominate a player whose
action 1 became strictly dominant (free), force a player in at the cost of a
stage (delete), or split off a strictly sufficient set (divide).

The recursion asks with a limit, as digraph.TreeDepth does: below it a
settled context's value (core.settle) is exact and memoised as an int,
at or above it the answer is a lower bound, kept in a second dict.  A
scan lowers its cap to each new best, so a branch that cannot beat the
best so far is only bounded.  A context is scanned again only when it is
asked with a limit above its bound.  Each context's candidate list is
built once per solver and kept by the one method that builds it
(SyncSolver._candidates), so a rescan, a horizon query, a policy rebuild
and the Nash listing all read the same list.  Policy trees are rebuilt on
demand from the ints: each node reruns its own scan over the kept lists
and the int memo and recurses into the children it chose, so a `policy()`
call costs O(n) node scans and no new candidate list.

A divide splits off a candidate: a strictly sufficient set that is also a
Nash profile (SSE).  On a game with strategic complementarities the
incentive table is monotone, and the candidates of a context are the
nonempty fixed points of a monotone map (Milgrom and Roberts 1990), found
by branching on intervals (core.fixed_point_scan); on a table that is not
monotone every submask is scanned (core.sss_scan).

The weakest-link, threshold and aggregative families keep one rule per
player (StageGame._rules: gain from action 1 when at least k players of a
mask play 1) and share one path.  No query on them builds an incentive
table: each solver reads who gains at a coalition off the rules, through
one gains view it fills as it reads (core.RuleGains); a context's
dominance reduction is a closure (core.iesds_closure) and its Nash
profiles are fixed points (core.fixed_point_scan).  For a weakest-link
game the horizon of a target set is also the directed tree-depth of the
subgraph induced on the active players that reach it, read from one
digraph.TreeDepth memo per solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .core import (
    Context,
    RuleGains,
    bits,
    check_mask,
    fixed_point_scan,
    iesds_closure,
    iesds_scan,
    incentive_table,
    is_monotone,
    members,
    ne_scan,
    settle,
    sorted_coalitions,
    sss_scan,
)
from .digraph import TreeDepth
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

    Every query reads one gains map, `gainers` (see core.incentive_table).
    For a weakest-link, threshold or aggregative game (`StageGame._rules`
    set) it is the solver's own core.RuleGains view, which computes each
    coalition's entry from the rules on first read and keeps it as long as
    the solver, so that no query on such a game builds a table; for any
    other game it is the game's incentive table, built on first read.
    Degenerate players (strictly dominant actions, iterated) are stripped
    first and folded into the base context: forced ones join the forced
    set, forced zeros leave the game.  For a family game that reduction is
    core.iesds_closure and the Nash profiles are core.fixed_point_scan's;
    any other game is scanned with core.iesds_scan and core.ne_scan, which
    read `losers` too.  A divide splits off an SSE candidate: the candidates
    of a monotone table, a family's or one core.is_monotone finds so, come
    from core.fixed_point_scan, those of any other table from
    core.sss_scan, with equal lists.  Per-context state lives in four maps:
    `_memo` keeps the exact value of each settled context solved, `_lower`
    a lower bound on each one so far only cut off (see _tau),
    `_reduce_cache` one _Reduction per queried context, and
    `_candidate_cache` the candidate list of each context `_candidates` was
    asked for, its only builder.  Policy trees are not stored but rebuilt
    on demand by `value` and `policy`.

    For a game built by graphical.weakest_link_game the solver also keeps
    one TreeDepth memo on the game's digraph (`depths`; None for any other
    game, whatever its `kind`): every horizon is the tree-depth of the
    targets' reach set among the active players, both read from that memo
    (`depths.reach`, `depths.value`), which lives as long as the solver.
    A solver instance is not thread-safe, but distinct instances are
    independent.
    """

    def __init__(self, game):
        self.game = game
        self._memo = {}
        self._lower = {}
        self._reduce_cache = {}
        self._candidate_cache = {}
        self.depths = None if game._graph is None else TreeDepth(game._graph)

    # -- the gains map, built on first read ---------------------------------

    @cached_property
    def _table(self):
        return incentive_table(self.game)

    @cached_property
    def gainers(self):
        if self.game._rules is None:
            return self._table[0]
        return RuleGains(self.game._rules)

    @cached_property
    def losers(self):
        return self._table[1]

    @cached_property
    def _branch(self):
        return self.game._rules is not None or is_monotone(self.gainers)

    # -- context plumbing ---------------------------------------------------

    def _reduce(self, ctx=None):
        """Strip iterated strictly dominant actions from a context (the full
        game by default); one cached _Reduction per context.  A context
        with bits outside the game's players raises ValueError."""
        key = (self.game.all_players, 0) if ctx is None else (ctx.active, ctx.ones)
        got = self._reduce_cache.get(key)
        if got is None:
            S, O = key
            check_mask(self.game.n, S, "active")
            check_mask(self.game.n, O, "ones")
            if self.game._rules is not None:
                least, greatest = iesds_closure(self.gainers, S, O)
            else:
                least, greatest = iesds_scan(self.gainers, self.losers, S, O)
            reduced = Context(S & greatest & ~least, O | least)
            got = _Reduction(reduced, least, S & ~greatest)
            self._reduce_cache[key] = got
        return got

    @property
    def base(self):
        """The full game's context after iterated strict dominance."""
        return self._reduce().reduced

    @property
    def forced_one(self):
        """Players whose action 1 iterated strict dominance forces."""
        return self._reduce().forced

    @property
    def dropped(self):
        """Players whose action 1 is iteratively strictly dominated."""
        return self._reduce().dropped

    def _candidates(self, S, O):
        """The candidates of context (S, O), built on first read and kept
        for the solver's lifetime; callers must not mutate the list."""
        got = self._candidate_cache.get((S, O))
        if got is None:
            if self._branch:
                got = fixed_point_scan(self.gainers, S, O)
            else:
                got = sss_scan(self.gainers, S, O, True)
            self._candidate_cache[S, O] = got
        return got

    # -- the recursion ------------------------------------------------------

    def _tau(self, S, O, limit=None):
        """Minimum number of stages to reach all-ones in the auxiliary game
        (S active, O forced to 1): exact when below `limit` (always, with no
        limit), otherwise a lower bound of at least `limit`.  Every
        reachable context keeps all active players strictly willing at the
        top profile, so the recursion never meets a strictly dominated
        action 0.

        Only settled contexts (core.settle: dominate steps are free) are
        keys, so a hit on the call's own pair is its settled context's
        value, and only a miss pays for settling.  Exact values go to
        `_memo`, cut-off bounds to `_lower`; a bound at or above the limit
        answers, and a later scan replaces it by its exact value or a
        higher bound.  A settled context with players left is worth at
        least 2 (see _scan), so asked with a limit of 2 or less it answers
        2 unscanned."""
        got = self._memo.get((S, O))
        if got is not None:
            return got
        S, O, _ = settle(self.gainers, S, O)
        if not S:
            return 1
        key = (S, O)
        got = self._memo.get(key)
        if got is not None:
            return got
        if limit is not None:
            if limit <= 2:
                return 2
            got = self._lower.get(key)
            if got is not None and got >= limit:
                return got
        got = self._scan(S, O, limit)[0]
        if limit is None or got < limit:
            self._memo[key] = got
            self._lower.pop(key, None)
        else:
            self._lower[key] = got
        return got

    def _scan(self, S, O, limit=None):
        """(value, op, arg) of the first strict minimum over the divides,
        then the deletes, of a context with S nonempty and no player left to
        dominate; arg is the split set of a divide, the player of a delete.
        Below `limit` (always, with no limit) the value is exact; otherwise
        no branch is below it, and the scan returns (limit, None, None).

        A cap starts at the limit, or with no limit at |S| + 2, above every
        value (deleting each player in turn costs |S| + 1), and drops to
        each new best: a divide's two children are asked with the cap and a
        delete's child with the cap less 1, so a child is exact whenever its
        branch could beat the best so far, and only a strictly better branch
        is recorded.  Every value here is at least 2: a delete costs 1 more
        than its child, and a divide's left child (X, O) again has no one to
        dominate, so by induction on |X| it is at least 2 too.  Hence the
        scan returns at the first 2 and skips a divide's right child once
        its left value reaches the cap; no skipped branch could be strictly
        better."""
        tau = self._tau
        cap = S.bit_count() + 2 if limit is None else limit
        op = arg = None
        for X in self._candidates(S, O):
            if X == S:
                continue
            left = tau(X, O, cap)
            if left >= cap:
                continue
            v = max(left, tau(S & ~X, O | X, cap))
            if v < cap:
                cap, op, arg = v, "divide", X
                if cap == 2:
                    return cap, op, arg
        for i in bits(S):
            b = 1 << i
            v = 1 + tau(S & ~b, O | b, cap - 1)
            if v < cap:
                cap, op, arg = v, "delete", i
                if cap == 2:
                    break
        return cap, op, arg

    def value(self, S, O):
        """The solved policy of context (S, O) as a PolicyNode tree; its
        root value is `_tau(S, O)`.  Only the int values and the candidate
        lists are kept: each call rebuilds the tree, rerunning each node's
        scan over the int memo and the node's kept list and recursing into
        the children it chose, so it costs one scan per node (O(n) nodes, as
        every step removes a player or splits the set) and builds a
        candidate list only for a node no earlier query asked."""
        S, O, chain = settle(self.gainers, S, O)
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
        check_mask(self.game.n, targets, "targets")
        r = self._reduce(ctx)
        if targets & r.dropped:
            bad = members(targets & r.dropped)
            raise PreconditionError(
                f"players {bad} have a strictly dominated action 1; "
                "no horizon brings them in"
            )
        return self._min_horizon_reduced(targets, r)

    def _min_horizon_reduced(self, targets, r):
        reduced = r.reduced
        want = targets & reduced.active
        if want == 0:
            return 1
        if self.depths is not None:
            # the reduced context is the weakest-link game on the subgraph
            # induced by its active players
            return self.depths.value(self.depths.reach(want, reduced.active))
        O = reduced.ones
        best = None
        for Y in self._candidates(reduced.active, O):
            if Y & want == want:
                # exact only if it beats the best so far
                v = self._tau(Y, O, best)
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
                else self._min_horizon_reduced(1 << i, r)
                for i in bits(r.reduced.active | r.forced | r.dropped)
            })
        return r.taus

    def least_outcome(self, T, ctx=None):
        """Players taking action 1 in every monotone-SPNE of the T-stage game:
        the least equilibrium outcome, {i : tau_i <= T} over `horizons`,
        which gives a player forced in by iterated dominance tau_i = 1.  A
        horizon below 1 raises ValueError."""
        if T < 1:
            raise ValueError("horizon must be positive")
        out = 0
        for i, tau in self.horizons(ctx).items():
            if tau is not None and tau <= T:
                out |= 1 << i
        return out

    @cached_property
    def _nash(self):
        """The base context's Nash profiles, listed once per solver: for a
        family game the fixed points of f(Y) = gainers[Y | ones] & active,
        which are the base context's candidates (_candidates); for any
        other game a scan of the incentive table."""
        S, O = self.base.active, self.base.ones
        if self.game._rules is None:
            return ne_scan(self.gainers, self.losers, S, O)
        found = self._candidates(S, O)
        # the scan skips the empty profile
        return found if self.gainers[O] & S else [0, *found]

    def equilibria(self):
        """The pure Nash profiles of the full stage game.  Iterated strict
        dominance keeps every one of them, so they are the forced players
        joined with each Nash profile of the base context."""
        forced = self.forced_one
        return [forced | X for X in self._nash]

    def outcome_set(self, T):
        """All monotone-SPNE outcomes at horizon T: Nash outcomes whose
        residual game forces nobody in within the remaining T stages.  A
        horizon below 1 raises ValueError."""
        if T < 1:
            raise ValueError("horizon must be positive")
        res = []
        S, O = self.base.active, self.base.ones
        for X in self._nash:
            residual = Context(S & ~X, O | X)
            if self.least_outcome(T, ctx=residual) == 0:
                res.append(O | X)
        return sorted_coalitions(res)
