"""Shared fixtures: small named example games, random game families that
provably satisfy the stage assumptions, and independent reference
implementations used to cross-check the solvers."""

from fractions import Fraction

from hypothesis import strategies as st

from coordsolve import (
    AssumptionReport,
    Context,
    Digraph,
    EliminationTree,
    Partition,
    PreconditionError,
    ResourceLimitError,
    Sync,
    Violation,
    aggregative_game,
    full_context,
    mask_of,
    scc,
    table_game,
    weakest_link_game,
)
from coordsolve.core import (
    _ctx_pay,
    bits,
    gains,
    is_ne,
    iterated_strict_elimination,
    members,
    sorted_coalitions,
    submasks,
)
from coordsolve.ordered import DEFAULT_CHECK_BUDGET, OrderedFlags
from coordsolve.sync import PolicyNode, SyncSolver
from coordsolve.oracle import (
    _Budget,
    _async_histories,
    _sorted_with_predecessors,
    _sync_histories,
)


def bit(X, i):
    return (X >> i) & 1


# ---------------------------------------------------------------------------
# canonical instances (player indices 0-based, named by their shape)


def clique_edges(size, offset=0):
    return [
        (i + offset, j + offset)
        for i in range(size)
        for j in range(size)
        if i != j
    ]


def two_triangles_graph():
    """Bidirected triangles {0,1,2} and {3,4,5}; 2->6, 5->6, 7->6, 6->7."""
    edges = clique_edges(3) + clique_edges(3, 3)
    edges += [(2, 6), (5, 6), (7, 6), (6, 7)]
    return Digraph(8, edges)


def two_triangles_game():
    return weakest_link_game(two_triangles_graph())


def hub_intervention_graph():
    """Complete bidirected block {0,1,2,3}; 0 feeds all of 4..8."""
    edges = clique_edges(4) + [(0, j) for j in range(4, 9)]
    return Digraph(9, edges)


def star_graph(leaves):
    return Digraph(
        leaves + 1,
        [(0, j) for j in range(1, leaves + 1)] + [(j, 0) for j in range(1, leaves + 1)],
    )


def cycle_graph(n):
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def cross_pairs_graph():
    """E_0={1}, E_1={0}, E_2={1,3}, E_3={0,2}: two linked pairs."""
    return Digraph(4, [(1, 0), (0, 1), (1, 2), (3, 2), (0, 3), (2, 3)])


def cross_pairs_game():
    return weakest_link_game(cross_pairs_graph())


def mixed_two_player_game():
    """Row player has dominant 0; column player matches the row player."""
    return table_game([[1, 0, 3, 2], [1, 2, 0, 3]])


def free_rider_game():
    """Players 0,1 have dominant 0; player 2 follows max(a_0, a_1)."""
    rows = []
    for i in range(3):
        row = []
        for X in range(8):
            a = [bit(X, k) for k in range(3)]
            if i < 2:
                row.append(2 * a[2] - a[i])
            else:
                row.append(a[2] * (2 * max(a[0], a[1]) - 1))
        rows.append(row)
    return table_game(rows)


def seven_player_design_game():
    """The seven-player game with a unique two-cell all-ones schedule."""
    rows = []
    for i in range(7):
        row = []
        for X in range(1 << 7):
            a = [bit(X, k) for k in range(7)]
            if i == 0:
                row.append(a[0] * (2 * a[1] * a[2] - 1) + 2 * a[4])
            elif i == 1:
                row.append(a[1] * (2 * a[0] - 1))
            elif i == 2:
                row.append(a[2] * (2 * a[0] - 1))
            elif i == 3:
                row.append(a[3] * (2 * a[0] * a[4] * a[5] * a[6] - 1))
            elif i == 4:
                row.append(a[4] * (2 * max(a[3], a[5] * a[6]) - 1))
            elif i == 5:
                row.append(a[5] * (2 * max(a[3], a[4] * a[6]) - 1))
            else:
                row.append(a[6] * (2 * max(a[3], a[4] * a[5]) - 1))
        rows.append(row)
    return table_game(rows)


def tie_break_violation_game():
    """Eight players; the indirect-utility tie-break fails for players 0,1."""
    rows = []
    for i in range(8):
        row = []
        for X in range(1 << 8):
            a = [bit(X, k) for k in range(8)]
            t1 = a[2] * a[3] * a[4]
            t2 = a[5] * a[6] * a[7]
            if i == 0:
                row.append(max(a[0] * (4 * a[1] - 3 + t1 + t2), 2 * t1))
            elif i == 1:
                row.append(max(a[1] * (4 * a[0] - 3 + t1 + t2), 2 * t1))
            elif i < 5:
                others = [k for k in (2, 3, 4) if k != i]
                row.append(a[i] * (2 * a[others[0]] * a[others[1]] - 1))
            else:
                others = [k for k in (5, 6, 7) if k != i]
                row.append(a[i] * (2 * a[others[0]] * a[others[1]] - 1))
        rows.append(row)
    return table_game(rows)


def spillover_pair_games():
    """Five players, a triangle feeding a pair; the second variant adds an
    epsilon spillover from player 3 to player 0 that kills the low outcome."""

    def base(i, X, eps):
        a = [bit(X, k) for k in range(5)]
        if i == 0:
            return 2 * min(a[0], a[1], a[2]) - a[0] + eps * a[3]
        if i in (1, 2):
            return 2 * min(a[0], a[1], a[2]) - a[i]
        if i == 3:
            return 2 * min(a[0], a[3], a[4]) - a[3]
        return 2 * min(a[3], a[4]) - a[4]

    plain = table_game([[base(i, X, 0) for X in range(32)] for i in range(5)])
    perturbed = table_game(
        [[base(i, X, Fraction(1, 2)) for X in range(32)] for i in range(5)]
    )
    return plain, perturbed


# ---------------------------------------------------------------------------
# random families (constructed to satisfy the stage assumptions by design)


def random_digraph(rng, n, p=0.35):
    edges = [
        (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p
    ]
    return Digraph(n, edges)


def random_rooted_digraph(rng, n, p=0.35):
    """Random digraph where every vertex keeps at least one in-neighbor."""
    g = random_digraph(rng, n, p)
    edges = set(g.edges)
    for i in range(n):
        if not g.in_mask(i):
            j = rng.choice([v for v in range(n) if v != i])
            edges.add((j, i))
    return Digraph(n, edges)


def random_game(rng, n, spillovers=True):
    """Random assumption-satisfying table game.

    Each player's incentive to act is an upward-closed family generated by a
    few random minimal coalitions; the gain magnitude carries a monotone bonus
    and the base payoff an optional monotone spillover.  Scales are chosen so
    single crossing, common interests (with the tie-break), deviation
    proofness, and nondegeneracy all hold by construction.
    """
    K = 4 * n
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        seeds = [
            mask_of(rng.sample(others, rng.randint(1, len(others))))
            for _ in range(rng.randint(1, 3))
        ]
        beta = rng.randint(0, 2)
        bonus = mask_of(rng.sample(others, rng.randint(0, len(others))))
        gamma = rng.randint(0, 1) if spillovers else 0
        spill = mask_of(rng.sample(others, rng.randint(0, len(others))))
        row = []
        for X in range(1 << n):
            Z = X & ~(1 << i)
            sat = any(s & ~Z == 0 for s in seeds)
            gain = (2 * sat - 1) * K + beta * (Z & bonus).bit_count()
            base = gamma * (Z & spill).bit_count()
            row.append(base + bit(X, i) * gain)
        rows.append(row)
    return table_game(rows)


def random_partition(rng, n):
    """Random ordered partition of the n players into nonempty cells."""
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    bounds = [0] + cuts + [n]
    return Partition([mask_of(order[a:b]) for a, b in zip(bounds, bounds[1:])])


def planted_game(rng, k):
    """A random_game on k + 1 players whose last player is made to take action
    1 unconditionally (the others may hinge on it), plus one appended player
    whose action 1 is strictly dominated."""
    base = random_game(rng, k + 1)
    n, low = k + 2, (1 << (k + 1)) - 1
    rows = [[base.payoff(i, X & low) for X in range(1 << n)] for i in range(k)]
    rows.append([1 if (X >> k) & 1 else 0 for X in range(1 << n)])  # dominant 1
    rows.append([-1 if (X >> (k + 1)) & 1 else 0 for X in range(1 << n)])  # dominant 0
    return table_game(rows)


def random_threshold_vector(rng, g):
    return [rng.randint(1, max(g.in_mask(i).bit_count(), 1)) for i in range(g.n)]


def random_aggregative(rng, n):
    c = sorted(rng.randint(1, n - 1) for _ in range(n))
    return aggregative_game(c), c


# ---------------------------------------------------------------------------
# independent reference recursions


def check_assumptions_reference(game, ctx=None):
    """All-pairs stage-condition check: every player, every low < high pair
    of opponents' coalitions, straight from the payoff oracle.  Lists every
    violating pair, where check_assumptions keeps one per high set."""
    if ctx is None:
        ctx = full_context(game)
    pay = game.payoff
    rep = AssumptionReport()
    wit = rep.witnesses

    for i in bits(ctx.active):
        b = 1 << i
        others = ctx.active & ~b
        u0 = {}
        u1 = {}
        for m in submasks(others):
            u0[m] = pay(i, m | ctx.ones)
            u1[m] = pay(i, m | ctx.ones | b)

        if not u1[others] > u0[others]:
            rep.nondegenerate = False
            wit.append(Violation("nondegenerate", i, others, others))
        if not u0[0] > u1[0]:
            rep.nondegenerate = False
            wit.append(Violation("nondegenerate", i, 0, 0))

        for high in submasks(others):
            low = (high - 1) & high
            while True:
                if low == high:  # only proper submasks
                    break
                d_lo = u1[low] - u0[low]
                d_hi = u1[high] - u0[high]
                if (d_lo >= 0 and d_hi < 0) or (d_lo > 0 and d_hi <= 0):
                    rep.single_crossing = False
                    wit.append(Violation("single_crossing", i, low, high))
                m_lo = max(u0[low], u1[low])
                m_hi = max(u0[high], u1[high])
                if m_hi < m_lo:
                    rep.common_interests = False
                    wit.append(Violation("common_interests", i, low, high))
                elif u1[high] >= u0[high] and u0[low] >= u1[low] and not m_hi > m_lo:
                    rep.common_interests = False
                    wit.append(Violation("tie-break (interpreted)", i, low, high))
                if (u1[high] >= u0[low] and u1[high] < u0[high]) or (
                    u1[high] > u0[low] and u1[high] <= u0[high]
                ):
                    rep.deviation_proof = False
                    wit.append(Violation("deviation_proof", i, low, high))
                if low == 0:
                    break
                low = (low - 1) & high
    return rep


# Small ranges so that ties, which strict preferences skip, are common.
EXACT_PAYOFFS = st.sampled_from(
    [-2, -1, 0, 1, 2, Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(4, 3)]
)


@st.composite
def tables_with_contexts(draw):
    """An unconstrained exact table game on 1..6 players (ties and
    Fractions, no stage assumption enforced) and a random Context of it."""
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(EXACT_PAYOFFS, min_size=1 << n, max_size=1 << n)) for _ in range(n)]
    active = draw(st.integers(0, (1 << n) - 1))
    ones = draw(st.integers(0, (1 << n) - 1)) & ~active
    return table_game(rows), Context(active, ones)


def _gains(game, ones, i, X):
    """Does i strictly gain from action 1 when exactly X | ones (less i)
    plays 1?"""
    others = (X | ones) & ~(1 << i)
    return game.payoff(i, others | 1 << i) > game.payoff(i, others)


def ne_set_reference(game, ctx=None):
    """Pure Nash profiles of the contextual game, straight from payoffs."""
    if ctx is None:
        ctx = full_context(game)
    return sorted_coalitions(X for X in submasks(ctx.active) if is_ne(game, ctx, X))


def sss_set_reference(game, ctx=None, require_ne=False):
    """Strictly sufficient sets of the contextual game, straight from
    payoffs: nonempty X whose members all gain at X, Nash ones only when
    require_ne."""
    if ctx is None:
        ctx = full_context(game)
    out = []
    for X in submasks(ctx.active):
        if X == 0:
            continue
        if all(_gains(game, ctx.ones, i, X) for i in bits(X)):
            if not require_ne or is_ne(game, ctx, X):
                out.append(X)
    return sorted_coalitions(out)


def dominate_chain_reference(game, S, O):
    """The players SyncSolver.value folds in for free from context (S, O),
    in order: repeatedly the lowest active player who strictly gains when
    only the forced ones play 1."""
    chain = []
    while True:
        dom = next((i for i in bits(S) if _gains(game, O, i, 0)), None)
        if dom is None:
            return chain
        chain.append(dom)
        S &= ~(1 << dom)
        O |= 1 << dom


def iesds_reference(game, ctx=None):
    """Iterated strict dominance on the contextual game, straight from
    payoffs: the core.iesds that SyncSolver called before it read dominance
    off the incentive table (core.iesds_scan), kept verbatim."""
    if ctx is None:
        ctx = full_context(game)
    return iterated_strict_elimination(ctx.active, _ctx_pay(game, ctx))


class PolicyNodeSolverReference(SyncSolver):
    """SyncSolver with the value recursion it had before the int memo: a
    PolicyNode memoised per context, every divide and delete scanned in
    full.  `value` and `_min_horizon_reduced` are kept verbatim; the
    reduction, candidate cache and public operators are inherited."""

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


def chain_sequence_reference(game, target, seed, base):
    """Literal finite-sequence search for the cost-order chain condition:
    the "sequence" reading that ordered.classify once offered beside its
    closure (ordered._chain_reaches), kept verbatim; equivalent to the
    closure on single-crossing games."""
    full = game.all_players

    def extend(coalition):
        if (coalition >> target) & 1:
            return True
        for p in bits(full & ~coalition & ~base):
            if gains(game, p, (coalition | base) & ~(1 << p)):
                if extend(coalition | (1 << p)):
                    return True
        return False

    return extend(1 << seed)


def chain_reaches_reference(game, target, seed, base):
    """ordered._chain_reaches as it read raw payoffs before it read the
    incentive table, kept verbatim."""
    coalition = base | (1 << seed)
    pool = game.all_players & ~coalition
    grew = True
    while grew:
        if (coalition >> target) & 1:
            return True
        grew = False
        for p in bits(pool):
            if gains(game, p, coalition):
                coalition |= 1 << p
                pool &= ~(1 << p)
                grew = True
    return (coalition >> target) & 1 == 1


def classify_reference(game, budget=DEFAULT_CHECK_BUDGET):
    """ordered.classify as it read raw payoffs before it read the incentive
    table, kept verbatim but for its closing assert that strong cost order
    implies the weak one (which needs single crossing; see test_ordered)."""
    n = game.n
    full = game.all_players
    steps = n * n * (n + 2) * (1 << max(n - 2, 0))
    if steps > budget:
        raise ResourceLimitError(
            f"classification needs ~{steps} checks (budget {budget})", size=steps
        )
    flags = OrderedFlags()
    wit = flags.witnesses

    for j in range(n):
        for i in range(j):
            pool = full & ~(1 << i) & ~(1 << j)
            for X in submasks(pool):
                if gains(game, j, X):
                    if flags.strongly_cost_ordered and not gains(game, i, X):
                        flags.strongly_cost_ordered = False
                        wit.setdefault("strongly_cost_ordered", (i, j, X))
                    if flags.cost_ordered and not chain_reaches_reference(game, i, j, X):
                        flags.cost_ordered = False
                        wit.setdefault("cost_ordered", (i, j, X))

    for k in range(n):
        for j in range(n):
            for i in range(n):
                if k in (i, j) or i == j:
                    continue
                pool = full & ~mask_of((i, j, k))
                for X in submasks(pool):
                    if gains(game, k, X | (1 << i)) and not gains(game, k, X | (1 << j)):
                        if i < j and flags.contribution_ordered:
                            flags.contribution_ordered = False
                            wit.setdefault("contribution_ordered", (i, j, k, X))
                        if flags.contribution_natural:
                            flags.contribution_natural = False
                            wit.setdefault("contribution_natural", (i, j, k, X))
    return flags


def ordered_min_horizon_reference(game, targets, flags=None):
    """ordered.ordered_min_horizon as it read raw payoffs (strict gains,
    iterated strict elimination and a Nash check) before it read the
    incentive table, kept verbatim."""
    flags = flags or classify_reference(game)
    if not (flags.cost_ordered and flags.contribution_ordered):
        raise PreconditionError(
            "fast path needs a cost-ordered and contribution-ordered game"
        )
    least, greatest = iterated_strict_elimination(game.all_players, game._payoff)
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
                if gains(game, i, O):
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
    ctx = Context(S0, O0)
    best = None
    for k in range(1, len(order) + 1):
        prefix = mask_of(order[:k])
        if prefix & want != want:
            continue
        if all(gains(game, i, (prefix | O0) & ~(1 << i)) for i in bits(prefix)):
            if is_ne(game, ctx, prefix):
                v = solve(prefix, O0)
                if best is None or v < best:
                    best = v
    if best is None:
        raise PreconditionError("no sufficient prefix covers the target")
    return best


def tree_depth_reference(g, vertices=None):
    """Exact directed tree-depth of the induced subgraph, with certificate:
    the memo-per-SCC search `digraph.tree_depth` replaced, kept verbatim.

    td(empty)=0, td(singleton)=1; a strongly connected block with >=2 vertices
    costs 1 plus the best vertex removal; otherwise the value is the max over
    SCC subgraphs.  Memoized exhaustive search over vertex subsets; removal
    candidates are scanned in ascending index so certificates are
    deterministic.
    """
    if vertices is None:
        vertices = g.all_vertices
    memo = {}

    def solve(mask):
        if mask == 0:
            return EliminationTree(0, None, ())
        comps = scc(g, mask)
        if len(comps) == 1:
            return solve_scc(comps[0])
        return EliminationTree(mask, None, tuple(solve_scc(c) for c in comps))

    def solve_scc(mask):
        if mask.bit_count() == 1:
            return EliminationTree(mask, mask.bit_length() - 1, ())
        node = memo.get(mask)
        if node is not None:
            return node
        best = None
        for v in bits(mask):
            child = solve(mask & ~(1 << v))
            cand = EliminationTree(mask, v, (child,))
            if best is None or cand.depth < best.depth:
                best = cand
                if best.depth == 2:  # minimum possible for a non-singleton SCC
                    break
        memo[mask] = best
        return best

    cert = solve(vertices)
    return cert.depth, cert


def _kosaraju(nodes, succ):
    order = []
    seen = set()

    def down(u):
        seen.add(u)
        for v in succ.get(u, ()):
            if v not in seen:
                down(v)
        order.append(u)

    for u in nodes:
        if u not in seen:
            down(u)

    pred = {u: set() for u in nodes}
    for u in nodes:
        for v in succ.get(u, ()):
            pred[v].add(u)

    comps = []
    assigned = set()
    for u in reversed(order):
        if u in assigned:
            continue
        comp = set()
        stack = [u]
        while stack:
            w = stack.pop()
            if w in assigned:
                continue
            assigned.add(w)
            comp.add(w)
            stack.extend(pred[w] - assigned)
        comps.append(comp)
    return comps


def cycle_rank(nodes, edge_set):
    """Textbook cycle-rank recursion on an explicit vertex/edge set."""
    nodes = set(nodes)
    succ = {}
    for a, c in edge_set:
        if a in nodes and c in nodes:
            succ.setdefault(a, set()).add(c)
    comps = [c for c in _kosaraju(sorted(nodes), succ) if len(c) > 1]
    if not comps:
        return 0
    best = 0
    for comp in comps:
        inner = min(
            cycle_rank(comp - {v}, edge_set) for v in sorted(comp)
        )
        best = max(best, 1 + inner)
    return best


# ---------------------------------------------------------------------------
# MSPNE oracle engine that runs every continuation anew (kept verbatim as the
# reference for the memoised `oracle._mspne_outcomes`)


def _monotone_selections(order, preds, options, budget):
    """All monotone assignments history -> action profile, option lists given
    per history in `order`; yields dicts."""
    chosen = [None] * len(order)

    def rec(idx):
        if idx == len(order):
            yield dict(zip(order, chosen))
            return
        for a in options[idx]:
            budget.spend()
            if all(chosen[j] & ~a == 0 for j in preds[idx]):
                chosen[idx] = a
                yield from rec(idx + 1)
        chosen[idx] = None

    yield from rec(0)


def _mspne_outcomes(game, stages, moves_of, value_terminal, budget):
    """Common MSPNE engine over precomputed history stages.

    moves_of(t, h) yields legal stage-t action profiles at history h;
    value_terminal(h, a) is the final outcome of choosing a at the last stage.
    """
    pay = game._payoff
    T = len(stages)
    outcomes = set()

    layers = [_sorted_with_predecessors(stages[t]) for t in range(T)]

    def stage_options(t, h, value):
        opts = []
        for a, movers in moves_of(t, h):
            v = value(h, a)
            ok = True
            for i in bits(movers):
                flip = a ^ (1 << i)
                if pay(i, v) < pay(i, value(h, flip)):
                    ok = False
                    break
            if ok:
                opts.append((a, v))
        return opts

    def run(t, w_next):
        order, preds = layers[t]
        if t == T - 1:
            value = value_terminal
        else:
            value = lambda h, a: w_next[h + (a,)]
        per_hist = []
        for h in order:
            opts = stage_options(t, h, value)
            if not opts:
                return  # no admissible stage map under this continuation
            per_hist.append(opts)
        actions = [[a for a, _ in opts] for opts in per_hist]
        values = [dict(opts) for opts in per_hist]
        for sel in _monotone_selections(order, preds, actions, budget):
            if t == 0:
                outcomes.add(values[0][sel[()]])
            else:
                w = {}
                for idx, h in enumerate(order):
                    w[h] = values[idx][sel[h]]
                run(t - 1, w)

    run(T - 1, None)
    return outcomes


def mspne_reference(game, schedule, budget=10**9):
    """MSPNE outcomes of a Sync or Async schedule through the reference
    engine, with the stage moves `oracle._mspne_sync`/`_mspne_async` use."""
    full = game.all_players
    if isinstance(schedule, Sync):
        stages = _sync_histories(game.n, schedule.T)

        def moves_of(t, h):
            last = h[-1] if h else 0
            for sub in submasks(full & ~last):
                yield last | sub, full & ~last

        def terminal(h, a):
            return a

    else:
        cells = schedule.partition.cells
        stages = _async_histories(cells)

        def moves_of(t, h):
            for sub in submasks(cells[t]):
                yield sub, cells[t]

        def terminal(h, a):
            out = a
            for m in h:
                out |= m
            return out

    return _mspne_outcomes(game, stages, moves_of, terminal, _Budget(budget))
