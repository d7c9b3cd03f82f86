import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from coordsolve import (
    Context,
    Digraph,
    PreconditionError,
    StageGame,
    Sync,
    aggregative_game,
    enumerate_equilibria,
    mask_of,
    members,
    ne_set,
    table_game,
    weakest_link_game,
)
from coordsolve.asyncgame import design
from coordsolve.core import bits, sorted_coalitions, sss_scan, submasks
from coordsolve.design import (
    candidate_horizons,
    intervention,
    strong_centrality,
    weak_centrality,
)
from coordsolve.graphical import threshold_game, weakest_link_horizon
from coordsolve.core import RuleGains
from coordsolve import sync
from coordsolve.sync import SyncSolver

from util import (
    PolicyNodeSolverReference,
    UncutSyncSolverReference,
    cross_pairs_game,
    cycle_graph,
    dominate_chain_reference,
    family_games,
    hub_intervention_graph,
    iesds_reference,
    monotone_games_with_contexts,
    near_monotone_tables,
    ne_set_reference,
    planted_game,
    random_digraph,
    random_game,
    random_rooted_digraph,
    random_threshold_vector,
    refuse_family_table_builds,
    shaped_digraphs,
    star_graph,
    tables_with_contexts,
    two_triangles_game,
)


# -- the value recursion ------------------------------------------------------


def test_star_full_set_needs_two_stages():
    game = weakest_link_game(star_graph(6))
    assert SyncSolver(game).min_horizon(game.all_players) == 2


def test_cycle_full_set_needs_two_stages():
    game = weakest_link_game(cycle_graph(8))
    assert SyncSolver(game).min_horizon(game.all_players) == 2


def test_empty_target_is_one_stage():
    game = two_triangles_game()
    assert SyncSolver(game).min_horizon(0) == 1


def test_value_base_case_empty_context():
    game = two_triangles_game()
    node = SyncSolver(game).value(0, 0)
    assert node.value == 1 and node.op == "stop"


def test_hub_game_partial_target():
    game = weakest_link_game(hub_intervention_graph())
    assert SyncSolver(game).min_horizon(mask_of(range(4, 9))) == 4


def test_homogeneous_aggregative_singletons():
    for n in (3, 4, 5):
        for k in range(1, n):
            game = aggregative_game((k,) * n)
            solver = SyncSolver(game)
            for i in range(n):
                assert solver.min_horizon(1 << i) == k + 1


def test_cross_pairs_full_target():
    game = cross_pairs_game()
    assert SyncSolver(game).min_horizon(game.all_players) == 2


def test_dominated_zero_target_rejected():
    # player 1 (second) has action 1 strictly dominated
    game = table_game([[0, 0, -1, 1], [0, -1, -1, -2]])
    solver = SyncSolver(game)
    assert solver.dropped == 1 << 1
    with pytest.raises(PreconditionError):
        solver.min_horizon(1 << 1)


# -- least outcome ------------------------------------------------------------


def test_two_triangles_least_outcomes():
    solver = SyncSolver(two_triangles_game())
    assert solver.least_outcome(2) == 0
    assert solver.least_outcome(3) == (1 << 8) - 1


def test_full_horizon_reaches_everyone():
    rng = random.Random(42)
    for _ in range(15):
        game = random_game(rng, rng.randint(2, 5))
        solver = SyncSolver(game)
        assert solver.least_outcome(game.n) == game.all_players


def test_least_outcome_in_context():
    game = weakest_link_game(hub_intervention_graph())
    solver = SyncSolver(game)
    rest = game.all_players & ~1
    assert solver.least_outcome(1, ctx=Context(rest, 1)) == mask_of(range(4, 9))


# -- outcome sets -------------------------------------------------------------


def test_two_triangles_outcome_sets():
    game = two_triangles_game()
    solver = SyncSolver(game)
    assert set(solver.outcome_set(2)) == {
        0,
        mask_of((0, 1, 2)),
        mask_of((3, 4, 5)),
        game.all_players,
    }
    assert solver.outcome_set(3) == [game.all_players]


def test_cross_pairs_outcomes_t2():
    game = cross_pairs_game()
    assert SyncSolver(game).outcome_set(2) == [game.all_players]


def test_outcomes_at_player_count():
    rng = random.Random(1234)
    for _ in range(15):
        game = random_game(rng, rng.randint(2, 5))
        assert SyncSolver(game).outcome_set(game.n) == [game.all_players]


def test_outcomes_shrink_within_ne():
    rng = random.Random(77)
    for _ in range(12):
        game = random_game(rng, rng.randint(2, 5))
        solver = SyncSolver(game)
        eqs = set(ne_set(game))
        prev = None
        for T in range(1, 6):
            cur = set(solver.outcome_set(T))
            assert cur <= eqs
            if prev is not None:
                assert cur <= prev
            prev = cur


def test_outcomes_meet_closed():
    rng = random.Random(31)
    for _ in range(12):
        game = random_game(rng, rng.randint(2, 5))
        solver = SyncSolver(game)
        eqs = ne_set(game)
        eq_index = {e: idx for idx, e in enumerate(eqs)}
        for T in (1, 2, 3):
            outs = solver.outcome_set(T)
            out_set = set(outs)
            for a in outs:
                for b in outs:
                    # stage-game meet: greatest NE below a&b
                    below = [e for e in eqs if e & (a & b) == e]
                    meet = max(below, key=lambda m: m.bit_count())
                    assert meet in out_set


def test_monotone_comparative_statics_thresholds():
    rng = random.Random(5150)
    for _ in range(12):
        n = rng.randint(2, 6)
        g = random_rooted_digraph(rng, n)
        k_hi = random_threshold_vector(rng, g)
        k_lo = [max(1, v - rng.randint(0, 1)) for v in k_hi]
        hi = SyncSolver(threshold_game(g, k_hi))
        lo = SyncSolver(threshold_game(g, k_lo))
        for T in range(1, n + 1):
            weaker = hi.least_outcome(T)
            stronger = lo.least_outcome(T)
            assert weaker & ~stronger == 0


# random, weakest-link, threshold, aggregative and near-monotone table games
# on up to six players whose assumption report holds the three conditions
GAMES_MEETING_THE_CONDITIONS = (
    st.builds(random_game, st.integers(0, 2**32 - 1).map(random.Random), st.integers(2, 6))
    | family_games().filter(lambda game: game.kind != "table")
    | near_monotone_tables().map(lambda case: case[0])
).filter(lambda game: game.report.satisfies_assumptions)


@settings(max_examples=300, deadline=None)
@given(GAMES_MEETING_THE_CONDITIONS)
@example(random_game(random.Random(1404), 6))
@example(two_triangles_game())
@example(weakest_link_game(hub_intervention_graph()))
def test_sss_and_sse_recursions_agree(game):
    """Within the stage conditions the candidate rule does not change an
    answer: splitting off only SSE candidates gives the tau of every target
    and the outcome set at every horizon up to n that the recursion
    splitting off any strictly sufficient set (SSS) gives."""
    solver = SyncSolver(game)
    ref = PolicyNodeSolverReference(game, use_sse=False)
    for X in range(1 << game.n):
        assert _horizon_or_error(solver, X) == _horizon_or_error(ref, X)
    for T in range(1, game.n + 1):
        assert _or_error(solver.outcome_set, T) == _or_error(ref.outcome_set, T)


def test_readme_crossing_table_leaves_player_one_out():
    """Outside the conditions neither rule is exact.  The README's table
    fails single crossing: no SSE candidate covers player 1, so tau refuses
    the target, and the SSS rule's answer of 1 is wrong too, since at
    T = 1, 2 and 3 the MSPNE oracle lists the outcome {2} without player 1."""
    game = table_game([[1, 3, 3, 3], [-3, -1, -3, 0]])
    assert not game.report.single_crossing
    with pytest.raises(PreconditionError, match="no strictly sufficient candidate"):
        SyncSolver(game).min_horizon(1)
    assert PolicyNodeSolverReference(game, use_sse=False).min_horizon(1) == 1
    for T in (1, 2, 3):
        assert 0b10 in enumerate_equilibria(game, Sync(T), mode="mspne")


def test_degenerate_players_folded_into_context():
    # center of a star plus an unconditional joiner: the joiner is stripped,
    # everyone else still needs the usual two stages
    g = star_graph(3)
    base = weakest_link_game(g)
    rows = []
    for i in range(4):
        rows.append([base.payoff(i, X & ~(1 << 4)) for X in range(1 << 5)])
    rows.append([1 if (X >> 4) & 1 else 0 for X in range(1 << 5)])  # dominant 1
    game = table_game(rows)
    solver = SyncSolver(game)
    assert solver.forced_one == 1 << 4
    assert solver.least_outcome(1) == 1 << 4
    assert solver.least_outcome(2) == game.all_players
    assert solver.min_horizon(game.all_players) == 2


def test_degenerate_reduction_matches_oracle():
    """Games with planted dominant players: strip them, solve, re-extend; the
    result must agree with brute-force enumeration of the full game."""
    rng = random.Random(901)
    for _ in range(5):
        base = random_game(rng, 3, spillovers=False)
        rows = [
            [base.payoff(i, X & 0b111) for X in range(1 << 5)] for i in range(3)
        ]
        rows.append([1 if (X >> 3) & 1 else 0 for X in range(1 << 5)])  # dominant 1
        rows.append([-1 if (X >> 4) & 1 else 0 for X in range(1 << 5)])  # dominant 0
        game = table_game(rows)
        solver = SyncSolver(game)
        assert solver.forced_one == 1 << 3
        assert solver.dropped == 1 << 4
        for T in (1, 2):
            assert set(solver.outcome_set(T)) == enumerate_equilibria(
                game, Sync(T), mode="mspne"
            )


def test_horizons_match_singleton_min_horizon():
    rng = random.Random(902)
    for _ in range(20):
        game = planted_game(rng, rng.randint(1, 4))
        full = game.all_players
        ones = rng.randrange(1 << game.n) & rng.randrange(1 << game.n)
        for ctx in (None, Context(full & ~ones, ones)):
            solver = SyncSolver(game)
            forced, greatest = iesds_reference(game, ctx)
            scope = full if ctx is None else ctx.active
            want = {
                i: solver.min_horizon(1 << i, ctx=ctx) if (greatest >> i) & 1 else None
                for i in bits(scope)
            }
            assert solver.horizons(ctx) == want
            for T in range(1, game.n + 1):
                least = forced
                for i, tau in want.items():
                    if tau is not None and tau <= T:
                        least |= 1 << i
                assert solver.least_outcome(T, ctx=ctx) == least


def replay(node):
    """The horizon a policy tree spends, recomputed from its operations."""
    if node.op == "stop":
        assert node.children == ()
        return 1
    if node.op in ("dominate", "delete"):
        (child,) = node.children
        inner = replay(child)
        return inner + (1 if node.op == "delete" else 0)
    assert node.op == "divide"
    left, right = node.children
    return max(replay(left), replay(right))


def test_policy_tree_replays_its_value():
    rng = random.Random(808)
    for _ in range(15):
        game = random_game(rng, rng.randint(2, 5))
        solver = SyncSolver(game)
        node = solver.policy()
        assert replay(node) == node.value


@settings(max_examples=200, deadline=None)
@given(tables_with_contexts())
def test_dominate_chain_matches_raw_payoff_reference(case):
    """The free dominate steps at the head of value(S, O), read off the
    incentive table, are the raw-payoff cascade, on games that need not
    satisfy any assumption."""
    game, ctx = case
    node = SyncSolver(game).value(ctx.active, ctx.ones)
    chain = []
    while node.op == "dominate":
        chain.append(node.player)
        node = node.children[0]
    assert chain == dominate_chain_reference(game, ctx.active, ctx.ones)


# a 5-player table whose best policy costs 2 through a delete found after
# a divide of 3: a scan that stopped at 3, or skipped deletes there, gets 3
CUTOFF_TABLE = [
    [0, -2, 1, -2, 2, -2, 0, 1, -1, 2, 0, 1, 0, -1, 0, 1, 1, 1, 1, 2, -1, -2, 0, 0, 1, 1, -2, 2, 2, 2, 0, 0],
    [2, -2, -2, 0, -1, -2, 1, 0, -1, 1, 0, 1, 1, -1, -1, -1, -2, -2, -2, 2, 1, -2, 2, 1, -2, 0, -2, -1, 1, -2, 2, 1],
    [0, 1, -1, 1, -1, 2, 2, -1, 1, -1, 2, -2, -2, 0, 0, -1, 0, -2, 1, 2, 0, 0, 1, 0, 1, 1, -1, 1, -1, 1, 0, 1],
    [-1, -2, 1, 1, 0, 1, -2, 1, -2, 1, 1, 0, 2, 2, 2, -2, 2, -2, -2, 2, -2, 1, 0, -1, -1, -1, 1, 2, 0, 0, -2, -2],
    [1, 1, -1, 1, -2, -2, -2, -2, -2, 2, 1, 0, -2, -2, -1, -2, -2, 1, 0, 2, 0, -1, 1, -1, 1, 2, 0, -1, -1, 1, -2, -2],
]


@settings(max_examples=300, deadline=None)
@given(tables_with_contexts() | monotone_games_with_contexts())
@example((table_game(CUTOFF_TABLE), Context(0b11111, 0)))
def test_int_memo_recursion_matches_policy_node_reference(case):
    """The int-memo recursion with its cutoffs, and the trees rebuilt from
    it, equal the PolicyNode recursion that scans every branch and every
    submask for candidates, on games that need not satisfy any assumption
    and on games with monotone tables (where SyncSolver branches on fixed
    points): cold, and again once the memo is warm from the horizon
    queries."""
    game, ctx = case
    solver = SyncSolver(game)
    ref = PolicyNodeSolverReference(game)
    want = ref.value(ctx.active, ctx.ones)
    got = solver.value(ctx.active, ctx.ones)
    assert got == want and got.value == want.value
    for targets in [game.all_players] + [1 << i for i in range(game.n)]:
        assert _horizon_or_error(solver, targets) == _horizon_or_error(ref, targets)
    assert solver.value(ctx.active, ctx.ones) == want
    assert solver.policy() == ref.policy()
    assert all(type(v) is int for v in solver._memo.values())


@settings(max_examples=200, deadline=None)
@given(tables_with_contexts() | monotone_games_with_contexts())
@example((table_game(CUTOFF_TABLE), Context(0b11111, 0)))
def test_memo_keeps_one_entry_per_settled_context(case):
    """Once min_horizon, horizons() and policy() have run, every memo key
    is a settled context with players left (no player of S gains when just
    O plays 1), and its value is still the PolicyNode recursion's, on games
    that need not satisfy any assumption."""
    game, ctx = case
    solver = SyncSolver(game)
    ref = PolicyNodeSolverReference(game)
    for targets in [game.all_players] + [1 << i for i in range(game.n)]:
        assert _horizon_or_error(solver, targets) == _horizon_or_error(ref, targets)
    assert _or_error(lambda: dict(solver.horizons())) == _or_error(lambda: dict(ref.horizons()))
    assert solver.policy() == ref.policy()
    assert solver.value(ctx.active, ctx.ones) == ref.value(ctx.active, ctx.ones)
    for (S, O), v in solver._memo.items():
        assert S != 0 and S & solver.gainers[O] == 0
        assert v == ref.value(S, O).value


# Tables that are not monotone, where fixed-point branching misses
# candidates: at (S, O) = (3, 0) it returns [] on both, where the scan finds
# [2] and [1, 2].  The first is a bare table (the solver reads nothing
# else); the second is a 2-player anti-coordination game, gainers [3, 1, 2, 0].
NON_MONOTONE_GAMES = [
    StageGame(2, lambda i, X: 0, table=lambda: ([0, 3, 2, 1], [3, 0, 1, 2])),
    table_game([[0, 1, 0, -1], [0, 0, 1, -1]]),
]


@pytest.mark.parametrize("game", NON_MONOTONE_GAMES)
def test_non_monotone_tables_keep_the_scan(game):
    solver = SyncSolver(game)
    ref = PolicyNodeSolverReference(game)
    for S in range(4):
        for O in submasks(3 & ~S):
            want = sss_scan(solver.gainers, S, O, True)
            assert solver._candidates(S, O) == want
            assert solver.value(S, O) == ref.value(S, O)
    for targets in (1, 2, 3):
        assert _horizon_or_error(solver, targets) == _horizon_or_error(ref, targets)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.booleans())
def test_outcome_sets_match_oracle(n, seed, spillovers):
    """outcome_set(T) is the brute-force MSPNE outcome set of the T-stage
    game, and least_outcome(T) its least element (T = 3 only up to three
    players, where the oracle stays fast)."""
    game = random_game(random.Random(seed), n, spillovers=spillovers)
    solver = SyncSolver(game)
    for T in (1, 2, 3) if n <= 3 else (1, 2):
        want = enumerate_equilibria(game, Sync(T), mode="mspne")
        assert set(solver.outcome_set(T)) == want
        least = solver.least_outcome(T)
        assert least in want and all(least & ~X == 0 for X in want)


# -- weakest-link games on their graph ------------------------------------------


# a triangle feeding a 2-cycle: at T = 2 the triangle alone is no outcome,
# since its residual 2-cycle follows it in; read on the whole graph, that
# residual would need the triangle's three stages
TRIANGLE_INTO_TWO_CYCLE = Digraph(5, [
    (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (3, 4), (4, 3), (0, 3),
])


@settings(max_examples=300, deadline=None)
@given(shaped_digraphs(), st.integers(0, 255), st.integers(0, 255))
@example(TRIANGLE_INTO_TWO_CYCLE, 0b11000, 0b00100)
def test_weakest_link_graph_path_matches_generic_recursion(g, some, other):
    game = weakest_link_game(g)
    # the same payoffs under the default kind take the generic recursion
    generic = StageGame(g.n, game._payoff)
    fast, slow = SyncSolver(game), SyncSolver(generic)
    assert fast.graph is not None and slow.graph is None
    full = game.all_players
    for targets in (full, some & full, other & full):
        assert fast.min_horizon(targets) == slow.min_horizon(targets)
    assert dict(fast.horizons()) == dict(slow.horizons())
    tau = fast.min_horizon(full)
    for T in range(1, tau + 1):
        assert fast.least_outcome(T) == slow.least_outcome(T)
        assert fast.outcome_set(T) == slow.outcome_set(T)  # residual contexts
        assert design(game, T, fast) == design(generic, T, slow)


def _count_scans(mp):
    """Route coordsolve.sync's two candidate scans, core.fixed_point_scan
    and core.sss_scan, through a counter; returns the list of contexts
    (S, O) scanned, in call order."""
    scanned = []
    for name in ("fixed_point_scan", "sss_scan"):

        def counted(gainers, S, O, *rest, _scan=getattr(sync, name)):
            scanned.append((S, O))
            return _scan(gainers, S, O, *rest)

        mp.setattr(sync, name, counted)
    return scanned


def test_weakest_link_full_context_solves_no_generic_context(monkeypatch):
    scanned = _count_scans(monkeypatch)
    rng = random.Random(1616)
    for _ in range(30):
        game = weakest_link_game(random_digraph(rng, rng.randint(1, 8), rng.uniform(0, 0.6)))
        solver = SyncSolver(game)
        tau = solver.min_horizon(game.all_players)
        solver.horizons()
        candidate_horizons(game, solver)
        weak_centrality(game, solver)
        design(game, tau, solver)
        assert solver._memo == {} and scanned == []


@settings(max_examples=200, deadline=None)
@given(tables_with_contexts() | monotone_games_with_contexts())
def test_each_scan_is_new_work(case):
    """_tau scans a context only when it has no exact value in _memo and no
    bound in _lower at or above the limit asked, so a context cut off
    earlier is scanned again only when asked with a higher limit; each of
    those scans writes one exact entry or one bound.  A candidate list is
    built once per context and solver, whoever asks for it: after horizon
    queries on the full game and on a fresh context and a policy rebuild,
    no (S, O) has reached either candidate scan twice, and the contexts
    scanned are exactly the keys of the solver's candidate cache."""
    game, ctx = case
    solver = SyncSolver(game)
    bound_writes = []
    tau_scans = []

    class Lower(dict):
        def __setitem__(self, key, value):
            bound_writes.append(key)
            super().__setitem__(key, value)

    solver._lower = Lower()
    scan = solver._scan

    def checked(S, O, limit=None):
        assert (S, O) not in solver._memo
        bound = solver._lower.get((S, O))
        assert bound is None or limit is None or bound < limit
        tau_scans.append((S, O))
        return scan(S, O, limit)

    solver._scan = checked

    def check_lists():
        assert len(scanned) == len(set(scanned))
        assert set(scanned) == solver._candidate_cache.keys()

    def check():
        assert len(tau_scans) == len(solver._memo) + len(bound_writes)
        check_lists()

    with pytest.MonkeyPatch.context() as mp:
        scanned = _count_scans(mp)
        _horizon_or_error(solver, game.all_players)
        _or_error(solver.horizons)
        check()
        _or_error(solver.horizons, ctx)
        check()
        # a policy rebuild reruns the scans of contexts already in _memo
        del solver._scan
        solver.policy()
        check_lists()


@settings(max_examples=200, deadline=None)
@given(
    tables_with_contexts()
    | monotone_games_with_contexts()
    | family_games().map(lambda game: (game, Context(game.all_players, 0))),
)
def test_kept_candidate_lists_match_a_fresh_scan(case):
    """Once horizon queries, a fresh context, a policy rebuild, the Nash
    listing and the outcome sets have all read candidate lists, the list
    kept for each context asked is the full submask scan of that (S, O)."""
    game, ctx = case
    solver = SyncSolver(game)
    asked = set()
    candidates = solver._candidates

    def recorded(S, O):
        asked.add((S, O))
        return candidates(S, O)

    solver._candidates = recorded
    _horizon_or_error(solver, game.all_players)
    _or_error(solver.horizons)
    _or_error(solver.horizons, ctx)
    solver.policy()
    solver.equilibria()
    _or_error(solver.outcome_set, 1)
    for S, O in asked:
        assert candidates(S, O) == sss_scan(solver.gainers, S, O, True)


def test_out_of_range_masks_name_the_stray_bits():
    wl = SyncSolver(weakest_link_game(Digraph(3, [(0, 1), (1, 2), (2, 0)])))
    table = SyncSolver(random_game(random.Random(0), 3))
    cases = [
        (lambda: wl.min_horizon(1 << 5), "[5]"),
        (lambda: wl.min_horizon(-1), "negative"),
        (lambda: wl.horizons(Context(0b1011, 0)), "[3]"),
        (lambda: table.min_horizon(0b1001), "[3]"),
        (lambda: table.min_horizon(1, Context(0b10111, 0)), "[4]"),
        (lambda: table.least_outcome(2, Context(1, 0b11000)), "[3, 4]"),
        (lambda: table.horizons(Context(-2, 0)), "negative"),
    ]
    for call, stray in cases:
        with pytest.raises(ValueError, match=re.escape(stray)):
            call()


# a 6-player game meeting the stage conditions whose horizon queries cut
# the context (58, 5) off at 3; policy() later asks it exactly, and it is 3
CUT_THEN_EXACT = random_game(random.Random(1404), 6)
# a 6-player game whose horizon queries cut the context (61, 2) off at 3,
# below its value 4
BOUND_BELOW_VALUE = random_game(random.Random(16), 6)


def test_cut_off_context_is_solved_when_asked_exactly():
    assert CUT_THEN_EXACT.report.satisfies_assumptions
    solver = SyncSolver(CUT_THEN_EXACT)
    for targets in [CUT_THEN_EXACT.all_players] + [1 << i for i in range(6)]:
        _horizon_or_error(solver, targets)
    assert solver._lower[58, 5] == 3 and (58, 5) not in solver._memo
    solver.policy()
    assert solver._memo[58, 5] == 3 and (58, 5) not in solver._lower


@settings(max_examples=200, deadline=None)
@given(
    tables_with_contexts()
    | monotone_games_with_contexts()
    | family_games().map(lambda game: (game, Context(game.all_players, 0))),
)
@example((CUT_THEN_EXACT, Context(CUT_THEN_EXACT.all_players, 0)))
@example((BOUND_BELOW_VALUE, Context(BOUND_BELOW_VALUE.all_players, 0)))
def test_limited_recursion_matches_uncut_reference(case):
    """Asked with limits, the recursion gives the values, policies,
    horizons and errors of the recursion that solved every branch exactly;
    every _memo value is exact and every _lower value is at most the exact
    one.  A context cut off so far, asked just above its bound, is exact
    below that limit and bounded at it otherwise, and asked with no limit
    it is solved."""
    game, ctx = case
    solver = SyncSolver(game)
    ref = UncutSyncSolverReference(game)
    for targets in [game.all_players] + [1 << i for i in range(game.n)]:
        assert _horizon_or_error(solver, targets) == _horizon_or_error(ref, targets)
    for where in (None, ctx):
        got = _or_error(lambda: dict(solver.horizons(where)))
        assert got == _or_error(lambda: dict(ref.horizons(where)))
    assert solver.policy() == ref.policy()
    assert solver.value(ctx.active, ctx.ones) == ref.value(ctx.active, ctx.ones)
    for key, v in solver._memo.items():
        assert v == ref._tau(*key)
    for key, bound in solver._lower.items():
        assert key not in solver._memo and bound <= ref._tau(*key)
    for key in list(solver._lower):
        exact = ref._tau(*key)
        bound = solver._lower.get(key)
        if bound is not None:
            got = solver._tau(*key, bound + 1)
            assert got == exact if exact <= bound else bound < got <= exact
        assert solver._tau(*key) == exact
        assert key in solver._memo and key not in solver._lower


# a source feeding a chain into a 2-cycle, and a vertex outside the context
# feeding a chain: in the context of everyone but vertex 4, the source
# cascade forces 0 and 1 in and the drop cascade takes 5 and 6 out
CASCADES = Digraph(7, [(0, 1), (1, 2), (2, 3), (3, 2), (4, 5), (5, 6)])


@settings(max_examples=300, deadline=None)
@given(
    shaped_digraphs(),
    st.integers(0, 255),
    st.integers(0, 255),
    st.integers(0, 255),
    st.integers(0, 255),
)
@example(CASCADES, 0b1101111, 0, 0b1000100, 0b1)
@example(CASCADES, 0b1101110, 0b1, 0b1100000, 0b100)
@example(TRIANGLE_INTO_TWO_CYCLE, 0b11011, 0b00100, 0b11000, 0b00001)
def test_weakest_link_graph_contexts_match_generic_recursion(
    g, active, ones, some, subsidized
):
    """In any context, the graph path's reduction, horizons and least
    outcomes are the generic recursion's, and so are intervention and
    strong centrality.  Players outside the context's active and forced
    sets are fixed at 0, so contexts exercise the drop cascade as well as
    the forced-in cascade from sources."""
    game = weakest_link_game(g)
    generic = StageGame(g.n, game._payoff)
    fast, slow = SyncSolver(game), SyncSolver(generic)
    full = game.all_players
    ctx = Context(active & full, ones & full & ~active)
    got, want = fast._reduce(ctx), slow._reduce(ctx)
    assert (got.reduced, got.forced, got.dropped) == (want.reduced, want.forced, want.dropped)
    for targets in (ctx.active, some & full, 1 << some % g.n):
        want = _horizon_or_error(slow, targets, ctx)
        assert _horizon_or_error(fast, targets, ctx) == want
    assert dict(fast.horizons(ctx)) == dict(slow.horizons(ctx))
    subsidy = subsidized & full
    for T in range(1, g.n + 2):
        assert fast.least_outcome(T, ctx) == slow.least_outcome(T, ctx)
        assert intervention(game, subsidy, T, fast) == intervention(generic, subsidy, T, slow)
    assert strong_centrality(game, fast) == strong_centrality(generic, slow)
    assert sorted_coalitions(fast.equilibria()) == ne_set(generic)


def test_weakest_link_queries_build_no_table(monkeypatch):
    rng = random.Random(2323)
    refuse_family_table_builds(monkeypatch)
    for _ in range(30):
        n = rng.randint(1, 8)
        game = weakest_link_game(random_digraph(rng, n, rng.uniform(0, 0.6)))
        solver = SyncSolver(game)
        tau = solver.min_horizon(game.all_players)
        solver.horizons()
        candidate_horizons(game, solver)
        weak_centrality(game, solver)
        strong_centrality(game, solver)
        for T in range(1, tau + 1):
            solver.least_outcome(T)
            solver.outcome_set(T)
            intervention(game, 1 << rng.randrange(n), T, solver)
        design(game, tau, solver)
        node = solver.policy()
        assert replay(node) == node.value == tau
        S = rng.getrandbits(n)
        O = rng.getrandbits(n) & ~S
        generic = SyncSolver(StageGame(n, game._payoff))
        assert solver.value(S, O) == generic.value(S, O)


def test_weakest_link_losers_leave_the_view_in_gainers():
    # nothing in the package reads losers on a family solver; a caller who
    # does gets the table, and the view stays
    game = weakest_link_game(CASCADES)
    solver = SyncSolver(game)
    view = solver.gainers
    losers = solver.losers
    assert solver.gainers is view and isinstance(view, RuleGains)
    full = game.all_players
    assert all(losers[C] == full ^ view[C] for C in range(full + 1))


def test_thirty_player_weakest_link_solver_builds_no_table(monkeypatch):
    # a table would have 2^30 cells; the graph path needs tree-depth only
    refuse_family_table_builds(monkeypatch)
    rng = random.Random(30)
    n = 30
    edges = [(j, i) for i in range(n) for j in rng.sample([v for v in range(n) if v != i], 2)]
    g = Digraph(n, edges)
    game = weakest_link_game(g)
    solver = SyncSolver(game)
    tau = solver.min_horizon(game.all_players)
    assert tau == weakest_link_horizon(g, game.all_players) == 5
    taus = solver.horizons()
    assert sorted(taus) == list(range(n)) and max(taus.values()) == tau
    assert taus[0] == weakest_link_horizon(g, 1)


def _horizon_or_error(solver, targets, ctx=None):
    return _or_error(solver.min_horizon, targets, ctx)


def _or_error(query, *args):
    try:
        return query(*args)
    except PreconditionError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    family_games().filter(lambda game: game.kind in ("threshold", "aggregative")),
    st.integers(0, 63),
    st.integers(0, 63),
    st.integers(0, 63),
)
def test_family_contexts_match_their_table_twin(game, active, ones, some):
    """A threshold or aggregative game, which reduces by closure and lists
    its Nash profiles as fixed points, answers every query in any context
    as the table game of the same payoffs, which declares nothing and takes
    the scans.  The games are unconstrained, so some queries refuse, with
    the same message on both."""
    n = game.n
    twin = table_game([[game.payoff(i, X) for X in range(1 << n)] for i in range(n)])
    fast, slow = SyncSolver(game), SyncSolver(twin)
    full = game.all_players
    ctx = Context(active & full, ones & full & ~active)
    got, want = fast._reduce(ctx), slow._reduce(ctx)
    assert (got.reduced, got.forced, got.dropped) == (want.reduced, want.forced, want.dropped)
    assert fast.equilibria() == slow.equilibria()
    for targets in (full, ctx.active, some & full, 1 << some % n):
        assert _horizon_or_error(fast, targets) == _horizon_or_error(slow, targets)
        assert _horizon_or_error(fast, targets, ctx) == _horizon_or_error(slow, targets, ctx)
    horizons = [_or_error(lambda s: dict(s.horizons(ctx)), s) for s in (fast, slow)]
    assert horizons[0] == horizons[1]
    for T in range(1, n + 2):
        assert _or_error(fast.least_outcome, T, ctx) == _or_error(slow.least_outcome, T, ctx)
        assert _or_error(fast.outcome_set, T) == _or_error(slow.outcome_set, T)


@settings(max_examples=300, deadline=None)
@given(family_games())
def test_equilibria_match_the_payoff_reference_in_order(game):
    """`coordsolve ne` prints equilibria() as it comes, so it must list
    every pure Nash profile in ne_set's (cardinality, lexicographic) order,
    on table games with ties and on family games that break the stage
    assumptions too."""
    assert SyncSolver(game).equilibria() == ne_set_reference(game)


# the graph path is chosen by constructor, not by `kind`: a bare payoff
# labelled "weakest_link", with no params or with a foreign 3-cycle, keeps
# the generic recursion.  Rows: players 0 and 1 gain from action 1 always,
# player 2 ties everywhere; then the payoffs of the DAG 0 -> 1 -> 2.
_TIE_ROWS = ([0, 1, 0, 1, 0, 1, 0, 1], [0, 0, 2, 2, 0, 0, 2, 2], [0] * 8)
_LABEL_PAYOFFS = [
    lambda i, X: _TIE_ROWS[i][X],
    weakest_link_game(Digraph(3, [(0, 1), (1, 2)]))._payoff,
]


@pytest.mark.parametrize(
    "params", [None, {"edges": ((0, 1), (1, 2), (2, 0))}], ids=["bare", "cycle"]
)
@pytest.mark.parametrize("pay", _LABEL_PAYOFFS, ids=["ties", "dag"])
def test_weakest_link_label_alone_keeps_the_generic_recursion(pay, params):
    labelled = StageGame(3, pay, kind="weakest_link", params=params)
    plain = StageGame(3, pay)
    a, b = SyncSolver(labelled), SyncSolver(plain)
    assert a.graph is None and a.depths is None
    horizons = [_horizon_or_error(b, X) for X in range(8)]
    assert [_horizon_or_error(a, X) for X in range(8)] == horizons
    assert any(isinstance(h, str) for h in horizons) or horizons[7] == 1
    if horizons[7] == 1:
        assert design(labelled, 1, a) == design(plain, 1, b)
