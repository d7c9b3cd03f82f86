import random

import pytest
from hypothesis import example, given, settings, strategies as st

from coordsolve import (
    Context,
    Digraph,
    PreconditionError,
    Sync,
    aggregative_game,
    enumerate_equilibria,
    mask_of,
    members,
    ne_set,
    table_game,
    weakest_link_game,
)
from coordsolve.core import bits
from coordsolve.graphical import threshold_game
from coordsolve.sync import SyncSolver

from util import (
    PolicyNodeSolverReference,
    cross_pairs_game,
    cycle_graph,
    dominate_chain_reference,
    hub_intervention_graph,
    iesds_reference,
    planted_game,
    random_game,
    random_rooted_digraph,
    random_threshold_vector,
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


def test_sss_and_sse_recursions_agree():
    rng = random.Random(6060)
    for _ in range(12):
        game = random_game(rng, rng.randint(2, 5))
        a = SyncSolver(game, use_sse=True)
        b = SyncSolver(game, use_sse=False)
        for X in range(1 << game.n):
            assert a.min_horizon(X) == b.min_horizon(X)


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
            for T in range(game.n + 1):
                least = forced
                for i, tau in want.items():
                    if tau is not None and tau <= T:
                        least |= 1 << i
                assert solver.least_outcome(T, ctx=ctx) == least


def test_policy_tree_replays_its_value():
    def replay(node):
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

    rng = random.Random(808)
    for _ in range(15):
        game = random_game(rng, rng.randint(2, 5))
        solver = SyncSolver(game)
        node = solver.policy()
        assert replay(node) == node.value


@settings(max_examples=200, deadline=None)
@given(tables_with_contexts(), st.booleans())
def test_dominate_chain_matches_raw_payoff_reference(case, use_sse):
    """The free dominate steps at the head of value(S, O), read off the
    incentive table, are the raw-payoff cascade, on games that need not
    satisfy any assumption."""
    game, ctx = case
    node = SyncSolver(game, use_sse=use_sse).value(ctx.active, ctx.ones)
    chain = []
    while node.op == "dominate":
        chain.append(node.player)
        node = node.children[0]
    assert chain == dominate_chain_reference(game, ctx.active, ctx.ones)


def _horizon_or_error(solver, targets):
    try:
        return solver.min_horizon(targets)
    except PreconditionError as exc:
        return str(exc)


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
@given(tables_with_contexts(), st.booleans())
@example((table_game(CUTOFF_TABLE), Context(0b11111, 0)), True)
def test_int_memo_recursion_matches_policy_node_reference(case, use_sse):
    """The int-memo recursion with its cutoffs, and the trees rebuilt from
    it, equal the PolicyNode recursion that scans every branch, on games
    that need not satisfy any assumption: cold, and again once the memo is
    warm from the horizon queries."""
    game, ctx = case
    solver = SyncSolver(game, use_sse=use_sse)
    ref = PolicyNodeSolverReference(game, use_sse=use_sse)
    want = ref.value(ctx.active, ctx.ones)
    got = solver.value(ctx.active, ctx.ones)
    assert got == want and got.value == want.value
    for targets in [game.all_players] + [1 << i for i in range(game.n)]:
        assert _horizon_or_error(solver, targets) == _horizon_or_error(ref, targets)
    assert solver.value(ctx.active, ctx.ones) == want
    assert solver.policy() == ref.policy()
    assert all(type(v) is int for v in solver._memo.values())


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_outcome_sets_match_oracle(n, seed, spillovers, use_sse):
    """outcome_set(T) is the brute-force MSPNE outcome set of the T-stage
    game, and least_outcome(T) its least element (T = 3 only up to three
    players, where the oracle stays fast)."""
    game = random_game(random.Random(seed), n, spillovers=spillovers)
    solver = SyncSolver(game, use_sse=use_sse)
    for T in (1, 2, 3) if n <= 3 else (1, 2):
        want = enumerate_equilibria(game, Sync(T), mode="mspne")
        assert set(solver.outcome_set(T)) == want
        least = solver.least_outcome(T)
        assert least in want and all(least & ~X == 0 for X in want)
