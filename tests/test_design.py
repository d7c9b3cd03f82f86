import random

from coordsolve import (
    Context,
    Digraph,
    aggregative_game,
    candidate_horizons,
    horizon_count_bound,
    intervention,
    mask_of,
    members,
    ne_set,
    strong_centrality,
    table_game,
    weak_centrality,
    weakest_link_game,
)
from coordsolve.sync import SyncSolver

from util import (
    clique_edges,
    count_table_builds,
    cross_pairs_game,
    hub_intervention_graph,
    ne_set_reference,
    planted_game,
    random_digraph,
    random_game,
    two_triangles_game,
)


def disjoint_cliques_game(sizes):
    edges = []
    off = 0
    for s in sizes:
        edges += clique_edges(s, off)
        off += s
    return weakest_link_game(Digraph(off, edges))


# -- candidate_horizons ---------------------------------------------------------


def test_cliques_two_three():
    game = disjoint_cliques_game((2, 3))
    ledger = candidate_horizons(game)
    assert ledger.bound == 3
    assert [(t, members(m)) for t, m in ledger.candidates] == [
        (2, (0, 1)),
        (3, (0, 1, 2, 3, 4)),
    ]


def test_homogeneous_aggregative_single_candidate():
    for n, k in ((4, 2), (5, 3)):
        game = aggregative_game((k,) * n)
        ledger = candidate_horizons(game)
        assert [t for t, _ in ledger.candidates] == [k + 1]
        assert ledger.candidates[0][1] == game.all_players


def test_all_dominant_single_candidate_t1():
    game = table_game([[0, 1, 0, 2], [0, 0, 1, 2]])  # both dominant 1
    ledger = candidate_horizons(game)
    assert [(t, m) for t, m in ledger.candidates] == [(1, mask_of((0, 1)))]


def test_ledger_bound_random():
    rng = random.Random(144)
    for _ in range(25):
        game = random_game(rng, rng.randint(2, 8))
        ledger = candidate_horizons(game)
        assert len(ledger.candidates) <= ledger.bound
        ts = [t for t, _ in ledger.candidates]
        assert ts == sorted(ts)
        masks = [m for _, m in ledger.candidates]
        for a, b in zip(masks, masks[1:]):
            assert a & ~b == 0 and a != b


def test_clique_family_attains_growth_bound():
    for sizes in ((2, 3), (2, 3, 4)):
        game = disjoint_cliques_game(sizes)
        ledger = candidate_horizons(game)
        assert len(ledger.candidates) == horizon_count_bound(game.n) - 1


def degenerate_and_graph_games():
    """Games with players forced in or out by iterated dominance, and
    weakest-link games on random digraphs (sources are forced in)."""
    rng = random.Random(188)
    for _ in range(15):
        yield planted_game(rng, rng.randint(1, 4))
    for _ in range(15):
        yield weakest_link_game(random_digraph(rng, rng.randint(2, 7), 0.3))


def test_ledger_is_the_growth_loop():
    forced = dropped = 0
    for game in degenerate_and_graph_games():
        solver = SyncSolver(game)
        forced += solver.forced_one != 0
        dropped += solver.dropped != 0
        grown, prev = [], 0
        for T in range(1, game.n + 1):
            cur = solver.least_outcome(T)
            if cur & ~prev:
                grown.append((T, cur))
            prev = cur
        assert candidate_horizons(game).candidates == grown
    assert forced >= 15 and dropped >= 15


# -- centrality -----------------------------------------------------------------


def test_hub_game_single_class():
    game = weakest_link_game(hub_intervention_graph())
    ranked = weak_centrality(game)
    assert len(ranked) == 1
    value, mask = ranked[0]
    assert value == 4 and mask == game.all_players


def test_cliques_two_classes():
    game = disjoint_cliques_game((2, 3))
    ranked = weak_centrality(game)
    assert [(v, members(m)) for v, m in ranked] == [(2, (0, 1)), (3, (2, 3, 4))]


def test_single_player_one_class():
    game = table_game([[0, 1]])
    assert weak_centrality(game) == [(1, 1)]


def test_cross_pairs_strong_centrality():
    game = cross_pairs_game()
    M = strong_centrality(game)
    assert M[0][2] and M[1][3]
    assert not M[2][0]


def test_two_triangles_strong_centrality():
    game = two_triangles_game()
    M = strong_centrality(game)
    assert not M[0][3] and not M[3][0]
    for i in (0, 1, 2, 3, 4, 5):
        assert M[i][6] and M[i][7]
        assert not M[6][i]


def test_weak_centrality_groups_singleton_horizons():
    for game in degenerate_and_graph_games():
        solver = SyncSolver(game)
        groups = {}
        for i in range(game.n):
            if not (solver.dropped >> i) & 1:
                tau = solver.min_horizon(1 << i)
                groups[tau] = groups.get(tau, 0) | 1 << i
        want = sorted(groups.items())
        if solver.dropped:
            want.append((None, solver.dropped))
        assert weak_centrality(game) == want


def test_strong_implies_weak():
    rng = random.Random(155)
    for _ in range(20):
        game = random_game(rng, rng.randint(2, 5))
        M = strong_centrality(game)
        solver = SyncSolver(game)
        horizon = {}
        for i in range(game.n):
            bit = 1 << i
            horizon[i] = (
                None if bit & solver.dropped else solver.min_horizon(bit)
            )
        for i in range(game.n):
            for j in range(game.n):
                if M[i][j] and horizon[j] is not None:
                    assert horizon[i] is not None
                    assert horizon[i] <= horizon[j]


def test_strong_centrality_reads_a_given_solver_table(monkeypatch):
    rng = random.Random(177)
    built = count_table_builds(monkeypatch)
    for _ in range(20):
        game = random_game(rng, rng.randint(2, 5))
        solver = SyncSolver(game)
        solver.losers  # the solver builds its table on first read
        built.clear()
        M = strong_centrality(game, solver)
        assert built == []
        equilibria = ne_set_reference(game)
        for i in range(game.n):
            for j in range(game.n):
                assert M[i][j] == all(X >> i & 1 for X in equilibria if X >> j & 1)
        assert strong_centrality(game) == M
        assert len(built) == 1


def test_weak_class_count_within_bound():
    rng = random.Random(166)
    for _ in range(20):
        game = random_game(rng, rng.randint(2, 8))
        classes = weak_centrality(game)
        assert len(classes) <= horizon_count_bound(game.n)


# -- intervention -----------------------------------------------------------------


def test_hub_subsidy_unlocks_periphery():
    game = weakest_link_game(hub_intervention_graph())
    gain = intervention(game, 1 << 0, 1)
    assert gain == mask_of(range(4, 9))


def test_empty_subsidy_no_gain():
    game = two_triangles_game()
    assert intervention(game, 0, 2) == 0


def test_full_subsidy_leaves_no_followers():
    game = two_triangles_game()
    assert intervention(game, game.all_players, 2) == 0


def test_single_subsidy_sandwich_random():
    # forcing any one player in saves at most one stage toward everyone, on
    # games that satisfy the assumptions with no player dominated out
    rng = random.Random(177)
    for _ in range(15):
        game = random_game(rng, rng.randint(2, 6))
        solver = SyncSolver(game)
        intervention(game, 1 << rng.randrange(game.n), rng.randint(1, 3), solver)
        assert not solver.dropped and game.report.satisfies_assumptions
        full = game.all_players
        whole = solver.min_horizon(full)
        for i in range(game.n):
            rest = full & ~(1 << i)
            sub = solver.min_horizon(rest, ctx=Context(rest, 1 << i))
            assert sub <= whole <= sub + 1


def test_dominated_player_skips_the_assumption_report():
    # intervention reads no assumption report, so none is computed
    game = planted_game(random.Random(3), 3)
    solver = SyncSolver(game)
    assert solver.dropped
    intervention(game, 1, 1, solver=solver)
    assert "report" not in game.__dict__
