import random

import pytest
from hypothesis import given, settings, strategies as st

from coordsolve import (
    Digraph,
    PreconditionError,
    ResourceLimitError,
    aggregative_game,
    check_assumptions,
    horizon_via_graphs,
    mask_of,
    members,
    minimal_satisfying_sets,
    ne_set,
    reduce_to_weakest_link,
    table_game,
    threshold_game,
    tree_depth,
    weakest_link_game,
    weakest_link_horizon,
)
from coordsolve import graphical
from coordsolve.core import bits, gains, submasks
from coordsolve.sync import SyncSolver

from util import (
    EXACT_PAYOFFS,
    cross_pairs_graph,
    cycle_graph,
    family_games,
    hub_intervention_graph,
    random_digraph,
    random_aggregative,
    random_game,
    random_rooted_digraph,
    random_threshold_vector,
    reduce_to_weakest_link_reference,
    shaped_digraphs,
    star_graph,
    two_triangles_game,
    two_triangles_graph,
)


# -- weakest_link_game --------------------------------------------------------


def test_star_game_extreme_equilibria():
    game = weakest_link_game(star_graph(4))
    eqs = ne_set(game)
    assert 0 in eqs and game.all_players in eqs


def test_edgeless_graph_gives_dominant_ones():
    game = weakest_link_game(Digraph(3, []))
    solver = SyncSolver(game)
    assert solver.forced_one == game.all_players
    assert solver.least_outcome(1) == game.all_players


def test_cross_pairs_equilibria():
    game = weakest_link_game(cross_pairs_graph())
    assert ne_set(game) == [0, mask_of((0, 1)), game.all_players]


def test_ne_characterization_random():
    rng = random.Random(404)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(1, 6), 0.4)
        game = weakest_link_game(g)
        for X in range(1 << g.n):
            is_eq = all(
                ((X >> i) & 1) == (1 if g.in_mask(i) & ~X == 0 else 0)
                for i in range(g.n)
            )
            assert is_eq == (X in set(ne_set(game)))


# -- weakest_link_horizon -----------------------------------------------------


def test_hub_graph_partial_horizon():
    g = hub_intervention_graph()
    assert weakest_link_horizon(g, mask_of(range(4, 9))) == 4


def test_star_full_horizon():
    assert weakest_link_horizon(star_graph(6), (1 << 7) - 1) == 2


def test_empty_target_degenerate():
    assert weakest_link_horizon(star_graph(3), 0) == 1


# -- minimal_satisfying_sets --------------------------------------------------


def test_weakest_link_minimal_sets_unique():
    g = cross_pairs_graph()
    game = weakest_link_game(g)
    for i in range(4):
        assert minimal_satisfying_sets(game, i) == [g.in_mask(i)]


def test_aggregative_minimal_sets_are_k_subsets():
    game = aggregative_game((2, 2, 2, 2))
    sets = minimal_satisfying_sets(game, 0)
    assert len(sets) == 3
    assert all(m.bit_count() == 2 for m in sets)


def test_dominant_player_minimal_set_empty():
    game = table_game([[0, 1, 0, 2], [0, 0, -1, 1]])
    assert minimal_satisfying_sets(game, 0) == [0]


def test_never_satisfied_player_rejected():
    game = table_game([[0, -1, 0, -1], [0, 0, -1, 1]])
    with pytest.raises(PreconditionError):
        minimal_satisfying_sets(game, 0)


# -- reduce_to_weakest_link ---------------------------------------------------


def test_two_triangles_reduction_depth_profile():
    game = two_triangles_game()
    sg = reduce_to_weakest_link(game)
    from coordsolve import scc

    depths = sorted(tree_depth(sg.graph, c)[0] for c in scc(sg.graph))
    assert depths == [2, 3, 3]
    assert weakest_link_horizon(sg.graph, game.all_players) == 3


def test_single_player_reduction():
    game = table_game([[0, 1]])
    sg = reduce_to_weakest_link(game)
    assert sg.graph.n == 1 and not sg.graph.edges
    assert tree_depth(sg.graph)[0] == 1


def test_forced_one_cascade_runs_lowest_player_first():
    # player 2 plays 1 outright; players 0 and 1 each want 1 once anyone else
    # does, so both join at the second step of the cascade.  Taking 0 before 1
    # gives 0 the edge from 2 and 1 the edge from 0.
    rows = [
        [((X >> i) & 1) * (2 * bool(X & ~(1 << i)) - 1) for X in range(8)]
        for i in (0, 1)
    ]
    game = table_game(rows + [[(X >> 2) & 1 for X in range(8)]])
    solver = SyncSolver(game)
    assert solver.forced_one == game.all_players
    assert sorted(reduce_to_weakest_link(game, solver=solver).graph.edges) == [(0, 1), (2, 0)]


@st.composite
def tables_with_forced_players(draw):
    """An unconstrained exact table game on 1..5 players in which a nonempty
    set of players gains 10 from action 1 everywhere, so that iterated
    dominance forces them in and, often, others after them."""
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(EXACT_PAYOFFS, min_size=1 << n, max_size=1 << n)) for _ in range(n)]
    for i in bits(draw(st.integers(1, (1 << n) - 1))):
        rows[i] = [v + 10 * (X >> i & 1) for X, v in enumerate(rows[i])]
    return table_game(rows)


def _edges_or_error(reduce, game):
    try:
        return sorted(reduce(game, SyncSolver(game)).graph.edges)
    except PreconditionError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(tables_with_forced_players())
def test_forced_one_cascade_matches_the_old_loop(game):
    """With forced players, on tables that need not satisfy any assumption,
    the reduction's graph (or refusal) is the one its hand-written cascade
    gave."""
    assert SyncSolver(game).forced_one
    want = _edges_or_error(reduce_to_weakest_link_reference, game)
    assert _edges_or_error(reduce_to_weakest_link, game) == want


@settings(max_examples=300, deadline=None)
@given(family_games())
def test_rule_games_prune_by_their_rules_as_the_table_search_did(game):
    """On family games, where each in-set is pruned by the player's rule
    (tables keep the search), the graph or the refusal is the reference's."""
    want = _edges_or_error(reduce_to_weakest_link_reference, game)
    assert _edges_or_error(reduce_to_weakest_link, game) == want


class _TwoWays:
    """A gains view over 18 players: player 17 gains exactly when {0, 1, 2}
    or {15, 16} plays 1, and nobody else ever gains."""

    def __getitem__(self, C):
        wins = C & 0b111 == 0b111 or C >> 15 & 0b11 == 0b11
        return wins << 17


def test_table_search_returns_the_smallest_set_on_any_pool():
    # 17 players in the pool, and 16 with player 3 left out: {0, 1, 2} is
    # inclusion-minimal too, but {15, 16} is smaller
    for pool in ((1 << 17) - 1, (1 << 17) - 1 & ~(1 << 3)):
        found = graphical._first_minimal_satisfying(_TwoWays(), 17, pool)
        assert members(found) == (15, 16)


class _StalledSolver(SyncSolver):
    """Claims every player is forced to 1 in a game where nobody is."""

    @property
    def forced_one(self):
        return self.game.all_players


def test_stalled_forced_one_cascade_raises_even_without_asserts():
    # two players who each gain only when the other plays 1
    game = table_game([[0, -1, 0, 1], [0, 0, -1, 1]])
    with pytest.raises(RuntimeError, match="stalled before"):
        reduce_to_weakest_link(game, solver=_StalledSolver(game))


def test_reduction_idempotent_on_weakest_link():
    rng = random.Random(2024)
    for _ in range(15):
        g = random_rooted_digraph(rng, rng.randint(2, 6))
        game = weakest_link_game(g)
        solver = SyncSolver(game)
        sg = reduce_to_weakest_link(game, solver=solver)
        for i in range(g.n):
            assert weakest_link_horizon(sg.graph, 1 << i) == solver.min_horizon(1 << i)


@settings(max_examples=300, deadline=None)
@given(shaped_digraphs())
def test_weakest_link_game_is_its_own_reduction(g):
    game = weakest_link_game(g)
    solver = SyncSolver(game)
    sg = reduce_to_weakest_link(game, solver=solver)
    assert sg.graph.edges == g.edges
    assert sg.graph.edges == reduce_to_weakest_link_reference(game, solver).graph.edges


def test_weakest_link_reduction_builds_no_solver_or_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the reduction built a solver or a digraph")

    g = cycle_graph(3)
    game = weakest_link_game(g)
    monkeypatch.setattr(graphical, "SyncSolver", refuse)
    monkeypatch.setattr(graphical, "Digraph", refuse)
    assert reduce_to_weakest_link(game).graph is g


def test_reduction_matches_recursion_random():
    rng = random.Random(3711)
    for _ in range(20):
        game = random_game(rng, rng.randint(2, 5))
        solver = SyncSolver(game)
        sg = reduce_to_weakest_link(game, solver=solver)
        for X in range(1 << game.n):
            if X & solver.dropped:
                continue
            assert weakest_link_horizon(sg.graph, X) == solver.min_horizon(X), (
                members(X),
                sorted(sg.graph.edges),
            )


def test_reduction_graph_is_sufficient():
    rng = random.Random(515)
    games = [random_game(rng, rng.randint(2, 5)) for _ in range(10)]
    for _ in range(5):
        g = random_rooted_digraph(rng, rng.randint(2, 6))
        games.append(threshold_game(g, random_threshold_vector(rng, g)))
        games.append(random_aggregative(rng, rng.randint(2, 6))[0])
    for game in games:
        sg = reduce_to_weakest_link(game)
        for i in range(game.n):
            E = sg.graph.in_mask(i)
            assert game.payoff(i, E | (1 << i)) > game.payoff(i, E)
            # pruned off the incentive table or the rule, minimal by raw payoffs
            assert gains(game, i, E)
            assert not any(gains(game, i, sub) for sub in submasks(E) if sub != E)


def test_sandwich_bound_over_sufficient_supergraphs():
    rng = random.Random(626)
    for _ in range(10):
        game = random_game(rng, rng.randint(2, 5), spillovers=False)
        solver = SyncSolver(game)
        sg = reduce_to_weakest_link(game, solver=solver)
        edges = set(sg.graph.edges)
        # add random extra edges: still sufficient, horizon may only grow
        for _ in range(3):
            i, j = rng.randrange(game.n), rng.randrange(game.n)
            if i != j:
                edges.add((i, j))
        fat = Digraph(game.n, edges)
        for i in range(game.n):
            assert solver.min_horizon(1 << i) <= weakest_link_horizon(fat, 1 << i)


# -- horizon_via_graphs -------------------------------------------------------


def test_via_graphs_weakest_link_is_direct():
    g = cross_pairs_graph()
    game = weakest_link_game(g)
    for X in range(1 << 4):
        assert horizon_via_graphs(game, X) == weakest_link_horizon(g, X)


def test_via_graphs_aggregative():
    game = aggregative_game((1, 1, 2))
    solver = SyncSolver(game)
    assert horizon_via_graphs(game, game.all_players) == 2
    for i in range(3):
        assert horizon_via_graphs(game, 1 << i) == solver.min_horizon(1 << i)


def test_via_graphs_two_triangles_full():
    game = two_triangles_game()
    assert horizon_via_graphs(game, game.all_players) == 3


def test_via_graphs_budget():
    game = aggregative_game((2,) * 6)
    with pytest.raises(ResourceLimitError) as info:
        horizon_via_graphs(game, game.all_players, budget=10)
    assert info.value.size == 10**6 * 2**6  # C(5,2)^6 combinations, 2^6 each
