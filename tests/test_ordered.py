import random

import pytest

from coordsolve import (
    PreconditionError,
    aggregative_game,
    aggregative_min_horizon,
    classify,
    generate,
    mask_of,
    ordered_min_horizon,
)
from coordsolve.core import gains, submasks
from coordsolve.ordered import _chain_reaches
from coordsolve.sync import SyncSolver

from util import chain_sequence_reference, cross_pairs_game


# -- classify -------------------------------------------------------------------


def test_aggregative_is_strongly_ordered_and_natural():
    flags = classify(aggregative_game((1, 2, 3, 3)))
    assert flags.strongly_cost_ordered
    assert flags.cost_ordered
    assert flags.contribution_ordered
    assert flags.contribution_natural


def test_aligned_nsg_is_ordered():
    game = generate("aligned_nsg", in_starts=(2, 2, 4, 4, 5, 4), nested=False)
    flags = classify(game)
    assert flags.cost_ordered and flags.contribution_ordered
    assert not flags.strongly_cost_ordered
    assert not flags.contribution_natural


def test_nested_aligned_family_is_ordered():
    game = generate("aligned_nsg", in_starts=(3, 2, 2, 1, 1))
    flags = classify(game)
    assert flags.cost_ordered and flags.contribution_ordered


def test_cross_pairs_not_contribution_ordered():
    # The linked-pairs game keeps the cost order (both chain readings agree)
    # but fails contribution order, with a concrete witness.
    flags = classify(cross_pairs_game())
    assert not flags.contribution_ordered
    assert "contribution_ordered" in flags.witnesses
    i, j, k, X = flags.witnesses["contribution_ordered"]
    game = cross_pairs_game()
    assert game.payoff(k, X | (1 << i) | (1 << k)) > game.payoff(k, X | (1 << i))
    assert not (
        game.payoff(k, X | (1 << j) | (1 << k)) > game.payoff(k, X | (1 << j))
    )
    assert flags.cost_ordered


def test_chain_readings_agree_on_ordered_games():
    """The closure reading of the cost-order chain clause agrees with the
    literal sequence search at every (i, j, X) of classify's cost-order loop:
    those where j gains at X, which classify checks, and the rest too, so
    that a closure admitting non-gainers cannot pass on cost-ordered games."""
    for game in (
        aggregative_game((1, 1, 2)),
        generate("aligned_nsg", in_starts=(2, 2, 4, 4, 5, 4), nested=False),
        cross_pairs_game(),
    ):
        visited = 0
        for j in range(game.n):
            for i in range(j):
                pool = game.all_players & ~(1 << i) & ~(1 << j)
                for X in submasks(pool):
                    visited += gains(game, j, X)
                    assert _chain_reaches(game, i, j, X) == chain_sequence_reference(
                        game, i, j, X
                    )
        assert visited


# -- fast recursion ---------------------------------------------------------------


def test_homogeneous_fast_path():
    for n, k in ((4, 1), (5, 2), (6, 4)):
        game = aggregative_game((k,) * n)
        assert ordered_min_horizon(game, game.all_players) == k + 1


def test_heterogeneous_small_case():
    game = aggregative_game((1, 1, 2))
    assert ordered_min_horizon(game, game.all_players) == 2


def test_fast_path_needs_order_flags():
    with pytest.raises(PreconditionError):
        ordered_min_horizon(cross_pairs_game(), mask_of((0, 1)))


def test_fast_path_matches_recursion_on_aggregatives():
    rng = random.Random(271)
    for _ in range(20):
        n = rng.randint(2, 8)
        c = sorted(rng.randint(1, n - 1) for _ in range(n))
        game = aggregative_game(c)
        flags = classify(game)
        solver = SyncSolver(game)
        targets = [game.all_players] + [1 << rng.randrange(n) for _ in range(2)]
        for X in targets:
            assert ordered_min_horizon(game, X, flags=flags) == solver.min_horizon(X)


def test_fast_path_matches_recursion_on_nsg_games():
    rng = random.Random(828)
    hits = 0
    while hits < 12:
        n = rng.randint(2, 7)
        starts = sorted((rng.randint(0, n - 1) for _ in range(n)), reverse=True)
        try:
            game = generate("aligned_nsg", in_starts=starts)
        except ValueError:
            continue
        hits += 1
        flags = classify(game)
        solver = SyncSolver(game)
        for X in [game.all_players] + [1 << i for i in range(n)]:
            if X & solver.dropped:
                continue
            assert ordered_min_horizon(game, X, flags=flags) == solver.min_horizon(X)


def test_fast_path_exact_on_loose_six_player_instance():
    # this loose (non-nested) instance still happens to be exact
    game = generate("aligned_nsg", in_starts=(2, 2, 4, 4, 5, 4), nested=False)
    flags = classify(game)
    assert ordered_min_horizon(game, game.all_players, flags=flags) == 2


def test_delete_highest_counterexample_outside_nested_class():
    """Cost- and contribution-ordered interval game where the
    delete-highest recursion overshoots: the nesting gate must reject it, and
    the general recursion stays the authority."""
    from coordsolve import Digraph, weakest_link_game

    starts = (0, 0, 1)
    with pytest.raises(ValueError):
        generate("aligned_nsg", in_starts=starts)
    edges = [(j, i) for i, s in enumerate(starts) for j in range(s, 3) if j != i]
    game = weakest_link_game(Digraph(3, edges))
    flags = classify(game)
    assert flags.cost_ordered and flags.contribution_ordered
    assert ordered_min_horizon(game, game.all_players, flags=flags) == 3
    assert SyncSolver(game).min_horizon(game.all_players) == 2


# -- accelerated sweep -------------------------------------------------------------


def test_sweep_homogeneous():
    for n in range(2, 11):
        for k in range(1, n):
            assert aggregative_min_horizon((k,) * n, n) == k + 1


def test_sweep_small_trace():
    assert aggregative_min_horizon((1, 1, 2), 3) == 2


def test_sweep_steepest_vector():
    for n in range(3, 10):
        for k in range(1, n - 1):
            c = [min(k + i, n - 1) for i in range(n)]
            assert aggregative_min_horizon(c, n) <= k + 1


def test_sweep_validates_input():
    with pytest.raises(ValueError):
        aggregative_min_horizon((2, 1), 2)
    with pytest.raises(ValueError):
        aggregative_min_horizon((0, 1), 2)
    with pytest.raises(ValueError):
        aggregative_min_horizon((1, 2), 3)


def test_sweep_matches_full_recursion():
    rng = random.Random(929)
    for _ in range(40):
        n = rng.randint(2, 9)
        c = sorted(rng.randint(1, n - 1) for _ in range(n))
        game = aggregative_game(c)
        assert aggregative_min_horizon(c, n) == SyncSolver(game).min_horizon(
            game.all_players
        )


# -- generators ---------------------------------------------------------------------


def test_generate_aggregative_flags():
    game = generate("aggregative", c=(1, 2, 3, 3))
    flags = classify(game)
    assert flags.strongly_cost_ordered and flags.contribution_natural


def test_generate_aggregative_rejects_unsorted():
    with pytest.raises(ValueError):
        generate("aggregative", c=(2, 1))


def test_generate_reproduces_loose_interval_graph():
    game = generate(
        "aligned_nsg",
        in_starts=(2, 2, 4, 4, 5, 4),
        out_ends=(0, 0, 2, 2, 6, 5),
        nested=False,
    )
    expected = set()
    for i, s in enumerate((2, 2, 4, 4, 5, 4)):
        for j in range(s, 6):
            if j != i:
                expected.add((j, i))
    assert set(game.params["edges"]) == expected


def test_generate_rejects_inconsistent_out_intervals():
    with pytest.raises(ValueError):
        generate(
            "aligned_nsg",
            in_starts=(2, 2, 4, 4, 5, 4),
            out_ends=(6,) * 6,
            nested=False,
        )


def test_generate_opposed_complete():
    n = 4
    game = generate("opposed_nsg", in_starts=(0,) * n, k=(1, 1, 2, 2))
    flags = classify(game)
    assert flags.strongly_cost_ordered and flags.contribution_ordered
    # complete bidirected graph
    assert len(game.params["edges"]) == n * (n - 1)


def test_generated_games_pass_assumptions():
    from coordsolve import check_assumptions

    for game in (
        generate("aggregative", c=(1, 2, 2)),
        generate("aligned_nsg", in_starts=(2, 2, 4, 4, 5, 4), nested=False),
        generate("aligned_nsg", in_starts=(3, 2, 2, 1, 1)),
        generate("opposed_nsg", in_starts=(0, 0, 0), k=(1, 1, 2)),
    ):
        rep = check_assumptions(game)
        assert rep.satisfies_assumptions
