import random

import pytest
from hypothesis import example, given, settings, strategies as st

from coordsolve import (
    Digraph,
    PreconditionError,
    ResourceLimitError,
    aggregative_game,
    aggregative_min_horizon,
    classify,
    generate,
    mask_of,
    ordered_min_horizon,
    table_game,
    weakest_link_game,
)
from coordsolve.core import gains, incentive_table, submasks
from coordsolve import ordered
from coordsolve.ordered import _chain_reaches
from coordsolve.sync import SyncSolver

from util import (
    chain_sequence_reference,
    classify_reference,
    cross_pairs_game,
    ordered_min_horizon_reference,
    random_aggregative,
    random_digraph,
    random_game,
)


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
        gainers, _ = incentive_table(game)
        visited = 0
        for j in range(game.n):
            for i in range(j):
                pool = game.all_players & ~(1 << i) & ~(1 << j)
                for X in submasks(pool):
                    visited += gains(game, j, X)
                    assert _chain_reaches(
                        gainers, game.all_players, i, j, X
                    ) == chain_sequence_reference(game, i, j, X)
        assert visited


# Families that satisfy single crossing by construction.  The interval one,
# weakest-link games on upward in-interval digraphs (nested or not), is mostly
# cost- and contribution-ordered, so it reaches the fast path.
COMPLIANT = ("table", "weakest_link", "aggregative", "interval")


@st.composite
def compliant_games(draw, family):
    """A game of one COMPLIANT family on 2..7 players."""
    n = draw(st.integers(2, 7))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if family == "table":
        return random_game(rng, n)
    if family == "weakest_link":
        return weakest_link_game(random_digraph(rng, n))
    if family == "aggregative":
        return random_aggregative(rng, n)[0]
    starts = [rng.randint(0, n) for _ in range(n)]
    edges = [(j, i) for i, s in enumerate(starts) for j in range(s, n) if j != i]
    return weakest_link_game(Digraph(n, edges))


@st.composite
def raw_tables(draw):
    """Integer payoff tables on 2..5 players, no assumption enforced; the
    small range makes ties common."""
    n = draw(st.integers(2, 5))
    cells = st.lists(st.integers(-2, 2), min_size=1 << n, max_size=1 << n)
    return table_game([draw(cells) for _ in range(n)])


def _horizon_or_error(horizon, game, targets, flags):
    try:
        return horizon(game, targets, flags=flags)
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


def _assert_matches_raw_payoff_reference(game, extra_target):
    """Same flags and witnesses as the raw-payoff classify, and the same
    horizon or PreconditionError for every target."""
    flags = classify(game)
    ref = classify_reference(game)
    assert flags == ref
    targets = [game.all_players, extra_target & game.all_players]
    targets += [1 << i for i in range(game.n)]
    for X in targets:
        assert _horizon_or_error(
            ordered_min_horizon, game, X, flags
        ) == _horizon_or_error(ordered_min_horizon_reference, game, X, ref)


@pytest.mark.parametrize("family", COMPLIANT)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_table_reading_matches_raw_payoffs_on_compliant_games(family, data):
    game = data.draw(compliant_games(family))
    _assert_matches_raw_payoff_reference(game, data.draw(st.integers(0, 127)))


@settings(max_examples=150, deadline=None)
@given(game=raw_tables(), target=st.integers(0, 31))
# a prefix whose members all gain but is no Nash profile: player 1 gains too
@example(game=table_game([[1, 2, -2, -2], [2, -2, -1, -1]]), target=1)
def test_table_reading_matches_raw_payoffs_on_raw_tables(game, target):
    _assert_matches_raw_payoff_reference(game, target)


@pytest.mark.parametrize("family", COMPLIANT)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_strong_cost_order_implies_weak_under_single_crossing(family, data):
    game = data.draw(compliant_games(family))
    assert game.report.single_crossing
    flags = classify(game)
    if flags.strongly_cost_ordered:
        assert flags.cost_ordered


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


def test_fast_path_builds_one_table_without_flags(monkeypatch):
    built = []

    def counted(game):
        built.append(game)
        return incentive_table(game)

    monkeypatch.setattr(ordered, "incentive_table", counted)
    rng = random.Random(314)
    for _ in range(10):
        game, _ = random_aggregative(rng, rng.randint(2, 6))
        target = rng.randrange(1 << game.n)
        built.clear()
        got = ordered_min_horizon(game, target)
        assert len(built) == 1
        assert got == ordered_min_horizon(game, target, classify(game))
    built.clear()
    with pytest.raises(PreconditionError):
        ordered_min_horizon(cross_pairs_game(), mask_of((0, 1)))
    assert len(built) == 1


def test_fast_path_refuses_an_unaffordable_classification_before_any_table(monkeypatch):
    def refuse(game):
        raise AssertionError("table built before the budget check")

    monkeypatch.setattr(ordered, "incentive_table", refuse)
    game = aggregative_game((1,) * 14)
    with pytest.raises(ResourceLimitError):
        ordered_min_horizon(game, game.all_players)
    with pytest.raises(ResourceLimitError):
        classify(game)


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
