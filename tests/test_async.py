import random

import pytest
from hypothesis import example, given, settings, strategies as st

from coordsolve import (
    Digraph,
    Partition,
    ResourceLimitError,
    StageGame,
    aggregative_game,
    best_achievable,
    check_sufficient_feasible,
    design_schedule,
    ieseds,
    intervention,
    least_ne,
    mask_of,
    members,
    ne_set,
    reduce_to_weakest_link,
    table_game,
    weakest_link_game,
)
from coordsolve import asyncgame, oracle
from coordsolve.asyncgame import _history_cost
from coordsolve.core import submasks
from coordsolve.sync import SyncSolver

from util import (
    EXACT_PAYOFFS,
    cross_pairs_game,
    family_games,
    ieseds_reference,
    ieseds_record,
    ieseds_sweep_reference,
    random_digraph,
    random_game,
    random_partition,
    seven_player_design_game,
    star_graph,
    two_triangles_game,
)


# -- ieseds -------------------------------------------------------------------


def test_seven_player_unique_schedule_reaches_everyone():
    game = seven_player_design_game()
    p = Partition([mask_of((0, 3)), mask_of((1, 2, 4, 5, 6))])
    table = ieseds(game, p)
    assert table.outcome == game.all_players
    assert table.on_path == (mask_of((0, 3)), mask_of((1, 2, 4, 5, 6)))


def test_cross_pairs_fully_sequential():
    game = cross_pairs_game()
    p = Partition([1 << i for i in range(4)])
    assert ieseds(game, p).outcome == game.all_players


def test_single_cell_gives_least_ne():
    rng = random.Random(12)
    for _ in range(10):
        game = random_game(rng, rng.randint(2, 5))
        p = Partition([game.all_players])
        assert ieseds(game, p).outcome == least_ne(game)


def test_on_path_replays_from_table():
    game = two_triangles_game()
    p, _ = design_schedule(game, 3)
    table = ieseds(game, p)
    h = 0  # union of the moves played so far
    prefix = 0
    for t, cell in enumerate(p.cells):
        assert sorted(table.stage_actions[t]) == sorted(submasks(prefix))
        played = table.stage_actions[t][h]
        assert played == table.on_path[t]
        assert played & ~cell == 0
        h |= played
        prefix |= cell
    assert h == table.outcome


def test_history_budget_enforced():
    game = random_game(random.Random(0), 6)
    p = Partition([1 << i for i in range(6)])
    with pytest.raises(ResourceLimitError):
        ieseds(game, p, budget=10)


def test_history_budget_boundary():
    game = random_game(random.Random(0), 6)
    p = Partition([mask_of((2, 4)), 1 << 0, 0, mask_of((1, 3, 5))])
    cost = _history_cost(p.cells)
    assert ieseds(game, p, budget=cost).outcome == ieseds(game, p).outcome
    with pytest.raises(ResourceLimitError) as info:
        ieseds(game, p, budget=cost - 1)
    assert info.value.size == cost


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_history_cost_counts_every_payoff_read(n, seed):
    rng = random.Random(seed)
    game = random_game(rng, n) if n >= 2 else table_game([[0, 1]])
    reads = []

    def pay(i, X):
        reads.append((i, X))
        return game.payoff(i, X)

    counted = StageGame(n, pay)
    p = random_partition(rng, n)
    assert ieseds(counted, p) == ieseds(game, p)
    assert len(reads) == _history_cost(p.cells)


@pytest.mark.parametrize(
    "game",
    [
        weakest_link_game(random_digraph(random.Random(3), 6)),
        aggregative_game((1, 5, 2, 3, 1, 4)),
    ],
    ids=lambda game: game.kind,
)
def test_history_cost_counts_every_row_mask_on_family_games(game):
    """On a schedule mixing one- and two-player cells a family game takes
    the list sweep, which reads every stage's rows, the one-player stages'
    included: the charge is exactly its row masks, 2 + 16 + 16 + 128."""
    p = Partition([1 << 3, mask_of((0, 5)), 1 << 1, mask_of((2, 4))])
    cost = _history_cost(p.cells)
    assert cost == 162
    want = ieseds(game, p)
    masks = []
    row = game.payoff_row

    def counted(i, ms):
        masks.extend(ms)
        return row(i, ms)

    game.payoff_row = counted
    assert ieseds(game, p, budget=cost) == want
    assert len(masks) == cost
    masks.clear()
    with pytest.raises(ResourceLimitError) as info:
        ieseds(game, p, budget=cost - 1)
    assert info.value.size == cost
    assert masks == []


def test_large_cell_refused_before_any_read():
    # everyone's action 1 is strictly dominant, in one 18-player cell
    reads = []

    def pay(i, X):
        reads.append((i, X))
        return X >> i & 1

    game = StageGame(18, pay)
    with pytest.raises(ResourceLimitError) as info:
        ieseds(game, Partition([game.all_players]), budget=100)
    assert info.value.size == 18 * 2**18 == 4_718_592
    assert reads == []


# Player 0 moves first and alone, and its least move is 1; players 1 and 2
# then share a cell, where player 1 is indifferent whenever player 2 plays 1.
IESEDS_TIES = [
    [-1, 0, 1, 1, 0, 1, 0, 0],
    [0, -1, -1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, -1],
]


def draw_schedule(draw, rng, n):
    """A singleton, random or single-cell schedule of n players, sometimes
    with an empty cell inserted."""
    shape = draw(st.sampled_from(["singleton", "random", "single"]))
    if shape == "singleton":
        cells = [1 << i for i in rng.sample(range(n), n)]
    elif shape == "random":
        cells = list(random_partition(rng, n).cells)
    else:
        cells = [(1 << n) - 1]
    if draw(st.booleans()):
        cells.insert(draw(st.integers(0, len(cells))), 0)
    return Partition(cells)


@st.composite
def games_with_schedules(draw):
    """An assumption-satisfying or an unconstrained exact table (ties and
    Fractions) on a draw_schedule schedule."""
    n = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if n >= 2 and draw(st.booleans()):
        game = random_game(rng, n)
    else:
        size = 1 << n
        game = table_game(
            [draw(st.lists(EXACT_PAYOFFS, min_size=size, max_size=size)) for _ in range(n)]
        )
    return game, draw_schedule(draw, rng, n)


@st.composite
def family_games_with_schedules(draw):
    """A family_games game, whose stages read the family's own payoff rows,
    on a draw_schedule schedule."""
    game = draw(family_games())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return game, draw_schedule(draw, rng, game.n)


@settings(max_examples=300, deadline=None)
@given(games_with_schedules())
@example((table_game(IESEDS_TIES), Partition([1 << 0, mask_of((1, 2))])))
def test_sweep_matches_lazy_recursion_reference(case):
    """The bottom-up sweep over union-mask histories gives the lazy tuple
    recursion's outcome and path, and the same least move at every history
    the recursion reached."""
    game, p = case
    got = ieseds(game, p)
    assert ieseds_record(got) == ieseds_sweep_reference(game, p)
    want = ieseds_reference(game, p)
    assert got.outcome == want.outcome
    assert got.on_path == want.on_path
    for t, reached in enumerate(want.stage_actions):
        for h, least in reached.items():
            union = 0
            for m in h:
                union |= m
            assert got.stage_actions[t][union] == least


@settings(max_examples=300, deadline=None)
@given(family_games_with_schedules())
def test_family_rows_give_the_payoff_read_sweep(case):
    """On family games, where each stage reads the family's row primitive
    and a one-player cell compares its row's halves, the table equals the
    sweep that read _payoff into full stage tables, and the path and
    outcome equal the lazy recursion's."""
    game, p = case
    got = ieseds(game, p)
    assert ieseds_record(got) == ieseds_sweep_reference(game, p)
    want = ieseds_reference(game, p)
    assert (got.on_path, got.outcome) == (want.on_path, want.outcome)


@st.composite
def rule_games_on_one_mover_schedules(draw):
    """A family game with rules on a schedule of its players one at a time,
    in random order, with up to two empty cells inserted."""
    game = draw(family_games().filter(lambda game: game._rules is not None))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cells = [1 << i for i in rng.sample(range(game.n), game.n)]
    for _ in range(draw(st.integers(0, 2))):
        cells.insert(draw(st.integers(0, len(cells))), 0)
    return game, Partition(cells)


@settings(max_examples=300, deadline=None)
@given(rule_games_on_one_mover_schedules())
def test_rule_games_move_alone_by_the_movers_rule(case):
    """On a schedule of one-player and empty cells of a game with rules,
    every stage reads the mover's rule and no payoff, and the record is
    built only when read: then label, least and stage_actions give the
    sweep that read _payoff into full stage tables."""
    game, p = case
    want = ieseds_sweep_reference(game, p)

    def no_read(*args):
        raise AssertionError("a one-player stage of a rule game read payoffs")

    game.payoff_row = game._payoff = no_read
    got = ieseds(game, p)
    assert not {"least", "label", "stage_actions"} & vars(got).keys()
    label = got.label
    assert [dict(zip(label, map(label.__getitem__, least))) for least in got.least] == (
        want.stage_actions
    )
    assert ieseds_record(got) == want


@settings(max_examples=300, deadline=None)
@given(rule_games_on_one_mover_schedules())
def test_rule_games_give_the_record_of_their_payoff_twin(case):
    """A game with rules and the game built from its bare payoff function,
    whose stages read and compare payoff rows, give the same table on the
    same one-mover schedule."""
    game, p = case
    got = ieseds(game, p)
    want = ieseds(StageGame(game.n, game._payoff), p)
    assert (got.outcome, got.on_path, got.label, got.least) == (
        want.outcome,
        want.on_path,
        want.label,
        want.least,
    )
    assert got.stage_actions == want.stage_actions


@settings(max_examples=100, deadline=None)
@given(games_with_schedules())
def test_stage_actions_are_built_only_when_read(case):
    """ieseds keeps each stage as a list in move order and builds no dict;
    stage_actions, built on first read, is the sweep's per-stage dicts."""
    game, p = case
    with pytest.MonkeyPatch.context() as m:

        def no_dict(*args, **kwargs):
            raise AssertionError("ieseds built a dict")

        m.setattr(asyncgame, "dict", no_dict, raising=False)
        got = ieseds(game, p)
    assert "stage_actions" not in vars(got)
    assert got.stage_actions == ieseds_sweep_reference(game, p).stage_actions
    assert "stage_actions" in vars(got)


def test_partition_must_cover():
    game = cross_pairs_game()
    with pytest.raises(ValueError):
        ieseds(game, Partition([1 << 0, 1 << 1]))


# -- best_achievable ----------------------------------------------------------


def test_two_triangles_achievable():
    game = two_triangles_game()
    assert best_achievable(game, 2) == 0
    assert best_achievable(game, 3) == game.all_players


def test_seven_player_t2_everyone():
    game = seven_player_design_game()
    assert best_achievable(game, 2) == game.all_players


def test_large_horizon_everyone():
    rng = random.Random(88)
    for _ in range(8):
        game = random_game(rng, rng.randint(2, 5))
        assert best_achievable(game, game.n) == game.all_players


# -- design -------------------------------------------------------------------


def test_seven_player_design_cells():
    game = seven_player_design_game()
    p, achieved = design_schedule(game, 2)
    assert achieved == game.all_players
    assert p.cells == (mask_of((0, 3)), mask_of((1, 2, 4, 5, 6)))
    assert ieseds(game, p).outcome == achieved


def test_star_design_center_first():
    game = weakest_link_game(star_graph(5))
    p, achieved = design_schedule(game, 2)
    assert achieved == game.all_players
    assert p.cells[0] == 1 << 0
    assert p.cells[1] == mask_of(range(1, 6))


def test_design_t1_least_ne():
    rng = random.Random(23)
    for _ in range(8):
        game = random_game(rng, rng.randint(2, 5))
        p, achieved = design_schedule(game, 1)
        assert achieved == least_ne(game)
        assert p.horizon == 1
        assert p.cells[0] == game.all_players


def test_design_reproduced_by_ieseds_random():
    rng = random.Random(34)
    for _ in range(20):
        game = random_game(rng, rng.randint(2, 5))
        solver = SyncSolver(game)
        for T in range(1, 5):
            p, achieved = design_schedule(game, T, solver=solver)
            assert len(p.cells) == T
            assert achieved == solver.least_outcome(T)
            assert ieseds(game, p).outcome == achieved


@pytest.mark.parametrize("T", [0, -1, -3])
def test_schedule_builders_refuse_horizons_below_one(T):
    # a two-player table, and one player forced to 1 outright
    for game in (table_game([[0, 1, 0, 2], [0, 0, 1, 2]]), table_game([[0, 1]])):
        solver = SyncSolver(game)
        with pytest.raises(ValueError, match="horizon must be positive"):
            solver.least_outcome(T)
        with pytest.raises(ValueError, match="horizon must be positive"):
            solver.outcome_set(T)
        with pytest.raises(ValueError, match="horizon must be positive"):
            intervention(game, 1, T)
        with pytest.raises(ValueError, match="horizon must be positive"):
            design_schedule(game, T)
        with pytest.raises(ValueError, match="horizon must be positive"):
            oracle.support_strategy(game, T, 0)
        with pytest.raises(ValueError, match="horizon must be positive"):
            best_achievable(game, T)


def test_splitting_a_cell_never_hurts():
    rng = random.Random(45)
    for _ in range(12):
        game = random_game(rng, rng.randint(2, 5))
        n = game.n
        players = list(range(n))
        rng.shuffle(players)
        cut = rng.randint(1, n)
        cells = [mask_of(players[:cut]), mask_of(players[cut:])]
        cells = [c for c in cells if c]
        base = ieseds(game, Partition(cells)).outcome
        big = max(range(len(cells)), key=lambda idx: cells[idx].bit_count())
        mem = members(cells[big])
        if len(mem) < 2:
            continue
        half = len(mem) // 2
        split = (
            cells[:big]
            + [mask_of(mem[:half]), mask_of(mem[half:])]
            + cells[big + 1 :]
        )
        refined = ieseds(game, Partition(split)).outcome
        assert base & ~refined == 0


# -- check_sufficient_feasible --------------------------------------------------


def test_designed_output_is_sufficient_feasible():
    rng = random.Random(56)
    for _ in range(10):
        game = random_game(rng, rng.randint(2, 5))
        solver = SyncSolver(game)
        T = rng.randint(1, game.n)
        p, achieved = design_schedule(game, T, solver=solver)
        if achieved == 0:
            continue
        sg = reduce_to_weakest_link(game, solver=solver)
        assert check_sufficient_feasible(game, sg.graph, p, achieved)


def test_edgeless_graph_not_sufficient():
    game = cross_pairs_game()
    g = Digraph(4, [])
    p = Partition([game.all_players])
    assert not check_sufficient_feasible(game, g, p, game.all_players)


def test_component_inside_one_cell_fails():
    game = cross_pairs_game()
    sg = reduce_to_weakest_link(game)
    p = Partition([game.all_players])  # both linked pairs move together
    assert not check_sufficient_feasible(game, sg.graph, p, game.all_players)


# -- equivalence with the oracle ------------------------------------------------


def test_async_mspne_outcomes_are_stage_equilibria():
    rng = random.Random(67)
    for _ in range(8):
        game = random_game(rng, rng.randint(2, 4))
        n = game.n
        players = list(range(n))
        rng.shuffle(players)
        cut = rng.randint(1, n)
        cells = [c for c in (mask_of(players[:cut]), mask_of(players[cut:])) if c]
        outs = oracle.enumerate_equilibria(
            game, oracle.Async(Partition(cells)), mode="mspne"
        )
        eqs = set(ne_set(game))
        assert outs and outs <= eqs


def test_ieseds_matches_oracle_least():
    rng = random.Random(78)
    for _ in range(8):
        game = random_game(rng, rng.randint(2, 4))
        n = game.n
        players = list(range(n))
        rng.shuffle(players)
        cut = rng.randint(1, n)
        cells = [c for c in (mask_of(players[:cut]), mask_of(players[cut:])) if c]
        p = Partition(cells)
        outs = oracle.enumerate_equilibria(game, oracle.Async(p), mode="mspne")
        forced = ieseds(game, p).outcome
        # the action-1 set of the least survivor is exactly what every
        # equilibrium guarantees
        assert all(forced & ~o == 0 for o in outs)
        assert any(o == forced for o in outs)


def _minimal_sets_within(game, i, pool):
    from itertools import combinations

    elems = members(pool & ~(1 << i))
    found = []
    for size in range(len(elems) + 1):
        for combo in combinations(elems, size):
            E = mask_of(combo)
            if any(f & E == f for f in found):
                continue
            if game.payoff(i, E | (1 << i)) > game.payoff(i, E):
                found.append(E)
    return found


def _exists_feasible_graph(game, p, M):
    """Exhaustive search over M-minimal-sufficient graphs for one compatible
    with the schedule."""
    from itertools import product as iproduct

    order = list(members(M))
    choices = []
    for i in order:
        sets = _minimal_sets_within(game, i, M)
        if not sets:
            return False
        choices.append(sets)
    for combo in iproduct(*choices):
        edges = []
        for i, E in zip(order, combo):
            edges += [(j, i) for j in members(E)]
        g = Digraph(game.n, edges)
        if check_sufficient_feasible(game, g, p, M):
            return True
    return False


def test_three_way_characterization_exhaustive():
    """Guaranteed-by-every-equilibrium == forced by backward elimination ==
    covered by some feasible sufficient graph, on tiny instances."""
    rng = random.Random(90)
    for _ in range(4):
        game = random_game(rng, rng.randint(2, 4), spillovers=False)
        n = game.n
        players = list(range(n))
        rng.shuffle(players)
        cut = rng.randint(1, n)
        cells = [c for c in (mask_of(players[:cut]), mask_of(players[cut:])) if c]
        p = Partition(cells)
        forced = ieseds(game, p).outcome
        outs = oracle.enumerate_equilibria(game, oracle.Async(p), mode="mspne")
        full = game.all_players
        for M in range(1, full + 1):
            guaranteed = all(M & ~o == 0 for o in outs)
            eliminated = M & ~forced == 0
            graphical = any(
                _exists_feasible_graph(game, p, S)
                for S in range(full + 1)
                if S & M == M
            )
            assert guaranteed == eliminated == graphical, (
                members(M),
                members(forced),
            )


def test_three_way_equivalence_small():
    rng = random.Random(89)
    for _ in range(6):
        game = random_game(rng, rng.randint(2, 4), spillovers=False)
        solver = SyncSolver(game)
        n = game.n
        for T in (1, 2):
            p, achieved = design_schedule(game, T, solver=solver)
            table = ieseds(game, p)
            assert table.outcome == achieved
            outs = oracle.enumerate_equilibria(game, oracle.Async(p), mode="mspne")
            assert all(achieved & ~o == 0 for o in outs)
            if achieved:
                sg = reduce_to_weakest_link(game, solver=solver)
                assert check_sufficient_feasible(game, sg.graph, p, achieved)
