import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coordsolve import (
    Async,
    Partition,
    PreconditionError,
    ResourceLimitError,
    Sync,
    enumerate_equilibria,
    mask_of,
    members,
    support_strategy,
    table_game,
    weakest_link_game,
)
from coordsolve import oracle
from coordsolve.errors import DEFAULT_BUDGET
from coordsolve.oracle import (
    _Budget,
    _monotone_selections,
    _verify_mspne,
)
from coordsolve.sync import SyncSolver

from util import (
    EXACT_PAYOFFS,
    TupleStrategyProfile,
    _async_histories,
    _histories,
    _sorted_with_predecessors as all_pairs_order,
    _sync_histories,
    _unpruned_selections,
    cross_pairs_game,
    cycle_graph,
    free_rider_game,
    iesds_reference,
    mixed_two_player_game,
    mspne_build_costs,
    mspne_build_counts,
    mspne_reference,
    move_tuple,
    random_digraph,
    random_game,
    random_partition,
    reference_stages,
    schedule_movers,
    spillover_pair_games,
    spne_reference,
    tuple_engine_outcomes,
    tuple_mspne_outcomes,
    tuple_profile,
    tuple_schedule,
    tuple_spne_outcomes,
    tuple_support_strategy,
    tuple_verify_mspne,
    two_triangles_game,
    unpruned_mspne_outcomes,
    entry_profile,
    verify_mspne_reference,
)


# -- counterexample reproductions -------------------------------------------------


def test_mixed_game_commitment_flips_outcome():
    game = mixed_two_player_game()
    outs = enumerate_equilibria(game, Sync(2), mode="mspne")
    assert outs == {mask_of((0, 1))}


def test_free_rider_game_has_no_least():
    outs = enumerate_equilibria(free_rider_game(), Sync(2), mode="mspne")
    assert outs == {mask_of((0, 2)), mask_of((1, 2))}
    minimal = {
        o for o in outs if not any(p != o and p & ~o == 0 for p in outs)
    }
    assert minimal == outs  # two minimal outcomes, hence no least element


def test_cross_pairs_spne_vs_mspne():
    game = cross_pairs_game()
    spne = enumerate_equilibria(game, Sync(2), mode="spne")
    mspne = enumerate_equilibria(game, Sync(2), mode="mspne")
    assert spne == {mask_of((0, 1)), game.all_players}
    assert mspne == {game.all_players}


def test_spillover_perturbation_prunes_spne():
    plain, perturbed = spillover_pair_games()
    full = plain.all_players
    assert enumerate_equilibria(plain, Sync(3), mode="spne") == {
        mask_of((0, 1, 2)),
        full,
    }
    assert enumerate_equilibria(perturbed, Sync(3), mode="spne") == {full}


def test_async_spne_outside_stage_equilibria():
    # dominant-1 leader, follower pair mirrors him: a non-Nash SPNE outcome
    def pay(i, X):
        a = [(X >> k) & 1 for k in range(3)]
        if i == 0:
            return a[0] + a[1] + a[2]
        if i == 1:
            return a[1] * (2 * a[2] - 1)
        return a[2] * (2 * a[1] - 1)

    game = table_game([[pay(i, X) for X in range(8)] for i in range(3)])
    p = Partition([1 << 0, mask_of((1, 2))])
    least, _ = iesds_reference(game)
    assert least == 1 << 0  # the leader's action 1 is strictly dominant
    spne = enumerate_equilibria(game, Async(p), mode="spne")
    assert mask_of((1, 2)) in spne  # followers punish the pledge: not a stage NE
    mspne = enumerate_equilibria(game, Async(p), mode="mspne")
    assert mspne <= spne
    assert all(o & (1 << 0) for o in mspne)  # monotone threats cannot deter him


# -- schedules and caps -----------------------------------------------------------


def test_sync_history_counts():
    movers = [0b111] * 3
    stages = [oracle._sorted_with_predecessors(3, movers, t)[0] for t in range(3)]
    assert [len(s) for s in stages] == [1, 8, 27]
    assert stages[2][:3] == [(2, 2, 2), (1, 2, 2), (2, 1, 2)]  # nobody, then one late entrant


def test_budget_cap_raises():
    game = random_game(random.Random(1), 4)
    with pytest.raises(ResourceLimitError):
        enumerate_equilibria(game, Sync(3), budget=50)


@pytest.mark.parametrize(
    "schedule",
    [Sync(2), Async(Partition([mask_of((0, 1)), mask_of((2, 3))]))],
    ids=["sync", "async"],
)
def test_spne_budget_cap_raises(schedule):
    game = random_game(random.Random(1), 4)
    with pytest.raises(ResourceLimitError):
        enumerate_equilibria(game, schedule, mode="spne", budget=5)


def test_default_budget_is_the_cli_default():
    assert enumerate_equilibria.__defaults__ == ("mspne", DEFAULT_BUDGET)


CELLS = [0b011, 0b100, 0b1000]


@pytest.mark.parametrize(
    "n, schedule, cost",
    [
        # stage s: 3 (s+1)^3 entries, 3 s (s+1)^2 covers, (s+2)^3 profiles
        # and 6 (s+2)^2 deviations
        (3, Sync(3), (3 + 0 + 8 + 24) + (24 + 12 + 27 + 54) + (81 + 54 + 64 + 96)),
        # stage s with m earlier movers and a k-player cell: 4 2^m entries,
        # m 2^(m-1) covers, 2^(m+k) profiles and k 2^(m+k) deviations
        (4, Async(Partition(CELLS)), (4 + 0 + 4 + 8) + (16 + 4 + 8 + 8) + (32 + 12 + 16 + 16)),
    ],
    ids=["sync", "async"],
)
def test_mspne_poset_is_paid_for_before_it_is_built(monkeypatch, n, schedule, cost):
    game = random_game(random.Random(1), n)

    def reached(*args):
        raise AssertionError("poset reached")

    monkeypatch.setattr(oracle, "_sorted_with_predecessors", reached)
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_equilibria(game, schedule, budget=cost - 1)
    assert exc.value.size == cost
    with pytest.raises(AssertionError, match="poset reached"):
        enumerate_equilibria(game, schedule, budget=cost)


@pytest.mark.parametrize(
    "n, schedule, cost",
    [
        # 3 2^3 payoff reads; stage 0 from the empty profile, stages 1 and
        # 2 from any of 2^3
        (3, Sync(3), 3 * 2**3 + 2**3 + 2 * 3**3),
        # 4 2^4 payoff reads; 2^(|earlier cells| + |cell t|) per stage
        (4, Async(Partition(CELLS)), 4 * 2**4 + 2**2 + 2**3 + 2**4),
    ],
    ids=["sync", "async"],
)
def test_spne_is_paid_for_before_it_is_solved(monkeypatch, n, schedule, cost):
    game = random_game(random.Random(1), n)
    want = spne_reference(game, schedule, _Budget(cost))
    assert enumerate_equilibria(game, schedule, mode="spne", budget=cost) == want
    with monkeypatch.context() as m:

        def reached(*args):
            raise AssertionError("SPNE solved")

        m.setattr(oracle, "_spne", reached)
        with pytest.raises(ResourceLimitError) as exc:
            enumerate_equilibria(game, schedule, mode="spne", budget=cost - 1)
    assert exc.value.size == cost
    assert str(exc.value) == f"oracle enumeration exceeded {cost - 1} steps"


def test_long_one_player_horizon_fits_the_default_budget():
    # a stage-t history is one entry stage, not t profiles: the build
    # charge used to pass 10^7 here (10,027,260), mostly history slots
    assert enumerate_equilibria(table_game([[0, 1]]), Sync(400)) == {1}


def test_four_player_three_stage_reach():
    # enumerated once per distinct continuation, this fits the default budget
    game = weakest_link_game(cycle_graph(4))
    assert enumerate_equilibria(game, Sync(3)) == {0b1111}


def test_all_ties_reach_every_outcome():
    # every stage map is admissible; the search stops once all eight values
    # are found instead of exhausting the default budget
    game = table_game([[0] * 8] * 3)
    assert enumerate_equilibria(game, Sync(3)) == set(range(8))


def test_bad_schedule_arguments():
    game = mixed_two_player_game()
    with pytest.raises(ValueError):
        enumerate_equilibria(game, Sync(0))
    with pytest.raises(ValueError):
        enumerate_equilibria(game, "later", mode="mspne")
    with pytest.raises(ValueError):
        enumerate_equilibria(game, Sync(2), mode="trembling")


# -- the memoised engine against the one that reruns every continuation ----------


# (players, stages); stages None means a random Async partition
ORACLE_SHAPES = [(n, T) for n in (2, 3, 4) for T in (1, 2, 3, None) if (n, T) != (4, 3)]


@st.composite
def oracle_games(draw, n, T):
    """An assumption-satisfying table, a weakest-link game, or (where the
    reference engine can afford it) an unconstrained exact table with ties,
    which can leave a history with no admissible stage map."""
    families = ["table", "weakest_link"]
    if n <= 3 and T != 3:  # indifference multiplies the monotone profiles
        families.append("unconstrained")
    family = draw(st.sampled_from(families))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if family == "table":
        return random_game(rng, n)
    if family == "weakest_link":
        return weakest_link_game(random_digraph(rng, n))
    size = 1 << n
    return table_game(
        [draw(st.lists(EXACT_PAYOFFS, min_size=size, max_size=size)) for _ in range(n)]
    )


@pytest.mark.parametrize("n, T", ORACLE_SHAPES, ids=lambda v: "async" if v is None else str(v))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mspne_matches_reference_engine(n, T, data):
    game = data.draw(oracle_games(n, T))
    if T is None:
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        schedule = Async(random_partition(rng, n))
    else:
        schedule = Sync(T)
    assert enumerate_equilibria(game, schedule, mode="mspne") == mspne_reference(
        game, schedule
    )


# -- the stage walk against the per-schedule builders and the recursion -----------


@st.composite
def schedules(draw, n, max_T=4):
    """Sync(T) with T <= max_T, or n players dealt into up to n + 1 Async
    cells, so that a cell is sometimes empty."""
    if draw(st.booleans()):
        return Sync(draw(st.integers(1, max_T)))
    cells = [0] * draw(st.integers(1, n + 1))
    for i in range(n):
        cells[draw(st.integers(0, len(cells) - 1))] |= 1 << i
    return Async(Partition(cells))


def differential_games(n, schedule):
    """oracle_games for the schedule's shape; one player gets an exact table,
    where ties can leave a subgame with no pure SPNE."""
    if n == 1:
        return st.lists(EXACT_PAYOFFS, min_size=2, max_size=2).map(lambda row: table_game([row]))
    return oracle_games(n, schedule.T if isinstance(schedule, Sync) else None)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_histories_match_the_reference_builders(n, data):
    # each stage's entry histories, read as move tuples, are the reference
    # builders' histories, each once
    schedule = data.draw(schedules(n))
    if isinstance(schedule, Sync):
        want = _sync_histories(n, schedule.T)
    else:
        want = _async_histories(schedule.partition.cells)
    movers = schedule_movers(table_game([[0] * (1 << n)] * n), schedule)
    for t, hs in enumerate(want):
        order, _ = oracle._sorted_with_predecessors(n, movers, t)
        got = [move_tuple(movers, t, e) for e in order]
        assert sorted(got) == sorted(hs) and len(set(got)) == len(got)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_spne_matches_the_recursion(n, data):
    # equal outcome sets, and equal step totals, so every budget answers or
    # refuses alike; an SPNE refusal's size is the whole cost
    schedule = data.draw(schedules(n))
    game = data.draw(differential_games(n, schedule))
    spent = _Budget(10**9)
    want = spne_reference(game, schedule, spent)
    spent.spend(n << n)  # each player's payoff row, read once
    assert enumerate_equilibria(game, schedule, mode="spne", budget=spent.used) == want
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_equilibria(game, schedule, mode="spne", budget=spent.used - 1)
    assert exc.value.size == spent.used


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_entry_stage_oracle_matches_the_move_tuple_oracle(n, data):
    # equal MSPNE and SPNE outcome sets, and equal MSPNE search steps once
    # the build charge is left out: both engines answer, or run out of
    # 10^5 steps, alike and step for step
    schedule = data.draw(schedules(n, max_T=3))
    game = data.draw(differential_games(n, schedule))

    def run(engine, *args):
        spent = _Budget(10**5)
        try:
            return engine(game, *args, spent), spent.used
        except ResourceLimitError:
            return None, spent.used

    got = run(oracle._mspne_outcomes, schedule_movers(game, schedule))
    assert got == run(tuple_engine_outcomes, schedule)
    assert enumerate_equilibria(game, schedule, mode="spne") == tuple_spne_outcomes(game, schedule)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_mspne_steps_match_the_reference_histories(n, data):
    schedule = data.draw(schedules(n, max_T=3))
    game = data.draw(differential_games(n, schedule))
    stages, moves_of, _ = reference_stages(game, schedule)
    spent = _Budget(10**9)
    spent.spend(sum(mspne_build_costs(n, schedule)))
    want = tuple_mspne_outcomes(game, stages, moves_of, spent)
    assert enumerate_equilibria(game, schedule, budget=spent.used) == want
    with pytest.raises(ResourceLimitError):
        enumerate_equilibria(game, schedule, budget=spent.used - 1)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_mspne_build_charge_counts_what_is_built(n, data):
    # the closed forms against the entries, covers, stage profiles and
    # deviations of the histories the oracle builds, and the charge a
    # refusal reports before any search step
    schedule = data.draw(schedules(n, max_T=4))
    game = table_game([[0] * (1 << n)] * n)
    costs = mspne_build_costs(n, schedule)
    assert mspne_build_counts(n, schedule_movers(game, schedule)) == costs
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_equilibria(game, schedule, budget=sum(costs) - 1)
    assert exc.value.size == sum(costs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_covers_match_the_all_pairs_order(n, data):
    # the order, read as move tuples, is the all-pairs order of the
    # reference histories; the covers' transitive closure is the all-pairs
    # predecessor sets; the MSPNE engine answers, or runs out of a small
    # budget, alike and step for step (four players over three stages can
    # take over 10^8 steps)
    schedule = data.draw(schedules(n, max_T=3))
    game = data.draw(differential_games(n, schedule))
    stages, _, _ = reference_stages(game, schedule)
    movers = schedule_movers(game, schedule)
    cover_order = oracle._sorted_with_predecessors
    for t, hs in enumerate(stages):
        order, covers = cover_order(n, movers, t)
        want, preds = all_pairs_order(hs)
        assert [move_tuple(movers, t, e) for e in order] == want
        assert max(map(len, covers)) <= n
        below = []  # covers index earlier histories, so one pass closes them
        for c in covers:
            below.append(set(c).union(*(below[j] for j in c)))
        assert below == [set(p) for p in preds]

    def all_pairs(n, movers, t):
        order, _ = cover_order(n, movers, t)
        return order, all_pairs_order([move_tuple(movers, t, e) for e in order])[1]

    def run():
        spent = _Budget(10**5)
        try:
            return oracle._mspne_outcomes(game, movers, spent), spent.used
        except ResourceLimitError:
            return None, spent.used

    got = run()
    with mock.patch.object(oracle, "_sorted_with_predecessors", all_pairs):
        assert run() == got


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_pruned_mspne_matches_the_unpruned_engine(n, data):
    # the same outcome sets as the engine before same-outcome pruning, int
    # payoffs and the explicit stack (memoised, recursive, on Fraction
    # payoffs), wherever both finish within 10^5 search steps
    schedule = data.draw(schedules(n, max_T=3))
    game = data.draw(differential_games(n, schedule))
    T, moves_of, _ = tuple_schedule(game, schedule)
    stages = _histories(T, moves_of)
    movers = schedule_movers(game, schedule)

    def run(engine, *args):
        try:
            return engine(game, *args, _Budget(10**5))
        except ResourceLimitError:
            return None

    want = run(unpruned_mspne_outcomes, stages, moves_of)
    got = run(oracle._mspne_outcomes, movers)
    if want is not None and got is not None:
        assert got == want


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_selections_yield_the_unpruned_continuations(n, data):
    # on a stage's own covers, with drawn admissible options and outcomes
    # (few, so that they tie), the pruned search yields exactly the
    # continuations the unpruned one yields, wherever that fits 10^5 steps
    schedule = data.draw(schedules(n, max_T=3))
    game = table_game([[0] * (1 << n)] * n)
    T, moves_of, _ = tuple_schedule(game, schedule)
    movers = schedule_movers(game, schedule)
    t = data.draw(st.integers(0, T - 1))
    order, covers = oracle._sorted_with_predecessors(n, movers, t)
    options, values = [], []
    for e in order:
        legal = sorted(a for a, _ in moves_of(t, move_tuple(movers, t, e)))
        opts = sorted(data.draw(st.sets(st.sampled_from(legal), min_size=1)))
        options.append(opts)
        values.append({a: data.draw(st.integers(0, 2)) for a in opts})
    try:
        want = {
            tuple(vals[a] for vals, a in zip(values, sel))
            for sel in _unpruned_selections(covers, options, _Budget(10**5))
        }
    except ResourceLimitError:
        return
    got = _monotone_selections(covers, options, values, _Budget(10**5))
    assert set(map(tuple, got)) == want


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("row, want", [([0, 1], {1}), ([1, 0], {0}), ([0, 0], {0, 1})])
def test_long_horizon_mspne_takes_no_frame_per_stage(row, want):
    # 60 stages with only 40 Python frames to spare: the walk over the
    # continuations keeps its own stack
    game = table_game([row])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        got = enumerate_equilibria(game, Sync(60))
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), T=st.integers(1, 3), data=st.data())
def test_verify_mspne_matches_the_all_pairs_check(n, T, data):
    # monotone, irreversible profiles (stage t adds `extra` once a history
    # holds `k` joins), then a few moves overwritten at random: any mask at
    # the last stage, an upgrade elsewhere, so that every play-out stays on
    # a history; on the all-ties table only monotonicity and irreversibility
    # can fail
    full = (1 << n) - 1
    if data.draw(st.booleans()):
        game = table_game([[0] * (full + 1)] * n)
    else:
        game = data.draw(differential_games(n, Sync(T)))
    base = data.draw(st.lists(st.integers(0, full), min_size=T, max_size=T))
    extra = data.draw(st.lists(st.integers(0, full), min_size=T, max_size=T))
    k = data.draw(st.lists(st.integers(0, n * T), min_size=T, max_size=T))
    moves = {}
    for t, hs in enumerate(_sync_histories(n, T)):
        for h in hs:
            joins = sum(m.bit_count() for m in h)
            moves[h] = (h[-1] if h else 0) | base[t] | (extra[t] if joins >= k[t] else 0)
    for h in data.draw(st.lists(st.sampled_from(sorted(moves)), max_size=2)):
        last = h[-1] if h and len(h) < T - 1 else 0
        moves[h] = last | data.draw(st.integers(0, full))
    profile = TupleStrategyProfile(T=T, moves=moves, outcome=0)
    converted = entry_profile(n, profile)
    assert tuple_profile(converted).moves == moves
    ok, why = _verify_mspne(game, [full] * T, converted)
    assert ok == verify_mspne_reference(game, T, profile)[0]
    assert ok == tuple_verify_mspne(game, T, profile)[0]
    assert bool(why) != ok


# -- invariants -------------------------------------------------------------------


def test_mspne_within_spne():
    rng = random.Random(2)
    cell_rng = random.Random(22)
    for _ in range(10):
        game = random_game(rng, 3)
        for T in (1, 2):
            spne = enumerate_equilibria(game, Sync(T), mode="spne")
            mspne = enumerate_equilibria(game, Sync(T), mode="mspne")
            assert mspne <= spne
        for _ in range(2):
            p = Async(random_partition(cell_rng, 3))
            assert enumerate_equilibria(game, p, mode="mspne") <= enumerate_equilibria(
                game, p, mode="spne"
            )


def test_spne_empty_without_pure_subgame_equilibrium():
    # matching pennies: player 0 matches, player 1 mismatches
    game = table_game([[1, 0, 0, 1], [0, 1, 1, 0]])
    for T in (1, 2, 3):
        assert enumerate_equilibria(game, Sync(T), mode="spne") == set()
    assert enumerate_equilibria(game, Async(Partition([3])), mode="spne") == set()
    assert enumerate_equilibria(game, Async(Partition([1, 2])), mode="spne") == {1, 2}
    assert enumerate_equilibria(game, Async(Partition([2, 1])), mode="spne") == {0, 3}


def test_spne_outcomes_survive_iterated_dominance():
    rng = random.Random(3)
    for _ in range(10):
        game = random_game(rng, 3)
        least, greatest = iesds_reference(game)
        for o in enumerate_equilibria(game, Sync(2), mode="spne"):
            assert least & ~o == 0
            assert o & ~greatest == 0


def test_mspne_outcomes_shrink_with_horizon():
    rng = random.Random(4)
    for _ in range(8):
        game = random_game(rng, 3)
        prev = None
        for T in (1, 2, 3):
            cur = enumerate_equilibria(game, Sync(T), mode="mspne")
            if prev is not None:
                assert cur <= prev
            prev = cur


def test_every_mspne_has_a_no_pledge_twin():
    """Each equilibrium outcome is realized by a profile that never pledges
    early: stage-1 all-zero, middle stages echoing own pledges."""
    rng = random.Random(5)
    full_checked = 0
    for _ in range(6):
        game = random_game(rng, 3)
        n, T = 3, 2
        full = game.all_players
        outs = enumerate_equilibria(game, Sync(T), mode="mspne")
        stages = _sync_histories(n, T)
        found = set()
        from itertools import product
        from coordsolve.core import submasks

        final_hists = stages[T - 1]
        per_hist = [
            [h[-1] | sub for sub in submasks(full & ~h[-1])] for h in final_hists
        ]
        for choice in product(*per_hist):
            moves = {(): 0}
            for h, a in zip(final_hists, choice):
                moves[h] = a
            prof = entry_profile(n, TupleStrategyProfile(T=T, moves=moves, outcome=0))
            prof.outcome = prof.replay()
            ok, _ = _verify_mspne(game, [full] * T, prof)
            if ok:
                found.add(prof.outcome)
        assert found == outs
        full_checked += 1
    assert full_checked == 6


# -- support_strategy ---------------------------------------------------------------


def test_support_full_set_constant_profile():
    game = two_triangles_game()
    prof = support_strategy(game, 2, game.all_players)
    assert prof.outcome == game.all_players
    assert all(m == game.all_players for stage in prof.moves for m in stage.values())


def test_support_partial_outcome():
    game = two_triangles_game()
    X = mask_of((0, 1, 2))
    prof = support_strategy(game, 2, X)
    assert prof.outcome == X
    ok, why = _verify_mspne(game, [game.all_players] * 2, prof)
    assert ok, why


def test_support_empty_outcome():
    game = two_triangles_game()
    prof = support_strategy(game, 2, 0)
    assert prof.outcome == 0


def test_support_rejects_unachievable():
    game = two_triangles_game()
    with pytest.raises(PreconditionError):
        support_strategy(game, 3, mask_of((0, 1, 2)))  # at T=3 only N remains


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 4), T=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_support_strategy_matches_the_move_tuple_oracle(n, T, seed):
    # the same witness at every history, read as move tuples
    game = random_game(random.Random(seed), n)
    solver = SyncSolver(game)
    for X in solver.outcome_set(T):
        got = support_strategy(game, T, X, solver=solver)
        want = tuple_support_strategy(game, T, X, solver=solver)
        assert got.outcome == want.outcome == X
        assert tuple_profile(got).moves == want.moves


def test_support_matches_solver_outcomes():
    rng = random.Random(6)
    for _ in range(6):
        game = random_game(rng, 3)
        solver = SyncSolver(game)
        for T in (1, 2):
            for X in solver.outcome_set(T):
                prof = support_strategy(game, T, X, solver=solver)
                assert prof.outcome == X
