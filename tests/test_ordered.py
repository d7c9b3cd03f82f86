import itertools
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
    threshold_game,
    weakest_link_game,
)
from coordsolve.core import gains, incentive_table, settle, submasks
from coordsolve import ordered
from coordsolve.sync import SyncSolver

from util import (
    aggregative_table_reference,
    cascade_reference,
    chain_reaches_table_reference,
    chain_sequence_reference,
    classify_reference,
    classify_table_reference,
    cross_pairs_game,
    nested_in_intervals_reference,
    ordered_min_horizon_reference,
    random_aggregative,
    random_digraph,
    random_game,
    raw_gainers_tables,
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
                    assert chain_reaches_table_reference(
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


def _horizon_or_error(horizon, game, targets, *flags):
    try:
        return horizon(game, targets, *flags)
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
            ordered_min_horizon, game, X
        ) == _horizon_or_error(ordered_min_horizon_reference, game, X, ref)


@settings(max_examples=300, deadline=None)
@given(table=raw_gainers_tables())
# cost order fails at X = 10 before strong cost order fails at X = 8
@example(table=([3, 12, 11, 15, 7, 2, 1, 2, 4, 5, 5, 6, 8, 10, 8, 11], 4))
def test_bitset_classification_matches_the_submask_loops(table):
    """Same flags and witnesses as the per-X loops, inserted in the same
    order."""
    gainers, n = table
    flags = ordered._classify_table(gainers, n)
    ref = classify_table_reference(gainers, n)
    assert flags == ref
    assert list(flags.witnesses.items()) == list(ref.witnesses.items())


def test_gain_columns_match_a_per_coalition_read():
    """One, two and three byte lanes: bit C of column i is i in gainers[C]."""
    rng = random.Random(17)
    for n in range(1, 18):
        full = (1 << n) - 1
        gainers = [rng.choice((0, full, rng.randint(0, full))) for _ in range(1 << n)]
        want = [
            int("".join("1" if g >> i & 1 else "0" for g in reversed(gainers)), 2)
            for i in range(n)
        ]
        assert ordered._gain_columns(gainers, n) == want


def test_two_lane_classification_matches_the_submask_loops():
    """Seeded raw tables on 9..11 players, plus aggregative tables with and
    without a few flipped cells: the same flags and witnesses as the per-X
    loops, inserted in the same order, with every flag failing somewhere."""
    failed = set()
    for n in (9, 10, 11):
        rng = random.Random(n)
        full = (1 << n) - 1
        tables = [[rng.randint(0, full) for _ in range(1 << n)]]
        c = sorted(rng.randint(1, n - 1) for _ in range(n))
        tables.append(aggregative_table_reference(c)[0])
        for _ in range(3):
            flipped = list(tables[1])
            for _ in range(rng.randint(1, 4)):
                flipped[rng.randrange(1 << n)] ^= 1 << rng.randrange(n)
            tables.append(flipped)
        for gainers in tables:
            flags = ordered._classify_table(gainers, n)
            ref = classify_table_reference(gainers, n)
            assert flags == ref
            assert list(flags.witnesses.items()) == list(ref.witnesses.items())
            failed.update(flags.witnesses)
    assert failed == {
        "cost_ordered", "strongly_cost_ordered", "contribution_ordered", "contribution_natural"
    }


def _chain_starts_reference(gainers, n):
    """The starts X | {j} the per-X chain clause of classify_table_reference
    reads, up to and including its first failure."""
    full = (1 << n) - 1
    starts = set()
    for j in range(n):
        for i in range(j):
            for X in submasks(full & ~(1 << i) & ~(1 << j)):
                if gainers[X] >> j & 1:
                    starts.add(X | 1 << j)
                    if not chain_reaches_table_reference(gainers, full, i, j, X):
                        return starts
    return starts


@pytest.mark.parametrize(
    "params, sweeps",
    [
        (dict(kind="aligned_nsg", in_starts=(9, 9, 7, 7, 5, 5, 3, 3, 1, 1)), 193),
        (dict(kind="opposed_nsg", in_starts=(0,) * 10, k=(1, 2, 2, 3, 4, 5, 6, 7, 8, 9)), 784),
    ],
    ids=["aligned_nsg", "opposed_nsg"],
)
def test_chain_clause_sweeps_each_start_once(monkeypatch, params, sweeps):
    game = generate(**params)
    gainers = game._order[1][0]
    starts = []
    sweep = ordered._sweep

    def counted(table, S, O):
        starts.append(O)
        return sweep(table, S, O)

    monkeypatch.setattr(ordered, "_sweep", counted)
    ordered._classify_table(gainers, game.n)
    assert len(starts) == len(set(starts)) == sweeps
    assert set(starts) == _chain_starts_reference(gainers, game.n)


# README "Notes and limits": cost-ordered, but its table is not monotone
README_TABLE = ([2, 2, 7, 3, 3, 1, 15, 9, 7, 7, 7, 7, 7, 7, 15, 15], 4)


@settings(max_examples=300, deadline=None)
@given(table=raw_gainers_tables(), S=st.integers(0, 127), O=st.integers(0, 127))
@example(table=README_TABLE, S=15, O=0)
def test_sweep_matches_the_cascade_and_the_chain_clause(table, S, O):
    """The one closure gives the fast path's former cascade its (S, O) and
    the former chain clause its answer for every (i, j) on top of O."""
    gainers, n = table
    full = (1 << n) - 1
    S &= full
    O &= full & ~S
    swept = ordered._sweep(gainers, S, O)
    assert swept == cascade_reference(gainers, S, O)
    if (table, S, O) == (README_TABLE, 15, 0):
        # settle's lowest-first restarts stop where the ascending passes go on
        assert swept == (0, 15) and settle(gainers, S, O)[:2] == (12, 3)
    for j in range(n):
        c = O | 1 << j
        reached = ordered._sweep(gainers, full & ~c, c)[1]
        for i in range(n):
            want = chain_reaches_table_reference(gainers, full, i, j, O)
            assert (reached >> i & 1 == 1) == want


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


@pytest.mark.parametrize(
    "targets, message",
    [
        (1 << 3, r"bits \[3\] outside 0\.\.2"),
        ((1 << 3) | 1, r"bits \[3\] outside 0\.\.2"),
        (-1, "negative"),
    ],
    ids=["stray_bit", "stray_and_player_bit", "negative"],
)
def test_fast_path_refuses_targets_outside_the_game(targets, message):
    # as SyncSolver.min_horizon does, instead of dropping the stray bits
    game = aggregative_game((1, 2, 2))
    with pytest.raises(ValueError, match=message):
        ordered_min_horizon(game, targets)
    with pytest.raises(ValueError, match=message):
        SyncSolver(game).min_horizon(targets)


THRESHOLD_ENTRY_POINTS = {
    "aggregative_game": lambda v: aggregative_game((1, v, 2)).params["c"],
    "threshold_game": lambda v: threshold_game(
        Digraph(3, [(a, b) for a in range(3) for b in range(3) if a != b]), [1, v, 2]
    ).params["k"],
    "aggregative_min_horizon": lambda v: aggregative_min_horizon((1, v, 2), 3),
    "generate": lambda v: generate("aggregative", c=(1, v, 2)).params["c"],
}


class _Two:
    def __index__(self):
        return 2


@pytest.mark.parametrize("entry", THRESHOLD_ENTRY_POINTS)
@pytest.mark.parametrize("value", [1.9, True, "1"], ids=["float", "bool", "str"])
def test_thresholds_refuse_non_int_entries(entry, value):
    with pytest.raises(TypeError, match=r"\[1\]=" + repr(value).replace(".", r"\.")):
        THRESHOLD_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", THRESHOLD_ENTRY_POINTS)
def test_thresholds_accept_an_index_object(entry):
    build = THRESHOLD_ENTRY_POINTS[entry]
    assert build(_Two()) == build(2)


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
        assert got == ordered_min_horizon(game, target)
        assert len(built) == 1
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
        solver = SyncSolver(game)
        targets = [game.all_players] + [1 << rng.randrange(n) for _ in range(2)]
        for X in targets:
            assert ordered_min_horizon(game, X) == solver.min_horizon(X)


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
        solver = SyncSolver(game)
        for X in [game.all_players] + [1 << i for i in range(n)]:
            if X & solver.dropped:
                continue
            assert ordered_min_horizon(game, X) == solver.min_horizon(X)


def test_fast_path_exact_on_loose_six_player_instance():
    # this loose (non-nested) instance still happens to be exact
    game = generate("aligned_nsg", in_starts=(2, 2, 4, 4, 5, 4), nested=False)
    assert ordered_min_horizon(game, game.all_players) == 2


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
    assert ordered_min_horizon(game, game.all_players) == 3
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


@pytest.mark.parametrize("kind", ["aligned_nsg", "opposed_nsg"])
@pytest.mark.parametrize(
    "vectors, entry",
    [
        ({"in_starts": (2, 1 << 40, 0)}, r"in_starts\[1\]=1099511627776 outside 0\.\.3"),
        ({"in_starts": (2, -1, 0)}, r"in_starts\[1\]=-1 outside 0\.\.3"),
        ({"in_starts": (2, 1, 0), "out_ends": (0, 4, 0)}, r"out_ends\[1\]=4 outside 0\.\.3"),
        ({"in_starts": (2, 1, 0), "out_ends": (0, 0)}, "out_ends has 2 entries for 3 players"),
        ({"in_starts": (3, 3, 3), "out_ends": (0,) * 4}, "out_ends has 4 entries for 3 players"),
    ],
    ids=["huge_start", "negative_start", "huge_end", "short_ends", "long_ends"],
)
def test_generate_checks_interval_entries_before_nesting(monkeypatch, kind, vectors, entry):
    def unreached(in_starts):
        raise AssertionError("nesting checked before the range check")

    monkeypatch.setattr(ordered, "_nested_in_intervals", unreached)
    with pytest.raises(ValueError, match=f"^{entry}$"):
        generate(kind, k=(1, 1, 1), **vectors)


def test_nesting_count_matches_the_gap_sets():
    for n in range(6):
        for starts in itertools.product(range(n + 1), repeat=n):
            want = nested_in_intervals_reference(starts)
            assert ordered._nested_in_intervals(starts) == want, starts


@pytest.mark.parametrize(
    "kind, params, problem",
    [
        (
            "opposed_nsg",
            {"in_starts": [0, 0, 0], "k": [1, 2, 1]},
            "parameters do not make an ordered threshold game",
        ),
        (
            "aligned_nsg",
            {"in_starts": [0, 0, 2], "nested": False},
            "in-intervals do not make an ordered weakest-link game",
        ),
    ],
    ids=["opposed_nsg", "aligned_nsg"],
)
def test_generate_rejects_parameters_that_classify_unordered(kind, params, problem):
    with pytest.raises(ValueError, match=f"^{problem}$"):
        generate(kind, **params)


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
