import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coordsolve import (
    Context,
    Digraph,
    PreconditionError,
    StageGame,
    Violation,
    aggregative_game,
    check_assumptions,
    incentive_table,
    least_ne,
    mask_of,
    members,
    ne_set,
    sss_set,
    table_game,
    threshold_game,
    weakest_link_game,
)
from coordsolve.core import (
    Partition,
    _ctx_pay,
    RuleGains,
    _rows_table,
    bits,
    fixed_point_scan,
    iesds_closure,
    iesds_scan,
    int_row,
    is_monotone,
    is_ne,
    iterated_strict_elimination,
    settle,
    sss_scan,
    submasks,
)
from coordsolve import core, ordered
from coordsolve.errors import FieldError
from coordsolve.sync import SyncSolver

from util import (
    EXACT_PAYOFFS,
    check_assumptions_pass_reference,
    check_assumptions_reference,
    cross_pairs_game,
    cycle_graph,
    dominate_chain_reference,
    family_games,
    family_table_reference,
    flipped_tables,
    graph_iesds_reference,
    iesds_reference,
    incentive_table_reference,
    is_monotone_reference,
    iterated_strict_elimination_reference,
    mixed_two_player_game,
    monotone_tables,
    near_monotone_tables,
    README_TABLE_ROWS,
    ne_set_reference,
    random_game,
    random_rooted_digraph,
    rows_table_reference,
    rule_games,
    rule_table_reference,
    settle_reference,
    shaped_digraphs,
    sss_set_reference,
    star_graph,
    tables_with_contexts,
    tie_break_violation_game,
    two_triangles_game,
)


# -- payoff -------------------------------------------------------------------


def test_star_center_payoff():
    game = weakest_link_game(star_graph(6))
    assert game.payoff(0, (1 << 7) - 1) == 1  # all in-neighbors active
    assert game.payoff(0, mask_of((0, 1))) == -1


def test_payoff_outside_coalition_is_action_zero():
    game = aggregative_game((1, 1, 2))
    for i in range(3):
        assert game.payoff(i, 0) == 0


def test_mixed_game_table_entries():
    game = mixed_two_player_game()
    both = mask_of((0, 1))
    assert game.payoff(0, both) == 2
    assert game.payoff(1, both) == 3


def test_payoff_argument_errors():
    game = aggregative_game((1, 1))
    with pytest.raises(IndexError):
        game.payoff(2, 0)
    with pytest.raises(IndexError):
        game.payoff(0, 1 << 5)


def test_table_game_rejects_floats():
    with pytest.raises(TypeError):
        table_game([[0.0, 1, 0, 1], [0, 1, 0, 1]])


def bare(game):
    """The same payoffs, kind and params behind a bare payoff function."""
    return StageGame(game.n, game._payoff, game.kind, game.params)


@st.composite
def games_with_mask_lists(draw):
    """A family game or a bare-payoff game, and a list of its coalitions
    with repeats, in any order, possibly empty."""
    game = draw(family_games() | family_games().map(bare))
    everything = list(range(1 << game.n))
    masks = draw(
        st.lists(st.integers(0, game.all_players), max_size=40)
        | st.permutations(everything)
        | st.just(everything + everything[::-1])
    )
    return game, masks


@settings(max_examples=300, deadline=None)
@given(games_with_mask_lists())
# weakest-link players 0 and 2 of in-degree 0
@example((weakest_link_game(Digraph(3, [(0, 1)])), [7, 0, 2, 3, 3, 5, 1]))
# thresholds k_i = deg(i)
@example(
    (
        threshold_game(Digraph(3, [(0, 1), (2, 1), (1, 0), (1, 2)]), (1, 2, 1)),
        [7, 6, 5, 2, 3],
    )
)
# aggregative thresholds c_i = 1 and c_i = n - 1
@example((aggregative_game((1, 2, 2, 1)), list(range(16))[::-1]))
# table entries mixing ints and Fractions
@example(
    (
        table_game([[0, Fraction(1, 2), -1, Fraction(4, 2)], [Fraction(-3, 7), 1, 1, 0]]),
        [3, 1, 1, 0, 2],
    )
)
@example((aggregative_game((1, 1)), []))
def test_payoff_row_matches_payoff_reads(case):
    game, masks = case
    for i in range(game.n):
        got = game.payoff_row(i, masks)
        want = [game._payoff(i, M) for M in masks]
        assert type(got) is list
        assert got == want
        assert list(map(type, got)) == list(map(type, want))


# -- check_assumptions --------------------------------------------------------


def test_mixed_game_violates_deviation_proof_only():
    rep = check_assumptions(mixed_two_player_game())
    assert not rep.deviation_proof
    assert rep.single_crossing
    assert rep.common_interests
    assert any(w.check == "deviation_proof" for w in rep.witnesses)


def test_tie_break_violation_flagged():
    rep = check_assumptions(tie_break_violation_game())
    assert not rep.common_interests
    labels = {w.check for w in rep.witnesses}
    assert "tie-break (interpreted)" in labels
    assert "common_interests" not in labels  # monotone part holds


def test_weakest_link_passes_everything():
    for g in (star_graph(4), cycle_graph(5)):
        rep = check_assumptions(weakest_link_game(g))
        assert rep.satisfies_assumptions
        assert rep.nondegenerate
        assert rep.witnesses == []


def test_weakest_link_assumptions_random_digraphs():
    rng = random.Random(0xA11CE)
    for _ in range(40):
        n = rng.randint(2, 7)
        g = random_rooted_digraph(rng, n)
        rep = check_assumptions(weakest_link_game(g))
        assert rep.satisfies_assumptions
        assert rep.nondegenerate


def _replay_violation(game, w):
    """Re-derive the flagged inequality directly from the payoff oracle."""
    i, lo, hi = w.player, w.low, w.high
    bit_i = 1 << i
    u0l, u1l = game.payoff(i, lo), game.payoff(i, lo | bit_i)
    u0h, u1h = game.payoff(i, hi), game.payoff(i, hi | bit_i)
    if w.check == "single_crossing":
        return (u1l >= u0l and u1h < u0h) or (u1l > u0l and u1h <= u0h)
    if w.check == "common_interests":
        return max(u0h, u1h) < max(u0l, u1l)
    if w.check == "tie-break (interpreted)":
        return u1h >= u0h and u0l >= u1l and not max(u0h, u1h) > max(u0l, u1l)
    if w.check == "deviation_proof":
        return (u1h >= u0l and u1h < u0h) or (u1h > u0l and u1h <= u0h)
    if w.check == "nondegenerate":
        return not (u1h > u0h) if hi else not (u0l > u1l)
    raise AssertionError(w.check)


def test_witnesses_replay_as_violations():
    for game in (mixed_two_player_game(), tie_break_violation_game()):
        rep = check_assumptions(game)
        assert rep.witnesses
        for w in rep.witnesses:
            assert _replay_violation(game, w), w


# Small ranges so that ties, which the checks treat apart from strict
# inequalities, are common.
_payoffs = EXACT_PAYOFFS


@st.composite
def _tables_with_contexts(draw):
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(_payoffs, min_size=1 << n, max_size=1 << n)) for _ in range(n)]
    active = draw(st.integers(0, (1 << n) - 1))
    ones = draw(st.integers(0, (1 << n) - 1)) & ~active
    ctx = draw(st.sampled_from([None, Context(active, ones)]))
    return table_game(rows), ctx


def _flags(rep):
    return (rep.single_crossing, rep.common_interests, rep.deviation_proof, rep.nondegenerate)


@settings(max_examples=300, deadline=None)
@given(_tables_with_contexts())
def test_check_assumptions_matches_all_pairs_reference(case):
    game, ctx = case
    fast = check_assumptions(game, ctx)
    ref = check_assumptions_reference(game, ctx)
    assert _flags(fast) == _flags(ref)
    assert {(w.check, w.player, w.high) for w in fast.witnesses} == {
        (w.check, w.player, w.high) for w in ref.witnesses
    }
    pairwise = [w for w in fast.witnesses if w.check != "nondegenerate"]
    assert len({(w.check, w.player, w.high) for w in pairwise}) == len(pairwise)
    ones = ctx.ones if ctx else 0
    ref_pairs = set(ref.witnesses)
    for w in fast.witnesses:
        assert w in ref_pairs, w
    for w in pairwise:
        assert _replay_violation(
            game, Violation(w.check, w.player, w.low | ones, w.high | ones)
        ), w


@settings(max_examples=400, deadline=None)
@given(near_monotone_tables() | tables_with_contexts())
@example((mixed_two_player_game(), None))
@example((tie_break_violation_game(), None))
@example((table_game(README_TABLE_ROWS), None))
def test_column_test_gives_the_witness_pass_report(case):
    """check_assumptions, which runs the witness pass only for a player its
    column test fails, gives the flags and the witness list, in order, of
    the pass run for every player."""
    game, ctx = case
    fast = check_assumptions(game, ctx)
    ref = check_assumptions_pass_reference(game, ctx)
    assert _flags(fast) == _flags(ref)
    assert fast.witnesses == ref.witnesses


def test_passing_players_skip_the_witness_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("the witness pass ran for a passing player")

    monkeypatch.setattr(core, "_check_pairs", refuse)
    for c in ([1, 1, 2], [2, 3, 1, 3], [1, 2, 3, 4, 5, 6, 6, 6]):
        rep = check_assumptions(aggregative_game(c))
        assert rep.satisfies_assumptions and rep.witnesses == []


@pytest.mark.parametrize("bad", [True, 0.5], ids=["bool", "float"])
def test_table_game_names_the_player_of_an_inexact_payoff(bad):
    rows = [[0, 1, Fraction(1, 2), 1], [0, Fraction(1, 3), 1, bad]]
    with pytest.raises(TypeError, match=rf"^player 1: payoff {bad!r} is not an exact rational$"):
        table_game(rows)


# -- least_ne / ne_set --------------------------------------------------------


def test_two_triangles_least_ne_empty():
    assert least_ne(two_triangles_game()) == 0


def test_cross_pairs_least_ne_with_forced_hub():
    game = cross_pairs_game()
    ctx = Context(mask_of((1, 2, 3)), mask_of((0,)))
    assert least_ne(game, ctx) == mask_of((1,))


def test_least_ne_empty_context():
    game = cross_pairs_game()
    assert least_ne(game, Context(0, 0)) == 0


STRAY_GAMES = {
    "table": table_game([[0, 1, 0, 2], [0, 0, 1, 2]]),
    "weakest_link": weakest_link_game(cycle_graph(3)),
}
CONTEXT_READERS = {
    "check_assumptions": check_assumptions,
    "least_ne": least_ne,
    "ne_set": ne_set,
    "sss_set": sss_set,
    "is_ne": lambda game, ctx: is_ne(game, ctx, 0),
    # the stray bits go into is_ne's profile instead of its context
    "is_ne_profile": lambda game, ctx: is_ne(
        game, Context(game.all_players, 0), ctx.active | ctx.ones
    ),
}


@pytest.mark.parametrize("kind", sorted(STRAY_GAMES))
@pytest.mark.parametrize("reader", sorted(CONTEXT_READERS))
def test_contexts_with_stray_bits_are_refused(reader, kind):
    game = STRAY_GAMES[kind]
    n = game.n
    for ctx, stray in [(Context(1 << n | 1, 0), [n]), (Context(1, 0b11 << n + 1), [n + 1, n + 2])]:
        with pytest.raises(ValueError, match=re.escape(str(stray))):
            CONTEXT_READERS[reader](game, ctx)


def test_cross_pairs_ne_set():
    game = cross_pairs_game()
    assert ne_set(game) == [0, mask_of((0, 1)), game.all_players]


def test_two_triangles_ne_set():
    game = two_triangles_game()
    expected = {
        0,
        mask_of((0, 1, 2)),
        mask_of((3, 4, 5)),
        mask_of((0, 1, 2, 3, 4, 5)),
        game.all_players,
    }
    assert set(ne_set(game)) == expected


def test_single_player_nondegenerate_ne():
    game = table_game([[0, -1]])
    assert ne_set(game) == [0]


def test_ne_lattice_and_pareto_rank():
    rng = random.Random(7)
    for _ in range(30):
        game = random_game(rng, rng.randint(2, 6))
        eqs = ne_set(game)
        assert least_ne(game) == eqs[0] == min(eqs, key=lambda m: m.bit_count())
        eq_set = set(eqs)
        for a in eqs:
            for bmask in eqs:
                if a | bmask not in eq_set:
                    # join-closure via the least NE above the union
                    above = [e for e in eqs if e & (a | bmask) == (a | bmask)]
                    assert above, (members(a), members(bmask))
                if a & ~bmask == 0 and a != bmask:  # a < b: Pareto ranked
                    for i in range(game.n):
                        assert game.payoff(i, a) <= game.payoff(i, bmask)


# -- iesds_scan ---------------------------------------------------------------


def iesds(game):
    """Iterated strict dominance on the full game, read off its table."""
    return iesds_scan(*incentive_table(game), game.all_players, 0)


def test_iesds_dominant_one_player():
    game = table_game([[0, 1]])  # action 1 strictly dominant
    least, greatest = iesds(game)
    assert least == greatest == 1


def test_iesds_cross_pairs_nothing_fires():
    least, greatest = iesds(cross_pairs_game())
    assert least == 0
    assert greatest == mask_of((0, 1, 2, 3))


def test_iesds_two_player_aggregative():
    least, greatest = iesds(aggregative_game((1, 1)))
    assert least == 0
    assert greatest == mask_of((0, 1))


def test_iesds_matches_extreme_ne():
    rng = random.Random(99)
    for _ in range(25):
        game = random_game(rng, rng.randint(2, 5))
        eqs = ne_set(game)
        least, greatest = iesds(game)
        assert least == eqs[0]
        assert greatest == max(eqs, key=lambda m: (m.bit_count(), m))


@settings(max_examples=300, deadline=None)
@given(tables_with_contexts())
def test_iesds_scan_matches_raw_payoff_reference(case):
    """All undecided players eliminated per round off the table survive to
    the same sets as the one-at-a-time raw-payoff loop, on games that need
    not satisfy any assumption."""
    game, ctx = case
    got = iesds_scan(*incentive_table(game), ctx.active, ctx.ones)
    assert got == iesds_reference(game, ctx)


@settings(max_examples=300, deadline=None)
@given(tables_with_contexts())
def test_bit_loop_elimination_matches_generator_reference(case):
    """The table-scan elimination survives to the same sets as the
    generator-based per-player loop, and reads each payoff pay(i, X) of
    i in P and X <= P exactly once: |P| 2^|P| reads in all."""
    game, ctx = case
    pay = _ctx_pay(game, ctx)
    got_reads = []

    def logged(i, X):
        got_reads.append((i, X))
        return pay(i, X)

    got = iterated_strict_elimination(ctx.active, logged)
    want = iterated_strict_elimination_reference(ctx.active, pay)
    assert got == want
    P = ctx.active
    assert sorted(got_reads) == [(i, X) for i in bits(P) for X in sorted(submasks(P))]
    assert len(got_reads) == P.bit_count() << P.bit_count()


# -- strictly sufficient sets -------------------------------------------------


def test_sss_strongly_connected_weakest_link():
    game = weakest_link_game(cycle_graph(8))
    assert sss_set(game) == [game.all_players]


def test_sse_two_triangles():
    game = two_triangles_game()
    expected = {
        mask_of((0, 1, 2)),
        mask_of((3, 4, 5)),
        mask_of((0, 1, 2, 3, 4, 5)),
        game.all_players,
    }
    assert set(sss_set(game, require_ne=True)) == expected


def test_sss_empty_context():
    game = two_triangles_game()
    assert sss_set(game, Context(0, 0)) == []


def test_sss_excludes_empty_and_orders_by_size():
    rng = random.Random(3)
    game = random_game(rng, 5)
    out = sss_set(game)
    assert 0 not in out
    sizes = [m.bit_count() for m in out]
    assert sizes == sorted(sizes)


@settings(max_examples=300, deadline=None)
@given(gainers=monotone_tables(), S=st.integers(0, 127), O=st.integers(0, 127))
@example(gainers=[0, 3, 2, 1], S=3, O=0)
def test_fixed_point_scan_matches_sss_scan_on_monotone_tables(gainers, S, O):
    """On a monotone table the fixed-point branching finds exactly the
    scan's Nash candidates, whether or not someone in S already gains at O.
    On [0, 3, 2, 1] it would miss [2]; SyncSolver does not branch there,
    because is_monotone refuses the table."""
    full = len(gainers) - 1
    S &= full
    O &= full & ~S
    if is_monotone_reference(gainers):
        assert fixed_point_scan(gainers, S, O) == sss_scan(gainers, S, O, True)
    else:
        assert not is_monotone(gainers)


@settings(max_examples=300, deadline=None)
@given(monotone_tables() | flipped_tables())
@example([0, 3, 2, 1])
@example([0, 1, 0, 0])  # out of order across the top bit only
@example([0, 0, 1, 0])  # out of order across the low bit only
def test_is_monotone_matches_double_loop(gainers):
    assert is_monotone(gainers) == is_monotone_reference(gainers)


@settings(max_examples=150, deadline=None)
@given(shaped_digraphs(), st.data())
def test_family_monotone_declarations_hold(g, data):
    """A family game's rules promise a monotone, tie-free table, and the
    table they give is one: is_monotone agrees, and no player ties
    anywhere, so losers is the complement of gainers.  The weakest-link graphs include sources; a
    threshold needs at least one in-neighbour, so the threshold game gives
    each source an in-edge first.  Table games and bare payoffs have no
    rules, even when their table is monotone."""
    n = g.n
    games = [weakest_link_game(g)]
    if n >= 2:
        fed = Digraph(n, set(g.edges) | {((v + 1) % n, v) for v in range(n) if not g.in_mask(v)})
        k = [data.draw(st.integers(1, fed.in_mask(i).bit_count())) for i in range(n)]
        c = data.draw(st.lists(st.integers(1, n - 1), min_size=n, max_size=n))
        games += [threshold_game(fed, k), aggregative_game(c)]
    for game in games:
        assert game._rules is not None
        gainers, losers = incentive_table(game)
        assert is_monotone(gainers)
        full = game.all_players
        assert all(losers[C] == full ^ gainers[C] for C in range(full + 1))
        rows = [[game.payoff(i, X) for X in range(1 << n)] for i in range(n)]
        assert table_game(rows)._rules is None
        assert StageGame(n, game._payoff)._rules is None


@settings(max_examples=300, deadline=None)
@given(family_games().filter(lambda game: game._rules is not None), st.data())
def test_iesds_closure_matches_the_scan(game, data):
    """On the monotone, tie-free table of every family game's rules, the
    closure's (least, greatest) is iesds_scan's, in any context."""
    gainers, losers = incentive_table(game)
    full = game.all_players
    S = data.draw(st.integers(0, full))
    O = data.draw(st.integers(0, full)) & ~S
    assert iesds_closure(gainers, S, O) == iesds_scan(gainers, losers, S, O)


# a source feeding a chain into a 2-cycle, and a vertex outside the context
# feeding a chain: the forced-in and the drop cascade each take two rounds
@settings(max_examples=300, deadline=None)
@given(shaped_digraphs(), st.integers(0, 255), st.integers(0, 255))
@example(Digraph(7, [(0, 1), (1, 2), (2, 3), (3, 2), (4, 5), (5, 6)]), 0b1101111, 0)
def test_iesds_closure_on_the_in_neighbour_view(g, active, ones):
    full = (1 << g.n) - 1
    S, O = active & full, ones & full & ~active
    in_masks = [g.in_mask(i) for i in range(g.n)]
    want = graph_iesds_reference(in_masks, S, O)
    assert iesds_closure(RuleGains(weakest_link_game(g)._rules), S, O) == want


# -- the free dominate steps ----------------------------------------------------


# players 0 and 1 both gain from the start: lowest first joins 0 before 1
@settings(max_examples=300, deadline=None)
@given(tables_with_contexts())
@example((table_game([[0, 1, 0, 1], [0, 0, 1, 1]]), Context(3, 0)))
def test_settle_matches_the_old_loop_on_tables(case):
    """The settled pair and the join order are those of the loop that
    SyncSolver wrote out for _tau and value, and the order is the
    raw-payoff dominate chain, on tables that need not be monotone."""
    game, ctx = case
    gainers, _ = incentive_table(game)
    got = settle(gainers, ctx.active, ctx.ones)
    assert got == settle_reference(gainers, ctx.active, ctx.ones)
    assert got[2] == dominate_chain_reference(game, ctx.active, ctx.ones)


@settings(max_examples=300, deadline=None)
@given(family_games().filter(lambda game: game._rules is not None), st.data())
def test_settle_on_the_rule_view_matches_the_old_loop(game, data):
    """On a family game's RuleGains view settle gives what the old loop
    gives on the full table, and on that monotone table the players that
    join are iesds_closure's least."""
    table = incentive_table_reference(game)[0]
    full = game.all_players
    S = data.draw(st.integers(0, full))
    O = data.draw(st.integers(0, full)) & ~S
    got = settle(RuleGains(game._rules), S, O)
    assert got == settle_reference(table, S, O)
    assert mask_of(got[2]) == iesds_closure(table, S, O)[0]


# -- the incentive table and the scans that read it ---------------------------


@settings(max_examples=200, deadline=None)
@given(tables_with_contexts().map(lambda case: case[0]) | family_games())
def test_incentive_table_matches_payoffs_cell_by_cell(game):
    gainers, losers = incentive_table(game)
    for C in range(1 << game.n):
        for i in range(game.n):
            bit = 1 << i
            a0, a1 = game.payoff(i, C & ~bit), game.payoff(i, C | bit)
            assert bool(gainers[C] & bit) == (a1 > a0)
            assert bool(losers[C] & bit) == (a0 > a1)


@settings(max_examples=300, deadline=None)
@given(family_games())
def test_family_builders_match_the_payoff_comparison_reference(game):
    assert incentive_table(game) == incentive_table_reference(game)


@settings(max_examples=200, deadline=None)
@given(rule_games())
def test_rule_table_matches_the_per_coalition_build(game):
    """incentive_table builds a game's rules one rule at a time, as bit
    columns spread into bytes; it lists the table rule_gainers gives
    coalition by coalition."""
    assert incentive_table(game) == rule_table_reference(game)


@settings(max_examples=300, deadline=None)
@given(family_games().filter(lambda game: game.kind != "table"))
def test_rule_table_and_view_match_the_family_builders(game):
    """A family game's rules, listed by incentive_table and read entry by
    entry through a fresh solver's view, give the table its family's own
    builder gave, and so do its raw payoffs."""
    want = family_table_reference(game)
    assert incentive_table(game) == want
    view = SyncSolver(game).gainers
    assert isinstance(view, RuleGains)
    assert [view[C] for C in range(1 << game.n)] == want[0]
    assert incentive_table_reference(game) == want


# Exact payoffs with ties, large ints and arbitrary denominators; rows of
# ints only are drawn too, where int_row takes its shortcut.
WIDE_PAYOFFS = st.integers(-(10**12), 10**12) | st.fractions() | EXACT_PAYOFFS
INT_PAYOFFS = st.integers(-3, 3) | st.integers(-(10**12), 10**12)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(WIDE_PAYOFFS, min_size=1, max_size=16)
    | st.lists(INT_PAYOFFS, min_size=1, max_size=16)
)
def test_int_row_orders_every_pair_as_the_exact_row(row):
    got = int_row(row)
    assert len(got) == len(row)
    assert all(type(v) is int for v in got)
    for x, y in zip(row, got):
        for x2, y2 in zip(row, got):
            assert (y < y2) == (x < x2)
            assert (y == y2) == (x == x2)


def payoff_rows(n):
    size = 1 << n
    return st.lists(st.lists(WIDE_PAYOFFS, min_size=size, max_size=size), min_size=n, max_size=n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(payoff_rows))
def test_rows_table_matches_the_nested_scaling(rows):
    assert _rows_table(rows) == rows_table_reference(rows)


# A 3-player payoff that belongs to no family (everyone's action 1 is
# strictly dominant except player 2's, who ties at every coalition), and for
# each family label, construction data under which that family's builder
# would give another table.
_UNLABELLED_ROWS = (
    [0, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 2, 2, 0, 0, 2, 2],
    [Fraction(1, 2)] * 8,
)
_FOREIGN_PARAMS = {
    "weakest_link": {"edges": ((0, 1), (1, 2), (2, 0))},
    "threshold": {"edges": ((0, 1), (1, 2), (2, 0)), "k": (1, 1, 1)},
    "aggregative": {"c": (1, 1, 1)},
    "table": {"rows": (tuple(range(8)),) * 3},
}


@pytest.mark.parametrize("kind", sorted(_FOREIGN_PARAMS))
def test_bare_payoff_game_keeps_the_generic_table_whatever_its_kind(kind):
    game = StageGame(
        3, lambda i, X: _UNLABELLED_ROWS[i][X], kind=kind, params=_FOREIGN_PARAMS[kind]
    )
    want = incentive_table_reference(game)
    assert want == ([3, 3, 3, 3, 3, 3, 3, 3], [0] * 8)
    assert incentive_table(game) == want


@settings(max_examples=200, deadline=None)
@given(tables_with_contexts(), st.booleans())
def test_sss_set_matches_raw_payoff_reference(case, require_ne):
    game, ctx = case
    want = sss_set_reference(game, ctx, require_ne)
    assert sss_set(game, ctx, require_ne) == want
    if ctx.active == game.all_players:
        assert sss_set(game, require_ne=require_ne) == want


@settings(max_examples=200, deadline=None)
@given(tables_with_contexts())
def test_ne_set_matches_raw_payoff_reference(case):
    game, ctx = case
    want = ne_set_reference(game, ctx)
    assert ne_set(game, ctx) == want
    if ctx.active == game.all_players:
        assert ne_set(game) == want


def _two_cycle():
    return Digraph(2, [(0, 1), (1, 0)])


@pytest.mark.parametrize(
    "build, field, index",
    [
        (lambda: Digraph(3, [(0, 1), (2, 2)]), "edges", 1),
        (lambda: Digraph(3, [(0, 3)]), "edges", 0),
        (lambda: threshold_game(_two_cycle(), [1, 2]), "k", 1),
        (lambda: threshold_game(_two_cycle(), [1]), "k", None),
        (lambda: aggregative_game([1, 1, 3]), "c", 2),
        (lambda: ordered._interval_graph([2, 4, 0], None, True), "in_starts", 1),
        (lambda: ordered._interval_graph([2, 1, 0], [0, 0, 4], True), "out_ends", 2),
        (lambda: ordered._interval_graph([2, 1, 0], [0, 0], True), "out_ends", None),
        # in-intervals all empty, so player 1's declared out-interval {0} is not its own
        (lambda: ordered._interval_graph([3, 3, 3], [0, 2, 0], True), "out_ends", 1),
        (lambda: Partition([1, 2, 3]), "cells", 2),
        (lambda: Partition([1, -1]), "cells", 1),
        (lambda: Partition([1, 4]).validate_cover(3), "cells", None),
        (lambda: Partition([1, 2, 4, 8]).validate_cover(3), "cells", None),
        (lambda: ordered.aggregative_min_horizon([1, 2, 3], 3), "c", 2),
    ],
    ids=[
        "self_loop", "endpoint", "k_entry", "k_length", "c_entry", "in_start", "out_end",
        "out_ends_length", "out_interval", "overlap", "negative_cell", "cover", "stray_player",
        "min_horizon_c_entry",
    ],
)
def test_constructor_range_errors_name_their_field(build, field, index):
    with pytest.raises(FieldError) as info:
        build()
    assert isinstance(info.value, ValueError)
    assert (info.value.field, info.value.index) == (field, index)


@pytest.mark.parametrize(
    "build, entry",
    [
        (lambda: Partition([1.9, 2]), "cells[0]=1.9"),
        (lambda: Partition([1, "2"]), "cells[1]='2'"),
        (lambda: Partition([None]), "cells[0]=None"),
        (lambda: Digraph(3, [(True, 2)]), "edges[0][0]=True"),
        (lambda: Digraph(3, [(0, 1), (0.5, 1)]), "edges[1][0]=0.5"),
        (lambda: Digraph(3, [(0, "1")]), "edges[0][1]='1'"),
        (lambda: ordered.generate("aligned_nsg", in_starts=[True, 0, 0]), "in_starts[0]=True"),
        (lambda: ordered.generate("aligned_nsg", in_starts=[1.5, 0, 0]), "in_starts[0]=1.5"),
        (
            lambda: ordered.generate("aligned_nsg", in_starts=[2, 1, 0], out_ends=[0, 0, 2.0]),
            "out_ends[2]=2.0",
        ),
        (
            lambda: ordered.generate("opposed_nsg", in_starts=[0, 0, False], k=[1, 1, 1]),
            "in_starts[2]=False",
        ),
    ],
    ids=[
        "cell_float", "cell_str", "cell_none", "tail_bool", "tail_float", "head_str",
        "in_start_bool", "in_start_float", "out_end_float", "opposed_in_start_bool",
    ],
)
def test_constructors_refuse_non_int_entries(build, entry):
    with pytest.raises(TypeError, match=f"^{re.escape(entry)} is not an int$"):
        build()


class _Two:
    def __index__(self):
        return 2


def test_constructors_accept_index_objects():
    assert Partition([_Two(), 1]).cells == (2, 1)
    assert Digraph(3, [(_Two(), 0)]).edges == {(2, 0)}
    two = ordered.generate("aligned_nsg", in_starts=[_Two(), 1, 0])
    assert two.params == ordered.generate("aligned_nsg", in_starts=[2, 1, 0]).params


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: StageGame(0, lambda i, X: 0), ValueError, "need at least one player"),
        (
            lambda: table_game([[0, 1, 0, 1], [0, 1, 0]]),
            ValueError,
            "player 1: expected 4 payoffs, got 3",
        ),
        (lambda: Context(0b11, 0b10), ValueError, "active and forced-one sets overlap"),
        (
            lambda: Partition([1, 2, 4, 8]).validate_cover(3),
            FieldError,
            "a cell holds a player outside 0..2",
        ),
        (lambda: Digraph(-1, []), ValueError, "negative vertex count"),
        (
            lambda: ordered.aggregative_min_horizon([2, 1, 2], 3),
            ValueError,
            "thresholds must be nondecreasing",
        ),
        (
            lambda: ordered.generate("aggregative"),
            ValueError,
            "aggregative generator needs thresholds c",
        ),
        (lambda: ordered.generate("aligned_nsg"), ValueError, "aligned_nsg generator needs in_starts"),
        (
            lambda: ordered.generate("opposed_nsg", in_starts=[0, 0, 0]),
            ValueError,
            "opposed_nsg generator needs in_starts and k",
        ),
        (
            lambda: ordered.generate("opposed_nsg", k=[1, 1, 1]),
            ValueError,
            "opposed_nsg generator needs in_starts and k",
        ),
        (lambda: ordered.generate("sudoku"), ValueError, "unknown generator kind 'sudoku'"),
    ],
    ids=[
        "no_players", "short_row", "overlapping_context", "stray_player", "negative_n",
        "decreasing_c", "aggregative_without_c", "aligned_without_in_starts",
        "opposed_without_k", "opposed_without_in_starts", "unknown_kind",
    ],
)
def test_argument_errors_say_what_is_wrong(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
