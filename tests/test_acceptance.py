"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and asserting the stated time budget."""

import random
import time

from coordsolve import (
    Digraph,
    Partition,
    ResourceLimitError,
    Sync,
    aggregative_game,
    aggregative_min_horizon,
    candidate_horizons,
    design_schedule,
    enumerate_equilibria,
    generate,
    horizon_count_bound,
    horizon_via_graphs,
    ieseds,
    intervention,
    mask_of,
    members,
    ne_set,
    ordered_min_horizon,
    reduce_to_weakest_link,
    tree_depth,
    weakest_link_game,
    weakest_link_horizon,
)
from coordsolve.sync import SyncSolver

from util import (
    clique_edges,
    cycle_graph,
    cycle_rank,
    free_rider_game,
    hub_intervention_graph,
    mixed_two_player_game,
    random_digraph,
    random_game,
    seven_player_design_game,
    star_graph,
    two_triangles_game,
)


class _criterion:
    def __init__(self, number, limit_seconds):
        self.number = number
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.2f}s / {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget"
            )
        return False


def test_criterion_01_two_triangles_regression():
    with _criterion(1, 1.0):
        game = two_triangles_game()
        expected_ne = {
            0,
            mask_of((0, 1, 2)),
            mask_of((3, 4, 5)),
            mask_of((0, 1, 2, 3, 4, 5)),
            game.all_players,
        }
        assert set(ne_set(game)) == expected_ne
        outs = SyncSolver(game).outcome_set(2)
        assert set(outs) == {
            0,
            mask_of((0, 1, 2)),
            mask_of((3, 4, 5)),
            game.all_players,
        }


def test_criterion_02_hub_regression():
    with _criterion(2, 1.0):
        game = weakest_link_game(hub_intervention_graph())
        solver = SyncSolver(game)
        periphery = mask_of(range(4, 9))
        assert solver.min_horizon(periphery) == 4
        assert intervention(game, 1 << 0, 1, solver=solver) == periphery
        # single-subsidy sandwich: forcing one player saves at most a stage
        from coordsolve import Context

        full = game.all_players
        whole = solver.min_horizon(full)
        for i in range(game.n):
            rest = full & ~(1 << i)
            sub = solver.min_horizon(rest, ctx=Context(rest, 1 << i))
            assert sub <= whole <= sub + 1


def test_criterion_03_star_and_cycle():
    with _criterion(3, 1.0):
        for leaves in range(3, 11):
            game = weakest_link_game(star_graph(leaves))
            assert SyncSolver(game).min_horizon(game.all_players) == 2
        for length in range(3, 11):
            game = weakest_link_game(cycle_graph(length))
            assert SyncSolver(game).min_horizon(game.all_players) == 2


def test_criterion_04_full_horizon_socially_efficient():
    with _criterion(4, 30.0):
        rng = random.Random(0xC4)
        for _ in range(200):
            game = random_game(rng, rng.randint(2, 6))
            assert SyncSolver(game).outcome_set(game.n) == [game.all_players]


def test_criterion_05_oracle_equivalence():
    with _criterion(5, 300.0):
        rng = random.Random(0xC5)
        for _ in range(100):
            game = random_game(rng, 3)
            solver = SyncSolver(game)
            for T in (2, 3):
                assert set(solver.outcome_set(T)) == enumerate_equilibria(
                    game, Sync(T), mode="mspne"
                )


def test_criterion_06_counterexample_suite():
    with _criterion(6, 120.0):
        from coordsolve import check_assumptions

        mixed = mixed_two_player_game()
        assert not check_assumptions(mixed).deviation_proof
        assert enumerate_equilibria(mixed, Sync(2), mode="mspne") == {mask_of((0, 1))}

        rider = free_rider_game()
        outs = enumerate_equilibria(rider, Sync(2), mode="mspne")
        assert outs == {mask_of((0, 2)), mask_of((1, 2))}
        minimal = {o for o in outs if not any(p != o and p & ~o == 0 for p in outs)}
        assert len(minimal) == 2  # no least element

        from util import cross_pairs_game

        linked = cross_pairs_game()
        assert enumerate_equilibria(linked, Sync(2), mode="spne") == {
            mask_of((0, 1)),
            linked.all_players,
        }
        assert enumerate_equilibria(linked, Sync(2), mode="mspne") == {
            linked.all_players
        }


def test_criterion_07_sync_async_equivalence():
    with _criterion(7, 300.0):
        rng = random.Random(0xC7)
        for _ in range(100):
            game = random_game(rng, rng.randint(2, 5))
            solver = SyncSolver(game)
            for T in range(1, 5):
                p, achieved = design_schedule(game, T, solver=solver)
                assert achieved == solver.least_outcome(T)
                assert ieseds(game, p).outcome == achieved


def test_criterion_08_seven_player_design():
    with _criterion(8, 1.0):
        game = seven_player_design_game()
        p, achieved = design_schedule(game, 2)
        assert achieved == game.all_players
        assert p.cells == (mask_of((0, 3)), mask_of((1, 2, 4, 5, 6)))
        assert ieseds(game, p).outcome == game.all_players


def test_criterion_09_ordered_fast_paths():
    with _criterion(9, 120.0):
        rng = random.Random(0xC9)
        for _ in range(500):
            n = rng.randint(2, 10)
            c = sorted(rng.randint(1, n - 1) for _ in range(n))
            game = aggregative_game(c)
            assert aggregative_min_horizon(c, n) == SyncSolver(game).min_horizon(
                game.all_players
            )
        for n in range(2, 11):
            for k in range(1, n):
                assert aggregative_min_horizon((k,) * n, n) == k + 1
        games = [generate("aligned_nsg", in_starts=(2, 2, 4, 4, 5, 4), nested=False)]
        trials = 0
        while len(games) < 60 and trials < 500:
            trials += 1
            n = rng.randint(2, 8)
            if rng.random() < 0.5:
                starts = sorted(
                    (rng.randint(0, n - 1) for _ in range(n)), reverse=True
                )
                try:
                    games.append(generate("aligned_nsg", in_starts=starts))
                except ValueError:
                    continue
            else:
                starts = sorted(rng.randint(0, n - 1) for _ in range(n))
                g = Digraph(
                    n,
                    [
                        (j, i)
                        for i, s in enumerate(starts)
                        for j in range(s, n)
                        if j != i
                    ],
                )
                ks = [
                    rng.randint(1, max(1, g.in_mask(i).bit_count()))
                    for i in range(n)
                ]
                try:
                    games.append(
                        generate("opposed_nsg", in_starts=starts, k=sorted(ks))
                    )
                except ValueError:
                    continue
        assert len(games) == 60
        for game in games:
            n = game.n
            solver = SyncSolver(game)
            targets = [game.all_players & ~solver.dropped] + [
                1 << i for i in range(n) if not (solver.dropped >> i) & 1
            ]
            for X in targets:
                if X:
                    assert ordered_min_horizon(game, X) == solver.min_horizon(X)


def test_criterion_10_horizon_ledger_bound():
    with _criterion(10, 60.0):
        rng = random.Random(0xC10)
        for _ in range(500):
            game = random_game(rng, rng.randint(2, 8))
            ledger = candidate_horizons(game)
            assert len(ledger.candidates) <= ledger.bound
        # tightness of the square-root term at disjoint cliques 2+3, 2+3+4
        for sizes in ((2, 3), (2, 3, 4)):
            edges = []
            off = 0
            for s in sizes:
                edges += clique_edges(s, off)
                off += s
            game = weakest_link_game(Digraph(off, edges))
            ledger = candidate_horizons(game)
            growth = horizon_count_bound(off) - 1
            assert len(ledger.candidates) == growth
            assert [t for t, _ in ledger.candidates] == [s for s in sizes]


def test_criterion_11_tree_depth_cross_check():
    with _criterion(11, 120.0):
        rng = random.Random(0xC11)
        for _ in range(300):
            n = rng.randint(1, 8)
            g = random_digraph(rng, n, rng.uniform(0.1, 0.6))
            assert tree_depth(g)[0] == 1 + cycle_rank(range(n), g.edges)
        for _ in range(60):
            n = rng.randint(2, 7)
            g = random_digraph(rng, n, 0.25)
            base = tree_depth(g)[0]
            missing = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and (i, j) not in g.edges
            ]
            if not missing:
                continue
            extra = rng.choice(missing)
            assert tree_depth(Digraph(n, set(g.edges) | {extra}))[0] >= base


def test_criterion_12_graphical_equivalence():
    with _criterion(12, 300.0):
        rng = random.Random(0xC12)
        for _ in range(100):
            game = random_game(rng, rng.randint(2, 5))
            solver = SyncSolver(game)
            sg = reduce_to_weakest_link(game, solver=solver)
            for i in range(game.n):
                assert weakest_link_horizon(sg.graph, 1 << i) == solver.min_horizon(
                    1 << i
                )
            try:
                via = horizon_via_graphs(game, game.all_players, budget=20000 * 2**5)
            except ResourceLimitError:
                continue
            assert via == solver.min_horizon(game.all_players)
