"""Principal-facing analyses: which horizons can ever be optimal, player
centrality orders, and the marginal effect of subsidising players."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Context, bits
from .sync import SyncSolver


def horizon_count_bound(n):
    """1 + floor(sqrt(2n + 9/4) - 3/2), computed exactly in integers."""
    return 1 + (math.isqrt(8 * n + 9) - 3) // 2


@dataclass
class HorizonLedger:
    """Horizons at which the least outcome strictly grows (with the grown
    set), plus the count bound they must respect."""

    candidates: list
    bound: int


def candidate_horizons(game, solver=None):
    """Every horizon whose least outcome strictly exceeds the previous one's
    (the empty set at horizon 0), i.e. the horizons a cost-sensitive principal
    could ever pick: the distinct player horizons.  The count never exceeds
    the square-root bound."""
    solver = solver or SyncSolver(game)
    bound = horizon_count_bound(game.n)
    growth = sorted({tau for tau in solver.horizons().values() if tau is not None})
    cands = [(T, solver.least_outcome(T)) for T in growth]
    if len(cands) > bound:
        raise RuntimeError(
            f"ledger bound violated: {len(cands)} growth points exceed {bound}; "
            "this indicates a solver bug or an assumption-violating game"
        )
    return HorizonLedger(candidates=cands, bound=bound)


def weak_centrality(game, solver=None):
    """Total preorder of players by their singleton horizon, ascending.

    Returns a list of (horizon, players-mask) classes; players whose action 1
    is iteratively dominated never activate and land in a final (None, ...)
    class."""
    solver = solver or SyncSolver(game)
    groups = {}
    for i, tau in solver.horizons().items():
        groups[tau] = groups.get(tau, 0) | 1 << i
    ranked = sorted((k, v) for k, v in groups.items() if k is not None)
    if None in groups:
        ranked.append((None, groups[None]))
    return ranked


def strong_centrality(game, solver=None):
    """Matrix M[i][j]: does i play 1 in every stage-game equilibrium where j
    does?  Reflexive and transitive; implies the weak order.  The stage
    equilibria are the solver's (SyncSolver.equilibria)."""
    solver = solver or SyncSolver(game)
    n = game.n
    matrix = [[True] * n for _ in range(n)]
    for X in solver.equilibria():
        for j in bits(X):
            for i in range(n):
                if not (X >> i) & 1:
                    matrix[i][j] = False
    return matrix


def intervention(game, subsidized, T, solver=None):
    """Players newly guaranteed at horizon T when `subsidized` are paid to
    play 1 outright: the subsidised game's least outcome minus the original's."""
    solver = solver or SyncSolver(game)
    full = game.all_players
    baseline = solver.least_outcome(T)
    boosted = solver.least_outcome(T, ctx=Context(full & ~subsidized, subsidized))
    return boosted & ~baseline
