"""Solvers for binary-action coordination games with strategic
complementarities: synchronous horizon operators, asynchronous schedule
design, weakest-link/tree-depth reductions, ordered-game fast paths, and a
brute-force equilibrium oracle."""

from .core import (
    AssumptionReport,
    Context,
    Partition,
    StageGame,
    Violation,
    aggregative_game,
    check_assumptions,
    full_context,
    incentive_table,
    least_ne,
    mask_of,
    members,
    ne_set,
    sss_set,
    table_game,
)
from .digraph import (
    Digraph,
    EliminationTree,
    check_feasible_partition,
    partition_from_treedepth,
    reach,
    scc,
    tree_depth,
)
from .errors import PreconditionError, ResourceLimitError
from .graphical import (
    SufficientGraph,
    horizon_via_graphs,
    minimal_satisfying_sets,
    reduce_to_weakest_link,
    threshold_game,
    weakest_link_game,
    weakest_link_horizon,
)
from .sync import PolicyNode, SyncSolver
from .asyncgame import (
    IesedsTable,
    best_achievable,
    check_sufficient_feasible,
    design as design_schedule,
    ieseds,
)
from .design import (
    HorizonLedger,
    candidate_horizons,
    horizon_count_bound,
    intervention,
    strong_centrality,
    weak_centrality,
)
from .ordered import (
    OrderedFlags,
    aggregative_min_horizon,
    classify,
    generate,
    ordered_min_horizon,
)
from .oracle import Async, StrategyProfile, Sync, enumerate_equilibria, support_strategy
