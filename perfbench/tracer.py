"""In-memory span tracer for the benchmark's traced runs.

The library is left untouched: `install()` replaces each traced public
function with a wrapper, in every coordsolve module namespace that binds it
(modules use `from .core import ...`, so patching the defining module alone
would miss most calls).  A target that no longer exists is recorded as
absent and skipped, so the tracer survives refactors that delete or reroute
one of these functions.

Each span keeps its function, parent span, item and start/end times in
compact arrays; `write()` dumps them at exit.  Per-function totals are kept
on the fly:

- `F.s`: inclusive time, counting only outermost spans of a recursive F;
- `F.self_s`: span time minus the time of its child spans;
- `F.calls`: number of spans.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# (metric prefix, module, attribute path)
SPANNED = (
    ("cli.main", "coordsolve.cli", "main"),
    ("cli.parse_game", "coordsolve.cli", "parse_game"),
    ("core.check_assumptions", "coordsolve.core", "check_assumptions"),
    ("core.iterated_strict_elimination", "coordsolve.core", "iterated_strict_elimination"),
    ("core.sss_set", "coordsolve.core", "sss_set"),
    ("core.ne_set", "coordsolve.core", "ne_set"),
    ("core.least_ne", "coordsolve.core", "least_ne"),
    ("sync.SyncSolver.init", "coordsolve.sync", "SyncSolver.__init__"),
    ("sync.SyncSolver.value", "coordsolve.sync", "SyncSolver.value"),
    ("sync.SyncSolver.min_horizon", "coordsolve.sync", "SyncSolver.min_horizon"),
    ("sync.SyncSolver.least_outcome", "coordsolve.sync", "SyncSolver.least_outcome"),
    ("sync.SyncSolver.outcome_set", "coordsolve.sync", "SyncSolver.outcome_set"),
    ("design.candidate_horizons", "coordsolve.design", "candidate_horizons"),
    ("design.weak_centrality", "coordsolve.design", "weak_centrality"),
    ("design.strong_centrality", "coordsolve.design", "strong_centrality"),
    ("design.intervention", "coordsolve.design", "intervention"),
    ("asyncgame.ieseds", "coordsolve.asyncgame", "ieseds"),
    ("asyncgame.design", "coordsolve.asyncgame", "design"),
    ("digraph.tree_depth", "coordsolve.digraph", "tree_depth"),
    ("digraph.scc", "coordsolve.digraph", "scc"),
    ("graphical.reduce_to_weakest_link", "coordsolve.graphical", "reduce_to_weakest_link"),
    ("graphical.weakest_link_horizon", "coordsolve.graphical", "weakest_link_horizon"),
    ("ordered.classify", "coordsolve.ordered", "classify"),
    ("ordered.ordered_min_horizon", "coordsolve.ordered", "ordered_min_horizon"),
    ("oracle.enumerate_equilibria", "coordsolve.oracle", "enumerate_equilibria"),
    ("oracle.support_strategy", "coordsolve.oracle", "support_strategy"),
)

# work counters: (name, unit, better)
COUNTERS = (
    ("core.payoff.evals", "count", "lower"),
    ("core.is_ne.calls", "count", "lower"),
    ("core.sss_set.scanned", "count", "lower"),
    ("core.sss_set.found", "count", "lower"),
    ("sync.SyncSolver.value.contexts", "count", "lower"),
    ("asyncgame.ieseds.stage_games", "count", "lower"),
    ("cli.main.nonzero_exits", "count", "lower"),
    ("oracle.enumerate_equilibria.errors", "count", "lower"),
)

# derived in summary(), or by the harness (overhead)
DERIVED = (
    ("core.sss_set.yield", "ratio", "higher"),
    ("sync.SyncSolver.value.memo_hit_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.absent_wrappers", "count", "lower"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name, _, _ in SPANNED:
        out += [(name + ".s", "s", "lower"), (name + ".self_s", "s", "lower"), (name + ".calls", "count", "lower")]
    return out + list(COUNTERS) + list(DERIVED)


def _resolve(module, path):
    """(owner, attribute, original) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


def _rebind(owner, attr, original, wrapper):
    """Point every binding of `original` at `wrapper`: the owner's attribute,
    and any coordsolve module attribute that holds the same object."""
    setattr(owner, attr, wrapper)
    for name, module in list(sys.modules.items()):
        if name != "coordsolve" and not name.startswith("coordsolve."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in SPANNED]
        k = len(self.names)
        self.incl = [0.0] * k
        self.self_time = [0.0] * k
        self.calls = [0] * k
        self.depth = [0] * k  # open spans per function, for outermost-only `.s`
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self.absent = []
        self.paused = False
        self.item = -1
        self.top_time = 0.0
        # span columns; a span's id is its row
        self.func = array("h")
        self.parent = array("l")
        self.items = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = []  # [span id, child time]

    # -- spans ---------------------------------------------------------------

    def _open(self, idx):
        sid = len(self.start)
        stack = self._stack
        self.func.append(idx)
        self.parent.append(stack[-1][0] if stack else -1)
        self.items.append(self.item)
        self.end.append(0.0)
        self.depth[idx] += 1
        stack.append([sid, 0.0])
        self.start.append(time.perf_counter())

    def _close(self, idx):
        t = time.perf_counter()
        sid, child = self._stack.pop()
        dur = t - self.start[sid]
        self.end[sid] = t
        self.self_time[idx] += dur - child
        self.calls[idx] += 1
        self.depth[idx] -= 1
        if self.depth[idx] == 0:
            self.incl[idx] += dur
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.top_time += dur

    def _spanned(self, idx, fn, before=None, after=None, error=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                if error is not None:
                    error()
                raise
            tracer._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count(self, name):
        counts = self.counts
        tracer = self

        def bump():
            if not tracer.paused:
                counts[name] += 1

        return bump

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced function and hook the work counters."""
        hooks = self._hooks()
        for idx, (name, module, path) in enumerate(SPANNED):
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._spanned(idx, original, **hooks.get(name, {}))
            _rebind(owner, attr, original, wrapper)
        self._hook_is_ne()
        self._hook_payoffs()

    def _hooks(self):
        counts = self.counts

        def sss_after(args, kwargs, result):
            game = args[0]
            ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
            active = game.all_players if ctx is None else ctx.active
            counts["core.sss_set.scanned"] += 1 << active.bit_count()
            counts["core.sss_set.found"] += len(result)

        def value_before(args, kwargs):
            # distinct (S, O) per solver; repeats are what a memo can answer
            seen = args[0].__dict__.setdefault("_bench_contexts", set())
            key = (args[1], args[2])
            if key not in seen:
                seen.add(key)
                counts["sync.SyncSolver.value.contexts"] += 1

        def ieseds_after(args, kwargs, result):
            counts["asyncgame.ieseds.stage_games"] += sum(len(t) for t in result.stage_actions)

        def main_after(args, kwargs, result):
            if result != 0:
                counts["cli.main.nonzero_exits"] += 1

        def oracle_error():
            counts["oracle.enumerate_equilibria.errors"] += 1

        return {
            "core.sss_set": {"after": sss_after},
            "sync.SyncSolver.value": {"before": value_before},
            "asyncgame.ieseds": {"after": ieseds_after},
            "cli.main": {"after": main_after},
            "oracle.enumerate_equilibria": {"error": oracle_error},
        }

    def _hook_is_ne(self):
        found = _resolve("coordsolve.core", "is_ne")
        if found is None:
            self.absent.append("core.is_ne")
            return
        owner, attr, original = found
        bump = self._count("core.is_ne.calls")

        def is_ne(*args, **kwargs):
            bump()
            return original(*args, **kwargs)

        _rebind(owner, attr, original, is_ne)

    def _hook_payoffs(self):
        """Count payoff evaluations on every StageGame built from now on."""
        found = _resolve("coordsolve.core", "StageGame.__init__")
        if found is None:
            self.absent.append("core.payoff")
            return
        owner, attr, original = found
        counts = self.counts
        tracer = self

        def init(game, n, payoff_fn, *args, **kwargs):
            def counted(i, X):
                if not tracer.paused:
                    counts["core.payoff.evals"] += 1
                return payoff_fn(i, X)

            original(game, n, counted, *args, **kwargs)

        setattr(owner, attr, init)

    # -- results -------------------------------------------------------------

    def summary(self, item_time):
        """Per-layer metric values; `item_time` is the traced items' total
        wall time, which the top-level spans should nearly cover."""
        out = {}
        for idx, name in enumerate(self.names):
            out[name + ".s"] = self.incl[idx]
            out[name + ".self_s"] = self.self_time[idx]
            out[name + ".calls"] = self.calls[idx]
        out.update(self.counts)
        scanned = self.counts["core.sss_set.scanned"]
        out["core.sss_set.yield"] = self.counts["core.sss_set.found"] / scanned if scanned else 0.0
        calls = self.calls[self.names.index("sync.SyncSolver.value")]
        contexts = self.counts["sync.SyncSolver.value.contexts"]
        out["sync.SyncSolver.value.memo_hit_ratio"] = 1 - contexts / calls if calls else 0.0
        out["trace.coverage_ratio"] = self.top_time / item_time if item_time else 0.0
        out["trace.spans"] = len(self.start)
        out["trace.absent_wrappers"] = len(self.absent)
        return out

    def write(self, path, item_ids):
        """Spans as gzip'd tab-separated rows: id, parent, item, function,
        start, end (seconds on the perf_counter clock)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# absent: %s\n" % ",".join(self.absent))
            fh.write("id\tparent\titem\tfunction\tstart\tend\n")
            names, ids = self.names, item_ids
            for sid in range(len(self.start)):
                item = self.items[sid]
                fh.write(
                    "%d\t%d\t%s\t%s\t%.9f\t%.9f\n"
                    % (sid, self.parent[sid], ids[item] if item >= 0 else "-",
                       names[self.func[sid]], self.start[sid], self.end[sid])
                )
