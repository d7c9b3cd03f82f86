"""coordsolve benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload cli-docs --seed 0 --seconds 20 --trace 0

Workloads (see METRICS.md for why each was chosen):

- cli-docs: in-process `coordsolve.cli.main([..., "--json"])` calls, one
  document parse per call;
- sync-horizons: a game's full synchronous analysis on one SyncSolver;
- async-oracle: IESEDS on long schedules, exact tree-depth, and the oracle.

All are closed loops: one client, the next item starts when the last one
ends.  The corpus comes from `--seed` alone.  Every measurement runs in a
fresh child process, one after another, so memory and CPU belong to one
workload.

With `--trace 0` the run reports the end-to-end metrics: `setup_s` is the
median of five set-ups (four set-up-only children plus the measuring one).
With `--trace 1` it runs one untraced pass, then one traced pass, and
reports the per-layer metrics; the spans go to
`.perfbench_out/<workload>-<seed>.spans.gz`.  Times are scaled to a
reference speed; see worker.py and METRICS.md.

The last line of standard output is the JSON result.  Any failure of the
harness itself exits non-zero without printing one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
from tracer import per_layer_metrics  # noqa: E402

SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


class HarnessError(Exception):
    pass


def child(args, timeout):
    """Run worker.py to completion and return its JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.GENERATORS))
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=corpus.SCALES, default="full", help="tiny is for the self-test")
    ap.add_argument("--expected", default=None, help="recorded answers (default: perfbench/expected/<workload>.json)")
    ap.add_argument("--record", default=None, help="write this run's answers here, in the --expected format")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "coordsolve", "__init__.py")):
        print(f"error: no coordsolve sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    expected = args.expected or os.path.join(HERE, "expected", args.workload + ".json")

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        corpus_path = os.path.join(workdir, "corpus.json")
        with open(corpus_path, "w") as fh:
            items = corpus.GENERATORS[args.workload](args.seed, args.scale)
            json.dump({"seed": args.seed, "scale": args.scale, "items": items}, fh)
        common = ["--workload", args.workload, "--corpus", corpus_path, "--workdir", workdir,
                  "--expected", expected]
        if args.trace:
            result, lines = traced(args, common)
        else:
            result, lines = untraced(args, common)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def _failures(run):
    return [f"  failed {reason}" for reason in run["failures"]]


def untraced(args, common):
    setups = [child(["setup", *common], CHILD_TIMEOUT_S)["setup_s"] for _ in range(SETUP_CHILDREN)]
    record = ["--record", os.path.abspath(args.record)] if args.record else []
    run = child(["measure", *common, "--seconds", str(args.seconds), *record], CHILD_TIMEOUT_S)
    setups.append(run["setup_s"])
    values = {name: run[name] for name, _ in END_TO_END}
    values["setup_s"] = statistics.median(setups)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    lines = [f"{args.workload} seed={args.seed}: {run['items']} items x {run['passes']} passes"]
    lines += [f"  {name} = {values[name]:.6g} {unit}" for name, unit in END_TO_END]
    lines.append(f"  unscaled: wall {run['raw_wall_s']:.6g} s, set-up {run['raw_setup_s']:.6g} s")
    lines.append(f"  failed_ratio = {run['failed'] / run['attempted']:.6g} ({run['failed']}/{run['attempted']})")
    lines += _failures(run)
    return _result(run, metrics), lines


def traced(args, common):
    plain = child(["measure", *common, "--max-passes", "1"], CHILD_TIMEOUT_S)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"{args.workload}-{args.seed}.spans.gz")
    run = child(["measure", *common, "--max-passes", "1", "--trace", spans], CHILD_TIMEOUT_S)
    layers = dict(run["layers"])
    layers["trace.overhead_ratio"] = run["wall_s"] / plain["wall_s"]
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in per_layer_metrics()}
    lines = [f"{args.workload} seed={args.seed} traced: {run['items']} items, spans in {spans}"]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items() if m["value"]]
    lines += _failures(run)
    return _result(run, metrics), lines


def _result(run, metrics):
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
