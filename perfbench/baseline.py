"""Measure every workload on several seeds and summarise the spread.

    python3 perfbench/baseline.py                       # seeds 1..10, all workloads
    python3 perfbench/baseline.py --seeds 1,2,3 --workloads cli-docs --out /tmp/b.json

For each workload and end-to-end metric it reports the median over the
seeds and the spread, (Q3 - Q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, next to the metric's bound from
BENCHMARK.json.  One traced run per workload (the first seed) adds the
per-layer metrics.  Run it from the repository root; it writes JSON to
`--out` (default: perfbench/baseline.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
            "system": platform.platform()}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    summary = {"host": host(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            t = time.time()
            res = run(workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {k: m["value"] for k, m in res["metrics"].items()}})
            print(f"{workload} seed {seed} ({time.time() - t:.0f} s): "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)
        stats = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            stats[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                           "spread": spread(values), "bound": bound}
            print(f"  {workload} {name}: median {stats[name]['median']:.5g} "
                  f"spread {stats[name]['spread']:.4f} (bound {bound})", flush=True)
        entry = {"runs": runs, "end_to_end": stats}
        if not args.no_trace:
            traced = run(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {"seed": seeds[0], "metrics": {k: m["value"] for k, m in traced["metrics"].items()}}
        summary["workloads"][workload] = entry
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
