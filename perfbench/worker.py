"""One workload in one process: set it up, run its items, check the answers.

    python3 perfbench/worker.py setup   --workload W --corpus C --workdir D
    python3 perfbench/worker.py measure --workload W --corpus C --workdir D
        [--seconds S] [--max-passes P] [--trace SPANS] [--expected E] [--record R]

`run.py` starts this once per measurement; it prints one JSON line.

`setup` times importing coordsolve and building every input from the corpus
(generating the corpus itself is the benchmark's work, not the program's,
and is left out).  `measure` does the same set-up, then runs the whole item
batch, one item after the next, at least MIN_PASSES times and then again
while another pass is expected to end within `--seconds`.  The first pass
checks every answer: an
item fails when it raises an unexpected exception, differs from the answer
recorded for this seed, or breaks one of the workload's invariants.  Later
passes must reproduce the first pass's answers.  Checks run outside the item
timers, with the tracer paused.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# The host's speed swings by up to 2x within seconds (other tenants share the
# cores; CPU time tracks wall time, so it is not waiting).  Each item's time is
# therefore scaled by the speed of a fixed reference loop timed right before
# and right after it: times are reported in seconds at the speed where one
# reference loop takes REFERENCE_S.
REFERENCE_S = 0.002


# passes per measurement (unless --max-passes is lower): an item's latency is
# its median over the passes
MIN_PASSES = 2


def reference_loop():
    """Fixed pure-Python work of the kind the library does: integer bit
    operations, dict reads and writes."""
    table = {}
    acc = 0
    for i in range(10000):
        m = (i * 2654435761) & 0xFFFF
        table[m] = table.get(m, 0) + 1
        acc += (m & -m).bit_length()
    return acc


def reference_time():
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t


def canonical(answer):
    """The answer as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(answer))


def run_item(workload, inp, exit_code):
    try:
        return workload.run(inp)
    except Exception as exc:  # an item boundary: record, then keep going
        code = exit_code(exc)
        if code is None:
            return {"error": f"{type(exc).__name__}: {exc}"}, None
        return {"exit": code}, None


def check_item(workload, item, inp, answer, state, expected):
    """None when the answer is right, else why not."""
    if "error" in answer:
        return answer["error"]
    if expected is not None:
        want = expected.get(item["id"])
        if want != answer:
            return f"answer differs from the recorded one: {want!r}"
    if set(answer) == {"exit"}:
        return None  # a library call refused (exit 2 or 3): nothing more to check
    try:
        workload.check(item, inp, answer, state)
    except AssertionError as exc:
        return f"check failed: {exc}"
    except Exception as exc:  # the check's own library calls may raise too
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-passes", type=int, default=1000)
    ap.add_argument("--trace", default=None, help="write spans here and report per-layer metrics")
    ap.add_argument("--expected", default=None)
    ap.add_argument("--record", default=None)
    args = ap.parse_args(argv)

    with open(args.corpus) as fh:
        corpus = json.load(fh)
    items = corpus["items"]

    before = reference_time()
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    workload = workloads.WORKLOADS[args.workload](items, args.workdir)
    setup_raw = time.perf_counter() - t0
    after = reference_time()
    setup_s = setup_raw * 2 * REFERENCE_S / (before + after)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": setup_raw}))
        return 0

    expected = None
    if args.expected and os.path.exists(args.expected):
        with open(args.expected) as fh:
            rec = json.load(fh)
        if rec["seed"] == corpus["seed"] and rec["scale"] == corpus["scale"]:
            expected = rec["answers"]

    gc.freeze()  # the inputs live all run; keep them out of every collection
    answers = [None] * len(items)
    reasons = [None] * len(items)
    latencies = [[] for _ in items]  # scaled seconds, one per pass
    walls = []
    raw_walls = []
    attempted = failed = 0
    start = time.perf_counter()
    before = after
    while True:
        first = not walls
        wall = raw_wall = 0.0
        for k, (item, inp) in enumerate(zip(items, workload.inputs)):
            if tracer:
                tracer.item = k
            t = time.perf_counter()
            answer, state = run_item(workload, inp, workloads.exit_code)
            if not first:
                state = None  # only the first pass checks answers
            # Each item pays for collecting the cyclic garbage it leaves,
            # rather than whichever later item a full collection lands in;
            # this also keeps one item's garbage out of the next one's peak
            # memory.  With the inputs frozen it costs little.
            gc.collect()
            dt = time.perf_counter() - t
            after = reference_time()
            scaled = dt * 2 * REFERENCE_S / (before + after)
            before = after
            raw_wall += dt
            wall += scaled
            latencies[k].append(scaled)
            attempted += 1
            if tracer:
                tracer.paused = True
            answer = canonical(answer)
            if first:
                answers[k] = answer
                reasons[k] = check_item(workload, item, inp, answer, state, expected)
                state = None
                gc.collect()
            elif reasons[k] is None and answer != answers[k]:
                reasons[k] = "answer changed between passes"
            if tracer:
                tracer.paused = False
            failed += reasons[k] is not None
        walls.append(wall)
        raw_walls.append(raw_wall)
        elapsed = time.perf_counter() - start
        if len(walls) >= args.max_passes:
            break
        if len(walls) >= MIN_PASSES and elapsed + raw_wall > args.seconds:
            break

    if args.record:
        with open(args.record, "w") as fh:
            rec = {"workload": args.workload, "seed": corpus["seed"], "scale": corpus["scale"],
                   "answers": {item["id"]: a for item, a in zip(items, answers)}}
            json.dump(rec, fh, indent=1, sort_keys=True)
            fh.write("\n")

    per_item = [statistics.median(v) for v in latencies]
    result = {
        "setup_s": setup_s,
        "raw_setup_s": setup_raw,
        "wall_s": statistics.median(walls),
        "raw_wall_s": statistics.median(raw_walls),
        "passes": len(walls),
        "items": len(items),
        "item_p50_ms": 1000 * statistics.median(per_item),
        "item_p90_ms": 1000 * statistics.quantiles(per_item, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "failures": [f"{items[k]['id']}: {r}" for k, r in enumerate(reasons) if r][:20],
    }
    if tracer:
        result["layers"] = tracer.summary(sum(raw_walls))
        tracer.write(args.trace, [item["id"] for item in items])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
