"""Self-test of the benchmark harness, at toy sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:

- an untraced run prints every end-to-end metric, and a traced run every
  per-layer metric, each with the unit BENCHMARK.json gives it;
- answers recorded for a corpus are accepted when they are right, and one
  corrupted answer makes the run report a failed item and `correct: false`.

Then, that the tracer reports a vanished target as absent instead of
crashing, and that the benchmark exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)


def run(argv, cwd=ROOT, check=True):
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, stdout=subprocess.PIPE, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"{' '.join(argv)} exited {proc.returncode}")
    return proc


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(workload, *extra):
    return result(run([os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
                       "--seconds", "1", "--scale", "tiny", *extra]))


def check_metrics(res, specs, what):
    got = res["metrics"]
    assert set(got) == {m["name"] for m in specs}, f"{what}: metric names differ"
    for m in specs:
        assert got[m["name"]]["unit"] == m["unit"], f"{what}: unit of {m['name']}"
        assert isinstance(got[m["name"]]["value"], (int, float)), f"{what}: value of {m['name']}"
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{what}: {res}"


def check_recorded_answers(workload, scratch):
    recorded = os.path.join(scratch, "expected.json")
    bench(workload, "--record", recorded)
    res = bench(workload, "--expected", recorded)
    assert res["correct"] and res["failed"] == 0, f"{workload}: recorded answers rejected"

    with open(recorded) as fh:
        rec = json.load(fh)
    first = sorted(rec["answers"])[0]
    rec["answers"][first] = {"exit": 99}
    with open(recorded, "w") as fh:
        json.dump(rec, fh)
    res = bench(workload, "--expected", recorded)
    assert not res["correct"] and res["failed"] > 0, f"{workload}: corrupted answer not caught"
    print(f"{workload}: corrupted answer gives failed_ratio {res['failed'] / res['attempted']:.3g}")


def check_absent_wrapper():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import coordsolve.design
    from tracer import Tracer

    del coordsolve.design.strong_centrality
    tracer = Tracer()
    tracer.install()
    assert tracer.absent == ["design.strong_centrality"], tracer.absent
    values = tracer.summary(1.0)
    assert values["trace.absent_wrappers"] == 1 and values["design.strong_centrality.calls"] == 0
    print("tracer: a vanished target is reported absent")


def check_bare_directory(scratch):
    bare = os.path.join(scratch, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["perfbench/run.py", "--workload", "cli-docs", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=bare, check=False)
    assert proc.returncode != 0 and not proc.stdout.strip(), "bare directory did not fail cleanly"
    print(f"bare directory: exit {proc.returncode}, no result printed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    scratch = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(scratch)
    try:
        for w in spec["workloads"]:
            name = w["name"]
            check_metrics(bench(name, "--trace", "0"), spec["end_to_end"], f"{name} untraced")
            check_metrics(bench(name, "--trace", "1"), spec["per_layer"], f"{name} traced")
            print(f"{name}: every metric emitted with its unit")
            check_recorded_answers(name, scratch)
        check_absent_wrapper()
        check_bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
