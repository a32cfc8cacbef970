#!/usr/bin/env python3
"""Sensitivity self-test of the benchmark.

Runs three sets of runs per workload over the same seeds, interleaved:
two clean sets and one with `--inject-slowdown 0.25` (a busy-wait of a
quarter of the per-request time, inside the benchmark's own scheduler
wrapper, so a pass takes 1.25 times as long). A set
comparison flags an end-to-end metric as worse when its median moved
the wrong way by more than the metric's bound in BENCHMARK.json.

The test passes when the two clean sets compare clean on every metric
and workload, and the injected set is flagged worse on `reqs_per_s` on
every workload.

    python3 perfbench/selftest.py [--runs 3] [--seconds 10]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The injected busy-wait, as a share of the per-request time.
INJECT = 0.25


def run_one(workload, seed, seconds, extra, values):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed\n{out.stdout}{out.stderr}")
    for name, m in result["metrics"].items():
        values.setdefault(name, []).append(m["value"])


def run_sets(workload, seeds, seconds):
    """The three sets' medians. The sets run interleaved, seed by seed in
    a rotating order, so a slow phase of a shared host falls on every set
    alike instead of on one set."""
    sets = [("first", []), ("second", []), ("injected", ["--inject-slowdown", str(INJECT)])]
    values = {name: {} for name, _ in sets}
    for i, seed in enumerate(seeds):
        for name, extra in sets[i % 3:] + sets[:i % 3]:
            run_one(workload, seed, seconds, extra, values[name])
    return [{m: statistics.median(v) for m, v in values[name].items()} for name, _ in sets]


def worse(base, other, spec):
    """Relative change of `other` against `base`, positive when worse."""
    if base == 0:
        return 0.0
    change = (other - base) / abs(base)
    return -change if spec["better"] == "higher" else change


def compare(label, base, other, specs):
    flagged = []
    for spec in specs:
        name = spec["name"]
        w = worse(base[name], other[name], spec)
        mark = "WORSE" if w > spec["bound"] else "ok"
        print(f"  {label:<18} {name:<28} {100 * w:+7.2f}% (bound {100 * spec['bound']:.0f}%) {mark}")
        if w > spec["bound"]:
            flagged.append(name)
    return flagged


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--seconds", type=int, default=None)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(101, 101 + args.runs))
    ok = True
    for workload in workloads:
        print(f"{workload}: seeds {seeds}, {seconds} s per run", flush=True)
        first, second, injected = run_sets(workload, seeds, seconds)
        clean = compare("clean vs clean", first, second, bench["end_to_end"])
        caught = compare("clean vs injected", first, injected, bench["end_to_end"])
        if clean:
            print(f"  FAIL: clean sets disagree on {clean}")
            ok = False
        if "reqs_per_s" not in caught:
            print("  FAIL: the injected slowdown was not flagged on reqs_per_s")
            ok = False
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
