#!/usr/bin/env python3
"""Speed gate: every benchmark workload keeps 60 % of its baseline speed.

Run from the root of a checkout:

    python3 .github/perf_gate.py

For each workload of BENCHMARK.json it runs perfbench/run.py once, at
full size, for a 3-second window with seed 1 and tracing off. It exits 1
when a run prints no result line, reports a wrong outcome or a failed
unit, or measures events_per_s below TOLERANCE times the median in
perfbench/baseline.json. The tolerance is wide because the gate runs on
shared CI hosts, not on the host that measured the baseline.
"""

import json
import subprocess
import sys

TOLERANCE = 0.6


def result_of(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "3", "--trace", "0"]
    lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def main():
    workloads = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
    baseline = json.load(open("perfbench/baseline.json"))["workloads"]
    failures = []
    for w in workloads:
        floor = TOLERANCE * baseline[w]["end_to_end"]["events_per_s"]["median"]
        result = result_of(w)
        if result is None:
            failures.append("%s: no result line" % w)
            continue
        eps = result["metrics"]["events_per_s"]["value"]
        print("%-13s events_per_s %.4g, floor %.4g, correct %s, failed %d"
              % (w, eps, floor, result["correct"], result["failed"]))
        if not result["correct"] or result["failed"] > 0:
            failures.append("%s: wrong outcome or failed units" % w)
        if eps < floor:
            failures.append("%s: events_per_s %.4g is below %.4g" % (w, eps, floor))
    for f in failures:
        print("perf gate: FAIL " + f)
    print("perf gate: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
