#!/usr/bin/env python3
"""Measure a baseline: every workload over ten seeds, plus one traced run.

Run from the root of a checkout:

    python3 perfbench/collect.py [--out perfbench/baseline.json]

For each workload of BENCHMARK.json it runs perfbench/run.py once per
seed (1..10) with --trace 0 for BENCHMARK.json's run_seconds and
reports, per end-to-end metric, the median and the spread (inter-quartile
range over the median, as statistics.quantiles gives the quartiles)
against the metric's bound, marking any spread of a third of the bound
or more; then one --trace 1 run (seed 1) for the per-layer breakdown,
the tracing overhead and the self-time ledger of its spans. With --out
the record is written as JSON. Exits 1 if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SEEDS = list(range(1, 11))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=900)
    lines = p.stdout.decode().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), p.returncode))
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host {")), None)
    return json.loads(lines[-1]), host


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None)
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    record = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for w in [x["name"] for x in bench["workloads"]]:
        t0 = time.time()
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in SEEDS:
            r, host = run(w, seed, seconds, 0)
            record["host"] = host
            for m in bench["end_to_end"]:
                values[m["name"]].append(r["metrics"][m["name"]]["value"])
        e2e = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
            e2e[m["name"]] = {"median": med, "spread": spread, "bound": m["bound"],
                              "unit": m["unit"], "values": v}
            print("%-13s %-14s median %-14.6g spread %.3f (bound %.2f, a third %.3f)%s"
                  % (w, m["name"], med, spread, m["bound"], m["bound"] / 3,
                     "" if spread < m["bound"] / 3 else "  <-- wide"))
        entry = {"end_to_end": e2e, "wall_s": round(time.time() - t0, 1)}
        r, _ = run(w, 1, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in r["metrics"].items()}
        record_path = os.path.join("_perfbench", "out", "%s-seed1-trace1.json" % w)
        entry["ledger"] = json.load(open(record_path))["ledger"]
        print("%-13s trace.overhead_pct %.2f" % (w, entry["per_layer"]["trace.overhead_pct"]))
        record["workloads"][w] = entry
    if a.out:
        with open(a.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
