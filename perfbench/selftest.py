#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs all four workloads at smoke size and checks that:
- BENCHMARK.json and perfbench/metrics.json agree with the metric
  declarations the executable prints;
- an untraced run prints every end-to-end metric with its unit (the
  final JSON line carries the BENCHMARK.json ones) and reports
  fail_rate 0;
- a traced run carries every per-layer metric with its unit;
- a perturbed reference digest drives fail_rate to 1 for that unit and
  makes the command exit non-zero;
- a reference that lacks one of the pass's units, or names a unit the
  pass does not produce, fails that unit and the command, and a missing
  reference file fails the command without a result;
- in a directory holding only BENCHMARK.json and perfbench/, the
  command fails without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    p = subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=600)
    return p.returncode, p.stdout.decode().splitlines()


def result(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def metric_lines(lines):
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (parts[2], parts[3])
    return out


def reference_cases(bench):
    """Edited copies of perfbench/reference.json, on soak-long at smoke size."""
    ref = json.load(open(os.path.join("perfbench", "reference.json")))
    entry = "soak-long/smoke/all"
    key = sorted(ref[entry])[0]
    edited = os.path.join(ROOT, "_perfbench", "reference-edited.json")
    base = ["--workload", "soak-long", "--seed", "0", "--seconds", "1", "--trace", "0",
            "--smoke", "--reference", edited]
    cases = [
        ("a unit missing from the reference", key, lambda units: units.pop(key)),
        ("a reference unit the pass does not produce", "no-such-unit",
         lambda units: units.update({"no-such-unit": "x"})),
    ]
    for what, failing, edit in cases:
        copy = json.loads(json.dumps(ref))
        edit(copy[entry])
        with open(edited, "w") as f:
            json.dump(copy, f)
        code, lines = run(base)
        r = result(lines)
        unit_lines = [l for l in lines if l.startswith("unit ")]
        check(code != 0 and r is not None and not r["correct"] and r["failed"] >= 1
              and len(unit_lines) == 1 and unit_lines[0].startswith("unit %s fail_rate 1 " % failing),
              "soak-long: %s gives fail_rate 1 for that unit and fails" % what)
    os.remove(edited)
    code, lines = run(base)
    check(code != 0 and result(lines) is None,
          "soak-long: without a reference file the command fails and prints no result")


def main():
    bench = json.load(open("BENCHMARK.json"))
    code, lines = run(["--declarations"])
    decls = json.loads(lines[-1])
    check(code == 0, "declarations print")
    check(json.load(open(os.path.join("perfbench", "metrics.json"))) == decls,
          "perfbench/metrics.json matches the declarations")
    check(bench["workloads"] == decls["workloads"], "BENCHMARK.json workloads match")
    check([(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]]
          == [(m["name"], m["unit"], m["better"], m["bound"]) for m in decls["end_to_end"]],
          "BENCHMARK.json end_to_end matches")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == [(m["name"], m["unit"], m["better"]) for m in decls["per_layer"]],
          "BENCHMARK.json per_layer matches")
    printed = decls["end_to_end"] + decls["end_to_end_printed_only"]

    for w in [x["name"] for x in bench["workloads"]]:
        base = ["--workload", w, "--seed", "0", "--seconds", "1", "--smoke"]
        code, lines = run(base + ["--trace", "0"])
        r = result(lines)
        check(code == 0 and r is not None and r["correct"] and r["failed"] == 0,
              "%s: untraced run correct" % w)
        if r is None:
            continue
        check(all(r["metrics"].get(m["name"], {}).get("unit") == m["unit"]
                  and isinstance(r["metrics"][m["name"]]["value"], (int, float))
                  for m in bench["end_to_end"]),
              "%s: result carries every end-to-end metric with its unit" % w)
        shown = metric_lines(lines)
        check(all(m["name"] in shown and shown[m["name"]][1] == m["unit"] for m in printed),
              "%s: every end-to-end metric printed with its unit" % w)
        check(shown.get("fail_rate", ("?",))[0] == "0", "%s: fail_rate 0" % w)

        code, lines = run(base + ["--trace", "1"])
        r = result(lines)
        check(code == 0 and r is not None and
              all(r["metrics"].get(m["name"], {}).get("unit") == m["unit"]
                  for m in bench["per_layer"]),
              "%s: traced run carries every per-layer metric with its unit" % w)

        code, lines = run(base + ["--trace", "0", "--perturb-reference"])
        r = result(lines)
        unit_lines = [l for l in lines if l.startswith("unit ")]
        check(code != 0 and r is not None and not r["correct"] and r["failed"] >= 1
              and len(unit_lines) == 1 and " fail_rate 1 " in unit_lines[0],
              "%s: perturbed reference gives fail_rate 1 for that unit and fails" % w)

    reference_cases(bench)

    bare = os.path.join(ROOT, "_perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    code, lines = run(["--workload", "soak-long", "--seed", "0", "--seconds", "1",
                       "--trace", "0"], cwd=bare)
    check(code != 0 and result(lines) is None,
          "without the repository the command fails and prints no result")
    shutil.rmtree(bare)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
