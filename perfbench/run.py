#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is soak-long, sweep-short, chaos-traced or proto-check. The script
builds perfbench/perfbench.exe with dune (into _build/), then runs it in
_perfbench/work/ and passes its standard output through; the last line
is the run's JSON result. Run records and span dumps land in
_perfbench/out/. Other arguments (--smoke, --perturb-reference,
--write-reference FILE, --declarations) go to the executable unchanged.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
PATH_ARGS = ("--reference", "--out-dir", "--write-reference")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main(argv):
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("no %s here: run from the root of a checkout of the repository" % needed)

    # Keep dune's shared cache out of it: everything stays in the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"]
    try:
        built = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if built.returncode != 0:
        fail("build failed (exit %d)" % built.returncode)

    # Store.make resolves the git revision from the nearest .git/HEAD on
    # every record, as `repro run` does in a checkout on a branch. The
    # work directory carries that layout so the lookup costs what it
    # costs there and never leaves the checkout.
    work = os.path.join(root, "_perfbench", "work")
    refs = os.path.join(work, ".git", "refs", "heads")
    os.makedirs(refs, exist_ok=True)
    with open(os.path.join(work, ".git", "HEAD"), "w") as f:
        f.write("ref: refs/heads/perfbench\n")
    with open(os.path.join(refs, "perfbench"), "w") as f:
        f.write("0" * 40 + "\n")

    args = list(argv)
    for i, a in enumerate(args[:-1]):
        if a in PATH_ARGS:
            args[i + 1] = os.path.abspath(args[i + 1])
    defaults = [("--reference", os.path.join(root, "perfbench", "reference.json")),
                ("--out-dir", os.path.join(root, "_perfbench", "out"))]
    for flag, value in defaults:
        if flag not in args:
            args += [flag, value]

    # The GC runs with the runtime defaults, as bin/repro.exe does, and
    # the revision comes from the work directory, not the environment.
    env.pop("OCAMLRUNPARAM", None)
    env.pop("GITHUB_SHA", None)
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    try:
        proc = subprocess.run([exe] + args, cwd=work, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
