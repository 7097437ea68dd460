#!/usr/bin/env python3
"""End-to-end benchmark of the dpe_serve request path.

Run from the root of a kitdpe checkout:

    python3 servebench/run.py --workload encrypt --seed 1 --seconds 15 --trace 0

Builds servebench/serve_bench.exe from source with dune, then runs it
with a one-domain pool (KITDPE_DOMAINS=1) and telemetry off unless the
traced run turns it on.  The last line of standard output is one JSON
result object.  Exits 2 without a result when the checkout cannot be
built or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

EXE = "servebench/serve_bench.exe"
BUILD_TIMEOUT_S = 850
RUN_LIMIT_S = 175


def die(msg):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(env):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("not the root of a kitdpe checkout (no dune-project or lib/)")
    if not shutil.which("dune"):
        die("dune not found on PATH")
    # keep every build artifact and temporary file inside the checkout
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = os.path.abspath(os.path.join("_build", "servebench-tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "./" + EXE]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if done.returncode != 0:
        die("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["encrypt", "mine", "mine-index", "mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    env["KITDPE_DOMAINS"] = "1"
    env["KITDPE_OBS"] = "0"
    build(env)

    start = time.monotonic()
    cmd = [os.path.join("_build", "default", EXE),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_LIMIT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        die("run failed with exit code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("last output line is not JSON")
    for line in lines[:-1]:
        print(line)
    print("servebench: run took %.1f s" % (time.monotonic() - start), file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
