#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds the benchmark executable (perfbench/main.ml) from source with
dune, then runs one workload and passes its output through:

    python3 perfbench/run.py --workload sweep-a12 --seed 1 --seconds 25 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; build output
goes to standard error. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

# What a checkout must hold for the benchmark to build.
REQUIRED = ["dune-project", "lib/sim/dune", "perfbench/dune", "BENCHMARK.json"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
# Set-up, warm-up and the traced run's probes come on top of --seconds.
RUN_GRACE_S = 120


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it. Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    missing = [f for f in REQUIRED if not os.path.exists(f)]
    if missing:
        print("perfbench: run from the repository root; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2

    # Keep dune inside the checkout: no shared build cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code = run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                   BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    if code != 0:
        print("perfbench: build failed" if code is not None
              else "perfbench: build timed out", file=sys.stderr)
        return 1

    sys.stdout.flush()
    code = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)],
               args.seconds + RUN_GRACE_S)
    if code is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
