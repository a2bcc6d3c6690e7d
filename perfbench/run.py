#!/usr/bin/env python3
"""Build and run the XLOOPS repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

Builds perfbench/perfbench.exe and bin/xloops_serve.exe with dune, then
runs the benchmark with the same arguments.  Its standard output is the
benchmark's; the last line is one JSON object.  Exits non-zero, without
a result, if the build or any correctness check fails.  See
perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = "_build/default/perfbench/perfbench.exe"
SERVE = "_build/default/bin/xloops_serve.exe"
TIMEOUT_S = 170


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/perfbench.exe", "./bin/xloops_serve.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # One CPU for the benchmark and everything it starts: a closed loop
    # with one client needs no more, and without pinning the scheduler's
    # placement of client, daemon and worker changed the batch latency of
    # serve-warm by a third from one run to the next.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # A session of its own, so a timeout can stop the daemons too.
    proc = subprocess.Popen(
        [os.path.join(ROOT, BENCH), "--serve-exe", SERVE] + sys.argv[1:],
        cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
