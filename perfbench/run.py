#!/usr/bin/env python3
"""Builds the xfraud benchmark from source and runs it once.

Run from the repository root:

  python3 perfbench/run.py --workload small --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

The build goes to .bench_build/ and scratch files to .bench_work/, both
under the repository root. The benchmark prints a report and, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics. Build output goes to standard error. A missing source
tree, a failed build or a timeout exits non-zero without a result.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds the given targets; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no source tree at " + ROOT + "/src; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] +
                 targets)
    for cmd in steps:
        if subprocess.call(cmd, cwd=ROOT, stdout=sys.stderr) != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_group(cmd, timeout_s, env=None):
    """Runs cmd in its own process group, so every process it forks
    (shard servers, training ranks) is stopped with it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log("timed out after %d s" % timeout_s)
        return 124
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # Leftovers are reparented, not ours to reap; wait until the group
        # is empty.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def self_test():
    if not build(["perfbench_stats_test"]):
        return 1
    code = run_group([os.path.join(BUILD_DIR, "perfbench_stats_test")], 60)
    tests = subprocess.call([sys.executable, "-m", "unittest", "-q",
                             "test_ledger"], cwd=BENCH_DIR)
    return code or tests


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the statistics unit tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    started = time.monotonic()
    if not build(["perfbench"]):
        return 3
    log("build ready in %.1f s" % (time.monotonic() - started))
    env = dict(os.environ, PERFBENCH_COMMIT=git_commit())
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "%g" % args.seconds,
           "--trace", str(args.trace)]
    code = run_group(cmd, RUN_TIMEOUT_S, env)
    try:
        os.rmdir(os.path.join(ROOT, ".bench_work"))
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
