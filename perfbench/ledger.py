#!/usr/bin/env python3
"""Run-to-run spread and bound checks over benchmark results.

  python3 perfbench/ledger.py runs --workload small --seeds 1-10 --out a.jsonl
      Runs the benchmark once per seed (run.py, untraced), appends each
      result to the file as {"workload", "seed", "result"}, then prints
      every end-to-end metric's median and quartile spread against its
      bound.
  python3 perfbench/ledger.py spread a.jsonl
      The same table for results already collected.
  python3 perfbench/ledger.py compare parent.jsonl change.jsonl
      Per workload and metric: the change's median against the parent's,
      with the worsening as a share of the parent's median and the verdict
      against the metric's bound.

Bounds and directions come from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives
    them (the 'exclusive' method)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return float("inf") if q3 != q1 else 0.0
    return (q3 - q1) / abs(median)


def worsening(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when it is better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    if better == "lower":
        return (change - parent) / abs(parent)
    return (parent - change) / abs(parent)


def within_bound(parent, change, better, bound):
    """True unless `change` is worse than `parent` by more than `bound`."""
    return worsening(parent, change, better) <= bound


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_results(path):
    """workload -> metric -> [values] over the result lines of a file."""
    table = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            metrics = table.setdefault(row["workload"], {})
            for name, m in row["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return table


def print_spread(table, spec):
    worst = 0.0
    for workload, metrics in sorted(table.items()):
        print("workload %s" % workload)
        for m in spec["end_to_end"]:
            values = metrics.get(m["name"], [])
            if not values:
                print("  %-24s missing" % m["name"])
                continue
            s = quartile_spread(values)
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print("  %-24s n=%-3d median %-12.6g spread %.4f  bound %.2f%s"
                  % (m["name"], len(values), statistics.median(values), s,
                     m["bound"], "" if s <= m["bound"] / 3 else "  WIDE"))
    print("worst spread / bound (setup_s excluded): %.3f" % worst)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_runs(args, spec):
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout + out.stderr)
            print("seed %d failed (exit %d)" % (seed, out.returncode))
            return 1
        result = json.loads(lines[-1])
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "result": result}) + "\n")
        print("seed %d: correct=%s" % (seed, result["correct"]), flush=True)
    print_spread(load_results(args.out), spec)
    return 0


def cmd_compare(args, spec):
    parent, change = load_results(args.parent), load_results(args.change)
    ok = True
    for workload in sorted(parent):
        print("workload %s" % workload)
        for m in spec["end_to_end"]:
            a = parent[workload].get(m["name"])
            b = change.get(workload, {}).get(m["name"])
            if not a or not b:
                print("  %-24s missing" % m["name"])
                ok = False
                continue
            pa, pb = statistics.median(a), statistics.median(b)
            w = worsening(pa, pb, m["better"])
            fine = within_bound(pa, pb, m["better"], m["bound"])
            ok = ok and fine
            print("  %-24s parent %-12.6g change %-12.6g worse by %+.4f "
                  "(bound %.2f) %s" % (m["name"], pa, pb, w, m["bound"],
                                       "ok" if fine else "REGRESSED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    runs = sub.add_parser("runs")
    runs.add_argument("--workload", required=True)
    runs.add_argument("--seeds", default="1-10")
    runs.add_argument("--out", required=True)
    spread = sub.add_parser("spread")
    spread.add_argument("results")
    compare = sub.add_parser("compare")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = parser.parse_args()
    spec = load_spec()
    if args.cmd == "runs":
        return cmd_runs(args, spec)
    if args.cmd == "spread":
        print_spread(load_results(args.results), spec)
        return 0
    return cmd_compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
