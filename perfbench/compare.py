#!/usr/bin/env python3
"""Compare two sets of benchmark results written by `run.py --out FILE`.

  python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json ...

Results are grouped by workload and trace mode; each metric's medians are
compared. An end-to-end metric that BENCHMARK.json bounds is flagged as a
regression when the new median is worse than the base median by more than
its bound. Thread-dependent metrics (every exec.* metric, and every metric
of the workloads whose sessions run nproc - 1 executor threads) are refused,
not compared, when the two sides ran on machines with different nproc.

Exit status: 0 no bounded regression, 1 a bounded regression, 2 a
comparison was refused or the inputs do not match.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Workloads whose sessions size their executor to the machine (nproc - 1).
THREAD_DEPENDENT_WORKLOADS = {"uq1-bulk", "chains-churn-sharded"}


def thread_dependent(workload, metric):
    return metric.startswith("exec.") or workload in THREAD_DEPENDENT_WORKLOADS


def load(paths):
    """{(workload, trace): {"nproc": set, "metrics": {name: [values]}}}"""
    groups = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        ctx = result["context"]
        g = groups.setdefault((ctx["workload"], ctx["trace"]),
                              {"nproc": set(), "metrics": {}, "units": {}})
        g["nproc"].add(ctx["nproc"])
        for name, m in result["metrics"].items():
            g["metrics"].setdefault(name, []).append(m["value"])
            g["units"][name] = m["unit"]
    return groups


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    p.add_argument("--contract",
                   default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.contract) as f:
        contract = json.load(f)
    bounded = {m["name"]: m for m in contract["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in contract["end_to_end"] + contract["per_layer"]}

    base, new = load(args.base), load(args.new)
    status = 0
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        if key not in base or key not in new:
            print("%s trace=%d: only on one side" % key)
            status = max(status, 2)
            continue
        b, n = base[key], new[key]
        same_nproc = len(b["nproc"] | n["nproc"]) == 1
        print("== %s trace=%d (nproc base %s, new %s)" % (
            workload, trace, sorted(b["nproc"]), sorted(n["nproc"])))
        for name in sorted(set(b["metrics"]) & set(n["metrics"])):
            if not same_nproc and thread_dependent(workload, name):
                print("  %-34s REFUSED: thread-dependent, nproc differs" % name)
                status = max(status, 2)
                continue
            mb = statistics.median(b["metrics"][name])
            mn = statistics.median(n["metrics"][name])
            if mn == mb:
                change = 0.0
            else:
                change = (mn - mb) / abs(mb) if mb else float("inf")
            worse = change if better.get(name) == "lower" else -change
            verdict = ""
            if name in bounded:
                if worse > bounded[name]["bound"]:
                    verdict = "REGRESSION (bound %.2f)" % bounded[name]["bound"]
                    status = max(status, 1)
                else:
                    verdict = "ok (bound %.2f)" % bounded[name]["bound"]
            print("  %-34s %14.6g -> %14.6g %s  %+7.1f%%  %s" % (
                name, mb, mn, b["units"][name], 100 * change, verdict))
    return status


if __name__ == "__main__":
    sys.exit(main())
