#!/usr/bin/env python3
"""Build and run the service benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

The first form builds the library and the benchmark binary from source
(CMake, RelWithDebInfo, into .bench_build/ or $CARGO_TARGET_DIR), runs one
workload, and passes the binary's report through. The last line of stdout
is the JSON result: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
Spans of traced runs are written under the build directory. A failed build,
a failed correctness check or a malformed result exits non-zero without a
result line. The second form runs each workload in turn and exits non-zero
if any of them failed.

--smoke runs every workload briefly, traced and untraced, and checks that
each metric BENCHMARK.json names is emitted with its unit and that every
per-layer rung ran.

--out FILE additionally writes the run's full result (machine context,
every metric) for perfbench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = os.path.join(build_dir(), "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "perfbench", "-j4"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_binary(binary, workload, seed, seconds, trace, smoke=False, out=None):
    """Runs one workload; returns (exit code, stdout lines)."""
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-dir", spans, "--git-commit", git_commit()]
    if smoke:
        cmd.append("--smoke")
    if out:
        cmd += ["--out", out]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 124, []
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The result object of the last stdout line, or None if malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or sorted(result) != sorted(
            ["correct", "attempted", "failed", "metrics"]):
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return result


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def missing_metrics(result, wanted):
    """Names in `wanted` absent from `result` or emitted with another unit."""
    bad = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if not got or got.get("unit") != m["unit"]:
            bad.append(m["name"])
    return bad


def workload_names(binary):
    """Every workload the binary knows, including any BENCHMARK.json does
    not gate."""
    return subprocess.run([binary, "--list-workloads"], capture_output=True,
                          text=True).stdout.split()


def smoke(binary):
    contract = load_contract()
    names = workload_names(binary)
    failures = [] if names else ["no workloads listed"]
    for name in names:
        for trace in (0, 1):
            label = "%s trace=%d" % (name, trace)
            before = len(failures)
            code, lines = run_binary(binary, name, 1, SMOKE_SECONDS, trace,
                                     smoke=True)
            result = parse_result(lines)
            if code != 0 or result is None:
                failures.append(label + ": exit %d or malformed result" % code)
            else:
                wanted = contract["per_layer" if trace else "end_to_end"]
                bad = missing_metrics(result, wanted)
                if bad:
                    failures.append(label + ": missing " + ", ".join(bad))
                # The binary exits non-zero itself when a ladder rung did
                # not run; here the rung list must be reported.
                if trace and not any(l.startswith("rungs ") for l in lines):
                    failures.append(label + ": no rung list")
            log("smoke %s: %s" % (label, "ok" if len(failures) == before
                                  else failures[-1]))
    for f in failures:
        print("SMOKE FAIL " + f)
    print("smoke: %s" % ("FAILED" if failures else "all workloads ok"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()
    if not args.smoke and not args.workload:
        p.error("--workload is required")

    binary = build()
    if binary is None:
        return 3
    if args.smoke:
        return smoke(binary)

    names = (workload_names(binary) if args.workload == "all"
             else [args.workload])
    status = 0
    for name in names:
        out = args.out
        if out and len(names) > 1:
            out = "%s.%s" % (out, name)
        code, lines = run_binary(binary, name, args.seed, args.seconds,
                                 args.trace, out=out)
        result = parse_result(lines)
        if code != 0 or result is None or result["correct"] is not True:
            # Whatever the binary printed is diagnostics, not a result.
            for l in lines:
                log(l)
            log("perfbench: %s failed (exit %d)" % (name, code))
            status = code or 1
            continue
        for l in lines:
            print(l)
    return status


if __name__ == "__main__":
    sys.exit(main())
