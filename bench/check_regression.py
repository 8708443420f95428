#!/usr/bin/env python3
"""Thresholded perf-regression gate over google-benchmark JSON output.

Compares a fresh run of a micro benchmark binary (``--benchmark_format=json``)
against a checked-in baseline, e.g.::

    build/bench/bench_micro_join_samplers \
        --benchmark_out=current.json --benchmark_out_format=json
    python3 bench/check_regression.py \
        --baseline bench/baselines/micro_join_samplers.json \
        --current current.json --tolerance 0.5

Baselines are recorded on one machine and checked on another (CI runners
are not the laptop that wrote the baseline), so absolute times are not
directly comparable. The gate therefore normalizes: it computes the
per-benchmark ratio current/baseline, takes the median ratio as the
"machine speed" factor, and flags benchmarks whose ratio exceeds
``median * (1 + tolerance)``. A uniform slowdown moves the median itself,
so --max-median additionally bounds the median ratio (default 3.0, a loose
absolute backstop against whole-suite regressions that survives slow CI
hardware; tighten it when baseline and runner match).

Thread-scaling rows (``Parallel/N``, ``RevisionParallel/N``, ``Sharded/N``
with N > 1) measure the host's cores as much as the code, so they are
refused, not compared, when the two runs' ``context.num_cpus`` differ.

Exit codes: 0 clean, 1 regression(s), 2 usage/data error.
"""

import argparse
import json
import re
import sys

# google-benchmark time units per nanosecond.
_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Benchmarks whose N-thread time depends on how many cores run them.
_THREAD_SCALING = re.compile(r"(?:Parallel|Sharded)/(\d+)")


def thread_scaling(name):
    match = _THREAD_SCALING.search(name)
    return match is not None and int(match.group(1)) > 1


def load_num_cpus(path):
    """The run's context.num_cpus, or None when it was not recorded."""
    with open(path) as f:
        return json.load(f).get("context", {}).get("num_cpus")


def load_times(path):
    """benchmark name -> real_time in ns (raw iterations only).

    A run recorded with ``--benchmark_repetitions=N`` emits N iteration
    entries under the same name; they collapse to their median here, so
    repeated (ideally ``--benchmark_enable_random_interleaving``) runs
    feed the gate one noise-resistant number per benchmark.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    samples = {}
    for entry in doc.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        if entry.get("error_occurred"):
            continue
        name = entry["name"]
        unit = _UNIT_NS.get(entry.get("time_unit", "ns"))
        if unit is None:
            print(f"error: unknown time unit in {name}", file=sys.stderr)
            sys.exit(2)
        samples.setdefault(name, []).append(float(entry["real_time"]) * unit)
    if not samples:
        print(f"error: no benchmarks in {path}", file=sys.stderr)
        sys.exit(2)
    return {name: median(values) for name, values in samples.items()}


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def main():
    parser = argparse.ArgumentParser(
        description="google-benchmark perf-regression gate")
    parser.add_argument("--baseline", default=None,
                        help="checked-in baseline JSON; omit to skip the "
                             "baseline comparison and run only the "
                             "--require-speedup / --require-counter "
                             "assertions on the current run (same-run "
                             "gates need no baseline)")
    parser.add_argument("--current", required=True,
                        help="fresh benchmark JSON to check")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional slowdown over the "
                             "machine-speed-normalized baseline "
                             "(default 0.5 = 50%%)")
    parser.add_argument("--max-median", type=float, default=3.0,
                        help="cap on the median current/baseline ratio; "
                             "catches uniform whole-suite slowdowns "
                             "(default 3.0)")
    parser.add_argument("--allow-new", action="store_true",
                        help="tolerate benchmarks missing from the baseline "
                             "instead of failing (default: fail, which "
                             "forces the documented same-commit baseline "
                             "refresh when benchmarks are added)")
    parser.add_argument("--require-speedup", nargs=3, action="append",
                        default=[], metavar=("FAST", "SLOW", "MIN"),
                        help="assert real_time[SLOW] >= MIN * "
                             "real_time[FAST] in the CURRENT run (both "
                             "exact benchmark names). Cross-benchmark "
                             "invariants (e.g. prepared-query requests "
                             "must stay 2x faster than cold builds) are "
                             "same-run, same-machine comparisons, so no "
                             "normalization applies. Repeatable.")
    parser.add_argument("--require-counter", nargs=3, action="append",
                        default=[], metavar=("KEY", "MIN", "MAX"),
                        help="assert MIN <= counters[KEY] <= MAX in the "
                             "CURRENT run's top-level \"counters\" object "
                             "(bench_loadgen emits one). Use 'inf' for an "
                             "open upper bound. Gates behavioral "
                             "invariants the latency entries cannot "
                             "express: determinism_ok == 1, sheds > 0 "
                             "under deliberate overload, etc. Repeatable.")
    parser.add_argument("--exclude", default=None,
                        help="regex of benchmark names to drop from the "
                             "comparison entirely. Use for benchmarks whose "
                             "time depends on core count (thread-scaling "
                             "args): their baseline/runner ratio reflects "
                             "hardware, not code, and would both evade the "
                             "gate and skew the median normalizer.")
    args = parser.parse_args()

    current = load_times(args.current)
    baseline = load_times(args.baseline) if args.baseline else None

    counter_failures = []
    if args.require_counter:
        with open(args.current) as f:
            counters = json.load(f).get("counters", {})
        for key, lo, hi in args.require_counter:
            try:
                lo, hi = float(lo), float(hi)
            except ValueError:
                print(f"error: --require-counter bounds '{lo}'/'{hi}' are "
                      "not numbers", file=sys.stderr)
                sys.exit(2)
            if key not in counters:
                print(f"require-counter: {key} MISSING from current run")
                counter_failures.append(key)
                continue
            value = float(counters[key])
            verdict = "ok" if lo <= value <= hi else "VIOLATION"
            print(f"require-counter: {key} = {value:g} "
                  f"(need [{lo:g}, {hi:g}])  {verdict}")
            if verdict != "ok":
                counter_failures.append(key)

    speedup_failures = []
    for fast, slow, minimum in args.require_speedup:
        try:
            minimum = float(minimum)
        except ValueError:
            print(f"error: --require-speedup minimum '{minimum}' is not a "
                  "number", file=sys.stderr)
            sys.exit(2)
        if fast not in current or slow not in current:
            missing = [n for n in (fast, slow) if n not in current]
            print(f"error: --require-speedup name(s) not in current run: "
                  f"{', '.join(missing)}", file=sys.stderr)
            sys.exit(2)
        ratio = current[slow] / current[fast]
        verdict = "ok" if ratio >= minimum else "VIOLATION"
        print(f"require-speedup: {slow} / {fast} = {ratio:.2f}x "
              f"(need >= {minimum:.2f}x)  {verdict}")
        if ratio < minimum:
            speedup_failures.append(f"{fast} vs {slow}")
    failures = []
    if baseline is not None:
        if args.exclude:
            pattern = re.compile(args.exclude)
            dropped = sorted(n for n in set(baseline) | set(current)
                             if pattern.search(n))
            for name in dropped:
                baseline.pop(name, None)
                current.pop(name, None)
            if dropped:
                print(f"excluded by --exclude: {', '.join(dropped)}")

        base_cpus = load_num_cpus(args.baseline)
        cur_cpus = load_num_cpus(args.current)
        if (base_cpus is not None and cur_cpus is not None
                and base_cpus != cur_cpus):
            refused = sorted(n for n in set(baseline) | set(current)
                             if thread_scaling(n))
            for name in refused:
                baseline.pop(name, None)
                current.pop(name, None)
            if refused:
                print(f"refused (num_cpus baseline {base_cpus}, current "
                      f"{cur_cpus}): {', '.join(refused)}")

        common = sorted(set(baseline) & set(current))
        missing = sorted(set(baseline) - set(current))
        new = sorted(set(current) - set(baseline))
        if not common:
            print("error: no common benchmarks between baseline and current",
                  file=sys.stderr)
            sys.exit(2)

        ratios = {name: current[name] / baseline[name] for name in common}
        speed = median(ratios.values())
        limit = speed * (1.0 + args.tolerance)

        print(f"{len(common)} common benchmarks; median current/baseline "
              f"ratio {speed:.3f} (machine-speed normalizer), per-benchmark "
              f"limit {limit:.3f}")
        print(f"{'benchmark':<44} {'baseline':>12} {'current':>12} "
              f"{'ratio':>8}  verdict")

        for name in common:
            ratio = ratios[name]
            verdict = "ok"
            if ratio > limit:
                verdict = "REGRESSION"
                failures.append(name)
            print(f"{name:<44} {baseline[name]:>10.0f}ns "
                  f"{current[name]:>10.0f}ns {ratio:>8.3f}  {verdict}")

        for name in missing:
            print(f"{name:<44} {'(missing from current run)':>36}")
            failures.append(name)
        for name in new:
            print(f"{name:<44} {'(new; not in baseline)':>36}")
            if not args.allow_new:
                failures.append(name)

        if speed > args.max_median:
            print(f"FAIL: median ratio {speed:.3f} exceeds --max-median "
                  f"{args.max_median:.3f} (whole-suite slowdown)")
            sys.exit(1)
    if failures:
        print(f"FAIL: {len(failures)} regressed/missing benchmark(s): "
              + ", ".join(failures))
        sys.exit(1)
    if speedup_failures:
        print(f"FAIL: {len(speedup_failures)} --require-speedup "
              f"violation(s): " + ", ".join(speedup_failures))
        sys.exit(1)
    if counter_failures:
        print(f"FAIL: {len(counter_failures)} --require-counter "
              f"violation(s): " + ", ".join(counter_failures))
        sys.exit(1)
    print("PASS: no perf regression beyond tolerance")
    sys.exit(0)


if __name__ == "__main__":
    main()
