#!/usr/bin/env python3
"""Builds and runs the spatial-sketch benchmark (see perfbench/README.md).

Single run (what BENCHMARK.json's command does):
    python3 perfbench/run.py --workload stream-mix --seed 1 --seconds 10 --trace 0
  Builds the benchmark package in release mode, runs one workload and
  passes its output through; the last line is the JSON result.

All workloads, untraced and traced, with the tracing overhead:
    python3 perfbench/run.py --all --seed 1 --seconds 10

Steadiness: every workload (or --workload) on seeds seed..seed+N-1,
printing each end-to-end metric's median, quartiles and spread, flagged
against its bound in BENCHMARK.json; with --sets 2, a second set of N runs
on the next N seeds follows, and each metric's second median is compared
with the first, flagged when it is worse by more than the bound:
    python3 perfbench/run.py --repeat 10 --seed 1 --seconds 10 --sets 2
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Release-builds the benchmark; cargo's output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    return subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode


def binary():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    return os.path.join(target, "release", "perfbench")


def run_once(workload, seed, seconds, trace, echo):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary(), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
        steal = [l for l in lines if l.startswith("config ")]
        if steal:
            result["steal"] = json.loads(steal[-1][len("config "):]).get("cpu_steal_pct")
    return proc.returncode, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def repeat(spec, workloads, seed, seconds, n):
    """Runs each workload on n seeds and prints the spreads; returns
    (all within bounds, {workload: {metric: [values]}})."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    medians = {}
    for w in workloads:
        values = {}
        failed = 0
        for s in range(seed, seed + n):
            code, result = run_once(w, s, seconds, 0, echo=False)
            if code != 0 or result is None or not result["correct"]:
                print(f"{w} seed {s}: exit {code}, result {result}")
                ok = False
                continue
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s} (steal {result.get('steal')}%): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        medians[w] = {name: statistics.median(vals) for name, vals in values.items()}
        print(f"== {w}: {n} runs, {failed} failed operations ==")
        print(f"  {'metric':<16} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3, sp = spread(vals)
            bound = bounds.get(name, 0.0)
            flag = ""
            if sp > bound:
                flag = "  OVER BOUND"
                ok = False
            elif sp > bound / 3:
                flag = "  over bound/3"
            print(f"  {name:<16} {q1:>12.5g} {med:>12.5g} {q3:>12.5g} {sp:>8.3f} {bound:>6}{flag}")
    return ok, medians


def compare(spec, first, second):
    """Flags every metric whose second median is worse than the first by
    more than its bound."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    print("== second set against the first (positive: worse) ==")
    for w, meds in first.items():
        for name, a in meds.items():
            b = second.get(w, {}).get(name)
            if b is None or not a:
                continue
            m = metrics[name]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
            ok &= not flag
            print(f"  {w:<16} {name:<16} {a:>12.5g} {b:>12.5g} {worse:>+8.3f} {m['bound']:>6}{flag}")
    return ok


def all_workloads(spec, seed, seconds):
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        code0, plain = run_once(w, seed, seconds, 0, echo=True)
        code1, traced = run_once(w, seed, seconds, 1, echo=True)
        if None in (plain, traced) or not (plain["correct"] and traced["correct"]):
            ok = False
            continue
        p, t = plain["metrics"], traced["metrics"]
        p2_add = t["trace.query_p2_us"]["value"] - p["query_p2_us"]["value"]
        print(f"== {w}: tracing overhead: query p2 {p2_add:+.1f} us ==", flush=True)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    args = ap.parse_args()

    if build() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.all or args.repeat:
        spec = load_spec()
        if args.repeat:
            names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
            ok, first = repeat(spec, names, args.seed, args.seconds, args.repeat)
            if args.sets == 2:
                ok2, second = repeat(spec, names, args.seed + args.repeat, args.seconds, args.repeat)
                ok = compare(spec, first, second) and ok and ok2
        else:
            ok = all_workloads(spec, args.seed, args.seconds)
        return 0 if ok else 1
    if not args.workload:
        ap.error("--workload is required for a single run")
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
