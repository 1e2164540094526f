#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them.

    # ten untraced runs per workload, seeds 1..10, results to a JSONL file
    python3 perfbench/compare.py collect --out a.jsonl --seeds 1-10
    # steadiness of one set: per (workload, metric) median, quartiles and
    # the quartile spread as a share of the median, against the bound
    python3 perfbench/compare.py spread a.jsonl
    # two sets: each side's median and quartiles, and whether the medians
    # agree within the metric's bound from BENCHMARK.json
    python3 perfbench/compare.py diff a.jsonl b.jsonl

Run from the repository root. `collect` always runs every workload in
BENCHMARK.json, untraced, at its run_seconds, so that sets compare like
with like. Quartiles are statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(args):
    bench = spec()
    with open(args.out, "a") as out:
        for seed in seed_list(args.seeds):
            for workload in (w["name"] for w in bench["workloads"]):
                command = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                      text=True, timeout=900)
                lines = done.stdout.strip().splitlines()
                row = {"workload": workload, "seed": seed,
                       "status": done.returncode}
                if done.returncode == 0 and lines:
                    row["result"] = json.loads(lines[-1])
                    if len(lines) > 1:
                        row["info"] = json.loads(lines[-2])
                else:
                    row["stderr"] = done.stderr[-2000:]
                out.write(json.dumps(row) + "\n")
                out.flush()
                shown = ({k: round(v["value"], 4) for k, v in
                          row["result"]["metrics"].items()}
                         if "result" in row else row["stderr"][-300:])
                print("%s seed %d: %s" % (workload, seed, shown),
                      file=sys.stderr)


def load(path):
    """{(workload, metric): [values]} over the successful runs in a file."""
    values = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if "result" not in row:
                continue
            for name, metric in row["result"]["metrics"].items():
                values.setdefault((row["workload"], name), []).append(
                    metric["value"])
    return values


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bounds():
    return {m["name"]: m for m in spec()["end_to_end"]}


def spread(args):
    limits = bounds()
    steady = True
    print("%-8s %-12s %4s %12s %12s %12s %8s %8s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound"))
    for (workload, name), values in sorted(load(args.file).items()):
        q1, med, q3 = summary(values)
        share = (q3 - q1) / abs(med) if med else float("inf")
        bound = limits.get(name, {}).get("bound")
        mark = ""
        if bound is not None:
            ok = share < bound / 3
            steady = steady and ok
            mark = "ok" if ok else "WIDE"
        print("%-8s %-12s %4d %12.5g %12.5g %12.5g %8.4f %8s %s" % (
            workload, name, len(values), q1, med, q3, share,
            "-" if bound is None else bound, mark))
    return 0 if steady else 1


def diff(args):
    limits = bounds()
    a, b = load(args.a), load(args.b)
    agree = True
    print("%-8s %-12s %25s %25s %8s %6s" % (
        "workload", "metric", "A q1/median/q3", "B q1/median/q3", "change",
        "bound"))
    for key in sorted(set(a) | set(b)):
        workload, name = key
        if key not in a or key not in b:
            print("%-8s %-12s missing on one side" % key)
            agree = False
            continue
        qa, qb = summary(a[key]), summary(b[key])
        change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("inf")
        limit = limits.get(name)
        verdict = ""
        if limit is not None:
            ok = abs(change) <= limit["bound"]
            agree = agree and ok
            verdict = "agree" if ok else "DIFFER"
        print("%-8s %-12s %25s %25s %+8.4f %6s %s" % (
            workload, name, "%.4g/%.4g/%.4g" % qa, "%.4g/%.4g/%.4g" % qb,
            change, "-" if limit is None else limit["bound"], verdict))
    return 0 if agree else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    s = sub.add_parser("spread")
    s.add_argument("file")
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    args = parser.parse_args()
    if args.mode == "collect":
        collect(args)
        return 0
    return spread(args) if args.mode == "spread" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
