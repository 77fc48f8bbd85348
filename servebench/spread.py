#!/usr/bin/env python3
"""Runs one workload once per seed and reports how much each metric spreads.

    python3 servebench/spread.py --workload pace_open --seeds 1-10 \
        [--trace 0] [--seconds N] [--save runs.json] [-- --window 32]
    python3 servebench/spread.py --compare first.json second.json

Spread is (Q3 - Q1) / median of the per-seed values, with the quartiles of
statistics.quantiles(values, n=4); it is printed beside the metric's bound
from BENCHMARK.json. --compare prints how far the second set's median moved
from the first's, in the worse direction, as a share of the first.
Run from the checkout root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}, spec


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed",
                                 str(seed), "--seconds", str(seconds),
                                 "--trace", str(args.trace)] + args.extra
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = proc.returncode == 0 and result.get("correct") is True
        print(f"seed {seed}: exit {proc.returncode} correct={ok} "
              f"failed={result.get('failed')}", file=sys.stderr)
        if not ok:
            sys.stderr.write(proc.stderr[-2000:])
            sys.exit(1)
        runs.append({"seed": seed, "metrics": {
            k: v["value"] for k, v in result["metrics"].items()}})
    return runs


def summarize(runs, metrics):
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = metrics.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6}  {verdict}")


def compare(first, second, metrics):
    print(f"{'metric':40} {'median 1':>12} {'median 2':>12} {'worse by':>9} "
          f"{'bound':>6}")
    for name, spec in metrics.items():
        if "bound" not in spec or name not in first[0]["metrics"]:
            continue
        a = statistics.median(r["metrics"][name] for r in first)
        b = statistics.median(r["metrics"][name] for r in second)
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        flag = "" if worse <= spec["bound"] else "  REGRESSION"
        print(f"{name:40} {a:12.6g} {b:12.6g} {worse:9.4f} "
              f"{spec['bound']:6}{flag}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--save")
    p.add_argument("--compare", nargs=2)
    p.add_argument("extra", nargs="*", help="arguments passed through")
    args = p.parse_args()
    metrics, spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        compare(sets[0], sets[1], metrics)
        return
    runs = run(args, spec)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f)
    summarize(runs, metrics)


if __name__ == "__main__":
    main()
