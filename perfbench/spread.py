#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--seconds 20] [--trace 0|1]
                                [--workloads a,b] [--out perfbench/baseline.json]

Run from the repository root. For every workload it runs the benchmark
once per seed (1..runs), prints each metric's median, first and third
quartile (Python's ``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, and flags a spread wider than
a third of the metric's bound in BENCHMARK.json. With ``--out`` it writes
those figures, every run's raw values and the first run's manifest, as
JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    manifest = next(l for l in lines if l.startswith("manifest "))
    result["manifest"] = json.loads(manifest[len("manifest "):])
    return result


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to take quartiles")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"runs": args.runs, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run_once(spec["command"], workload, seed, args.seconds, args.trace)
                   for seed in range(1, args.runs + 1)]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {args.runs} runs, correct {all(r['correct'] for r in results)}, "
              f"failed checks {failed}")
        summary = {"manifest": results[0]["manifest"]}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = " WIDE" if bound is not None and spread > bound / 3 else ""
            print(f"  {name:34} median {med:.6g} {unit:8} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}{flag}")
            summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": values}
        report["workloads"][workload] = summary
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
