#!/usr/bin/env python3
"""A/A check of the benchmark, the way the driver does it.

Runs BENCHMARK.json's command several times per workload, each time with
another --seed, and prints for every end-to-end metric the median and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread
above the metric's bound fails; the aim is a third of the bound. Run it
twice and compare the medians to see drift between run sets.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--trace 0] [workload ...]

Run from the repository root. Raw values go to benchmark/out/spread-<first-seed>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    raw, bad = {}, 0
    for w in names:
        values = {}
        for i in range(args.runs):
            cmd = spec["command"] + ["--workload", w, "--seed", str(args.first_seed + i),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{' '.join(cmd)}: exit {out.returncode}\n{out.stdout}{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {args.first_seed + i}: {res['failed']} of {res['attempted']} ops failed")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {w} seed {args.first_seed + i}: {time.time() - t0:.1f} s", file=sys.stderr)
        raw[w] = values
        for name, vs in values.items():
            med = statistics.median(vs)
            if args.runs < 2 or med == 0:
                print(f"{w:16s} {name:30s} median {med:14.4f}")
                continue
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
            note = ""
            if name in bounds:
                if name != "setup_s" and spread > bounds[name]:
                    note, bad = "  ABOVE BOUND", bad + 1
                elif spread > bounds[name] / 3:
                    note = "  above bound/3"
                note = f" bound {bounds[name]:.2f}{note}"
            print(f"{w:16s} {name:30s} median {med:14.4f} spread {spread:6.3f}{note}")
    os.makedirs("benchmark/out", exist_ok=True)
    with open(f"benchmark/out/spread-{args.first_seed}.json", "w") as f:
        json.dump(raw, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
