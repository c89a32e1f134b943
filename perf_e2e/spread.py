#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median), next to a
third of its bound from BENCHMARK.json.

    python3 perf_e2e/spread.py --workload whatif --seeds 1-10 [--seconds S]

Run from the root of a checkout.  Each run's result line is appended to
.bench_build/perf_e2e/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    first, last = (int(x) for x in args.seeds.split("-"))
    log = os.path.join(ROOT, ".bench_build", "perf_e2e", f"spread-{args.workload}.jsonl")
    results = []
    for seed in range(first, last + 1):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                              args.workload, "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", "0"], capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(result)
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct {result['correct']}, failed "
              f"{result['failed']}/{result['attempted']}, " +
              ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:16s} median {median:12.6g}  spread {100 * spread:6.2f}%  "
              f"bound/3 {100 * metric['bound'] / 3:5.2f}%  {flag}")


if __name__ == "__main__":
    main()
