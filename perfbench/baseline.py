#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 0-9 --seconds 50 [--workload W ...] [--trace 1] [--write]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every metric its median, quartiles (statistics.quantiles, n=4)
and spread, the interquartile range as a share of the median.  With --write
the summary is stored in perfbench/baseline.json, which run.py prints next
to its own figures.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH_DIR.parent, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: run failed or incorrect: {result}")
    return result


def summarise(results, seeds, seconds):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "seeds": seeds,
                     "seconds": seconds, "unit": results[0]["metrics"][name]["unit"],
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--commit", default="", help="commit the figures belong to")
    p.add_argument("--write", action="store_true", help="store perfbench/baseline.json")
    args = p.parse_args()
    seeds = seed_list(args.seeds)
    summary = {}
    for workload in args.workload or wl.BENCHMARKED:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items()
                if args.trace == 0), flush=True)
        summary[workload] = summarise(results, args.seeds, args.seconds)
        for name, s in summary[workload].items():
            print(f"  {name:36s} median {s['median']:12.5g} {s['unit']:5s} "
                  f"q1 {s['q1']:12.5g} q3 {s['q3']:12.5g} spread {s['spread']:.3f}", flush=True)
    if args.write:
        path = BENCH_DIR / "baseline.json"
        doc = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
        doc["commit"] = args.commit or doc.get("commit", "")
        for workload, metrics in summary.items():
            doc["workloads"].setdefault(workload, {}).update(metrics)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
