"""Repeat bench/run.py over seeds and summarize each metric's median and spread.

Usage (from the repository root):
    python3 bench/baseline.py [--seeds N] [--trace 0 1] [--out FILE]

Runs every workload on seeds 1..N for run_seconds from BENCHMARK.json.
Prints one row per workload with every metric and its unit (plus
fail_ratio = failed / attempted), then each metric's spread: the distance
between the first and third quartile of its per-seed values as a share of
their median.  --out writes every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].split(" ", 1)[1])
    return env, json.loads(lines[-1])


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    fail = [r["failed"] / r["attempted"] for r in results]
    out["fail_ratio"] = {"unit": "ratio", "median": statistics.median(fail)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, nargs="+", default=[0], choices=(0, 1))
    ap.add_argument("--out", type=pathlib.Path, default=None)
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = range(1, args.seeds + 1)

    report = {"seconds": seconds, "seeds": list(seeds), "runs": {}, "summary": {}}
    for trace in args.trace:
        mode = f"trace{trace}"
        report["runs"][mode], report["summary"][mode] = {}, {}
        for workload in WORKLOADS:
            results = []
            for seed in seeds:
                report["environment"], result = run_once(workload, seed, seconds, trace)
                results.append(result)
                print(f"{mode} {workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr, flush=True)
            report["runs"][mode][workload] = results
            report["summary"][mode][workload] = summarize(results)

    print("environment " + json.dumps(report.get("environment"), sort_keys=True))
    for mode, by_workload in report["summary"].items():
        for workload, summary in by_workload.items():
            cells = [f"{name}={s['median']:.6g} {s['unit']}" for name, s in summary.items()]
            print(f"{mode} {workload:<17} " + "  ".join(cells))
        for workload, summary in by_workload.items():
            cells = [f"{name}={s['spread']:.3f}" for name, s in summary.items() if "spread" in s]
            print(f"{mode} {workload:<17} spread " + "  ".join(cells))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
