"""Benchmark entry point; the workloads and metrics are listed in BENCHMARK.json.

Usage (from the repository root):
    python3 bench/run.py --workload {cli_cold,uniformize_batch,ode_batch}
                         --seed N --seconds S --trace {0,1}

--trace 0 prints the end-to-end metrics.  setup_s is the median over seven
fresh worker processes of the time from process start to the first timed
op: the measuring worker and six --setup-only workers it starts at points
spread over its run.  --trace 1 prints the per-layer metrics from a single
worker.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  `correct` is false when an op on valid input
fails its check; ops on invalid input (the exit-2 probes of cli_cold) count
in `failed` only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli_cold", "uniformize_batch", "ode_batch")


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, seconds, trace):
    """Run one worker; returns (seconds to `ready`, parsed result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or rc != 0:
        raise BenchError(f"worker {' '.join(cmd[2:])} failed with exit code {rc}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True).stdout.strip() or "unknown"
    return {"python": sys.executable, "python_version": platform.python_version(),
            "numpy": metadata.version("numpy"), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fuchsian benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fuchsian" / "__init__.py").is_file():
        print("error: run from a checkout of the repository; src/fuchsian is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    try:
        setup_s, result = spawn(args.workload, args.seed, args.seconds, args.trace)
        if not args.trace:
            result["metrics"]["setup_s"] = statistics.median([setup_s] + result["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print("environment " + json.dumps(environment(), sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"fail_ratio {failed / attempted:.6f}")
    for name in units:
        print(f"  {name:<40} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": result["failed_valid"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
