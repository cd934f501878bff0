"""One workload process: set up, print `ready`, measure, print one JSON result.

Usage: python bench/worker.py --workload W --seed N --seconds S --trace 0|1
       [--setup-only]

`bench/run.py` starts this in a fresh interpreter, so the set-up it times
(import, input generation, references, warm-up) is what a new process pays.
With --trace 0 it runs `workloads.cycle_count` cycles of ops closed-loop and
reports the end-to-end numbers; at six points spread over the run it pauses
to time the set-up of a fresh --setup-only worker.  With --trace 1 it runs
whole cycles, each once untraced and once traced, and reports the per-layer
numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import threading
from itertools import chain, islice
from time import perf_counter

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

from checks import load_references  # noqa: E402
from spans import Profile, Tracer  # noqa: E402
import workloads as wl  # noqa: E402

STARTUP_SAMPLES = 11
SETUP_SAMPLES = 7  # run.py times this worker's own set-up, the rest are spread
TRACED_COST = 2.4  # a traced-mode cycle runs plain and traced, ~2.4x a plain one
CLI_TIMEOUT_S = 60
LAYERS = ("cli", "uniformize", "moebius", "report", "curves", "fode",
          "hyperbolic", "embed")
US_P50 = ("uniformize.mursi_parameters", "uniformize.side_transformations",
          "uniformize.group_generators", "uniformize.verify_generators",
          "uniformize.uniformize", "moebius.normalize", "moebius.projective_distance",
          "report.uniformization_report", "report.canonical_json",
          "curves.Poly.roots", "fode.curve_ode", "fode.named_equation",
          "fode.whittaker_equation", "fode.singular_points")
CALLS = ("moebius.normalize", "moebius.projective_distance", "moebius.compose",
         "moebius.classify", "curves.Poly.roots", "curves.expand_poly")


def ops_per_s(latencies) -> float:
    """Ops per second of op time; checks between ops are not counted."""
    return len(latencies) / sum(latencies)


class Tally:
    """Latencies and outcomes of one phase."""

    def __init__(self):
        self.latencies = []
        self.best = {}  # menu entry -> its fastest latency
        self.failed = 0
        self.failed_valid = 0  # failures of ops on valid input

    def record(self, key, seconds, ok, probe=False):
        self.latencies.append(seconds)
        self.best[key] = min(seconds, self.best.get(key, seconds))
        if not ok:
            self.failed += 1
            self.failed_valid += not probe

    def extend(self, other):
        self.latencies += other.latencies
        self.failed += other.failed
        self.failed_valid += other.failed_valid

    def end_to_end(self, peak_rss_kb):
        """Times are over the menu: each entry counts once, at its fastest.

        Other tenants of the shared host slow it by up to 60% for tens of
        seconds at a time, so any time that averages over the run measures
        them; an entry's best of its repetitions does not.
        """
        best = list(self.best.values())
        return {
            "ops_per_s": ops_per_s(best),
            "op_p50_ms": 1e3 * statistics.median(best),
            "op_p90_ms": 1e3 * statistics.quantiles(best, n=10)[-1],
            "ok_ratio": 1.0 - self.failed / len(self.latencies),
            "peak_rss_mb": peak_rss_kb / 1024.0,
        }


def layer_metrics(profile: Profile, ops: int) -> dict:
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = profile.self_ms_per_op(layer, ops)
    for layer in ("uniformize", "moebius", "fode"):
        m[f"{layer}.calls_per_op"] = profile.layer_calls_per_op(layer, ops)
    for name in CALLS:
        m[f"{name}.calls_per_op"] = profile.calls_per_op(name, ops)
    for name in US_P50:
        m[f"{name}.us_p50"] = profile.us_p50(name)
    m["report.canonical_json.bytes_per_op"] = profile.bytes_per_op("report.canonical_json", ops)
    # measured inside CLI children only; CliCold.traced replaces them
    m.update({"cli.import_ms": 0.0, "cli.numpy_import_ms": 0.0,
              "cli.numpy_loaded_ratio": 0.0, "cli.run_ms_p50": 0.0})
    return m


def setup_seconds(workload, seed) -> float:
    """Seconds from starting a fresh --setup-only worker to its `ready`."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        took = perf_counter() - start
        rc = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or rc != 0:
        raise SystemExit(f"set-up worker for {workload} failed with exit code {rc}")
    return took


def python_startup_ms() -> float:
    xs = []
    for _ in range(STARTUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=CHILD_ENV, check=True)
        xs.append(perf_counter() - start)
    return 1e3 * statistics.median(xs)


class ClosedLoop:
    """One client: each op starts when the previous one has been checked."""

    def untraced(self, seconds):
        """The run's ops and the set-up times sampled between them."""
        tally, setups = Tally(), []
        count = wl.cycle_count(self.name, seconds)
        cycles = islice(self.stream, count)
        first = next(cycles)  # every cycle has the menu's length
        total = count * len(first)
        marks = {total * j // SETUP_SAMPLES for j in range(1, SETUP_SAMPLES)}
        for i, item in enumerate(chain(first, chain.from_iterable(cycles))):
            if i in marks:
                setups.append(setup_seconds(self.name, self.seed))
            tally.record(wl.op_key(item), *self._op(item))
        return tally, setups


class InProcess(ClosedLoop):
    """A library workload run in this process."""

    def __init__(self, name, seed, make_cycle, run, check):
        self.name, self.seed = name, seed
        self.make_cycle, self.run, self.check = make_cycle, run, check

    def setup(self):
        import fuchsian
        self.fz = fuchsian
        self.refs = load_references()
        self.stream = wl.cycles(self.name, self.seed, self.make_cycle)
        # warm-up, untimed: one op loads what the first call loads lazily;
        # the per-entry best times need no more
        self._op(next(self.stream)[0])

    def _op(self, item):
        try:
            start = perf_counter()
            out = self.run(self.fz, item)
            seconds = perf_counter() - start
        except Exception as exc:  # an op that raises is a failed op
            print(f"op {item!r} raised {exc!r}", file=sys.stderr)
            return perf_counter() - start, False
        return seconds, self.check(self.refs, item, out)

    def traced(self, seconds):
        """Whole cycles from the seed's first, each run untraced then traced.

        Alternating cycles keeps slow phases of the host out of the
        overhead ratio.  A cycle's spans are folded after the cycle, outside
        the timed ops.
        """
        plain, traced, tracer, profile = Tally(), Tally(), Tracer(), Profile(US_P50)
        count = wl.cycle_count(self.name, seconds / TRACED_COST)
        for cycle in islice(wl.cycles(self.name, self.seed, self.make_cycle), count):
            for item in cycle:
                plain.record(wl.op_key(item), *self._op(item))
            tracer.install()
            try:
                for item in cycle:
                    tracer.begin_op(len(traced.latencies))
                    try:
                        traced.record(wl.op_key(item), *self._op(item))
                    finally:
                        tracer.end_op()
            finally:
                tracer.uninstall()
            profile.add(tracer.spans)
            tracer.spans.clear()
        return plain, traced, layer_metrics(profile, len(traced.latencies))

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliCold(ClosedLoop):
    """One fresh `python -m fuchsian.cli` process per op."""

    name = "cli_cold"

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.refs = load_references()
        self.stream = wl.cycles(self.name, self.seed, wl.cli_cycle)
        self._op(wl.CLI_MENU[0])  # warm-up, untimed

    def _op(self, op: wl.CliOp):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "fuchsian.cli", *op.argv],
                              capture_output=True, text=True, env=CHILD_ENV,
                              cwd=ROOT, timeout=CLI_TIMEOUT_S)
        seconds = perf_counter() - start
        ok = wl.check_cli(self.refs, op, proc.returncode, proc.stdout, proc.stderr)
        return seconds, ok, op.probe

    def _traced_op(self, op: wl.CliOp):
        read_fd, write_fd = os.pipe()
        chunks = []
        start = perf_counter()
        try:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "cli_entry.py"), str(write_fd), *op.argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=CHILD_ENV, cwd=ROOT, pass_fds=(write_fd,))
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            reader = threading.Thread(target=lambda: chunks.append(pipe.read()))
            reader.start()
            try:
                out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                reader.join()
        seconds = perf_counter() - start
        ok = wl.check_cli(self.refs, op, proc.returncode, out, err)
        return seconds, ok, op.probe, json.loads(b"".join(chunks))

    def traced(self, _seconds):
        """The seed's first cycle, every CLI path once, each op run plainly
        and then through cli_entry.py."""
        plain, traced, profile, records = Tally(), Tally(), Profile(US_P50), []
        for op in next(wl.cycles(self.name, self.seed, wl.cli_cycle)):
            plain.record(op.argv, *self._op(op))
            took, ok, probe, record = self._traced_op(op)
            traced.record(op.argv, took, ok, probe)
            profile.add(record.pop("spans"))
            records.append(record)
        metrics = layer_metrics(profile, len(records))
        metrics.update({
            "cli.import_ms": statistics.median(r["import_ms"] for r in records),
            "cli.numpy_import_ms": statistics.fmean(r["numpy_import_ms"] for r in records),
            "cli.numpy_loaded_ratio": sum(r["numpy_loaded"] for r in records) / len(records),
            "cli.run_ms_p50": statistics.median(r["run_ms"] for r in records),
        })
        return plain, traced, metrics

    def peak_rss_kb(self):
        # the --setup-only workers are children too, but without numpy they
        # stay well below a CLI child
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def make_workload(name, seed):
    if name == "cli_cold":
        return CliCold(seed)
    if name == "uniformize_batch":
        return InProcess(name, seed, wl.uniformize_cycle, wl.run_uniformize,
                         wl.check_uniformize)
    if name == "ode_batch":
        return InProcess(name, seed, wl.ode_cycle, wl.run_ode, wl.check_ode)
    raise SystemExit(f"unknown workload {name!r}")


def measure(workload, seconds, trace):
    """Returns the tally, the metrics and the set-up times sampled."""
    if not trace:
        tally, setups = workload.untraced(seconds)
        return tally, tally.end_to_end(workload.peak_rss_kb()), setups
    plain, traced, metrics = workload.traced(seconds)
    metrics["python.startup_ms"] = python_startup_ms()
    metrics["trace.overhead_ratio"] = ops_per_s(plain.latencies) / ops_per_s(traced.latencies)
    plain.extend(traced)
    return plain, metrics, []


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = make_workload(args.workload, args.seed)
    workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        return
    tally, metrics, setups = measure(workload, args.seconds, args.trace)
    print(json.dumps({"attempted": len(tally.latencies), "failed": tally.failed,
                      "failed_valid": tally.failed_valid, "setup_s": setups,
                      "metrics": metrics}),
          flush=True)


if __name__ == "__main__":
    main()
