"""The repository's benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measurement runs in a new
process (``worker.py``), so the program's caches start cold as they do
in a command-line run.  With ``--trace 0`` the benchmark starts workers
until ``--seconds`` have passed (at least one), each making the
workload's call cold and then warm, tops the set-up samples up to
``SETUP_SAMPLES`` with set-up-only processes, and reports medians of
every end-to-end metric in ``BENCHMARK.json``.  With ``--trace 1`` it
makes one untraced cold call and one traced chain and reports every
per-layer metric.  Every call's outputs are checked against the
reference digests; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

import workloads  # noqa: E402
from traced import (  # noqa: E402
    SWEEP_METRICS,
    SWEEP_SELF_TIMES,
    TRAFFIC_METRICS,
    TRAFFIC_SELF_TIMES,
)

#: Set-up samples per run; the median is reported.
SETUP_SAMPLES = 5

#: A run gives up (exit 1, no result) this long after it started.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """A measurement could not be made; the run prints no result."""


class Run:
    """One benchmark invocation: workload, seed, size and scratch space."""

    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.traffic = workload in workloads.TRAFFIC_WORKLOADS
        self.workdir = os.path.join(ROOT, ".perfbench_work", "run-%d" % os.getpid())
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def spawn(self, mode: str, jobs: int = workloads.SWEEP_JOBS) -> Dict[str, Any]:
        """Run one worker process to completion; returns its JSON result."""
        env = dict(os.environ, TMPDIR=self.workdir)
        launch = time.monotonic()
        command = [
            sys.executable,
            WORKER,
            mode,
            self.workload,
            str(self.seed),
            self.size,
            repr(launch),
            self.workdir,
            str(jobs),
        ]
        proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("%s worker ran past the run deadline" % mode)
        finally:
            # The worker's own pool is joined before it exits; this stops
            # anything of its session left behind by a crash or timeout.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0:
            raise BenchError("%s worker exited %d:\n%s" % (mode, proc.returncode, err[-4000:]))
        return json.loads(out.strip().splitlines()[-1])

    def reference(self) -> Dict[str, Any]:
        """Committed digests, or the engine oracle's at other seeds."""
        committed = workloads.load_reference(self.workload, self.size)
        if not self.traffic:
            if committed is None:
                raise BenchError("no committed reference for %s@%s" % (self.workload, self.size))
            return committed
        if committed is not None and committed["seed"] == self.seed:
            return committed
        return self.spawn("oracle")["digests"]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_run(run: Run, seconds: float):
    """End-to-end metrics, plus (attempted, failed) and work counters."""
    reference = run.reference()
    workers = []
    start = time.monotonic()
    while not workers or time.monotonic() - start < seconds:
        workers.append(run.spawn("run"))
    setups = [worker["setup_s"] for worker in workers]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.spawn("setup")["setup_s"])
    attempted = failed = 0
    for worker in workers:
        for call in worker["calls"]:
            units = workloads.count_failures(call["digests"], reference)
            attempted += units[0]
            failed += units[1]
            if call.get("error"):
                print(call["error"], file=sys.stderr)
    cold = [worker["calls"][0] for worker in workers]
    warm = [worker["calls"][1] for worker in workers]
    metrics = {
        "setup_s": _median(setups),
        "run_s": _median([call["s"] for call in cold]),
        "warm_run_s": _median([call["s"] for call in warm]),
        "units_per_s": _median([call["units"] / call["s"] for call in cold if "units" in call]),
        "cpu_s": _median([call["cpu_s"] for call in cold]),
        "peak_rss_mb": _median([worker["peak_rss_mb"] for worker in workers]),
    }
    notes = {
        "processes": len(workers),
        "setup_samples_s": setups,
        "run_samples_s": [call["s"] for call in cold],
        "warm_run_samples_s": [call["s"] for call in warm],
        "cold_call_counters": cold[0].get("counters"),
        "failed_frac": failed / attempted,
    }
    return metrics, attempted, failed, notes


def traced_run(run: Run):
    """Per-layer metrics of one traced chain, checked like a timed call."""
    reference = run.reference()
    untraced = run.spawn("cold")["calls"][0]
    checked = [untraced]
    if run.traffic:
        baseline = untraced
    else:
        # The traced sweep chain evaluates cells serially; its untraced
        # twin for the overhead figure is the serial sweep.
        baseline = run.spawn("cold", jobs=1)["calls"][0]
        checked.append(baseline)
    trace = run.spawn("trace")
    metrics = dict(trace["metrics"])
    metrics["trace.overhead_frac"] = trace["stage_sum_s"] / baseline["s"] - 1.0
    if not run.traffic:
        metrics["parallel.jobs"] = workloads.SWEEP_JOBS
        metrics["parallel.efficiency"] = metrics["cell.evaluate_s"] / (
            workloads.SWEEP_JOBS * untraced["s"]
        )
    attempted = failed = 0
    for digests in [call["digests"] for call in checked] + [trace["digests"]]:
        units = workloads.count_failures(digests, reference)
        attempted += units[0]
        failed += units[1]
    own = TRAFFIC_SELF_TIMES if run.traffic else SWEEP_SELF_TIMES
    largest = sorted(own, key=lambda name: -metrics[name])[:4]
    notes = {
        "spans_file": trace["spans_file"],
        "largest_self_times": [[name, metrics[name]] for name in largest],
        "untraced_run_s": untraced["s"],
        "failed_frac": failed / attempted,
    }
    return metrics, attempted, failed, notes


def declared_metrics() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    declared = declared_metrics()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("no program to measure: src/repro is missing from %s" % ROOT, file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.size)
    try:
        if args.trace:
            metrics, attempted, failed, notes = traced_run(run)
            family = TRAFFIC_METRICS if run.traffic else SWEEP_METRICS
            wanted = declared["per_layer"]
        else:
            metrics, attempted, failed, notes = timed_run(run, args.seconds)
            family = [entry["name"] for entry in declared["end_to_end"]]
            wanted = declared["end_to_end"]
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    missing = [name for name in family if name not in metrics]
    if missing:
        print("benchmark failed: not measured: %s" % ", ".join(missing), file=sys.stderr)
        return 1
    result = {}
    print("%s seed=%d size=%s trace=%d" % (args.workload, args.seed, args.size, args.trace))
    for entry in wanted:
        # Layers off this workload's path (the sweep's layers on traffic
        # workloads and the reverse) report 0.
        value = float(metrics.get(entry["name"], 0.0))
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print("  %-32s %14.6g %s" % (entry["name"], value, entry["unit"]))
    for name, value in notes.items():
        print("  %-32s %s" % (name, json.dumps(value, sort_keys=True)))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
