"""One measurement in a fresh process, so the program's caches start cold.

    python3 perfbench/worker.py MODE WORKLOAD SEED SIZE LAUNCH WORKDIR JOBS

``LAUNCH`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time counts interpreter start and imports.
``JOBS`` is the sweep's worker count.  Modes:

* ``setup`` - set up, then stop;
* ``run``   - set up, make the timed call cold, then again warm;
* ``cold``  - set up and make the timed call once;
* ``oracle`` - the traffic call on the per-bit engine backend, whose
  digests are the reference at seeds without committed digests;
* ``trace`` - the traced chain of :mod:`traced`; spans are written to
  ``.perfbench_work/traces/`` under the checkout.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

TRACES_DIR = os.path.join(ROOT, ".perfbench_work", "traces")


def _proc_cpu_s(pid: int) -> float:
    """User plus system CPU of a live process, from ``/proc``."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_kb(pid: int) -> int:
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_cpu_s() -> float:
    """CPU of this process, its reaped children and its live workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    return total + sum(_proc_cpu_s(child.pid) for child in multiprocessing.active_children())


def tree_peak_rss_mb() -> float:
    """This process's peak resident set plus those of its workers.

    Live workers report their own peak; of the workers already reaped
    the kernel keeps only the largest peak.
    """
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    kb += sum(_proc_peak_kb(child.pid) for child in multiprocessing.active_children())
    return kb / 1024.0


def _traffic_output(outcome, recording: str):
    from repro.traffic import window_cache_stats

    counters = {
        "frames": len(outcome.schedule),
        "windows": dict(sorted(outcome.backend_stats.items())),
        "window_cache": window_cache_stats(),
        "deliveries": sum(len(node.deliveries) for node in outcome.ledger.nodes.values()),
        "properties": {name: bool(r) for name, r in sorted(outcome.properties.items())},
    }
    digests = workloads.traffic_digests(outcome, recording)
    return {"units": counters["frames"], "digests": digests, "counters": counters}


def _sweep_output(spec, result):
    digests = workloads.sweep_digests(result["store"])
    problems = workloads.store_problems(
        spec.cell_count(),
        result["report"].evaluated,
        result["rerun"].evaluated,
        len(result["rows"]),
    )
    if problems:
        digests["store"] = "; ".join(problems)
    counters = {
        "cells": result["report"].evaluated,
        "placements": dict(sorted(result["report"].backend_stats.items())),
        "rerun_evaluated": result["rerun"].evaluated,
    }
    return {"units": counters["cells"], "digests": digests, "counters": counters}


def timed_call(workload: str, spec, workdir: str, tag: str, jobs: int):
    """Make the workload's call once: time, CPU, digests and work counters.

    A call that raises, or whose outputs cannot be read back, is a
    measured failure of all its units, not a crash of the benchmark.
    """
    cpu_before = tree_cpu_s()
    start = time.perf_counter()
    out = {}
    try:
        if workload in workloads.TRAFFIC_WORKLOADS:
            recording = os.path.join(workdir, tag + ".jsonl")
            outcome = workloads.traffic_call(spec, recording)
        else:
            result = workloads.sweep_call(spec, os.path.join(workdir, tag), jobs=jobs)
        out["s"] = time.perf_counter() - start
        out["cpu_s"] = tree_cpu_s() - cpu_before
        if workload in workloads.TRAFFIC_WORKLOADS:
            out.update(_traffic_output(outcome, recording))
        else:
            out.update(_sweep_output(spec, result))
    except Exception:  # noqa: BLE001 - recorded and counted as failed units
        out.setdefault("s", time.perf_counter() - start)
        out.setdefault("cpu_s", tree_cpu_s() - cpu_before)
        out.update(digests=None, error=traceback.format_exc())
    return out


def traced(workload: str, spec, workdir: str, label: str):
    """The traced chain; writes its spans and returns the layer metrics."""
    from spans import SpanRecorder, self_times
    from traced import trace_sweep, trace_traffic

    recorder = SpanRecorder()
    if workload in workloads.TRAFFIC_WORKLOADS:
        out = trace_traffic(spec, workdir, recorder)
    else:
        out = trace_sweep(spec, workdir, recorder)
    own = self_times(recorder.spans)
    records = recorder.records()
    for record in records:
        record["self"] = own[record["id"]]
    os.makedirs(TRACES_DIR, exist_ok=True)
    path = os.path.join(TRACES_DIR, label + ".json")
    with open(path, "w") as handle:
        json.dump({"trace": label, "spans": records}, handle, indent=1)
    out["spans_file"] = os.path.relpath(path, ROOT)
    return out


def main(argv) -> int:
    mode, workload, seed, size, launch, workdir, jobs = argv
    spec = workloads.prepare(workload, int(seed), size)
    # Workers of one run share the run's directory; stores and
    # recordings must not carry over from one worker to the next.
    workdir = os.path.join(workdir, "worker-%d" % os.getpid())
    os.makedirs(workdir)
    out = {"setup_s": time.monotonic() - float(launch)}
    if mode in ("run", "cold"):
        calls = 2 if mode == "run" else 1
        out["calls"] = [
            timed_call(workload, spec, workdir, "call%d" % i, int(jobs)) for i in range(calls)
        ]
        out["peak_rss_mb"] = tree_peak_rss_mb()
    elif mode == "oracle":
        recording = os.path.join(workdir, "oracle.jsonl")
        outcome = workloads.traffic_call(spec, recording, backend="engine")
        out["digests"] = workloads.traffic_digests(outcome, recording)
    elif mode == "trace":
        out.update(traced(workload, spec, workdir, "%s-%s-seed%s" % (workload, size, seed)))
    elif mode != "setup":
        raise SystemExit("unknown mode %r" % (mode,))
    from repro.parallel.pool import shutdown_pool

    shutdown_pool()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
