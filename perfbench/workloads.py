"""The benchmark's three workloads: their inputs, timed calls and output digests.

Each workload is a closed loop with one caller.  The traffic workloads
take the benchmark seed as ``TrafficSpec.seed``; the analytic sweep grid
has no seed.  ``size="smoke"`` selects a scaled-down variant of the
same workload for the benchmark's own tests.

Digests are computed here, from the program's outputs, with the
benchmark's own canonical JSON, so a change to the program's
serialisation helpers cannot make a wrong output look right.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

WORKLOADS = ("paper-profile", "noisy-majorcan", "sweep-grid")
TRAFFIC_WORKLOADS = ("paper-profile", "noisy-majorcan")
SIZES = ("full", "smoke")

#: Seed whose reference digests are committed in ``reference.json``.
DEFAULT_SEED = 0

#: Worker count of the sweep workload (the sizing host's ``nproc``).
SWEEP_JOBS = 2

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def canonical(value: Any) -> str:
    """Sorted-key, minimal-separator JSON (tuples serialise as lists)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def traffic_spec(workload: str, seed: int, size: str = "full"):
    """The :class:`TrafficSpec` of a traffic workload at ``seed``."""
    from repro.traffic import TrafficSpec

    smoke = size == "smoke"
    if workload == "paper-profile":
        # The paper's 32-node, 90 %-load MajorCAN_5 profile, shortened
        # to four 8,000-bit windows (262 frames) so that one run holds
        # several cold calls; AB5's cost grows with nodes and frames.
        return TrafficSpec(
            name="paper-profile",
            protocol="majorcan",
            m=5,
            n_nodes=8 if smoke else 32,
            load=0.9,
            source="periodic",
            windows=2 if smoke else 4,
            window_bits=2000 if smoke else 8000,
            seed=seed,
        )
    if workload == "noisy-majorcan":
        return TrafficSpec(
            name="noisy-majorcan",
            protocol="majorcan",
            m=5,
            n_nodes=4,
            load=0.9,
            source="periodic",
            windows=2 if smoke else 8,
            window_bits=6000 if smoke else 12000,
            noise_ber=1e-4,
            seed=seed,
        )
    raise ValueError("not a traffic workload: %r" % (workload,))


def sweep_spec(size: str = "full"):
    """The analytic :class:`SweepSpec` grid (360 cells at full size)."""
    from repro.sweep import SweepSpec

    if size == "smoke":
        return SweepSpec(
            name="sweep-grid-smoke",
            protocols=("can", "majorcan"),
            m_values=(5,),
            bers=(1e-5,),
            bit_rates=(500_000.0,),
            bus_lengths_m=(30.0,),
            payloads=(1,),
            node_counts=(3, 8),
            window=2,
            max_flips=2,
            load=0.9,
        )
    return SweepSpec(
        name="sweep-grid",
        protocols=("can", "minorcan", "majorcan"),
        m_values=(3, 4, 5, 6, 7),
        bers=(1e-7, 1e-6, 1e-5, 1e-4),
        bit_rates=(500_000.0,),
        bus_lengths_m=(30.0,),
        payloads=(1, 8),
        node_counts=(3, 8, 32),
        window=2,
        max_flips=2,
        load=0.9,
    )


def prepare(workload: str, seed: int, size: str = "full"):
    """Import the program's entry points and build the workload's input."""
    if workload in TRAFFIC_WORKLOADS:
        import repro.traffic  # noqa: F401 - the import is part of set-up

        return traffic_spec(workload, seed, size)
    if workload == "sweep-grid":
        import repro.sweep  # noqa: F401

        return sweep_spec(size)
    raise ValueError("unknown workload %r" % (workload,))


# ---------------------------------------------------------------------------
# Timed calls
# ---------------------------------------------------------------------------


def traffic_call(spec, recording: str, backend: str = "batch"):
    """``run_traffic`` on one worker, then ``record_traffic`` to a file."""
    from repro.traffic import record_traffic, run_traffic

    outcome = run_traffic(spec, jobs=1, backend=backend)
    record_traffic(recording, outcome)
    return outcome


def sweep_call(spec, store_root: str, jobs: int = SWEEP_JOBS) -> Dict[str, Any]:
    """Run the grid into a fresh store, rerun it, then export the surface."""
    from repro.sweep import ResultStore, run_sweep, surface_rows

    store = ResultStore(store_root)
    report = run_sweep(spec, store, jobs=jobs, backend="batch")
    rerun = run_sweep(spec, store, jobs=jobs, backend="batch")
    rows = surface_rows(store)
    return {"store": store, "report": report, "rerun": rerun, "rows": rows}


# ---------------------------------------------------------------------------
# Output digests
# ---------------------------------------------------------------------------


def window_slices(outcome) -> List[Dict[str, Any]]:
    """Split a spliced traffic outcome back into its per-window outputs.

    A window's output is its slice of the bus, the deliveries and events
    timed inside it, and the verdicts of the messages scheduled in it.
    """
    slices = []
    start = 0
    for window, bits in enumerate(outcome.stats.window_bits):
        end = start + bits
        deliveries = {}
        for name, node in sorted(outcome.ledger.nodes.items()):
            deliveries[name] = [
                [key[0], key[1], time]
                for key, time in zip(node.deliveries, node.delivery_times)
                if start <= time < end
            ]
        events = [event for event in outcome.events or () if start <= event["t"] < end]
        verdicts = [
            [v.origin, v.seq, v.submitted_at, v.status, v.counts, v.first_delivered]
            for v in outcome.verdicts
            if v.window == window
        ]
        slices.append(
            {
                "window": window,
                "bits": bits,
                "bus": outcome.bus[start:end],
                "deliveries": deliveries,
                "events": events,
                "verdicts": verdicts,
            }
        )
        start = end
    return slices


def traffic_digests(outcome, recording: str) -> Dict[str, Any]:
    """One digest per window plus the digest of the recording's bytes."""
    return {
        "recording": sha256_file(recording),
        "windows": [sha256_text(canonical(part)) for part in window_slices(outcome)],
    }


def sweep_digests(store) -> Dict[str, Any]:
    """One digest per stored cell record plus the compacted store digest."""
    records = store.records()
    return {
        "store": sha256_file(store.compacted_path),
        "cells": {key: sha256_text(canonical(records[key])) for key in sorted(records)},
    }


def count_failures(digests: Optional[Dict[str, Any]], reference: Dict[str, Any]) -> Tuple[int, int]:
    """(attempted, failed) units of one call checked against ``reference``.

    Traffic units are the windows plus the recording; sweep units are
    the cells plus the compacted store.  ``digests=None`` means the call
    raised, so every unit failed.
    """
    if "windows" in reference:
        expected = dict(enumerate(reference["windows"]))
        whole = "recording"
    else:
        expected = reference["cells"]
        whole = "store"
    attempted = len(expected) + 1
    if digests is None:
        return attempted, attempted
    got = dict(enumerate(digests["windows"])) if whole == "recording" else digests["cells"]
    failed = sum(1 for unit, digest in expected.items() if got.get(unit) != digest)
    if digests.get(whole) != reference[whole]:
        failed += 1
    return attempted, failed


def store_problems(cells: int, evaluated: int, rerun_evaluated: int, rows: int) -> List[str]:
    """What is wrong with a sweep call beyond its digests (empty when fine).

    The first run must evaluate every cell, the rerun on the same store
    none, and the exported surface must have one row per cell.
    """
    problems = []
    if evaluated != cells:
        problems.append("first run evaluated %d of %d cells" % (evaluated, cells))
    if rerun_evaluated:
        problems.append("rerun evaluated %d cells" % rerun_evaluated)
    if rows != cells:
        problems.append("surface has %d rows for %d cells" % (rows, cells))
    return problems


def load_reference(workload: str, size: str) -> Optional[Dict[str, Any]]:
    """The committed reference of ``workload`` at ``size``, if any."""
    with open(REFERENCE_PATH) as handle:
        return json.load(handle).get("%s@%s" % (workload, size))
