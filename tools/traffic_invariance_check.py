#!/usr/bin/env python
"""CI guard: traffic runs are invariant under worker count and backend.

The sharding contract of :mod:`repro.traffic` is that ``jobs`` decides
*where* a time window simulates, never *what* it computes: the
submission schedule and per-window seeds are fixed before fan-out, and
window results are spliced in window order.  The backend contract is
the same one level up: ``backend`` decides *how* a fault-free window
evaluates — per-bit engine or frame-granular batch replay — never what
it observes.  This check runs each spec at ``jobs=1`` and ``jobs=2``
on both backends and compares the complete serialized run — schedule,
spliced bus, events, per-frame verdicts, aggregate verdict — plus the
AB1–AB5 property results.  Any mismatch means the parallel path leaked
state into the simulation (or the batch evaluator drifted from the
engine) and fails the build.

Runs four specs so every traffic regime is covered: a clean contended
MajorCAN run (all windows batch-eligible), a noisy CAN run with a
deterministic burst whose per-window noise streams come from the
spawned seed tree (windows scan for the first flip and *resume* the
engine from the cut — or stay a rendered clean window when the scan
comes back clean), a low-BER MajorCAN run where most windows scan
clean and the occasional flipped one resumes, and a noisy RELCAN run
that takes the engine runner's HLP branch on both backends.

Usage::

    PYTHONPATH=src python tools/traffic_invariance_check.py

Exit status 0 when every spec is invariant, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)


def _specs():
    from repro.traffic import BurstSpec, TrafficSpec

    return (
        TrafficSpec(
            name="invariance-contended",
            protocol="majorcan",
            m=5,
            n_nodes=4,
            windows=3,
            window_bits=800,
            load=0.9,
            seed=23,
        ),
        TrafficSpec(
            name="invariance-noisy",
            protocol="can",
            n_nodes=3,
            windows=3,
            window_bits=700,
            load=0.6,
            seed=29,
            noise_ber=0.002,
            bursts=(BurstSpec(node="n1", window=1, start=200, length=16),),
        ),
        TrafficSpec(
            name="invariance-noisy-low-ber",
            protocol="majorcan",
            m=3,
            n_nodes=4,
            windows=4,
            window_bits=900,
            load=0.55,
            seed=11,
            noise_ber=2e-5,
        ),
        TrafficSpec(
            name="invariance-hlp-relcan",
            protocol="can",
            hlp="relcan",
            n_nodes=3,
            windows=2,
            window_bits=1000,
            load=0.5,
            seed=31,
            noise_ber=0.001,
        ),
    )


def _lines(outcome):
    from repro.metrics.export import json_line
    from repro.traffic import traffic_records

    return [json_line(record) for record in traffic_records(outcome)]


def _report_divergence(spec, label, want, got):
    for index, (want_line, got_line) in enumerate(zip(want, got)):
        if want_line != got_line:
            print("traffic-invariance: %s first diverging record %d (%s):" % (
                spec.name, index, label))
            print("traffic-invariance:   want %s" % want_line[:160])
            print("traffic-invariance:   got  %s" % got_line[:160])
            break
    if len(want) != len(got):
        print(
            "traffic-invariance: %s record count differs (%s): %d vs %d"
            % (spec.name, label, len(want), len(got))
        )


def check_spec(spec) -> bool:
    """Run ``spec`` across jobs x backend; True when all bit-identical.

    The jobs=1 engine run is the reference; every other (jobs, backend)
    combination must serialize to the same records and the same AB1–AB5
    verdicts.
    """
    from repro.traffic import run_traffic

    reference = run_traffic(spec, jobs=1)
    reference_lines = _lines(reference)
    reference_properties = {
        name: bool(result) for name, result in reference.properties.items()
    }
    ok = True
    split = None
    for jobs in (1, 2):
        for backend in ("engine", "batch"):
            if jobs == 1 and backend == "engine":
                continue
            outcome = run_traffic(spec, jobs=jobs, backend=backend)
            label = "jobs=%d backend=%s" % (jobs, backend)
            lines = _lines(outcome)
            if lines != reference_lines:
                _report_divergence(spec, label, reference_lines, lines)
                ok = False
            properties = {
                name: bool(result)
                for name, result in outcome.properties.items()
            }
            if properties != reference_properties:
                print(
                    "traffic-invariance: %s AB properties diverged (%s)"
                    % (spec.name, label)
                )
                ok = False
            if backend == "batch":
                split = outcome.backend_stats
    print(
        "traffic-invariance: %-22s jobs x backend %-9s split %s"
        % (spec.name, "identical" if ok else "DIVERGED", split)
    )
    return ok


def main() -> int:
    failures = 0
    for spec in _specs():
        if not check_spec(spec):
            failures += 1
    if failures:
        print("traffic-invariance: FAIL (%d spec(s) diverged)" % failures)
        return 1
    print(
        "traffic-invariance: jobs=1/2 runs are bit-identical on both backends"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
