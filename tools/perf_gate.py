#!/usr/bin/env python
"""Per-PR performance regression gate.

Compares a freshly measured perf-harness report against the committed
baseline (``BENCH_PR12.json``).  Every entry of the baseline is gated
on its ``speedup``: a same-process ratio of an oracle over the fast
path that must stay bit-identical to it, so host speed divides out and
a ratio measured on one machine bounds one measured on another.

An entry fails when

* it is missing from the report;
* its measured speedup is below ``baseline * (1 - tolerance)``;
* its ``spread`` (how far the median timed region sat above the best,
  on the noisier side) exceeds the tolerance in either file, because a
  ratio drawn from that much noise cannot tell a regression apart.

Usage::

    python tools/perf_gate.py BASELINE REPORT [--tolerance 0.30]

Exit status 0 when every baseline entry passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

#: A measured speedup below ``baseline * (1 - TOLERANCE)`` fails the
#: gate: a >30% drop of a same-process ratio is a real change, not
#: runner noise.  The same bound caps each file's ``spread``.
TOLERANCE = 0.30


def check(baseline: dict, report: dict, tolerance: float = TOLERANCE) -> list:
    """Compare every baseline entry; return failure description lines."""
    failures = []
    measured_entries = report.get("entries", {})
    for name, expected in baseline["entries"].items():
        measured = measured_entries.get(name)
        if measured is None:
            failures.append("%s is missing from the report" % name)
            continue
        floor = expected["speedup"] * (1.0 - tolerance)
        print(
            "perf-gate: %-22s baseline x%6.2f  measured x%6.2f  floor x%6.2f"
            "  spread %3.0f%%/%3.0f%%"
            % (
                name,
                expected["speedup"],
                measured["speedup"],
                floor,
                100.0 * expected["spread"],
                100.0 * measured["spread"],
            )
        )
        if measured["speedup"] < floor:
            failures.append(
                "%s regressed: x%.2f < x%.2f (baseline x%.2f - %d%%)"
                % (name, measured["speedup"], floor, expected["speedup"],
                   round(tolerance * 100))
            )
        for label, entry in (("baseline", expected), ("report", measured)):
            if entry["spread"] > tolerance:
                failures.append(
                    "%s is too noisy in the %s: spread %.0f%% > %.0f%%"
                    % (name, label, 100.0 * entry["spread"], 100.0 * tolerance)
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline report (JSON)")
    parser.add_argument("report", help="freshly measured report (JSON)")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=TOLERANCE,
        help="allowed fractional regression and spread (default 0.30)",
    )
    args = parser.parse_args(argv)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.report) as handle:
        report = json.load(handle)
    failures = check(baseline, report, tolerance=args.tolerance)
    for failure in failures:
        print("perf-gate: FAIL %s" % failure)
    if not failures:
        print("perf-gate: all entries within tolerance")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
