"""Regenerate ``reference.json``: the committed digests at the default seed.

    python3 perfbench/make_reference.py

Traffic references come from the per-bit engine backend (the oracle the
batch backend must match bit for bit).  The sweep grid has no second
backend with the same store bytes, so its reference is the output of
the code at the time the reference is written; regenerate it only when
a change is meant to alter sweep records, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads
from run import Run


def main() -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            run = Run(workload, workloads.DEFAULT_SEED, size)
            try:
                if run.traffic:
                    digests = run.spawn("oracle")["digests"]
                    digests["seed"] = workloads.DEFAULT_SEED
                else:
                    call = run.spawn("cold")["calls"][0]
                    if call.get("error"):
                        raise SystemExit(call["error"])
                    digests = call["digests"]
            finally:
                shutil.rmtree(run.workdir, ignore_errors=True)
            reference["%s@%s" % (workload, size)] = digests
            print("%s@%s: %d units" % (workload, size, len(digests.get("windows") or digests["cells"])))
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
