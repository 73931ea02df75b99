#!/usr/bin/env python
"""Assert the batch backends stay off the per-bit engine.

On noise-free batch-backend runs of

* bounded verification over the full ≤ 2-flip header+tail universe of
  a 1-byte-payload frame (DLC and DATA header sites plus EOF),
* a seeded fault-injection campaign, and
* the enumerated reliability rates,

fewer than 1% of placements/rounds/patterns may fall back to a full
engine run — everything else must classify on the tail micro-sim or
through cached reduced header runs.  CI runs this next to the
golden-trace corpus replay: the corpus pins the engine's behaviour,
this pins the batch layer's *coverage* of that behaviour.

The same discipline holds on *noisy* runs: with random per-bit noise
at realistic BERs, the vectorised flip scan must resolve most
windows/rounds without a full per-bit engine run — under 10% may fall
back to one.  Resumed windows (scan finds a flip, engine re-enters
from the cut) are the designed noisy path and do not count against the
bound; full fallbacks do.

Exit status 0 when every workload is under its threshold, 1 otherwise.
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

#: Maximum tolerated fraction of engine-classified work items
#: (noise-free workloads).
THRESHOLD = 0.01

#: Maximum tolerated full-engine fraction on noisy workloads.  The flip
#: scan classifies zero-flip work closed-form and *resumes* flipped
#: windows from the cut; only windows/rounds that re-run entirely on
#: the per-bit engine count against this bound (mirrors
#: ``repro.analysis.batchreplay.ENGINE_SHARE_NOTICE``).
NOISY_THRESHOLD = 0.10


def check_verification() -> dict:
    """≤2-flip header+tail combo universe through the evaluator."""
    import itertools

    from repro.analysis.batchreplay import (
        BatchReplayEvaluator,
        clear_caches,
        merge_stats,
    )
    from repro.analysis.verification import header_sites
    from repro.can.fields import EOF
    from repro.can.frame import data_frame
    from repro.faults.scenarios import make_controller

    node_names = ("tx", "r1", "r2")
    frame = data_frame(0x123, b"\x55", message_id="share-check")
    parts = []
    for protocol, m in (("can", 5), ("majorcan", 5)):
        probe = make_controller(protocol, "probe", m=m)
        sites = list(header_sites(node_names, data_bits=8))
        sites += [
            (name, EOF, index)
            for name in node_names
            for index in range(probe.config.eof_length)
        ]
        combos = (
            [()]
            + [(site,) for site in sites]
            + list(itertools.combinations(sites, 2))
        )
        clear_caches()
        evaluator = BatchReplayEvaluator(protocol, m, node_names, frame=frame)
        evaluator.evaluate(combos)
        parts.append(evaluator.stats)
    return merge_stats(parts)


def check_campaign() -> dict:
    """One seeded noise-free campaign per protocol on the batch backend."""
    from repro.analysis.batchreplay import merge_stats
    from repro.faults.campaigns import CampaignSpec, run_campaign

    return merge_stats(
        run_campaign(
            CampaignSpec(
                protocol=protocol,
                n_nodes=4,
                rounds=64,
                attack_probability=0.5,
                seed=17,
            ),
            backend="batch",
        ).backend_stats
        for protocol in ("can", "minorcan", "majorcan")
    )


def check_reliability() -> dict:
    """The enumerated reliability rates on the batch backend."""
    from repro.analysis.batchreplay import merge_stats
    from repro.analysis.reliability import reliability_comparison

    return merge_stats(
        row.backend_stats for row in reliability_comparison(1e-5, backend="batch")
    )


def check_noisy_traffic() -> dict:
    """A contended noisy traffic run: flip scan + resume, rare engine."""
    from repro.traffic import TrafficSpec, clear_window_cache, run_traffic

    clear_window_cache()
    outcome = run_traffic(
        TrafficSpec(
            name="share-noisy-traffic",
            protocol="majorcan",
            m=3,
            n_nodes=4,
            windows=40,
            window_bits=900,
            load=0.55,
            seed=11,
            noise_ber=2e-5,
        ),
        backend="batch",
    )
    return dict(outcome.backend_stats or {})


def check_noisy_campaign() -> dict:
    """A noisy fault-injection campaign on the batch backend."""
    from repro.faults.campaigns import CampaignSpec, run_campaign

    outcome = run_campaign(
        CampaignSpec(
            protocol="majorcan",
            n_nodes=4,
            rounds=60,
            attack_probability=0.4,
            noise_ber_star=2e-5,
            seed=17,
        ),
        backend="batch",
    )
    return dict(outcome.backend_stats or {})


def main() -> int:
    failures = 0
    for name, run, threshold in (
        ("verification", check_verification, THRESHOLD),
        ("campaign", check_campaign, THRESHOLD),
        ("reliability", check_reliability, THRESHOLD),
        ("noisy-traffic", check_noisy_traffic, NOISY_THRESHOLD),
        ("noisy-campaign", check_noisy_campaign, NOISY_THRESHOLD),
    ):
        stats = run()
        total = sum(stats.values())
        share = stats.get("engine", 0) / total if total else 0.0
        verdict = "ok" if share < threshold else "FAIL"
        print(
            "engine-share: %-14s %6d items, engine %d (%.2f%% < %.0f%%)  %s"
            % (name, total, stats.get("engine", 0), share * 100.0,
               threshold * 100.0, verdict)
        )
        if share >= threshold:
            failures += 1
    if not failures:
        print("engine-share: all batch workloads under the threshold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
