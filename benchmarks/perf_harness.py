#!/usr/bin/env python
"""Same-process regression guard: every fast path timed against its oracle.

Each entry of :func:`table` pairs an *oracle* (the per-bit engine, or
the branchy reference controller) with the *candidate* that must stay
bit-identical to it (the record_bits=False engine, the table-driven
controller, a batch backend) on one fixed workload.  One runner
(:func:`run_entry`) treats every entry the same way:

* **warm** both sides once (the candidate from cold caches) and assert
  ``surface(oracle) == surface(candidate)`` on those results;
* check the entry's ``limits`` (the batch engine share, the sweep
  rerun) on the candidate's result;
* **time** each side with :mod:`timeit`: the loop count is sized so
  one timed region lasts at least :data:`MIN_REGION_S`, then
  :data:`REPEATS` regions per side run, the two sides alternating.
  While a region runs, a ``SIGALRM`` interval timer (POSIX only)
  interrupts it every :data:`SAMPLE_EVERY_S` to time a short fixed
  *calibration* workload, and the region's cost is taken in
  calibration units: the host's speed, which on a shared machine
  swings by up to 1.8x within one call, divides out of it.  The best
  (lowest) cost of each side is the estimate; ``spread`` is
  ``(median - min) / min`` of the costs of the noisier side.

The candidate's cache reset runs inside every timed call, so a ratio
measures the evaluator, not the memo.  ``speedup`` is the ratio of the
two best costs, so host speed divides out of it and
``tools/perf_gate.py`` can compare it with a committed baseline;
``oracle_s``/``candidate_s`` are the best raw seconds per call, for
humans.  End-to-end evidence (whole runs, split by stage) lives in
``perfbench/``; this harness only guards the ratios.

Usage::

    python benchmarks/perf_harness.py [--out PATH] [--section NAME ...]
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import signal
import statistics
import sys
import tempfile
import timeit
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

#: Shortest timed region, in seconds: loops repeat a call until one
#: region lasts at least this long, so scheduler jitter stays small
#: next to the signal.
MIN_REGION_S = 0.1

#: Timed regions per side; the best is the estimate, the median feeds
#: ``spread``.
REPEATS = 4

#: Interval of the calibration samples taken during a timed region
#: (each takes about 0.15 ms, so they cost about 7% of the region).
SAMPLE_EVERY_S = 0.002


def _noop() -> None:
    pass


@dataclass(frozen=True)
class Entry:
    """One oracle-vs-candidate comparison."""

    name: str
    #: What one unit of work is (frame, placement, ...), for the
    #: per-unit costs.
    unit: str
    #: Units of work in one call, read off the oracle's result.
    units: Callable[[Any], int]
    oracle: Callable[[], Any]
    candidate: Callable[[], Any]
    #: What must be identical between the two results.
    surface: Callable[[Any], Any]
    #: Runs before every candidate call, inside the timed region.
    reset: Callable[[], None] = _noop
    #: Bounds on the candidate's result; a value passes when it is zero
    #: or below its bound.  ``<counter>_share`` (``engine_share``,
    #: ``resume_share``) is that counter's fraction of the result's
    #: backend stats; any other key names an attribute of the result.
    limits: Mapping[str, float] = field(default_factory=dict)


def backend_stats(result) -> Dict[str, int]:
    """The batch provenance counters a result carries (lists merged)."""
    from repro.analysis.batchreplay import merge_stats

    if isinstance(result, list):
        return merge_stats(backend_stats(item) for item in result)
    return dict(getattr(result, "backend_stats", None) or {})


def _fresh_heap() -> None:
    """Start every timed region from a collected heap, collector on."""
    gc.collect()
    gc.enable()


def _calibration() -> int:
    """The calibration workload: about 0.15 ms of dict and integer work."""
    total = 0
    seen = {}
    for index in range(600):
        seen[index & 63] = total
        total += seen.get((index * 7) & 63, 1) & 0xFF
    return total


def _sized(timer: timeit.Timer, region: Optional[float] = None) -> int:
    """Calls per region so one region lasts ``MIN_REGION_S``.

    ``region`` is the duration of one call already made, if any, so an
    oracle whose calls are long pays for no sizing run.
    """
    number = 1
    if region is None:
        region = timer.timeit(number)
    while region < MIN_REGION_S:
        number = max(number + 1, math.ceil(number * 1.2 * MIN_REGION_S / region))
        region = timer.timeit(number)
    return number


def _region(timer: timeit.Timer, number: int) -> Tuple[float, float]:
    """Seconds per call, and cost per call in calibration units.

    A ``SIGALRM`` interval timer samples the calibration workload while
    the calls run, so the samples see the host's speed over the same
    span as the calls; their time is taken out of the region's.
    """
    samples = []

    def sample(signum, frame):
        start = timeit.default_timer()
        _calibration()
        samples.append(timeit.default_timer() - start)

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        region = timer.timeit(number)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds = (region - sum(samples)) / number
    return seconds, seconds * len(samples) / sum(samples)


def _time(sides: Sequence[Tuple[Callable[[], Any], Optional[float]]]) -> List[Dict]:
    """Best seconds and cost per call, loops and spread of each side.

    ``sides`` pairs each side's call with the duration of one call
    already made, or None.  After sizing, the sides' regions alternate,
    so a slow spell of the host lands on both rather than on one side's
    best.
    """
    timers = [timeit.Timer(call, setup=_fresh_heap) for call, _ in sides]
    numbers = [_sized(timer, first) for timer, (_, first) in zip(timers, sides)]
    regions = [[], []]
    for _ in range(REPEATS):
        for timer, number, side in zip(timers, numbers, regions):
            side.append(_region(timer, number))
    timed = []
    for number, side in zip(numbers, regions):
        best = min(cost for _, cost in side)
        median = statistics.median(cost for _, cost in side)
        seconds = min(seconds for seconds, _ in side)
        timed.append(
            dict(seconds=seconds, cost=best, loops=number, spread=(median - best) / best)
        )
    return timed


def run_entry(entry: Entry) -> Dict[str, Any]:
    """Warm, check and time one entry; raise on any divergence."""

    def candidate():
        entry.reset()
        return entry.candidate()

    start = timeit.default_timer()
    expected = entry.oracle()
    oracle_first = timeit.default_timer() - start
    measured = candidate()
    if entry.surface(expected) != entry.surface(measured):
        raise AssertionError("%s: candidate diverged from the oracle" % entry.name)
    stats = backend_stats(measured)
    total = sum(stats.values())
    for key, bound in entry.limits.items():
        if key.endswith("_share"):
            if not total:
                raise AssertionError("%s: no backend stats for %s" % (entry.name, key))
            value = stats.get(key[: -len("_share")], 0) / total
        else:
            value = getattr(measured, key)
        if value and value >= bound:
            raise AssertionError(
                "%s: %s = %r is not below its bound %r (backend stats %r)"
                % (entry.name, key, value, bound, stats)
            )
    units = entry.units(expected)
    # Drop the warm results so the timed calls run in a production-sized heap.
    del expected, measured
    # The oracle's warm-up call sizes its loop.  The candidate's ran from
    # cold caches and lazy imports, slower than its timed calls, so it
    # is sized afresh.
    oracle, fast = _time([(entry.oracle, oracle_first), (candidate, None)])
    return {
        "unit": entry.unit,
        "units": units,
        "oracle_s": oracle["seconds"],
        "candidate_s": fast["seconds"],
        "speedup": oracle["cost"] / fast["cost"],
        "spread": max(oracle["spread"], fast["spread"]),
        "loops": {"oracle": oracle["loops"], "candidate": fast["loops"]},
        "us_per_unit_oracle": 1e6 * oracle["seconds"] / units,
        "us_per_unit_candidate": 1e6 * fast["seconds"] / units,
        "backend_stats": stats,
    }


def run_harness(entries: Sequence[Entry], echo=print) -> Dict[str, Any]:
    """Run ``entries`` in order and assemble the report dict."""
    import numpy

    from repro.parallel.pool import cpu_count

    report = {
        "host": {
            "cpu_count": cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "entries": {},
    }
    for entry in entries:
        row = run_entry(entry)
        report["entries"][entry.name] = row
        echo(
            "%-20s x%6.2f  spread %4.1f%%  %9.1f -> %8.1f us/%s"
            % (
                entry.name,
                row["speedup"],
                100.0 * row["spread"],
                row["us_per_unit_oracle"],
                row["us_per_unit_candidate"],
                entry.unit,
            )
        )
    return report


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


def _bus_run(record_bits: bool, fast_path: bool, frames: int = 60):
    """Three controllers pushing ``frames`` data frames to idle."""
    from repro.can.controller import CanController
    from repro.can.controller_config import ControllerConfig
    from repro.can.frame import data_frame
    from repro.simulation.engine import SimulationEngine

    config = ControllerConfig(fast_path=fast_path)
    nodes = [CanController(name, config) for name in ("tx", "r1", "r2")]
    engine = SimulationEngine(nodes, record_bits=record_bits)
    for index in range(frames):
        nodes[0].submit(data_frame(0x100 + (index % 0x200), b"\x55\xaa"))
    engine.run_until_idle(max_bits=10_000_000)
    return engine


def _bus_surface(engine):
    return engine.time, list(engine.bus.history), engine.trace.events


def _combo_universe(protocol: str, m: int, n_nodes: int, pair_stride: int):
    """Every header and EOF site, singles and every ``pair_stride``-th pair."""
    from repro.analysis.verification import header_sites
    from repro.can.fields import EOF
    from repro.can.frame import data_frame
    from repro.faults.scenarios import make_controller

    node_names = ("tx",) + tuple("r%d" % index for index in range(1, n_nodes))
    frame = data_frame(0x123, b"", message_id="bench")
    eof_length = make_controller(protocol, "probe", m=m).config.eof_length
    sites = list(header_sites(node_names, data_bits=0))
    sites += [(name, EOF, index) for name in node_names for index in range(eof_length)]
    pairs = list(itertools.combinations(sites, 2))[::pair_stride]
    return node_names, frame, [()] + [(site,) for site in sites] + pairs


def _combos_on_engine(protocol, m, node_names, frame, combos):
    from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
    from repro.faults.scenarios import make_controller, run_single_frame_scenario

    verdicts = []
    for combo in combos:
        nodes = [make_controller(protocol, name, m=m) for name in node_names]
        faults = [
            ViewFault(name, Trigger(field=field_, index=index), force=None)
            for name, field_, index in combo
        ]
        outcome = run_single_frame_scenario(
            "bench-multiflip",
            nodes,
            ScriptedInjector(view_faults=faults),
            frame=frame,
            record_bits=False,
        )
        verdicts.append(
            (tuple(outcome.deliveries[name] for name in node_names), outcome.attempts)
        )
    return SimpleNamespace(verdicts=verdicts, backend_stats=None)


def _combos_on_batch(protocol, m, node_names, frame, combos):
    from repro.analysis.batchreplay import BatchReplayEvaluator

    evaluator = BatchReplayEvaluator(protocol, m, node_names, frame=frame)
    outcomes = evaluator.evaluate(combos)
    return SimpleNamespace(
        verdicts=[(o.deliveries, o.attempts) for o in outcomes],
        backend_stats=dict(evaluator.stats),
    )


def _sweep_run(spec, backend: str):
    """``spec`` into a fresh store, then the rerun that must find it done."""
    from repro.metrics.export import json_line
    from repro.sweep import ResultStore, run_sweep

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(os.path.join(tmp, "store"))
        report = run_sweep(spec, store, jobs=1, backend=backend)
        rerun = run_sweep(spec, store, jobs=1, backend=backend)
        physics = {
            json_line(record["cell"]): {
                key: value
                for key, value in record["result"].items()
                if key != "backend_stats"
            }
            for record in store.records().values()
        }
    return SimpleNamespace(
        physics=physics,
        cells=report.evaluated,
        rerun_evaluated=rerun.evaluated,
        backend_stats=report.backend_stats,
    )


def _campaign_surface(outcome):
    return (
        outcome.as_row(),
        outcome.omission_rounds,
        outcome.attacked_rounds,
        outcome.errors_injected,
    )


def _traffic_lines(outcome):
    from repro.metrics.export import json_line
    from repro.traffic import traffic_records

    return [json_line(record) for record in traffic_records(outcome)]


def _reset_batch() -> None:
    from repro.analysis.batchreplay import clear_caches

    clear_caches()


def _reset_noisy_traffic() -> None:
    from repro.traffic import clear_window_cache

    clear_window_cache()
    _reset_batch()


def _reset_noisy_campaign() -> None:
    from repro.faults.campaigns import _ROUND_REFERENCE

    _reset_batch()
    _ROUND_REFERENCE.clear()


def table() -> List[Entry]:
    """Every gated comparison, in run order."""
    from repro.analysis.montecarlo import monte_carlo_tail
    from repro.analysis.reliability import reliability_comparison
    from repro.analysis.sweeps import m_ablation
    from repro.analysis.verification import verify_consistency
    from repro.faults.campaigns import CampaignSpec, run_campaign
    from repro.sweep import SweepSpec
    from repro.traffic import TrafficSpec, clear_window_cache, run_traffic

    # Six nodes is where receiver symmetry folds the most combos; a
    # quarter of the pairs keeps the engine oracle near 1.6 s.
    multiflip = _combo_universe("can", 5, n_nodes=6, pair_stride=4)
    campaign = CampaignSpec(
        protocol="can", n_nodes=4, rounds=96, attack_probability=0.5, seed=17
    )
    steady = dict(
        name="bench-traffic", protocol="majorcan", m=5, n_nodes=6,
        windows=2, window_bits=1200, load=0.9, seed=13,
    )
    clean_traffic = TrafficSpec(
        name="bench-traffic-batch", protocol="majorcan", m=5, n_nodes=6,
        windows=2, window_bits=2400, load=0.9, seed=13,
    )
    sweep = SweepSpec(
        name="bench-sweep", protocols=("can", "majorcan"), m_values=(5,),
        bers=(1e-5, 1e-4), bit_rates=(500_000.0,), bus_lengths_m=(30.0,),
        payloads=(1,), node_counts=(3, 4), window=2, max_flips=2,
    )
    noisy_traffic = TrafficSpec(
        name="bench-noise-traffic", protocol="majorcan", m=3, n_nodes=4,
        windows=40, window_bits=900, load=0.55, seed=11, noise_ber=2e-5,
    )
    noisy_campaign = CampaignSpec(
        protocol="majorcan", n_nodes=4, rounds=60, attack_probability=0.4,
        noise_ber_star=2e-5, seed=17,
    )

    def verify(backend):
        return verify_consistency(
            "can", m=5, n_nodes=3, max_flips=2, jobs=1, backend=backend
        )

    def ablation(backend):
        return m_ablation(m_values=(3, 4, 5, 6, 7), check_f1=True, jobs=1, backend=backend)

    def tail(backend):
        return monte_carlo_tail(
            "can", n_nodes=3, ber_star=0.08, trials=500, seed=7, jobs=1, backend=backend
        )

    def frames(outcome):
        return outcome.stats.frames_submitted

    return [
        Entry(
            "engine", "bit", lambda engine: engine.time,
            oracle=lambda: _bus_run(record_bits=True, fast_path=True),
            candidate=lambda: _bus_run(record_bits=False, fast_path=True),
            surface=_bus_surface,
        ),
        Entry(
            "controller", "bit", lambda engine: engine.time,
            oracle=lambda: _bus_run(record_bits=False, fast_path=False),
            candidate=lambda: _bus_run(record_bits=False, fast_path=True),
            surface=_bus_surface,
        ),
        Entry(
            "batch_enumeration", "placement", lambda result: result.runs,
            oracle=lambda: verify("engine"),
            candidate=lambda: verify("batch"),
            surface=lambda r: (r.runs, [str(c) for c in r.counterexamples]),
            reset=_reset_batch,
        ),
        Entry(
            "header_enumeration", "placement",
            lambda rows: sum(row.tail_errors_verified for row in rows),
            oracle=lambda: ablation("engine"),
            candidate=lambda: ablation("batch"),
            surface=lambda rows: [replace(row, backend_stats=None) for row in rows],
            reset=_reset_batch,
        ),
        Entry(
            "montecarlo_batch", "trial", lambda result: result.trials,
            oracle=lambda: tail("engine"),
            candidate=lambda: tail("batch"),
            surface=lambda r: (
                r.imo, r.double_reception, r.inconsistent, r.no_fault_trials, r.flips_total
            ),
            reset=_reset_batch,
        ),
        Entry(
            "multiflip_header", "combo", lambda result: len(result.verdicts),
            oracle=lambda: _combos_on_engine("can", 5, *multiflip),
            candidate=lambda: _combos_on_batch("can", 5, *multiflip),
            surface=lambda result: result.verdicts,
            reset=_reset_batch,
        ),
        Entry(
            "campaign_batch", "round", lambda outcome: outcome.rounds,
            oracle=lambda: run_campaign(campaign, backend="engine"),
            candidate=lambda: run_campaign(campaign, backend="batch"),
            surface=_campaign_surface,
            reset=_reset_batch,
        ),
        Entry(
            "reliability_batch", "protocol", len,
            oracle=lambda: reliability_comparison(1e-5, backend="engine"),
            candidate=lambda: reliability_comparison(1e-5, backend="batch"),
            surface=lambda rows: [
                (r.protocol, r.ber, r.imo_rate_per_hour, r.mttf_hours, r.mission_survival)
                for r in rows
            ],
            reset=_reset_batch,
        ),
        Entry(
            # Everything but the manifest, which records the knob.
            "traffic_steady_state", "frame", frames,
            oracle=lambda: run_traffic(TrafficSpec(**steady, fast_path=False), jobs=1),
            candidate=lambda: run_traffic(TrafficSpec(**steady), jobs=1),
            surface=lambda outcome: _traffic_lines(outcome)[1:],
        ),
        Entry(
            "traffic_batch", "frame", frames,
            oracle=lambda: run_traffic(clean_traffic, jobs=1),
            candidate=lambda: run_traffic(clean_traffic, jobs=1, backend="batch"),
            surface=lambda o: (_traffic_lines(o), o.ledger, o.stats, o.properties),
            reset=clear_window_cache,
            limits={"engine_share": 0, "resume_share": 0},
        ),
        Entry(
            "sweep", "cell", lambda result: result.cells,
            oracle=lambda: _sweep_run(sweep, "engine"),
            candidate=lambda: _sweep_run(sweep, "batch"),
            surface=lambda result: result.physics,
            reset=_reset_batch,
            limits={"rerun_evaluated": 0},
        ),
        Entry(
            "noise_traffic", "frame", frames,
            oracle=lambda: run_traffic(noisy_traffic, jobs=1),
            candidate=lambda: run_traffic(noisy_traffic, jobs=1, backend="batch"),
            surface=_traffic_lines,
            reset=_reset_noisy_traffic,
            limits={"engine_share": 0.10},
        ),
        Entry(
            "noise_campaign", "round", lambda outcome: outcome.rounds,
            oracle=lambda: run_campaign(noisy_campaign, backend="engine"),
            candidate=lambda: run_campaign(noisy_campaign, backend="batch"),
            surface=_campaign_surface,
            reset=_reset_noisy_campaign,
            limits={"engine_share": 0.10},
        ),
    ]


def main(argv=None) -> int:
    entries = table()
    names = [entry.name for entry in entries]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(_REPO_ROOT, "BENCH_PR12.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--section",
        action="append",
        choices=names,
        help="run only the named entry (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    wanted = set(args.section or names)
    report = run_harness([entry for entry in entries if entry.name in wanted])
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print("report: %s (cpu_count=%d)" % (args.out, report["host"]["cpu_count"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
