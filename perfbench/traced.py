"""Traced runs: the workload's call chain, one layer call per span.

Spans sit around the public functions of each layer, called from here;
nothing inside the program is instrumented.  The traffic chain is the
one ``run_traffic`` runs (schedule build, one ``run_window`` per window,
``splice_windows``) plus ``record_traffic``; after it come separate
calls of each AB checker on the spliced ledger, of
``delivered_anywhere_correct``, of ``load_trace`` on the recording just
written, and of the same windows on the per-bit engine.  The sweep chain
plans the grid, evaluates every cell serially, appends and compacts the
store, reruns the sweep on it and exports the surface.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter
from dataclasses import asdict
from typing import Any, Dict, List

from spans import SpanRecorder, totals_by_name
from workloads import SWEEP_JOBS, store_problems, sweep_digests, traffic_digests

#: Per-layer metrics the traced traffic run reports.
TRAFFIC_METRICS = (
    "schedule.s",
    "schedule.submissions",
    "window.s",
    "window.us_per_frame",
    "window.batch",
    "window.resume",
    "window.engine",
    "window.engine_ref_s",
    "window.engine_bits_per_s",
    "window.batch_vs_engine",
    "encoding.bus_image.hits",
    "encoding.bus_image.misses",
    "encoding.wire_program.hits",
    "encoding.wire_program.misses",
    "traffic.window_cache.hits",
    "traffic.window_cache.misses",
    "splice.s",
    "splice.self_s",
    "ledger.delivered_anywhere_s",
    "properties.ab1_s",
    "properties.ab2_s",
    "properties.ab3_s",
    "properties.ab4_s",
    "properties.ab5_s",
    "properties.total_s",
    "properties.deliveries",
    "properties.correct_nodes",
    "record.s",
    "record.bytes",
    "load.s",
)

#: Per-layer metrics the traced sweep run reports (the ``parallel.*``
#: pair is derived by the runner from the untraced run).
SWEEP_METRICS = (
    "sweep.plan_s",
    "cell.evaluate_s",
    "cell.p50_ms",
    "cell.p90_ms",
    "sweep.rerun_s",
    "store.compact_s",
    "store.bytes",
    "sweep.export_s",
    "placements.scalar",
    "placements.batch",
    "placements.header",
    "placements.engine",
    "analysis.us_per_placement",
    "parallel.efficiency",
    "parallel.jobs",
)

#: The metrics that are self times of one layer, compared to find the
#: layer that costs most.  ``splice_windows`` runs the AB checkers
#: inside, so the splice's own share is ``splice.self_s``.
TRAFFIC_SELF_TIMES = (
    "schedule.s",
    "window.s",
    "window.engine_ref_s",
    "splice.self_s",
    "ledger.delivered_anywhere_s",
    "properties.ab1_s",
    "properties.ab2_s",
    "properties.ab3_s",
    "properties.ab4_s",
    "properties.ab5_s",
    "record.s",
    "load.s",
)
SWEEP_SELF_TIMES = (
    "sweep.plan_s",
    "cell.evaluate_s",
    "store.compact_s",
    "sweep.rerun_s",
    "sweep.export_s",
)

#: Stage spans whose sum is compared with the untraced run time.
TRAFFIC_STAGES = ("schedule", "window", "splice", "record")
SWEEP_STAGES = (
    "sweep.plan",
    "cell.evaluate",
    "store.append",
    "store.compact",
    "sweep.rerun",
    "sweep.export",
)


def _cache_counts() -> Dict[str, int]:
    from repro.can.encoding import bus_image, wire_program
    from repro.traffic import window_cache_stats

    counts = {}
    for name, cached in (("bus_image", bus_image), ("wire_program", wire_program)):
        info = cached.cache_info()
        counts["encoding.%s.hits" % name] = info.hits
        counts["encoding.%s.misses" % name] = info.misses
    stats = window_cache_stats()
    counts["traffic.window_cache.hits"] = stats["hits"]
    counts["traffic.window_cache.misses"] = stats["misses"]
    return counts


def _window_output(result) -> Dict[str, Any]:
    """A window's observables, without the provenance of its evaluator."""
    fields = asdict(result)
    fields.pop("backend")
    return fields


def trace_traffic(spec, workdir: str, recorder: SpanRecorder) -> Dict[str, Any]:
    """Run the traced traffic chain; returns metrics, digests and checks."""
    from repro.properties import (
        check_agreement,
        check_at_most_once,
        check_non_triviality,
        check_total_order,
        check_validity,
    )
    from repro.tracestore.replay import load_trace
    from repro.traffic import (
        build_schedule,
        record_traffic,
        run_window,
        splice_windows,
        traffic_seed_tree,
    )

    span = recorder.span
    recording = os.path.join(workdir, "traced.jsonl")
    caches_before = _cache_counts()
    with span("traffic"):
        with span("schedule"):
            schedule = build_schedule(spec)
        per_window: List[list] = [[] for _ in range(spec.windows)]
        for sub in schedule:
            per_window[sub.window].append(sub)
        if spec.noise_ber > 0.0:
            noise_seeds = traffic_seed_tree(spec)[1]
        else:
            noise_seeds = [None] * spec.windows
        results = []
        for window in range(spec.windows):
            with span("window"):
                results.append(
                    run_window(
                        spec,
                        window,
                        tuple(per_window[window]),
                        noise_seeds[window],
                        backend="batch",
                    )
                )
        backends = Counter(result.backend for result in results)
        with span("splice"):
            outcome = splice_windows(spec, schedule, results, backend_stats=dict(backends))
        with span("record"):
            record_traffic(recording, outcome)
    caches_after = _cache_counts()

    ledger = outcome.ledger
    with span("ledger.delivered_anywhere"):
        ledger.delivered_anywhere_correct()
    checkers = (
        ("ab1", check_validity),
        ("ab2", check_agreement),
        ("ab3", check_at_most_once),
        ("ab4", check_non_triviality),
        ("ab5", check_total_order),
    )
    for label, check in checkers:
        with span("properties." + label):
            check(ledger)
    with span("load"):
        load_trace(recording)
    engine_results = []
    for window in range(spec.windows):
        with span("window.engine_ref"):
            engine_results.append(
                run_window(
                    spec,
                    window,
                    tuple(per_window[window]),
                    noise_seeds[window],
                    backend="engine",
                )
            )
    engine_mismatch = [
        window
        for window, (batch, engine) in enumerate(zip(results, engine_results))
        if _window_output(batch) != _window_output(engine)
    ]

    totals = totals_by_name(recorder.spans)
    frames = len(schedule)
    window_s = totals["window"]["s"]
    engine_s = totals["window.engine_ref"]["s"]
    ab_total = sum(totals["properties." + label]["s"] for label, _ in checkers)
    metrics: Dict[str, float] = {
        "schedule.s": totals["schedule"]["s"],
        "schedule.submissions": frames,
        "window.s": window_s,
        "window.us_per_frame": window_s / frames * 1e6 if frames else 0.0,
        "window.batch": backends.get("batch", 0),
        "window.resume": backends.get("resume", 0),
        "window.engine": backends.get("engine", 0),
        "window.engine_ref_s": engine_s,
        "window.engine_bits_per_s": sum(r.bits for r in engine_results) / engine_s,
        "window.batch_vs_engine": engine_s / window_s,
        "splice.s": totals["splice"]["s"],
        "splice.self_s": totals["splice"]["s"] - ab_total,
        "ledger.delivered_anywhere_s": totals["ledger.delivered_anywhere"]["s"],
        "properties.total_s": ab_total,
        "properties.deliveries": sum(len(node.deliveries) for node in ledger.nodes.values()),
        "properties.correct_nodes": len(ledger.correct_nodes),
        "record.s": totals["record"]["s"],
        "record.bytes": os.path.getsize(recording),
        "load.s": totals["load"]["s"],
    }
    for label, _ in checkers:
        metrics["properties.%s_s" % label] = totals["properties." + label]["s"]
    for name, after in caches_after.items():
        metrics[name] = after - caches_before[name]
    digests = traffic_digests(outcome, recording)
    for window in engine_mismatch:
        digests["windows"][window] = "differs from the engine run"
    return {
        "metrics": metrics,
        "stage_sum_s": sum(totals[name]["s"] for name in TRAFFIC_STAGES),
        "digests": digests,
    }


def trace_sweep(spec, workdir: str, recorder: SpanRecorder) -> Dict[str, Any]:
    """Run the traced sweep chain; returns metrics, digests and checks."""
    from repro.sweep import ResultStore, evaluate_cell, pending_cells, run_sweep, surface_rows

    span = recorder.span
    store = ResultStore(os.path.join(workdir, "traced-store"))
    records = []
    placements: Counter = Counter()
    with span("sweep"):
        with span("sweep.plan"):
            pending, _ = pending_cells(spec, store, backend="batch")
        for cell, constants, key in pending:
            with span("cell.evaluate"):
                result = evaluate_cell(
                    cell,
                    window=spec.window,
                    max_flips=spec.max_flips,
                    load=spec.load,
                    backend="batch",
                )
            placements.update(result.get("backend_stats") or {})
            records.append(
                {"key": key, "cell": cell.as_dict(), "constants": constants, "result": result}
            )
        with span("store.append"):
            store.append(records)
        with span("store.compact"):
            store.compact()
        with span("sweep.rerun"):
            rerun = run_sweep(spec, store, jobs=SWEEP_JOBS, backend="batch")
        with span("sweep.export"):
            rows = surface_rows(store)

    totals = totals_by_name(recorder.spans)
    evaluate_s = totals["cell.evaluate"]["s"]
    cell_seconds = [s.duration for s in recorder.spans if s.name == "cell.evaluate"]
    deciles = statistics.quantiles(cell_seconds, n=10, method="inclusive")
    metrics: Dict[str, float] = {
        "sweep.plan_s": totals["sweep.plan"]["s"],
        "cell.evaluate_s": evaluate_s,
        "cell.p50_ms": statistics.median(cell_seconds) * 1e3,
        "cell.p90_ms": deciles[8] * 1e3,
        "sweep.rerun_s": totals["sweep.rerun"]["s"],
        "store.compact_s": totals["store.compact"]["s"],
        "store.bytes": os.path.getsize(store.compacted_path),
        "sweep.export_s": totals["sweep.export"]["s"],
        "analysis.us_per_placement": evaluate_s / max(1, sum(placements.values())) * 1e6,
    }
    for route in ("scalar", "batch", "header", "engine"):
        metrics["placements." + route] = placements.get(route, 0)
    digests = sweep_digests(store)
    problems = store_problems(len(pending), len(records), rerun.evaluated, len(rows))
    if problems:
        digests["store"] = "; ".join(problems)
    return {
        "metrics": metrics,
        "stage_sum_s": sum(totals[name]["s"] for name in SWEEP_STAGES),
        "digests": digests,
    }
