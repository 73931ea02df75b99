"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They run the smoke-size variant of every workload end to end, check the
metric declarations, show that a tampered output counts as failed, and
check the self-time arithmetic on a synthetic span tree.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from spans import Span, SpanRecorder, self_times, totals_by_name  # noqa: E402
from traced import SWEEP_METRICS, TRAFFIC_METRICS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _bench(workload, trace):
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH, "run.py"),
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "0",
            "--trace",
            str(trace),
            "--size",
            "smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    declared = _declared()
    names = [entry["name"] for entry in declared["end_to_end"] + declared["per_layer"]]
    names += [entry["name"] for entry in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
    assert [entry["name"] for entry in declared["workloads"]] == list(workloads.WORKLOADS)


def test_per_layer_declaration_matches_the_traced_metrics():
    declared = [entry["name"] for entry in _declared()["per_layer"]]
    produced = list(TRAFFIC_METRICS) + list(SWEEP_METRICS) + ["trace.overhead_frac"]
    assert sorted(declared) == sorted(produced)


# ---------------------------------------------------------------------------
# Smoke-size runs of every workload
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _bench(workload, trace=0)
    declared = _declared()["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(entry["name"] for entry in declared)
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0, entry["name"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    result = _bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(e["name"] for e in _declared()["per_layer"])
    label = "%s-smoke-seed0" % workload
    with open(os.path.join(ROOT, ".perfbench_work", "traces", label + ".json")) as handle:
        names = {span["name"] for span in json.load(handle)["spans"]}
    traffic_spans = {"schedule", "window", "splice", "record", "properties.ab5"}
    if workload == "sweep-grid":
        assert not names & traffic_spans
        assert not any(name.startswith("properties") for name in names)
        assert result["metrics"]["cell.evaluate_s"]["value"] > 0
        assert result["metrics"]["placements.scalar"]["value"] > 0
    else:
        assert traffic_spans <= names
        assert result["metrics"]["properties.ab5_s"]["value"] > 0
        assert result["metrics"]["sweep.plan_s"]["value"] == 0


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def test_tampered_traffic_output_counts_as_failed(tmp_path):
    spec = workloads.traffic_spec("noisy-majorcan", workloads.DEFAULT_SEED, "smoke")
    reference = workloads.load_reference("noisy-majorcan", "smoke")
    recording = str(tmp_path / "run.jsonl")
    outcome = workloads.traffic_call(spec, recording)
    digests = workloads.traffic_digests(outcome, recording)
    assert workloads.count_failures(digests, reference) == (3, 0)

    # One delivery of the last window moved by one bit time.
    node = max(outcome.ledger.nodes.values(), key=lambda n: len(n.delivery_times))
    node.delivery_times[-1] += 1
    assert workloads.count_failures(workloads.traffic_digests(outcome, recording), reference) == (
        3,
        1,
    )
    # A recording whose bytes differ fails as one more unit.
    with open(recording, "a") as handle:
        handle.write("\n")
    assert workloads.count_failures(workloads.traffic_digests(outcome, recording), reference) == (
        3,
        2,
    )
    assert workloads.count_failures(None, reference) == (3, 3)


def test_tampered_sweep_store_counts_as_failed(tmp_path):
    from repro.sweep import ResultStore

    spec = workloads.sweep_spec("smoke")
    reference = workloads.load_reference("sweep-grid", "smoke")
    result = workloads.sweep_call(spec, str(tmp_path / "store"), jobs=1)
    store = result["store"]
    assert workloads.count_failures(workloads.sweep_digests(store), reference) == (5, 0)

    with open(store.compacted_path) as handle:
        lines = handle.readlines()
    lines[0] = lines[0].replace('"tau_data":', '"tau_data":1', 1)
    with open(store.compacted_path, "w") as handle:
        handle.writelines(lines)
    tampered = workloads.sweep_digests(ResultStore(store.root))
    assert workloads.count_failures(tampered, reference) == (5, 2)


def test_store_problems_name_each_broken_step():
    assert workloads.store_problems(4, 4, 0, 4) == []
    assert len(workloads.store_problems(4, 3, 1, 2)) == 3


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (running past the root's end); a has child a1 [2, 3].
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 4.0),
        Span(2, "b", 0, 3.0, 6.0),
        Span(3, "c", 0, 8.0, 12.0),
        Span(4, "a1", 1, 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_recorder_nests_spans_and_sums_them_by_name():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("run"):  # t = 0 .. 7
        with recorder.span("window"):  # 1 .. 4
            with recorder.span("encode"):  # 2 .. 3
                pass
        with recorder.span("window"):  # 5 .. 6
            pass
    parents = [span.parent for span in recorder.spans]
    assert parents == [None, 0, 1, 0]
    totals = totals_by_name(recorder.spans)
    assert totals["window"]["count"] == 2
    assert totals["window"]["s"] == pytest.approx(3.0 + 1.0)
    assert totals["window"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert totals["run"]["self_s"] == pytest.approx(7.0 - 4.0)
