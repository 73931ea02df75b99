"""Tests of the perf harness runner (benchmarks/perf_harness.py).

The runner is what makes every gated ratio trustworthy: it must refuse
a candidate whose surface differs from its oracle, refuse one over its
engine-share bound, and report every entry with its ratio, spread and
per-unit costs.  Timing constants are shrunk so the suite stays fast.
"""

import importlib.util
import os
import sys
from types import SimpleNamespace

import pytest

HARNESS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "perf_harness.py",
)

_spec = importlib.util.spec_from_file_location("perf_harness", HARNESS)
perf_harness = importlib.util.module_from_spec(_spec)
# Registered first: dataclasses resolve annotations through sys.modules.
sys.modules.setdefault("perf_harness", perf_harness)
_spec.loader.exec_module(perf_harness)


@pytest.fixture(autouse=True)
def quick_timing(monkeypatch):
    # Ten calibration samples per region at the default interval.
    monkeypatch.setattr(perf_harness, "MIN_REGION_S", 0.02)
    monkeypatch.setattr(perf_harness, "REPEATS", 3)


def _entry(name="synthetic", oracle_value=7, candidate_value=7, stats=None, **fields):
    def run(value, delay):
        total = sum(range(delay))
        return SimpleNamespace(value=value, total=total, backend_stats=stats)

    return perf_harness.Entry(
        name,
        "item",
        lambda result: 10,
        oracle=lambda: run(oracle_value, 20000),
        candidate=lambda: run(candidate_value, 2000),
        surface=lambda result: result.value,
        **fields,
    )


def test_diverging_surface_raises():
    with pytest.raises(AssertionError, match="diverged from the oracle"):
        perf_harness.run_entry(_entry(candidate_value=8))


def test_engine_share_over_bound_raises():
    entry = _entry(
        stats={"batch": 8, "engine": 2}, limits={"engine_share": 0.10}
    )
    with pytest.raises(AssertionError, match="engine_share"):
        perf_harness.run_entry(entry)


def test_engine_share_at_bound_raises():
    # "Under 10 %" is strict, as in tools/engine_share_check.py.
    entry = _entry(
        stats={"batch": 36, "engine": 4}, limits={"engine_share": 0.10}
    )
    with pytest.raises(AssertionError, match="engine_share"):
        perf_harness.run_entry(entry)


def test_zero_bound_refuses_any_resume_window():
    entry = _entry(
        stats={"batch": 39, "resume": 1},
        limits={"engine_share": 0, "resume_share": 0},
    )
    with pytest.raises(AssertionError, match="resume_share"):
        perf_harness.run_entry(entry)


def test_share_bound_without_backend_stats_raises():
    with pytest.raises(AssertionError, match="no backend stats"):
        perf_harness.run_entry(_entry(limits={"engine_share": 0.10}))


def test_attribute_limit_over_bound_raises():
    with pytest.raises(AssertionError, match="total"):
        perf_harness.run_entry(_entry(limits={"total": 0}))


def test_reset_runs_before_every_candidate_call():
    calls = []
    entry = _entry(reset=lambda: calls.append("reset"))
    perf_harness.run_entry(entry)
    assert len(calls) >= perf_harness.REPEATS + 1


def test_report_holds_every_entry():
    entries = [
        _entry("first"),
        _entry("second", stats={"batch": 19, "engine": 1}, limits={"engine_share": 0.1}),
    ]
    report = perf_harness.run_harness(entries, echo=lambda line: None)
    assert report["host"]["cpu_count"] >= 1
    assert list(report["entries"]) == ["first", "second"]
    for row in report["entries"].values():
        assert row["speedup"] > 0
        assert row["spread"] >= 0
        assert row["units"] == 10
        assert row["us_per_unit_oracle"] == pytest.approx(1e5 * row["oracle_s"])
        assert row["us_per_unit_candidate"] == pytest.approx(1e5 * row["candidate_s"])
        # Loops were sized to MIN_REGION_S; even the fastest region of a
        # noisy host stays well above half of it.
        region = row["candidate_s"] * row["loops"]["candidate"]
        assert row["loops"]["candidate"] > 1
        assert region >= perf_harness.MIN_REGION_S / 2
    assert report["entries"]["second"]["backend_stats"] == {"batch": 19, "engine": 1}


def test_table_names_are_unique():
    names = [entry.name for entry in perf_harness.table()]
    assert len(names) == len(set(names)) == 13


def test_controller_entry_runs_end_to_end():
    (entry,) = [e for e in perf_harness.table() if e.name == "controller"]
    row = perf_harness.run_entry(entry)
    assert row["unit"] == "bit"
    assert row["units"] > 1000
    assert row["speedup"] > 1.0


def test_region_cost_is_counted_in_calibration_units():
    # A call that is 300 calibration runs costs about 300 units, however
    # fast the host happens to be.
    timer = perf_harness.timeit.Timer(
        lambda: [perf_harness._calibration() for _ in range(300)]
    )
    seconds, cost = perf_harness._region(timer, number=1)
    assert seconds > 0
    assert 150 < cost < 600
