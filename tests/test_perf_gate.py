"""Unit tests for the per-PR perf regression gate (tools/perf_gate.py).

The gate compares every baseline entry's speedup against a fresh
harness report; it must fail on a >tolerance regression, on an entry
missing from the report, and on a spread above the tolerance in either
file, and pass within the band.
"""

import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    # Registered first: dataclasses resolve annotations through sys.modules.
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


perf_gate = _load("perf_gate", "tools", "perf_gate.py")


def _report(spread=0.05, **speedups):
    ratios = {"engine": 2.4, "controller": 3.2, "batch_enumeration": 18.0}
    ratios.update(speedups)
    return {
        "entries": {
            name: {"speedup": ratio, "spread": spread} for name, ratio in ratios.items()
        }
    }


class TestCheck:
    def test_identical_reports_pass(self):
        assert perf_gate.check(_report(), _report()) == []

    def test_regression_within_tolerance_passes(self):
        # 20% below baseline sits inside the 30% tolerance band.
        baseline = _report(engine=2.0, controller=3.0, batch_enumeration=10.0)
        measured = _report(engine=1.6, controller=2.4, batch_enumeration=8.0)
        assert perf_gate.check(baseline, measured) == []

    def test_regression_beyond_tolerance_fails(self):
        baseline = _report(batch_enumeration=10.0)
        measured = _report(batch_enumeration=6.0)  # 40% drop > 30% tolerance
        failures = perf_gate.check(baseline, measured)
        assert len(failures) == 1
        assert "batch_enumeration regressed" in failures[0]

    def test_improvements_always_pass(self):
        baseline = _report(engine=2.0, controller=3.0, batch_enumeration=10.0)
        measured = _report(engine=4.0, controller=6.0, batch_enumeration=30.0)
        assert perf_gate.check(baseline, measured) == []

    def test_missing_entry_fails(self):
        measured = _report()
        del measured["entries"]["batch_enumeration"]
        failures = perf_gate.check(_report(), measured)
        assert failures == ["batch_enumeration is missing from the report"]

    def test_extra_report_entry_is_not_gated(self):
        assert perf_gate.check(_report(), _report(sweep=12.0)) == []

    def test_spread_beyond_tolerance_fails_in_either_file(self):
        noisy = _report(spread=0.45)
        for baseline, measured, label in (
            (_report(), noisy, "report"),
            (noisy, _report(), "baseline"),
        ):
            failures = perf_gate.check(baseline, measured)
            assert len(failures) == 3
            assert all("too noisy in the %s" % label in f for f in failures)

    def test_custom_tolerance(self):
        baseline = _report(batch_enumeration=10.0)
        measured = _report(batch_enumeration=9.4)  # 6% drop
        assert perf_gate.check(baseline, measured, tolerance=0.10) == []
        failures = perf_gate.check(baseline, measured, tolerance=0.05)
        assert len(failures) == 1


class TestMain:
    def _write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "baseline.json", _report())
        report = self._write(tmp_path, "report.json", _report())
        assert perf_gate.main([baseline, report]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "baseline.json", _report(batch_enumeration=20.0))
        report = self._write(tmp_path, "report.json", _report(batch_enumeration=5.0))
        assert perf_gate.main([baseline, report]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_flag(self, tmp_path):
        baseline = self._write(tmp_path, "baseline.json", _report(batch_enumeration=10.0))
        report = self._write(tmp_path, "report.json", _report(batch_enumeration=9.0))
        assert perf_gate.main([baseline, report, "--tolerance", "0.05"]) == 1
        assert perf_gate.main([baseline, report, "--tolerance", "0.20"]) == 0

    def test_committed_baseline_covers_the_harness_table(self):
        """BENCH_PR12.json gates every harness entry, each within tolerance."""
        harness = _load("perf_harness", "benchmarks", "perf_harness.py")
        with open(os.path.join(ROOT, "BENCH_PR12.json")) as handle:
            baseline = json.load(handle)
        names = [entry.name for entry in harness.table()]
        assert list(baseline["entries"]) == names
        for name, entry in baseline["entries"].items():
            assert entry["speedup"] > 1.0, name
            assert entry["spread"] <= perf_gate.TOLERANCE, name
