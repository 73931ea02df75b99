"""Tests for the trace store: schema, capture, replay, and corpus.

The determinism contract under test: a recording replays bit-identically
(same bus string, same events, same verdict) on a fresh engine built
purely from the manifest — and a deliberate controller tweak surfaces as
a structured diff, never as silent acceptance.
"""

import os

import pytest

from repro.can.bits import DOMINANT
from repro.can.controller import CanController
from repro.can.controller_config import ControllerConfig
from repro.can.fields import EOF
from repro.can.frame import data_frame
from repro.errors import TraceError, TraceStoreError
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.tracestore import (
    GOLDEN_BUILDERS,
    Replayer,
    ScenarioSpec,
    check_corpus,
    corpus_entries,
    diff_traces,
    load_trace,
    record_outcome,
    replay_trace,
    spec_from_outcome,
    update_corpus,
)
from repro.tracestore.recorder import outcome_records, records_to_text
from repro.tracestore.replay import recorded_from_outcome
from repro.tracestore.schema import SCHEMA_VERSION, require_valid, validate_records

from helpers import run_one_frame

FRAME = data_frame(0x123, b"\x55", message_id="m")
CORPUS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "corpus"
)


def _fig1b_outcome(record_bits=True):
    from repro.faults.scenarios import run_single_frame_scenario

    nodes = [CanController(name) for name in ("tx", "x", "y")]
    injector = ScriptedInjector(
        view_faults=[ViewFault("x", Trigger(field=EOF, index=5), force=DOMINANT)]
    )
    return run_single_frame_scenario(
        "test", nodes, injector, frame=FRAME, record_bits=record_bits
    )


class TestSchemaValidation:
    def _records(self):
        return list(outcome_records(_fig1b_outcome()))

    def test_full_recording_validates(self):
        assert validate_records(self._records()) == []

    def test_manifest_must_come_first(self):
        records = self._records()
        records.append(records.pop(0))
        assert validate_records(records)

    def test_exactly_one_verdict(self):
        records = self._records()
        errors = validate_records(records[:-1])
        assert any("verdict" in error for error in errors)

    def test_bit_times_strictly_increasing(self):
        records = self._records()
        bits = [record for record in records if record["type"] == "bit"]
        bits[5]["t"] = bits[4]["t"]
        assert any("increas" in error for error in validate_records(records))

    def test_bus_levels_restricted_to_symbols(self):
        records = self._records()
        bus = next(record for record in records if record["type"] == "bus")
        bus["levels"] = bus["levels"][:-1] + "x"
        assert validate_records(records)

    def test_require_valid_raises(self):
        with pytest.raises(TraceStoreError):
            require_valid([{"type": "verdict"}], "unit-test")

    def test_schema_version_pinned_in_manifest(self):
        manifest = self._records()[0]
        assert manifest["version"] == SCHEMA_VERSION


class TestRecordRoundTrip:
    def test_record_then_load(self, tmp_path):
        outcome = _fig1b_outcome()
        path = record_outcome(str(tmp_path / "fig1b.jsonl"), outcome)
        recorded = load_trace(path)
        assert recorded.name == "test"
        assert recorded.manifest["engine"]["record_bits"] is True
        assert recorded.bus == "".join(
            level.symbol for level in outcome.engine.bus.history
        )
        assert len(recorded.bits) == len(outcome.trace.bits)
        assert len(recorded.events) == len(outcome.trace.events)
        assert recorded.verdict["double_reception"] is True

    def test_fast_path_run_records_without_bit_lines(self, tmp_path):
        outcome = _fig1b_outcome(record_bits=False)
        path = record_outcome(str(tmp_path / "fast.jsonl"), outcome)
        recorded = load_trace(path)
        assert recorded.bits == []
        assert recorded.manifest["engine"]["record_bits"] is False
        assert len(recorded.bus) == outcome.engine.time

    def test_recording_is_deterministic(self, tmp_path):
        first = record_outcome(str(tmp_path / "a.jsonl"), _fig1b_outcome())
        second = record_outcome(str(tmp_path / "b.jsonl"), _fig1b_outcome())
        with open(first) as fa, open(second) as fb:
            assert fa.read() == fb.read()

    def test_spec_round_trips_through_manifest(self):
        spec = spec_from_outcome(_fig1b_outcome())
        rebuilt = ScenarioSpec.from_manifest(spec.to_manifest())
        assert rebuilt == spec

    def test_unserializable_injector_rejected(self):
        from repro.faults.injector import FaultInjector

        nodes = [CanController(name) for name in ("tx", "x")]
        outcome = run_one_frame(nodes, FRAME, FaultInjector())
        with pytest.raises(TraceStoreError):
            spec_from_outcome(outcome)


class TestReplay:
    def test_replay_is_bit_identical(self, tmp_path):
        path = record_outcome(str(tmp_path / "fig1b.jsonl"), _fig1b_outcome())
        result = replay_trace(path)
        assert result.bit_identical
        assert result.diff.identical

    def test_replay_fast_path_recording(self, tmp_path):
        outcome = _fig1b_outcome(record_bits=False)
        path = record_outcome(str(tmp_path / "fast.jsonl"), outcome)
        assert replay_trace(path).bit_identical

    def test_replayer_accepts_recorded_trace(self):
        outcome = _fig1b_outcome()
        recorded = recorded_from_outcome(outcome)
        result = Replayer(recorded).replay()
        assert result.bit_identical

    def test_controller_tweak_caught_as_diff(self, tmp_path, monkeypatch):
        """A deliberate behaviour change (longer EOF field) must show up
        as a structured bus/verdict diff on replay."""
        from repro.faults import scenarios

        path = record_outcome(str(tmp_path / "fig1b.jsonl"), _fig1b_outcome())
        original = scenarios.make_controller

        def tweaked(protocol, name, m=5, config=None):
            if protocol == "can" and config is None:
                config = ControllerConfig(eof_length=8)
            return original(protocol, name, m=m, config=config)

        monkeypatch.setattr(scenarios, "make_controller", tweaked)
        result = replay_trace(path)
        assert not result.bit_identical
        assert result.diff.bus
        assert "bus" in result.diff.summary()

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = record_outcome(str(tmp_path / "fig1b.jsonl"), _fig1b_outcome())
        recorded = load_trace(path)
        recorded.manifest["version"] = 99
        with pytest.raises(TraceStoreError):
            recorded.spec()


class TestDiff:
    def test_identical_traces_have_empty_diff(self):
        outcome = _fig1b_outcome()
        recorded = recorded_from_outcome(outcome)
        diff = diff_traces(recorded, recorded)
        assert diff.identical
        assert diff.problems() == []

    def test_bus_divergence_reports_position_and_context(self):
        outcome = _fig1b_outcome()
        expected = recorded_from_outcome(outcome)
        actual = recorded_from_outcome(outcome)
        levels = actual.bus
        actual.bus = levels[:40] + ("d" if levels[40] == "r" else "r") + levels[41:]
        diff = diff_traces(expected, actual)
        assert not diff.identical
        assert any("bit 40" in line for line in diff.bus)

    def test_verdict_divergence_reported_by_key(self):
        outcome = _fig1b_outcome()
        expected = recorded_from_outcome(outcome)
        actual = recorded_from_outcome(outcome)
        actual.verdict["double_reception"] = False
        diff = diff_traces(expected, actual)
        assert not diff.identical
        assert any("double_reception" in line for line in diff.verdict)


class TestCheckedInCorpus:
    """The repo's own golden corpus is complete, valid, and replayable."""

    def test_every_golden_entry_is_checked_in(self):
        present = {
            name
            for name in os.listdir(CORPUS_DIR)
            if name.endswith(".jsonl")
        }
        assert {name + ".jsonl" for name in corpus_entries()} <= present

    def test_core_figures_covered_for_all_protocols(self):
        names = set(corpus_entries())
        assert {"fig1b-can", "fig1b-minorcan", "fig1b-majorcan"} <= names
        assert {"fig1c-can", "fig1c-minorcan", "fig1c-majorcan"} <= names
        assert {"fig3a-can", "fig3b-minorcan", "fig3-majorcan"} <= names

    def test_checked_in_files_validate_against_schema(self):
        for name in corpus_entries():
            recorded = load_trace(os.path.join(CORPUS_DIR, name + ".jsonl"))
            assert recorded.manifest["meta"]["entry"] == name

    def test_corpus_check_passes_and_is_jobs_invariant(self):
        serial = check_corpus(CORPUS_DIR, jobs=1)
        parallel = check_corpus(CORPUS_DIR, jobs=2)
        assert serial.ok, serial.summary()
        assert serial.results == parallel.results

    def test_missing_golden_entry_is_a_failure(self, tmp_path):
        update_corpus(str(tmp_path), names=["fig1b-can"])
        report = check_corpus(str(tmp_path), jobs=1)
        assert not report.ok
        missing = {result.entry for result in report.failures}
        assert "fig1c-majorcan" in missing

    def test_update_rejects_unknown_entry(self, tmp_path):
        with pytest.raises(TraceStoreError):
            update_corpus(str(tmp_path), names=["not-a-scenario"])

    def test_corrupted_entry_fails_check(self, tmp_path):
        update_corpus(str(tmp_path), names=["fig1b-can"])
        path = os.path.join(str(tmp_path), "fig1b-can.jsonl")
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:-1])  # drop the verdict line
        report = check_corpus(str(tmp_path), jobs=1, require_golden=False)
        assert not report.ok
        assert report.failures[0].entry == "fig1b-can"

    def test_golden_builders_reproduce_their_recordings(self):
        """Spot-check: re-running a builder gives the recorded wire."""
        outcome = GOLDEN_BUILDERS["fig1b-can"]()
        recorded = load_trace(os.path.join(CORPUS_DIR, "fig1b-can.jsonl"))
        assert recorded.bus == "".join(
            level.symbol for level in outcome.engine.bus.history
        )


class TestTraceSortedPrecondition:
    def test_add_events_rejects_unsorted_trace(self):
        from repro.simulation.trace import Event, Trace

        trace = Trace()
        trace.events = [
            Event(time=5, node="a", kind="k", data={}),
            Event(time=3, node="a", kind="k", data={}),
        ]
        with pytest.raises(TraceError):
            trace.add_events([Event(time=1, node="b", kind="k", data={})])


class TestSharedJsonlHelpers:
    def test_json_line_is_deterministic(self):
        from repro.metrics.export import json_line

        assert json_line({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_write_then_read_round_trip(self, tmp_path):
        from repro.metrics.export import read_jsonl, write_jsonl

        path = str(tmp_path / "records.jsonl")
        records = [{"a": 1}, {"b": [1, 2]}]
        assert write_jsonl(path, records) == 2
        assert read_jsonl(path) == records

    def test_read_rejects_garbage_lines(self, tmp_path):
        from repro.errors import ReproError
        from repro.metrics.export import read_jsonl

        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok":1}\nnot json\n')
        with pytest.raises(ReproError):
            read_jsonl(str(path))

    @pytest.mark.parametrize(
        "line_number, bad_line", [(1, "42"), (3, "[1, 2]")], ids=["first", "later"]
    )
    def test_replay_of_a_non_object_line_names_the_line(
        self, tmp_path, line_number, bad_line
    ):
        from repro.cli import main
        from repro.errors import ReproError

        outcome = _fig1b_outcome()
        lines = records_to_text(
            outcome_records(outcome, spec=spec_from_outcome(outcome))
        ).splitlines()
        lines[line_number - 1] = bad_line
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        message = "line %d is not a JSON object" % line_number
        with pytest.raises(ReproError, match=message):
            main(["replay", str(path)])

    def test_records_to_text_matches_file_output(self, tmp_path):
        outcome = _fig1b_outcome()
        spec = spec_from_outcome(outcome)
        text = records_to_text(outcome_records(outcome, spec=spec))
        path = record_outcome(str(tmp_path / "t.jsonl"), outcome, spec=spec)
        with open(path) as handle:
            assert handle.read() == text
