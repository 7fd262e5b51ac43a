"""Operational events: closed vocabulary, schema-pinned wire format.

Three load-bearing properties: every emitted event record validates
against the checked-in ``tests/corpus/obs_trace.schema.json`` (the one
schema for every record kind); the schema's ``i``-phase ``name`` enum is
a literal mirror of :data:`repro.obs.stream.EVENT_KINDS` (extending one
without the other fails here, not in production); and forked children
append their events to the same stream at ``child_flush``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

import repro.obs as obs
from repro.obs.fold import read_records
from repro.obs.stream import EVENT_KINDS

SCHEMA = Path(__file__).resolve().parents[1] / "corpus" / "obs_trace.schema.json"


def _events(path):
    return [r for r in read_records(path) if r["ph"] == "i"]


def _emit_in_child(kind, **args):
    obs.event(kind, **args)
    obs.child_flush()


class TestEmit:
    def test_emitted_lines_validate_against_checked_in_schema(self, tmp_path):
        from repro.obs.schema import validate_trace

        log = tmp_path / "events.jsonl"
        obs.configure(trace=log)
        obs.event("service_started", shards=2, supervised=True)
        obs.event("respawn", shard=1, outcome="crash", attempt=1)
        obs.event("slo_breach", objective="p99_latency_seconds", value=0.2, bound=0.1)
        obs.finish()

        events = _events(log)
        assert [e["name"] for e in events] == [
            "service_started", "respawn", "slo_breach",
        ]
        assert all(e["s"] == "p" and e["ts"] > 0 for e in events)
        assert events[1]["args"] == {"shard": 1, "outcome": "crash", "attempt": 1}
        assert validate_trace(log, SCHEMA) == []

    def test_unknown_kind_raises_even_when_enabled(self, tmp_path):
        log = tmp_path / "events.jsonl"
        obs.configure(trace=log)
        with pytest.raises(ValueError, match="unknown event kind"):
            obs.event("not_a_kind", x=1)
        obs.finish()
        # The mistyped emit wrote nothing.
        assert _events(log) == []

    def test_disabled_emit_creates_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert not obs.enabled()
        obs.event("backpressure", switch="sw0", queue=7)
        assert list(tmp_path.iterdir()) == []

    def test_forked_children_append_to_the_same_file(self, tmp_path):
        log = tmp_path / "events.jsonl"
        obs.configure(trace=log)
        obs.event("service_started", shards=1, supervised=False)

        ctx = multiprocessing.get_context("fork")
        worker = ctx.Process(
            target=_emit_in_child, args=("checkpoint_saved",), kwargs={"path": "x.npz"}
        )
        worker.start()
        worker.join()
        assert worker.exitcode == 0
        obs.event("service_drained", records=0, windows=0)
        obs.finish()

        events = _events(log)
        assert [e["name"] for e in events] == [
            "service_started", "checkpoint_saved", "service_drained",
        ]
        assert events[1]["pid"] == worker.pid != os.getpid()

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        log = tmp_path / "events.jsonl"
        obs.configure(trace=log)
        obs.event("gap_skipped", switch="sw1", intervals=2)
        obs.finish()
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"name": "respawn", "ph": "i", "ts"')  # killed writer
        events = _events(log)
        assert len(events) == 1 and events[0]["name"] == "gap_skipped"


class TestSchemaMirror:
    def test_schema_enum_mirrors_event_kinds_exactly(self):
        document = json.loads(SCHEMA.read_text(encoding="utf-8"))
        enum = document["event"]["phase_properties"]["i"]["name"]["enum"]
        assert tuple(enum) == EVENT_KINDS

    def test_schema_requires_the_full_envelope(self):
        document = json.loads(SCHEMA.read_text(encoding="utf-8"))
        rules = document["event"]
        assert set(rules["required"]) == {"name", "cat", "ph", "pid"}
        assert set(rules["phase_required"]["i"]) == {"ts", "tid", "s", "args"}
        assert set(rules["properties"]["ph"]["enum"]) == {
            "X", "M", "i", "metric", "section",
        }
        assert rules["additionalProperties"] is False

    def test_validator_rejects_out_of_vocabulary_kind(self, tmp_path):
        from repro.obs.schema import validate_trace

        log = tmp_path / "bad.jsonl"
        obs.configure(trace=log)
        obs.event("respawn", shard=0, outcome="crash", attempt=1)
        obs.finish()
        assert validate_trace(log, SCHEMA) == []
        record = {
            "name": "explosion", "cat": "repro", "ph": "i", "s": "p",
            "ts": 1, "pid": 1, "tid": 1, "args": {},
        }
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        errors = validate_trace(log, SCHEMA)
        assert errors, "an unknown kind must fail validation"
        assert any("explosion" in error for error in errors)
