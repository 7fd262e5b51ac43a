"""Span records: Chrome trace event shape, nesting, forks, export, parsing."""

from __future__ import annotations

import json
import os

import pytest

import repro.obs as obs
from repro.obs.fold import export_chrome, read_records


def _x_events(path):
    return [e for e in read_records(path) if e["ph"] == "X"]


def _header(path):
    return [
        e for e in read_records(path)
        if e["ph"] == "M" and e["name"] == "repro_trace_header"
    ]


class TestSpans:
    def test_span_becomes_complete_event(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace=trace)
        with obs.span("unit.work", n=3):
            pass
        obs.finish()
        (event,) = _x_events(trace)
        assert event["name"] == "unit.work"
        assert event["cat"] == "repro"
        assert event["pid"] == os.getpid()
        assert event["dur"] >= 0
        assert event["args"]["n"] == 3

    def test_nested_spans_share_tid_and_overlap(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace=trace)
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        obs.finish()
        events = {e["name"]: e for e in _x_events(trace)}
        outer, inner = events["outer"], events["inner"]
        assert outer["tid"] == inner["tid"]
        # Positional nesting: the inner interval sits inside the outer one.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1

    def test_annotate_and_exception_args(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace=trace)
        with pytest.raises(RuntimeError):
            with obs.span("solve") as span:
                span.annotate(status="sat")
                raise RuntimeError("boom")
        obs.finish()
        (event,) = _x_events(trace)
        assert event["args"]["status"] == "sat"
        assert event["args"]["error"] == "RuntimeError"

    def test_header_carries_configure_and_annotate_fields(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace=trace, header={"command": "test"})
        obs.annotate(config_digest="abc123")
        obs.finish()
        headers = _header(trace)
        assert headers[0]["args"]["command"] == "test"
        assert headers[0]["args"]["schema_version"] == 2
        assert any(h["args"].get("config_digest") == "abc123" for h in headers)

    def test_append_only_across_runs(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        for name in ("first", "second"):
            obs.configure(trace=trace)
            with obs.span(name):
                pass
            obs.finish()
        assert [e["name"] for e in _x_events(trace)] == ["first", "second"]


class TestForkedChildren:
    def test_child_spans_land_under_child_pid(self, tmp_path):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        trace = tmp_path / "t.jsonl"
        obs.configure(trace=trace)
        with obs.span("parent.work"):
            pass
        pid = os.fork()
        if pid == 0:
            try:
                with obs.span("child.work"):
                    pass
                obs.child_flush()
            finally:
                os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        obs.finish()
        events = {e["name"]: e for e in _x_events(trace)}
        assert events["parent.work"]["pid"] == os.getpid()
        assert events["child.work"]["pid"] == pid
        # The child announces itself as a worker process for the viewer.
        worker_meta = [
            e for e in read_records(trace)
            if e["ph"] == "M" and e["name"] == "process_name" and e["pid"] == pid
        ]
        assert worker_meta, "forked child must emit its own process_name"


class TestExportAndParse:
    def test_export_chrome_wraps_trace_events(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace=trace)
        with obs.span("a"):
            obs.counter("a.calls").inc()
            obs.live_section("health", {"0": "live"})
            obs.event("respawn", shard=0, outcome="crash", attempt=1)
        obs.finish()
        out = export_chrome(trace, tmp_path / "t.chrome.json")
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["name"] == "a" for e in doc["traceEvents"])
        # Only Chrome trace events: metric and section records stay out.
        assert {e["ph"] for e in doc["traceEvents"]} == {"X", "M", "i"}

    def test_read_events_rejects_malformed_lines(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name": "ok", "ph": "X"}\nnot json\n{"ph": "X"}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: not valid JSON"):
            read_records(bad)

    def test_malformed_terminated_final_line_is_an_error(self, tmp_path):
        # Only an *unterminated* final line is a torn write; a complete
        # line that does not parse is corruption and names its place.
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name": "ok", "ph": "X"}\n{"name": \n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: not valid JSON"):
            read_records(bad)

    def test_unterminated_final_line_is_dropped(self, tmp_path):
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"name": "ok", "ph": "X"}\n{"name": "cut", "p')
        assert [r["name"] for r in read_records(torn)] == ["ok"]
        # ... unless it parsed: a writer killed right before the newline.
        torn.write_text('{"name": "ok", "ph": "X"}\n{"name": "whole"}')
        assert [r["name"] for r in read_records(torn)] == ["ok", "whole"]
