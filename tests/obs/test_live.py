"""Live status on the record stream: sections, flush policy, ``top``.

Guarantees under test: sections and metrics published mid-run reach the
stream while the run is in flight, and the fold keeps the last section
per name; the root's flushes are gated by the record count, span
boundaries, events and the flush period — never by metric calls; a
forked child writes nothing until ``child_flush``; a run leaves exactly
one file behind; and ``repro obs top`` renders a fold of that file.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.obs as obs
from repro.obs.fold import fold
from repro.obs.summary import render_status


def _lines(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


class TestExporter:
    def test_flushes_append_jsonl_and_replace_latest(self, tmp_path):
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path, header={"exp": "t"})
        obs.counter("live.test").inc(3)
        obs.live_section("health", {"0": "starting"})
        obs.live_section("health", {"0": "live"})
        # An event flushes: the section is on disk while the run is open.
        obs.event("service_started", shards=1, supervised=False)
        mid = [r for r in _lines(path) if r["ph"] == "section"]
        assert [r["args"] for r in mid] == [{"0": "live"}]
        obs.live_section("health", {"0": "dead"})
        obs.finish()

        view = fold(path)
        assert view["runs"] == [{"exp": "t"}]
        assert view["sections"]["health"] == {"0": "dead"}
        assert view["metrics"]["live.test"] == {"type": "counter", "value": 3}

    def test_status_only_run_leaves_only_status_files(self, tmp_path):
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path)
        obs.counter("ephemeral").inc()
        obs.live_section("health", {"0": "live"})
        obs.finish()
        # One stream, no sidecars, no tmp files.
        assert {p.name for p in tmp_path.iterdir()} == {"s.jsonl"}

    def test_interval_gates_intermediate_flushes(self, tmp_path, stream_writes):
        writes = stream_writes
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path)
        with obs.span("outer"):
            for i in range(200):
                obs.counter("calls").inc()
                obs.live_section("health", {"i": i})
                with obs.span("inner"):
                    pass
        # Nested spans, sections and metric calls alone never flush inside
        # the flush period; the top-level span end does, once.
        assert len(writes) == 1
        obs.counter("calls").inc()
        obs.finish()
        assert len(writes) == 2
        assert fold(path)["sections"]["health"] == {"i": 199}
        assert fold(path)["metrics"]["calls"]["value"] == 201

    def test_annotate_reaches_subsequent_snapshots(self, tmp_path):
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path, header={"a": 1})
        obs.annotate(config_digest="abc123")
        obs.finish()
        (run,) = fold(path)["runs"]
        assert run == {"a": 1, "config_digest": "abc123"}
        assert "config_digest=abc123" in render_status(fold(path))

    def test_child_process_never_writes(self, tmp_path):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path)
        pid = os.fork()
        if pid == 0:
            # Spans, events, sections and metrics, then a crash before
            # child_flush: nothing of this attempt may reach the stream.
            with obs.span("child.work"):
                obs.counter("child.windows").inc(4)
            obs.event("respawn", shard=0, outcome="crash", attempt=1)
            obs.live_section("health", {"0": "child"})
            os._exit(9)
        os.waitpid(pid, 0)
        obs.finish()
        assert all(r["pid"] != pid for r in _lines(path))
        assert "child.windows" not in fold(path)["metrics"]

    def test_child_records_fold_alongside_the_root(self, tmp_path):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path)
        obs.counter("merged.counter").inc(2)
        pid = os.fork()
        if pid == 0:
            try:
                obs.counter("merged.counter").inc(5)
                obs.child_flush()
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        obs.child_flush()
        # Folding only reads: the same view twice mid-run, and the child's
        # records stay in the stream for the final view.
        assert fold(path) == fold(path)
        assert fold(path)["metrics"]["merged.counter"]["value"] == 7
        obs.finish()
        assert fold(path)["metrics"]["merged.counter"]["value"] == 7
        assert set(fold(path)["pids"]) == {os.getpid(), pid}


class TestReadersAndTop:
    def test_load_latest_missing_and_malformed(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with pytest.raises(FileNotFoundError):
            fold(path)
        path.write_text('[1, 2]\n{"ph": "X"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"s\.jsonl:1: record is not an object"):
            fold(path)

    def test_render_status_frame(self, tmp_path):
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path, header={"exp": "serve"})
        obs.counter("serve.windows").inc(18)
        obs.live_section("health", {"0": {"state": "live", "beats": 4}})
        obs.finish()
        frame = render_status(fold(path))
        assert frame.splitlines()[0] == "repro live status"
        assert "exp=serve" in frame
        assert "[health]" in frame and "state=live" in frame
        assert "[metrics]" in frame and "serve.windows" in frame

    def test_top_once_renders_and_exits_zero(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "s.jsonl"
        obs.configure(trace=path)
        obs.finish()
        assert main(["top", "--trace", str(path), "--once"]) == 0
        assert "repro live status" in capsys.readouterr().out

    def test_top_once_without_status_exits_two(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        missing = tmp_path / "absent.jsonl"
        assert main(["top", "--trace", str(missing), "--once"]) == 2
        assert "no status yet" in capsys.readouterr().err
