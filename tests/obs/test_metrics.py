"""Metric records: types, run records, accumulation, forked children."""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

import repro.obs as obs
from repro.obs.fold import fold


def _metrics(path):
    return fold(path)["metrics"]


class TestMetricTypes:
    def test_counter_gauge_histogram_series(self, tmp_path):
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path)
        obs.counter("c").inc()
        obs.counter("c").inc(4)
        obs.gauge("g").set(2.5)
        for value in (1.0, 2.0, 3.0, 4.0):
            obs.histogram("h").observe(value)
        obs.series("s").append(0.9)
        obs.series("s").append(0.5)
        obs.finish()

        metrics = _metrics(path)
        assert metrics["c"] == {"type": "counter", "value": 5}
        assert metrics["g"] == {"type": "gauge", "value": 2.5}
        hist = metrics["h"]
        assert (hist["count"], hist["sum"], hist["min"], hist["max"]) == (4, 10.0, 1.0, 4.0)
        assert hist["quantiles"]["p50"] == pytest.approx(2.5)
        assert metrics["s"] == {"type": "series", "values": [0.9, 0.5]}

    def test_type_conflict_raises(self, tmp_path):
        obs.configure(trace=tmp_path / "s.jsonl")
        obs.counter("x").inc()
        with pytest.raises(TypeError, match="already registered"):
            obs.gauge("x")

    def test_run_header_and_annotate_recorded(self, tmp_path):
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path, header={"command": "test"})
        obs.annotate(config_digest="deadbeef")
        obs.counter("c").inc()
        obs.finish()
        (run,) = fold(path)["runs"]
        assert run == {"command": "test", "config_digest": "deadbeef"}


class TestAccumulation:
    def test_snapshots_at_same_path_accumulate(self, tmp_path):
        path = tmp_path / "s.jsonl"
        for i in range(2):
            obs.configure(trace=path, header={"run": i})
            obs.counter("c").inc(2)
            obs.gauge("g").set(1.0)
            obs.series("s").append(7.0)
            obs.finish()
        metrics = _metrics(path)
        assert metrics["c"]["value"] == 4
        assert metrics["s"]["values"] == [7.0, 7.0]
        assert [run["run"] for run in fold(path)["runs"]] == [0, 1]

    def test_merge_histograms_requantiles(self, tmp_path):
        # Observations flushed in two separate records fold into one
        # distribution, re-quantiled over all of them.
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path)
        for value in (1.0, 2.0):
            obs.histogram("h").observe(value)
        obs.child_flush()
        for value in (3.0, 4.0):
            obs.histogram("h").observe(value)
        obs.finish()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
            if '"ph":"metric"' in line
        ]
        assert [r["values"] for r in records] == [[1.0, 2.0], [3.0, 4.0]]
        merged = _metrics(path)["h"]
        assert merged["count"] == 4
        assert merged["min"] == 1.0 and merged["max"] == 4.0
        assert merged["quantiles"]["p50"] == pytest.approx(2.5)

    def test_histogram_quantiles_are_exact_over_every_observation(self, tmp_path):
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path)
        h = obs.histogram("h")
        for i in range(10_000):
            h.observe(float(i))
        obs.finish()
        hist = _metrics(path)["h"]
        assert hist["count"] == 10_000
        assert hist["max"] == 9999.0
        assert hist["quantiles"]["p50"] == pytest.approx(4999.5)
        assert hist["quantiles"]["p99"] == pytest.approx(9899.01)


class TestThreads:
    def test_concurrent_updates_are_not_lost(self, tmp_path):
        # More threads than cores and a short switch interval: a lost
        # read-modify-write on the pending buffer would show in the fold.
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work():
                for i in range(2000):
                    obs.counter("hits").inc()
                    obs.histogram("h").observe(i)
                    if i % 100 == 0:
                        with obs.span("tick"):
                            pass

            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        obs.finish()
        metrics = _metrics(path)
        assert metrics["hits"]["value"] == 16_000
        assert metrics["h"]["count"] == 16_000


class TestForkedChildren:
    def test_child_metrics_fold_with_the_root(self, tmp_path):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path)
        obs.counter("jobs").inc(3)
        pid = os.fork()
        if pid == 0:
            try:
                obs.counter("jobs").inc(5)
                obs.child_flush()
            finally:
                os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        obs.finish()
        assert _metrics(path)["jobs"]["value"] == 8
        assert {p.name for p in tmp_path.iterdir()} == {"s.jsonl"}

    def test_repeated_child_flush_does_not_double_count(self, tmp_path):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path)
        pid = os.fork()
        if pid == 0:
            try:
                obs.counter("jobs").inc(2)
                obs.child_flush()
                obs.child_flush()  # the second flush carries nothing new
                obs.counter("jobs").inc(1)
                obs.child_flush()
            finally:
                os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        obs.finish()
        assert _metrics(path)["jobs"]["value"] == 3

    def test_torn_part_line_is_dropped(self, tmp_path):
        # A child killed mid-write leaves a partial final line: the fold
        # drops it and keeps every complete record.
        path = tmp_path / "s.jsonl"
        obs.configure(trace=path)
        obs.counter("jobs").inc(1)
        obs.finish()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ph":"metric","name":"jobs","type":"counter","val')
        assert _metrics(path)["jobs"]["value"] == 1
