"""The live operational plane wired through the streaming service.

What must hold with the record stream on: shard health tracks the
supervisor's attempts (respawn events land in the stream, terminal
failure shows ``dead``); SLO verdicts surface in the report; the metric
fold counts every window exactly once across a crash-respawn (a worker
killed after its job but before ``child_flush`` contributes nothing);
the streamed output stays bit-identical to the offline pipeline with
the stream on; and the root's writes stay within the flush policy's
bound.  Measured cost on the inline micro replay (~16–30 ms): 1.18×
median stream-on/plain (IQR 1.12–1.22×, 10 interleaved pairs of
min-of-7 replays, 2-core box), against 1.24× for the four sinks the
stream replaced; the timing test below only catches gross slowdowns.
"""

from __future__ import annotations

import math
import os
import time

import pytest

import repro.obs as obs
from repro.obs import stream
from repro.obs.fold import fold, read_records
from repro.resilience.faults import CrashOnce, payload_key
from repro.serve.errors import ServeError
from repro.serve.service import StreamService
from repro.serve.slo import SloPolicy
from repro.testing.stream import (
    assert_stream_matches_offline,
    fleet_record_schedule,
    offline_windows,
    replay,
)

INTERVAL = 25
WINDOW_INTERVALS = 4


def _events(path):
    return [r for r in read_records(path) if r["ph"] == "i"]


class _CrashAfterJob:
    """Run the shard job to completion, then kill the worker on each
    payload's first attempt — after the job counted its windows but
    before the attempt reached ``child_flush``."""

    def __init__(self, job, state_dir):
        self.job = job
        self.state_dir = state_dir

    def __call__(self, payload):
        result = self.job(payload)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        try:
            with open(self.state_dir / payload_key(payload), "x"):
                pass
        except FileExistsError:
            return result
        os._exit(9)


@pytest.fixture(autouse=True)
def reset_obs():
    """Every test here leaves observability disabled, pass or fail."""
    yield
    obs.finish()


def _service(model, serve_config, serve_scaler, **kwargs):
    kwargs.setdefault("batch_windows", 4)
    kwargs.setdefault("queue_capacity", 16)
    kwargs.setdefault("shards", 2)
    return StreamService(
        model, serve_config, serve_scaler, INTERVAL, WINDOW_INTERVALS, **kwargs
    )


class TestShardHealth:
    def test_clean_inline_run_reports_all_live(
        self, model_f64, serve_config, serve_scaler, fleet_traces
    ):
        service = _service(model_f64, serve_config, serve_scaler)
        records = fleet_record_schedule(fleet_traces, INTERVAL)
        _, report = replay(service, records)
        assert report.shard_health == {0: "live", 1: "live"}
        assert "shard health        0:live 1:live" in report.render()
        # No SLO configured: the report stays inert and renders no line.
        assert not report.slo_active
        assert "slo" not in report.render()

    def test_crash_respawn_heartbeats_and_events(
        self, tmp_path, model_f64, serve_config, serve_scaler, fleet_traces
    ):
        obs.configure(trace=tmp_path / "stream.jsonl")
        service = _service(
            model_f64,
            serve_config,
            serve_scaler,
            supervised=True,
            job_wrapper=lambda job: CrashOnce(
                job, tmp_path / "faults", selector=lambda payload: payload[0] == 0
            ),
        )
        records = fleet_record_schedule(fleet_traces, INTERVAL)
        _, report = replay(service, records)
        obs.finish()

        assert report.respawns >= 1
        # The respawned shards completed their retries: live at the end.
        assert set(report.shard_health.values()) == {"live"}
        events = _events(tmp_path / "stream.jsonl")
        kinds = [e["name"] for e in events]
        assert kinds[0] == "service_started"
        assert kinds[-1] == "service_drained"
        assert kinds.count("respawn") == report.respawns
        respawn = next(e for e in events if e["name"] == "respawn")
        assert respawn["args"]["outcome"] == "crash"
        assert respawn["args"]["shard"] in (0, 1)

    def test_terminal_shard_failure_is_dead_on_the_board(
        self, model_f64, serve_config, serve_scaler, fleet_traces
    ):
        def poisoned(job):
            def always_fails(payload):
                raise RuntimeError("injected permanent shard failure")

            return always_fails

        service = _service(
            model_f64,
            serve_config,
            serve_scaler,
            supervised=True,
            max_attempts=1,
            job_wrapper=poisoned,
        )
        records = fleet_record_schedule(fleet_traces, INTERVAL)
        with pytest.raises(ServeError):
            replay(service, records)
        assert "dead" in service.health.states().values()


class TestCrashAwareMetricsMerge:
    def test_window_counts_merge_exactly_once_across_a_crash(
        self, tmp_path, model_f64, serve_config, serve_scaler, fleet_traces
    ):
        """Supervised shards count windows in their own process.  Every
        payload's first attempt runs the whole job — counting its windows
        — and then dies before ``child_flush``; that count must die with
        the worker, so the folded total equals the emitted windows."""
        path = tmp_path / "stream.jsonl"
        obs.configure(trace=path)
        service = _service(
            model_f64,
            serve_config,
            serve_scaler,
            supervised=True,
            job_wrapper=lambda job: _CrashAfterJob(job, tmp_path / "faults"),
        )
        records = fleet_record_schedule(fleet_traces, INTERVAL)
        _, report = replay(service, records)
        obs.finish()

        crashed = len(list((tmp_path / "faults").iterdir()))
        assert report.respawns == crashed >= 1, "the injected crash never fired"
        folded = fold(path)["metrics"]
        assert folded["serve.shard.windows"]["value"] == report.windows
        assert folded["serve.respawns"]["value"] == report.respawns
        # The parent's own counters folded alongside the children's.
        assert folded["serve.records"]["value"] == report.records
        assert {p.name for p in tmp_path.iterdir()} == {"stream.jsonl", "faults"}


class TestSlo:
    def test_breached_slo_surfaces_in_the_report(
        self, model_f64, serve_config, serve_scaler, fleet_traces
    ):
        service = _service(
            model_f64,
            serve_config,
            serve_scaler,
            slo=SloPolicy(p99_latency_seconds=1e-9, sustain=1),
        )
        records = fleet_record_schedule(fleet_traces, INTERVAL)
        _, report = replay(service, records)
        assert report.slo_active
        assert report.slo_breach_events >= 1
        assert report.slo_sustained
        assert "slo                 sustained breach" in report.render()

    def test_satisfied_slo_renders_ok(
        self, model_f64, serve_config, serve_scaler, fleet_traces
    ):
        service = _service(
            model_f64,
            serve_config,
            serve_scaler,
            slo=SloPolicy(p99_latency_seconds=3600.0),
        )
        records = fleet_record_schedule(fleet_traces, INTERVAL)
        _, report = replay(service, records)
        assert report.slo_active and not report.slo_sustained
        assert report.slo_breach_events == 0
        assert "slo                 ok · breach events 0" in report.render()

    def test_inactive_policy_constructs_no_tracker(
        self, model_f64, serve_config, serve_scaler
    ):
        service = _service(
            model_f64, serve_config, serve_scaler, slo=SloPolicy()
        )
        assert service._slo is None


class TestParityAndOverhead:
    def test_stream_parity_is_bit_identical_with_live_plane_on(
        self, tmp_path, model_f64, serve_config, serve_scaler, fleet_traces
    ):
        path = tmp_path / "stream.jsonl"
        obs.configure(trace=path)
        service = _service(
            model_f64,
            serve_config,
            serve_scaler,
            slo=SloPolicy(p99_latency_seconds=3600.0),
        )
        records = fleet_record_schedule(fleet_traces, INTERVAL)
        streamed, report = replay(service, records)
        obs.finish()

        offline = offline_windows(
            model_f64, fleet_traces, INTERVAL, WINDOW_INTERVALS, serve_scaler
        )
        assert set(streamed) == set(offline)
        assert_stream_matches_offline(streamed, offline, exact=True)
        # The stream carries the service's live sections.
        sections = fold(path)["sections"]
        assert sections["serve"]["windows"] == report.windows
        assert set(sections["health"]) == {"0", "1"}
        assert sections["slo"]["evaluations"] >= 1

    def test_live_plane_overhead_under_5_percent(
        self, tmp_path, model_f64, serve_config, serve_scaler, fleet_traces
    ):
        records = fleet_record_schedule(fleet_traces, INTERVAL)

        def run_replay():
            service = _service(model_f64, serve_config, serve_scaler)
            start = time.perf_counter()
            replay(service, records)
            return time.perf_counter() - start

        def best_of(k):
            return min(run_replay() for _ in range(k))

        plain = best_of(3)
        obs.configure(trace=tmp_path / "stream.jsonl")
        live = best_of(3)
        obs.finish()
        # 5% relative plus a 50 ms absolute floor against timer noise.  The
        # replay itself takes ~16 ms, so the floor dominates: this catches
        # only gross slowdowns (the write-count test pins the flush policy).
        assert live <= plain * 1.05 + 0.05, (plain, live)

    def test_root_writes_are_bounded_by_the_flush_policy(
        self, tmp_path, stream_writes, model_f64, serve_config, serve_scaler, fleet_traces
    ):
        path = tmp_path / "stream.jsonl"
        obs.configure(trace=path)
        # One window per dispatch: many dispatches, each with its spans,
        # metric updates and live sections.
        service = _service(model_f64, serve_config, serve_scaler, batch_windows=1)
        records = fleet_record_schedule(fleet_traces, INTERVAL)
        start = time.monotonic()
        # One top-level span around the replay: every dispatch's spans
        # nest inside it, so none of them is a flush point.
        with obs.span("test.replay"):
            _, report = replay(service, records)
        obs.finish()
        elapsed = time.monotonic() - start

        written = read_records(path)
        events = sum(1 for r in written if r["ph"] == "i")
        bound = (
            events
            + 1  # the one top-level span
            + math.ceil(len(written) / stream.FLUSH_EVERY)
            + math.ceil(elapsed / stream.FLUSH_PERIOD)
            + 2
        )
        assert report.dispatches > bound, "replay too small to tell per-dispatch flushing"
        assert len(stream_writes) <= bound, (len(stream_writes), bound, report.dispatches)
