"""serve_fleet: a fleet of paper-scenario switches through ``StreamService``.

The operator path.  Set-up simulates the training trace and the fleet,
trains the KAL model exactly as ``repro run serve`` does (``ServeConfig``
defaults on the paper scenario) and builds the record schedules.  The
service then runs with ``ServeConfig`` defaults: CEM on, 2 inline shards,
``batch_windows=8``, under the runner's kernel selection.

The operation is one served window.

* Closed loop: one caller replays the fleet, interval by interval, as
  fast as the service returns.  Each pass uses a fresh service;
  ``ops_per_s`` is the windows of all passes over their summed time
  (capacity).
* Open loop: records are sent on a fixed schedule at
  ``OFFERED_RECORDS_PER_S`` regardless of how the service keeps up.  A
  window's latency runs from the due time of its last record to the
  return of the ``submit``/``drain`` call that emitted it, so waiting
  caused by a stall counts; ``latency_p50_ms`` and ``latency_p99_ms``
  are its percentiles.

Every emitted window is checked outside the timed regions against the
offline pipeline (``assert_stream_matches_offline``) and against C1-C3.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro.imputation.cem as cem
from repro.autodiff.fused import fused_kernels
from repro.autodiff.runtime import large_alloc_reuse
from repro.eval.scenarios import dataset_from_trace, generate_trace, paper_scenario
from repro.eval.table1 import train_transformer
from repro.nn.attention import MultiHeadAttention
from repro.serve.config import ServeConfig
from repro.serve.records import CoarseRecord, ImputedWindow
from repro.serve.runner import fleet_switch_id, table1_config_from
from repro.serve.service import StreamService
from repro.serve.windows import WindowTask
from repro.telemetry.dataset import build_dataset
from repro.testing.oracles import check_cem_exactness
from repro.testing.stream import (
    assert_stream_matches_offline,
    fleet_record_schedule,
    offline_windows,
    replay,
)

from perfbench.common import (
    Outcome,
    clock,
    end_to_end,
    overhead,
    repeated_setup,
    self_time_metrics,
)
from perfbench.tracing import NullTracer, Tracer

#: Simulated fleet switches, and the fine bins each one is simulated for
#: (3 s of the paper scenario: 10 windows per switch and round).
SWITCHES = 6
FLEET_BINS = 3000
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Open-loop offered load: 70 windows/s, about a third of the closed-loop
#: capacity measured when the benchmark was defined (185-250 windows/s on
#: 2 shared CPUs).  At 93 windows/s, p99 spread by 27% over ten runs as
#: the machine's speed drifted; closer to capacity it swings further.
OFFERED_RECORDS_PER_S = 420.0
#: Share of ``--seconds`` for the closed loop; the open loop gets the rest.
CLOSED_SHARE = 0.25
MIN_PASSES = 3
#: Closed-loop pass pairs, one untraced and one traced, of a ``--trace 1`` run.
TRACE_PASSES = 8
#: Growth of the median generator lag from the first half of the open
#: loop to the second that marks the run as over capacity.
BACKLOG_GROWTH_S = 0.020
#: Float32 stream/offline tolerance (float64 models are compared exactly).
PARITY_TOL = 1e-5

_LAYERS = {
    "serve.assemble": "serve.assemble_s",
    "serve.window_sample": "serve.window_sample_s",
    "serve.shard": "serve.shard_s",
    "nn.impute_batch": "nn.impute_batch_s",
    "nn.attention_fwd": "nn.attention_fwd_s",
    "cem.enforce": "cem.enforce_s",
    "serve.replay": "unattributed_s",
}
_SETUP_LAYERS = {
    "setup.simulate": "setup.simulate_s",
    "setup.train": "setup.train_s",
    "telemetry.build_dataset": "telemetry.build_dataset_s",
    "setup": "setup.unattributed_s",
}


@dataclass
class Fleet:
    config: ServeConfig
    model: Any
    traces: dict  # switch id -> SimulationTrace
    closed: list[CoarseRecord]  # the fleet once, interval-major
    open: list[CoarseRecord]  # the fleet round after round, staggered
    backing: dict[str, str]  # open-loop switch id -> simulated switch id
    position: dict[tuple[str, int], int]  # (switch, interval) -> open index

    def service(self, job_wrapper=None) -> StreamService:
        return StreamService.from_config(
            self.model, self.model.scaler, self.config, job_wrapper=job_wrapper
        )


def _setup(seed: int, open_seconds: float, tracer) -> Fleet:
    config = ServeConfig(scenario=paper_scenario(), seed=seed)
    scenario = config.scenario
    fleet_scenario = dataclasses.replace(scenario, duration_bins=FLEET_BINS)
    simulate = tracer.wrap("setup.simulate", generate_trace)
    window = tracer.wrap("telemetry.build_dataset", dataset_from_trace)
    train = tracer.wrap("setup.train", train_transformer)
    with tracer.span("setup"):
        train_set, val_set, _ = window(scenario, simulate(scenario, seed=seed), seed=seed)
        model, _ = train(train_set, val_set, table1_config_from(config), use_kal=True)
        # As the serve runner: seed+0 is the training trace, the fleet
        # starts at seed+1.
        traces = {
            fleet_switch_id(i): simulate(fleet_scenario, seed=seed + i + 1)
            for i in range(SWITCHES)
        }
        closed = fleet_record_schedule(traces, scenario.interval)
        count = math.ceil(open_seconds * OFFERED_RECORDS_PER_S) + SWITCHES
        schedule, backing = _open_schedule(closed, scenario.window_intervals, count)
        position = {(r.switch_id, r.interval_index): k for k, r in enumerate(schedule)}
    return Fleet(config, model, traces, closed, schedule, backing, position)


def _open_schedule(
    closed: list[CoarseRecord], window_intervals: int, count: int
) -> tuple[list[CoarseRecord], dict[str, str]]:
    """At least ``count`` records of the fleet replayed round after round.

    Switch ``c`` of ``C`` starts ``c * window_intervals // C`` intervals
    late, so windows complete spread evenly in time instead of all in the
    same interval.  Each round of a switch runs under a fresh id, so one
    service sees a stream as long as the phase and every window stays
    unique.  Returns the schedule and the id -> simulated switch map.
    """
    streams: dict[str, list[CoarseRecord]] = {}
    for record in closed:
        streams.setdefault(record.switch_id, []).append(record)
    ids = sorted(streams)
    length = len(streams[ids[0]])
    offsets = [c * window_intervals // len(ids) for c in range(len(ids))]
    schedule: list[CoarseRecord] = []
    backing: dict[str, str] = {}
    step = 0
    while len(schedule) < count:
        for switch_id, offset in zip(ids, offsets):
            if step >= offset:
                round_, interval = divmod(step - offset, length)
                replayed = f"{switch_id}-{round_:03d}"
                backing[replayed] = switch_id
                record = streams[switch_id][interval]
                schedule.append(dataclasses.replace(record, switch_id=replayed))
        step += 1
    return schedule, backing


@dataclass
class ClosedLoop:
    check: Callable[[dict], None]  # runs on each pass's windows, untimed
    walls: list[float] = field(default_factory=list)  # seconds per pass
    windows: int = 0
    dispatches: int = 0

    def replay(self, fleet: Fleet, tracer=NullTracer()) -> None:
        """One pass over the fleet, as fast as a fresh service returns.

        The pass's windows are checked and dropped straight after it:
        keeping them slows later passes down.
        """
        service = fleet.service(lambda job: tracer.wrap("serve.shard", job))
        with tracer.installed([(service.assembler, "push", "serve.assemble")]):
            start = clock()
            with tracer.span("serve.replay"):
                emitted, report = replay(service, fleet.closed)
            wall = clock() - start
        self.walls.append(wall)
        self.windows += len(emitted)
        self.dispatches += report.dispatches
        self.check(emitted)

    def run_for(self, fleet: Fleet, seconds: float) -> None:
        """Passes for ``seconds``, and at least ``MIN_PASSES``."""
        deadline = clock() + seconds
        for _ in range(MIN_PASSES):
            self.replay(fleet)
        while clock() < deadline:
            self.replay(fleet)


@dataclass
class OpenLoop:
    keys: set  # emitted window keys
    latencies: list[float]
    lags: np.ndarray  # per record: send time minus due time
    expected: set
    duplicates: int
    rejected: int
    report: Any


def _open_loop(
    fleet: Fleet,
    seconds: float,
    verify: Callable[[ImputedWindow], None],
    waits: list[float] | None = None,
) -> OpenLoop:
    """Send records on the fixed schedule for ``seconds``; time windows from due.

    Emitted windows are verified after the phase.  With ``waits``, each
    window's queue wait (completion to shard start) is appended to it
    through the service's ``job_wrapper`` seam.
    """
    job_wrapper = None
    if waits is not None:

        def job_wrapper(job):
            def queue_wait(payload):
                now = clock()
                waits.extend(now - task.created_at for task in payload[2])
                return job(payload)

            return queue_wait

    service = fleet.service(job_wrapper)
    period = 1.0 / OFFERED_RECORDS_PER_S
    count = min(len(fleet.open), max(1, int(seconds * OFFERED_RECORDS_PER_S)))
    span = fleet.config.scenario.window_intervals
    keys: set = set()
    unverified: list[ImputedWindow] = []
    latencies: list[float] = []
    lags = np.empty(count)
    duplicates = rejected = 0
    origin = clock() + 0.005

    def collect(out, now: float) -> None:
        nonlocal duplicates
        for window in out:
            if window.key in keys:
                duplicates += 1
                continue
            keys.add(window.key)
            unverified.append(window)
            last = (window.switch_id, window.start_interval + span - 1)
            latencies.append(now - (origin + fleet.position[last] * period))

    for k in range(count):
        due = origin + k * period
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        lags[k] = clock() - due
        try:
            out = service.submit(fleet.open[k])
        except ValueError:
            rejected += 1  # its window goes missing and is counted there
            continue
        collect(out, clock())
    collect(service.drain(), clock())
    for window in unverified:
        verify(window)
    expected = {
        (r.switch_id, (r.interval_index + 1) // span - 1)
        for r in fleet.open[:count]
        if (r.interval_index + 1) % span == 0
    }
    return OpenLoop(keys, latencies, lags, expected, duplicates, rejected, service.report())


class _Checker:
    """Offline parity and C1-C3 for emitted windows, outside any timing."""

    def __init__(self, fleet: Fleet, outcome: Outcome):
        model, scenario = fleet.model, fleet.config.scenario
        span = scenario.window_intervals
        self.outcome = outcome
        self.backing = fleet.backing
        self.exact = model.dtype == np.float64
        self.switch_config = scenario.switch_config()
        self.offline = offline_windows(model, fleet.traces, scenario.interval, span, model.scaler)
        self.samples = {
            sid: build_dataset(
                trace, interval=scenario.interval, window_intervals=span,
                stride_intervals=span, scaler=model.scaler,
            ).samples
            for sid, trace in fleet.traces.items()
        }

    def account(self, expected: set, emitted: set, duplicates: int = 0) -> None:
        """Count ``expected`` windows as attempted; fail the missing ones."""
        missing = expected - emitted
        extra = emitted - expected
        self.outcome.attempted += len(expected)
        self.outcome.failed += len(missing) + duplicates
        if missing or duplicates or extra:
            self.outcome.problem(
                f"{len(missing)} missing, {duplicates} duplicate, "
                f"{len(extra)} unexpected windows"
            )

    def verify(self, window: ImputedWindow) -> None:
        """Offline parity and C1-C3 of one window of the fleet or a replay of it."""
        trace_id = self.backing.get(window.switch_id, window.switch_id)
        key = (trace_id, window.window_index)
        try:
            assert_stream_matches_offline(
                {key: window}, self.offline,
                exact=self.exact, rtol=PARITY_TOL, atol=PARITY_TOL,
            )
            check_cem_exactness(window.values, self.samples[trace_id][key[1]], self.switch_config)
        except AssertionError as error:  # OracleViolation is one too
            self.outcome.failed += 1
            self.outcome.problem(f"window {window.key}: {error}")

    def check_pass(self, emitted: dict) -> None:
        """Account for and verify one closed-loop pass."""
        self.account(set(self.offline), set(emitted))
        for window in emitted.values():
            self.verify(window)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    closed_s = CLOSED_SHARE * seconds
    open_s = seconds - closed_s
    setup_tracer = Tracer() if trace else NullTracer()
    tracer = Tracer()
    waits: list[float] = []
    with contextlib.ExitStack() as stack:
        # The serve runner's kernel selection, for training and serving.
        stack.enter_context(fused_kernels(True))
        stack.enter_context(large_alloc_reuse())
        fleet, setup_s = repeated_setup(
            lambda: _setup(seed, open_s, setup_tracer), SETUP_REPEATS
        )
        checker = _Checker(fleet, outcome)
        closed = ClosedLoop(checker.check_pass)
        untraced = ClosedLoop(checker.check_pass)
        if trace:
            # Untraced and traced passes alternate, so both sample the
            # same stretch of the run.
            layers = [
                (WindowTask, "sample", "serve.window_sample"),
                (fleet.model, "impute_batch", "nn.impute_batch"),
                (MultiHeadAttention, "forward", "nn.attention_fwd"),
                (cem.ConstraintEnforcer, "enforce", "cem.enforce"),
            ]
            for _ in range(TRACE_PASSES):
                untraced.replay(fleet)
                with tracer.installed(layers):
                    closed.replay(fleet, tracer)
            opened = _open_loop(fleet, open_s, checker.verify, waits)
        else:
            # Closed-loop passes before and after the open loop, so the
            # capacity figure samples both ends of the run.
            closed.run_for(fleet, closed_s / 2)
            opened = _open_loop(fleet, open_s, checker.verify)
            closed.run_for(fleet, closed_s / 2)
    checker.account(opened.expected, opened.keys, opened.duplicates)

    if opened.rejected:
        outcome.problem(f"open loop: {opened.rejected} records rejected")
    half = len(opened.lags) // 2
    first, second = np.median(opened.lags[:half]), np.median(opened.lags[half:])
    if second - first > BACKLOG_GROWTH_S:
        outcome.problem(
            f"open loop over capacity: median generator lag grew from "
            f"{first * 1e3:.1f} ms to {second * 1e3:.1f} ms at "
            f"{OFFERED_RECORDS_PER_S:g} records/s"
        )
    latency_ms = np.asarray(opened.latencies) * 1e3
    outcome.notes.update(
        offered_records_per_s=OFFERED_RECORDS_PER_S,
        closed_passes=len(closed.walls),
        open_windows=len(opened.latencies),
        windows_beyond_p99=int(np.sum(latency_ms > np.percentile(latency_ms, 99))),
        generator_lag_median_ms=[round(first * 1e3, 3), round(second * 1e3, 3)],
    )

    if not trace:
        end_to_end(outcome, setup_s, closed.windows, sum(closed.walls), opened.latencies)
        return outcome

    self_time_metrics(outcome, tracer.self_times(), _LAYERS)
    outcome.metric("cem.windows", tracer.calls()["cem.enforce"], "count")
    outcome.metric("serve.dispatches", closed.dispatches, "count")
    outcome.metric("serve.windows_per_dispatch", closed.windows / closed.dispatches, "windows")
    outcome.metric("serve.queue_wait_p50_ms", np.percentile(waits, 50) * 1e3, "ms")
    outcome.metric("serve.generator_lag_p99_ms", np.percentile(opened.lags, 99) * 1e3, "ms")
    outcome.metric("serve.queue_high_water", opened.report.queue_high_water, "count")
    outcome.metric("serve.backpressure_events", opened.report.backpressure_events, "count")
    self_time_metrics(
        outcome,
        {name: total / SETUP_REPEATS for name, total in setup_tracer.self_times().items()},
        _SETUP_LAYERS,
    )
    overhead(outcome, sum(untraced.walls), sum(closed.walls))
    return outcome
