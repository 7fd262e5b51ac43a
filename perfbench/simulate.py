"""simulate: traffic construction to windowed dataset, in three phases.

* ``dt`` -- the paper scenario under Dynamic Threshold; ``engine="auto"``
  resolves to ``ArraySwitchEngine``.
* ``red`` -- the same scenario under RED early drop; ``auto`` falls back
  to the reference per-step loop.
* ``fabric`` -- the default leaf-spine ``Fabric`` (``LeafSpineConfig()``)
  windowed per switch.

A unit builds the traffic, simulates and windows.  The operation is a
round: one unit of each phase under the round's seed, so every phase
samples the whole run.  ``ops_per_s`` is rounds over their summed time,
and ``latency_p50_ms``/``latency_p99_ms`` are percentiles of the round
times.  The paper scenario is trimmed to ``SIM_BINS`` fine bins so a
round stays short; RED, on the slow reference loop, takes about half of
it.  Every produced trace passes the ``selfcheck_trace`` oracles,
checked after the timed region.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.eval.fabric_scenarios import LeafSpineConfig, build_leaf_traffic
from repro.eval.scenarios import build_traffic, paper_scenario
from repro.switchsim.aqm import AqmConfig
from repro.switchsim.engine import ArraySwitchEngine
from repro.switchsim.fabric import Fabric
from repro.switchsim.simulation import Simulation
from repro.switchsim.switch import OutputQueuedSwitch
from repro.telemetry.dataset import build_dataset
from repro.telemetry.fabric import build_fabric_datasets
from repro.testing.selfcheck import SelfCheckError, selfcheck_trace

from perfbench.common import (
    Outcome,
    clock,
    end_to_end,
    overhead,
    repeated_setup,
    self_time_metrics,
)
from perfbench.tracing import NullTracer, Tracer

#: Fine bins per single-switch unit.  RED runs the reference per-step
#: loop, so its unit is shorter; it still takes about half of a round.
SIM_BINS = {"dt": 3000, "red": 1200}
PHASES = ("dt", "red", "fabric")
MIN_ROUNDS = 5
#: Rounds of a ``--trace 1`` run, each unit run untraced and then traced.
TRACE_ROUNDS = 3
#: Fine bins per unit of the warm-up that is this workload's set-up, and
#: warm-ups per run (``setup_s`` is their median).
WARMUP_BINS = 1200
SETUP_REPEATS = 5

_LAYERS = {
    "traffic.arrivals": "traffic.arrivals_s",
    "switchsim.array_run": "switchsim.array_run_s",
    "switchsim.step": "switchsim.step_s",
    "fabric.run": "fabric.run_s",
    "telemetry.build_dataset": "telemetry.build_dataset_s",
    "sim.round": "unattributed_s",
}
_SETUP_LAYERS = {
    "setup.simulate": "setup.simulate_s",
    "setup": "setup.unattributed_s",
}
_CLASS_LAYERS = [
    (ArraySwitchEngine, "run", "switchsim.array_run"),
    (OutputQueuedSwitch, "step", "switchsim.step"),
    (Fabric, "run", "fabric.run"),
]


@dataclass
class Unit:
    phase: str
    seconds: float
    steps: int  # switch-steps simulated
    engine: str
    traces: list


def _traffic_layers(traffic) -> list[tuple]:
    return [
        (traffic, "arrivals", "traffic.arrivals"),
        (traffic, "arrivals_batch", "traffic.arrivals"),
    ]


def _single(phase: str, seed: int, bins: int, tracer) -> Unit:
    scenario = dataclasses.replace(paper_scenario(), duration_bins=bins)
    switch_config = scenario.switch_config()
    if phase == "red":
        red = AqmConfig(policy="red", seed=seed)
        switch_config = dataclasses.replace(
            switch_config, aqm_factory=red.factory(scenario.buffer_capacity)
        )
    start = clock()
    with tracer.span("sim.round"):
        traffic = build_traffic(scenario, seed=seed)
        with tracer.installed(_traffic_layers(traffic)):
            simulation = Simulation(switch_config, traffic, steps_per_bin=scenario.steps_per_bin)
            trace = simulation.run(bins)
        dataset = tracer.wrap("telemetry.build_dataset", build_dataset)(
            trace,
            interval=scenario.interval,
            window_intervals=scenario.window_intervals,
            stride_intervals=scenario.stride_intervals,
        )
    seconds = clock() - start
    if not dataset.samples:
        raise RuntimeError(f"{phase} unit produced no windows")
    return Unit(phase, seconds, bins * scenario.steps_per_bin, simulation.engine, [trace])


def _fabric(seed: int, bins: int, tracer) -> Unit:
    config = dataclasses.replace(LeafSpineConfig(), seed=seed, duration_bins=bins)
    start = clock()
    with tracer.span("sim.round"):
        leaf_traffic = build_leaf_traffic(config, seed=seed)
        layers = [layer for traffic in leaf_traffic for layer in _traffic_layers(traffic)]
        with tracer.installed(layers):
            fabric = Fabric(
                config.topology, leaf_traffic,
                steps_per_bin=config.steps_per_bin, aqm=config.aqm,
            )
            fabric_trace = fabric.run(bins)
        datasets = tracer.wrap("telemetry.build_dataset", build_fabric_datasets)(
            fabric_trace,
            interval=config.interval,
            window_intervals=config.window_intervals,
            stride_intervals=config.stride_intervals,
            cross_switch_features=config.cross_switch_features,
        )
    seconds = clock() - start
    if not all(d.samples for d in datasets.values()):
        raise RuntimeError("fabric unit produced a switch with no windows")
    steps = bins * config.steps_per_bin * config.topology.num_switches
    return Unit("fabric", seconds, steps, "fabric", list(fabric_trace.switches.values()))


def _unit(phase: str, seed: int, tracer, warmup: bool = False) -> Unit:
    if phase == "fabric":
        return _fabric(seed, WARMUP_BINS if warmup else LeafSpineConfig().duration_bins, tracer)
    return _single(phase, seed, WARMUP_BINS if warmup else SIM_BINS[phase], tracer)


def _seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def _warmup(seed: int, tracer) -> None:
    """One short unit per phase, so imports and lazy set-up are paid untimed."""
    with tracer.span("setup"):
        for phase in PHASES:
            with tracer.span("setup.simulate"):
                _unit(phase, seed, NullTracer(), warmup=True)


def _rounds(outcome: Outcome, seed: int, seconds: float) -> list[float]:
    """Rounds for ``seconds``, and at least ``MIN_ROUNDS``; seconds per round.

    A round is one unit of each phase under the round's seed, so every
    phase samples the whole run.
    """
    rounds: list[float] = []
    deadline = clock() + seconds
    while len(rounds) < MIN_ROUNDS or clock() < deadline:
        units = [
            _checked(outcome, _unit(phase, _seed(seed, len(rounds)), NullTracer()))
            for phase in PHASES
        ]
        rounds.append(sum(u.seconds for u in units))
    return rounds


def _traced_rounds(outcome: Outcome, seed: int, tracer: Tracer) -> tuple[list[Unit], list[Unit]]:
    """``TRACE_ROUNDS`` rounds, each unit run untraced and then traced."""
    untraced: list[Unit] = []
    traced: list[Unit] = []
    for index in range(TRACE_ROUNDS):
        for phase in PHASES:
            untraced.append(_checked(outcome, _unit(phase, _seed(seed, index), NullTracer())))
            with tracer.installed(_CLASS_LAYERS):
                traced.append(_checked(outcome, _unit(phase, _seed(seed, index), tracer)))
    return untraced, traced


def _checked(outcome: Outcome, unit: Unit) -> Unit:
    """Run the trace oracles on ``unit``, outside its timing; drop its traces."""
    for index, trace in enumerate(unit.traces):
        outcome.attempted += 1
        try:
            selfcheck_trace(trace, repro={"phase": unit.phase, "trace": index})
        except SelfCheckError as error:
            outcome.failed += 1
            outcome.problem(str(error))
    unit.traces = []  # keep memory flat however many units run
    return unit


def _rate(units: list[Unit], phase: str) -> float:
    """Switch-steps per second of ``phase`` over its units."""
    mine = [u for u in units if u.phase == phase]
    return sum(u.steps for u in mine) / sum(u.seconds for u in mine)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setup_tracer = Tracer() if trace else NullTracer()
    _, setup_s = repeated_setup(lambda: _warmup(seed, setup_tracer), SETUP_REPEATS)
    if not trace:
        rounds = _rounds(outcome, seed, seconds)
        outcome.notes.update(rounds=len(rounds), sim_bins=SIM_BINS)
        end_to_end(outcome, setup_s, len(rounds), sum(rounds), rounds)
        return outcome

    tracer = Tracer()
    untraced, units = _traced_rounds(outcome, seed, tracer)
    outcome.notes.update(engines={u.phase: u.engine for u in units}, sim_bins=SIM_BINS)
    self_time_metrics(outcome, tracer.self_times(), _LAYERS)
    self_time_metrics(
        outcome,
        {name: total / SETUP_REPEATS for name, total in setup_tracer.self_times().items()},
        _SETUP_LAYERS,
    )
    outcome.metric("sim.dt_steps_per_s", _rate(untraced, "dt"), "steps/s")
    outcome.metric("sim.red_steps_per_s", _rate(untraced, "red"), "steps/s")
    outcome.metric("sim.fabric_switch_steps_per_s", _rate(untraced, "fabric"), "switch-steps/s")
    single = [u for u in units if u.phase != "fabric"]
    outcome.metric(
        "switchsim.fast_path_share",
        sum(u.steps for u in single if u.engine == "array") / sum(u.steps for u in single),
        "fraction",
    )
    overhead(outcome, sum(u.seconds for u in untraced), sum(u.seconds for u in units))
    return outcome
