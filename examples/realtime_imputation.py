#!/usr/bin/env python3
"""Real-time telemetry imputation (the paper's §5 future direction).

Replays a recorded coarse-telemetry stream through a one-switch, inline
:class:`~repro.serve.StreamService` one 50 ms interval at a time — the
way a monitoring pipeline would deliver it — re-imputing the sliding
window on every interval, and reports the per-window latency against a
50 ms real-time budget (each window must finish before the next
interval's data arrives).

Run:  python examples/realtime_imputation.py
"""

import numpy as np

from repro.eval import generate_trace, quick_scenario
from repro.imputation import (
    ImputationPipeline,
    ModelOverrides,
    PipelineConfig,
    TrainerConfig,
)
from repro.serve import StreamService, records_from_telemetry
from repro.telemetry import build_dataset, sample_trace


def main() -> None:
    scenario = quick_scenario()
    print("simulating and training (once, offline)...")
    trace = generate_trace(scenario, seed=3)
    dataset = build_dataset(
        trace,
        interval=scenario.interval,
        window_intervals=scenario.window_intervals,
        stride_intervals=scenario.stride_intervals,
    )
    train, val, _ = dataset.split(0.7, 0.15, seed=0)
    pipeline = ImputationPipeline(
        train,
        PipelineConfig(
            use_kal=True,
            use_cem=False,  # the service applies CEM itself
            model=ModelOverrides(d_model=32, num_layers=2, d_ff=64),
            trainer=TrainerConfig(epochs=8, batch_size=8, seed=0),
        ),
        val=val,
        seed=0,
    ).fit()

    print("\nreplaying a fresh trace as a live 50 ms telemetry stream...")
    live_trace = generate_trace(scenario, seed=99)
    telemetry = sample_trace(live_trace, scenario.interval)
    # One switch, computed inline; stride 1 and batches of one window
    # re-impute the sliding window as soon as each interval arrives.
    service = StreamService(
        pipeline.model,
        live_trace.config,
        dataset.scaler,
        scenario.interval,
        scenario.window_intervals,
        stride_intervals=1,
        batch_windows=1,
    )
    windows = []
    for record in records_from_telemetry("switch0", telemetry):
        windows.extend(service.submit(record))
    windows.extend(service.drain())

    budget = scenario.interval / 1000.0  # one interval of wall-clock, in s
    latencies = np.array([w.latency_seconds for w in windows])
    errors = []
    for window in windows:
        end = window.start_bin + window.values.shape[1]
        truth = live_trace.qlen[:, end - scenario.interval : end]
        errors.append(np.abs(window.values[:, -scenario.interval :] - truth).mean())

    print(f"windows: {len(latencies)}")
    print(
        f"latency per window: mean {latencies.mean() * 1e3:.1f} ms, "
        f"p99 {np.percentile(latencies, 99) * 1e3:.1f} ms "
        f"(budget: {budget * 1e3:.0f} ms per interval)"
    )
    print(f"within real-time budget: {(latencies < budget).mean() * 100:.0f}% of windows")
    print(f"mean absolute error on the newest interval: {np.mean(errors):.3f} packets")
    verdict = "fits inside" if np.percentile(latencies, 99) < budget else "exceeds"
    print(f"\n=> at p99, imputation + constraint enforcement {verdict} the")
    print("   50 ms interval the paper's real-time tasks would require.")


if __name__ == "__main__":
    main()
