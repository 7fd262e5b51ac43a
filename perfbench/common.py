"""What every workload shares: its outcome record, set-up timing, metrics."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

clock = time.perf_counter


@dataclass
class Outcome:
    """One workload run: operations, failed checks, metrics and notes."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def problem(self, text: str, limit: int = 5) -> None:
        """Record a failed check (the first line of the first few)."""
        if len(self.problems) < limit:
            self.problems.append(next((ln for ln in text.splitlines() if ln.strip()), text))
        elif len(self.problems) == limit:
            self.problems.append("... further failures omitted")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def repeated_setup(build: Callable[[], T], repeats: int) -> tuple[T, float]:
    """Run ``build`` ``repeats`` times; the last product and the median time."""
    seconds = []
    product = None
    for _ in range(repeats):
        product = None  # let the previous set-up's products go first
        start = clock()
        product = build()
        seconds.append(clock() - start)
    return product, statistics.median(seconds)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    outcome: Outcome, setup_s: float, ops: float, seconds: float, latencies_s: Sequence[float]
) -> None:
    """The end-to-end metrics every workload reports, each for its own operation.

    ``ops`` operations took ``seconds`` of timed work; ``latencies_s`` are
    the latencies of single operations.
    """
    latency_ms = np.asarray(latencies_s) * 1e3
    outcome.metric("setup_s", setup_s, "s")
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.metric("ops_per_s", ops / seconds, "ops/s")
    outcome.metric("latency_p50_ms", np.percentile(latency_ms, 50), "ms")
    outcome.metric("latency_p99_ms", np.percentile(latency_ms, 99), "ms")


def overhead(outcome: Outcome, untraced_s: float, traced_s: float) -> None:
    """Traced-minus-untraced wall time of the same work, as s and %."""
    outcome.metric("trace.overhead_s", traced_s - untraced_s, "s")
    outcome.metric("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0), "%")


def self_time_metrics(outcome: Outcome, self_times: dict[str, float], names: dict[str, str]) -> None:
    """Publish ``{span name: metric name}`` self times (0 when never called)."""
    for span, metric in names.items():
        outcome.metric(metric, self_times.get(span, 0.0), "s")
