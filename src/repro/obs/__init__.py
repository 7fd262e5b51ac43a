"""repro.obs — one observability record stream, plus cProfile (opt-in).

Observability for the simulate → train → enforce → serve pipeline has a
single sink: every producer appends typed JSONL records to one
``O_APPEND`` file (:mod:`repro.obs.stream`, enabled by ``--trace``):

* **spans** — hierarchical wall-clock spans
  (``with obs.span("table1.train", method="kal"): ...``) in the Chrome
  trace event format, so a run renders as a flame chart in Perfetto
  (``repro obs export``);
* **metrics** — counters, gauges, histograms and series (cache
  hits/misses, per-epoch losses, C1–C3 residuals, latencies);
* **events** — discrete operational occurrences from the closed
  :data:`repro.obs.stream.EVENT_KINDS` vocabulary (respawns,
  backpressure, SLO breaches, checkpoint saves);
* **live sections** — structured status payloads (``serve``, ``health``,
  ``slo``) that ``repro obs top`` renders while the run is in flight.

The metrics view, ``repro obs summary``/``top``/``export``/``validate``
are folds over that one file (:mod:`repro.obs.fold`).  Separately,
**profiling** (:mod:`repro.obs.profile`) writes per-stage cProfile
archives behind ``--profile-dir``.

Everything is **off by default** and near-free when off: two module
flags gate every entry point, the disabled :func:`span` /
:func:`counter` return shared no-op singletons, and no submodule of this
package is imported until :func:`configure` enables it — importing
:mod:`repro` (or any instrumented module) never pays for observability
(pinned by ``tests/obs/test_disabled.py``).

Process model: state is configured in the root process and inherited by
forked children.  The stream writer detects a fork (pid change), drops
the inherited buffer and writes the child's records only at
:func:`child_flush`.  Under a ``spawn`` start method children simply run
with observability disabled.
"""

from __future__ import annotations

import atexit
import os
from typing import Any, Union

PathLike = Union[str, "os.PathLike[str]"]

__all__ = [
    "configure",
    "finish",
    "annotate",
    "span",
    "counter",
    "gauge",
    "histogram",
    "series",
    "profile_stage",
    "event",
    "live_section",
    "child_flush",
    "enabled",
    "profiling_enabled",
]

# Fast-path gates: every instrumentation entry point checks one of these
# module globals and returns a shared no-op object when it is False.
_ENABLED = False
_PROFILING = False
#: The repro.obs.stream module while the stream is on (imported lazily).
_STREAM: Any = None
_ATEXIT_REGISTERED = False


class _NullSpan:
    """Shared no-op stand-in for spans and profile stages (reentrant)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **args: Any) -> None:
        """Discard annotations (the live span merges them into ``args``)."""


class _NullMetric:
    """Shared no-op stand-in for every metric type."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def append(self, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_METRIC = _NullMetric()


# ----------------------------------------------------------------------
# Instrumentation entry points (hot: called from instrumented modules)
# ----------------------------------------------------------------------
def span(name: str, **args: Any) -> Any:
    """A wall-clock span context manager; a shared no-op when off.

    ``args`` become the Chrome trace event's ``args`` mapping; more can be
    attached mid-span with ``.annotate(key=value)`` (e.g. a solve status
    known only at the end).
    """
    if not _ENABLED:
        return _NULL_SPAN
    return _STREAM.start_span(name, args)


def counter(name: str) -> Any:
    """A monotonically increasing counter (``.inc(n)``)."""
    if not _ENABLED:
        return _NULL_METRIC
    return _STREAM.metric(name, "counter")


def gauge(name: str) -> Any:
    """A last-value-wins gauge (``.set(v)``)."""
    if not _ENABLED:
        return _NULL_METRIC
    return _STREAM.metric(name, "gauge")


def histogram(name: str) -> Any:
    """A value distribution (``.observe(v)``): count/sum/min/max/quantiles."""
    if not _ENABLED:
        return _NULL_METRIC
    return _STREAM.metric(name, "histogram")


def series(name: str) -> Any:
    """An append-only ordered series (``.append(v)``), e.g. per-epoch loss."""
    if not _ENABLED:
        return _NULL_METRIC
    return _STREAM.metric(name, "series")


def profile_stage(name: str) -> Any:
    """A cProfile capture around a pipeline stage; no-op when profiling is
    off or another stage is already being profiled in this process."""
    if not _PROFILING:
        return _NULL_SPAN
    from repro.obs.profile import stage

    return stage(name)


def event(kind: str, **args: Any) -> None:
    """Record one operational event (``kind`` from ``stream.EVENT_KINDS``).

    A single boolean check when the stream is off — but the kwargs dict
    is still built by the caller, so hot paths should guard expensive
    payload *construction* with :func:`enabled`.
    """
    if _ENABLED:
        _STREAM.event(kind, args)


def live_section(name: str, payload: dict[str, Any]) -> None:
    """Publish a structured live-status section (the last one per name wins).

    Guard payload construction with :func:`enabled` on hot paths — the
    disabled path must allocate nothing.
    """
    if _ENABLED:
        _STREAM.section(name, payload)


# ----------------------------------------------------------------------
# State queries
# ----------------------------------------------------------------------
def enabled() -> bool:
    """Is the record stream on?"""
    return _ENABLED


def profiling_enabled() -> bool:
    return _PROFILING


# ----------------------------------------------------------------------
# Run control
# ----------------------------------------------------------------------
def configure(
    trace: PathLike | None = None,
    profile: PathLike | None = None,
    header: "dict[str, Any] | None" = None,
) -> None:
    """Enable the record stream and/or profiling for this process (and
    forked children).

    ``trace`` — path of the record stream (appended to, never truncated,
    so several runs can share one file and its folds accumulate);
    ``profile`` — directory for per-stage ``.pstats`` + report files;
    ``header`` — fields stamped into the run header record (the CLI adds
    ``argv``; :func:`annotate` adds ``config_digest`` once the run's
    config exists).

    Calling with both paths ``None`` resets to the disabled state.
    """
    global _ENABLED, _PROFILING, _STREAM, _ATEXIT_REGISTERED
    finish()  # flush any previous configuration first
    if trace is None and profile is None:
        return
    if trace is not None:
        from repro.obs import stream

        stream.open_writer(trace, dict(header or {}))
        _STREAM = stream
        _ENABLED = True
    if profile is not None:
        from repro.obs.profile import open_profiler

        open_profiler(profile)
        _PROFILING = True
    if not _ATEXIT_REGISTERED:
        # Backstop for library users who never call finish(); the CLI
        # calls it explicitly.  Harmless double-flush: finish() is
        # idempotent.  (multiprocessing children exit via os._exit and
        # skip atexit — they flush through child_flush() instead.)
        atexit.register(finish)
        _ATEXIT_REGISTERED = True


def annotate(**fields: Any) -> None:
    """Attach run-level fields (``config_digest``, experiment name, ...)
    to the run header."""
    if _ENABLED:
        _STREAM.annotate_header(fields)


def finish() -> None:
    """Flush and disable the stream and the profiler (idempotent).

    In a forked child this writes the child's buffered records, the same
    as :func:`child_flush`.
    """
    global _ENABLED, _PROFILING, _STREAM
    if _ENABLED:
        _ENABLED = False
        _STREAM.close_writer()
        _STREAM = None
    if _PROFILING:
        from repro.obs.profile import close_profiler

        close_profiler()
        _PROFILING = False


def child_flush() -> None:
    """Write a forked worker's buffered records without disabling.

    Called at process-boundary points (supervisor attempts, pool jobs):
    the only point where a forked child writes to the stream, so a
    worker that dies before reaching it contributes nothing.  Cheap and
    safe to call repeatedly (each flush carries only what is new), and
    a no-op when the stream is off.
    """
    if _ENABLED:
        _STREAM.flush()
