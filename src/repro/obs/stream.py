"""The one observability record stream: typed JSONL, one ``O_APPEND`` file.

Every producer of a run appends one JSON object per line to the file
given by ``--trace``, in every process of the run:

* ``ph: "X"`` — a *complete* span: ``ts`` (absolute unix microseconds)
  plus ``dur`` (microseconds, measured with ``perf_counter``).  Nesting
  is positional — a span whose ``[ts, ts+dur]`` lies inside another's on
  the same pid/tid renders as its child.
* ``ph: "M"`` — metadata: the ``repro_trace_header`` run header (schema
  version, argv, ...), later :func:`annotate_header` fields (e.g.
  ``config_digest``) and ``process_name`` labels.
* ``ph: "i"`` — an operational event (respawn, backpressure, SLO
  breach, ...); ``name`` is drawn from the closed :data:`EVENT_KINDS`.
* ``ph: "metric"`` — buffered metric updates, one record per name and
  flush: a counter delta or gauge value (``value``), or histogram
  observations / series appends (``values``).
* ``ph: "section"`` — a structured live-status payload (``args``); the
  last record per name wins.

X, M and i records are Chrome trace events, so the export of a stream
loads in Perfetto.  Everything else a run reports — the metrics view,
``repro obs top``, ``summary``, ``validate`` — is a fold over this file
(:mod:`repro.obs.fold`).

Buffering and processes: records and metric updates buffer per process.
Each flush turns the buffer into lines and writes them in **one**
``O_APPEND`` write, then resets it — so repeated flushes never count a
metric twice.  The configuring (root) process flushes at
:data:`FLUSH_EVERY` buffered records, when a thread's top-level span
closes, on every event, when :data:`FLUSH_PERIOD` seconds have passed
(checked at span exit and section publish, never per metric call), and
at :func:`close_writer`.  A forked child detects the pid change, drops
the buffer it inherited (the root still holds and flushes its own copy)
and writes only at :func:`flush`, i.e. ``obs.child_flush()`` — so a
worker that dies mid-attempt contributes nothing to the stream.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any

#: Version of the stream layout, stamped into the header record and
#: checked by the validator (tests/corpus/obs_trace.schema.json).
STREAM_SCHEMA_VERSION = 2

#: The root process flushes once this many records are buffered...
FLUSH_EVERY = 512
#: ...or once this many seconds have passed since its last flush.
FLUSH_PERIOD = 1.0

HEADER_NAME = "repro_trace_header"

#: The closed vocabulary of operational events (``ph: "i"`` names).  The
#: schema's ``i``-phase ``name`` enum mirrors this tuple and a corpus
#: test pins the mirror, so extending one means extending the other.
EVENT_KINDS = (
    "service_started",
    "service_drained",
    "respawn",
    "shard_dead",
    "backpressure",
    "record_rejected",
    "gap_repaired",
    "gap_skipped",
    "stream_resync",
    "duplicate_dropped",
    "ood_flagged",
    "ood_quarantined",
    "slo_breach",
    "slo_recovered",
    "checkpoint_saved",
)

_CATEGORY = "repro"

_WRITER: "_StreamWriter | None" = None
_LOCAL = threading.local()  # per-thread span depth


def _dumps(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _now_us() -> int:
    return time.time_ns() // 1000


def _metadata(name: str, args: dict[str, Any]) -> dict[str, Any]:
    return {
        "name": name,
        "cat": _CATEGORY,
        "ph": "M",
        "pid": os.getpid(),
        "tid": threading.get_native_id(),
        "args": args,
    }


def _process_name(role: str) -> str:
    name = f"repro[{role}:{os.getpid()}]"
    return _dumps(_metadata("process_name", {"name": name}))


class _Metric:
    __slots__ = ("_writer", "_name")
    kind = ""

    def __init__(self, writer: "_StreamWriter", name: str):
        self._writer = writer
        self._name = name


class _Counter(_Metric):
    __slots__ = ()
    kind = "counter"

    def inc(self, amount: int = 1) -> None:
        self._writer.update(self._name, amount, "counter")


class _Gauge(_Metric):
    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        self._writer.update(self._name, float(value), "gauge")


class _Histogram(_Metric):
    __slots__ = ()
    kind = "histogram"

    def observe(self, value: float) -> None:
        self._writer.update(self._name, float(value), "histogram")


class _Series(_Metric):
    __slots__ = ()
    kind = "series"

    def append(self, value: float) -> None:
        self._writer.update(self._name, float(value), "series")


_HANDLES = {cls.kind: cls for cls in (_Counter, _Gauge, _Histogram, _Series)}


class _StreamWriter:
    """Buffered, fork-aware appender of one process's stream records."""

    def __init__(self, path: Path, header: dict[str, Any]):
        self.path = path
        self.root_pid = self.pid = os.getpid()
        self._lock = threading.Lock()
        #: name -> counter delta | gauge value | list of observations.
        self._pending: dict[str, Any] = {}
        self._sections: dict[str, Any] = {}
        #: name -> handle; the handle's kind is the name's one metric kind.
        self._handles: dict[str, _Metric] = {}
        self._last_flush = time.monotonic()
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "schema_version": STREAM_SCHEMA_VERSION,
            "created_unix": time.time(),
            **header,
        }
        self._lines = [_process_name("main"), _dumps(_metadata(HEADER_NAME, header))]

    # -- producers ------------------------------------------------------
    def append(self, record: dict[str, Any], force: bool = False) -> None:
        """Buffer one record; flush per the root's policy (``force`` for
        events and top-level span ends)."""
        line = _dumps(record)
        with self._lock:
            self._check_fork()
            self._lines.append(line)
            self._settle_locked(force)

    def metric(self, name: str, kind: str) -> _Metric:
        handle = self._handles.get(name)
        if handle is None:
            with self._lock:
                handle = self._handles.setdefault(name, _HANDLES[kind](self, name))
        if handle.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {handle.kind}, "
                f"requested {kind}"
            )
        return handle

    def update(self, name: str, value: float, kind: str) -> None:
        with self._lock:
            self._check_fork()
            if kind == "counter":
                self._pending[name] = self._pending.get(name, 0) + value
            elif kind == "gauge":
                self._pending[name] = value
            else:
                self._pending.setdefault(name, []).append(value)

    def section(self, name: str, payload: dict[str, Any]) -> None:
        with self._lock:
            self._check_fork()
            self._sections[name] = payload
            self._settle_locked(False)

    # -- output ---------------------------------------------------------
    def _check_fork(self) -> None:
        if os.getpid() != self.pid:
            # The inherited buffer belongs to the root, which still holds
            # (and will flush) its own copy; starting empty prevents
            # duplicate records.
            self.pid = os.getpid()
            self._lines = [_process_name("worker")]
            self._pending = {}
            self._sections = {}

    def _settle_locked(self, force: bool) -> None:
        if self.pid != self.root_pid:
            return  # a forked child writes only at flush()
        if (
            force
            or len(self._lines) >= FLUSH_EVERY
            or time.monotonic() - self._last_flush >= FLUSH_PERIOD
        ):
            self._flush_locked()

    def _flush_locked(self) -> None:
        lines = self._lines
        if self._pending or self._sections:
            base = {"cat": _CATEGORY, "pid": self.pid, "ts": _now_us()}
            for name, value in self._pending.items():
                kind = self._handles[name].kind
                key = "value" if kind in ("counter", "gauge") else "values"
                record = {"ph": "metric", "name": name, "type": kind, key: value}
                lines.append(_dumps({**base, **record}))
            for name, payload in self._sections.items():
                record = {"ph": "section", "name": name, "args": payload}
                lines.append(_dumps({**base, **record}))
        self._lines = []
        self._pending = {}
        self._sections = {}
        self._last_flush = time.monotonic()
        if lines:
            self._write(("\n".join(lines) + "\n").encode("utf-8"))

    def _write(self, data: bytes) -> None:
        fd = os.open(str(self.path), os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    def flush(self) -> None:
        with self._lock:
            self._check_fork()
            self._flush_locked()


class _LiveSpan:
    """A recording span; emitted as one complete ("X") record on exit."""

    __slots__ = ("name", "args", "_ts_us", "_t0")

    def __init__(self, name: str, args: dict[str, Any]):
        self.name = name
        self.args = args
        self._ts_us = 0
        self._t0 = 0.0

    def annotate(self, **args: Any) -> None:
        """Attach more args (e.g. a status known only at span end)."""
        self.args.update(args)

    def __enter__(self) -> "_LiveSpan":
        self._ts_us = _now_us()
        self._t0 = time.perf_counter()
        _LOCAL.depth = getattr(_LOCAL, "depth", 0) + 1
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration_us = (time.perf_counter() - self._t0) * 1e6
        _LOCAL.depth -= 1
        writer = _WRITER
        if writer is not None:
            if exc_type is not None:
                self.args.setdefault("error", exc_type.__name__)
            record = {
                "name": self.name,
                "cat": _CATEGORY,
                "ph": "X",
                "ts": self._ts_us,
                "dur": round(duration_us, 3),
                "pid": os.getpid(),
                "tid": threading.get_native_id(),
            }
            if self.args:
                record["args"] = self.args
            # A closed top-level span makes the thread's records durable
            # (bounds what a killed root loses to the span in flight).
            writer.append(record, force=_LOCAL.depth == 0)
        return False


# ----------------------------------------------------------------------
# Module-level entry points (driven by repro.obs)
# ----------------------------------------------------------------------
def open_writer(path: "str | os.PathLike[str]", header: dict[str, Any]) -> None:
    global _WRITER
    _WRITER = _StreamWriter(Path(path), header)


def start_span(name: str, args: dict[str, Any]) -> _LiveSpan:
    return _LiveSpan(name, args)


def metric(name: str, kind: str) -> _Metric:
    return _WRITER.metric(name, kind)


def event(kind: str, args: dict[str, Any]) -> None:
    if kind not in EVENT_KINDS:
        raise ValueError(
            f"unknown event kind {kind!r}; known kinds: {', '.join(EVENT_KINDS)}"
        )
    _WRITER.append(
        {
            "name": kind,
            "cat": _CATEGORY,
            "ph": "i",
            "s": "p",
            "ts": _now_us(),
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "args": args,
        },
        force=True,
    )


def section(name: str, payload: dict[str, Any]) -> None:
    _WRITER.section(name, payload)


def annotate_header(fields: dict[str, Any]) -> None:
    """Append run-level fields; the fold joins them to the pid's last header."""
    _WRITER.append(_metadata(HEADER_NAME, dict(fields)))


def flush() -> None:
    _WRITER.flush()


def close_writer() -> None:
    global _WRITER
    writer, _WRITER = _WRITER, None
    if writer is not None:
        writer.flush()
