"""Reading the record stream: every observability view is a fold over it.

:func:`read_records` is the one parser, with one malformed-line policy:
a writer killed mid-``write`` can leave an unterminated final line, so
that line alone is dropped when it does not parse; any other malformed
line raises ``ValueError`` naming ``file:line``.

:func:`fold` reduces the records of a stream to the run view that the
``summary`` and ``top`` renderers (:mod:`repro.obs.summary`) and the
tests read:

* ``runs`` — one record per configured run: its header fields plus any
  later ``annotate`` fields from the same pid;
* ``metrics`` — per name, the sum of counter deltas, the last gauge
  value, the histogram summary over *every* observation (count, sum,
  min, max, exact p50/p90/p99), or the concatenated series;
* ``sections`` — the last live-status payload per name;
* ``pids``, ``records``, ``started_unix``/``updated_unix`` — where and
  when the records came from.

:func:`export_chrome` keeps the X, M and i records — the Chrome trace
events — in the ``{"traceEvents": [...]}`` document Perfetto loads.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.obs.stream import HEADER_NAME

_QUANTILES = (0.5, 0.9, 0.99)
_CHROME_PHASES = ("X", "M", "i")


def read_records(path: "str | os.PathLike[str]") -> list[dict[str, Any]]:
    """Parse a stream into its record dicts (see the module policy)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    # After the last "\n" comes "" — or the unterminated tail of a torn write.
    torn = len(lines)
    records = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if number == torn:
                break
            raise ValueError(f"{path}:{number}: not valid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{number}: record is not an object")
        records.append(record)
    return records


def _quantile(ordered: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def _histogram(values: list[float]) -> dict[str, Any]:
    ordered = sorted(values)
    return {
        "type": "histogram",
        "count": len(ordered),
        "sum": sum(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "quantiles": {f"p{int(q * 100)}": _quantile(ordered, q) for q in _QUANTILES},
    }


def fold_metrics(records: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Reduce the ``metric`` records to one summary per metric name."""
    state: dict[str, tuple[str, Any]] = {}
    for record in records:
        if record.get("ph") != "metric":
            continue
        name, kind = record["name"], record["type"]
        prior_kind, prior = state.get(name, (kind, None))
        if prior_kind != kind:
            prior = None  # a later run reused the name for another kind
        if kind == "counter":
            value = (prior or 0) + record["value"]
        elif kind == "gauge":
            value = record["value"]
        else:
            value = prior if prior is not None else []
            value.extend(record["values"])
        state[name] = (kind, value)
    metrics = {}
    for name, (kind, value) in state.items():
        if kind == "histogram":
            metrics[name] = _histogram(value)
        elif kind == "series":
            metrics[name] = {"type": kind, "values": value}
        else:
            metrics[name] = {"type": kind, "value": value}
    return metrics


def fold_runs(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """One dict per run header, with later annotations of its pid merged."""
    runs: list[dict[str, Any]] = []
    current: dict[Any, dict[str, Any]] = {}
    for record in records:
        if record.get("ph") != "M" or record.get("name") != HEADER_NAME:
            continue
        args = dict(record.get("args", {}))
        if "schema_version" in args:
            args.pop("schema_version")
            args.pop("created_unix", None)
            current[record.get("pid")] = args
            runs.append(args)
        elif record.get("pid") in current:
            current[record.get("pid")].update(args)
    return [run for run in runs if run]


def fold(path: "str | os.PathLike[str]") -> dict[str, Any]:
    """The whole-stream view (see the module docstring for its keys)."""
    records = read_records(path)
    stamps = [r["ts"] / 1e6 for r in records if "ts" in r]
    return {
        "runs": fold_runs(records),
        "metrics": fold_metrics(records),
        "sections": {
            r["name"]: r["args"] for r in records if r.get("ph") == "section"
        },
        "pids": sorted({r["pid"] for r in records if "pid" in r}),
        "records": len(records),
        "started_unix": min(stamps, default=None),
        "updated_unix": max(stamps, default=None),
    }


def export_chrome(
    trace_path: "str | os.PathLike[str]", out_path: "str | os.PathLike[str]"
) -> Path:
    """Write the stream's Chrome trace events as a viewer document.

    Produces ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` — the
    container understood by ``chrome://tracing`` and
    https://ui.perfetto.dev (Open trace file).
    """
    events = [r for r in read_records(trace_path) if r.get("ph") in _CHROME_PHASES]
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    out.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return out
