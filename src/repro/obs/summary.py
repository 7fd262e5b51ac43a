"""Human-readable renderings of a record stream: ``summary`` and ``top``."""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Any

from repro.eval.report import format_table
from repro.obs.fold import fold_metrics, fold_runs, read_records


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _run_line(run: dict[str, Any]) -> str:
    """One run record as sorted ``key=value`` pairs (stable across runs)."""
    parts = []
    for key in sorted(run):
        value = run[key]
        if isinstance(value, (list, tuple)):
            value = " ".join(str(v) for v in value)
        parts.append(f"{key}={_fmt(value)}")
    return "  " + " · ".join(parts)


def _metric_row(name: str, snapshot: dict[str, Any]) -> list[str]:
    kind = snapshot.get("type", "?")
    if kind in ("counter", "gauge"):
        return [name, kind, _fmt(snapshot["value"]), ""]
    if kind == "series":
        values = snapshot.get("values", [])
        last = _fmt(values[-1]) if values else "-"
        return [name, kind, last, f"n={len(values)}"]
    if kind == "histogram":
        quantiles = snapshot["quantiles"]
        detail = (
            f"n={snapshot['count']} min={_fmt(snapshot['min'])} "
            f"p50={_fmt(quantiles['p50'])} "
            f"p99={_fmt(quantiles['p99'])} max={_fmt(snapshot['max'])}"
        )
        return [name, kind, _fmt(snapshot["sum"] / snapshot["count"]), detail]
    return [name, kind, "?", ""]


def summarize(path: "str | os.PathLike[str]") -> str:
    """Runs, metrics and per-span-name time of one stream, as tables."""
    records = read_records(path)
    pids = {record.get("pid") for record in records}
    lines = [
        f"stream: {path}",
        f"records: {len(records)} across {len(pids)} process(es)",
    ]
    runs = fold_runs(records)
    if runs:
        lines.append(f"runs recorded: {len(runs)}")
        digests = {r["config_digest"] for r in runs if "config_digest" in r}
        if digests:
            shown = ", ".join(sorted(d[:16] for d in digests))
            lines.append(f"config digests: {shown}")
        # Sorted run lines (not stream order): summaries of the same set
        # of runs diff cleanly in CI artifacts regardless of the order
        # the runs happened to finish in.
        lines.extend(sorted(_run_line(r) for r in runs))
    metrics = fold_metrics(records)
    if metrics:
        rows = [_metric_row(name, metrics[name]) for name in sorted(metrics)]
        lines.append(format_table(["metric", "type", "value", "detail"], rows))
    else:
        lines.append("(no metrics recorded)")

    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for record in records:
        if record.get("ph") == "X":
            totals[record["name"]] += float(record.get("dur", 0.0))
            counts[record["name"]] += 1
    if not counts:
        lines.append("(no spans recorded)")
        return "\n".join(lines)
    rows = []
    # Name tie-breaks the duration sort so equal-total spans (common in
    # truncated test streams) render in one deterministic order.
    for name in sorted(totals, key=lambda n: (-totals[n], n)):
        total_ms = totals[name] / 1000.0
        mean_ms = total_ms / counts[name]
        rows.append([name, str(counts[name]), f"{total_ms:.3f}", f"{mean_ms:.3f}"])
    lines.append(format_table(["span", "count", "total_ms", "mean_ms"], rows))
    return "\n".join(lines)


def _status_metric(name: str, metric: dict[str, Any]) -> str:
    kind = metric["type"]
    if kind in ("counter", "gauge"):
        text = _fmt(metric["value"])
    elif kind == "histogram":
        quantiles = metric["quantiles"]
        text = (
            f"n={metric['count']} p50={_fmt(quantiles['p50'])} "
            f"p99={_fmt(quantiles['p99'])}"
        )
    else:
        values = metric["values"]
        text = f"n={len(values)}" + (f" last={_fmt(values[-1])}" if values else "")
    return f"  {name:<34} {kind:<9} {text}"


def _status_section(name: str, payload: dict[str, Any]) -> list[str]:
    lines = [f"[{name}]"]
    for key in sorted(payload, key=str):
        value = payload[key]
        if isinstance(value, dict):
            keys = sorted(value, key=str)
            detail = " · ".join(f"{k}={_fmt(value[k])}" for k in keys)
        else:
            detail = _fmt(value)
        lines.append(f"  {str(key):<14} {detail}")
    return lines


def render_status(view: dict[str, Any], now: float | None = None) -> str:
    """The ``repro obs top`` screen for one :func:`repro.obs.fold.fold` view."""
    now = time.time() if now is None else now
    pids = " ".join(map(str, view["pids"])) or "-"
    status = f"  pids {pids} · records {view['records']}"
    updated = view["updated_unix"]
    if updated is not None:
        status += (
            f" · uptime {updated - view['started_unix']:.1f} s"
            f" · updated {max(0.0, now - updated):.1f} s ago"
        )
    lines = ["repro live status", status]
    if view["runs"]:
        lines.append(_run_line(view["runs"][-1]))
    sections = view["sections"]
    for name in sorted(sections):
        lines.extend(_status_section(name, sections[name]))
    metrics = view["metrics"]
    if metrics:
        lines.append("[metrics]")
        lines.extend(_status_metric(name, metrics[name]) for name in sorted(metrics))
    return "\n".join(lines)
