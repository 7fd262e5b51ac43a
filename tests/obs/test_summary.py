"""``repro obs summary`` renders deterministically across run order.

Two streams holding the same runs in different order — the order runs
*finish* in is scheduler noise — must render byte-identical summaries,
so CI artifact diffs only change when the content does.  Same for span
aggregation: spans with equal total duration tie-break by name.
"""

from __future__ import annotations

import json

from repro.obs.summary import summarize


def _stream(path, runs):
    records = [
        {
            "name": "repro_trace_header", "cat": "repro", "ph": "M",
            "pid": pid, "tid": pid,
            "args": {"schema_version": 2, "created_unix": float(pid), **run},
        }
        for pid, run in enumerate(runs, start=1)
    ]
    records.append(
        {"name": "serve.windows", "cat": "repro", "ph": "metric", "pid": 1,
         "ts": 1, "type": "counter", "value": 18}
    )
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


def test_summary_is_invariant_to_run_record_order(tmp_path):
    run_a = {"experiment": "serve", "config_digest": "aaaa1111bbbb2222", "argv": ["run"]}
    run_b = {"experiment": "table1", "config_digest": "cccc3333dddd4444"}
    forward = _stream(tmp_path / "forward.jsonl", [run_a, run_b])
    backward = _stream(tmp_path / "backward.jsonl", [run_b, run_a])

    rendered_forward = summarize(forward).replace(str(forward), "X")
    rendered_backward = summarize(backward).replace(str(backward), "X")
    assert rendered_forward == rendered_backward
    assert "serve.windows" in rendered_forward


def test_run_line_fields_are_sorted_and_lists_joined(tmp_path):
    path = _stream(tmp_path / "s.jsonl", [{"zeta": 1, "argv": ["a", "b"], "alpha": 2.5}])
    rendered = summarize(path)
    assert "alpha=2.5 · argv=a b · zeta=1" in rendered


def test_trace_summary_breaks_duration_ties_by_name(tmp_path):
    trace = tmp_path / "trace.jsonl"
    events = [
        {"ph": "X", "name": name, "dur": 1000.0, "pid": 1}
        for name in ("zeta", "alpha", "mid")
    ]
    trace.write_text("\n".join(json.dumps(e) for e in events) + "\n")
    rendered = summarize(trace)
    rows = [line for line in rendered.splitlines() if "1.000" in line]
    names = [row.split()[0] for row in rows]
    assert names == ["alpha", "mid", "zeta"]
