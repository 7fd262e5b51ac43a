"""Stream validation against a checked-in, dependency-free schema.

The schema file (``tests/corpus/obs_trace.schema.json``) declares, in a
small JSON-Schema-like dialect interpreted here (no ``jsonschema``
dependency), what every record of a repro stream must look like:

* ``event.required`` — keys every record must carry;
* ``event.properties`` — per-key ``type`` (``string`` / ``integer`` /
  ``number`` / ``object`` / ``array``), optional ``const``, ``enum``,
  ``minimum``;
* ``event.additionalProperties: false`` — unknown keys are errors;
* ``event.phase_required`` — extra required keys per ``ph`` value;
* ``event.phase_properties`` — extra per-key rules per ``ph`` value
  (the ``i`` records' ``name`` enum is the closed event vocabulary);
* ``file.require_header`` / ``file.header_name`` — at least one header
  metadata event whose args carry ``schema_version``;
* ``file.min_events`` — the file must not be empty.

:func:`validate_trace` returns a list of human-readable error strings
(empty means valid); the CLI (``repro obs validate``) and the CI
``obs-smoke`` job exit non-zero on any error.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.obs.fold import read_records

_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
}


def load_schema(path: "str | os.PathLike[str]") -> dict[str, Any]:
    schema = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(schema, dict) or "event" not in schema:
        raise ValueError(f"{path}: not a trace schema document")
    return schema


def _check_event(
    index: int, event: dict[str, Any], rules: dict[str, Any]
) -> list[str]:
    errors: list[str] = []
    where = f"event {index}"
    for key in rules.get("required", []):
        if key not in event:
            errors.append(f"{where}: missing required key {key!r}")
    properties = rules.get("properties", {})
    phase = event.get("ph")
    for key, value in event.items():
        spec = properties.get(key)
        if spec is None:
            if rules.get("additionalProperties") is False:
                errors.append(f"{where}: unknown key {key!r}")
            continue
        spec = {**spec, **rules.get("phase_properties", {}).get(phase, {}).get(key, {})}
        expected = spec.get("type")
        if expected is not None and not _TYPE_CHECKS[expected](value):
            errors.append(
                f"{where}: key {key!r} expected {expected}, "
                f"got {type(value).__name__}"
            )
            continue
        if "const" in spec and value != spec["const"]:
            errors.append(
                f"{where}: key {key!r} must equal {spec['const']!r}, got {value!r}"
            )
        if "enum" in spec and value not in spec["enum"]:
            errors.append(
                f"{where}: key {key!r} must be one of {spec['enum']!r}, "
                f"got {value!r}"
            )
        if "minimum" in spec and isinstance(value, (int, float)):
            if value < spec["minimum"]:
                errors.append(
                    f"{where}: key {key!r} below minimum "
                    f"{spec['minimum']!r}: {value!r}"
                )
    for key in rules.get("phase_required", {}).get(phase, []):
        if key not in event:
            errors.append(
                f"{where}: ph={phase!r} events require key {key!r}"
            )
    return errors


def validate_trace(
    trace_path: "str | os.PathLike[str]",
    schema_path: "str | os.PathLike[str]",
) -> list[str]:
    """Validate a record stream; return error strings (empty = valid)."""
    schema = load_schema(schema_path)
    try:
        events = read_records(trace_path)
    except (OSError, ValueError) as exc:
        return [str(exc)]

    errors: list[str] = []
    file_rules = schema.get("file", {})
    if len(events) < file_rules.get("min_events", 0):
        errors.append(
            f"{trace_path}: {len(events)} events, expected at least "
            f"{file_rules['min_events']}"
        )
    event_rules = schema.get("event", {})
    for index, event in enumerate(events):
        errors.extend(_check_event(index, event, event_rules))

    if file_rules.get("require_header"):
        header_name = file_rules.get("header_name", "repro_trace_header")
        headers = [
            e
            for e in events
            if e.get("ph") == "M" and e.get("name") == header_name
        ]
        if not headers:
            errors.append(
                f"{trace_path}: no {header_name!r} metadata event found"
            )
        elif not any(
            isinstance(h.get("args"), dict) and "schema_version" in h["args"]
            for h in headers
        ):
            errors.append(
                f"{trace_path}: no {header_name!r} event carries a "
                f"schema_version"
            )
    return errors
