#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_fleet --seed 0 --seconds 30 --trace 0

Run from the repository root; the program under test is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` is the separate traced run that prints the
per-layer metrics (see ``perfbench/README.md``).  ``--workload all`` runs
every workload in turn, each in its own process.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; its metrics are those
``BENCHMARK.json`` lists for the trace mode, the same for every workload.
Exit codes: 0 when every check passed, 1 when a correctness check failed
(no metric is published), 2 when the program under test or the manifest
cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_fleet", "train_kal", "simulate")
#: Seed kept out of every run made while the benchmark or a change was
#: tuned; a claimed gain must also hold on it.
HELD_OUT_SEED = 1009
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(child.stdout)
        code = max(code, child.returncode)
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):  # no result line: the child broke
            return child.returncode or 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    if not combined["correct"]:
        combined["metrics"] = {}
    print(json.dumps(combined))
    return code


def _match_manifest(outcome, listed: list[dict], trace: int) -> None:
    """Put ``outcome``'s metrics in the manifest's order and units.

    Every workload reports every listed metric.  A layer the workload never
    enters reads 0 in the traced run; a missing end-to-end metric, or a
    metric or unit the manifest does not list, is a fault of the benchmark.
    """
    if not outcome.correct:
        return
    measured = dict(outcome.metrics)
    outcome.metrics.clear()
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        value, got = measured.pop(name, (0.0, unit) if trace else (None, unit))
        if value is None:
            outcome.problem(f"benchmark fault: end-to-end metric {name} not measured")
        elif got != unit:
            outcome.problem(f"benchmark fault: {name} measured in {got}, listed in {unit}")
        else:
            outcome.metric(name, value, unit)
    for name in measured:
        outcome.problem(f"benchmark fault: metric {name} is not in BENCHMARK.json")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    # BLAS threads are capped at the CPUs this process may use; this has
    # to happen before numpy is first imported.
    nproc = len(os.sched_getaffinity(0))
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(nproc)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    # The checkout root (for ``perfbench.*``) and its sources replace the
    # script directory, so benchmark modules never shadow other imports.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    import numpy as np

    workload = importlib.import_module(f"perfbench.{args.workload}")
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    _match_manifest(outcome, manifest["per_layer" if args.trace else "end_to_end"], args.trace)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "blas_threads": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print("env " + json.dumps(env))
    print("notes " + json.dumps(outcome.notes, default=str))
    if outcome.correct:
        for name, (value, unit) in outcome.metrics.items():
            print(f"  {name:<32} {value:14.6g} {unit}")
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        }
        if outcome.correct
        else {},
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
