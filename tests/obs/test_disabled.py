"""Observability is strictly opt-in: default paths run zero obs code.

The acceptance bound is "<2% overhead on bench_simspeed with the flags
off".  The strong form proven here is structural: with no obs flag, the
dispatchers return shared no-op singletons, no :mod:`repro.obs`
submodule is ever imported (so no writer/registry/profiler can exist),
and no artifact file is created.  A lenient timing check pins the
disabled dispatcher at sub-microsecond cost — and the hot paths make
O(1) obs calls per simulation *run* (never per bin or step), so the
bench_simspeed overhead is a handful of dict lookups.
"""

from __future__ import annotations

import subprocess
import sys
import time

import repro.obs as obs


class TestDisabledIsNoop:
    def test_disabled_dispatchers_return_shared_singletons(self):
        assert not obs.enabled()
        assert obs.span("a") is obs.span("b", key=1)
        assert obs.counter("a") is obs.histogram("b")
        assert obs.gauge("a") is obs.series("b")
        # And the no-ops accept the full live API.
        with obs.span("x") as span:
            span.annotate(status="sat")
        obs.counter("x").inc(3)
        obs.histogram("x").observe(1.0)
        obs.series("x").append(1.0)
        obs.gauge("x").set(1.0)
        # The event and live-section dispatchers are plain no-op returns.
        assert obs.event("backpressure", shard=0) is None
        assert obs.live_section("health", {"0": "live"}) is None
        assert not obs.profiling_enabled()

    def test_import_repro_never_imports_obs_submodules(self):
        # Run in a fresh interpreter: importing the package and every
        # instrumented module must not pull in the stream/fold/profile
        # machinery (repro.obs itself is a stdlib-only flag holder).
        code = (
            "import sys\n"
            "import repro\n"
            "import repro.switchsim.simulation\n"
            "import repro.switchsim.cache\n"
            "import repro.imputation.trainer\n"
            "import repro.eval.table1\n"
            "import repro.eval.parallel\n"
            "import repro.smt.solver\n"
            "import repro.obs\n"
            "repro.obs.event('backpressure', shard=0)\n"
            "repro.obs.live_section('health', {})\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.obs.')]\n"
            "assert not loaded, f'eagerly imported: {loaded}'\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_no_flags_no_files(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "trace.npz"
        assert (
            main(
                [
                    "run", "simulate",
                    "--set", "scenario.duration_bins=300",
                    "--out", str(out),
                ]
            )
            == 0
        )
        created = {p.name for p in tmp_path.iterdir()}
        assert created == {"trace.npz"}, created
        assert not obs.enabled()

    def test_disabled_dispatch_cost_is_negligible(self):
        # 50k span+counter round trips; generous bound (~2 us/call) that
        # still pins the disabled path at "a dict lookup and a return".
        n = 50_000
        start = time.perf_counter()
        for _ in range(n):
            with obs.span("hot"):
                pass
            obs.counter("hot").inc()
        elapsed = time.perf_counter() - start
        assert elapsed < n * 4e-6, f"{elapsed / n * 1e6:.2f} us per call"
