"""TraceCache: key stability, invalidation, round-trip, zero-step hits."""

from __future__ import annotations

import numpy as np
import pytest

import repro.switchsim.cache as cache_mod
from repro.eval.scenarios import (
    generate_trace,
    quick_scenario,
    trace_cache_params,
)
from repro.switchsim import Simulation, TraceCache
from repro.switchsim.cache import trace_key

FIELDS = ("qlen", "qlen_max", "received", "sent", "dropped", "delay_sum", "buffer_occupancy")


class TestTraceKey:
    def test_stable_across_calls_and_equivalent_encodings(self):
        params = {"a": 1, "b": (1, 2), "c": {"x": 0.5}}
        assert trace_key(params) == trace_key(params)
        # Tuples/lists/arrays and numpy scalars canonicalise identically.
        assert trace_key({"a": 1, "b": [1, 2], "c": {"x": 0.5}}) == trace_key(params)
        assert trace_key({"a": np.int64(1), "b": np.array([1, 2]), "c": {"x": np.float64(0.5)}}) == trace_key(params)
        # Key order must not matter.
        assert trace_key({"c": {"x": 0.5}, "b": (1, 2), "a": 1}) == trace_key(params)

    def test_sensitive_to_params_and_seed(self):
        cfg = quick_scenario()
        base = trace_cache_params(cfg, 0)
        assert trace_key(base) != trace_key(trace_cache_params(cfg, 1))
        bigger = quick_scenario().__class__(**{**base["scenario"], "buffer_capacity": 81})
        assert trace_key(base) != trace_key(trace_cache_params(bigger, 0))

    def test_version_bump_invalidates(self, monkeypatch):
        params = {"a": 1}
        before = trace_key(params)
        monkeypatch.setattr(cache_mod, "TRACE_CACHE_VERSION", cache_mod.TRACE_CACHE_VERSION + 1)
        assert trace_key(params) != before

    def test_rejects_unencodable_values(self):
        with pytest.raises(TypeError):
            trace_key({"fn": lambda: None})


class TestTraceCache:
    def test_roundtrip_bit_identical(self, tmp_path):
        cfg = quick_scenario()
        cache = TraceCache(tmp_path)
        trace = generate_trace(cfg, seed=5, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
        again = generate_trace(cfg, seed=5, cache=cache)
        assert cache.hits == 1
        for field in FIELDS:
            assert (getattr(trace, field) == getattr(again, field)).all(), field
        assert again.steps_per_bin == trace.steps_per_bin
        assert again.config.num_ports == cfg.num_ports

    def test_cached_rerun_performs_zero_simulation_steps(self, tmp_path, monkeypatch):
        cfg = quick_scenario()
        cache = TraceCache(tmp_path)
        generate_trace(cfg, seed=2, cache=cache)

        def boom(self, num_bins):  # a hit must never reach the simulator
            raise AssertionError("simulation ran despite cache hit")

        monkeypatch.setattr(Simulation, "run", boom)
        trace = generate_trace(cfg, seed=2, cache=cache)
        assert cache.hits == 1
        assert trace.num_bins == cfg.duration_bins

    def test_corrupt_entry_is_a_miss_and_repaired(self, tmp_path):
        cfg = quick_scenario()
        cache = TraceCache(tmp_path)
        trace = generate_trace(cfg, seed=1, cache=cache)
        path = cache.path_for(trace_cache_params(cfg, 1))
        path.write_bytes(b"not an npz archive")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            again = generate_trace(cfg, seed=1, cache=cache)
        assert cache.hits == 0 and cache.misses == 2 and cache.stores == 2
        for field in FIELDS:
            assert (getattr(trace, field) == getattr(again, field)).all(), field
        # The overwrite repaired the entry.
        assert generate_trace(cfg, seed=1, cache=cache) is not None
        assert cache.hits == 1

    def test_corrupt_entry_is_quarantined_not_deleted(self, tmp_path):
        """The bad file moves to <root>/quarantine for diagnosis."""
        cfg = quick_scenario()
        cache = TraceCache(tmp_path)
        generate_trace(cfg, seed=4, cache=cache)
        path = cache.path_for(trace_cache_params(cfg, 4))
        path.write_bytes(b"bit rot")
        with pytest.warns(RuntimeWarning, match="quarantine"):
            assert cache.get(trace_cache_params(cfg, 4)) is None
        assert cache.quarantined == 1
        assert not path.exists()
        quarantined = cache.quarantine_dir / path.name
        assert quarantined.exists()
        assert quarantined.read_bytes() == b"bit rot"

    def test_truncated_entry_is_quarantined(self, tmp_path):
        """A half-written archive (BadZipFile, not ValueError) also heals."""
        cfg = quick_scenario()
        cache = TraceCache(tmp_path)
        trace = generate_trace(cfg, seed=6, cache=cache)
        path = cache.path_for(trace_cache_params(cfg, 6))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        with pytest.warns(RuntimeWarning):
            again = generate_trace(cfg, seed=6, cache=cache)
        assert cache.quarantined == 1 and cache.stores == 2
        for field in FIELDS:
            assert (getattr(trace, field) == getattr(again, field)).all(), field

    def test_quarantined_files_do_not_count_as_entries(self, tmp_path):
        cfg = quick_scenario()
        cache = TraceCache(tmp_path)
        generate_trace(cfg, seed=1, cache=cache)
        generate_trace(cfg, seed=2, cache=cache)
        cache.path_for(trace_cache_params(cfg, 1)).write_bytes(b"junk")
        with pytest.warns(RuntimeWarning):
            cache.get(trace_cache_params(cfg, 1))
        assert len(cache) == 1  # the healthy entry only
        assert cache.clear() == 1  # clear() leaves quarantine alone
        assert (cache.quarantine_dir / cache.path_for(
            trace_cache_params(cfg, 1)
        ).name).exists()

    def test_generator_seed_bypasses_cache(self, tmp_path):
        cfg = quick_scenario()
        cache = TraceCache(tmp_path)
        generate_trace(cfg, seed=np.random.default_rng(0), cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, 0, 0)
        assert len(cache) == 0

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        cache = TraceCache()
        assert cache.root == tmp_path / "traces"

    def test_clear(self, tmp_path):
        cfg = quick_scenario()
        cache = TraceCache(tmp_path)
        generate_trace(cfg, seed=1, cache=cache)
        generate_trace(cfg, seed=2, cache=cache)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestCacheStats:
    def test_cache_stats_tracks_lifetime_counters(self, tmp_path):
        cfg = quick_scenario()
        cache = TraceCache(tmp_path)
        assert cache.cache_stats() == {
            "hits": 0, "misses": 0, "stores": 0, "quarantined": 0,
        }
        generate_trace(cfg, seed=4, cache=cache)  # miss + store
        generate_trace(cfg, seed=4, cache=cache)  # hit
        stats = cache.cache_stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) == (1, 1, 1)
        assert stats["quarantined"] == 0
        # The accessor returns a copy, not live state.
        stats["hits"] = 99
        assert cache.hits == 1

    def test_cache_counters_stream_into_metrics_registry(self, tmp_path):
        import repro.obs as obs
        from repro.obs.fold import fold

        stream_path = tmp_path / "stream.jsonl"
        obs.configure(trace=stream_path)
        try:
            cfg = quick_scenario()
            cache = TraceCache(tmp_path / "traces")
            generate_trace(cfg, seed=4, cache=cache)
            generate_trace(cfg, seed=4, cache=cache)
        finally:
            obs.finish()
        metrics = fold(stream_path)["metrics"]
        assert metrics["cache.misses"]["value"] == 1
        assert metrics["cache.hits"]["value"] == 1
        assert metrics["cache.stores"]["value"] == 1
