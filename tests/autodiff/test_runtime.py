"""Runtime tuning contexts: scoped, restored on exit, harmless when absent."""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.autodiff import runtime
from repro.autodiff.runtime import (
    blas_threads,
    blas_threads_unavailable,
    large_alloc_reuse,
)
from repro.obs.fold import fold


class TestLargeAllocReuse:
    def test_context_enters_and_exits(self):
        with large_alloc_reuse() as active:
            assert active in (True, False)  # False only on non-glibc
            # Allocation patterns inside the context behave normally.
            arrays = [np.zeros(1_000_000) for _ in range(3)]
            assert all(a.sum() == 0.0 for a in arrays)

    def test_nesting_is_safe(self):
        with large_alloc_reuse():
            with large_alloc_reuse():
                buf = np.ones(2_000_000)
            assert buf.sum() == 2_000_000.0

    def test_exception_still_restores(self):
        try:
            with large_alloc_reuse():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        # Allocator still serves requests after restore.
        assert np.arange(1_000_000).dtype == np.int64


@pytest.fixture()
def fresh_stamp(monkeypatch):
    """Let this test's trace receive the once-per-process header stamp."""
    monkeypatch.setattr(runtime, "_HEADER_STAMPED", False)
    yield
    obs.finish()


def _simulate_missing_symbols(monkeypatch, reason="simulated: symbol absent"):
    missing = runtime._BlasControl(None, None, reason)
    monkeypatch.setattr(runtime, "_openblas", lambda: missing)
    return reason


class TestBlasThreads:
    def test_one_thread_inside_prior_count_after(self, blas_count):
        ambient = blas_count()
        with blas_threads(1) as active:
            assert active is True
            assert blas_count() == 1
        assert blas_count() == ambient

    def test_exception_still_restores(self, blas_count):
        with blas_threads(2):
            with pytest.raises(RuntimeError, match="boom"):
                with blas_threads(1):
                    raise RuntimeError("boom")
            assert blas_count() == 2

    def test_nesting_restores_outer_value(self, blas_count):
        with blas_threads(1):
            with blas_threads(2):
                assert blas_count() == 2
                with blas_threads(1):
                    assert blas_count() == 1
                assert blas_count() == 2
            assert blas_count() == 1

    def test_lookup_finds_the_controls(self, blas_count):
        assert blas_threads_unavailable() is None

    def test_missing_symbols_are_a_recorded_noop(self, blas_count, monkeypatch):
        ambient = blas_count()
        reason = _simulate_missing_symbols(monkeypatch)
        with blas_threads(1) as active:
            assert active is False
            assert blas_count() == ambient
        assert blas_threads_unavailable() == reason
        assert blas_count() == ambient


class TestBlasThreadsHeader:
    def test_cap_stamped_into_run_header_once(self, tmp_path, fresh_stamp, blas_count):
        path = tmp_path / "t.jsonl"
        obs.configure(trace=path, header={"command": "test"})
        for _ in range(3):
            with blas_threads(1):
                pass
        obs.finish()
        (run,) = fold(path)["runs"]
        assert run == {"command": "test", "blas_threads": 1}
        assert path.read_text().count('"blas_threads"') == 1

    def test_noop_reason_stamped(self, tmp_path, fresh_stamp, monkeypatch):
        reason = _simulate_missing_symbols(monkeypatch)
        path = tmp_path / "t.jsonl"
        obs.configure(trace=path)
        with blas_threads(1):
            pass
        obs.finish()
        (run,) = fold(path)["runs"]
        assert run == {"blas_threads_unavailable": reason}

    def test_no_stamp_while_the_stream_is_off(self, fresh_stamp):
        with blas_threads(1):
            pass
        assert runtime._HEADER_STAMPED is False
