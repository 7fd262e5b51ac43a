"""Serve shards run the model on one BLAS thread and leave the count as found.

``TransformerImputer.impute_batch`` enters ``blas_threads(1)`` under fused
kernels, so inline shards (in the service's process) and supervised
shards (forked workers) both compute on one thread, and the service's
process gets its ambient count back once the stream is drained.
"""

from __future__ import annotations

import pytest

from repro.autodiff.runtime import blas_threads
from repro.imputation.transformer_imputer import TransformerImputer
from repro.serve.service import StreamService
from repro.testing.stream import fleet_record_schedule, replay

INTERVAL = 25
WINDOW_INTERVALS = 4


@pytest.mark.parametrize("supervised", [False, True], ids=["inline", "supervised"])
def test_shards_run_capped_and_drain_restores_the_count(
    supervised, blas_count, model_f64, serve_config, serve_scaler, fleet_traces,
    tmp_path, monkeypatch,
):
    # The spy appends to a file so forked shard workers report too.
    log = tmp_path / "threads.txt"
    forward = TransformerImputer.forward

    def spy(self, features):
        with log.open("a") as handle:
            handle.write(f"{blas_count()}\n")
        return forward(self, features)

    monkeypatch.setattr(TransformerImputer, "forward", spy)
    service = StreamService(
        model_f64, serve_config, serve_scaler, INTERVAL, WINDOW_INTERVALS,
        shards=2, supervised=supervised, batch_windows=4, queue_capacity=16,
    )
    ambient = blas_count()
    with blas_threads(2):
        _, report = replay(service, fleet_record_schedule(fleet_traces, INTERVAL))
        assert blas_count() == 2
    assert blas_count() == ambient
    assert report.windows == 6 * len(fleet_traces)
    assert set(log.read_text().split()) == {"1"}
