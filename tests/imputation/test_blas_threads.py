"""One BLAS thread for the optimized runtime: same bytes at any ambient count.

The optimized runtime (fused kernels on) runs the model's GEMMs on one
OpenBLAS thread, in training (``Trainer._compute_context``) and in
inference (``TransformerImputer.impute_batch``, which ``impute`` goes
through).  OpenBLAS does not promise the same rounding at every thread
count: on a 2-CPU x86-64 box the float64 encoder forward differs in the
last bits between 1 and 2 threads (the 300×8 @ 8×300 score product),
while float32 matches.  So the pins are:

* raw GEMMs at 1 thread and at other counts agree to round-off;
* the capped runtime's outputs (a no-grad forward, a KAL step's
  gradients) are byte-identical whatever the ambient count is, in
  float32 and float64;
* single and batched imputation stay byte-identical at the served shape;
* the cap is entered under fused kernels only and restored afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, fused_kernels, no_grad
from repro.autodiff.runtime import blas_threads
from repro.imputation import Trainer, TrainerConfig, TransformerImputer
from repro.imputation.transformer_imputer import TransformerConfig
from repro.nn import TransformerEncoder
from repro.telemetry import build_dataset

DTYPES = ["float32", "float64"]


@pytest.fixture(scope="module")
def ambient_counts(blas_count):
    """Ambient counts to run under: 1, 2 and the process's own."""
    return sorted({1, 2, blas_count()})


@pytest.fixture(scope="module")
def served_windows(small_trace):
    """300-bin windows, as served: the score products (300×8 @ 8×300) are
    large enough for OpenBLAS to split across threads."""
    return build_dataset(small_trace, interval=25, window_intervals=12, stride_intervals=2)


def _model(dataset, dtype="float32") -> TransformerImputer:
    # Table1Config's model: d_model 32, 4 heads (head_dim 8), 2 layers.
    model = TransformerImputer(
        TransformerConfig(
            num_features=dataset.num_features,
            num_queues=dataset.num_queues,
            d_model=32,
            num_heads=4,
            num_layers=2,
            d_ff=64,
        ),
        dataset.scaler,
        seed=0,
    )
    model.to_dtype(np.dtype(dtype))
    return model


@pytest.mark.parametrize("dtype", DTYPES)
def test_raw_forward_agrees_to_round_off_across_counts(dtype, ambient_counts):
    encoder = TransformerEncoder(num_layers=2, d_model=32, num_heads=4, d_ff=64, seed=0)
    encoder.to_dtype(np.dtype(dtype))
    x = np.random.default_rng(0).normal(size=(4, 300, 32)).astype(dtype)
    outputs = []
    for threads in ambient_counts:
        with blas_threads(threads), fused_kernels(True), no_grad():
            outputs.append(encoder(Tensor(x, dtype=x.dtype)).numpy())
    atol = 1e-5 if dtype == "float32" else 1e-12
    for output in outputs[1:]:
        np.testing.assert_allclose(output, outputs[0], rtol=0, atol=atol)


@pytest.mark.parametrize("dtype", DTYPES)
class TestCappedRuntimeIgnoresAmbientCount:
    def test_no_grad_forward(self, dtype, ambient_counts, served_windows):
        model = _model(served_windows, dtype)
        samples = [served_windows[i] for i in range(4)]
        outputs = set()
        for threads in ambient_counts:
            with blas_threads(threads), fused_kernels(True):
                outputs.add(b"".join(p.tobytes() for p in model.impute_batch(samples)))
        assert len(outputs) == 1

    def test_kal_step_gradients(self, dtype, ambient_counts, served_windows):
        steps = set()
        for threads in ambient_counts:
            trainer = Trainer(
                _model(served_windows),
                served_windows,
                TrainerConfig(batch_size=8, use_kal=True, seed=0, dtype=dtype),
            )
            indices = np.arange(8)
            with blas_threads(threads), trainer._compute_context():
                result = trainer._compute_shard(indices, trainer._lambda_slices(indices))
            arrays = result["grads"] + [result["phi1"], result["phi2"], result["psi"]]
            values = np.array([result["loss"], result["base"], result["constraint"]])
            steps.add(b"".join(a.tobytes() for a in [values, *arrays]))
        assert len(steps) == 1


@pytest.mark.parametrize("dtype", DTYPES)
def test_single_and_batched_imputation_byte_identical(dtype, served_windows, blas_count):
    # Offline evaluation imputes one window at a time, serving in batches;
    # at another ambient count both must still run on the one capped count.
    model = _model(served_windows, dtype)
    samples = [served_windows[i] for i in range(4)]
    with blas_threads(2), fused_kernels(True):
        batched = model.impute_batch(samples)
        single = [model.impute(s) for s in samples]
    for one, many in zip(single, batched):
        assert one.tobytes() == many.tobytes()


class TestPlacement:
    def _spy_forward(self, monkeypatch, blas_count) -> list[int]:
        seen: list[int] = []
        forward = TransformerImputer.forward

        def spy(self, features):
            seen.append(blas_count())
            return forward(self, features)

        monkeypatch.setattr(TransformerImputer, "forward", spy)
        return seen

    def test_imputation_caps_only_under_fused_kernels(
        self, small_dataset, blas_count, monkeypatch
    ):
        model = _model(small_dataset)
        samples = [small_dataset[i] for i in range(3)]
        seen = self._spy_forward(monkeypatch, blas_count)
        with blas_threads(2):
            with fused_kernels(True):
                model.impute_batch(samples)
                model.impute(samples[0])
            assert blas_count() == 2
            with fused_kernels(False):
                model.impute_batch(samples)
                model.impute(samples[0])
            assert blas_count() == 2
        assert seen == [1, 1, 2, 2]

    @pytest.mark.parametrize("fused, expected", [(True, 1), (False, 2)])
    def test_training_caps_only_under_fused_kernels(
        self, fused, expected, small_dataset, blas_count, monkeypatch
    ):
        train, val, _ = small_dataset.split(0.7, 0.15, seed=0)
        trainer = Trainer(
            _model(small_dataset),
            train,
            TrainerConfig(epochs=1, batch_size=8, use_kal=True, fused_kernels=fused),
            val=val,
        )
        seen = self._spy_forward(monkeypatch, blas_count)
        with blas_threads(2):
            trainer.train()
            assert blas_count() == 2
        # Training batches and the per-epoch validation pass alike.
        assert len(seen) > 1 and set(seen) == {expected}
