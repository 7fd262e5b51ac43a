"""Packed single-GEMM Q/K/V attention vs the three-GEMM reference path.

With fused kernels enabled and attention dropout inactive,
self-attention concatenates the Q/K/V weight matrices, runs one GEMM and
hands the packed result to the blocked ``fused.attention`` kernel, which
walks one (batch, head) score block at a time with the composite's op
order.  The forward is bitwise the reference output; gradients, written
straight into one packed dQ/dK/dV array, agree to round-off.
"""

import tracemalloc

import numpy as np

from repro.autodiff import Tensor, fused_kernels, no_grad
from repro.nn import MultiHeadAttention, TransformerEncoder


class TestPackedQkv:
    def test_forward_bitwise_identical(self, rng):
        attn = MultiHeadAttention(16, 4, seed=0)
        x = rng.normal(size=(2, 7, 16))
        with fused_kernels(False):
            reference = attn(Tensor(x)).numpy()
        with fused_kernels(True):
            packed = attn(Tensor(x)).numpy()
        np.testing.assert_array_equal(packed, reference)

    def test_cross_attention_unaffected(self, rng):
        # key is not query: the packed path must not engage.
        attn = MultiHeadAttention(8, 2, seed=0)
        q, kv = rng.normal(size=(1, 3, 8)), rng.normal(size=(1, 6, 8))
        with fused_kernels(False):
            reference = attn(Tensor(q), key=Tensor(kv)).numpy()
        with fused_kernels(True):
            packed = attn(Tensor(q), key=Tensor(kv)).numpy()
        np.testing.assert_array_equal(packed, reference)

    def test_active_dropout_falls_back_to_composite(self, rng):
        # Dropout on the probabilities needs the full score tensor, so the
        # kernel must not engage; both selections draw the same masks.
        x = rng.normal(size=(2, 6, 16))
        outputs = []
        for enabled in (True, False):
            attn = MultiHeadAttention(16, 4, dropout=0.1, seed=0)
            attn.train()
            with fused_kernels(enabled):
                outputs.append(attn(Tensor(x)).numpy())
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_gradients_agree(self, rng):
        x = rng.normal(size=(2, 5, 16))
        grads = {}
        for enabled in (False, True):
            attn = MultiHeadAttention(16, 4, seed=0)
            with fused_kernels(enabled):
                inp = Tensor(x, requires_grad=True)
                attn(inp).sum().backward()
            grads[enabled] = {
                "x": inp.grad.copy(),
                **{
                    name: proj.weight.grad.copy()
                    for name, proj in (
                        ("q", attn.q_proj),
                        ("k", attn.k_proj),
                        ("v", attn.v_proj),
                        ("o", attn.out_proj),
                    )
                },
            }
        for name in grads[True]:
            np.testing.assert_allclose(
                grads[True][name], grads[False][name], atol=1e-12, rtol=1e-10
            )

    def test_encoder_forward_bitwise_identical(self, rng):
        encoder = TransformerEncoder(
            num_layers=2, d_model=16, num_heads=4, d_ff=32, seed=0
        )
        x = rng.normal(size=(2, 9, 16))
        with fused_kernels(False):
            reference = encoder(Tensor(x)).numpy()
        with fused_kernels(True):
            fast = encoder(Tensor(x)).numpy()
        np.testing.assert_array_equal(fast, reference)

    def test_encoder_float32_close_to_float64(self, rng):
        encoder = TransformerEncoder(
            num_layers=1, d_model=16, num_heads=2, d_ff=32, seed=0
        )
        x = rng.normal(size=(1, 6, 16))
        exact = encoder(Tensor(x)).numpy()
        encoder.to_dtype(np.float32)
        approx = encoder(Tensor(x, dtype=np.float32)).numpy()
        assert approx.dtype == np.float32
        np.testing.assert_allclose(approx, exact, atol=1e-5)


def test_no_grad_forward_never_holds_a_full_score_tensor(rng):
    # Only one (seq, seq) block is live per layer when no gradient is
    # needed; the whole (batch, heads, seq, seq) float32 score array is
    # 11.5 MB at this shape, which the composite graph held several of.
    batch, seq, d_model, heads = 8, 300, 32, 4
    encoder = TransformerEncoder(
        num_layers=2, d_model=d_model, num_heads=heads, d_ff=64, seed=0
    )
    encoder.to_dtype(np.float32)
    x = Tensor(rng.normal(size=(batch, seq, d_model)), dtype=np.float32)
    score_bytes = batch * heads * seq * seq * np.dtype(np.float32).itemsize
    with fused_kernels(True), no_grad():
        tracemalloc.start()
        try:
            encoder(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < score_bytes, f"peak {peak / 1e6:.1f} MB"
