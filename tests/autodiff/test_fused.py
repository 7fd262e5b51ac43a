"""Fused kernels vs their composite reference twins.

The fused forwards mirror the composite op sequences operation for
operation, so in float64 they must be *bitwise* identical; the backwards
are closed-form rewrites of the same chain rule and are pinned to
round-off tolerance plus finite differences.
"""

import numpy as np
import pytest

from repro.autodiff import (
    Tensor,
    default_dtype,
    fused_kernels,
    fused_kernels_enabled,
    get_default_dtype,
    set_default_dtype,
)
from repro.autodiff import functional as F
from repro.autodiff import fused


def _composite(op, *args, **kwargs):
    with fused_kernels(False):
        return op(*args, **kwargs)


def _fused(op, *args, **kwargs):
    with fused_kernels(True):
        return op(*args, **kwargs)


def _grad_of(op, make_args, weights):
    """Run op under the current kernel selection; return (out, input grads)."""
    tensors = make_args()
    out = (op(*tensors) * Tensor(weights)).sum()
    out.backward()
    return tensors


class TestKernelToggle:
    def test_enabled_by_default(self):
        assert fused_kernels_enabled()

    def test_context_restores(self):
        with fused_kernels(False):
            assert not fused_kernels_enabled()
            with fused_kernels(True):
                assert fused_kernels_enabled()
            assert not fused_kernels_enabled()
        assert fused_kernels_enabled()


@pytest.mark.parametrize("shape", [(5, 7), (2, 3, 8)])
class TestForwardBitIdentity:
    """float64 fused forwards are byte-for-byte the composite outputs."""

    def test_softmax(self, rng, shape):
        x = rng.normal(size=shape)
        a = _composite(F.softmax, Tensor(x), axis=-1).numpy()
        b = _fused(F.softmax, Tensor(x), axis=-1).numpy()
        np.testing.assert_array_equal(a, b)

    def test_log_softmax(self, rng, shape):
        x = rng.normal(size=shape)
        a = _composite(F.log_softmax, Tensor(x), axis=-1).numpy()
        b = _fused(F.log_softmax, Tensor(x), axis=-1).numpy()
        np.testing.assert_array_equal(a, b)

    def test_gelu(self, rng, shape):
        x = rng.normal(size=shape)
        a = _composite(F.gelu, Tensor(x)).numpy()
        b = _fused(F.gelu, Tensor(x)).numpy()
        np.testing.assert_array_equal(a, b)

    def test_layer_norm(self, rng, shape):
        x = rng.normal(size=shape)
        w = rng.normal(size=shape[-1])
        c = rng.normal(size=shape[-1])
        a = _composite(F.layer_norm, Tensor(x), Tensor(w), Tensor(c)).numpy()
        b = _fused(F.layer_norm, Tensor(x), Tensor(w), Tensor(c)).numpy()
        np.testing.assert_array_equal(a, b)


class TestBackwardAgreement:
    """Closed-form fused backwards agree with the composite graph grads."""

    def _compare_grads(self, op, arrays, weights, atol=1e-12):
        grads = {}
        for enabled in (False, True):
            with fused_kernels(enabled):
                tensors = [Tensor(a, requires_grad=True) for a in arrays]
                (op(*tensors) * Tensor(weights)).sum().backward()
                grads[enabled] = [t.grad.copy() for t in tensors]
        for ref, fast in zip(grads[False], grads[True]):
            np.testing.assert_allclose(fast, ref, atol=atol, rtol=1e-10)

    def test_softmax_backward(self, rng):
        x = rng.normal(size=(4, 6))
        self._compare_grads(
            lambda t: F.softmax(t, axis=-1), [x], rng.normal(size=(4, 6))
        )

    def test_log_softmax_backward(self, rng):
        x = rng.normal(size=(4, 6))
        self._compare_grads(
            lambda t: F.log_softmax(t, axis=-1), [x], rng.normal(size=(4, 6))
        )

    def test_gelu_backward(self, rng):
        x = rng.normal(size=(3, 5))
        self._compare_grads(F.gelu, [x], rng.normal(size=(3, 5)))

    def test_layer_norm_backward(self, rng):
        x = rng.normal(size=(3, 8))
        w = rng.normal(size=8)
        b = rng.normal(size=8)
        self._compare_grads(F.layer_norm, [x, w, b], rng.normal(size=(3, 8)))

    def test_softmax_gradcheck(self, gradcheck, rng):
        weights = rng.normal(size=(3, 4))
        with fused_kernels(True):
            gradcheck(
                lambda t: (F.softmax(t, axis=-1) * Tensor(weights)).sum(),
                rng.normal(size=(3, 4)),
            )

    def test_layer_norm_gradcheck(self, gradcheck, rng):
        w = Tensor(rng.normal(size=6))
        b = Tensor(rng.normal(size=6))
        weights = rng.normal(size=(4, 6))
        with fused_kernels(True):
            gradcheck(
                lambda t: (F.layer_norm(t, w, b) * Tensor(weights)).sum(),
                rng.normal(size=(4, 6)),
            )

    def test_gelu_gradcheck(self, gradcheck, rng):
        with fused_kernels(True):
            gradcheck(lambda t: F.gelu(t).sum(), rng.normal(size=(5, 3)))


def _composite_attention(qkv, heads, scale, mask=None):
    """The reference graph the kernel replaces: slice, split heads,
    scores, scale, mask, softmax, P·V, merge."""
    batch, seq, width = qkv.shape
    d_model = width // 3

    def split(x):
        return x.reshape(batch, seq, heads, d_model // heads).transpose(0, 2, 1, 3)

    q, k, v = (split(qkv[..., i * d_model : (i + 1) * d_model]) for i in range(3))
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = scores + Tensor(mask)
    with fused_kernels(False):
        context = F.softmax(scores, axis=-1) @ v
    return context.transpose(0, 2, 1, 3).reshape(batch, seq, d_model)


# (batch, seq, d_model, heads): the second has seq not a multiple of head_dim.
ATTENTION_SHAPES = [(2, 7, 16, 2), (3, 10, 12, 3)]


class TestAttentionKernel:
    """The blocked packed-QKV attention kernel vs the composite graph."""

    @pytest.mark.parametrize("shape", ATTENTION_SHAPES)
    def test_forward_bit_identical(self, rng, shape):
        batch, seq, d_model, heads = shape
        qkv = rng.normal(size=(batch, seq, 3 * d_model))
        expected = _composite_attention(Tensor(qkv), heads, 0.25).numpy()
        actual = fused.attention(Tensor(qkv), heads, 0.25).numpy()
        np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("shape", ATTENTION_SHAPES)
    def test_forward_with_mask_bit_identical(self, rng, shape):
        batch, seq, d_model, heads = shape
        qkv = rng.normal(size=(batch, seq, 3 * d_model))
        mask = np.where(rng.random((batch, 1, seq, seq)) < 0.3, -1e9, 0.0)
        expected = _composite_attention(Tensor(qkv), heads, 0.5, mask).numpy()
        actual = fused.attention(Tensor(qkv), heads, 0.5, mask=mask).numpy()
        np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("shape", ATTENTION_SHAPES)
    def test_backward_agrees_with_composite(self, rng, shape):
        batch, seq, d_model, heads = shape
        qkv = rng.normal(size=(batch, seq, 3 * d_model))
        mask = np.where(rng.random((batch, 1, seq, seq)) < 0.3, -1e9, 0.0)
        weights = rng.normal(size=(batch, seq, d_model))
        grads = []
        for op in (_composite_attention, fused.attention):
            t = Tensor(qkv, requires_grad=True)
            (op(t, heads, 0.25, mask) * Tensor(weights)).sum().backward()
            grads.append(t.grad)
        np.testing.assert_allclose(grads[1], grads[0], atol=1e-12, rtol=1e-10)

    def test_gradcheck(self, gradcheck, rng):
        weights = rng.normal(size=(2, 5, 4))
        gradcheck(
            lambda t: (fused.attention(t, 2, 0.3) * Tensor(weights)).sum(),
            rng.normal(size=(2, 5, 12)),
        )

    def test_incoming_grad_not_mutated(self, rng):
        # The backward must never write through the incoming gradient —
        # with borrow-store accumulation it may be another node's .grad.
        qkv = Tensor(rng.normal(size=(2, 4, 24)), requires_grad=True)
        out = fused.attention(qkv, 2, 0.5)
        seed = rng.normal(size=out.shape)
        expected = seed.copy()
        out.backward(seed)
        np.testing.assert_array_equal(seed, expected)


class TestDtypePolicy:
    """float32 graphs stay float32 through every fused and composite op."""

    def test_default_dtype_context(self):
        assert get_default_dtype() == np.float64
        with default_dtype(np.float32):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0]).data.dtype == np.float32
        assert get_default_dtype() == np.float64

    def test_set_default_dtype_rejects_ints(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)

    @pytest.mark.parametrize("enabled", [False, True])
    def test_ops_preserve_float32(self, rng, enabled):
        x = Tensor(rng.normal(size=(3, 6)), dtype=np.float32, requires_grad=True)
        w = Tensor(rng.normal(size=6), dtype=np.float32)
        b = Tensor(rng.normal(size=6), dtype=np.float32)
        with fused_kernels(enabled):
            for out in (
                F.softmax(x, axis=-1),
                F.log_softmax(x, axis=-1),
                F.gelu(x),
                F.layer_norm(x, w, b),
            ):
                assert out.data.dtype == np.float32
                out.sum().backward()
                assert x.grad.dtype == np.float32
                x.zero_grad()

    def test_attention_kernel_preserves_float32(self, rng):
        qkv = Tensor(rng.normal(size=(2, 5, 24)), dtype=np.float32, requires_grad=True)
        mask = np.where(rng.random((2, 1, 5, 5)) < 0.3, -1e9, 0.0)  # float64
        out = fused.attention(qkv, 2, 0.5, mask=mask)
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert qkv.grad.dtype == np.float32

    def test_dropout_preserves_float32(self, rng):
        from repro.nn.layers import Dropout

        layer = Dropout(0.5, seed=0)
        layer.train()
        out = layer(Tensor(rng.normal(size=(4, 4)), dtype=np.float32))
        assert out.data.dtype == np.float32

    def test_float32_forward_close_to_float64(self, rng):
        x = rng.normal(size=(4, 8))
        exact = F.softmax(Tensor(x), axis=-1).numpy()
        approx = F.softmax(Tensor(x, dtype=np.float32), axis=-1).numpy()
        np.testing.assert_allclose(approx, exact, atol=1e-6)


class TestGradBufferReuse:
    def test_buffer_reused_across_backwards(self, rng):
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        (x * x).sum().backward()
        first = x.grad
        x.zero_grad()
        (x * x).sum().backward()
        assert x.grad is first  # same buffer, refilled
        np.testing.assert_allclose(x.grad, 2 * x.numpy())

    def test_buffer_dropped_on_dtype_change(self, rng):
        from repro.nn.layers import Linear

        layer = Linear(4, 2, seed=0)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        out.sum().backward()
        layer.to_dtype(np.float32)
        assert layer.weight.grad is None
        out = layer(Tensor(rng.normal(size=(5, 4)), dtype=np.float32))
        out.sum().backward()
        assert layer.weight.grad.dtype == np.float32
