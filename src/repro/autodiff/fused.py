"""Fused forward/backward kernels for the transformer hot path.

The composite ops in :mod:`repro.autodiff.functional` build softmax,
layer-norm and GELU out of primitive ``Tensor`` ops, so one softmax
records five graph nodes and its backward allocates five gradient
buffers.  Profiling the trainer shows that this graph overhead — not the
GEMMs — dominates wall-clock.  The kernels here compute the same
mathematical function as one graph node with a closed-form backward:

* forwards are written with the *same numpy op sequence* as the
  composites, so fused and composite forwards are bit-identical in every
  dtype;
* backwards use the standard closed-form gradients (softmax:
  ``y * (g - sum(g * y))``; layer-norm: the three-term mean/variance
  formula; GELU: the tanh-approximation derivative).  They agree with
  the composite backwards to floating-point round-off (the summation
  order differs), which the test suite pins.

Fusion is enabled by default; :func:`set_fused_kernels` /
:func:`fused_kernels` switch back to the composite reference path, which
differential tests and benchmarks use as the baseline.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.autodiff import tensor as _tensor_mod
from repro.autodiff.tensor import Tensor, _unbroadcast

_FUSED_ENABLED = True


def fused_kernels_enabled() -> bool:
    """Whether functional ops dispatch to the fused kernels."""
    return _FUSED_ENABLED


def set_fused_kernels(enabled: bool) -> None:
    """Globally enable/disable the fused kernels (reference = composite).

    The gradient-accumulation strategy switches in lockstep: disabling
    the fused kernels also restores the pre-optimization allocate-and-add
    accumulation, so the reference path measures the original execution
    end to end (see :func:`repro.autodiff.tensor.set_optimized_accumulation`).
    """
    global _FUSED_ENABLED
    _FUSED_ENABLED = bool(enabled)
    _tensor_mod.set_optimized_accumulation(_FUSED_ENABLED)


@contextlib.contextmanager
def fused_kernels(enabled: bool):
    """Context manager scoping :func:`set_fused_kernels`."""
    previous = _FUSED_ENABLED
    set_fused_kernels(enabled)
    try:
        yield
    finally:
        set_fused_kernels(previous)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Fused numerically stable softmax along ``axis``."""
    data = x.data
    shifted = data - data.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    y = shifted
    y /= y.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # One allocation instead of three: the g*y product buffer is
            # reused for (g - inner) and the final product.  ``grad`` is
            # only read (it may be another node's live gradient).
            out = grad * y
            inner = out.sum(axis=axis, keepdims=True)
            np.subtract(grad, inner, out=out)
            out *= y
            x._accumulate(out)

    return x._make(y, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Fused numerically stable log-softmax along ``axis``."""
    data = x.data
    shifted = data - data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=axis, keepdims=True)
    out = shifted - np.log(total)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            softmax_data = exp / total
            x._accumulate(grad - softmax_data * grad.sum(axis=axis, keepdims=True))

    return x._make(out, (x,), backward)


_GELU_COEFF = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Fused GELU (tanh approximation), matching ``functional.gelu``."""
    data = x.data
    # float() keeps the scalar weakly typed so float32 inputs stay float32.
    scale = float(np.sqrt(2.0 / np.pi))
    inner = (data + data * data * data * _GELU_COEFF) * scale
    t = np.tanh(inner)
    out = data * (t + 1.0) * 0.5

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            sech2 = 1.0 - t * t
            dinner = scale * (1.0 + 3.0 * _GELU_COEFF * data * data)
            x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * data * sech2 * dinner))

    return x._make(out, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Fused layer normalisation over the last axis with affine params."""
    data = x.data
    count = data.shape[-1]
    # Mirror the composite op sequence exactly (sum * (1/n), then /sqrt)
    # so the fused forward is bit-identical to the reference.
    mean = data.sum(axis=-1, keepdims=True) * (1.0 / count)
    centred = data - mean
    variance = (centred * centred).sum(axis=-1, keepdims=True) * (1.0 / count)
    std = np.sqrt(variance + eps)
    normalised = centred / std
    out = normalised * weight.data + bias.data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dnorm = grad * weight.data
            dnorm_mean = dnorm.mean(axis=-1, keepdims=True)
            proj = (dnorm * normalised).mean(axis=-1, keepdims=True)
            x._accumulate((dnorm - dnorm_mean - normalised * proj) / std)
        if weight.requires_grad:
            weight._accumulate(_unbroadcast(grad * normalised, weight.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.shape))

    return x._make(out, (x, weight, bias), backward)


def attention(
    qkv: Tensor, heads: int, scale: float, mask: np.ndarray | None = None
) -> Tensor:
    """Fused multi-head ``softmax(q @ k.T * scale + mask) @ v``.

    ``qkv`` is the packed ``(batch, seq, 3 * d_model)`` Q/K/V projection
    and the result is the merged ``(batch, seq, d_model)`` context.  The
    forward runs one ``(batch, head)`` block at a time on strided views
    of ``qkv`` (BLAS takes the row stride), with the composite's op order
    (scores, scale, mask, stable softmax, P·V), so only one ``(seq, seq)``
    score block is live.  The probabilities are kept for the backward
    only when it will run; the backward is blocked the same way and
    writes dQ, dK and dV straight into one packed gradient.
    """
    data = qkv.data
    batch, seq, width = data.shape
    d_model = width // 3
    head_dim = d_model // heads
    scale = float(scale)  # weak scalar: float32 inputs stay float32
    if mask is not None:
        mask = np.broadcast_to(
            np.asarray(mask, dtype=data.dtype), (batch, heads, seq, seq)
        )
    parts = data.reshape(batch, seq, 3, heads, head_dim)
    keep = _tensor_mod.grad_enabled() and qkv.requires_grad
    probs = np.empty((batch, heads, seq, seq), dtype=data.dtype) if keep else None
    scratch = np.empty((seq, seq), dtype=data.dtype)
    out = np.empty((batch, seq, d_model), dtype=data.dtype)
    context = out.reshape(batch, seq, heads, head_dim)
    for b in range(batch):
        for h in range(heads):
            q, k, v = parts[b, :, 0, h], parts[b, :, 1, h], parts[b, :, 2, h]
            t = np.matmul(q, k.T, out=scratch if probs is None else probs[b, h])
            t *= scale
            if mask is not None:
                t += mask[b, h]
            np.subtract(t, t.max(axis=-1, keepdims=True), out=t)
            np.exp(t, out=t)
            t /= t.sum(axis=-1, keepdims=True)
            np.matmul(t, v, out=context[b, :, h])

    def backward(grad: np.ndarray) -> None:
        dqkv = np.empty_like(data)
        dparts = dqkv.reshape(batch, seq, 3, heads, head_dim)
        gctx = grad.reshape(batch, seq, heads, head_dim)
        dp = np.empty((seq, seq), dtype=data.dtype)
        for b in range(batch):
            for h in range(heads):
                q, k, v = parts[b, :, 0, h], parts[b, :, 1, h], parts[b, :, 2, h]
                p, g = probs[b, h], gctx[b, :, h]
                np.matmul(g, v.T, out=dp)
                np.matmul(p.T, g, out=dparts[b, :, 2, h])
                # Softmax backward y * (g - sum(g * y)), then the scale.
                np.multiply(dp, p, out=scratch)
                np.subtract(dp, scratch.sum(axis=-1, keepdims=True), out=dp)
                dp *= p
                dp *= scale
                np.matmul(dp, k, out=dparts[b, :, 0, h])
                dparts[b, :, 1, h] = (q.T @ dp).T
        qkv._accumulate(dqkv)

    return qkv._make(out, (qkv,), backward)
