"""Multi-head scaled-dot-product self/cross attention."""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro import obs
from repro.autodiff import functional as F
from repro.autodiff import fused as _fused
from repro.autodiff.module import Module
from repro.autodiff.tensor import Tensor
from repro.nn.layers import Dropout, Linear
from repro.utils.rng import RngLike, spawn_generators


class MultiHeadAttention(Module):
    """Multi-head attention as in "Attention is All You Need".

    Inputs are shaped ``(batch, seq, d_model)``.  ``forward`` performs
    self-attention when only ``query`` is given, or cross-attention when
    ``key``/``value`` differ.

    For self-attention with fused kernels enabled and attention dropout
    inactive, the three Q/K/V projections run as a single packed GEMM
    (the weights of ``q_proj`` / ``k_proj`` / ``v_proj`` are concatenated
    at forward time, so every state-dict key is unchanged) feeding the
    blocked :func:`repro.autodiff.fused.attention` kernel.  Every other
    case runs the composite reference path.

    ``label`` names this layer in the ``nn.gemm.<label>.{qkv,core}``
    timing histograms (only recorded while the record stream is on).
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        dropout: float = 0.0,
        seed: RngLike = None,
        label: str = "attn",
    ):
        if d_model % num_heads != 0:
            raise ValueError(
                f"d_model ({d_model}) must be divisible by num_heads ({num_heads})"
            )
        rngs = spawn_generators(seed, 5)
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.label = label
        self.q_proj = Linear(d_model, d_model, seed=rngs[0])
        self.k_proj = Linear(d_model, d_model, seed=rngs[1])
        self.v_proj = Linear(d_model, d_model, seed=rngs[2])
        self.out_proj = Linear(d_model, d_model, seed=rngs[3])
        self.attn_dropout = Dropout(dropout, seed=rngs[4])

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (batch, seq, d_model) -> (batch, heads, seq, head_dim)
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _fused_attend(
        self, x: Tensor, scale: float, mask: Optional[np.ndarray]
    ) -> Tensor:
        """One packed Q/K/V GEMM, then the blocked attention kernel."""
        weight = Tensor.concatenate(
            (self.q_proj.weight, self.k_proj.weight, self.v_proj.weight), axis=1
        )
        bias = Tensor.concatenate(
            (self.q_proj.bias, self.k_proj.bias, self.v_proj.bias), axis=0
        )
        if not obs.enabled():
            return _fused.attention(x @ weight + bias, self.num_heads, scale, mask)
        start = time.perf_counter()
        qkv = x @ weight + bias
        split = time.perf_counter()
        context = _fused.attention(qkv, self.num_heads, scale, mask)
        end = time.perf_counter()
        obs.histogram(f"nn.gemm.{self.label}.qkv.seconds").observe(split - start)
        obs.histogram(f"nn.gemm.{self.label}.core.seconds").observe(end - split)
        return context

    def forward(
        self,
        query: Tensor,
        key: Optional[Tensor] = None,
        value: Optional[Tensor] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Attend; ``mask`` is an additive float mask broadcastable to
        ``(batch, heads, q_len, k_len)`` with ``-inf``-like entries at
        disallowed positions."""
        key = query if key is None else key
        value = key if value is None else value

        # float() keeps the scalar weakly typed so float32 stays float32.
        scale = float(1.0 / np.sqrt(self.head_dim))
        dropout = self.attn_dropout
        if (
            key is query
            and value is query
            and self.q_proj.bias is not None
            and (not dropout.training or dropout.p <= 0.0)
            and _fused.fused_kernels_enabled()
        ):
            return self.out_proj(self._fused_attend(query, scale, mask))

        batch, q_len, _ = query.shape
        k_len = key.shape[1]
        q = self._split_heads(self.q_proj(query), batch, q_len)
        k = self._split_heads(self.k_proj(key), batch, k_len)
        v = self._split_heads(self.v_proj(value), batch, k_len)
        scores = (q @ k.swapaxes(-1, -2)) * scale
        if mask is not None:
            scores = scores + Tensor(mask, dtype=scores.data.dtype)
        weights = self.attn_dropout(F.softmax(scores, axis=-1))

        context = weights @ v  # (batch, heads, q_len, head_dim)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, q_len, self.d_model)
        return self.out_proj(merged)
