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

    For self-attention with fused kernels enabled, the three Q/K/V
    projections run as a single packed GEMM: the weights of ``q_proj`` /
    ``k_proj`` / ``v_proj`` are concatenated at forward time, so the
    parameter layout (and every state-dict key) is unchanged and the
    sliced outputs are bit-identical to the three separate projections.

    ``label`` names this layer in the ``nn.gemm.<label>.*`` timing
    histograms (only recorded while metrics collection is enabled).
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

    def _packed_qkv(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Project Q, K and V with one packed GEMM and slice the result."""
        d = self.d_model
        weight = Tensor.concatenate(
            (self.q_proj.weight, self.k_proj.weight, self.v_proj.weight), axis=1
        )
        bias = Tensor.concatenate(
            (self.q_proj.bias, self.k_proj.bias, self.v_proj.bias), axis=0
        )
        if obs.enabled():
            start = time.perf_counter()
            qkv = x @ weight + bias
            obs.histogram(f"nn.gemm.{self.label}.qkv.seconds").observe(
                time.perf_counter() - start
            )
        else:
            qkv = x @ weight + bias
        return (
            _fused.slice_last(qkv, 0, d),
            _fused.slice_last(qkv, d, 2 * d),
            _fused.slice_last(qkv, 2 * d, 3 * d),
        )

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

        batch, q_len, _ = query.shape
        k_len = key.shape[1]

        packable = (
            key is query
            and value is query
            and self.q_proj.bias is not None
            and _fused.fused_kernels_enabled()
        )
        if packable:
            q, k, v = self._packed_qkv(query)
        else:
            q, k, v = self.q_proj(query), self.k_proj(key), self.v_proj(value)
        q = self._split_heads(q, batch, q_len)
        k = self._split_heads(k, batch, k_len)
        v = self._split_heads(v, batch, k_len)

        raw = q @ k.swapaxes(-1, -2)
        # float() keeps the scalar weakly typed so float32 stays float32.
        scale = float(1.0 / np.sqrt(self.head_dim))
        if _fused.fused_kernels_enabled():
            # One node for scale + mask + softmax over the largest array
            # in the model; value-identical to the composite sequence.
            cast_mask = None if mask is None else np.asarray(mask, dtype=raw.data.dtype)
            weights = _fused.scale_softmax(raw, scale, mask=cast_mask, axis=-1)
        else:
            scores = raw * scale
            if mask is not None:
                scores = scores + Tensor(mask, dtype=scores.data.dtype)
            weights = F.softmax(scores, axis=-1)
        weights = self.attn_dropout(weights)

        context = weights @ v  # (batch, heads, q_len, head_dim)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, q_len, self.d_model)
        return self.out_proj(merged)
