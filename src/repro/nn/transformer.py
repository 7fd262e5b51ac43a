"""Transformer encoder (pre-norm) and sinusoidal positional encoding.

The paper's imputation model (§2.2, Fig. 3) is a transformer *encoder* over
the coarse-grained telemetry channels followed by a linear decoder; this
module provides the encoder stack, and
:class:`repro.imputation.transformer_imputer.TransformerImputer` assembles
the full model.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro import obs
from repro.autodiff import functional as F
from repro.autodiff.module import Module
from repro.autodiff.tensor import Tensor
from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.utils.rng import RngLike, spawn_generators


class PositionalEncoding(Module):
    """Fixed sinusoidal positional encoding added to the input embedding."""

    def __init__(self, d_model: int, max_len: int = 4096):
        if d_model % 2 != 0:
            raise ValueError(f"d_model must be even for sinusoidal PE, got {d_model}")
        position = np.arange(max_len)[:, None]
        div = np.exp(np.arange(0, d_model, 2) * (-np.log(10000.0) / d_model))
        table = np.zeros((max_len, d_model))
        table[:, 0::2] = np.sin(position * div)
        table[:, 1::2] = np.cos(position * div)
        self._table = table
        self._table_cast = table
        self.max_len = max_len

    def forward(self, x: Tensor) -> Tensor:
        seq = x.shape[-2]
        if seq > self.max_len:
            raise ValueError(f"sequence length {seq} exceeds max_len {self.max_len}")
        # The table is built in float64; cache a cast copy so float32
        # inputs are not upcast by the addition.
        if self._table_cast.dtype != x.data.dtype:
            self._table_cast = self._table.astype(x.data.dtype)
        return x + Tensor(self._table_cast[:seq], dtype=x.data.dtype)


class TransformerEncoderLayer(Module):
    """One pre-norm encoder block: self-attention + position-wise FFN."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        d_ff: int,
        dropout: float = 0.0,
        seed: RngLike = None,
        label: str = "layer",
    ):
        rngs = spawn_generators(seed, 5)
        self.label = label
        self.self_attn = MultiHeadAttention(
            d_model, num_heads, dropout=dropout, seed=rngs[0], label=f"{label}.attn"
        )
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.ff1 = Linear(d_model, d_ff, seed=rngs[1])
        self.ff2 = Linear(d_ff, d_model, seed=rngs[2])
        self.dropout1 = Dropout(dropout, seed=rngs[3])
        self.dropout2 = Dropout(dropout, seed=rngs[4])

    def _feed_forward(self, x: Tensor) -> Tensor:
        return self.ff2(F.gelu(self.ff1(x)))

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        attended = self.self_attn(self.norm1(x), mask=mask)
        x = x + self.dropout1(attended)
        if obs.enabled():
            start = time.perf_counter()
            transformed = self._feed_forward(self.norm2(x))
            obs.histogram(f"nn.gemm.{self.label}.ffn.seconds").observe(
                time.perf_counter() - start
            )
        else:
            transformed = self._feed_forward(self.norm2(x))
        return x + self.dropout2(transformed)


class TransformerEncoder(Module):
    """A stack of encoder layers with a final layer norm."""

    def __init__(
        self,
        num_layers: int,
        d_model: int,
        num_heads: int,
        d_ff: int,
        dropout: float = 0.0,
        seed: RngLike = None,
    ):
        if num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {num_layers}")
        rngs = spawn_generators(seed, num_layers)
        self.layers = [
            TransformerEncoderLayer(
                d_model, num_heads, d_ff, dropout=dropout, seed=rng, label=f"layer{i}"
            )
            for i, rng in enumerate(rngs)
        ]
        self.final_norm = LayerNorm(d_model)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        for layer in self.layers:
            x = layer(x, mask=mask)
        return self.final_norm(x)
