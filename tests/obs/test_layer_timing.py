"""Per-layer timing histograms of the transformer encoder.

Each encoder layer records ``nn.gemm.<label>.qkv.seconds`` (the packed
Q/K/V GEMM), ``.core.seconds`` (the blocked attention kernel) and
``.ffn.seconds`` while the record stream is on, and makes no obs call
at all while it is off.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.autodiff import Tensor, fused_kernels, no_grad
from repro.nn import TransformerEncoder
from repro.obs.fold import fold


def _encoder_forward():
    encoder = TransformerEncoder(num_layers=2, d_model=16, num_heads=4, d_ff=32, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 9, 16)))
    with fused_kernels(True), no_grad():
        encoder(x)


def test_traced_forward_records_attention_core(tmp_path):
    path = tmp_path / "s.jsonl"
    obs.configure(trace=path)
    _encoder_forward()
    obs.finish()
    metrics = fold(path)["metrics"]
    for layer in ("layer0", "layer1"):
        for stage in ("attn.qkv", "attn.core", "ffn"):
            hist = metrics[f"nn.gemm.{layer}.{stage}.seconds"]
            assert hist["type"] == "histogram" and hist["count"] == 1
            assert hist["min"] >= 0.0


def test_disabled_forward_makes_no_metric_call(monkeypatch):
    calls = []
    monkeypatch.setattr(obs, "histogram", lambda name: calls.append(name))
    assert not obs.enabled()
    _encoder_forward()
    assert calls == []
