"""Shared fixtures: a small simulated trace and dataset reused by many tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.switchsim import Simulation, SwitchConfig
from repro.telemetry import build_dataset
from repro.traffic import CompositeTraffic, IncastTraffic, PoissonFlowTraffic
from repro.traffic.distributions import FixedSizes


@pytest.fixture(scope="session")
def small_config() -> SwitchConfig:
    """2 ports x 2 queues with a smallish shared buffer."""
    return SwitchConfig(
        num_ports=2, queues_per_port=2, buffer_capacity=60, alphas=(1.0, 0.5)
    )


@pytest.fixture(scope="session")
def small_trace(small_config):
    """A deterministic 1200-bin trace with background + incast traffic."""
    traffic = CompositeTraffic(
        [
            PoissonFlowTraffic(
                num_sources=6,
                num_ports=2,
                flows_per_step=0.02,
                sizes=FixedSizes(6),
                seed=7,
            ),
            IncastTraffic(
                fan_in=5,
                burst_size=20,
                period=300 * 8,
                dst_port=1,
                qclass=1,
                jitter=50,
                seed=8,
            ),
        ]
    )
    simulation = Simulation(small_config, traffic, steps_per_bin=8)
    return simulation.run(1200)


@pytest.fixture(scope="session")
def small_dataset(small_trace):
    """Windows of 4 intervals of 25 bins (100-bin windows) from the trace."""
    return build_dataset(small_trace, interval=25, window_intervals=4, stride_intervals=2)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def finite_difference_gradient(f, x0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued tensor function.

    Kept as a conftest name for older tests; delegates to the shared
    oracle in :mod:`repro.testing.oracles`.
    """
    from repro.testing import finite_difference_gradient as fd

    return fd(f, np.asarray(x0, dtype=float), eps=eps)


@pytest.fixture()
def gradcheck():
    """Assert autodiff gradient matches finite differences for f: Tensor -> scalar."""
    from repro.testing import check_gradients

    def check(f, x0: np.ndarray, atol: float = 1e-6) -> None:
        check_gradients(f, np.asarray(x0, dtype=float), atol=atol, rtol=1e-4)

    return check


@pytest.fixture
def stream_writes(monkeypatch):
    """Record every O_APPEND write the obs stream writer makes in this
    process (the payload bytes, one entry per write)."""
    from repro.obs import stream

    writes = []
    original = stream._StreamWriter._write

    def counting(self, data):
        writes.append(data)
        original(self, data)

    monkeypatch.setattr(stream._StreamWriter, "_write", counting)
    return writes
