"""Shared fixtures for the test suite.

Simulation-based tests use small input sizes (the functional behaviour does
not depend on the size) so the whole suite stays fast; the full paper-sized
runs live in ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.arch.config import GGPUConfig
from repro.simt.gpu import GGPUSimulator
from repro.tech.technology import Technology, default_65nm


@pytest.fixture(scope="session")
def tech() -> Technology:
    """The default 65nm-like technology used throughout the paper."""
    return default_65nm()


@pytest.fixture
def single_cu_config() -> GGPUConfig:
    """A 1-CU architecture configuration."""
    return GGPUConfig(num_cus=1)


@pytest.fixture
def dual_cu_config() -> GGPUConfig:
    """A 2-CU architecture configuration."""
    return GGPUConfig(num_cus=2)


@pytest.fixture
def simulator(single_cu_config: GGPUConfig) -> GGPUSimulator:
    """A 1-CU simulator with a small global memory."""
    return GGPUSimulator(single_cu_config, memory_bytes=8 * 1024 * 1024)


@pytest.fixture
def dual_cu_simulator(dual_cu_config: GGPUConfig) -> GGPUSimulator:
    """A 2-CU simulator with a small global memory."""
    return GGPUSimulator(dual_cu_config, memory_bytes=8 * 1024 * 1024)


@pytest.fixture
def simulated_launches(monkeypatch: pytest.MonkeyPatch) -> list:
    """Names of the kernels whose launches reach a simulator, in order."""
    calls: list = []
    original = GGPUSimulator.launch

    def counting(self, kernel, ndrange, args, **kwargs):
        calls.append(kernel.name)
        return original(self, kernel, ndrange, args, **kwargs)

    monkeypatch.setattr(GGPUSimulator, "launch", counting)
    return calls
