"""Shared fixtures for the test suite.

The heavier fixtures (kernel traces, experiment runners) are module- or
session-scoped so the suite stays fast: traces are generated once and
reused across the tests that consume them.
"""

from __future__ import annotations

import pytest

from repro.cpu.system import System, SystemConfig
from repro.experiments import ExperimentRunner
from repro.mem.cache import Cache, CacheConfig
from repro.mem.mainmem import MainMemory
from repro.transforms.pipeline import OptLevel, optimize
from repro.workloads import build_kernel, materialize_trace


@pytest.fixture
def memory() -> MainMemory:
    """A fresh DRAM model."""
    return MainMemory(latency_cycles=100.0, transfer_cycles=8.0)


@pytest.fixture
def small_cache(memory) -> Cache:
    """A tiny 1 KB, 2-way, 64 B-line cache over DRAM — 8 sets."""
    config = CacheConfig(
        name="test",
        capacity_bytes=1024,
        associativity=2,
        line_bytes=64,
        read_hit_cycles=1,
        write_hit_cycles=1,
    )
    return Cache(config, memory)


@pytest.fixture
def nvm_cache(memory) -> Cache:
    """A small NVM-latency cache (read 4 / write 2), 4 banks."""
    config = CacheConfig(
        name="nvm",
        capacity_bytes=4096,
        associativity=2,
        line_bytes=64,
        read_hit_cycles=4,
        write_hit_cycles=2,
        banks=4,
    )
    return Cache(config, memory)


@pytest.fixture(scope="session")
def gemm_trace():
    """The unoptimized gemm trace (session-cached)."""
    return materialize_trace(build_kernel("gemm"))


@pytest.fixture(scope="session")
def gemm_opt_trace():
    """The fully optimized gemm trace (session-cached)."""
    return materialize_trace(optimize(build_kernel("gemm"), OptLevel.FULL))


@pytest.fixture
def sram_system() -> System:
    """The SRAM baseline platform."""
    return System(SystemConfig(technology="sram"))


@pytest.fixture
def dropin_system() -> System:
    """The drop-in STT-MRAM platform."""
    return System(SystemConfig(technology="stt-mram"))


@pytest.fixture
def vwb_system() -> System:
    """The proposed STT-MRAM + VWB platform."""
    return System(SystemConfig(technology="stt-mram", frontend="vwb"))


@pytest.fixture(scope="session")
def claims_runner() -> ExperimentRunner:
    """The 4-kernel runner the claim, validate and summary tests share."""
    return ExperimentRunner(kernels=["gemm", "atax", "mvt", "2mm"])
