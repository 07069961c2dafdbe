"""Global memory, runtime memory, and LRAM models."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import SimulationError
from repro.simt.memory import GlobalMemory, LocalMemory, RuntimeMemory


def test_allocation_is_aligned_and_non_overlapping():
    memory = GlobalMemory(1024 * 1024)
    first = memory.allocate(10)
    second = memory.allocate(10)
    assert first % 64 == 0 and second % 64 == 0
    assert second >= first + 40


def test_allocation_overflow_raises():
    memory = GlobalMemory(4096)
    with pytest.raises(SimulationError):
        memory.allocate(10000)
    with pytest.raises(SimulationError):
        memory.allocate(0)


def test_buffer_round_trip():
    memory = GlobalMemory(1024 * 1024)
    base = memory.allocate(8)
    memory.write_buffer(base, [1, 2, 3, 0xFFFFFFFF])
    assert list(memory.read_buffer(base, 4)) == [1, 2, 3, 0xFFFFFFFF]


def test_vector_load_store():
    memory = GlobalMemory(1024 * 1024)
    base = memory.allocate(16)
    addresses = base + 4 * np.arange(8)
    memory.store_words(addresses, np.arange(8))
    assert list(memory.load_words(addresses)) == list(range(8))


def test_reset_matches_a_fresh_memory_after_host_and_device_writes():
    size = 64 * 1024
    memory = GlobalMemory(size)
    base = memory.allocate(16)
    memory.write_buffer(base, np.arange(1, 17))
    # A device store beyond the last allocation must be cleared as well.
    memory.store_words(np.array([base + 8, size - 4]), np.array([7, 9]))
    memory.reset()
    fresh = GlobalMemory(size)
    assert not memory.read_buffer(0, size // 4).any()
    assert memory.allocate(16) == fresh.allocate(16) == base


def test_unaligned_and_out_of_range_accesses_raise():
    memory = GlobalMemory(4096)
    with pytest.raises(SimulationError):
        memory.load_words(np.array([2]))
    with pytest.raises(SimulationError):
        memory.load_words(np.array([8192]))
    with pytest.raises(SimulationError):
        memory.read_buffer(0, 10000)


def test_runtime_memory_descriptor():
    rtm = RuntimeMemory(64)
    rtm.write_args([100, 200, 5])
    assert rtm.num_args == 3
    assert rtm.read_arg(1) == 200
    with pytest.raises(SimulationError):
        rtm.read_arg(7)


def test_runtime_memory_capacity():
    rtm = RuntimeMemory(16)
    with pytest.raises(SimulationError):
        rtm.write_args(list(range(100)))


def test_local_memory_round_trip_and_bounds():
    lram = LocalMemory(64)
    lram.store_words(np.array([0, 1, 63]), np.array([7, 8, 9]))
    assert list(lram.load_words(np.array([0, 1, 63]))) == [7, 8, 9]
    with pytest.raises(SimulationError):
        lram.load_words(np.array([64]))
    with pytest.raises(SimulationError):
        LocalMemory(0)


# Builds, touches and drops six 16-device pools of 4 MiB devices (the
# topology sweeps' pool shape), keeping a small read-back per device the way
# a sweep keeps its results, and prints the resident set after each round.
_POOL_ROUNDS = """
import gc, json, os
import numpy as np
from repro.arch.config import GGPUConfig
from repro.simt.gpu import GGPUSimulator

def resident_mb():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

kept, samples = [], []
for _ in range(6):
    pool = []
    for _ in range(16):
        device = GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=4 * 1024 * 1024)
        base = device.create_buffer(np.arange(1 << 16))
        kept.append(device.read_buffer(base, 1 << 13))
        pool.append(device)
    del pool, device
    gc.collect()
    samples.append(resident_mb())
print(json.dumps(samples))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_freed_device_pools_give_their_pages_back():
    """Dropping a device pool returns its memory to the OS, round after round.

    Runs in a fresh interpreter: the C allocator's state is process-wide
    (glibc raises its mmap threshold once a large block is freed, after which
    large arrays come from the heap and stay resident when freed), so only a
    new process starts from a known state.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _POOL_ROUNDS],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    samples = json.loads(done.stdout)
    # The kept read-backs add about 0.5 MB a round; one retained pool is 128 MB.
    assert max(samples) - samples[0] < 32, samples
