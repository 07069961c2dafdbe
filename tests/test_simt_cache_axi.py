"""Data cache and global memory controller (AXI) models."""

import pytest

from repro.arch.config import AxiConfig, CacheConfig
from repro.errors import SimulationError
from repro.simt.axi import GlobalMemoryController
from repro.simt.cache import CacheStats, DataCache


@pytest.fixture
def cache() -> DataCache:
    return DataCache(CacheConfig(size_bytes=4096, line_bytes=64))


def test_coalescing_merges_lanes_on_the_same_line(cache):
    addresses = [0, 4, 8, 60, 64, 68]
    assert cache.coalesce_lines(addresses) == [0, 64]
    assert cache.coalesce_lines([]) == []


def test_miss_then_hit(cache):
    first = cache.access_line(0, is_write=False)
    second = cache.access_line(0, is_write=False)
    assert not first.hit and second.hit
    assert cache.stats.read_accesses == 2
    assert cache.stats.read_misses == 1


def test_direct_mapped_conflict_eviction(cache):
    # 4096-byte cache with 64-byte lines = 64 lines; addresses 0 and 4096 map
    # to the same line.
    cache.access_line(0, is_write=True)
    conflict = cache.access_line(4096, is_write=False)
    assert not conflict.hit
    assert conflict.write_back  # the dirty victim must be written back
    assert cache.stats.write_backs == 1


def test_clean_eviction_has_no_write_back(cache):
    cache.access_line(0, is_write=False)
    conflict = cache.access_line(4096, is_write=False)
    assert not conflict.hit and not conflict.write_back


def test_wavefront_access_updates_stats(cache):
    lines = cache.coalesce_lines([4 * lane for lane in range(64)])
    assert len(lines) == 4  # 64 words of 4 bytes = 4 lines of 64 bytes
    hits, write_backs, misses = cache.access_sorted_lines(lines, is_write=False)
    assert hits == [False] * 4 and write_backs == [False] * 4 and misses == 4
    assert cache.stats.read_accesses == 4


def test_flush_and_reset(cache):
    cache.access_line(0, is_write=True)
    cache.access_line(64, is_write=True)
    assert cache.flush() == 2
    assert cache.flush() == 0
    cache.reset()
    assert cache.stats.accesses == 0
    assert cache.resident_lines() == set()


def test_bad_line_address_rejected(cache):
    with pytest.raises(SimulationError):
        cache.access_line(10, is_write=False)


def test_cache_stats_hit_rate_and_merge():
    stats = CacheStats(read_accesses=8, read_misses=2)
    assert stats.hit_rate == pytest.approx(0.75)
    assert CacheStats().hit_rate == 1.0
    merged = stats.merge(CacheStats(write_accesses=4, write_misses=1, write_backs=3))
    assert merged.accesses == 12
    assert merged.misses == 3
    assert merged.write_backs == 3


def test_memory_controller_latency_and_bandwidth():
    controller = GlobalMemoryController(AxiConfig(), CacheConfig())
    transfer = controller.line_transfer_cycles
    first = controller.line_fill(0.0)
    assert first == pytest.approx(AxiConfig().memory_latency_cycles + transfer)
    # Four ports: the fifth concurrent fill has to wait for a port.
    completions = [controller.line_fill(0.0) for _ in range(4)]
    assert max(completions) > first
    assert controller.stats.line_fills == 5


def test_memory_controller_write_back_is_posted():
    controller = GlobalMemoryController(AxiConfig(), CacheConfig())
    done = controller.write_back(0.0)
    assert done == pytest.approx(controller.line_transfer_cycles)
    assert controller.stats.write_backs == 1


def test_memory_controller_reset_and_validation():
    controller = GlobalMemoryController(AxiConfig(), CacheConfig())
    controller.line_fill(0.0)
    controller.reset()
    assert controller.stats.transactions == 0
    assert controller.earliest_free() == 0.0
    with pytest.raises(SimulationError):
        controller.line_fill(-1.0)
