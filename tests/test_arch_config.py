"""Architecture configuration (GGPUConfig, CacheConfig, AxiConfig, TransferConfig)."""

from dataclasses import fields

import pytest

from repro.arch.config import AxiConfig, CacheConfig, GGPUConfig, Topology, TransferConfig
from repro.errors import ConfigurationError
from repro.runtime.multidevice import MultiDeviceQueue


def test_default_config_matches_fgpu():
    config = GGPUConfig()
    assert config.num_cus == 1
    assert config.pes_per_cu == 8
    assert config.wavefront_size == 64
    # "A single CU can run up to 512 work-items."
    assert config.work_items_per_cu == 512
    assert config.lanes_rounds_per_wavefront == 8


def test_cu_count_range():
    for num_cus in (1, 2, 4, 8):
        assert GGPUConfig(num_cus=num_cus).num_cus == num_cus
    with pytest.raises(ConfigurationError):
        GGPUConfig(num_cus=0)
    with pytest.raises(ConfigurationError):
        GGPUConfig(num_cus=9)


def test_pes_per_cu_is_fixed_at_8():
    with pytest.raises(ConfigurationError):
        GGPUConfig(pes_per_cu=16)


def test_wavefront_size_must_be_multiple_of_pes():
    assert GGPUConfig(wavefront_size=32).lanes_rounds_per_wavefront == 4
    with pytest.raises(ConfigurationError):
        GGPUConfig(wavefront_size=60)
    with pytest.raises(ConfigurationError):
        GGPUConfig(wavefront_size=0)


def test_register_count_range():
    with pytest.raises(ConfigurationError):
        GGPUConfig(num_registers=4)
    with pytest.raises(ConfigurationError):
        GGPUConfig(num_registers=128)


def test_memory_sizes_must_be_powers_of_two():
    with pytest.raises(ConfigurationError):
        GGPUConfig(cram_words=1000)
    with pytest.raises(ConfigurationError):
        GGPUConfig(rtm_words=0)


def test_with_cus_copies_everything_else():
    base = GGPUConfig(num_cus=1, lram_words_per_cu=4096)
    grown = base.with_cus(8)
    assert grown.num_cus == 8
    assert grown.lram_words_per_cu == 4096
    assert grown.max_work_items == 8 * base.work_items_per_cu


def test_cache_config_defaults_and_validation():
    cache = CacheConfig()
    assert cache.num_lines * cache.line_bytes == cache.size_bytes
    assert cache.words_per_line == cache.line_bytes // 4
    with pytest.raises(ConfigurationError):
        CacheConfig(size_bytes=1000, line_bytes=64)
    with pytest.raises(ConfigurationError):
        CacheConfig(line_bytes=6)
    with pytest.raises(ConfigurationError, match="power of two"):
        CacheConfig(size_bytes=48 * 1024, line_bytes=48)  # 1024 lines of 12 words
    with pytest.raises(ConfigurationError):
        CacheConfig(ports=0)
    with pytest.raises(ConfigurationError):
        CacheConfig(size_bytes=48 * 1024, line_bytes=64)  # 768 lines, not a power of two


def test_transfer_config_cycles_and_validation():
    transfer = TransferConfig(latency_cycles=100, bytes_per_cycle=8.0)
    assert transfer.cycles(0) == 0.0  # zero-byte copies are free
    assert transfer.cycles(1) == 101.0  # latency + one beat
    assert transfer.cycles(8) == 101.0
    assert transfer.cycles(9) == 102.0  # partial beats round up
    # Fractional bandwidths still charge whole beats.
    assert TransferConfig(latency_cycles=0, bytes_per_cycle=3.0).cycles(10) == 4.0
    with pytest.raises(ConfigurationError):
        TransferConfig(latency_cycles=-1)
    with pytest.raises(ConfigurationError):
        TransferConfig(bytes_per_cycle=0)
    with pytest.raises(ConfigurationError):
        transfer.cycles(-4)


def test_transfer_config_p2p_model():
    # TransferConfig prices the host link only; a device->device link is a
    # Topology's, and without one a move is priced as the two host hops of
    # the bounce through the host.
    assert [f.name for f in fields(TransferConfig)] == ["latency_cycles", "bytes_per_cycle"]
    base = TransferConfig(latency_cycles=100, bytes_per_cycle=8.0)
    queue = MultiDeviceQueue(num_devices=2, memory_bytes=4096, transfer=base)
    assert queue._p2p_link_cycles(0, 1, 64) == 2 * base.cycles(64)
    assert queue._p2p_link_cycles(0, 1, 0) == 0.0
    assert queue._comm_estimate(64) == 2 * base.cycles(64)
    link = Topology.flat(2, 10, 32.0)
    assert link.p2p_cycles(0, 1, 0) == 0.0
    assert link.p2p_cycles(0, 1, 1) == 11.0  # latency + one beat
    assert link.p2p_cycles(0, 1, 32) == 11.0
    assert link.p2p_cycles(0, 1, 33) == 12.0  # partial beats round up
    with pytest.raises(ConfigurationError):
        Topology.flat(2, -1, 8.0)
    with pytest.raises(ConfigurationError):
        Topology.flat(2, 10, 0.0)
    with pytest.raises(ConfigurationError):
        link.p2p_cycles(0, 1, -4)


def test_transfer_config_rides_along_ggpu_config():
    config = GGPUConfig(transfer=TransferConfig(latency_cycles=7, bytes_per_cycle=16.0))
    assert config.transfer.latency_cycles == 7
    assert config.with_cus(4).transfer == config.transfer
    # The default model is present on every config.
    assert GGPUConfig().transfer.latency_cycles > 0


def test_axi_config_matches_fgpu_limits():
    axi = AxiConfig()
    assert 1 <= axi.data_ports <= 4
    assert axi.control_ports == 1
    assert axi.data_width_words == axi.data_width_bits // 32
    with pytest.raises(ConfigurationError):
        AxiConfig(data_ports=5)
    with pytest.raises(ConfigurationError):
        AxiConfig(data_width_bits=48)
    with pytest.raises(ConfigurationError):
        AxiConfig(memory_latency_cycles=0)
    with pytest.raises(ConfigurationError):
        AxiConfig(control_ports=2)


def test_topology_flat_matches_single_p2p_link():
    # The flat preset is one uniform link: every pair pays the PR 5 P2P
    # link's 150-cycle setup plus ceil(bytes / 32) beats.
    flat = Topology.flat(4)
    for num_bytes in (1, 32, 33, 1024, 4096):
        for src in range(4):
            for dst in range(4):
                if src == dst:
                    assert flat.p2p_cycles(src, dst, num_bytes) == 0.0
                else:
                    assert flat.p2p_cycles(src, dst, num_bytes) == 150.0 + -(-num_bytes // 32)
    assert flat.num_devices == 4
    assert flat.p2p_cycles(0, 1, 0) == 0.0  # zero-byte copies are free
    with pytest.raises(ConfigurationError):
        flat.p2p_cycles(0, 1, -4)


def test_topology_two_switch_prices_the_cross_domain_hop():
    topo = Topology.two_switch(4)
    # Devices {0, 1} and {2, 3} are the two switch domains.
    intra = topo.p2p_cycles(0, 1, 1024)
    inter = topo.p2p_cycles(0, 2, 1024)
    assert intra == 150.0 + 32.0  # 150-cycle setup + 1024/32 beats
    assert inter == 900.0 + 128.0  # inter hop: 900-cycle setup + 1024/8 beats
    assert inter > intra
    assert topo.p2p_cycles(2, 3, 1024) == intra
    # Odd device counts put the extra device in the first domain.
    odd = Topology.two_switch(5)
    assert odd.p2p_cycles(0, 2, 1024) == intra
    assert odd.p2p_cycles(0, 3, 1024) == inter


def test_topology_ring_scales_with_hop_distance():
    topo = Topology.ring(8)
    one_hop = topo.p2p_cycles(0, 1, 1024)
    two_hops = topo.p2p_cycles(0, 2, 1024)
    assert one_hop == 150.0 + 32.0
    assert two_hops == 300.0 + 64.0  # 2x setup, half bandwidth
    # The ring is bidirectional: 0->7 is one hop, not seven.
    assert topo.p2p_cycles(0, 7, 1024) == one_hop
    assert topo.p2p_cycles(0, 4, 1024) == topo.p2p_cycles(4, 0, 1024)


def test_topology_preset_dispatch_and_host_override():
    for name in ("flat", "two-switch", "ring"):
        topo = Topology.preset(name, 4)
        assert topo.name == name
        assert topo.num_devices == 4
    with pytest.raises(ConfigurationError):
        Topology.preset("torus", 4)
    # A topology holds the device<->device links only: the host bridge is
    # overridden through the queue's transfer= (or GGPUConfig.transfer).
    assert [f.name for f in fields(Topology)] == ["name", "latency_cycles", "bytes_per_cycle"]


def test_topology_matrix_validation():
    with pytest.raises(ConfigurationError):
        Topology.flat(0)
    with pytest.raises(ConfigurationError):  # non-square latency matrix
        Topology(
            name="bad",
            latency_cycles=((0.0, 1.0),),
            bytes_per_cycle=((float("inf"), 8.0), (8.0, float("inf"))),
        )
    with pytest.raises(ConfigurationError):  # non-zero diagonal latency
        Topology(
            name="bad",
            latency_cycles=((1.0, 1.0), (1.0, 0.0)),
            bytes_per_cycle=((float("inf"), 8.0), (8.0, float("inf"))),
        )
    with pytest.raises(ConfigurationError):  # negative off-diagonal latency
        Topology(
            name="bad",
            latency_cycles=((0.0, -1.0), (1.0, 0.0)),
            bytes_per_cycle=((float("inf"), 8.0), (8.0, float("inf"))),
        )
    with pytest.raises(ConfigurationError):  # non-positive bandwidth
        Topology(
            name="bad",
            latency_cycles=((0.0, 1.0), (1.0, 0.0)),
            bytes_per_cycle=((float("inf"), 0.0), (8.0, float("inf"))),
        )
