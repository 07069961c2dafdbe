"""Architecture configuration of a G-GPU instance.

The paper's GPUPlanner lets the designer customize "computation
characteristics (e.g., number of processing units) and memory access (e.g.,
cache sizes)".  :class:`GGPUConfig` is that parameter set.  It is consumed by

* the SIMT simulator (``repro.simt``) to model performance,
* the RTL generator (``repro.rtl``) to instantiate the hardware blocks, and
* GPUPlanner (``repro.planner``) as part of a :class:`~repro.planner.spec.GGPUSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of the central direct-mapped write-back data cache.

    The FGPU cache is central (shared by all CUs), direct mapped, multi-port,
    and write back; the number of read/write ports it can serve per cycle, the
    latency of a hit, and the number of data movers toward the AXI interfaces
    are configurable.  ``ports`` bounds how many distinct lines one coalesced
    wavefront access can touch per cycle: accesses that span more lines are
    serialized one ``ports``-wide wave per cycle by the timing model.
    """

    size_bytes: int = 32 * 1024
    line_bytes: int = 64
    ports: int = 4
    hit_latency_cycles: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ConfigurationError("cache size and line size must be positive")
        if self.hit_latency_cycles < 1:
            raise ConfigurationError("cache hit latency must be at least one cycle")
        if self.size_bytes % self.line_bytes != 0:
            raise ConfigurationError(
                f"cache size {self.size_bytes} is not a multiple of the line size {self.line_bytes}"
            )
        if self.line_bytes % 4 != 0:
            raise ConfigurationError("cache line size must be a multiple of the 4-byte word")
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError(
                f"cache line size must be a power of two, got {self.line_bytes}"
            )
        if self.ports < 1:
            raise ConfigurationError("the cache needs at least one port")
        if self.num_lines & (self.num_lines - 1):
            raise ConfigurationError("the number of cache lines must be a power of two")

    @property
    def num_lines(self) -> int:
        """Number of cache lines."""
        return self.size_bytes // self.line_bytes

    @property
    def words_per_line(self) -> int:
        """Number of 32-bit words per cache line."""
        return self.line_bytes // 4


@dataclass(frozen=True)
class AxiConfig:
    """AXI interface configuration of the global memory controller.

    FGPU parallelizes data traffic on up to four AXI data interfaces; the whole
    accelerator is controlled through one AXI control interface.
    """

    data_ports: int = 4
    data_width_bits: int = 64
    memory_latency_cycles: int = 36
    control_ports: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.data_ports <= 4:
            raise ConfigurationError(
                f"FGPU supports 1-4 AXI data interfaces, got {self.data_ports}"
            )
        if self.data_width_bits not in (32, 64, 128):
            raise ConfigurationError(
                f"AXI data width must be 32, 64, or 128 bits, got {self.data_width_bits}"
            )
        if self.memory_latency_cycles < 1:
            raise ConfigurationError("memory latency must be at least one cycle")
        if self.control_ports != 1:
            raise ConfigurationError("the architecture uses a single AXI control interface")

    @property
    def data_width_words(self) -> int:
        """AXI data beat width in 32-bit words."""
        return self.data_width_bits // 32


@dataclass(frozen=True)
class TransferConfig:
    """Host↔device transfer cost model of one G-GPU instance.

    The paper runs one kernel on one simulated G-GPU and never charges the
    host for moving data; a multi-accelerator deployment cannot ignore that
    cost.  Every explicit ``enqueue_write``/``enqueue_read`` copy through
    :mod:`repro.runtime.multidevice` is charged

    ``latency_cycles + ceil(num_bytes / bytes_per_cycle)``

    device cycles on the timeline of the device touched.  The defaults model
    a DMA engine behind the single AXI control/data bridge: a fixed setup
    latency plus a streaming phase at the 64-bit AXI beat width (8 bytes per
    cycle).

    This is the host link only.  Device↔device links are priced by a
    :class:`Topology` attached to the queue; without one, a cross-device
    hand-off bounces through the host as two :meth:`cycles` hops.
    """

    latency_cycles: int = 600
    bytes_per_cycle: float = 8.0

    def __post_init__(self) -> None:
        if self.latency_cycles < 0:
            raise ConfigurationError(
                f"transfer latency must be non-negative, got {self.latency_cycles}"
            )
        if self.bytes_per_cycle <= 0:
            raise ConfigurationError(
                f"transfer bandwidth must be positive, got {self.bytes_per_cycle}"
            )

    def cycles(self, num_bytes: int) -> float:
        """Cycle cost of one host↔device copy of ``num_bytes`` bytes."""
        if num_bytes < 0:
            raise ConfigurationError(f"transfer size must be non-negative, got {num_bytes}")
        if num_bytes == 0:
            return 0.0
        beats = -(-num_bytes // self.bytes_per_cycle)  # ceil for float bandwidths
        return float(self.latency_cycles) + float(int(beats))


@dataclass(frozen=True)
class Topology:
    """Per-pair device↔device link-cost model of a multi-accelerator fabric.

    The multi-device runtime's one device↔device link model.  Real 8-64
    device deployments are not flat: links cross switch hops and NUMA
    domains, and the cost of a copy depends on *which* two devices talk.  A
    ``Topology`` is an NxN matrix of DMA setup latencies (cycles) and
    streaming bandwidths (bytes/cycle); ``p2p_cycles(src, dst, n)`` prices
    one direct copy.  The host bridge is not part of it: the queue's
    :class:`TransferConfig` prices that link.

    A topology only ever reshapes the *schedule* of the multi-device queues
    (placement, transfer timing, makespan) — kernel results and per-launch
    simulated cycles are bit-identical across every topology, exactly like
    transfer modes and scheduling hints (the PR 5 invariant).

    Presets
    -------
    * :meth:`flat` — every pair one switch hop apart (uniform direct links).
    * :meth:`two_switch` — two switch domains; intra-domain links are fast,
      cross-domain links pay the inter-switch hop.
    * :meth:`ring` — NUMA-ish ring: latency grows and bandwidth shrinks
      linearly with the ring distance between the two devices.
    """

    name: str
    latency_cycles: tuple[tuple[float, ...], ...]
    bytes_per_cycle: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        count = len(self.latency_cycles)
        if count < 1:
            raise ConfigurationError("a topology needs at least one device")
        if len(self.bytes_per_cycle) != count:
            raise ConfigurationError(
                "latency and bandwidth matrices must have the same shape"
            )
        for row in self.latency_cycles:
            if len(row) != count:
                raise ConfigurationError("the latency matrix must be square")
        for row in self.bytes_per_cycle:
            if len(row) != count:
                raise ConfigurationError("the bandwidth matrix must be square")
        for src in range(count):
            if self.latency_cycles[src][src] != 0.0:
                raise ConfigurationError(
                    f"diagonal latency must be 0 (device {src} to itself)"
                )
            for dst in range(count):
                if self.latency_cycles[src][dst] < 0:
                    raise ConfigurationError(
                        f"link latency must be non-negative, got "
                        f"{self.latency_cycles[src][dst]} for {src}->{dst}"
                    )
                if self.bytes_per_cycle[src][dst] <= 0:
                    raise ConfigurationError(
                        f"link bandwidth must be positive, got "
                        f"{self.bytes_per_cycle[src][dst]} for {src}->{dst}"
                    )

    @property
    def num_devices(self) -> int:
        """Number of devices the link matrices describe."""
        return len(self.latency_cycles)

    def p2p_cycles(self, src: int, dst: int, num_bytes: int) -> float:
        """Cycle cost of one direct ``src``→``dst`` copy of ``num_bytes``."""
        if num_bytes < 0:
            raise ConfigurationError(f"transfer size must be non-negative, got {num_bytes}")
        if src == dst or num_bytes == 0:
            return 0.0
        beats = -(-num_bytes // self.bytes_per_cycle[src][dst])
        return float(self.latency_cycles[src][dst]) + float(int(beats))

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #
    @classmethod
    def flat(
        cls,
        num_devices: int,
        latency_cycles: float = 150.0,
        bytes_per_cycle: float = 32.0,
    ) -> "Topology":
        """Uniform fabric: every pair is one fast switch hop apart.

        The defaults are the link of the pipeline sweep's P2P modes
        (150-cycle setup, 32 bytes/cycle).
        """

        def link(src: int, dst: int) -> tuple[float, float]:
            return (latency_cycles, bytes_per_cycle)

        return cls._from_link(num_devices, "flat", link)

    @classmethod
    def two_switch(
        cls,
        num_devices: int,
        intra_latency_cycles: float = 150.0,
        intra_bytes_per_cycle: float = 32.0,
        inter_latency_cycles: float = 900.0,
        inter_bytes_per_cycle: float = 8.0,
    ) -> "Topology":
        """Two switch domains (devices split in half); crossing pays the hop."""
        half = (num_devices + 1) // 2

        def link(src: int, dst: int) -> tuple[float, float]:
            if (src < half) == (dst < half):
                return (intra_latency_cycles, intra_bytes_per_cycle)
            return (inter_latency_cycles, inter_bytes_per_cycle)

        return cls._from_link(num_devices, "two-switch", link)

    @classmethod
    def ring(
        cls,
        num_devices: int,
        latency_cycles_per_hop: float = 150.0,
        bytes_per_cycle: float = 32.0,
    ) -> "Topology":
        """NUMA-ish ring: cost scales with the ring distance between devices.

        A copy over ``h`` hops pays ``h`` times the per-hop setup latency and
        streams at ``1/h`` of the single-hop bandwidth — the store-and-forward
        model of a bidirectional ring interconnect.
        """

        def link(src: int, dst: int) -> tuple[float, float]:
            hops = min(abs(src - dst), num_devices - abs(src - dst))
            hops = max(hops, 1)
            return (latency_cycles_per_hop * hops, bytes_per_cycle / hops)

        return cls._from_link(num_devices, "ring", link)

    _PRESETS = ("flat", "two-switch", "ring")

    @classmethod
    def preset(cls, name: str, num_devices: int) -> "Topology":
        """Build a named preset (``flat``, ``two-switch``, or ``ring``)."""
        if name == "flat":
            return cls.flat(num_devices)
        if name == "two-switch":
            return cls.two_switch(num_devices)
        if name == "ring":
            return cls.ring(num_devices)
        raise ConfigurationError(
            f"unknown topology preset {name!r}; choose from {', '.join(cls._PRESETS)}"
        )

    @classmethod
    def _from_link(
        cls,
        num_devices: int,
        name: str,
        link: "Callable[[int, int], tuple[float, float]]",
    ) -> "Topology":
        if num_devices < 1:
            raise ConfigurationError("a topology needs at least one device")
        latency = []
        bandwidth = []
        for src in range(num_devices):
            lat_row = []
            bw_row = []
            for dst in range(num_devices):
                if src == dst:
                    lat_row.append(0.0)
                    bw_row.append(float("inf"))
                    continue
                lat, bw = link(src, dst)
                lat_row.append(float(lat))
                bw_row.append(float(bw))
            latency.append(tuple(lat_row))
            bandwidth.append(tuple(bw_row))
        return cls(
            name=name,
            latency_cycles=tuple(latency),
            bytes_per_cycle=tuple(bandwidth),
        )


@dataclass(frozen=True)
class GGPUConfig:
    """Top-level architecture parameters of one G-GPU instance.

    Attributes
    ----------
    num_cus:
        Number of Compute Units (1-8, spatially replicated).
    pes_per_cu:
        SIMD width of a CU; FGPU uses 8 identical Processing Elements.
    wavefront_size:
        Number of work-items that execute an instruction together.
    max_wavefronts_per_cu:
        Resident wavefronts per CU; 8 wavefronts x 64 work-items = the 512
        work-items per CU quoted in the paper.
    num_registers:
        General-purpose registers per work-item.
    cram_words:
        Instruction memory (CRAM) depth in 32-bit words.
    rtm_words:
        Runtime-memory depth (kernel descriptors and parameters).
    lram_words_per_cu:
        Local scratchpad (LRAM) depth per CU.
    cache / axi:
        Memory-hierarchy configuration shared by all CUs.
    transfer:
        Host↔device transfer cost model used by the multi-device runtime
        (:mod:`repro.runtime.multidevice`); it never affects a bare
        :class:`~repro.simt.gpu.GGPUSimulator` launch.
    """

    num_cus: int = 1
    pes_per_cu: int = 8
    wavefront_size: int = 64
    max_wavefronts_per_cu: int = 8
    num_registers: int = 32
    cram_words: int = 2048
    rtm_words: int = 512
    lram_words_per_cu: int = 2048
    cache: CacheConfig = field(default_factory=CacheConfig)
    axi: AxiConfig = field(default_factory=AxiConfig)
    transfer: TransferConfig = field(default_factory=TransferConfig)

    def __post_init__(self) -> None:
        if not 1 <= self.num_cus <= 8:
            raise ConfigurationError(
                f"GPUPlanner supports 1 to 8 CUs, got {self.num_cus}"
            )
        if self.pes_per_cu != 8:
            raise ConfigurationError(
                "the FGPU compute unit is a SIMD machine of 8 processing elements"
            )
        if self.wavefront_size <= 0 or self.wavefront_size % self.pes_per_cu != 0:
            raise ConfigurationError(
                f"wavefront size must be a positive multiple of {self.pes_per_cu} PEs, "
                f"got {self.wavefront_size}"
            )
        if self.max_wavefronts_per_cu < 1:
            raise ConfigurationError("at least one resident wavefront per CU is required")
        if self.num_registers < 8 or self.num_registers > 64:
            raise ConfigurationError(
                f"register file supports 8-64 registers per work-item, got {self.num_registers}"
            )
        for name in ("cram_words", "rtm_words", "lram_words_per_cu"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ConfigurationError(f"{name} must be a positive power of two, got {value}")

    @property
    def work_items_per_cu(self) -> int:
        """Maximum concurrently resident work-items per CU (512 in the paper)."""
        return self.wavefront_size * self.max_wavefronts_per_cu

    @property
    def max_work_items(self) -> int:
        """Maximum concurrently resident work-items in the whole G-GPU."""
        return self.work_items_per_cu * self.num_cus

    @property
    def lanes_rounds_per_wavefront(self) -> int:
        """Cycles needed to stream one wavefront through the PE array."""
        return self.wavefront_size // self.pes_per_cu

    def with_cus(self, num_cus: int) -> "GGPUConfig":
        """Return a copy of this configuration with a different CU count."""
        return GGPUConfig(
            num_cus=num_cus,
            pes_per_cu=self.pes_per_cu,
            wavefront_size=self.wavefront_size,
            max_wavefronts_per_cu=self.max_wavefronts_per_cu,
            num_registers=self.num_registers,
            cram_words=self.cram_words,
            rtm_words=self.rtm_words,
            lram_words_per_cu=self.lram_words_per_cu,
            cache=self.cache,
            axi=self.axi,
            transfer=self.transfer,
        )
