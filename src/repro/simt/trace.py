"""Execution statistics collected during a kernel launch.

The raw result the paper's evaluation needs is the *cycle count* of each
kernel on each G-GPU configuration (Table III); the rest of the statistics
(instruction mix, SIMD efficiency, cache behaviour, AXI traffic) exist so the
examples and the design-space exploration can explain *why* a kernel scales or
does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.arch.isa import OpClass
from repro.simt.axi import MemoryTrafficStats
from repro.simt.cache import CacheStats


@dataclass
class InstructionMix:
    """Dynamic instruction counts per execution class."""

    counts: Dict[str, int] = field(default_factory=dict)

    def record(self, opclass: OpClass, amount: int = 1) -> None:
        """Add ``amount`` executed instructions of the given class."""
        key = opclass.value
        self.counts[key] = self.counts.get(key, 0) + amount

    @property
    def total(self) -> int:
        """Total dynamic wavefront-instructions."""
        return sum(self.counts.values())

    def fraction(self, opclass: OpClass) -> float:
        """Fraction of issued instructions belonging to the given class."""
        if self.total == 0:
            return 0.0
        return self.counts.get(opclass.value, 0) / self.total

    def merge(self, other: "InstructionMix") -> "InstructionMix":
        """Element-wise sum of two mixes."""
        merged = dict(self.counts)
        for key, value in other.counts.items():
            merged[key] = merged.get(key, 0) + value
        return InstructionMix(merged)


@dataclass
class ComputeUnitStats:
    """Per-CU statistics for one launch."""

    cu_id: int
    wavefront_size: int = 64
    wavefronts_executed: int = 0
    instructions_issued: int = 0
    active_lane_issues: int = 0
    busy_cycles: float = 0.0
    issue_events: int = 0
    mix: InstructionMix = field(default_factory=InstructionMix)

    @property
    def simd_efficiency(self) -> float:
        """Average fraction of lanes active per issued instruction."""
        if self.instructions_issued == 0:
            return 1.0
        return self.active_lane_issues / (self.instructions_issued * float(self.wavefront_size))

    @property
    def macro_batching(self) -> float:
        """Average instructions issued per scheduling event.

        1.0 means every instruction needed its own trip through the event
        loop; higher values measure how much work the macro-stepping fast
        path batched into single scheduling decisions.
        """
        if self.issue_events == 0:
            return 1.0
        return self.instructions_issued / self.issue_events


@dataclass
class KernelRunStats:
    """Everything measured during one kernel launch."""

    kernel_name: str
    num_cus: int
    global_size: int
    workgroup_size: int
    wavefront_size: int = 64
    cycles: float = 0.0
    workgroups_dispatched: int = 0
    cu_stats: List[ComputeUnitStats] = field(default_factory=list)
    cache: CacheStats = field(default_factory=CacheStats)
    traffic: MemoryTrafficStats = field(default_factory=MemoryTrafficStats)

    @property
    def kcycles(self) -> float:
        """Cycle count in thousands of cycles (the unit of Table III)."""
        return self.cycles / 1.0e3

    @property
    def instructions_issued(self) -> int:
        """Total wavefront-instructions issued across all CUs."""
        return sum(stats.instructions_issued for stats in self.cu_stats)

    @property
    def simd_efficiency(self) -> float:
        """Launch-wide SIMD lane utilization."""
        issued = self.instructions_issued
        if issued == 0:
            return 1.0
        active = sum(stats.active_lane_issues for stats in self.cu_stats)
        return active / (issued * float(self.wavefront_size))

    @property
    def mix(self) -> InstructionMix:
        """Aggregate dynamic instruction mix."""
        merged = InstructionMix()
        for stats in self.cu_stats:
            merged = merged.merge(stats.mix)
        return merged

    def summary(self) -> str:
        """One-line human-readable summary used by the examples."""
        return (
            f"{self.kernel_name}: {self.cycles:.0f} cycles on {self.num_cus} CU(s), "
            f"{self.instructions_issued} instructions, "
            f"SIMD efficiency {self.simd_efficiency:.2f}, "
            f"cache hit rate {self.cache.hit_rate:.2f}"
        )
