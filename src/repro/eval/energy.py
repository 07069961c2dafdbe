"""Energy and energy-efficiency evaluation (an extension of Figs. 5-6).

The paper motivates G-GPU with *energy efficiency* but reports only
performance (Fig. 5) and performance per area (Fig. 6).  This module closes
the loop with the data the library already produces: the synthesized power of
every G-GPU version and of the RISC-V baseline (Table-I model) combined with
the measured cycle counts (Table-III harness) gives energy per benchmark,
energy-delay product, and the energy-efficiency gain over the RISC-V --
"Fig. 7", the figure the paper could have plotted.

The same pessimistic input-size scaling as Fig. 5 is applied to the RISC-V
cycle counts so the comparison is at equal work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import KernelError
from repro.eval.benchmarks import Table3Data
from repro.eval.comparison import SpeedupSeries
from repro.planner.optimizer import TimingOptimizer
from repro.planner.spec import GGPUSpec
from repro.rtl.generator import generate_ggpu_netlist, riscv_reference_netlist
from repro.synth.logic import LogicSynthesis
from repro.tech.technology import Technology


@dataclass(frozen=True)
class EnergyFigures:
    """Energy metrics of one benchmark run on one target."""

    kernel: str
    target: str
    cycles: float
    frequency_mhz: float
    power_w: float

    @property
    def runtime_ms(self) -> float:
        """Wall-clock time of the run at the target's clock frequency."""
        return self.cycles / (self.frequency_mhz * 1.0e3)

    @property
    def energy_mj(self) -> float:
        """Energy of the run in millijoules."""
        return self.power_w * self.runtime_ms

    @property
    def edp_mj_ms(self) -> float:
        """Energy-delay product (mJ x ms)."""
        return self.energy_mj * self.runtime_ms


@dataclass
class EnergyComparison:
    """Energy figures of every kernel on the RISC-V and on each G-GPU version.

    ``gain`` (the headline series) is the energy-efficiency gain of the G-GPU
    over the RISC-V at equal work: RISC-V energy scaled by the input-size
    ratio divided by G-GPU energy.
    """

    frequency_mhz: float
    riscv_power_w: float
    ggpu_power_w: Dict[int, float] = field(default_factory=dict)
    riscv: Dict[str, EnergyFigures] = field(default_factory=dict)
    gpu: Dict[str, Dict[int, EnergyFigures]] = field(default_factory=dict)
    size_scale: Dict[str, float] = field(default_factory=dict)

    @property
    def kernels(self) -> List[str]:
        return list(self.gpu)

    @property
    def cu_counts(self) -> List[int]:
        return sorted(self.ggpu_power_w)

    def gain(self, kernel: str, num_cus: int) -> float:
        """Energy-efficiency gain over the RISC-V (input-size scaled)."""
        try:
            gpu = self.gpu[kernel][num_cus]
            riscv = self.riscv[kernel]
        except KeyError as exc:
            raise KernelError(f"no energy data for {kernel!r} at {num_cus} CU(s)") from exc
        scaled_riscv_energy = riscv.energy_mj * self.size_scale[kernel]
        return scaled_riscv_energy / gpu.energy_mj

    def gain_series(self) -> SpeedupSeries:
        """The gains as a bar-chart series (rendered like Figs. 5-6)."""
        series = SpeedupSeries(metric="energy_gain", cu_counts=tuple(self.cu_counts))
        for kernel in self.kernels:
            series.values[kernel] = {
                num_cus: self.gain(kernel, num_cus) for num_cus in self.cu_counts
            }
        return series

    def best(self) -> float:
        """Largest energy-efficiency gain in the comparison."""
        return max(self.gain(kernel, cus) for kernel in self.kernels for cus in self.cu_counts)


def synthesized_power_w(
    tech: Technology,
    cu_counts: Iterable[int],
    frequency_mhz: float,
    optimizer: Optional[TimingOptimizer] = None,
) -> Dict[int, float]:
    """Total power of the optimized G-GPU versions at ``frequency_mhz``."""
    synthesis = LogicSynthesis(tech)
    optimizer = optimizer or TimingOptimizer(tech)
    powers: Dict[int, float] = {}
    for num_cus in cu_counts:
        spec = GGPUSpec(num_cus=num_cus, target_frequency_mhz=frequency_mhz)
        netlist = generate_ggpu_netlist(spec.architecture(), name=spec.label)
        optimizer.close_timing(netlist, frequency_mhz)
        powers[num_cus] = synthesis.run(netlist, frequency_mhz).total_power_w
    return powers


def riscv_power_w(tech: Technology, frequency_mhz: float) -> float:
    """Total power of the synthesized RISC-V baseline at ``frequency_mhz``."""
    return LogicSynthesis(tech).run(riscv_reference_netlist(), frequency_mhz).total_power_w


def build_energy_comparison(
    table3: Table3Data,
    tech: Technology,
    frequency_mhz: float = 667.0,
    cu_counts: Optional[Sequence[int]] = None,
) -> EnergyComparison:
    """Combine Table-III cycle counts with synthesized power into energy figures."""
    counts = list(cu_counts) if cu_counts is not None else list(table3.cu_counts)
    comparison = EnergyComparison(
        frequency_mhz=frequency_mhz,
        riscv_power_w=riscv_power_w(tech, frequency_mhz),
        ggpu_power_w=synthesized_power_w(tech, counts, frequency_mhz),
    )
    for kernel, row in table3.rows.items():
        comparison.riscv[kernel] = EnergyFigures(
            kernel=kernel,
            target="riscv",
            cycles=row.riscv.cycles,
            frequency_mhz=frequency_mhz,
            power_w=comparison.riscv_power_w,
        )
        comparison.size_scale[kernel] = row.gpu_size / row.riscv_size
        comparison.gpu[kernel] = {
            num_cus: EnergyFigures(
                kernel=kernel,
                target=f"ggpu_{num_cus}cu",
                cycles=row.gpu[num_cus].cycles,
                frequency_mhz=frequency_mhz,
                power_w=comparison.ggpu_power_w[num_cus],
            )
            for num_cus in counts
        }
    return comparison
