"""Design-space exploration over CU counts and operating frequencies.

The paper exercises GPUPlanner over 1/2/4/8 CUs and 500/590/667 MHz, keeping
the 12 versions "worth the PPA trade-off".  :class:`DesignSpaceExplorer`
automates that sweep: for every (CU count, frequency) point it generates the
netlist, closes timing with the optimizer, runs logic synthesis, and collects
the PPA so the caller can pick versions, plot trade-offs, or extract the
Pareto frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import PlanningError
from repro.planner.optimizer import OptimizationResult, TimingOptimizer
from repro.planner.spec import GGPUSpec
from repro.runtime.parallel import parallel_map
from repro.rtl.generator import generate_ggpu_netlist
from repro.rtl.netlist import Netlist
from repro.synth.logic import LogicSynthesis, SynthesisResult
from repro.tech.technology import Technology

# The workload lists a design-space sweep can be scored against: the paper's
# Table III suite, and the extended suite added on top of it.  Spelled out as
# literals (and pinned against the kernel registry by ``tests/test_planner.py``)
# so the pure-PPA flows never import the kernel library at module-import time.
PAPER_WORKLOAD_SUITE: Tuple[str, ...] = (
    "mat_mul",
    "copy",
    "vec_mul",
    "fir",
    "div_int",
    "xcorr",
    "parallel_sel",
)
EXTENDED_WORKLOAD_SUITE: Tuple[str, ...] = PAPER_WORKLOAD_SUITE + (
    "saxpy",
    "dot",
    "reduce_sum",
    "inclusive_scan",
    "histogram",
    "transpose",
    "matmul2d",
    "conv2d",
    "bitonic_sort",
)


@dataclass
class DesignPoint:
    """One explored (CU count, frequency) point."""

    spec: GGPUSpec
    netlist: Netlist
    optimization: OptimizationResult
    synthesis: SynthesisResult

    @property
    def met(self) -> bool:
        """Whether the point closed timing at its target frequency."""
        return self.optimization.met and self.synthesis.timing_met

    @property
    def area_mm2(self) -> float:
        return self.synthesis.total_area_mm2

    @property
    def power_w(self) -> float:
        return self.synthesis.total_power_w

    @property
    def throughput_proxy(self) -> float:
        """CU count times frequency: a first-order compute-throughput metric."""
        return self.spec.num_cus * self.spec.target_frequency_mhz

    @property
    def efficiency_proxy(self) -> float:
        """Throughput proxy per mm^2 (what Fig. 6 derates by)."""
        if self.area_mm2 <= 0:
            return 0.0
        return self.throughput_proxy / self.area_mm2

    def label(self) -> str:
        return self.spec.label


@dataclass
class WorkloadPoint:
    """One design point joined with measured workload cycle counts.

    ``kernel_cycles`` maps kernel name to simulated cycles on this point's
    CU count; runtimes divide by the point's *target* frequency, so a point
    that misses timing closure still reports what it promised (``met`` tells
    the designer whether to believe it).
    """

    design: DesignPoint
    kernel_cycles: Dict[str, float] = field(default_factory=dict)

    @property
    def spec(self) -> GGPUSpec:
        return self.design.spec

    @property
    def met(self) -> bool:
        return self.design.met

    def runtime_ms(self, kernel: str) -> float:
        """Wall-clock runtime of one kernel at the point's target frequency."""
        try:
            cycles = self.kernel_cycles[kernel]
        except KeyError as exc:
            raise PlanningError(
                f"workload point {self.spec.label} did not measure kernel {kernel!r}"
            ) from exc
        return cycles / (self.spec.target_frequency_mhz * 1.0e3)

    @property
    def total_runtime_ms(self) -> float:
        """Runtime of the whole workload list, back to back."""
        return sum(self.kernel_cycles.values()) / (self.spec.target_frequency_mhz * 1.0e3)

    @property
    def runtime_per_area(self) -> float:
        """Workloads-per-second-per-mm^2 flavour of Fig. 6, measured not proxied."""
        if self.design.area_mm2 <= 0 or self.total_runtime_ms <= 0:
            return 0.0
        return 1.0 / (self.total_runtime_ms * self.design.area_mm2)


class DesignSpaceExplorer:
    """Sweeps GPUPlanner over CU counts and frequencies."""

    def __init__(self, tech: Technology, optimizer: Optional[TimingOptimizer] = None) -> None:
        self.tech = tech
        self.optimizer = optimizer or TimingOptimizer(tech)
        self.synthesis = LogicSynthesis(tech)

    def explore_point(self, spec: GGPUSpec) -> DesignPoint:
        """Generate, optimize, and synthesize one specification."""
        netlist = generate_ggpu_netlist(spec.architecture(), name=spec.label)
        optimization = self.optimizer.close_timing(netlist, spec.target_frequency_mhz)
        synthesis = self.synthesis.run(netlist, spec.target_frequency_mhz)
        return DesignPoint(spec=spec, netlist=netlist, optimization=optimization, synthesis=synthesis)

    def explore(
        self,
        cu_counts: Sequence[int] = (1, 2, 4, 8),
        frequencies_mhz: Sequence[float] = (500.0, 590.0, 667.0),
        jobs: Optional[int] = None,
    ) -> List[DesignPoint]:
        """Sweep the full grid of CU counts and frequencies.

        Each grid point generates, optimizes, and synthesizes its own
        netlist, so the sweep is fanned out with
        :func:`repro.runtime.parallel.parallel_map` (``jobs=None`` honours
        ``REPRO_JOBS``); the points come back in grid order regardless of
        the job count.
        """
        if not cu_counts or not frequencies_mhz:
            raise PlanningError("the design-space sweep needs at least one CU count and frequency")
        specs = [
            GGPUSpec(num_cus, frequency)
            for num_cus in cu_counts
            for frequency in frequencies_mhz
        ]
        return parallel_map(self.explore_point, specs, jobs=jobs)

    def explore_workloads(
        self,
        cu_counts: Sequence[int] = (1, 2, 4, 8),
        frequencies_mhz: Sequence[float] = (500.0, 590.0, 667.0),
        workloads: Sequence[str] = EXTENDED_WORKLOAD_SUITE,
        scale: float = 0.25,
        seed: int = 2022,
        jobs: Optional[int] = None,
        journal=None,
    ) -> List["WorkloadPoint"]:
        """Score every (CU count, frequency) point against a workload list.

        The PPA side reuses :meth:`explore`; the performance side is the
        G-GPU half of :func:`repro.eval.benchmarks.run_table3` over the same
        kernels, CU counts, ``scale`` and ``seed`` (its RISC-V cells run
        too).  Each CU count's kernel cycles are joined with each
        frequency's synthesis result into wall-clock runtime estimates.

        ``journal`` (a path or :class:`~repro.runtime.checkpoint.SweepJournal`)
        is ``run_table3``'s: a killed sweep recomputes only the missing
        cells, and a Table III journal over the same kernels, CU counts,
        scale and seed serves them.  The analytic PPA side is cheap and
        always recomputed.
        """
        if not workloads:
            raise PlanningError("the workload sweep needs at least one kernel name")
        # Import here: the benchmarks depend on the kernel library, which this
        # module must not pull in at import time for the pure-PPA flows.
        from repro.eval.benchmarks import run_table3

        designs = self.explore(cu_counts, frequencies_mhz, jobs=jobs)
        table = run_table3(
            kernels=workloads,
            cu_counts=cu_counts,
            scale=scale,
            seed=seed,
            jobs=jobs,
            journal=journal,
        )
        return [
            WorkloadPoint(
                design=design,
                kernel_cycles={
                    kernel: table.row(kernel).gpu[design.spec.num_cus].cycles
                    for kernel in workloads
                },
            )
            for design in designs
        ]

    @staticmethod
    def feasible_points(points: Iterable[DesignPoint]) -> List[DesignPoint]:
        """Points that closed timing at their target frequency."""
        return [point for point in points if point.met]

    @staticmethod
    def pareto_frontier(points: Iterable[DesignPoint]) -> List[DesignPoint]:
        """Area/throughput Pareto-optimal points (smaller area, higher throughput)."""
        candidates = sorted(points, key=lambda point: (point.area_mm2, -point.throughput_proxy))
        frontier: List[DesignPoint] = []
        best_throughput = -1.0
        for point in candidates:
            if point.throughput_proxy > best_throughput:
                frontier.append(point)
                best_throughput = point.throughput_proxy
        return frontier
