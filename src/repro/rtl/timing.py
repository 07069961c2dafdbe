"""Static timing analysis over the netlist's named paths.

A path's combinational delay is the sum of

* the access delay of the SRAM macro it reads (if any), taken from the
  technology's memory-compiler model,
* one 2:1-mux level per memory-division level of that group,
* its own structural mux levels and gate levels, and
* the wire delay annotated by the physical stage (zero after logic synthesis).

Pipeline stages divide the *downstream logic* into equal segments; the macro
access cannot be split (it is a hard macro), so the first segment always
carries the full macro + division-mux delay.  A path meets timing at a given
frequency when its worst segment fits the technology's timing budget
(period minus register overhead and clock uncertainty).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import TimingError
from repro.rtl.netlist import Netlist, TimingPath
from repro.tech.technology import Technology


@dataclass(frozen=True)
class PathTiming:
    """Timing result of one path."""

    name: str
    partition: str
    macro_delay_ns: float
    logic_delay_ns: float
    wire_delay_ns: float
    pipeline_stages: int
    worst_segment_ns: float
    slack_ns: float

    @property
    def met(self) -> bool:
        """Whether the path meets the analyzed constraint."""
        return self.slack_ns >= -1e-9


@dataclass
class TimingReport:
    """Result of analyzing a whole netlist at one frequency."""

    design: str
    frequency_mhz: float
    budget_ns: float
    paths: List[PathTiming] = field(default_factory=list)

    @property
    def critical_path(self) -> PathTiming:
        """The path with the smallest slack."""
        if not self.paths:
            raise TimingError("timing report has no paths")
        return min(self.paths, key=lambda path: path.slack_ns)

    @property
    def wns_ns(self) -> float:
        """Worst negative slack (positive when all paths meet timing)."""
        return self.critical_path.slack_ns

    @property
    def met(self) -> bool:
        """Whether every path meets timing."""
        return self.wns_ns >= -1e-9

    def violations(self) -> List[PathTiming]:
        """All paths that fail the constraint, worst first."""
        failing = [path for path in self.paths if not path.met]
        return sorted(failing, key=lambda path: path.slack_ns)

    def summary(self) -> str:
        """Human-readable one-liner for logs and reports."""
        status = "MET" if self.met else f"{len(self.violations())} violations"
        return (
            f"{self.design} @ {self.frequency_mhz:.0f} MHz: WNS {self.wns_ns:+.3f} ns "
            f"({status}); critical path {self.critical_path.name}"
        )


def path_segment_delays(path: TimingPath, netlist: Netlist, tech: Technology) -> List[float]:
    """Per-stage combinational delays of one (possibly pipelined) path."""
    stdcells = tech.stdcells
    macro_delay = 0.0
    division_mux_levels = 0
    if path.memory_group is not None:
        group = netlist.memory_groups[path.memory_group]
        macro_delay = tech.sram.access_delay_ns(group.macro)
        division_mux_levels = group.mux_levels
    logic_delay = stdcells.path_delay(path.logic_levels, path.mux_levels)
    front_mux_delay = stdcells.path_delay(0, division_mux_levels)
    wire_delay = path.wire_delay_ns

    stages = path.pipeline_stages + 1
    if stages == 1:
        return [macro_delay + front_mux_delay + logic_delay + wire_delay]
    # The macro access and its division mux stay in the first stage; the
    # downstream logic and wire delay are spread evenly over all stages.
    per_stage_logic = (logic_delay + wire_delay) / stages
    segments = [macro_delay + front_mux_delay + per_stage_logic]
    segments.extend([per_stage_logic] * (stages - 1))
    return segments


def analyze_timing(netlist: Netlist, tech: Technology, frequency_mhz: float) -> TimingReport:
    """Run STA on every path of ``netlist`` at ``frequency_mhz``."""
    budget = tech.timing_budget_ns(frequency_mhz)
    report = TimingReport(netlist.name, frequency_mhz, budget)
    for path in netlist.timing_paths.values():
        segments = path_segment_delays(path, netlist, tech)
        worst = max(segments)
        macro_delay = 0.0
        if path.memory_group is not None:
            macro_delay = tech.sram.access_delay_ns(netlist.memory_groups[path.memory_group].macro)
        logic_delay = sum(segments) - macro_delay - path.wire_delay_ns
        report.paths.append(
            PathTiming(
                name=path.name,
                partition=path.partition.value,
                macro_delay_ns=macro_delay,
                logic_delay_ns=logic_delay,
                wire_delay_ns=path.wire_delay_ns,
                pipeline_stages=path.pipeline_stages,
                worst_segment_ns=worst,
                slack_ns=budget - worst,
            )
        )
    return report


def max_frequency_mhz(netlist: Netlist, tech: Technology) -> float:
    """Highest frequency at which every path of ``netlist`` meets timing."""
    worst_segment = 0.0
    for path in netlist.timing_paths.values():
        segments = path_segment_delays(path, netlist, tech)
        worst_segment = max(worst_segment, max(segments))
    if worst_segment <= 0:
        raise TimingError("netlist has no combinational delay to constrain")
    overhead = tech.stdcells.register_to_register_overhead() + tech.clock_uncertainty_ns
    return 1.0e3 / (worst_segment + overhead)
