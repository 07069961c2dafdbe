"""Regeneration of the paper's synthesis and layout tables.

* Table I -- the 12 versions after logic synthesis.
* Table II -- wirelength per metal layer for the 4 physically implemented
  versions (the 8-CU 667 MHz target is reported at its achieved 600 MHz).

Table III (benchmark input sizes and cycle counts) is measured by
:func:`repro.eval.benchmarks.run_table3`; every table renders through
:mod:`repro.eval.reports`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.physical.layout import LayoutResult, PhysicalSynthesis
from repro.physical.routing import RoutingEstimate
from repro.planner.dse import DesignPoint, DesignSpaceExplorer
from repro.planner.optimizer import TimingOptimizer
from repro.planner.spec import GGPUSpec
from repro.planner.versions import (
    PAPER_CU_COUNTS,
    PAPER_FREQUENCIES_MHZ,
    PHYSICAL_VERSION_SPECS,
)
from repro.rtl.generator import generate_ggpu_netlist
from repro.synth.logic import LogicSynthesis, SynthesisResult
from repro.tech.technology import Technology


# --------------------------------------------------------------------------- #
# Table I
# --------------------------------------------------------------------------- #
def build_table1(
    tech: Technology,
    cu_counts: Sequence[int] = PAPER_CU_COUNTS,
    frequencies_mhz: Sequence[float] = PAPER_FREQUENCIES_MHZ,
) -> List[SynthesisResult]:
    """Synthesize every (frequency, CU count) version, in Table I's row order."""
    explorer = DesignSpaceExplorer(tech)
    results: List[SynthesisResult] = []
    for frequency in frequencies_mhz:
        for num_cus in cu_counts:
            point: DesignPoint = explorer.explore_point(
                GGPUSpec(num_cus=num_cus, target_frequency_mhz=frequency)
            )
            results.append(point.synthesis)
    return results


# --------------------------------------------------------------------------- #
# Table II (and the layouts of Figs. 3-4)
# --------------------------------------------------------------------------- #
def build_physical_versions(tech: Technology) -> List[LayoutResult]:
    """Run physical synthesis for the paper's four extreme versions."""
    optimizer = TimingOptimizer(tech)
    synthesis = LogicSynthesis(tech)
    physical = PhysicalSynthesis(tech)
    layouts: List[LayoutResult] = []
    for spec in PHYSICAL_VERSION_SPECS:
        netlist = generate_ggpu_netlist(spec.architecture(), name=f"{spec.num_cus}CU")
        optimizer.close_timing(netlist, spec.target_frequency_mhz)
        synth_result = synthesis.run(netlist, spec.target_frequency_mhz)
        layouts.append(physical.run(netlist, synth_result, spec.target_frequency_mhz))
    return layouts


def build_table2(tech: Technology, layouts: Optional[List[LayoutResult]] = None) -> List[RoutingEstimate]:
    """Per-layer wirelength of the four physical versions.

    The routing estimate is labelled with the *achieved* frequency, matching
    the paper's convention of listing the fourth column as 8CU@600MHz.
    """
    layouts = layouts if layouts is not None else build_physical_versions(tech)
    estimates: List[RoutingEstimate] = []
    for layout in layouts:
        estimate = layout.routing
        estimate.frequency_mhz = layout.achieved_frequency_mhz
        estimates.append(estimate)
    return estimates
