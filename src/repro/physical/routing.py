"""Routing estimation: wirelength per metal layer and route delays.

Two jobs:

* **Table II** -- estimate the routed signal wirelength of a placed design and
  break it down per metal layer (M2-M7; M1/M8/M9 are power-only).  The model
  combines an intra-partition term proportional to the cell and macro counts,
  a top-level term proportional to the CU-to-memory-controller bus routes, and
  a congestion factor that grows with the target frequency (high-effort timing
  closure adds detours and buffering).
* **Post-route timing** -- annotate every cross-partition timing path with the
  buffered wire delay of its route so the post-route STA reproduces the
  paper's key finding: the 8-CU floorplan cannot close 667 MHz and tops out
  around 600 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import PhysicalDesignError
from repro.physical.floorplan import Floorplan
from repro.rtl.netlist import Netlist
from repro.synth.logic import SynthesisResult
from repro.tech.technology import Technology

#: The signal layers Table II reports, bottom to top.
SIGNAL_LAYERS: Tuple[str, ...] = ("M2", "M3", "M4", "M5", "M6", "M7")

# Share of the *top-level* wirelength landing on each metal layer: the long
# inter-partition buses ride the intermediate and upper signal layers.
_TOP_LEVEL_LAYER_SHARES = {"M2": 0.0, "M3": 0.05, "M4": 0.20, "M5": 0.30, "M6": 0.30, "M7": 0.15}


@dataclass
class RoutingEstimate:
    """Routed-wirelength estimate of one placed design."""

    design: str
    frequency_mhz: float
    per_layer_um: Dict[str, float] = field(default_factory=dict)
    top_level_um: float = 0.0

    @property
    def total_um(self) -> float:
        """Total signal wirelength over all signal layers."""
        return sum(self.per_layer_um.values())

    def layer(self, name: str) -> float:
        """Wirelength on one layer (zero when the layer carries no signal)."""
        return self.per_layer_um.get(name, 0.0)


class RoutingEstimator:
    """Wirelength and wire-delay estimator."""

    def __init__(
        self,
        wirelength_per_cell_um: float = 55.0,
        wirelength_per_macro_um: float = 20000.0,
        bus_wires_per_cu: int = 160,
        control_fanout_wires: int = 64,
        effort_coefficient: float = 0.25,
        reference_frequency_mhz: float = 500.0,
        frequency_span_mhz: float = 167.0,
        wire_delay_ns_per_mm: float = 0.20,
    ) -> None:
        if wirelength_per_cell_um <= 0 or wirelength_per_macro_um <= 0:
            raise PhysicalDesignError("wirelength coefficients must be positive")
        self.wirelength_per_cell_um = wirelength_per_cell_um
        self.wirelength_per_macro_um = wirelength_per_macro_um
        self.bus_wires_per_cu = bus_wires_per_cu
        self.control_fanout_wires = control_fanout_wires
        self.effort_coefficient = effort_coefficient
        self.reference_frequency_mhz = reference_frequency_mhz
        self.frequency_span_mhz = frequency_span_mhz
        self.wire_delay_ns_per_mm = wire_delay_ns_per_mm

    # ------------------------------------------------------------------ #
    # Wirelength (Table II)
    # ------------------------------------------------------------------ #
    def effort_factor(self, frequency_mhz: float) -> float:
        """Extra wirelength from high-effort timing closure above 500 MHz."""
        overdrive = max(0.0, frequency_mhz - self.reference_frequency_mhz) / self.frequency_span_mhz
        return 1.0 + self.effort_coefficient * overdrive

    def top_level_wirelength_um(self, floorplan: Floorplan) -> float:
        """Wirelength of the CU <-> memory-controller buses and control fanout."""
        total = 0.0
        for placement in floorplan.cu_placements:
            distance = floorplan.cu_to_memctrl_distance_um(placement.name)
            total += distance * self.bus_wires_per_cu
            total += distance * 0.5 * self.control_fanout_wires
        return total

    def estimate(
        self,
        netlist: Netlist,
        synthesis: SynthesisResult,
        floorplan: Floorplan,
        tech: Technology,
        frequency_mhz: float = None,
    ) -> RoutingEstimate:
        """Estimate the routed wirelength of the placed design."""
        frequency = frequency_mhz if frequency_mhz is not None else floorplan.target_frequency_mhz
        cells = synthesis.num_ff + synthesis.num_comb
        intra = (
            cells * self.wirelength_per_cell_um
            + synthesis.num_macros * self.wirelength_per_macro_um
        )
        intra *= self.effort_factor(frequency)
        top_level = self.top_level_wirelength_um(floorplan)

        per_layer: Dict[str, float] = {}
        for layer_name, share in tech.metal.signal_layer_shares().items():
            per_layer[layer_name] = intra * share
        for layer_name, share in _TOP_LEVEL_LAYER_SHARES.items():
            per_layer[layer_name] = per_layer.get(layer_name, 0.0) + top_level * share

        return RoutingEstimate(
            design=netlist.name,
            frequency_mhz=frequency,
            per_layer_um=per_layer,
            top_level_um=top_level,
        )

    # ------------------------------------------------------------------ #
    # Post-route wire delays
    # ------------------------------------------------------------------ #
    def annotate_wire_delays(
        self, netlist: Netlist, floorplan: Floorplan, tech: Technology
    ) -> Dict[str, float]:
        """Set ``wire_delay_ns`` on every cross-partition path; returns the delays.

        The path naming convention of the generator is ``top/cu<i>_request`` /
        ``top/cu<i>_response``; both directions get the delay of the buffered
        route between that CU and the memory controller.
        """
        delays: Dict[str, float] = {}
        for path in netlist.timing_paths.values():
            if not path.crosses_partitions:
                continue
            cu_name = path.name.split("/")[-1].split("_")[0]
            distance = floorplan.cu_to_memctrl_distance_um(cu_name)
            delay = tech.metal.repeated_wire_delay_ns(distance, self.wire_delay_ns_per_mm)
            path.wire_delay_ns = delay
            delays[path.name] = delay
        return delays
