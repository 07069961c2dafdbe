"""Physical synthesis model (the Cadence Innovus stage of the paper's flow).

The paper breaks each G-GPU into three kinds of partitions -- the CU, the
global memory controller, and the top -- places the CU and memory-controller
partitions at 70% density and the top at 30%, clones the routed CU partition
for multi-CU versions, and reports die floorplans (Figs. 3-4), routed
wirelength per metal layer (Table II), and the post-route achievable
frequency (the 8-CU version only closes 600 MHz because of the long routes
between the peripheral CUs and the memory controller).

This package reproduces those stages with analytical models:

* :mod:`repro.physical.floorplan` -- partition sizing and placement,
* :mod:`repro.physical.placement` -- SRAM macro placement inside partitions,
* :mod:`repro.physical.routing` -- wirelength per metal layer and the wire
  delay annotated onto the cross-partition timing paths,
* :mod:`repro.physical.layout` -- the final layout artifact (geometry plus
  post-route timing), exportable as JSON or an ASCII sketch.

Table II itself is rendered by :func:`repro.eval.reports.table2_report`.
"""

from repro.physical.floorplan import Floorplan, Floorplanner, PartitionPlacement, Rect
from repro.physical.placement import MacroPlacement, place_macros
from repro.physical.routing import RoutingEstimate, RoutingEstimator
from repro.physical.layout import LayoutResult, PhysicalSynthesis

__all__ = [
    "Floorplan",
    "Floorplanner",
    "PartitionPlacement",
    "Rect",
    "MacroPlacement",
    "place_macros",
    "RoutingEstimate",
    "RoutingEstimator",
    "LayoutResult",
    "PhysicalSynthesis",
]
