"""Logic synthesis model (the Cadence Genus stage of the paper's flow).

Given a netlist and a technology, this package rolls instance counts up into
the quantities Table I reports for every G-GPU version: total area, memory
area, flip-flop count, combinational gate count, macro count, leakage power,
and dynamic power at the target frequency.  It also provides the
per-partition breakdown the physical stage floorplans from.
"""

from repro.synth.logic import (
    LogicSynthesis,
    PartitionArea,
    SynthesisResult,
)
from repro.synth.report import SynthesisReportRow

__all__ = [
    "LogicSynthesis",
    "PartitionArea",
    "SynthesisResult",
    "SynthesisReportRow",
]
