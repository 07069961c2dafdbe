"""Table-I-style synthesis reporting.

The paper's Table I lists, for each of the 12 generated versions: number of
CUs and frequency, total area, memory area, #FF, #Comb., #Memory, leakage,
dynamic power, and total power.  :class:`SynthesisReportRow` holds exactly
those columns for one :class:`~repro.synth.logic.SynthesisResult`;
:func:`repro.eval.reports.table1_report` renders the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.synth.logic import SynthesisResult


@dataclass(frozen=True)
class SynthesisReportRow:
    """One row of the regenerated Table I."""

    label: str
    total_area_mm2: float
    memory_area_mm2: float
    num_ff: int
    num_comb: int
    num_memory: int
    leakage_mw: float
    dynamic_w: float
    total_w: float

    @classmethod
    def from_result(cls, result: SynthesisResult) -> "SynthesisReportRow":
        """Build a row from a synthesis result."""
        label = f"{result.num_cus}@{result.frequency_mhz:.0f}MHz"
        return cls(
            label=label,
            total_area_mm2=result.total_area_mm2,
            memory_area_mm2=result.memory_area_mm2,
            num_ff=result.num_ff,
            num_comb=result.num_comb,
            num_memory=result.num_macros,
            leakage_mw=result.leakage_mw,
            dynamic_w=result.dynamic_w,
            total_w=result.total_power_w,
        )

    def as_tuple(self) -> tuple:
        """Columns in the paper's order (used by tests and CSV export)."""
        return (
            self.label,
            self.total_area_mm2,
            self.memory_area_mm2,
            self.num_ff,
            self.num_comb,
            self.num_memory,
            self.leakage_mw,
            self.dynamic_w,
            self.total_w,
        )
