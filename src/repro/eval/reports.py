"""One report type for every regenerated table and figure.

Each table is described once, by a builder that turns the already-computed
data object (synthesis results, routing estimates, Table-III measurements,
speed-up series, sweep tables) into a :class:`Report` -- nothing is
recomputed here.  A report renders as fixed-width text for the terminal, or
as CSV and Markdown for archiving, diffing between runs, or dropping into a
paper; all three share the report's header.  :func:`write_report_bundle`
writes the CSV and Markdown of everything it is given into one directory.
"""

from __future__ import annotations

import csv as csvlib
import io
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.eval.benchmarks import Table3Data
from repro.eval.comparison import SpeedupSeries
from repro.eval.energy import EnergyComparison
from repro.eval.multidevice import MultiDeviceTable, PipelineTable, TopologyTable
from repro.physical.routing import SIGNAL_LAYERS, RoutingEstimate
from repro.runtime.checkpoint import atomic_write_text
from repro.synth.logic import SynthesisResult
from repro.synth.report import SynthesisReportRow


def _is_number(cell: Any) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class Report:
    """One table: a title, a header, and rows of cells.

    The title heads the terminal text only; the CSV and Markdown renderings
    hold the header and the rows.
    """

    title: str
    header: Sequence[str]
    rows: Sequence[Sequence[Any]]

    def csv(self) -> str:
        """The table as CSV text."""
        buffer = io.StringIO()
        writer = csvlib.writer(buffer)
        writer.writerow(self.header)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def markdown(self) -> str:
        """The table as a Markdown table."""
        lines = [
            "| " + " | ".join(str(cell) for cell in self.header) + " |",
            "|" + "|".join("---" for _ in self.header) + "|",
        ]
        for row in self.rows:
            lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        """The title, then the table as fixed-width text.

        Columns of numbers are right-aligned, columns of labels left-aligned.
        """
        cells = [[str(cell) for cell in line] for line in [self.header, *self.rows]]
        widths = [max(len(line[column]) for line in cells) for column in range(len(self.header))]
        numeric = [
            all(_is_number(line[column]) for line in cells[1:])
            for column in range(len(self.header))
        ]

        def _line(line: List[str]) -> str:
            padded = (
                cell.rjust(width) if right else cell.ljust(width)
                for cell, width, right in zip(line, widths, numeric, strict=True)
            )
            return " ".join(padded).rstrip()

        header = _line(cells[0])
        return "\n".join(
            [self.title, header, "-" * len(header)] + [_line(line) for line in cells[1:]]
        )


# --------------------------------------------------------------------------- #
# The paper's tables and figures
# --------------------------------------------------------------------------- #
def table1_report(results: Iterable[SynthesisResult]) -> Report:
    """Table I: area, cell counts and power of every synthesized version."""
    rows = []
    for result in results:
        row = SynthesisReportRow.from_result(result)
        rows.append(
            (
                row.label,
                f"{row.total_area_mm2:.2f}",
                f"{row.memory_area_mm2:.2f}",
                row.num_ff,
                row.num_comb,
                row.num_memory,
                f"{row.leakage_mw:.2f}",
                f"{row.dynamic_w:.2f}",
                f"{row.total_w:.3f}",
            )
        )
    header = (
        "version",
        "total_area_mm2",
        "memory_area_mm2",
        "num_ff",
        "num_comb",
        "num_memory",
        "leakage_mw",
        "dynamic_w",
        "total_w",
    )
    return Report("Table I: logic synthesis of every version", header, rows)


def table2_report(estimates: Sequence[RoutingEstimate]) -> Report:
    """Table II: routed wirelength per metal layer (um) of each layout."""
    header = ["metal_layer"] + [
        f"{estimate.design}@{estimate.frequency_mhz:.0f}MHz_um" for estimate in estimates
    ]
    rows = [
        [layer] + [f"{estimate.layer(layer):.0f}" for estimate in estimates]
        for layer in SIGNAL_LAYERS
    ]
    return Report("Table II: wirelength per metal layer", header, rows)


def table3_report(table: Table3Data) -> Report:
    """Table III: input sizes and cycle counts (k-cycles)."""
    header = ["kernel", "riscv_size", "gpu_size", "riscv_kcycles"] + [
        f"gpu_{num_cus}cu_kcycles" for num_cus in table.cu_counts
    ]
    rows = []
    for kernel, row in table.rows.items():
        cells: List[Any] = [kernel, row.riscv_size, row.gpu_size, f"{row.riscv.kcycles:.1f}"]
        cells.extend(f"{row.gpu_kcycles(num_cus):.1f}" for num_cus in table.cu_counts)
        rows.append(cells)
    return Report("Table III: input sizes and cycle counts", header, rows)


def speedup_report(series: SpeedupSeries) -> Report:
    """A speed-up (or energy-gain) series: Fig. 5, Fig. 6, or the energy gains."""
    header = ["kernel"] + [f"{num_cus}cu" for num_cus in series.cu_counts]
    rows = [
        [kernel] + [f"{series.value(kernel, num_cus):.2f}" for num_cus in series.cu_counts]
        for kernel in series.kernels
    ]
    return Report(f"{series.metric} over the RISC-V", header, rows)


def energy_report(comparison: EnergyComparison) -> Report:
    """Energy per run (mJ) and the energy-efficiency gain over the RISC-V."""
    header = ["kernel", "riscv_energy_mj"]
    for num_cus in comparison.cu_counts:
        header.extend([f"gpu_{num_cus}cu_energy_mj", f"gpu_{num_cus}cu_gain"])
    rows = []
    for kernel in comparison.kernels:
        cells: List[Any] = [kernel, f"{comparison.riscv[kernel].energy_mj:.4f}"]
        for num_cus in comparison.cu_counts:
            cells.append(f"{comparison.gpu[kernel][num_cus].energy_mj:.4f}")
            cells.append(f"{comparison.gain(kernel, num_cus):.2f}")
        rows.append(cells)
    title = f"Energy per run at {comparison.frequency_mhz:.0f} MHz and gain over the RISC-V"
    return Report(title, header, rows)


# --------------------------------------------------------------------------- #
# Multi-device sweeps (PRs 4, 5 and 8)
# --------------------------------------------------------------------------- #
def multidevice_report(table: MultiDeviceTable) -> Report:
    """Makespan vs device count, with the speed-up over the smallest cell."""
    header = (
        "devices",
        "makespan_kcycles",
        "speedup",
        "compute_kcycles",
        "transfer_kcycles",
        "transfer_fraction",
        "mean_utilization",
    )
    rows = []
    for count in table.device_counts:
        cell = table.cell(count)
        rows.append(
            (
                count,
                f"{cell.makespan_kcycles:.1f}",
                f"{table.speedup(count):.2f}",
                f"{cell.compute_cycles / 1e3:.1f}",
                f"{cell.transfer_cycles / 1e3:.1f}",
                f"{cell.transfer_fraction:.3f}",
                f"{cell.mean_utilization:.3f}",
            )
        )
    title = f"Independent-launch batch: {len(table.kernels)} kernels at scale {table.scale}"
    return Report(title, header, rows)


def pipeline_report(table: PipelineTable) -> Report:
    """The two-stage DAG per transfer mode and device count."""
    header = (
        "mode",
        "devices",
        "makespan_kcycles",
        "improvement_vs_host",
        "transfer_kcycles",
        "p2p_transfers",
        "readback_transfers",
    )
    rows = []
    for mode in table.modes:
        for count in table.device_counts:
            cell = table.cell(mode, count)
            rows.append(
                (
                    mode,
                    count,
                    f"{cell.makespan_kcycles:.1f}",
                    f"{table.improvement(mode, count):.2f}",
                    f"{cell.transfer_cycles / 1e3:.1f}",
                    cell.transfers_p2p,
                    cell.transfers_from_device,
                )
            )
    title = f"Two-stage shuffle DAG: {table.lanes} lanes of {table.size} words"
    return Report(title, header, rows)


def topology_report(table: TopologyTable) -> Report:
    """The topology × scheduler ablation, with the speed-up over LPT."""
    header = (
        "dag",
        "topology",
        "scheduler",
        "devices",
        "makespan_kcycles",
        "speedup_vs_lpt",
        "transfer_kcycles",
        "p2p_transfers",
        "mean_utilization",
    )
    rows = []
    for dag in table.dags:
        for topology in table.topologies:
            for scheduler in table.schedulers:
                for count in table.device_counts:
                    cell = table.cell(dag, topology, scheduler, count)
                    rows.append(
                        (
                            dag,
                            topology,
                            scheduler,
                            count,
                            f"{cell.makespan_kcycles:.1f}",
                            f"{table.speedup_vs_lpt(dag, topology, scheduler, count):.2f}",
                            f"{cell.transfer_cycles / 1e3:.1f}",
                            cell.transfers_p2p,
                            f"{cell.mean_utilization:.3f}",
                        )
                    )
    title = (
        f"Topology ablation: layered {table.width}x{table.depth}@{table.size}, "
        f"shuffle {table.lanes}x{table.stages}@{table.size}"
    )
    return Report(title, header, rows)


# --------------------------------------------------------------------------- #
# Bundle writer
# --------------------------------------------------------------------------- #
def write_report_bundle(
    directory: str,
    table1: Optional[Iterable[SynthesisResult]] = None,
    table2: Optional[Sequence[RoutingEstimate]] = None,
    table3: Optional[Table3Data] = None,
    figure5: Optional[SpeedupSeries] = None,
    figure6: Optional[SpeedupSeries] = None,
    energy: Optional[EnergyComparison] = None,
    multidevice: Optional[MultiDeviceTable] = None,
    pipeline: Optional[PipelineTable] = None,
    topology: Optional[TopologyTable] = None,
) -> Dict[str, str]:
    """Write every provided table/figure as CSV and Markdown into ``directory``.

    Returns the mapping from artifact name to file path; artifacts whose data
    was not provided are simply skipped.
    """
    os.makedirs(directory, exist_ok=True)
    reports: List[Tuple[str, Any, Callable[[Any], Report]]] = [
        ("table1", table1, table1_report),
        ("table2", table2, table2_report),
        ("table3", table3, table3_report),
        ("figure5_speedup", figure5, speedup_report),
        ("figure6_speedup_per_area", figure6, speedup_report),
        ("energy_extension", energy, energy_report),
        ("multidevice_makespan", multidevice, multidevice_report),
        ("pipeline_transfer_modes", pipeline, pipeline_report),
        ("topology_schedulers", topology, topology_report),
    ]
    written: Dict[str, str] = {}
    for stem, data, build in reports:
        if data is None:
            continue
        report = build(data)
        for name, text in ((f"{stem}.csv", report.csv()), (f"{stem}.md", report.markdown())):
            # Atomic (temp + rename): a reader or a crashed run never sees a
            # truncated artifact, only the previous or the new complete file.
            path = os.path.join(directory, name)
            atomic_write_text(path, text)
            written[name] = path
    return written
