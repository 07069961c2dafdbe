"""Evaluation harness: regenerates every table and figure of the paper.

* :mod:`repro.eval.benchmarks` -- runs the seven kernels on the G-GPU
  simulator (1/2/4/8 CUs) and on the RISC-V ISS (Table III).
* :mod:`repro.eval.comparison` -- turns cycle counts into the speed-up and
  speed-up-per-area metrics of Figs. 5 and 6 using the paper's methodology
  (RISC-V cycles scaled by the input-size ratio, speed-up derated by the
  G-GPU/RISC-V area ratio).
* :mod:`repro.eval.tables` -- Table I (12 synthesized versions) and Table II
  (wirelength per metal layer).
* :mod:`repro.eval.figures` -- Figs. 3-4 (layouts) and Figs. 5-6 (speed-ups).
* :mod:`repro.eval.reports` -- one :class:`~repro.eval.reports.Report` per
  table (a builder each), rendered as terminal text, CSV, or Markdown
  (imported on use: it pulls in the energy model and ``csv``).
* :mod:`repro.eval.paper_data` -- the numbers printed in the paper, used to
  compare shapes in EXPERIMENTS.md and in the benchmark harness output.
* :mod:`repro.eval.multidevice` -- the beyond-the-paper multi-device sweeps:
  makespan vs device count for an independent-launch batch of the whole
  kernel suite, the two-stage-DAG transfer-mode ablation, and the topology ×
  scheduler ablation (:func:`repro.eval.multidevice.run_topology_table`),
  all scheduled by :class:`repro.runtime.multidevice.OutOfOrderQueue`.
"""

from repro.eval.benchmarks import (
    BenchmarkSizes,
    GpuMeasurement,
    RiscvMeasurement,
    Table3Row,
    Table3Data,
    measure_gpu_kernel,
    measure_riscv_program,
    run_table3,
)
from repro.eval.comparison import (
    AreaRatios,
    SpeedupSeries,
    compute_area_ratios,
    compute_speedups,
    derate_by_area,
)
from repro.eval.multidevice import (
    MultiDeviceCell,
    MultiDeviceTable,
    TopologyCell,
    TopologyTable,
    run_multidevice_table,
    run_topology_table,
)
from repro.eval.tables import build_table1, build_table2
from repro.eval.figures import (
    build_figure3,
    build_figure4,
    build_figure5,
    build_figure6,
    format_speedup_chart,
)

__all__ = [
    "BenchmarkSizes",
    "GpuMeasurement",
    "RiscvMeasurement",
    "Table3Row",
    "Table3Data",
    "measure_gpu_kernel",
    "measure_riscv_program",
    "run_table3",
    "AreaRatios",
    "SpeedupSeries",
    "compute_area_ratios",
    "compute_speedups",
    "derate_by_area",
    "MultiDeviceCell",
    "MultiDeviceTable",
    "TopologyCell",
    "TopologyTable",
    "run_multidevice_table",
    "run_topology_table",
    "build_table1",
    "build_table2",
    "build_figure3",
    "build_figure4",
    "build_figure5",
    "build_figure6",
    "format_speedup_chart",
]
