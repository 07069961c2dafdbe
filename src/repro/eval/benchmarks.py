"""Benchmark runner: the measurements behind Table III (and its extension).

The paper measures seven kernels on a RISC-V (at the largest input that still
fits its 32 kB memory) and on the G-GPU with 1/2/4/8 CUs (at inputs large
enough to fill the compute units).  ``run_table3`` reproduces that protocol
over the full registered suite — the paper's seven rows
(``PAPER_KERNEL_NAMES``) followed by the six extended-suite rows
(``EXTENDED_KERNEL_NAMES``); pass ``kernels=PAPER_KERNEL_NAMES`` to regenerate
exactly the published table.  ``BenchmarkSizes.scaled`` lets tests and quick
demos run the same protocol at a fraction of the paper's input sizes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.arch.config import GGPUConfig
from repro.errors import KernelError
from repro.kernels import all_kernel_names, get_kernel_spec, run_workload
from repro.riscv.programs import get_riscv_program_spec
from repro.runtime.checkpoint import (
    PathLike,
    SweepJournal,
    cell_key,
    open_journal,
    run_journaled,
)
from repro.runtime.parallel import parallel_map
from repro.simt.axi import MemoryTrafficStats
from repro.simt.cache import CacheStats
from repro.simt.gpu import GGPUSimulator
from repro.simt.trace import ComputeUnitStats, InstructionMix, KernelRunStats
from repro.riscv.cpu import CpuStats

DEFAULT_SEED = 2022


@dataclass(frozen=True)
class BenchmarkSizes:
    """Input sizes for one kernel (RISC-V and G-GPU sides)."""

    kernel: str
    riscv_size: int
    gpu_size: int

    @classmethod
    def paper(cls, kernel: str) -> "BenchmarkSizes":
        """The sizes used in the paper's Table III."""
        spec = get_kernel_spec(kernel)
        return cls(kernel, spec.paper_riscv_size, spec.paper_gpu_size)

    def scaled(self, factor: float) -> "BenchmarkSizes":
        """Scale both sizes down (rounded to the kernel's size granularity)."""
        if factor <= 0 or factor > 1:
            raise KernelError(f"scale factor must be in (0, 1], got {factor}")
        step = get_kernel_spec(self.kernel).size_granularity

        def _scale(size: int) -> int:
            scaled = max(step, int(size * factor))
            return max(step, (scaled // step) * step)

        return BenchmarkSizes(self.kernel, _scale(self.riscv_size), _scale(self.gpu_size))


@dataclass
class GpuMeasurement:
    """One G-GPU benchmark run."""

    kernel: str
    num_cus: int
    input_size: int
    cycles: float
    stats: KernelRunStats

    @property
    def kcycles(self) -> float:
        return self.cycles / 1.0e3


@dataclass
class RiscvMeasurement:
    """One RISC-V benchmark run."""

    kernel: str
    input_size: int
    cycles: float
    stats: CpuStats

    @property
    def kcycles(self) -> float:
        return self.cycles / 1.0e3


@dataclass
class Table3Row:
    """One kernel's row of Table III."""

    kernel: str
    riscv: RiscvMeasurement
    gpu: Dict[int, GpuMeasurement] = field(default_factory=dict)

    @property
    def riscv_size(self) -> int:
        return self.riscv.input_size

    @property
    def gpu_size(self) -> int:
        return next(iter(self.gpu.values())).input_size

    def gpu_kcycles(self, num_cus: int) -> float:
        return self.gpu[num_cus].kcycles


@dataclass
class Table3Data:
    """The whole regenerated Table III."""

    rows: Dict[str, Table3Row] = field(default_factory=dict)
    cu_counts: Sequence[int] = (1, 2, 4, 8)

    def row(self, kernel: str) -> Table3Row:
        try:
            return self.rows[kernel]
        except KeyError as exc:
            raise KernelError(f"Table III has no row for kernel {kernel!r}") from exc

    @property
    def kernels(self) -> List[str]:
        return list(self.rows)


def measure_gpu_kernel(
    kernel_name: str,
    num_cus: int,
    input_size: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    check: bool = True,
) -> GpuMeasurement:
    """Run one kernel on a G-GPU with ``num_cus`` CUs and measure its cycles."""
    spec = get_kernel_spec(kernel_name)
    size = input_size if input_size is not None else spec.paper_gpu_size
    workload = spec.workload(size, seed)
    simulator = GGPUSimulator(GGPUConfig(num_cus=num_cus))
    result, _ = run_workload(simulator, spec.build(), workload, check=check)
    return GpuMeasurement(
        kernel=kernel_name,
        num_cus=num_cus,
        input_size=size,
        cycles=result.cycles,
        stats=result.stats,
    )


def measure_riscv_program(
    kernel_name: str,
    input_size: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    check: bool = True,
) -> RiscvMeasurement:
    """Run one benchmark on the RISC-V baseline and measure its cycles."""
    spec = get_riscv_program_spec(kernel_name)
    size = input_size if input_size is not None else spec.paper_size
    case = spec.build_case(size, seed)
    stats, _ = case.run(check=check)
    return RiscvMeasurement(kernel=kernel_name, input_size=size, cycles=stats.cycles, stats=stats)


# The fields of a Table III task tuple, in order; their values key its journal cell.
_TABLE3_KEY_FIELDS = ("kind", "kernel", "size", "seed", "check", "num_cus")


def _run_table3_task(task: tuple):
    """Worker entry for one Table III measurement (module level: picklable)."""
    kind, kernel, size, seed, check, num_cus = task
    if kind == "riscv":
        return measure_riscv_program(kernel, size, seed, check)
    return measure_gpu_kernel(kernel, num_cus, size, seed, check)


# --------------------------------------------------------------------------- #
# Journal (de)serialization — resumable Table III sweeps
# --------------------------------------------------------------------------- #
def _measurement_to_json(
    measurement: Union[GpuMeasurement, RiscvMeasurement],
) -> Dict[str, Any]:
    """One measurement as a JSON-friendly dict (all stats are flat dataclasses)."""
    payload = asdict(measurement)
    payload["target"] = "gpu" if isinstance(measurement, GpuMeasurement) else "riscv"
    return payload


def _measurement_from_json(
    payload: Dict[str, Any],
) -> Union[GpuMeasurement, RiscvMeasurement]:
    """Reconstruct a typed measurement from its journal payload."""
    data = dict(payload)
    target = data.pop("target")
    stats = dict(data.pop("stats"))
    if target == "riscv":
        return RiscvMeasurement(stats=CpuStats(**stats), **data)
    stats["cu_stats"] = [
        ComputeUnitStats(**{**cu, "mix": InstructionMix(**cu["mix"])})
        for cu in stats["cu_stats"]
    ]
    stats["cache"] = CacheStats(**stats["cache"])
    stats["traffic"] = MemoryTrafficStats(**stats["traffic"])
    return GpuMeasurement(stats=KernelRunStats(**stats), **data)


def run_table3(
    kernels: Optional[Sequence[str]] = None,
    cu_counts: Sequence[int] = (1, 2, 4, 8),
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    check: bool = True,
    jobs: Optional[int] = None,
    journal: Union[None, PathLike, SweepJournal] = None,
) -> Table3Data:
    """Measure every kernel on the RISC-V and on G-GPUs with ``cu_counts`` CUs.

    The kernel x target grid is embarrassingly parallel (every measurement
    builds its own simulator and derives its data from ``seed``), so the
    cells are fanned out with :func:`repro.runtime.parallel.parallel_map`;
    ``jobs=None`` honours the ``REPRO_JOBS`` environment variable.  The
    returned table is identical at any job count.

    ``journal`` (a path or an open
    :class:`~repro.runtime.checkpoint.SweepJournal`) makes the sweep
    *resumable*: each finished cell is persisted atomically — keyed by a
    determinism digest of its full configuration — the moment it completes,
    and a re-run after a crash (even ``SIGKILL``) recomputes only the cells
    the journal is missing.  The resumed table is bit-identical to an
    uninterrupted run.
    """
    names = list(kernels) if kernels is not None else all_kernel_names()
    table = Table3Data(cu_counts=tuple(cu_counts))
    tasks = []
    for name in names:
        sizes = BenchmarkSizes.paper(name)
        if scale != 1.0:
            sizes = sizes.scaled(scale)
        tasks.append(("riscv", name, sizes.riscv_size, seed, check, 0))
        for num_cus in cu_counts:
            tasks.append(("gpu", name, sizes.gpu_size, seed, check, num_cus))
    book = open_journal(
        journal,
        meta={
            "sweep": "table3",
            "kernels": names,
            "cu_counts": [int(count) for count in cu_counts],
            "scale": scale,
            "seed": seed,
            "check": check,
        },
    )
    measurements = run_journaled(
        book,
        tasks,
        # The key holds every input that can change a measurement and nothing
        # else, so host-speed changes to the simulators (an issue-engine
        # revision, say) keep existing journals valid.
        key=lambda task: cell_key(**dict(zip(_TABLE3_KEY_FIELDS, task, strict=True))),
        run=lambda todo, on_result: parallel_map(
            _run_table3_task, todo, jobs=jobs, on_result=on_result
        ),
        encode=_measurement_to_json,
        decode=_measurement_from_json,
    )
    stride = 1 + len(cu_counts)
    for position, name in enumerate(names):
        cell = position * stride
        row = Table3Row(kernel=name, riscv=measurements[cell])
        for offset, num_cus in enumerate(cu_counts, start=1):
            row.gpu[num_cus] = measurements[cell + offset]
        table.rows[name] = row
    return table
