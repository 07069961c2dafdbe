"""The benchmark's three workloads, built from a seed.

Each workload is a ``setup(seed, scale)`` function that imports the
``repro`` layers it drives, builds kernels and generates every input from the
seed, and returns a :class:`Plan` whose ``run_pass`` executes one full pass
and returns one :class:`CellResult` per cell.  A cell is one unit of result a
user waits for: one Table III measurement, one topology-ablation cell, or one
RISC-V program.  Every cell verifies its outputs; a cell that raises is
recorded as failed and the pass goes on.

Inputs never depend on anything but ``seed`` and ``scale`` (1.0 is the
benchmark's size; the tests use a small fraction), and the ``repro``
imports happen inside ``setup`` so that its timing includes them.

Every cell is bracketed by runs of :func:`reference_seconds`, a fixed
interpreter loop that is not part of ``repro``.  On a shared host the speed
of the whole machine swings by up to 1.7x within seconds; a reference run
next to a cell slows with it (their times correlate at 0.9 per cell and 0.99
over seconds), so the runner can report a cell's time at a fixed reference
speed instead of at whatever speed the host had at that moment.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional

Counts = Dict[str, float]

#: Table III protocol: the RISC-V baseline plus G-GPUs with these CU counts.
CU_COUNTS = (1, 2, 4, 8)
#: Table III runs at a quarter of the paper's input sizes, as the sweep
#: baselines of the project do.
TABLE3_SCALE = 0.25
#: Device counts of the topology ablation.
TOPOLOGY_DEVICE_COUNTS = (8, 16)
#: ``run_topology_table``'s default DAG shape (used at scale 1.0).
TOPOLOGY_DAG = {"width": 96, "depth": 20, "size": 256, "lanes": 16, "stages": 4}


#: Iterations of the reference loop: about 3-6 ms, short next to a cell.
REFERENCE_ITERATIONS = 25_000


def reference_seconds() -> float:
    """Host time of one run of a fixed register/dict interpreter loop.

    The loop does the kind of work the simulators' Python paths do (list and
    dict reads and writes, integer masking, branches) on a working set small
    enough to stay in cache, and nothing in ``repro`` can change it.
    """
    regs = [0] * 32
    mem: Dict[int, int] = {}
    pc = 0
    start = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        op = i & 7
        if op < 3:
            regs[(i * 7) & 31] = (regs[(i * 3) & 31] + i) & 0xFFFFFFFF
        elif op < 5:
            mem[(i * 13) & 4095] = regs[i & 31]
        elif op < 7:
            regs[i & 31] ^= mem.get((i * 5) & 4095, 0)
        else:
            pc = (pc + 4) & 0xFFFF
    return time.perf_counter() - start


@dataclass
class CellResult:
    """Host time and simulated counts of one cell."""

    name: str
    seconds: float
    #: Mean time of the reference runs just before and just after the cell.
    reference_s: float
    #: Simulated counts, summed into the per-layer metrics (empty on failure).
    counts: Counts = field(default_factory=dict)
    #: Extra simulated results that enter the digest only (e.g. a schedule).
    record: Any = None
    error: Optional[str] = None


@dataclass
class Cell:
    """One cell of a cell-by-cell workload."""

    name: str
    run: Callable[[], Counts]
    #: The reference outputs the cell checks against, when built in setup.
    expected: Optional[Dict[str, Any]] = None


@dataclass
class Plan:
    """A workload after setup: everything one pass needs."""

    run_pass: Callable[[], List[CellResult]]
    cells: List[Cell] = field(default_factory=list)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_cells(cells: List[Cell]) -> List[CellResult]:
    """Run cells one after another, timing each and counting failures."""
    results = []
    before = reference_seconds()
    for cell in cells:
        start = time.perf_counter()
        try:
            counts, error = cell.run(), None
        except Exception as exc:  # a wrong output or a crash fails this cell only
            counts, error = {}, _error(exc)
        seconds = time.perf_counter() - start
        after = reference_seconds()
        results.append(CellResult(cell.name, seconds, (before + after) / 2, counts, None, error))
        before = after
    return results


def add_counts(total: Counts, more: Counts) -> Counts:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value
    return total


def launch_counts(stats) -> Counts:
    """Simulated counts of one G-GPU launch (a ``KernelRunStats``)."""
    cus = stats.cu_stats
    return {
        "ggpu.launches": 1,
        "ggpu.cycles": stats.cycles,
        "ggpu.instructions": sum(cu.instructions_issued for cu in cus),
        "ggpu.active_lane_issues": sum(cu.active_lane_issues for cu in cus),
        "ggpu.issue_events": sum(cu.issue_events for cu in cus),
        "ggpu.busy_cycles": sum(cu.busy_cycles for cu in cus),
        "ggpu.wavefronts": sum(cu.wavefronts_executed for cu in cus),
        "ggpu.lane_slots": sum(cu.instructions_issued for cu in cus) * stats.wavefront_size,
        "ggpu.workgroups": stats.workgroups_dispatched,
        "cache.read_accesses": stats.cache.read_accesses,
        "cache.write_accesses": stats.cache.write_accesses,
        "cache.read_misses": stats.cache.read_misses,
        "cache.write_misses": stats.cache.write_misses,
        "cache.write_backs": stats.cache.write_backs,
        "axi.line_fills": stats.traffic.line_fills,
        "axi.write_backs": stats.traffic.write_backs,
        "axi.busy_cycles": stats.traffic.busy_cycles,
    }


def cpu_counts(stats) -> Counts:
    """Simulated counts of one RISC-V run (a ``CpuStats``)."""
    return {
        "riscv.runs": 1,
        "riscv.instructions": stats.instructions,
        "riscv.cycles": stats.cycles,
        "riscv.loads": stats.loads,
        "riscv.stores": stats.stores,
        "riscv.taken_branches": stats.taken_branches,
    }


# --------------------------------------------------------------------------- #
# table3_sweep: run_table3's cells at scale 0.25, one at a time
# --------------------------------------------------------------------------- #
def _riscv_program_cell(spec, size: int, seed: int) -> Counts:
    # A RISC-V case's memory holds its inputs and is consumed by the run, so
    # it is built inside the cell, as run_table3 does.
    stats, _ = spec.build_case(size, seed).run(check=True)
    return cpu_counts(stats)


def _gpu_cell(kernel, workload, num_cus: int) -> Counts:
    from repro.arch.config import GGPUConfig
    from repro.kernels import run_workload
    from repro.simt.gpu import GGPUSimulator

    # Library defaults, as in run_table3: a fresh simulator per measurement.
    simulator = GGPUSimulator(GGPUConfig(num_cus=num_cus))
    result, _ = run_workload(simulator, kernel, workload, check=True)
    return launch_counts(result.stats)


def setup_table3(seed: int, scale: float = 1.0) -> Plan:
    """The Table III grid: 16 kernels x {RISC-V, 1, 2, 4, 8 CUs}."""
    from repro.eval.benchmarks import BenchmarkSizes
    from repro.kernels import all_kernel_names, get_kernel_spec
    from repro.riscv.programs import get_riscv_program_spec

    cells = []
    for name in all_kernel_names():
        spec = get_kernel_spec(name)
        sizes = BenchmarkSizes.paper(name).scaled(TABLE3_SCALE * scale)
        kernel = spec.build()
        workload = spec.workload(sizes.gpu_size, seed)
        riscv = get_riscv_program_spec(name)
        cells.append(Cell(f"{name}/riscv", partial(_riscv_program_cell, riscv, sizes.riscv_size, seed)))
        for num_cus in CU_COUNTS:
            cells.append(
                Cell(f"{name}/{num_cus}cu", partial(_gpu_cell, kernel, workload, num_cus), workload.expected)
            )
    return Plan(partial(run_cells, cells), cells)


# --------------------------------------------------------------------------- #
# topology_ablation: run_topology_table(device_counts=(8, 16)), serial pool
# --------------------------------------------------------------------------- #
def _topology_cell_counts(queue) -> Counts:
    counts: Counts = {"rt.launches": len(queue.schedule)}
    for event in queue.schedule:
        add_counts(counts, launch_counts(event.result.stats))
    return counts


def _queue_identity(queue) -> tuple:
    """What a finished queue says about its cell: options and launch order."""
    return (
        queue.scheduler,
        queue.num_devices,
        queue.topology,
        [event.label for event in queue.schedule],
    )


def _check_cell_identity(key, identity, cell) -> None:
    """Raise unless a harvested queue really ran table cell ``key``."""
    from repro.arch.config import Topology

    _, topology, scheduler, count = key
    expected = (scheduler, count, Topology.preset(topology, count), [entry[0] for entry in cell.schedule])
    if identity != expected:
        raise RuntimeError(f"cell probe: the queue harvested for {key} ran another cell")


def _topology_pass(seed: int, dag: Dict[str, int]) -> List[CellResult]:
    """One ``run_topology_table`` call, split into cells at queue creation.

    The table builds one ``OutOfOrderQueue`` per cell, so a probe on the
    queue constructor marks the cell boundaries and hands each finished
    queue's launch statistics over; the table itself stays untouched.  Each
    harvested queue is matched to its grid cell by its scheduler, device
    count, topology and launch order, so a change in the table's loop order
    raises instead of mislabelling cells.  The table raises on a wrong
    output or a cross-cell cycle mismatch; either fails every cell of the
    pass.
    """
    from repro.eval import multidevice
    from repro.runtime.multidevice import OutOfOrderQueue

    grid = [
        (dag_name, topology, scheduler, count)
        for dag_name in multidevice.TOPOLOGY_DAGS
        for topology in multidevice.TOPOLOGY_PRESETS
        for scheduler in multidevice.TOPOLOGY_SCHEDULERS
        for count in TOPOLOGY_DEVICE_COUNTS
    ]
    # ends[k] is taken when cell k-1 ends (ends[0] precedes the first cell);
    # references[k] is the reference run between cells k-1 and k.
    starts: List[float] = []
    ends: List[float] = []
    references: List[float] = []
    counts: List[Counts] = []
    identities: List[tuple] = []
    current: List[Any] = []
    original_init = vars(OutOfOrderQueue)["__init__"]

    def boundary() -> None:
        ends.append(time.perf_counter())
        if current:
            queue = current.pop()
            counts.append(_topology_cell_counts(queue))
            identities.append(_queue_identity(queue))
        references.append(reference_seconds())

    def probed_init(queue, *args, **kwargs):
        boundary()
        starts.append(time.perf_counter())
        current.append(queue)
        original_init(queue, *args, **kwargs)

    start = time.perf_counter()
    OutOfOrderQueue.__init__ = probed_init
    try:
        table = multidevice.run_topology_table(
            device_counts=TOPOLOGY_DEVICE_COUNTS, seed=seed, jobs=1, **dag
        )
        boundary()
        if len(starts) != len(grid):
            raise RuntimeError(f"cell probe saw {len(starts)} queues for {len(grid)} cells")
        for key, identity in zip(grid, identities):
            _check_cell_identity(key, identity, table.cell(*key))
    except Exception as exc:  # the table aborted: no cell of this pass counts
        share = (time.perf_counter() - start) / len(grid)
        reference = reference_seconds()
        return [
            CellResult("/".join(map(str, key)), share, reference, error=_error(exc)) for key in grid
        ]
    finally:
        OutOfOrderQueue.__init__ = original_init

    seen = set()
    results = []
    cells = zip(grid, starts, ends[1:], references, references[1:], counts)
    for key, cell_start, cell_end, before, after, cell_counts in cells:
        cell = table.cell(*key)
        labels = {(key[0], entry[0]) for entry in cell.schedule}
        cell_counts.update(
            {
                "rt.first_launches": len(labels - seen),
                "rt.makespan": cell.makespan,
                "rt.transfers": cell.transfers_to_device
                + cell.transfers_from_device
                + cell.transfers_p2p,
                "rt.transfers_skipped": cell.transfers_skipped,
            }
        )
        seen |= labels
        results.append(
            CellResult(
                "/".join(map(str, key)),
                cell_end - cell_start,
                (before + after) / 2,
                cell_counts,
                asdict(cell),
            )
        )
    return results


def setup_topology(seed: int, scale: float = 1.0) -> Plan:
    """The topology x scheduler ablation at 8 and 16 devices."""
    from repro.eval import multidevice  # noqa: F401  (imported as set-up work)

    dag = {key: max(1, round(value * scale)) for key, value in TOPOLOGY_DAG.items()}
    dag["size"] = max(64, dag["size"] // 64 * 64)
    return Plan(partial(_topology_pass, seed, dag))


# --------------------------------------------------------------------------- #
# riscv_cl: compile every shipped CL source, run every RISC-V program
# --------------------------------------------------------------------------- #
def _vec_add_workload(size: int, seed: int):
    """Inputs for the ``vec_add`` example source, which has no library kernel."""
    import numpy as np

    from repro.arch.kernel import NDRange
    from repro.kernels.library import GpuWorkload, pick_workgroup_size

    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2**31, size=size, dtype=np.int64)
    b = rng.integers(0, 2**31, size=size, dtype=np.int64)
    return GpuWorkload(
        buffers={"a": a, "b": b, "out": np.zeros(size, dtype=np.int64)},
        scalars={"n": size},
        expected={"out": (a + b) & 0xFFFFFFFF},
        ndrange=NDRange(size, pick_workgroup_size(size)),
    )


def _cl_cell(name: str, source: str, workload) -> Counts:
    from repro.cl import compiler

    # check="warn" runs the static verifier inside compile_source.
    program = compiler.compile_source(source, check="warn")
    report = program.findings
    kernel = program.to_ggpu_kernel()
    case = program.to_riscv_case(workload, name=f"{name}.cl")
    stats, _ = case.run(check=True)
    if report.errors:
        raise AssertionError(f"{name}.cl has {len(report.errors)} error-severity findings")
    return {
        **cpu_counts(stats),
        "cl.sources": 1,
        "cl.riscv_static_instrs": len(case.program),
        "cl.ggpu_static_instrs": len(kernel.program),
        "analysis.errors": len(report.errors),
        "analysis.warnings": len(report.warnings),
        "analysis.infos": len(report.infos),
    }


def setup_riscv_cl(seed: int, scale: float = 1.0) -> Plan:
    """Every CL source through both back ends, plus every hand-written program."""
    from repro.cl import compiler  # noqa: F401  (imported as set-up work)
    from repro.cl.sources import BENCHMARK_CL_SOURCES, EXTRA_CL_SOURCES
    from repro.eval.benchmarks import BenchmarkSizes
    from repro.kernels import get_kernel_spec
    from repro.riscv.programs import all_riscv_program_names, get_riscv_program_spec

    def riscv_size(kernel: str) -> int:
        sizes = BenchmarkSizes.paper(kernel)
        return (sizes.scaled(scale) if scale != 1.0 else sizes).riscv_size

    cells = []
    for name, source in {**BENCHMARK_CL_SOURCES, **EXTRA_CL_SOURCES}.items():
        if name in BENCHMARK_CL_SOURCES:
            workload = get_kernel_spec(name).workload(riscv_size(name), seed)
        else:
            workload = _vec_add_workload(riscv_size("copy"), seed)
        cells.append(Cell(f"cl/{name}", partial(_cl_cell, name, source, workload), workload.expected))
    for name in all_riscv_program_names():
        spec = get_riscv_program_spec(name)
        cells.append(Cell(f"riscv/{name}", partial(_riscv_program_cell, spec, riscv_size(name), seed)))
    return Plan(partial(run_cells, cells), cells)


WORKLOADS: Dict[str, Callable[[int, float], Plan]] = {
    "table3_sweep": setup_table3,
    "topology_ablation": setup_topology,
    "riscv_cl": setup_riscv_cl,
}
