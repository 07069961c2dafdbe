"""Multi-device sweeps: makespan vs device count, and transfer-mode ablation.

The paper evaluates one simulated G-GPU at a time; these sweeps ask the
platform question instead.  :func:`run_multidevice_table` measures how the
wall-clock (in simulated cycles) of an *independent-launch batch* of the
whole kernel suite shrinks as the host schedules it across more G-GPU
instances; each cell runs one
:class:`~repro.runtime.multidevice.OutOfOrderQueue` over ``device_count``
devices, enqueues every kernel once (no event dependencies: the batch is
embarrassingly launch-parallel), verifies every output buffer against the
kernel's reference, and reports the queue's makespan, its transfer vs
compute cycle breakdown, and the per-device utilization.

:func:`run_pipeline_table` (PR 5) measures a *two-stage saxpy DAG* with a
cross-lane shuffle — stage 2 of lane ``l`` consumes stage-1 outputs of lanes
``l`` and ``l+1``, so at two or more devices every schedule must move dirty
buffers between devices — under three transfer modes:

* ``host`` — the PR 4 path: every cross-device hand-off bounces through the
  host (read-back + write, two hops);
* ``p2p`` — the same schedule with direct device↔device transfers enabled
  (:meth:`~repro.arch.config.TransferConfig.with_p2p`);
* ``p2p-prefetch`` — P2P plus the PR 5 scheduling knobs: ``enqueue_write``
  prefetch and per-launch ``device=`` affinity hints (lane → device
  round-robin) with the LPT flush order.

Determinism and bit-exactness are part of the protocol:

* buffer addresses are identical across device counts (the queue allocates
  eagerly on every device), so each launch's simulated cycle count is the
  same in every cell — both table builders assert it, the pipeline table
  across transfer modes too;
* with ``jobs == 1`` the cells share one device pool, recycled through
  :meth:`~repro.simt.gpu.GGPUSimulator.reset`, and one
  :class:`~repro.runtime.multidevice.LaunchMemo`, so each distinct launch is
  simulated once per sweep call; with ``jobs > 1`` each worker process
  builds a fresh pool and simulates every launch.  Both paths must produce
  the same table (the serial-vs-fan-out tests,
  ``tests/tools/determinism_check.py`` and the CI determinism job compare a
  memoized sweep against a fully simulated one).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.config import GGPUConfig, Topology, TransferConfig
from repro.arch.kernel import NDRange
from repro.errors import KernelError
from repro.eval.benchmarks import DEFAULT_SEED, BenchmarkSizes
from repro.kernels import all_kernel_names, get_kernel_spec
from repro.runtime.checkpoint import PathLike, SweepJournal, cell_key, open_journal
from repro.runtime.multidevice import LaunchMemo, OutOfOrderQueue
from repro.runtime.parallel import default_jobs, parallel_map
from repro.simt.gpu import GGPUSimulator

# One device pool comfortably holds the scaled suite's buffers.
CELL_MEMORY_BYTES = 32 * 1024 * 1024

Pool = Optional[List[GGPUSimulator]]


def _cell_queue(
    config: GGPUConfig,
    device_count: int,
    memory_bytes: int,
    pool: Pool,
    memo: Optional[LaunchMemo],
    **options: Any,
) -> OutOfOrderQueue:
    """One cell's queue: the first ``device_count`` devices of the sweep's
    shared pool with its memo, or — in a fan-out worker (``pool=None``) — a
    fresh pool that simulates every launch."""
    if pool is None:
        return OutOfOrderQueue(
            config=config, num_devices=device_count, memory_bytes=memory_bytes, **options
        )
    return OutOfOrderQueue(devices=pool[:device_count], memo=memo, **options)


def _run_cells(
    run_cell: Callable[..., Any],
    tasks: Sequence[tuple],
    config: GGPUConfig,
    memory_bytes: int,
    widest: int,
    jobs: int,
    on_result: Callable[[int, Any], None],
) -> None:
    """Run ``run_cell(task, pool, memo)`` for every task, in task order.

    Serially (``jobs == 1``), the widest pool is built once and recycled by
    every cell's queue, and one :class:`LaunchMemo` created here serves the
    whole call — it dies when the call returns, so repeated calls do the same
    work.  Otherwise the tasks fan out through ``parallel_map`` and each
    worker calls ``run_cell(task)`` on a fresh pool without a memo.
    """
    if jobs == 1 or len(tasks) <= 1:
        pool = [GGPUSimulator(config, memory_bytes=memory_bytes) for _ in range(widest)]
        memo = LaunchMemo()
        for position, task in enumerate(tasks):
            on_result(position, run_cell(task, pool, memo))
    else:
        parallel_map(run_cell, tasks, jobs=jobs, on_result=on_result)


def _check_launch_cycles(
    reference_cell: Any, cells: Iterable[Any], where: Callable[[Any], str]
) -> None:
    """The cross-cell invariant: each launch (by label) simulates the same
    cycle count in every cell as in ``reference_cell``; ``where(cell)``
    names a mismatching cell in the error."""
    reference = {label: compute for label, *_, compute in reference_cell.schedule}
    for cell in cells:
        for label, *_, compute in cell.schedule:
            if reference.get(label) != compute:
                raise KernelError(
                    f"launch {label!r} simulated {compute} cycles {where(cell)} "
                    f"but {reference.get(label)} in the reference cell"
                )


@dataclass
class MultiDeviceCell:
    """One device-count cell of the multi-device table."""

    device_count: int
    kernels: List[str]
    makespan: float
    compute_cycles: float
    transfer_cycles: float
    critical_path_cycles: float
    utilization: Dict[int, float]
    # Captured from QueueStats at snapshot time (single source of truth for
    # the derived-metric definitions).
    mean_utilization: float
    transfer_fraction: float
    launches: int
    transfers_skipped: int
    # (label, device, start, end, transfer_cycles, compute_cycles) per launch,
    # in execution order — the event-graph schedule, JSON-friendly.
    schedule: List[Tuple[str, int, float, float, float, float]] = field(default_factory=list)

    @property
    def makespan_kcycles(self) -> float:
        return self.makespan / 1.0e3


@dataclass
class MultiDeviceTable:
    """Makespan vs device count for one independent-launch kernel batch."""

    cells: Dict[int, MultiDeviceCell] = field(default_factory=dict)
    kernels: List[str] = field(default_factory=list)
    scale: float = 1.0

    @property
    def device_counts(self) -> List[int]:
        return sorted(self.cells)

    def cell(self, device_count: int) -> MultiDeviceCell:
        try:
            return self.cells[device_count]
        except KeyError as exc:
            raise KernelError(
                f"multi-device table has no cell for {device_count} devices"
            ) from exc

    def speedup(self, device_count: int) -> float:
        """Makespan improvement of ``device_count`` devices over the smallest cell."""
        baseline = self.cell(min(self.cells))
        cell = self.cell(device_count)
        if cell.makespan <= 0.0:
            return 0.0
        return baseline.makespan / cell.makespan


def _schedule_entries(
    queue: OutOfOrderQueue,
) -> List[Tuple[str, int, float, float, float, float]]:
    """The executed launches as JSON-friendly schedule tuples."""
    return [
        (
            event.label,
            int(event.device if event.device is not None else -1),
            float(event.start_cycle),
            float(event.end_cycle),
            float(event.transfer_cycles),
            float(event.compute_cycles),
        )
        for event in queue.schedule
    ]


def _run_cell_on_queue(
    queue: OutOfOrderQueue,
    kernels: Sequence[str],
    scale: float,
    seed: int,
) -> MultiDeviceCell:
    """Enqueue every kernel once (independent launches), verify, measure."""
    checks = []
    for name in kernels:
        spec = get_kernel_spec(name)
        sizes = BenchmarkSizes.paper(name)
        if scale != 1.0:
            sizes = sizes.scaled(scale)
        workload = spec.workload(sizes.gpu_size, seed)
        args: Dict[str, object] = dict(workload.scalars)
        buffers = {}
        for buffer_name, contents in workload.buffers.items():
            buffers[buffer_name] = queue.create_buffer(
                np.asarray(contents, dtype=np.int64) & 0xFFFFFFFF
            )
            args[buffer_name] = buffers[buffer_name]
        queue.enqueue(spec.build(), workload.ndrange, args, label=name)
        for buffer_name, expected in workload.expected.items():
            checks.append((name, buffer_name, buffers[buffer_name], expected))
    queue.finish()
    stats = queue.stats
    makespan = stats.makespan  # before read-back charges: the batch makespan
    cell = MultiDeviceCell(
        device_count=queue.num_devices,
        kernels=list(kernels),
        makespan=makespan,
        compute_cycles=stats.compute_cycles,
        transfer_cycles=stats.transfer_cycles,
        critical_path_cycles=stats.critical_path_cycles,
        utilization=stats.device_utilization(),
        mean_utilization=stats.utilization,
        transfer_fraction=stats.transfer_fraction,
        launches=stats.launches,
        transfers_skipped=stats.transfers_skipped,
        schedule=_schedule_entries(queue),
    )
    for kernel_name, buffer_name, buffer, expected in checks:
        observed = queue.enqueue_read(buffer).astype(np.int64)
        expected_u32 = np.asarray(expected, dtype=np.int64) & 0xFFFFFFFF
        if not np.array_equal(observed, expected_u32):
            raise KernelError(
                f"multi-device launch of {kernel_name!r} produced wrong values "
                f"in {buffer_name!r} on {queue.num_devices} devices"
            )
    return cell


def _multidevice_cell_key(
    count: int, names: Sequence[str], scale: float, seed: int, lpt: bool
) -> str:
    """Determinism digest of one multi-device cell (config/transfer live in
    the journal meta, so the key only needs the per-cell coordinates)."""
    return cell_key(
        device_count=count, kernels=list(names), scale=scale, seed=seed, lpt=lpt
    )


def _cell_from_json(cls: type, payload: Dict[str, Any]) -> Any:
    """Rebuild a table cell from its journal payload (JSON round-trip safe).

    JSON turns the schedule tuples into lists and integer dict keys into
    strings; this restores both so a resumed cell compares equal to a
    recomputed one.
    """
    data = dict(payload)
    data["schedule"] = [tuple(entry) for entry in data["schedule"]]
    if "utilization" in data:
        data["utilization"] = {
            int(device): value for device, value in data["utilization"].items()
        }
    return cls(**data)


def _run_cell_task(
    task: tuple, pool: Pool = None, memo: Optional[LaunchMemo] = None
) -> MultiDeviceCell:
    """One cell (module level: picklable for the fan-out workers)."""
    device_count, kernels, scale, seed, config, transfer, lpt = task
    queue = _cell_queue(
        config, device_count, CELL_MEMORY_BYTES, pool, memo, transfer=transfer, lpt=lpt
    )
    return _run_cell_on_queue(queue, kernels, scale, seed)


def run_multidevice_table(
    device_counts: Sequence[int] = (1, 2, 4),
    kernels: Optional[Sequence[str]] = None,
    scale: float = 0.25,
    seed: int = DEFAULT_SEED,
    config: Optional[GGPUConfig] = None,
    transfer: Optional[TransferConfig] = None,
    jobs: Optional[int] = None,
    lpt: bool = False,
    journal: Union[None, PathLike, SweepJournal] = None,
) -> MultiDeviceTable:
    """Measure the suite's makespan at every device count.

    ``jobs=None`` honours ``REPRO_JOBS``.  Serial runs recycle one device
    pool across cells (each queue resets the simulators it is handed) and
    simulate each distinct launch once; fanned-out runs build one pool per
    worker and simulate every launch.  The resulting table is
    bit-identical either way, and every launch's simulated cycle count is
    asserted identical across cells.  ``lpt=True`` drains each queue
    longest-projected-time first, which tightens the makespan of this
    mixed-size batch at 4+ devices.

    ``journal`` makes the sweep resumable (see
    :mod:`repro.runtime.checkpoint`): finished cells are persisted
    atomically as they complete, and a re-run recomputes only the missing
    ones.  Resumed cells still go through the cross-cell bit-exactness
    assertion below.
    """
    if not device_counts:
        raise KernelError("need at least one device count")
    counts = list(device_counts)
    if len(set(counts)) != len(counts):
        raise KernelError(f"duplicate device counts: {counts}")
    names = list(kernels) if kernels is not None else all_kernel_names()
    config = config or GGPUConfig()
    effective_jobs = jobs if jobs is not None else default_jobs()
    transfer_model = transfer if transfer is not None else config.transfer
    book = open_journal(
        journal,
        meta={
            "sweep": "multidevice",
            "kernels": names,
            "scale": scale,
            "seed": seed,
            "lpt": lpt,
            "config": asdict(config),
            "transfer": asdict(transfer_model),
        },
    )

    table = MultiDeviceTable(kernels=names, scale=scale)
    missing = list(counts)
    if book is not None:
        missing = []
        for count in counts:
            cached = book.get(_multidevice_cell_key(count, names, scale, seed, lpt))
            if cached is not None:
                table.cells[count] = _cell_from_json(MultiDeviceCell, cached)
            else:
                missing.append(count)

    def _collect(position: int, cell: MultiDeviceCell) -> None:
        table.cells[cell.device_count] = cell
        if book is not None:
            key = _multidevice_cell_key(cell.device_count, names, scale, seed, lpt)
            book.record(key, asdict(cell))

    tasks = [
        (count, tuple(names), scale, seed, config, transfer, lpt) for count in missing
    ]
    _run_cells(
        _run_cell_task,
        tasks,
        config,
        CELL_MEMORY_BYTES,
        max(missing, default=0),
        effective_jobs,
        _collect,
    )

    # Bit-exactness across cells: the same launch simulates the same cycle
    # count whatever the device count (addresses are allocated in lock-step).
    _check_launch_cycles(
        table.cell(min(table.cells)),
        table.cells.values(),
        lambda cell: f"on {cell.device_count} devices",
    )
    return table


# --------------------------------------------------------------------------- #
# Two-stage-DAG transfer-mode sweep (PR 5)
# --------------------------------------------------------------------------- #
PIPELINE_MODES: Tuple[str, ...] = ("host", "p2p", "p2p-prefetch")

# Direct device↔device link of the P2P modes: lower setup latency than the
# host bridge and a 4x-wider streaming phase (an on-package fabric next to
# the PCIe-ish host DMA defaults).
P2P_LINK_LATENCY_CYCLES = 150
P2P_LINK_BYTES_PER_CYCLE = 32.0


@dataclass
class PipelineCell:
    """One (transfer mode, device count) cell of the two-stage-DAG sweep."""

    mode: str
    device_count: int
    makespan: float
    compute_cycles: float
    transfer_cycles: float
    critical_path_cycles: float
    transfers_to_device: int
    transfers_from_device: int
    transfers_p2p: int
    transfers_skipped: int
    schedule: List[Tuple[str, int, float, float, float, float]] = field(
        default_factory=list
    )

    @property
    def makespan_kcycles(self) -> float:
        return self.makespan / 1.0e3


@dataclass
class PipelineTable:
    """Makespan of the two-stage shuffle DAG per transfer mode and device count."""

    cells: Dict[Tuple[str, int], PipelineCell] = field(default_factory=dict)
    modes: List[str] = field(default_factory=list)
    lanes: int = 0
    size: int = 0

    @property
    def device_counts(self) -> List[int]:
        return sorted({count for _, count in self.cells})

    def cell(self, mode: str, device_count: int) -> PipelineCell:
        try:
            return self.cells[(mode, device_count)]
        except KeyError as exc:
            raise KernelError(
                f"pipeline table has no cell for mode {mode!r} at "
                f"{device_count} devices"
            ) from exc

    def improvement(self, mode: str, device_count: int) -> float:
        """Makespan improvement of ``mode`` over the host-hop path at the
        same device count."""
        cell = self.cell(mode, device_count)
        if cell.makespan <= 0.0:
            return 0.0
        return self.cell("host", device_count).makespan / cell.makespan


def _run_pipeline_on_queue(
    queue: OutOfOrderQueue, lanes: int, size: int, hints: Optional[Dict[int, int]]
) -> PipelineCell:
    """Build, run, and verify the two-stage shuffle DAG on one queue.

    Stage 1 runs one ``saxpy`` per lane; stage 2 runs one ``saxpy`` per lane
    whose ``y`` input is the *next* lane's stage-1 output, so at two or more
    devices every schedule moves dirty buffers across devices.  ``hints``
    maps lanes to devices (affinity for both stages and the prefetch target
    of the lane's input writes); ``None`` leaves placement to the scheduler.
    """
    spec = get_kernel_spec("saxpy")
    saxpy = spec.build()
    ndrange = NDRange(size, 64)
    alpha, beta = 3, 5
    mask = 0xFFFFFFFF

    stage1_events, stage1_outs, stage1_hosts = [], [], []
    for lane in range(lanes):
        device = hints.get(lane) if hints is not None else None
        x_host = (np.arange(size, dtype=np.int64) + 17 * lane) & mask
        y_host = ((np.arange(size, dtype=np.int64) * 3 + lane) % 251) & mask
        x = queue.create_buffer(x_host, device=device)
        y = queue.create_buffer(y_host, device=device)
        out = queue.allocate_buffer(size)
        stage1_events.append(
            queue.enqueue(
                saxpy,
                ndrange,
                {"x": x, "y": y, "out": out, "alpha": alpha, "n": size},
                label=f"stage1[{lane}]",
                writes=("out",),
                device=device,
            )
        )
        stage1_outs.append(out)
        stage1_hosts.append((alpha * x_host + y_host) & mask)

    checks = []
    for lane in range(lanes):
        peer = (lane + 1) % lanes
        device = hints.get(lane) if hints is not None else None
        out = queue.allocate_buffer(size)
        queue.enqueue(
            saxpy,
            ndrange,
            {
                "x": stage1_outs[lane],
                "y": stage1_outs[peer],
                "out": out,
                "alpha": beta,
                "n": size,
            },
            label=f"stage2[{lane}]",
            wait_for=(stage1_events[lane], stage1_events[peer]),
            writes=("out",),
            device=device,
        )
        expected = (beta * stage1_hosts[lane] + stage1_hosts[peer]) & mask
        checks.append((lane, out, expected))
    queue.finish()

    stats = queue.stats
    makespan = stats.makespan  # before read-back charges: the DAG makespan
    cell = PipelineCell(
        mode="",  # filled by the caller
        device_count=queue.num_devices,
        makespan=makespan,
        compute_cycles=stats.compute_cycles,
        transfer_cycles=stats.transfer_cycles,
        critical_path_cycles=stats.critical_path_cycles,
        transfers_to_device=stats.transfers_to_device,
        transfers_from_device=stats.transfers_from_device,
        transfers_p2p=stats.transfers_p2p,
        transfers_skipped=stats.transfers_skipped,
        schedule=_schedule_entries(queue),
    )
    for lane, buffer, expected in checks:
        observed = queue.enqueue_read(buffer).astype(np.int64)
        if not np.array_equal(observed, expected):
            raise KernelError(
                f"two-stage DAG lane {lane} produced wrong values on "
                f"{queue.num_devices} devices"
            )
    return cell


def _pipeline_queue_options(
    mode: str,
    device_count: int,
    lanes: int,
    transfer: TransferConfig,
    p2p_latency_cycles: int,
    p2p_bytes_per_cycle: float,
) -> Tuple[TransferConfig, bool, Optional[Dict[int, int]]]:
    """(transfer model, LPT flag, lane→device hints) of one sweep mode."""
    if mode == "host":
        return transfer, False, None
    p2p = transfer.with_p2p(p2p_latency_cycles, p2p_bytes_per_cycle)
    if mode == "p2p":
        return p2p, False, None
    if mode == "p2p-prefetch":
        hints = {lane: lane % device_count for lane in range(lanes)}
        return p2p, True, hints
    raise KernelError(f"unknown pipeline mode {mode!r}: pick from {PIPELINE_MODES}")


def _run_pipeline_cell_task(
    task: tuple, pool: Pool = None, memo: Optional[LaunchMemo] = None
) -> PipelineCell:
    """One (mode, device count) cell (module level: picklable)."""
    mode, device_count, lanes, size, config, transfer, p2p_latency, p2p_bw = task
    model, lpt, hints = _pipeline_queue_options(
        mode, device_count, lanes, transfer, p2p_latency, p2p_bw
    )
    queue = _cell_queue(
        config, device_count, CELL_MEMORY_BYTES, pool, memo, transfer=model, lpt=lpt
    )
    cell = _run_pipeline_on_queue(queue, lanes, size, hints)
    cell.mode = mode
    return cell


def run_pipeline_table(
    device_counts: Sequence[int] = (1, 2, 4),
    lanes: int = 8,
    size: int = 512,
    config: Optional[GGPUConfig] = None,
    transfer: Optional[TransferConfig] = None,
    p2p_latency_cycles: int = P2P_LINK_LATENCY_CYCLES,
    p2p_bytes_per_cycle: float = P2P_LINK_BYTES_PER_CYCLE,
    modes: Sequence[str] = PIPELINE_MODES,
    jobs: Optional[int] = None,
    journal: Union[None, PathLike, SweepJournal] = None,
) -> PipelineTable:
    """Measure the two-stage shuffle DAG under every transfer mode.

    One cell per (mode, device count); each cell verifies every lane's
    output.  ``jobs=None`` honours ``REPRO_JOBS``; serial runs recycle one
    device pool across cells and simulate each distinct launch once,
    fanned-out runs build one pool per worker and simulate every launch —
    the table is bit-identical either way.  Per-launch simulated cycle counts
    are asserted identical across *all* cells: the transfer mode and the
    scheduling hints move data and placement, never the simulated kernels.

    ``journal`` makes the sweep resumable (see
    :mod:`repro.runtime.checkpoint`): a killed run recomputes only the
    (mode, device count) cells the journal has not recorded.
    """
    if not device_counts:
        raise KernelError("need at least one device count")
    counts = list(device_counts)
    if len(set(counts)) != len(counts):
        raise KernelError(f"duplicate device counts: {counts}")
    if lanes < 2:
        raise KernelError(f"the shuffle DAG needs at least two lanes, got {lanes}")
    mode_list = list(modes)
    if "host" not in mode_list:
        raise KernelError("the pipeline sweep needs the 'host' baseline mode")
    config = config or GGPUConfig()
    base_transfer = transfer if transfer is not None else config.transfer
    effective_jobs = jobs if jobs is not None else default_jobs()
    book = open_journal(
        journal,
        meta={
            "sweep": "pipeline",
            "lanes": lanes,
            "size": size,
            "modes": mode_list,
            "config": asdict(config),
            "transfer": asdict(base_transfer),
            "p2p_latency_cycles": p2p_latency_cycles,
            "p2p_bytes_per_cycle": p2p_bytes_per_cycle,
        },
    )

    table = PipelineTable(modes=mode_list, lanes=lanes, size=size)
    grid = [(mode, count) for mode in mode_list for count in counts]
    missing = list(grid)
    if book is not None:
        missing = []
        for mode, count in grid:
            cached = book.get(cell_key(mode=mode, device_count=count))
            if cached is not None:
                table.cells[(mode, count)] = _cell_from_json(PipelineCell, cached)
            else:
                missing.append((mode, count))

    def _collect(position: int, cell: PipelineCell) -> None:
        table.cells[(cell.mode, cell.device_count)] = cell
        if book is not None:
            book.record(
                cell_key(mode=cell.mode, device_count=cell.device_count), asdict(cell)
            )

    tasks = [
        (
            mode,
            count,
            lanes,
            size,
            config,
            base_transfer,
            p2p_latency_cycles,
            p2p_bytes_per_cycle,
        )
        for mode, count in missing
    ]
    _run_cells(
        _run_pipeline_cell_task,
        tasks,
        config,
        CELL_MEMORY_BYTES,
        max((count for _, count in missing), default=0),
        effective_jobs,
        _collect,
    )

    # Bit-exactness across every mode and device count: transfers and hints
    # reshape the schedule, never the simulated kernel cycles.
    _check_launch_cycles(
        table.cell(mode_list[0], min(counts)),
        table.cells.values(),
        lambda cell: f"in mode {cell.mode!r} at {cell.device_count} devices",
    )
    return table


# --------------------------------------------------------------------------- #
# Topology × scheduler ablation (PR 8)
# --------------------------------------------------------------------------- #
TOPOLOGY_PRESETS: Tuple[str, ...] = ("flat", "two-switch", "ring")
TOPOLOGY_SCHEDULERS: Tuple[str, ...] = ("lpt", "heft", "stealing")
TOPOLOGY_DAGS: Tuple[str, ...] = ("layered", "shuffle")

# The topology DAGs carry many small buffers, never the full kernel suite;
# a slim per-device memory keeps a 64-device pool affordable.
TOPOLOGY_CELL_MEMORY_BYTES = 4 * 1024 * 1024


@dataclass
class TopologyCell:
    """One (DAG, topology, scheduler, device count) cell of the ablation."""

    dag: str
    topology: str
    scheduler: str
    device_count: int
    makespan: float
    compute_cycles: float
    transfer_cycles: float
    critical_path_cycles: float
    mean_utilization: float
    transfers_to_device: int
    transfers_from_device: int
    transfers_p2p: int
    transfers_skipped: int
    schedule: List[Tuple[str, int, float, float, float, float]] = field(
        default_factory=list
    )

    @property
    def makespan_kcycles(self) -> float:
        return self.makespan / 1.0e3


@dataclass
class TopologyTable:
    """Makespan of the topology DAGs per topology, scheduler, device count."""

    cells: Dict[Tuple[str, str, str, int], TopologyCell] = field(default_factory=dict)
    dags: List[str] = field(default_factory=list)
    topologies: List[str] = field(default_factory=list)
    schedulers: List[str] = field(default_factory=list)
    width: int = 0
    depth: int = 0
    size: int = 0
    lanes: int = 0
    stages: int = 0

    @property
    def device_counts(self) -> List[int]:
        return sorted({count for _, _, _, count in self.cells})

    def cell(
        self, dag: str, topology: str, scheduler: str, device_count: int
    ) -> TopologyCell:
        try:
            return self.cells[(dag, topology, scheduler, device_count)]
        except KeyError as exc:
            raise KernelError(
                f"topology table has no cell for dag {dag!r}, topology "
                f"{topology!r}, scheduler {scheduler!r} at {device_count} devices"
            ) from exc

    def speedup_vs_lpt(
        self, dag: str, topology: str, scheduler: str, device_count: int
    ) -> float:
        """Makespan improvement of ``scheduler`` over LPT in the same
        (DAG, topology, device count) cell; 0.0 on an empty/degenerate cell."""
        cell = self.cell(dag, topology, scheduler, device_count)
        if cell.makespan <= 0.0:
            return 0.0
        return self.cell(dag, topology, "lpt", device_count).makespan / cell.makespan


def _build_layered_dag(
    queue: OutOfOrderQueue, width: int, depth: int, size: int, seed: int
) -> List[Tuple[str, Any, np.ndarray]]:
    """A layered inference-style DAG: a deep backbone next to wide heads.

    The *backbone* is a ``depth``-long chain of medium ``copy`` layers (each
    consuming the previous layer's activations); the *heads* are ``width``
    independent big ``copy`` tasks (4x the backbone size).  The shape is the
    classic LPT trap: LPT drains the big heads first, so the backbone — the
    actual critical path — starts only once every device is ``width/P`` heads
    deep, while HEFT ranks the backbone highest and overlaps it with the
    heads.  The DAG is identical at every device count, so per-launch cycles
    can be asserted bit-exact across cells.
    """
    mask = 0xFFFFFFFF
    copy = get_kernel_spec("copy").build()
    checks: List[Tuple[str, Any, np.ndarray]] = []
    backbone_host = (np.arange(size, dtype=np.int64) * 7 + seed) & mask
    previous = queue.create_buffer(backbone_host)
    for layer in range(depth):
        activation = queue.allocate_buffer(size)
        queue.enqueue(
            copy,
            NDRange(size, 64),
            {"dst": activation, "src": previous, "n": size},
            label=f"backbone[{layer}]",
            writes=("dst",),
        )
        previous = activation
    checks.append(("backbone", previous, backbone_host))
    head_size = 4 * size
    for index in range(width):
        host = (np.arange(head_size, dtype=np.int64) * 3 + 11 * index + seed) & mask
        source = queue.create_buffer(host)
        head = queue.allocate_buffer(head_size)
        queue.enqueue(
            copy,
            NDRange(head_size, 64),
            {"dst": head, "src": source, "n": head_size},
            label=f"head[{index}]",
            writes=("dst",),
        )
        checks.append((f"head[{index}]", head, host))
    return checks


def _build_shuffle_dag(
    queue: OutOfOrderQueue, lanes: int, stages: int, size: int, seed: int
) -> List[Tuple[str, Any, np.ndarray]]:
    """A multi-stage shuffle: every stage mixes each lane with a shifted peer.

    Stage ``s`` of lane ``l`` runs ``saxpy`` over the stage ``s-1`` outputs of
    lanes ``l`` and ``(l+s) % lanes`` — the shuffle distance grows with the
    stage, so data crosses progressively farther links on a non-flat
    topology.  At two or more devices every schedule moves dirty buffers
    between devices; placement-aware schedulers keep the moves on cheap
    links.
    """
    mask = 0xFFFFFFFF
    saxpy = get_kernel_spec("saxpy").build()
    ndrange = NDRange(size, 64)
    alpha = 3
    hosts = [
        ((np.arange(size, dtype=np.int64) * 5 + 13 * lane + seed) % 65521) & mask
        for lane in range(lanes)
    ]
    buffers = [queue.create_buffer(host) for host in hosts]
    events: List[Optional[Any]] = [None] * lanes
    for stage in range(1, stages + 1):
        shift = stage % lanes
        next_hosts, next_buffers, next_events = [], [], []
        for lane in range(lanes):
            peer = (lane + shift) % lanes
            out = queue.allocate_buffer(size)
            waits = tuple(
                event
                for event in {
                    id(events[lane]): events[lane],
                    id(events[peer]): events[peer],
                }.values()
                if event is not None
            )
            event = queue.enqueue(
                saxpy,
                ndrange,
                {
                    "x": buffers[lane],
                    "y": buffers[peer],
                    "out": out,
                    "alpha": alpha,
                    "n": size,
                },
                label=f"shuffle[{stage}][{lane}]",
                wait_for=waits,
                writes=("out",),
            )
            next_hosts.append((alpha * hosts[lane] + hosts[peer]) & mask)
            next_buffers.append(out)
            next_events.append(event)
        hosts, buffers, events = next_hosts, next_buffers, next_events
    return [
        (f"shuffle[{stages}][{lane}]", buffers[lane], hosts[lane])
        for lane in range(lanes)
    ]


def _run_topology_cell_on_queue(
    queue: OutOfOrderQueue,
    dag: str,
    width: int,
    depth: int,
    size: int,
    lanes: int,
    stages: int,
    seed: int,
) -> TopologyCell:
    """Build, run, and verify one DAG on one queue; snapshot the stats."""
    if dag == "layered":
        checks = _build_layered_dag(queue, width, depth, size, seed)
    elif dag == "shuffle":
        checks = _build_shuffle_dag(queue, lanes, stages, size, seed)
    else:
        raise KernelError(f"unknown topology DAG {dag!r}: pick from {TOPOLOGY_DAGS}")
    queue.finish()
    stats = queue.stats
    makespan = stats.makespan  # before read-back charges: the DAG makespan
    cell = TopologyCell(
        dag=dag,
        topology="",  # filled by the caller
        scheduler=queue.scheduler,
        device_count=queue.num_devices,
        makespan=makespan,
        compute_cycles=stats.compute_cycles,
        transfer_cycles=stats.transfer_cycles,
        critical_path_cycles=stats.critical_path_cycles,
        mean_utilization=stats.utilization,
        transfers_to_device=stats.transfers_to_device,
        transfers_from_device=stats.transfers_from_device,
        transfers_p2p=stats.transfers_p2p,
        transfers_skipped=stats.transfers_skipped,
        schedule=_schedule_entries(queue),
    )
    for label, buffer, expected in checks:
        observed = queue.enqueue_read(buffer).astype(np.int64)
        expected_u32 = np.asarray(expected, dtype=np.int64) & 0xFFFFFFFF
        if not np.array_equal(observed, expected_u32):
            raise KernelError(
                f"topology DAG {dag!r} produced wrong values in {label!r} with "
                f"scheduler {queue.scheduler!r} on {queue.num_devices} devices"
            )
    return cell


def _topology_queue_options(
    topology_name: str, scheduler: str, device_count: int
) -> Tuple[Topology, str]:
    """(topology, scheduler) of one ablation cell, both validated."""
    if scheduler not in TOPOLOGY_SCHEDULERS:
        raise KernelError(
            f"unknown ablation scheduler {scheduler!r}: pick from "
            f"{TOPOLOGY_SCHEDULERS}"
        )
    return Topology.preset(topology_name, device_count), scheduler


def _run_topology_cell_task(
    task: tuple, pool: Pool = None, memo: Optional[LaunchMemo] = None
) -> TopologyCell:
    """One ablation cell (module level: picklable)."""
    (
        dag,
        topology_name,
        scheduler,
        device_count,
        width,
        depth,
        size,
        lanes,
        stages,
        seed,
        config,
        transfer,
        prefetch_depth,
        steal_seed,
    ) = task
    topology, scheduler = _topology_queue_options(
        topology_name, scheduler, device_count
    )
    queue = _cell_queue(
        config,
        device_count,
        TOPOLOGY_CELL_MEMORY_BYTES,
        pool,
        memo,
        transfer=transfer,
        scheduler=scheduler,
        topology=topology,
        prefetch_depth=prefetch_depth,
        steal_seed=steal_seed,
    )
    cell = _run_topology_cell_on_queue(
        queue, dag, width, depth, size, lanes, stages, seed
    )
    cell.topology = topology_name
    return cell


def run_topology_table(
    device_counts: Sequence[int] = (4, 8, 16),
    dags: Sequence[str] = TOPOLOGY_DAGS,
    topologies: Sequence[str] = TOPOLOGY_PRESETS,
    schedulers: Sequence[str] = TOPOLOGY_SCHEDULERS,
    width: int = 96,
    depth: int = 20,
    size: int = 256,
    lanes: int = 16,
    stages: int = 4,
    seed: int = DEFAULT_SEED,
    config: Optional[GGPUConfig] = None,
    transfer: Optional[TransferConfig] = None,
    prefetch_depth: int = 0,
    steal_seed: int = 0,
    jobs: Optional[int] = None,
) -> TopologyTable:
    """Measure the topology DAGs under every topology × scheduler cell.

    The ablation where placement actually bites: a layered inference-style
    DAG (deep backbone + wide heads — the LPT trap HEFT escapes) and a
    multi-stage shuffle (growing shuffle distances — where locality-aware
    stealing pays on non-flat fabrics), each run over the named topology
    presets and the LPT / HEFT / work-stealing flush orders at every device
    count.  ``jobs=None`` honours ``REPRO_JOBS``; serial runs recycle one
    device pool and simulate each distinct launch once (every other cell of
    its DAG replays it), fanned-out runs build one pool per worker and
    simulate every launch — the table is bit-identical either way.

    The standing invariant is asserted cell by cell: kernel results are
    verified in every cell, and each launch's simulated cycle count must be
    bit-identical across every (topology, scheduler, device count) cell of
    its DAG — topology and scheduler choice reshape the schedule only.
    """
    if not device_counts:
        raise KernelError("need at least one device count")
    counts = list(device_counts)
    if len(set(counts)) != len(counts):
        raise KernelError(f"duplicate device counts: {counts}")
    dag_list = list(dags)
    topology_list = list(topologies)
    scheduler_list = list(schedulers)
    if "lpt" not in scheduler_list:
        raise KernelError("the topology ablation needs the 'lpt' baseline scheduler")
    config = config or GGPUConfig()
    effective_jobs = jobs if jobs is not None else default_jobs()

    table = TopologyTable(
        dags=dag_list,
        topologies=topology_list,
        schedulers=scheduler_list,
        width=width,
        depth=depth,
        size=size,
        lanes=lanes,
        stages=stages,
    )
    grid = [
        (dag, topology, scheduler, count)
        for dag in dag_list
        for topology in topology_list
        for scheduler in scheduler_list
        for count in counts
    ]
    tasks = [
        (
            dag,
            topology,
            scheduler,
            count,
            width,
            depth,
            size,
            lanes,
            stages,
            seed,
            config,
            transfer,
            prefetch_depth,
            steal_seed,
        )
        for dag, topology, scheduler, count in grid
    ]

    def _collect(position: int, cell: TopologyCell) -> None:
        table.cells[(cell.dag, cell.topology, cell.scheduler, cell.device_count)] = cell

    _run_cells(
        _run_topology_cell_task,
        tasks,
        config,
        TOPOLOGY_CELL_MEMORY_BYTES,
        max(counts),
        effective_jobs,
        _collect,
    )

    # The invariant, cell by cell: the same launch simulates the same cycle
    # count in every (topology, scheduler, device count) cell of its DAG.
    for dag in dag_list:
        _check_launch_cycles(
            table.cell(dag, topology_list[0], scheduler_list[0], min(counts)),
            [cell for cell in table.cells.values() if cell.dag == dag],
            lambda cell: (
                f"with topology {cell.topology!r} / scheduler {cell.scheduler!r} "
                f"at {cell.device_count} devices"
            ),
        )
    return table
