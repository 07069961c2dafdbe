"""OpenCL-style batched command queue over one :class:`GGPUSimulator`.

A real OpenCL host rarely runs one kernel against one context: it creates a
command queue, enqueues many NDRange launches (often of the same few kernels)
and reads results back when the queue finishes.  :class:`CommandQueue`
reproduces that execution model and is the cheap way to run *many* launches:

* the G-GPU instance is built once — global memory, caches, and CU state are
  reused across every launch instead of being reallocated per run;
* programs are pre-decoded once per simulator (the
  :class:`~repro.simt.gpu.GGPUSimulator` decode cache) and shared by all
  launches of the same kernel;
* buffers persist between launches, so pipelines can feed one kernel's output
  buffer to the next kernel without host round-trips.

Every launch still starts from a cold cache and memory controller (the
``launch`` protocol resets both), so the cycle counts and results of a queued
launch are bit-identical to the same launch on a fresh simulator — the queue
saves host-side setup work, never simulated cycles.  ``tests/test_runtime_queue.py``
pins that equivalence; ``benchmarks/test_bench_queue.py`` measures the
speed-up and asserts it.

For sweep-shaped work, :class:`QueueBatch` describes a whole queue's worth of
library-kernel launches by name, and :func:`run_batches` fans a list of
batches out over processes with :mod:`repro.runtime.parallel` — multi-queue
sweeps with one queue (one simulated G-GPU) per process.

For device-level parallelism — one queue scheduling launches across *N*
simulated G-GPUs with host↔device transfer charging and buffer residency —
see :mod:`repro.runtime.multidevice`; its queues share this module's
:class:`QueueStats` (which reports per-device utilization, the transfer vs
compute cycle breakdown, and the critical-path makespan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.config import GGPUConfig
from repro.arch.kernel import Kernel, NDRange
from repro.errors import KernelError
from repro.kernels.library import check_output, get_kernel_spec
from repro.runtime.parallel import parallel_map
from repro.simt.gpu import GGPUSimulator, LaunchResult

ArgValue = Union[int, np.integer]


@dataclass(frozen=True)
class QueuedCommand:
    """One enqueued NDRange launch (not yet executed)."""

    sequence: int
    kernel: Kernel
    ndrange: NDRange
    args: Dict[str, int]
    label: str


@dataclass
class QueueStats:
    """Aggregate statistics over the launches a queue has executed.

    ``total_cycles`` is the sum of simulated *kernel* cycles; the multi-device
    fields (``transfer_cycles``, ``makespan``, the per-device breakdowns) are
    filled by :mod:`repro.runtime.multidevice` and stay zero/empty for a
    plain single-device :class:`CommandQueue`, whose in-order makespan is the
    compute total.  Every derived metric is defined for a zero-launch queue:
    nothing here ever divides by zero.
    """

    launches: int = 0
    total_cycles: float = 0.0
    cycles_by_kernel: Dict[str, float] = field(default_factory=dict)
    transfer_cycles: float = 0.0
    bytes_to_device: int = 0
    bytes_from_device: int = 0
    bytes_p2p: int = 0
    transfers_to_device: int = 0
    transfers_from_device: int = 0
    transfers_p2p: int = 0
    transfers_skipped: int = 0
    makespan: float = 0.0
    critical_path_cycles: float = 0.0
    device_compute_cycles: Dict[int, float] = field(default_factory=dict)
    device_transfer_cycles: Dict[int, float] = field(default_factory=dict)
    # Fault-tolerance accounting (PR 7) — all zero without an armed
    # FaultPlan, which the no-fault bit-exactness pins rely on.
    launch_faults: int = 0
    launch_retries: int = 0
    transfer_faults: int = 0
    transfer_retries: int = 0
    commands_failed: int = 0
    devices_lost: int = 0
    evacuated_buffers: int = 0
    fault_cycles: float = 0.0

    def record(self, result: LaunchResult, device: int = 0) -> None:
        self.launches += 1
        self.total_cycles += result.cycles
        self.cycles_by_kernel[result.kernel_name] = (
            self.cycles_by_kernel.get(result.kernel_name, 0.0) + result.cycles
        )
        self.device_compute_cycles[device] = (
            self.device_compute_cycles.get(device, 0.0) + result.cycles
        )

    def record_copy(self, kind: str, device: int, num_bytes: int, cycles: float) -> None:
        """Account one DMA copy charged to ``device``'s timeline.

        ``kind`` is ``"h2d"`` (host→device), ``"readback"`` (device→host)
        or ``"p2p"`` (device→device, charged to the destination).
        """
        self.transfer_cycles += cycles
        self.device_transfer_cycles[device] = (
            self.device_transfer_cycles.get(device, 0.0) + cycles
        )
        if kind == "h2d":
            self.transfers_to_device += 1
            self.bytes_to_device += num_bytes
        elif kind == "p2p":
            self.transfers_p2p += 1
            self.bytes_p2p += num_bytes
        else:
            self.transfers_from_device += 1
            self.bytes_from_device += num_bytes

    @property
    def compute_cycles(self) -> float:
        """Alias of ``total_cycles`` for transfer-vs-compute breakdowns."""
        return self.total_cycles

    @property
    def average_cycles_per_launch(self) -> float:
        """Mean kernel cycles per launch; 0.0 for a zero-launch queue."""
        if self.launches == 0:
            return 0.0
        return self.total_cycles / self.launches

    @property
    def transfer_fraction(self) -> float:
        """Transfer share of all busy cycles; 0.0 when nothing ran."""
        busy = self.total_cycles + self.transfer_cycles
        if busy <= 0.0:
            return 0.0
        return self.transfer_cycles / busy

    @property
    def total_retries(self) -> int:
        """Launch plus transfer retries the fault-recovery machinery spent."""
        return self.launch_retries + self.transfer_retries

    @property
    def degraded_fraction(self) -> float:
        """Share of the makespan lost to faults (detection, backoff, stalls,
        re-sent copies); 0.0 for a fault-free or zero-makespan queue."""
        if self.makespan <= 0.0:
            return 0.0
        return min(1.0, self.fault_cycles / self.makespan)

    def device_utilization(self) -> Dict[int, float]:
        """Per-device busy (compute + transfer) fraction of the makespan.

        Compute and DMA are separate engines that may overlap, so a fully
        loaded device can nudge past 1.0 — this is an occupancy measure over
        both engines, not a fraction of one.  A zero-launch queue has a zero
        makespan; every utilization is then 0.0 rather than a division error.
        """
        devices = sorted(set(self.device_compute_cycles) | set(self.device_transfer_cycles))
        if self.makespan <= 0.0:
            return {device: 0.0 for device in devices}
        return {
            device: (
                self.device_compute_cycles.get(device, 0.0)
                + self.device_transfer_cycles.get(device, 0.0)
            )
            / self.makespan
            for device in devices
        }

    @property
    def utilization(self) -> float:
        """Mean per-device utilization; 0.0 for a zero-launch queue."""
        per_device = self.device_utilization()
        if not per_device:
            return 0.0
        return sum(per_device.values()) / len(per_device)


class CommandQueue:
    """In-order batched command queue bound to one simulated G-GPU."""

    def __init__(
        self,
        simulator: Optional[GGPUSimulator] = None,
        config: Optional[GGPUConfig] = None,
        memory_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        if simulator is not None and config is not None:
            raise KernelError("pass either a simulator or a config, not both")
        self.simulator = simulator or GGPUSimulator(config, memory_bytes=memory_bytes)
        self._pending: List[QueuedCommand] = []
        self._results: List[LaunchResult] = []
        self._next_sequence = 0
        self.stats = QueueStats()

    # ------------------------------------------------------------------ #
    # Buffer management (delegates to the simulator's host API)
    # ------------------------------------------------------------------ #
    def allocate_buffer(self, num_words: int) -> int:
        """Allocate a device buffer; returns its base byte address."""
        return self.simulator.allocate_buffer(num_words)

    def create_buffer(self, values: Sequence[int]) -> int:
        """Allocate and initialize a device buffer."""
        return self.simulator.create_buffer(values)

    def write_buffer(self, base_addr: int, values: Sequence[int]) -> None:
        """Copy host data into a device buffer."""
        self.simulator.write_buffer(base_addr, values)

    def read_buffer(self, base_addr: int, num_words: int) -> np.ndarray:
        """Read a device buffer back to the host (finishes pending work first)."""
        self.finish()
        return self.simulator.read_buffer(base_addr, num_words)

    # ------------------------------------------------------------------ #
    # Enqueue / execute
    # ------------------------------------------------------------------ #
    def enqueue(
        self,
        kernel: Kernel,
        ndrange: NDRange,
        args: Dict[str, ArgValue],
        label: Optional[str] = None,
        verify: bool = False,
    ) -> int:
        """Append one launch to the queue; returns its sequence number.

        The launch is validated and executed by :meth:`flush`/:meth:`finish`,
        in enqueue order.  With ``verify=True`` the kernel is first run
        through the ISA-level static lint and rejected (``KernelError``, at
        enqueue time) on any error-severity finding.
        """
        if verify:
            from repro.analysis.isalint import verify_kernel_or_raise

            verify_kernel_or_raise(kernel)
        command = QueuedCommand(
            sequence=self._next_sequence,
            kernel=kernel,
            ndrange=ndrange,
            args={name: int(value) for name, value in args.items()},
            label=label or f"{kernel.name}#{self._next_sequence}",
        )
        self._next_sequence += 1
        self._pending.append(command)
        return command.sequence

    @property
    def pending(self) -> int:
        """Number of launches waiting for :meth:`flush`."""
        return len(self._pending)

    def flush(self) -> List[LaunchResult]:
        """Execute every pending launch in order; returns their results."""
        if not self._pending:
            return []  # cheap no-op: nothing to run, nothing to account
        executed: List[LaunchResult] = []
        pending, self._pending = self._pending, []
        for command in pending:
            result = self.simulator.launch(command.kernel, command.ndrange, command.args)
            self.stats.record(result)
            executed.append(result)
        self._results.extend(executed)
        # An in-order single-device queue runs back-to-back: its makespan and
        # critical path are exactly the accumulated compute cycles.
        self.stats.makespan = self.stats.total_cycles
        self.stats.critical_path_cycles = self.stats.total_cycles
        return executed

    def finish(self) -> List[LaunchResult]:
        """Flush and return the results of *all* launches this queue has run.

        On an empty queue (nothing pending, nothing run) this is a cheap
        no-op that returns an empty list.
        """
        self.flush()
        return list(self._results)


# --------------------------------------------------------------------------- #
# Multi-queue sweeps over the kernel library
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BatchItem:
    """One library-kernel launch inside a :class:`QueueBatch`."""

    kernel: str
    size: int
    seed: int = 2022
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise KernelError(f"repeats must be at least 1, got {self.repeats}")


@dataclass(frozen=True)
class QueueBatch:
    """A queue's worth of library-kernel launches on one G-GPU configuration."""

    items: Tuple[BatchItem, ...]
    num_cus: int = 1
    memory_bytes: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if not self.items:
            raise KernelError("a queue batch needs at least one item")


@dataclass
class BatchResult:
    """Outcome of one executed :class:`QueueBatch` (results verified)."""

    num_cus: int
    cycles: List[float]
    kernels: List[str]

    @property
    def total_cycles(self) -> float:
        return float(sum(self.cycles))


def run_batch(batch: QueueBatch) -> BatchResult:
    """Run one batch through a fresh :class:`CommandQueue`, verifying outputs.

    Every launch goes through ``enqueue``; the queue drains once at the end
    and the output buffers are verified against each workload's reference.
    Workload buffers are (re)created per launch — the point of the shared
    queue is amortizing simulator construction and program decode, which
    dominate short launches.
    """
    queue = CommandQueue(
        config=GGPUConfig(num_cus=batch.num_cus), memory_bytes=batch.memory_bytes
    )
    checks: List[Tuple[str, str, int, np.ndarray]] = []
    kernels: List[str] = []
    for item in batch.items:
        spec = get_kernel_spec(item.kernel)
        kernel = spec.build()
        for _ in range(item.repeats):
            workload = spec.workload(item.size, item.seed)
            args: Dict[str, int] = dict(workload.scalars)
            addresses: Dict[str, int] = {}
            for name, contents in workload.buffers.items():
                address = queue.create_buffer(
                    np.asarray(contents, dtype=np.int64) & 0xFFFFFFFF
                )
                addresses[name] = address
                args[name] = address
            queue.enqueue(kernel, workload.ndrange, args, label=item.kernel)
            for name, expected in workload.expected.items():
                checks.append((item.kernel, name, addresses[name], expected))
            kernels.append(item.kernel)
    results = queue.finish()
    for kernel_name, buffer_name, address, expected in checks:
        observed = queue.read_buffer(address, len(expected))
        check_output(f"queued kernel {kernel_name!r}", buffer_name, observed, expected)
    return BatchResult(
        num_cus=batch.num_cus,
        cycles=[result.cycles for result in results],
        kernels=kernels,
    )


def run_batches(batches: Sequence[QueueBatch], jobs: Optional[int] = None) -> List[BatchResult]:
    """Run several queue batches, fanned out with :func:`parallel_map`.

    One process per in-flight batch, one simulated G-GPU per batch; results
    come back in batch order and are bit-identical at any job count.
    """
    return parallel_map(run_batch, list(batches), jobs=jobs)
