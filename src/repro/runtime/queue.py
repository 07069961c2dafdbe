"""Queue statistics shared by the multi-device command queues.

:class:`QueueStats` is what :mod:`repro.runtime.multidevice`'s queues report:
launch and cycle totals, per-device utilization, the transfer vs compute
cycle breakdown, the critical-path makespan and the fault-recovery counters.

Many launches on one G-GPU need no queue: they reuse one
:class:`~repro.simt.gpu.GGPUSimulator`, which keeps its pre-decoded programs
across launches.  OpenCL queue semantics on one device are
``MultiDeviceQueue(num_devices=1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.simt.gpu import LaunchResult


@dataclass
class QueueStats:
    """Aggregate statistics over the launches a queue has executed.

    ``total_cycles`` is the sum of simulated *kernel* cycles; the queues in
    :mod:`repro.runtime.multidevice` also fill ``transfer_cycles``,
    ``makespan`` and the per-device breakdowns.  Every derived metric is
    defined for a zero-launch queue: nothing here ever divides by zero.
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

    def record(self, result: LaunchResult, device: int) -> None:
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
