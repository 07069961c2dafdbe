"""Execution runtime shared by the measurement and planning sweeps.

The paper's protocol is sweep-shaped everywhere: Table III measures the
kernel suite on five targets, GPUPlanner explores a CU-count x frequency
grid, and the push-button flow implements a list of designs.
:mod:`repro.runtime.parallel` provides the deterministic fan-out executor
those sweeps share.  :mod:`repro.runtime.multidevice` provides the
OpenCL-style command queues over N simulated G-GPUs behind one host:
in-order and out-of-order (event-dependency) scheduling, host↔device
transfer charging, and per-device buffer residency tracking; their
statistics are :mod:`repro.runtime.queue`'s :class:`QueueStats`.  Many
launches on one G-GPU need no queue: reuse one
:class:`~repro.simt.gpu.GGPUSimulator`, which keeps its pre-decoded programs.

Robustness (PR 7): :mod:`repro.runtime.faults` injects deterministic,
seedable device and transfer faults at the schedule layer and the queues
recover from them (retry/requeue with backoff, buffer evacuation, structured
fail-fast); :mod:`repro.runtime.checkpoint` provides atomic artifact writes
and the resumable-sweep journal that lets a killed sweep recompute only its
missing cells.
"""

from repro.runtime.checkpoint import (
    SweepJournal,
    atomic_write_json,
    atomic_write_text,
    cell_key,
    open_journal,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultRecord,
    FaultSpec,
)
from repro.runtime.multidevice import (
    SCHEDULERS,
    DeviceBuffer,
    Event,
    LaunchMemo,
    MultiDeviceQueue,
    OutOfOrderQueue,
)
from repro.runtime.parallel import default_jobs, parallel_map
from repro.runtime.queue import QueueStats

__all__ = [
    "DeviceBuffer",
    "Event",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "LaunchMemo",
    "MultiDeviceQueue",
    "OutOfOrderQueue",
    "SCHEDULERS",
    "QueueStats",
    "SweepJournal",
    "atomic_write_json",
    "atomic_write_text",
    "cell_key",
    "default_jobs",
    "open_journal",
    "parallel_map",
]
