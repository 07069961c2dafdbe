"""Multi-device command queues with host↔device and device↔device transfers.

One reused :class:`~repro.simt.gpu.GGPUSimulator` amortizes host-side setup
over many launches but executes them back-to-back on one simulated G-GPU.
This module runs the OpenCL execution model on **N independent G-GPU
instances behind one queue**:

* :class:`MultiDeviceQueue` — an in-order queue over ``num_devices``
  :class:`~repro.simt.gpu.GGPUSimulator` instances.  Launches still serialize
  (each one implicitly waits for the previous), but buffers live in a
  host-managed residency domain and every host↔device copy is charged by the
  transfer model.
* :class:`OutOfOrderQueue` — the OpenCL out-of-order variant: ``enqueue``
  returns an :class:`Event` and accepts ``wait_for=(events...)``; launches
  whose dependencies are met overlap across devices.  The scheduler is
  deterministic (earliest projected start wins, ties break toward the lower
  device index), so repeated runs produce the same event-graph schedule and
  cycle statistics.  ``scheduler=`` picks another flush order, e.g.
  ``OutOfOrderQueue(scheduler="lpt")`` drains ready launches
  longest-projected-time first instead of enqueue order.
* :class:`DeviceBuffer` — one logical buffer with a host image and per-device
  copies.  Residency tracking re-transfers a buffer to a device only when the
  device's copy is stale; a buffer written by a kernel is *dirty* (the host
  image is stale) and is moved through the transfer model before any other
  device or the host may observe it.

Transfer commands are first class (PR 5): ``enqueue_write`` and
``enqueue_read`` append scheduled commands to the same event graph as kernel
launches instead of forcing a full queue flush, so building a DAG never
drains it and input prefetch overlaps earlier compute.  ``enqueue_write``
returns an :class:`Event`; with a ``device=`` hint it *prefetches* the data
onto that device's DMA timeline at write time so the consuming launch finds
the buffer resident.  The :class:`~repro.arch.config.TransferConfig` prices
the host link and an attached :class:`~repro.arch.config.Topology` every
device↔device link.  Without a topology, cross-device hand-offs of dirty
buffers bounce through the host (device→host read-back plus host→device
write, two host-link hops); with one, the copy goes **peer-to-peer** in one
:meth:`~repro.arch.config.Topology.p2p_cycles` hop, occupying both DMA
engines and leaving the host image stale.

Timing is layered strictly on top of the simulator: each device keeps two
engine timelines — compute (kernel launches) and DMA (host↔device and P2P
copies), overlapping each other as on real accelerators but each serial with
itself.  Transfers charge the configured cycle model on the DMA engine of
the device touched (the destination device for P2P), a copy of a
kernel-written buffer cannot start before the producing launch finished, and
a launch's compute span is exactly the launch's simulated cycle count.
Because every ``launch`` still starts from a cold cache and memory
controller, and buffer addresses are allocated identically on every device
(the pools march in lock-step), kernel results *and* per-launch cycle counts
are bit-identical to the same launches on a single in-order device —
``tests/test_runtime_queue.py`` pins that equivalence for diamond DAGs and
independent chains, and the CI determinism job re-checks the whole schedule
across repeated runs and job counts.  With no topology and no hints,
schedules are bit-identical to the PR 4 runtime.

**Fault tolerance (PR 7).**  A queue built with a seeded
:class:`~repro.runtime.faults.FaultPlan` consults a deterministic
:class:`~repro.runtime.faults.FaultInjector` at the *schedule* layer — never
inside the simulators — every time a command is dispatched or a transfer is
charged.  A faulted launch attempt is a command the device dropped: the
simulator is not invoked, the runtime loses the fault's ``detect_cycles`` on
the failing device's compute timeline, and the command is re-enqueued (after
an exponential simulated-time backoff) on the surviving devices, up to the
plan's retry budget.  A permanent ``device-fail`` retires the device: the
failure model is fail-stop with host-readable memory, so buffers whose only
valid copy lives on the dying device are evacuated host-ward through the
normal read-back path (each salvage copy charged on the schedule) before the
device is excluded from placement forever.  Transfer faults stall or re-send
individual DMA copies.  A command whose retry budget is exhausted — or that
depends on one — fails fast with a structured
:class:`~repro.errors.DeviceFailureError` carrying the failed event-graph
slice.  With no fault plan every schedule is bit-identical to a queue built
without one; with any plan and at least one surviving device, kernel results
are bit-exact versus the fault-free run — only the schedule and makespan may
change (``tests/test_runtime_faults.py`` fuzzes exactly that contract).

**Launch memo.**  Because a launch's results and cycles never depend on the
schedule, the queues of one sweep can share a :class:`LaunchMemo`
(``memo=``): a launch whose kernel, geometry, argument values, device model
and input bytes match one the memo has already seen is not simulated again —
the stored images of the buffers it changed are written back to the device
and the stored :class:`~repro.simt.gpu.LaunchResult` is returned.  Only host
time changes; every simulated number, schedule and statistic is identical.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.config import GGPUConfig, Topology, TransferConfig
from repro.arch.kernel import Kernel, NDRange
from repro.errors import DeviceFailureError, KernelError
from repro.runtime.faults import (
    DEVICE_FAIL,
    TRANSFER_STALL,
    FaultInjector,
    FaultPlan,
)
from repro.runtime.queue import QueueStats
from repro.simt.gpu import GGPUSimulator, LaunchResult
from repro.simt.memory import WORD_BYTES

ArgValue = Union[int, np.integer, "DeviceBuffer"]

#: Flush-order schedulers of :class:`OutOfOrderQueue`.  ``fifo`` drains in
#: enqueue order, ``lpt`` longest-projected-time first, ``heft`` by HEFT
#: upward rank over the event graph (per-link communication costs included),
#: ``stealing`` lets the idlest device deterministically claim the
#: topology-nearest ready command.
SCHEDULERS = ("fifo", "lpt", "heft", "stealing")

#: Deterministic compute-time proxy used by the HEFT ranks and the stealing
#: scheduler's virtual device clocks: estimated cycles per NDRange work-item.
#: It only weighs schedule decisions — simulation timing never uses it — so
#: any positive constant is *correct*; this one is in the ballpark of the
#: library kernels' measured cycles-per-item, which keeps compute and
#: per-link communication estimates on one scale.
SCHEDULE_CYCLES_PER_ITEM = 8.0


class DeviceBuffer:
    """One logical buffer: a host image plus tracked per-device copies.

    ``valid_on`` holds the device indices whose copy matches the current
    logical contents; ``host_valid`` tells whether the host image does too.
    After a kernel writes the buffer, only the producing device is valid and
    the host image is stale until the queue reads it back — or, with a
    topology attached, until a direct device→device copy spreads the
    contents (the host image then stays stale while several devices are
    valid).  The queue allocates the buffer eagerly on every device so the
    base address is identical across the pool — which keeps cache-set
    behaviour, and therefore per-launch cycle counts, independent of the
    device a launch lands on.
    """

    def __init__(self, handle: int, address: int, num_words: int) -> None:
        self.handle = handle
        self.address = address
        self.num_words = num_words
        self.host = np.zeros(num_words, dtype=np.int64)
        self.valid_on: set = set()
        self.host_valid: bool = True
        # Simulated time at which the buffer's current authoritative contents
        # became available (0.0 for host-provided data).
        self.ready_cycle: float = 0.0
        # Per-device arrival times of copies made by the *new* transfer paths
        # (P2P and prefetch).  The lazy host→device path deliberately does not
        # populate it: the PR 4 timing model lets a residency hit observe the
        # buffer at ``ready_cycle``, and the schedule pins depend on that.
        self.device_ready: Dict[int, float] = {}
        # Hazard tracking for first-class transfer commands: the event that
        # last (re)defined the contents, and the events that read them since.
        self.last_writer: Optional["Event"] = None
        self.readers: List["Event"] = []

    @property
    def num_bytes(self) -> int:
        return self.num_words * WORD_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceBuffer(handle={self.handle}, addr={self.address:#x}, "
            f"words={self.num_words}, valid_on={sorted(self.valid_on)}, "
            f"host_valid={self.host_valid})"
        )


@dataclass
class Event:
    """Completion event of one enqueued command (OpenCL ``cl_event`` flavour).

    Returned by ``enqueue``/``enqueue_write``; scheduling fields are filled
    when the queue flushes.  ``kind`` is ``"launch"`` for kernel launches and
    ``"write"``/``"read"`` for first-class transfer commands.

    ``transfer_cycles`` counts the copies charged to *this event's device*:
    host→device input writes (including prefetch writes) and inbound P2P
    hops.  ``readback_cycles`` counts the device→host read-backs this event
    triggered, charged to the *source* device's DMA engine.  Together they
    reconcile exactly with the per-device stats:
    ``sum(transfer_cycles + readback_cycles over all events) ==
    sum(QueueStats.device_transfer_cycles.values())``.

    ``critical_path_cycles`` is the longest dependency chain ending at this
    event, measured in simulated *kernel* cycles — a lower bound on the
    makespan at any device count (compute along a chain must serialize;
    transfers can lengthen the schedule but never shorten that bound).

    Under fault injection an event may *fail permanently*: ``failed`` is set,
    ``error`` holds the structured :class:`~repro.errors.DeviceFailureError`
    (cascaded failures chain the root cause as ``error.__cause__``), and
    ``attempts`` counts the dispatch attempts the command consumed.

    An event refers to its queue only until it settles, so that
    :meth:`wait` can drive the queue; a queue whose events have all settled
    is freed as soon as its caller drops it.
    """

    sequence: int
    label: str
    kernel_name: str
    device: Optional[int] = None
    start_cycle: float = 0.0
    end_cycle: float = 0.0
    compute_cycles: float = 0.0
    transfer_cycles: float = 0.0
    readback_cycles: float = 0.0
    critical_path_cycles: float = 0.0
    result: Optional[LaunchResult] = None
    kind: str = "launch"
    finished: bool = False
    failed: bool = False
    attempts: int = 0
    error: Optional[DeviceFailureError] = None
    _queue: Optional["MultiDeviceQueue"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def done(self) -> bool:
        return self.finished or self.result is not None

    @property
    def settled(self) -> bool:
        """Whether the event will never run again (completed or failed)."""
        return self.done or self.failed

    def wait(self) -> None:
        """Drive the owning queue until this event settles; raise on failure.

        Waiting on an event whose producing command failed permanently
        raises its :class:`~repro.errors.DeviceFailureError` immediately —
        with the original root failure chained as ``__cause__`` for
        cascaded dependents — instead of hanging or surfacing a generic
        :class:`~repro.errors.KernelError` from a later read.
        """
        if self.failed:
            raise self.error
        if not self.done and self._queue is not None:
            self._queue.flush()
        if self.failed:
            raise self.error


#: One :class:`LaunchMemo` entry: the pre-launch bytes of every buffer
#: argument, the result, and (argument index, post-launch image) for each
#: buffer the launch changed.
_MemoEntry = Tuple[Tuple[bytes, ...], LaunchResult, Tuple[Tuple[int, np.ndarray], ...]]


class LaunchMemo:
    """Launch results shared by the queues of one sweep, found by content.

    The key of a launch has six parts: the kernel (name, instruction tuple,
    argument signature, ``local_words``), the :class:`NDRange`, the ordered
    argument values (buffer addresses and scalars), the device's
    :class:`~repro.arch.config.GGPUConfig`, its
    :class:`~repro.simt.timing.TimingModel` and its memory size.  Each key
    holds a short list of entries, one per distinct input contents
    simulated under it: the pre-launch bytes of every buffer argument, the
    :class:`~repro.simt.gpu.LaunchResult`, and the post-launch image of
    each buffer argument the launch changed — every argument is checked,
    because a launch's ``writes=`` is a scheduling hint, not a guarantee.
    A lookup compares the buffers' current bytes with each entry's: a hit
    needs equal contents, not an equal digest.

    The memo rests on one premise, the same one the sweeps' cross-cell
    cycle assertions rest on: a launch reads and writes only its buffer
    arguments (every launch starts from a cold cache and memory
    controller).  The stored result is shared by every hit, so callers must
    treat it as read-only, as they already treat the result of a simulated
    launch.
    """

    def __init__(self) -> None:
        # id(kernel) -> (kernel, token).  The strong reference keeps a
        # recycled id from aliasing another kernel (as
        # ``GGPUSimulator._decode_cache`` does); the token interns the
        # kernel's content, so equal kernels rebuilt per sweep cell share it
        # and a lookup never rehashes an instruction tuple.
        self._kernels: Dict[int, Tuple[Kernel, int]] = {}
        self._tokens: Dict[tuple, int] = {}
        self._entries: Dict[tuple, List[_MemoEntry]] = {}

    def _kernel_token(self, kernel: Kernel) -> int:
        entry = self._kernels.get(id(kernel))
        if entry is None or entry[0] is not kernel:
            content = (
                kernel.name,
                kernel.program.instructions,
                kernel.args,
                kernel.local_words,
            )
            entry = (kernel, self._tokens.setdefault(content, len(self._tokens)))
            self._kernels[id(kernel)] = entry
        return entry[1]

    def launch(
        self,
        simulator: GGPUSimulator,
        kernel: Kernel,
        ndrange: NDRange,
        args: Dict[str, int],
        buffers: Sequence["DeviceBuffer"],
    ) -> LaunchResult:
        """``simulator.launch(kernel, ndrange, args)``, simulated at most once.

        ``buffers`` are the launch's buffer arguments, already resident on
        ``simulator``.  A hit writes back only the buffers the launch
        changed, through :meth:`~repro.simt.memory.GlobalMemory.write_buffer`
        so that :meth:`~repro.simt.memory.GlobalMemory.reset` stays exact;
        every other buffer already holds its post-launch image.
        """
        memory = simulator.memory
        key = (
            self._kernel_token(kernel),
            ndrange,
            tuple(args[arg.name] for arg in kernel.args),
            simulator.config,
            simulator.timing,
            memory.size_bytes,
        )
        views = [memory.view_buffer(buffer.address, buffer.num_words) for buffer in buffers]
        before = tuple(view.tobytes() for view in views)
        entries = self._entries.setdefault(key, [])
        for contents, result, changed in entries:
            if contents == before:
                for index, image in changed:
                    memory.write_buffer(buffers[index].address, image)
                return result
        result = simulator.launch(kernel, ndrange, args)
        images = []
        for index, (view, old) in enumerate(zip(views, before, strict=True)):
            new = view.tobytes()
            if new != old:
                images.append((index, np.frombuffer(new, dtype=np.int64)))
        entries.append((before, result, tuple(images)))
        return result


@dataclass(eq=False)
class _Command:
    """One enqueued command (launch or transfer) waiting for the next flush."""

    event: Event
    waits: Tuple[Event, ...]
    kernel: Optional[Kernel] = None
    ndrange: Optional[NDRange] = None
    args: Dict[str, ArgValue] = field(default_factory=dict)
    inputs: Tuple[DeviceBuffer, ...] = ()  # consumed: a launch's buffer args, a read's buffer
    outputs: Tuple[DeviceBuffer, ...] = ()  # (re)defined: a launch's writes, a write's buffer
    buffer: Optional[DeviceBuffer] = None
    data: Optional[np.ndarray] = None
    device: Optional[int] = None  # affinity hint (launch) / prefetch target (write)

    @property
    def kind(self) -> str:
        return self.event.kind


class MultiDeviceQueue:
    """In-order command queue over N independent simulated G-GPUs.

    In-order means OpenCL in-order: every command implicitly depends on the
    previous one, so compute never overlaps (the device pool only matters for
    buffer residency).  :class:`OutOfOrderQueue` lifts that restriction.

    Pass either ``config``/``num_devices`` (the queue builds the pool) or
    ``devices`` (a pre-built pool, each simulator
    :meth:`~repro.simt.gpu.GGPUSimulator.reset` back to its
    post-construction state — the sweep harness reuses one pool across
    cells this way).

    ``transfer`` prices the host link (default ``config.transfer``), and
    ``topology`` the device↔device links.

    ``faults`` optionally arms a :class:`~repro.runtime.faults.FaultPlan`:
    the queue then recovers from injected device and transfer faults at the
    schedule layer (see the module docstring).  ``faults=None`` and an
    empty plan are bit-identical.

    ``memo`` optionally shares a :class:`LaunchMemo` with other queues (the
    serial sweeps pass one per sweep call): a launch the memo has seen is
    replayed instead of simulated, bit-identically.
    """

    in_order = True

    def __init__(
        self,
        config: Optional[GGPUConfig] = None,
        num_devices: int = 1,
        memory_bytes: int = 64 * 1024 * 1024,
        transfer: Optional[TransferConfig] = None,
        devices: Optional[Sequence[GGPUSimulator]] = None,
        faults: Optional[FaultPlan] = None,
        topology: Optional[Topology] = None,
        memo: Optional[LaunchMemo] = None,
    ) -> None:
        if devices is not None:
            if config is not None:
                raise KernelError("pass either a device pool or a config, not both")
            pool = list(devices)
            if not pool:
                raise KernelError("a multi-device queue needs at least one device")
            if any(simulator.config != pool[0].config for simulator in pool):
                # A mixed pool would silently void the bit-identical guarantee:
                # a launch's cycle count would depend on device assignment.
                raise KernelError("all devices of a queue must share one GGPUConfig")
            for simulator in pool:
                simulator.reset()
            self.devices = pool
            self.config = pool[0].config
        else:
            if num_devices < 1:
                raise KernelError(f"need at least one device, got {num_devices}")
            self.config = config or GGPUConfig()
            self.devices = [
                GGPUSimulator(self.config, memory_bytes=memory_bytes)
                for _ in range(num_devices)
            ]
        if topology is not None and topology.num_devices != len(self.devices):
            raise KernelError(
                f"topology describes {topology.num_devices} devices, "
                f"but the queue has {len(self.devices)}"
            )
        self.topology = topology
        self.transfer = transfer if transfer is not None else self.config.transfer
        self.faults = faults
        self.memo = memo
        self._injector = (
            FaultInjector(faults, len(self.devices)) if faults is not None else None
        )
        self._failures: List[DeviceFailureError] = []
        self.scheduler = "fifo"
        self.prefetch_depth = 0
        self._steal_rng = random.Random(0)
        # Transfer prices by bytes and by (owners, bytes): ``transfer`` and
        # ``topology`` are frozen and set only here, so the caches are exact.
        self._host_prices: Dict[int, float] = {}
        self._link_rows: Dict[Tuple[frozenset, int], List[Tuple[float, int]]] = {}
        self._comm_cache: Dict[int, float] = {}
        self.stats = QueueStats(
            device_compute_cycles={index: 0.0 for index in range(len(self.devices))},
            device_transfer_cycles={index: 0.0 for index in range(len(self.devices))},
        )
        # Two timelines per device: the compute engine (kernel launches) and
        # the DMA engine (host↔device and P2P copies).  They overlap, as on
        # real accelerators; each is serial with itself.
        self._compute_available = [0.0] * len(self.devices)
        self._dma_available = [0.0] * len(self.devices)
        self._buffers: List[DeviceBuffer] = []
        self._events: List[Event] = []
        self._pending: List[_Command] = []
        self._results: List[LaunchResult] = []
        self._schedule: List[Event] = []
        self._last_event: Optional[Event] = None

    # ------------------------------------------------------------------ #
    # Buffers
    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def schedule(self) -> List[Event]:
        """The executed *launches*, in execution order, with their timings."""
        return list(self._schedule)

    @property
    def events(self) -> List[Event]:
        """Every event this queue created (launches and transfer commands)."""
        return list(self._events)

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The armed fault injector, or ``None`` when no plan is configured."""
        return self._injector

    @property
    def alive_devices(self) -> List[int]:
        """Device indices still accepting work (all of them without faults).

        Every topology-aware consumer (thief pool, placement candidates)
        filters through :meth:`~repro.runtime.faults.FaultInjector.surviving`
        so a retired device leaves the link fabric everywhere at once.
        """
        if self._injector is None:
            return list(range(len(self.devices)))
        return self._injector.surviving(range(len(self.devices)))

    @property
    def failures(self) -> List[DeviceFailureError]:
        """Every root permanent failure this queue has recorded, in order."""
        return list(self._failures)

    # ------------------------------------------------------------------ #
    # Link costs (topology-aware when a Topology is attached)
    # ------------------------------------------------------------------ #
    @property
    def _p2p_direct(self) -> bool:
        """Whether dirty buffers move device→device: a topology is attached."""
        return self.topology is not None

    def _host_cycles(self, num_bytes: int) -> float:
        """Cycle cost of one host↔device copy of ``num_bytes``."""
        cycles = self._host_prices.get(num_bytes)
        if cycles is None:
            cycles = self._host_prices[num_bytes] = self.transfer.cycles(num_bytes)
        return cycles

    def _p2p_link_cycles(self, src: int, dst: int, num_bytes: int) -> float:
        """Cycles to move ``num_bytes`` ``src``→``dst``: a topology hop, else two host hops."""
        if self.topology is not None:
            return self.topology.p2p_cycles(src, dst, num_bytes)
        return 2.0 * self._host_cycles(num_bytes)

    def _nearest_links(self, owners: frozenset, num_bytes: int) -> List[Tuple[float, int]]:
        """Per device, ``(cycles, source)`` of the cheapest copy from ``owners``.

        Indexed by destination device.  Ties break toward the lower source,
        so the flat/default fabric (every pair priced identically) picks
        ``min(owners)`` — bit-identical to the pre-topology runtime.
        """
        row = self._link_rows.get((owners, num_bytes))
        if row is None:
            row = [
                min((self._p2p_link_cycles(source, device, num_bytes), source) for source in owners)
                for device in range(len(self.devices))
            ]
            self._link_rows[owners, num_bytes] = row
        return row

    def _comm_estimate(self, num_bytes: int) -> float:
        """Mean device↔device cost of ``num_bytes`` — the HEFT edge weight.

        HEFT weighs a dependency edge before knowing the placement of either
        endpoint, so it uses the mean over all ordered device pairs (the
        classic rank formulation); without a topology (or with one device)
        it is the host bounce, two host-link hops.
        """
        cached = self._comm_cache.get(num_bytes)
        if cached is not None:
            return cached
        count = len(self.devices)
        if self.topology is not None and count > 1:
            total = sum(
                self.topology.p2p_cycles(src, dst, num_bytes)
                for src in range(count)
                for dst in range(count)
                if src != dst
            )
            value = total / float(count * (count - 1))
        else:
            value = 2.0 * self._host_cycles(num_bytes)
        self._comm_cache[num_bytes] = value
        return value

    def allocate_buffer(self, num_words: int) -> DeviceBuffer:
        """Allocate one logical buffer (zero-filled) on every device.

        The per-device allocators march in lock-step, so the same base
        address comes back from each; a mismatch means the pool was tampered
        with behind the queue's back.
        """
        addresses = [device.allocate_buffer(num_words) for device in self.devices]
        if len(set(addresses)) != 1:
            raise KernelError(
                f"device allocators diverged: buffer addresses {addresses}"
            )
        buffer = DeviceBuffer(len(self._buffers), addresses[0], num_words)
        # A fresh simulator's memory is zero-filled, so every device copy of
        # a zero-filled logical buffer is already valid.
        buffer.valid_on = set(range(len(self.devices)))
        self._buffers.append(buffer)
        return buffer

    def create_buffer(
        self, values: Sequence[int], device: Optional[int] = None
    ) -> DeviceBuffer:
        """Allocate a logical buffer and set its host image to ``values``.

        ``device`` optionally prefetches the contents onto that device (see
        :meth:`enqueue_write`).  Creation is a pure enqueue: it never drains
        launches already waiting in the queue.
        """
        if not isinstance(values, np.ndarray):
            # Materialize generators/ranges once; ndarrays pass through
            # without the (slow, for large arrays) list round-trip.
            values = np.asarray(list(values), dtype=np.int64)
        buffer = self.allocate_buffer(int(values.size))
        self.enqueue_write(buffer, values, device=device)
        return buffer

    def enqueue_write(
        self,
        buffer: DeviceBuffer,
        values: Sequence[int],
        device: Optional[int] = None,
    ) -> Event:
        """Schedule a replacement of the buffer's logical contents.

        A first-class command in the event graph: it waits for the commands
        that defined or read the old contents (so pending launches still
        observe what they were enqueued against) but no longer flushes the
        queue.  With ``device=`` the new contents are also *prefetched*
        host→device on that device's DMA timeline as part of the command, so
        a launch hinted to the same device finds the buffer resident.
        Returns the write's completion :class:`Event`.
        """
        self._check_buffer(buffer)
        data = np.asarray(values, dtype=np.int64) & 0xFFFFFFFF
        if data.size != buffer.num_words:
            raise KernelError(
                f"buffer {buffer.handle} holds {buffer.num_words} words, "
                f"got {data.size} values"
            )
        self._check_device_hint(device)
        waits = self._hazard_waits(
            [buffer.last_writer] + list(buffer.readers)
        )
        event = Event(
            sequence=len(self._events),
            label=f"write:{buffer.handle}#{len(self._events)}",
            kernel_name="enqueue_write",
            kind="write",
            _queue=self,
        )
        self._events.append(event)
        self._pending.append(
            _Command(event, waits, outputs=(buffer,), buffer=buffer, data=data, device=device)
        )
        self._last_event = event
        buffer.last_writer = event
        buffer.readers = []
        return event

    def enqueue_read(self, buffer: DeviceBuffer) -> np.ndarray:
        """Read the buffer's current logical contents back to the host.

        Scheduled as a first-class command that waits on the buffer's last
        writer; because the host needs the bytes *now*, the queue then
        flushes.  If a device holds the only up-to-date copy, the
        device→host read-back is charged on that device's DMA timeline and
        recorded on the read event's ``readback_cycles``.

        If the buffer's contents were produced by a command that failed
        permanently, the read fails fast with a
        :class:`~repro.errors.DeviceFailureError` chaining the original
        failure — before scheduling anything.
        """
        self._check_buffer(buffer)
        writer = buffer.last_writer
        if writer is not None and writer.failed:
            raise self._dependent_failure(
                f"read of buffer {buffer.handle}", writer
            )
        waits = self._hazard_waits([buffer.last_writer])
        event = Event(
            sequence=len(self._events),
            label=f"read:{buffer.handle}#{len(self._events)}",
            kernel_name="enqueue_read",
            kind="read",
            _queue=self,
        )
        self._events.append(event)
        self._pending.append(_Command(event, waits, inputs=(buffer,), buffer=buffer))
        self._last_event = event
        buffer.readers.append(event)
        self.flush()
        if event.failed:
            raise event.error
        return buffer.host.astype(np.uint32)

    # ------------------------------------------------------------------ #
    # Enqueue / execute
    # ------------------------------------------------------------------ #
    def enqueue(
        self,
        kernel: Kernel,
        ndrange: NDRange,
        args: Dict[str, ArgValue],
        label: Optional[str] = None,
        wait_for: Sequence[Event] = (),
        writes: Optional[Sequence[str]] = None,
        device: Optional[int] = None,
    ) -> Event:
        """Append one launch; returns its completion :class:`Event`.

        ``args`` maps buffer-kind kernel arguments to :class:`DeviceBuffer`
        handles and scalar arguments to integers; the *full* kernel signature
        is validated here, so a missing or unknown argument fails at enqueue
        time instead of deep inside the simulator.  ``writes`` names the
        buffer arguments the kernel writes (defaults to *all* buffer
        arguments — conservative, but never wrong); read-only inputs listed
        out of it stay resident on every device that has them.  ``wait_for``
        lists events this launch must run after (the buffer's pending
        ``enqueue_write`` events are added automatically); an in-order queue
        adds an implicit dependency on the previously enqueued command.
        ``device`` is a scheduling affinity hint: the launch is placed on
        that device instead of the earliest-projected-start one.
        """
        kernel.check_arg_names(args)
        buffer_names = [arg.name for arg in kernel.args if arg.kind == "buffer"]
        resolved: Dict[str, ArgValue] = {}
        for arg in kernel.args:
            value = args[arg.name]
            if arg.kind == "buffer":
                if not isinstance(value, DeviceBuffer):
                    raise KernelError(
                        f"buffer argument {arg.name!r} of kernel {kernel.name!r} "
                        f"needs a DeviceBuffer handle on a multi-device queue, "
                        f"got {value!r}"
                    )
                self._check_buffer(value)
                resolved[arg.name] = value
            else:
                if isinstance(value, DeviceBuffer):
                    raise KernelError(
                        f"argument {arg.name!r} of kernel {kernel.name!r} is a "
                        f"scalar, got a DeviceBuffer"
                    )
                resolved[arg.name] = int(value)
        if writes is None:
            write_names = tuple(buffer_names)
        else:
            write_names = tuple(writes)
            for name in write_names:
                if name not in buffer_names:
                    raise KernelError(
                        f"writes lists {name!r}, which is not a buffer argument "
                        f"of kernel {kernel.name!r}"
                    )
        self._check_device_hint(device)
        waits = []
        for event in wait_for:
            if (
                not isinstance(event, Event)
                or event.sequence >= len(self._events)
                or self._events[event.sequence] is not event
            ):
                raise KernelError("wait_for events must come from this queue")
            waits.append(event)
        # Pending transfer commands replaced the old flush barrier: a launch
        # must observe the contents its buffers were last (re)defined with.
        for name in buffer_names:
            writer = resolved[name].last_writer
            if writer is not None:
                waits.append(writer)

        event = Event(
            sequence=len(self._events),
            label=label or f"{kernel.name}#{len(self._events)}",
            kernel_name=kernel.name,
            _queue=self,
        )
        self._events.append(event)
        self._pending.append(
            _Command(
                event=event,
                waits=self._hazard_waits(waits),
                kernel=kernel,
                ndrange=ndrange,
                args=resolved,
                inputs=tuple(resolved[name] for name in buffer_names),
                outputs=tuple(resolved[name] for name in write_names),
                device=device,
            )
        )
        self._last_event = event
        for name in buffer_names:
            buffer = resolved[name]
            if name in write_names:
                buffer.last_writer = event
                buffer.readers = []
            else:
                buffer.readers.append(event)
        return event

    @property
    def pending(self) -> int:
        """Number of commands (launches and transfers) waiting for :meth:`flush`."""
        return len(self._pending)

    def flush(self) -> List[LaunchResult]:
        """Schedule and execute every pending command; returns launch results.

        Commands are processed in enqueue order (a valid topological order of
        the event graph, since an event can only be waited on after it was
        created) — or, under another ``scheduler``, in that scheduler's
        order among the ready commands; each launch lands on its hinted device or the
        one with the earliest projected start.  On an empty queue this is a
        cheap no-op.

        Under fault injection a command may fail permanently (retry budget
        exhausted, or every device dead); its dependents fail fast, every
        *independent* command still executes, and the first root
        :class:`~repro.errors.DeviceFailureError` of this flush is raised
        once the whole schedule has been driven — the queue state stays
        consistent, so callers that catch it can keep enqueueing.

        A command that raises (a :class:`~repro.errors.SimulationError`
        from its simulator, say) becomes a root failure chaining the
        exception as ``__cause__``, the commands after it go back to
        :attr:`pending` in enqueue order, and the exception propagates; the
        next flush fails its dependents fast and runs the rest.
        """
        if not self._pending:
            return []
        order = self._flush_order(self._pending)
        self._pending = []
        results_before = len(self._results)
        failures_before = len(self._failures)
        for index, command in enumerate(order):
            try:
                if command.kind == "launch":
                    result = self._execute(command)
                    if result is not None:
                        self._results.append(result)
                elif command.kind == "write":
                    self._execute_write(command)
                else:
                    self._execute_read(command)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
                self._fail_root(command, None, command.event.attempts, reason)
                command.event.error.__cause__ = exc
                self._pending = sorted(order[index + 1 :], key=attrgetter("event.sequence"))
                raise
            finally:
                # A settled event never reads its queue again; dropping the
                # reference frees a finished queue without the cyclic GC.
                if command.event.settled:
                    command.event._queue = None
        new_failures = self._failures[failures_before:]
        if new_failures:
            raise new_failures[0]
        return self._results[results_before:]

    def finish(self) -> List[LaunchResult]:
        """Flush and return the results of *all* launches this queue has run.

        On an empty queue (nothing pending, nothing run) this is a cheap
        no-op that returns an empty list.
        """
        self.flush()
        return list(self._results)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _check_buffer(self, buffer: DeviceBuffer) -> None:
        if (
            not isinstance(buffer, DeviceBuffer)
            or buffer.handle >= len(self._buffers)
            or self._buffers[buffer.handle] is not buffer
        ):
            raise KernelError("buffer does not belong to this queue")

    def _check_device_hint(self, device: Optional[int]) -> None:
        """Enqueue-time validation of a ``device=`` hint (range only).

        Liveness is deliberately *not* checked here: a device may die
        between enqueue and flush, so hints honor-then-degrade at execution
        time through :meth:`_live_hint` — the one shared rule for launch
        affinity and prefetch-write targets alike.
        """
        if device is not None and not 0 <= device < len(self.devices):
            raise KernelError(
                f"device hint {device} out of range for a "
                f"{len(self.devices)}-device queue"
            )

    def _live_hint(self, device: Optional[int]) -> Optional[int]:
        """The hint if it still points at a live device, else ``None``.

        Used at execution time by launch dispatch *and* the prefetch path of
        :meth:`_execute_write`: a hint at a retired device degrades to
        scheduler placement (launches) or to a host-only write (prefetches)
        instead of erroring or re-populating a dead device's residency.
        """
        self._check_device_hint(device)
        if device is None:
            return None
        if self._injector is not None and self._injector.is_dead(device):
            return None
        return device

    def _hazard_waits(self, candidates: Sequence[Optional[Event]]) -> Tuple[Event, ...]:
        """Dependency list: in-order chain + deduplicated hazard edges."""
        waits: List[Event] = [e for e in candidates if e is not None]
        if self.in_order and self._last_event is not None:
            waits.append(self._last_event)
        seen: set = set()
        unique: List[Event] = []
        for event in waits:
            if event.sequence not in seen:
                seen.add(event.sequence)
                unique.append(event)
        return tuple(unique)

    def _flush_order(self, pending: List[_Command]) -> List[_Command]:
        """Execution order for one flush, per the active ``scheduler``.

        ``fifo`` keeps enqueue order (a valid topological order of the event
        graph, since an event can only be waited on after it was created);
        ``lpt`` drains longest-projected-time first, ``heft`` by descending
        HEFT upward rank, and ``stealing`` lets the idlest device claim the
        nearest ready command (see the dedicated methods).  Every order is
        deterministic and respects every event edge; as with any
        out-of-order execution, two launches touching one buffer without an
        event between them have no defined order.  A positive
        ``prefetch_depth`` then retargets placement-determined input writes
        as prefetches (double buffering on the DMA timelines).
        """
        if self.scheduler == "lpt":
            order = self._lpt_order(pending)
        elif self.scheduler == "heft":
            order = self._heft_order(pending)
        elif self.scheduler == "stealing":
            order = self._stealing_order(pending)
        else:
            order = pending
        if self.prefetch_depth > 0:
            self._apply_prefetch_depth(order)
        return order

    @staticmethod
    def _successors(pending: List[_Command]) -> Dict[int, List[_Command]]:
        """The flush's event edges: unsettled wait's sequence -> its waiters."""
        successors: Dict[int, List[_Command]] = {c.event.sequence: [] for c in pending}
        for command in pending:
            for wait in command.waits:
                if not wait.settled:
                    successors.setdefault(wait.sequence, []).append(command)
        return successors

    def _ready_order(
        self,
        pending: List[_Command],
        pick: Callable[[List[_Command]], _Command],
        on_transfer: Optional[Callable[[_Command], None]] = None,
        successors: Optional[Dict[int, List[_Command]]] = None,
    ) -> List[_Command]:
        """Drain ``pending`` respecting event edges; ``pick`` breaks the tie.

        One Kahn pass (Kahn, CACM 1962): each command counts its unsettled
        waits, and placing one releases its successors into two ready lists
        kept in sequence order (stealing breaks exact ties with its seeded RNG
        in list order).  Ready transfers go first, lowest sequence first, and
        ``on_transfer`` sees each: they are host bookkeeping and DMA setup
        that should never wait behind compute.  Among the ready launches,
        ``pick`` chooses (LPT weight, HEFT rank, or a stealing claim).
        """
        if successors is None:
            successors = self._successors(pending)
        sequence = attrgetter("event.sequence")
        waiting = {c.event.sequence: sum(not w.settled for w in c.waits) for c in pending}
        transfers: List[_Command] = []
        launches: List[_Command] = []
        for command in pending:  # pending is in sequence order
            if not waiting[command.event.sequence]:
                (launches if command.kind == "launch" else transfers).append(command)
        order: List[_Command] = []
        while transfers or launches:
            if transfers:
                choice = transfers.pop(0)
                if on_transfer is not None:
                    on_transfer(choice)
            else:
                choice = pick(launches)
                launches.remove(choice)
            order.append(choice)
            for successor in successors[choice.event.sequence]:
                waiting[successor.event.sequence] -= 1
                if not waiting[successor.event.sequence]:
                    insort(
                        launches if successor.kind == "launch" else transfers,
                        successor,
                        key=sequence,
                    )
        if len(order) != len(pending):  # pragma: no cover - the event graph is acyclic
            raise KernelError("event graph deadlock: no ready command")
        return order

    def _lpt_order(self, pending: List[_Command]) -> List[_Command]:
        """LPT: largest NDRange first among the ready launches.

        The flat work-item total (``global_size``, rank-independent) is the
        deterministic proxy for projected compute time; ties break toward the
        earlier sequence.
        """
        return self._ready_order(
            pending,
            lambda ready: max(
                ready, key=lambda c: (c.ndrange.global_size, -c.event.sequence)
            ),
        )

    def _compute_estimate(self, command: _Command) -> float:
        """Deterministic projected compute cycles of one command."""
        if command.kind == "launch":
            return command.ndrange.global_size * SCHEDULE_CYCLES_PER_ITEM
        return 0.0

    def _heft_order(self, pending: List[_Command]) -> List[_Command]:
        """HEFT: descending upward rank over the pending event graph.

        The upward rank of a command is its projected compute time plus the
        most expensive downstream path — per-edge communication (the bytes
        the successor consumes, priced at the mean per-link cost of the
        attached topology) plus the successor's own rank.  Draining by
        descending rank runs the critical chain eagerly instead of letting
        big-but-leafy launches monopolize the pool the way pure LPT does.
        Ties break toward the earlier sequence, so the order is fully
        deterministic.
        """
        successors = self._successors(pending)
        rank: Dict[int, float] = {}
        # Enqueue order is topological, so reversed sequence order visits
        # every successor before its producers.
        for command in reversed(pending):
            outputs = {id(buffer) for buffer in command.outputs}
            downstream = 0.0
            for successor in successors[command.event.sequence]:
                comm_bytes = sum(
                    buffer.num_bytes
                    for buffer in successor.inputs
                    if id(buffer) in outputs
                )
                downstream = max(
                    downstream,
                    self._comm_estimate(comm_bytes)
                    + rank[successor.event.sequence],
                )
            rank[command.event.sequence] = (
                self._compute_estimate(command) + downstream
            )
        return self._ready_order(
            pending,
            lambda ready: max(
                ready, key=lambda c: (rank[c.event.sequence], -c.event.sequence)
            ),
            successors=successors,
        )

    def _stealing_order(self, pending: List[_Command]) -> List[_Command]:
        """Deterministic work stealing: idle devices claim the nearest work.

        A greedy list schedule over virtual per-device clocks: each round the
        idlest *alive* device (lowest virtual clock, then lowest index) steals
        the ready launch it could *start* soonest — a launch's virtual start
        is its dependencies' virtual finish plus the cost of bringing its
        inputs over: resident inputs are free, dirty inputs pay the per-pair
        link cost from their planned location, host-valid inputs pay the host
        bridge.  Equal starts prefer the larger launch; exact ties break with
        the queue's seeded RNG.  Readiness-aware claims keep the steal
        breadth-first — a chain's next hop looks cheap but cannot start
        before its producer, so independent work wins the idle gap.  The
        claim advances the thief's virtual clock, records the launch's
        virtual finish, and updates the planned buffer locations, so data
        gravity steers later claims; placement itself stays with the
        dispatcher's projected-start rule (which sees the real DMA
        timelines), keeping the steal a flush *order*.
        Explicit user hints are honored: a pre-hinted launch contributes to
        its own device's clock, not the thief's.  Dead devices never steal
        (and a hint at a device that dies before execution degrades through
        the normal hint path), so retired devices leave the fabric
        consistently.

        Each ready launch is priced once per claiming device: its readiness
        is final once its waits are placed, and its claim price depends only
        on the planned location of its inputs (``alive`` is fixed for the
        flush), so a price is dropped only when one of those locations
        changes.
        """
        alive = set(self.alive_devices)
        thieves = sorted(alive) if alive else list(range(len(self.devices)))
        clock = {device: self._compute_available[device] for device in thieves}
        # Virtual finish time per claimed event sequence (dependency model).
        finish: Dict[int, float] = {}
        # Planned residency per buffer handle: (host_valid, owner devices).
        location: Dict[int, Tuple[bool, frozenset]] = {}
        # Per launch sequence: readiness, negated size, claim price by device.
        facts: Dict[int, Tuple[float, int, Dict[int, float]]] = {}
        consumers: Dict[int, List[int]] = {}
        for command in pending:
            if command.kind == "launch":
                for buffer in command.inputs:
                    consumers.setdefault(buffer.handle, []).append(command.event.sequence)

        def spot(buffer: DeviceBuffer) -> Tuple[bool, frozenset]:
            state = location.get(buffer.handle)
            if state is None:
                state = (buffer.host_valid, frozenset(buffer.valid_on & alive))
                location[buffer.handle] = state
            return state

        def move(buffer: DeviceBuffer, state: Tuple[bool, frozenset]) -> None:
            if spot(buffer) != state:
                location[buffer.handle] = state
                for sequence in consumers.get(buffer.handle, ()):
                    if sequence in facts:
                        facts[sequence][2].clear()  # the reader's claim prices

        def claim_cost(command: _Command, thief: int) -> float:
            cost = 0.0
            for buffer in command.inputs:
                host_valid, owners = spot(buffer)
                if thief in owners:
                    continue
                if not host_valid and owners:
                    cost += self._nearest_links(owners, buffer.num_bytes)[thief][0]
                else:
                    cost += self._host_cycles(buffer.num_bytes)
            return cost

        def settle(command: _Command, device: Optional[int]) -> None:
            if command.kind == "write":
                owners = frozenset() if device is None else frozenset({device})
                move(command.buffer, (True, owners))
                return
            if command.kind == "read":
                host_valid, owners = spot(command.buffer)
                move(command.buffer, (True, owners))
                return
            for buffer in command.inputs:
                host_valid, owners = spot(buffer)
                if device is not None:
                    move(buffer, (host_valid, owners | {device}))
            for buffer in command.outputs:
                owners = frozenset() if device is None else frozenset({device})
                move(buffer, (False, owners))

        def pick(ready: List[_Command]) -> _Command:
            thief = min(thieves, key=lambda device: (clock[device], device))
            scored = []
            for command in ready:
                entry = facts.get(command.event.sequence)
                if entry is None:
                    # Every wait is placed, so its virtual finish is final.
                    ready_at = max(
                        (finish.get(w.sequence, 0.0) for w in command.waits), default=0.0
                    )
                    entry = (ready_at, -command.ndrange.global_size, {})
                    facts[command.event.sequence] = entry
                ready_at, size, prices = entry
                target = command.device if command.device in alive else thief
                cost = prices.get(target)
                if cost is None:
                    cost = prices[target] = claim_cost(command, target)
                scored.append((max(clock[target], ready_at) + cost, size, target, command))
            best = min((start, size) for start, size, _, _ in scored)
            ties = [entry for entry in scored if (entry[0], entry[1]) == best]
            if len(ties) == 1:
                start, _, target, choice = ties[0]
            else:
                start, _, target, choice = ties[self._steal_rng.randrange(len(ties))]
            clock[target] = start + self._compute_estimate(choice)
            finish[choice.event.sequence] = clock[target]
            settle(choice, target)
            return choice

        return self._ready_order(
            pending, pick, on_transfer=lambda command: settle(command, command.device)
        )

    def _apply_prefetch_depth(self, order: List[_Command]) -> None:
        """Retarget input writes as prefetches to their consumer's device.

        Double buffering: once the flush order and launch placements are
        known, a write whose consuming launch (within ``prefetch_depth``
        commands downstream) has a pinned device becomes a prefetch to that
        device, so the copy streams on the DMA engine while earlier compute
        runs.  Writes the user already hinted are left alone, and a consumer
        without a pinned placement gets no prefetch — exactly the behaviour
        of ``prefetch_depth=0``.
        """
        for index, command in enumerate(order):
            if command.kind != "write" or command.device is not None:
                continue
            for later in order[index + 1 : index + 1 + self.prefetch_depth]:
                if later.kind != "launch" or later.device is None:
                    continue
                if command.event in later.waits and any(
                    buffer is command.buffer for buffer in later.inputs
                ):
                    command.device = later.device
                    break

    def _projected_starts(
        self, command: _Command, devices: Sequence[int], ready: float
    ) -> List[float]:
        """Earliest compute start of ``command`` on each of ``devices``.

        Reads each input buffer's residency once, then prices every device
        in one pass; per device it takes the same maxima and sums as pricing
        that device alone.  Mirrors :meth:`_materialize` closely enough to
        pick a device; it is a deterministic heuristic, not a timing
        commitment, and mutates nothing.
        """
        dma_available = self._dma_available
        inputs = []
        for buffer in command.inputs:
            copy = self._host_cycles(buffer.num_bytes)
            hops = None
            if buffer.host_valid:
                host_ready = buffer.ready_cycle
            elif self._p2p_direct:
                host_ready = 0.0
                hops = self._nearest_links(frozenset(buffer.valid_on), buffer.num_bytes)
            else:
                source = min(buffer.valid_on)
                host_ready = max(dma_available[source], buffer.ready_cycle) + copy
            inputs.append(
                (buffer.valid_on, buffer.ready_cycle, buffer.device_ready, host_ready, copy, hops)
            )
        starts = []
        # The hot maxima are comparisons, not max() calls: the same values
        # (every cycle count is non-negative) at a fraction of the cost.
        for device in devices:
            arrival = ready
            dma = dma_available[device]
            for valid_on, ready_cycle, device_ready, host_ready, copy, hops in inputs:
                if device in valid_on:
                    if device_ready:
                        landed = max(ready_cycle, device_ready.get(device, 0.0))
                    else:
                        landed = ready_cycle
                    if landed > arrival:
                        arrival = landed
                    continue
                if hops is None:
                    start, cycles = host_ready, copy
                else:
                    cycles, source = hops[device]
                    start = max(dma_available[source], ready_cycle)
                dma = (dma if dma >= start else start) + cycles
                if dma > arrival:
                    arrival = dma
            compute = self._compute_available[device]
            starts.append(compute if compute >= arrival else arrival)
        return starts

    def _dma_copy(
        self, kind: str, buffer: DeviceBuffer, engines: Tuple[int, ...], cycles: float, ready: float
    ) -> Tuple[float, float]:
        """Charge one copy of ``buffer``; returns ``(end_cycle, cycles_charged)``.

        Every copy goes through here: ``kind`` is ``"readback"``, ``"h2d"``
        or ``"p2p"``.  It starts once its data is ``ready`` and every DMA
        engine in ``engines`` is free, and holds them until it ends.  It is
        charged to ``engines[-1]`` (a P2P hop's destination), where the fault
        injector may stall or re-send it, and extends the makespan.
        """
        start = max(ready, *(self._dma_available[engine] for engine in engines))
        device = engines[-1]
        cycles = self._faulted_transfer_cycles(device, cycles, start, f"{kind}:{buffer.handle}")
        end = start + cycles
        for engine in engines:
            self._dma_available[engine] = end
        self.stats.record_copy(kind, device, buffer.num_bytes, cycles)
        self.stats.makespan = max(self.stats.makespan, end)
        return end, cycles

    def _read_back(self, buffer: DeviceBuffer) -> Tuple[float, float]:
        """Refresh the host image from a valid device, charging the copy.

        Returns ``(host_ready_cycle, cycles_charged)``.  The copy runs on the
        source device's DMA engine, overlapping that device's compute; it can
        start no earlier than the producing launch finished
        (``buffer.ready_cycle``).
        """
        if buffer.host_valid:
            # The host image is authoritative whenever it is valid: there is
            # nothing to read back (and nothing to count —
            # ``transfers_skipped`` measures launch-side residency hits only).
            return buffer.ready_cycle, 0.0
        source = min(buffer.valid_on)
        buffer.host = (
            self.devices[source]
            .read_buffer(buffer.address, buffer.num_words)
            .astype(np.int64)
        )
        end, cycles = self._dma_copy(
            "readback", buffer, (source,), self._host_cycles(buffer.num_bytes), buffer.ready_cycle
        )
        buffer.host_valid = True
        buffer.ready_cycle = end
        return end, cycles

    def _copy_host_to_device(
        self, buffer: DeviceBuffer, device: int, host_ready: float
    ) -> Tuple[float, float]:
        """Write the host image to ``device``, charging its DMA engine.

        Returns ``(arrival_cycle, cycles_charged)``; shared by the lazy
        launch-side path and the prefetch path of :meth:`_execute_write`.
        """
        self.devices[device].write_buffer(buffer.address, buffer.host)
        end, cycles = self._dma_copy(
            "h2d", buffer, (device,), self._host_cycles(buffer.num_bytes), host_ready
        )
        buffer.valid_on.add(device)
        return end, cycles

    def _materialize(
        self, command: _Command, device: int, ready: float
    ) -> Tuple[float, float, float]:
        """Make every buffer argument resident on ``device``.

        Returns ``(compute_start, transfer_cycles, readback_cycles)`` — the
        transfer cycles cover the copies charged on *this* device's DMA
        engine (host→device writes and inbound P2P hops), the read-back
        cycles the device→host copies this launch forced on *source*
        devices' DMA engines.  Without a topology, a buffer dirty on another
        device is first read back there, then written host→device; with one
        it moves directly device→device over the cheapest link.  The launch
        computes once its engine is free, its event dependencies are met,
        and every input has arrived.
        """
        arrival = ready
        charged = 0.0
        readback = 0.0
        for buffer in command.inputs:
            if device in buffer.valid_on:
                self.stats.transfers_skipped += 1
                arrival = max(
                    arrival, buffer.ready_cycle, buffer.device_ready.get(device, 0.0)
                )
                continue
            if buffer.host_valid or not self._p2p_direct:
                host_ready, cycles = self._read_back(buffer)  # free when host-valid
                readback += cycles
                end, cycles = self._copy_host_to_device(buffer, device, host_ready)
            else:
                owners = frozenset(buffer.valid_on)
                cycles, source = self._nearest_links(owners, buffer.num_bytes)[device]
                contents = self.devices[source].read_buffer(buffer.address, buffer.num_words)
                self.devices[device].write_buffer(buffer.address, contents.astype(np.int64))
                end, cycles = self._dma_copy(
                    "p2p", buffer, (source, device), cycles, buffer.ready_cycle
                )
                buffer.valid_on.add(device)
                buffer.device_ready[device] = end
            charged += cycles
            arrival = max(arrival, end)
        return max(self._compute_available[device], arrival), charged, readback

    def _prefetched_inputs(self, command: _Command) -> Dict[int, int]:
        """Per device, how many of the command's buffers were prefetched there.

        Used as a tie-break on device selection so a prefetched copy is not
        wasted when projected starts tie.  Only the new transfer paths
        populate ``device_ready``, so default (PR 4) schedules see every
        count as zero and are unaffected.
        """
        counts: Dict[int, int] = {}
        for buffer in command.inputs:
            for device in buffer.device_ready:
                counts[device] = counts.get(device, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # Fault handling
    # ------------------------------------------------------------------ #
    def _dependent_failure(self, what: str, dependency: Event) -> DeviceFailureError:
        """A structured fail-fast error for ``what`` depending on a failure.

        The returned error chains the dependency's failure as ``__cause__``
        (walking to the root cause the original ``DeviceFailureError``)
        so callers always see the original fault, never a generic error.
        """
        root = dependency.error
        while root is not None and isinstance(root.__cause__, DeviceFailureError):
            root = root.__cause__
        error = DeviceFailureError(
            f"{what} depends on permanently failed command "
            f"{dependency.label!r}: {root}",
            event_label=dependency.label,
            device=root.device if root is not None else None,
            attempts=root.attempts if root is not None else 0,
            graph_slice=root.graph_slice if root is not None else (dependency.label,),
        )
        error.__cause__ = root
        return error

    def _fail_root(
        self, command: _Command, device: Optional[int], attempts: int, reason: str
    ) -> None:
        """Mark ``command`` permanently failed (the root of a failed slice)."""
        event = command.event
        error = DeviceFailureError(
            f"command {event.label!r} failed permanently: {reason}",
            event_label=event.label,
            device=device,
            attempts=attempts,
            graph_slice=(event.label,),
        )
        event.failed = True
        event.attempts = attempts
        event.error = error
        self._failures.append(error)
        self.stats.commands_failed += 1

    def _fail_dependent(self, command: _Command, dependency: Event) -> None:
        """Fail ``command`` fast because one of its dependencies failed."""
        event = command.event
        error = self._dependent_failure(f"command {event.label!r}", dependency)
        event.failed = True
        event.error = error
        self.stats.commands_failed += 1
        # Grow the root's recorded event-graph slice with this casualty.
        root = error.__cause__
        if isinstance(root, DeviceFailureError):
            root.graph_slice = root.graph_slice + (event.label,)
            error.graph_slice = root.graph_slice

    def _failed_dependency(self, command: _Command) -> Optional[Event]:
        return next((wait for wait in command.waits if wait.failed), None)

    def _retire_device(self, device: int, casualty: Event) -> None:
        """Permanently retire a device, evacuating its sole-copy buffers.

        The failure model is fail-stop with host-readable memory: the
        compute side is gone for good, but the device's memory stays
        reachable for one salvage pass (as over a PCIe BAR on a real
        accelerator whose SMs hung).  Every buffer whose *only* valid copy
        lives on the dying device is read back to the host through the
        normal priced path; then the device disappears from every residency
        set and from placement forever.

        ``casualty`` is the event whose faulted dispatch killed the device:
        the salvage read-backs are charged to its ``readback_cycles`` so the
        per-event totals keep reconciling with the per-device transfer stats
        under a fired plan (evacuations used to be charged to no event at
        all, breaking ``sum(events) == sum(device_transfer_cycles)``).
        """
        for buffer in self._buffers:
            if not buffer.host_valid and buffer.valid_on == {device}:
                _, cycles = self._read_back(buffer)
                casualty.readback_cycles += cycles
                self.stats.evacuated_buffers += 1
        for buffer in self._buffers:
            buffer.valid_on.discard(device)
            buffer.device_ready.pop(device, None)
        self._injector.mark_dead(device)
        self.stats.devices_lost += 1

    def _faulted_transfer_cycles(
        self, device: int, base_cycles: float, start_hint: float, label: str
    ) -> float:
        """Apply any injected transfer fault to one DMA charge.

        A stall adds the fault's ``stall_cycles`` to the copy; a detected
        corruption re-sends the copy once (both sends charged, counted as a
        transfer retry).  The returned cycles flow into the same per-event
        and per-device accounting as a clean copy, so the reconciliation
        invariant holds under faults too.  Without an armed injector this
        returns ``base_cycles`` untouched — the fault-free path charges
        bit-identical costs.
        """
        if self._injector is None or base_cycles <= 0.0:
            return base_cycles
        fault = self._injector.transfer_fault(device, start_hint, label)
        if fault is None:
            return base_cycles
        self.stats.transfer_faults += 1
        if fault.kind == TRANSFER_STALL:
            self.stats.fault_cycles += fault.stall_cycles
            return base_cycles + fault.stall_cycles
        # Detected corruption: CRC mismatch at the receiver, copy re-sent.
        self.stats.transfer_retries += 1
        self.stats.fault_cycles += base_cycles
        return base_cycles * 2.0

    def _dispatch(self, command: _Command, ready: float) -> Optional[Tuple[int, float]]:
        """Pick a device and survive injected launch faults; None on failure.

        Without faults this is exactly the PR 5 placement rule: the hinted
        device, or the earliest-projected-start one (prefetch count, then
        lower index, break ties).  With faults, dead devices are excluded, a
        hint pointing at a dead device degrades gracefully to scheduler
        placement, and each faulted dispatch attempt charges the fault's
        detection time on the failing device, backs off exponentially in
        simulated time, and re-enqueues on the survivors — up to the plan's
        retry budget, after which the command fails permanently.

        Returns ``(device, ready_cycle)`` for the successful dispatch.
        """
        injector = self._injector
        attempts = 0
        while True:
            if injector is None:
                candidates: Sequence[int] = range(len(self.devices))
            else:
                candidates = injector.alive_devices()
                if not candidates:
                    self._fail_root(
                        command,
                        device=None,
                        attempts=attempts,
                        reason="every device of the queue has failed",
                    )
                    return None
            hint = self._live_hint(command.device)
            if hint is not None:
                device = hint
            else:
                starts = self._projected_starts(command, candidates, ready)
                prefetched = self._prefetched_inputs(command)
                _, _, device = min(
                    (start, -prefetched.get(index, 0), index)
                    for start, index in zip(starts, candidates, strict=True)
                )
            if injector is None:
                command.event.attempts = attempts + 1
                return device, ready
            (start,) = self._projected_starts(command, (device,), ready)
            fault = injector.launch_fault(device, start, command.event.label)
            if fault is None:
                command.event.attempts = attempts + 1
                return device, ready
            # The device dropped the command: charge the watchdog detection
            # on its compute timeline, then retry after a simulated backoff.
            attempts += 1
            self.stats.launch_faults += 1
            detect_end = max(self._compute_available[device], ready) + fault.detect_cycles
            self._compute_available[device] = detect_end
            self.stats.fault_cycles += fault.detect_cycles
            self.stats.makespan = max(self.stats.makespan, detect_end)
            if fault.kind == DEVICE_FAIL:
                self._retire_device(device, command.event)
            if attempts > self.faults.max_retries:
                self._fail_root(
                    command,
                    device=device,
                    attempts=attempts,
                    reason=(
                        f"retry budget exhausted after {attempts} faulted "
                        f"dispatch attempts (max_retries={self.faults.max_retries})"
                    ),
                )
                return None
            self.stats.launch_retries += 1
            backoff = self.faults.retry_delay(attempts)
            self.stats.fault_cycles += backoff
            ready = detect_end + backoff

    def _execute(self, command: _Command) -> Optional[LaunchResult]:
        failed_dependency = self._failed_dependency(command)
        if failed_dependency is not None:
            self._fail_dependent(command, failed_dependency)
            return None
        ready = max((event.end_cycle for event in command.waits), default=0.0)
        dispatched = self._dispatch(command, ready)
        if dispatched is None:
            return None
        device, ready = dispatched
        start, transfer_cycles, readback_cycles = self._materialize(
            command, device, ready
        )

        launch_args = {
            name: value.address if isinstance(value, DeviceBuffer) else value
            for name, value in command.args.items()
        }
        simulator = self.devices[device]
        if self.memo is None:
            result = simulator.launch(command.kernel, command.ndrange, launch_args)
        else:
            result = self.memo.launch(
                simulator,
                command.kernel,
                command.ndrange,
                launch_args,
                command.inputs,
            )
        end = start + result.cycles
        self._compute_available[device] = end

        for buffer in command.outputs:
            buffer.host_valid = False
            buffer.valid_on = {device}
            buffer.device_ready = {}
            buffer.ready_cycle = end

        event = command.event
        event.device = device
        event.start_cycle = start
        event.end_cycle = end
        event.compute_cycles = result.cycles
        # Accumulate (never assign): a faulted dispatch may already have
        # charged evacuation read-backs to this event via _retire_device.
        event.transfer_cycles += transfer_cycles
        event.readback_cycles += readback_cycles
        event.critical_path_cycles = (
            max((dep.critical_path_cycles for dep in command.waits), default=0.0)
            + result.cycles
        )
        event.result = result
        event.finished = True

        self.stats.record(result, device=device)
        self.stats.makespan = max(self.stats.makespan, end)
        self.stats.critical_path_cycles = max(
            self.stats.critical_path_cycles, event.critical_path_cycles
        )
        self._schedule.append(event)
        return result

    def _execute_write(self, command: _Command) -> None:
        """Replace the host image; optionally prefetch to the hinted device.

        A write proceeds even when a dependency failed: its data comes from
        the host, not from the failed producer, so rewriting a buffer is
        exactly how a caller re-establishes known contents after a
        :class:`~repro.errors.DeviceFailureError`.
        """
        buffer = command.buffer
        event = command.event
        ready = max(
            (dep.end_cycle for dep in command.waits if not dep.failed), default=0.0
        )
        buffer.host = command.data
        buffer.valid_on = set()
        buffer.host_valid = True
        buffer.device_ready = {}
        buffer.ready_cycle = 0.0  # host data is available immediately
        event.start_cycle = ready
        event.end_cycle = ready
        device = self._live_hint(command.device)
        if device is not None:
            end, cycles = self._copy_host_to_device(buffer, device, ready)
            buffer.device_ready = {device: end}
            event.device = device
            event.start_cycle = end - cycles
            event.end_cycle = end
            event.transfer_cycles = cycles
        event.critical_path_cycles = max(
            (dep.critical_path_cycles for dep in command.waits), default=0.0
        )
        event.finished = True

    def _execute_read(self, command: _Command) -> None:
        """Refresh the host image as a scheduled command with its own event.

        A read *depends* on the contents its producer defined, so a failed
        dependency cascades: the read fails fast with the root failure
        chained, rather than surfacing stale host data as if it were fresh.
        """
        failed_dependency = self._failed_dependency(command)
        if failed_dependency is not None:
            self._fail_dependent(command, failed_dependency)
            return
        buffer = command.buffer
        event = command.event
        ready = max((dep.end_cycle for dep in command.waits), default=0.0)
        host_ready, cycles = self._read_back(buffer)
        if cycles:
            event.device = min(buffer.valid_on) if buffer.valid_on else None
            event.start_cycle = host_ready - cycles
        else:
            event.start_cycle = ready
        event.end_cycle = max(ready, host_ready)
        event.readback_cycles = cycles
        event.critical_path_cycles = max(
            (dep.critical_path_cycles for dep in command.waits), default=0.0
        )
        event.finished = True


class OutOfOrderQueue(MultiDeviceQueue):
    """Out-of-order multi-device queue with OpenCL-style event dependencies.

    Launches are ordered only by their ``wait_for`` events (plus the
    automatic edges to a buffer's pending ``enqueue_write``); independent
    launches overlap across the device pool.  As with a real out-of-order
    queue, two launches touching the same buffer without an event between
    them have no defined order — declare the dependency (or rely on the
    in-order :class:`MultiDeviceQueue`).

    ``scheduler`` picks the flush order (see
    :meth:`MultiDeviceQueue._flush_order`):

    * ``"fifo"`` (default) — enqueue order.
    * ``"lpt"`` — longest-projected-time first: big launches grab devices
      before small ones, which tightens makespans for mixed independent
      batches at 4+ devices.
    * ``"heft"`` — HEFT upward-rank order over the event graph with per-link
      communication costs: the critical chain runs eagerly, which beats LPT
      on layered DAGs (a deep chain next to wide independent work) at 8+
      devices.
    * ``"stealing"`` — deterministic work stealing: the idlest alive device
      claims the topology-nearest ready launch (seeded tie-breaks via
      ``steal_seed``), pinning its placement; data gravity steers later
      claims, which pays off on shuffle DAGs over non-flat topologies.

    ``topology`` attaches a per-pair :class:`~repro.arch.config.Topology`
    link-cost model (``None`` keeps the single ``TransferConfig`` pricing —
    bit-identical to the pre-topology runtime).  ``prefetch_depth`` > 0
    retargets input writes as prefetches to their consumer's pinned device
    within that lookahead window (double buffering).  All of these reshape
    the *schedule only*: kernel results and per-launch simulated cycles are
    bit-identical across every scheduler/topology choice.
    """

    in_order = False

    def __init__(
        self,
        config: Optional[GGPUConfig] = None,
        num_devices: int = 1,
        memory_bytes: int = 64 * 1024 * 1024,
        transfer: Optional[TransferConfig] = None,
        devices: Optional[Sequence[GGPUSimulator]] = None,
        faults: Optional[FaultPlan] = None,
        scheduler: str = "fifo",
        topology: Optional[Topology] = None,
        prefetch_depth: int = 0,
        steal_seed: int = 0,
        memo: Optional[LaunchMemo] = None,
    ) -> None:
        super().__init__(
            config=config,
            num_devices=num_devices,
            memory_bytes=memory_bytes,
            transfer=transfer,
            devices=devices,
            faults=faults,
            topology=topology,
            memo=memo,
        )
        if scheduler not in SCHEDULERS:
            raise KernelError(
                f"unknown scheduler {scheduler!r}; choose from {', '.join(SCHEDULERS)}"
            )
        if prefetch_depth < 0:
            raise KernelError(
                f"prefetch depth must be non-negative, got {prefetch_depth}"
            )
        self.scheduler = scheduler
        self.prefetch_depth = int(prefetch_depth)
        self.steal_seed = int(steal_seed)
        self._steal_rng = random.Random(self.steal_seed)
