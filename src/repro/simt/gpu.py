"""Top-level G-GPU simulator with an OpenCL-like host API.

The host side of the FGPU only needs standard OpenCL-API procedures: allocate
buffers, write them, set kernel arguments, enqueue an NDRange, and read the
results back.  :class:`GGPUSimulator` exposes exactly that surface and runs
the kernel on the configured number of Compute Units, returning the cycle
count and the detailed statistics the evaluation harness consumes.

The launch loop orders only the events that touch shared state.  A
*shared* event starts with a global load or store (the central cache and
the AXI ports) or a RET (the workgroup dispatcher); every other event is
*private* to its CU.  A heap holds a ``(next_event_time, cu_index)`` entry
per waiting CU, and the popped CU issues its events back to back: all of
its private events, and each shared event whose ``(time, index)`` comes
before the heap top's.  The shared events thus happen in exactly the order
of one global heap serving one event per pop (ties to the lower CU index),
while a CU's private events skip the heap entirely.  This is exact because
a private event reads and writes only its own CU's state, and a CU's event
times never decrease; it is conservative synchronization in the sense of
parallel discrete-event simulation (Chandy and Misra, 1979).

At the end of a launch the dirty cache lines are flushed through the global
memory controller, so the end-of-kernel drain shows up as AXI write-back
traffic (it is posted, so it does not extend the kernel's cycle count).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.arch.config import GGPUConfig
from repro.arch.kernel import Kernel, NDRange
from repro.errors import KernelError, SimulationError
from repro.simt.axi import GlobalMemoryController
from repro.simt.cache import DataCache
from repro.simt.cu import ComputeUnit, lram_slot_geometry
from repro.simt.decode import DecodedProgram, predecode_program
from repro.simt.dispatcher import WorkgroupDispatcher
from repro.simt.memory import GlobalMemory, RuntimeMemory
from repro.simt.timing import TimingModel
from repro.simt.trace import KernelRunStats

ArgValue = Union[int, np.integer]

_INFINITY = float("inf")

#: Defensive bound on the scheduling events of one launch: a runaway kernel
#: raises :class:`SimulationError` after this many.
MAX_EVENTS = 200_000_000


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    kernel_name: str
    stats: KernelRunStats

    @property
    def cycles(self) -> float:
        """Total cycle count of the launch (the paper's Table III metric)."""
        return self.stats.cycles

    @property
    def kcycles(self) -> float:
        """Cycle count in thousands of cycles."""
        return self.stats.kcycles


class GGPUSimulator:
    """Functional + cycle-approximate simulator of one G-GPU instance.

    One simulator runs any number of launches.  Each launch starts from a
    cold cache and memory controller, and every buffer starts on a cache
    line, so a launch on a reused simulator gives the same results and
    statistics as the same launch on a fresh one.  Reuse saves only host
    work: construction and the program pre-decode.
    """

    def __init__(
        self,
        config: Optional[GGPUConfig] = None,
        memory_bytes: int = 64 * 1024 * 1024,
        timing: Optional[TimingModel] = None,
    ) -> None:
        self.config = config or GGPUConfig()
        self.timing = timing or TimingModel()
        self.memory = GlobalMemory(memory_bytes)
        # Buffers start on a cache-line boundary, so where a buffer sits in
        # its lines never depends on what was allocated before it.
        self._align_bytes = max(64, self.config.cache.line_bytes)
        self.cache = DataCache(self.config.cache)
        self.memory_controller = GlobalMemoryController(self.config.axi, self.config.cache)
        self.rtm = RuntimeMemory(self.config.rtm_words)
        # Pre-decoded programs, keyed by the identity of the kernel's program
        # object (a strong reference to the program is kept alongside so a
        # recycled id can never alias a different program).  Re-launching the
        # same kernel -- the common case for command queues and sweeps --
        # skips the decode entirely.
        self._decode_cache: Dict[int, tuple] = {}
        self.decode_cache_hits = 0
        self.decode_cache_misses = 0
        self.compute_units = [
            ComputeUnit(
                cu_id=index,
                config=self.config,
                cache=self.cache,
                memory_controller=self.memory_controller,
                global_memory=self.memory,
                timing=self.timing,
            )
            for index in range(self.config.num_cus)
        ]

    # ------------------------------------------------------------------ #
    # Host API (OpenCL flavoured)
    # ------------------------------------------------------------------ #
    def allocate_buffer(self, num_words: int) -> int:
        """Allocate a global-memory buffer; returns its base byte address."""
        return self.memory.allocate(num_words, align_bytes=self._align_bytes)

    def write_buffer(self, base_addr: int, values: Sequence[int]) -> None:
        """Copy host data into a buffer."""
        self.memory.write_buffer(base_addr, values)

    def read_buffer(self, base_addr: int, num_words: int) -> np.ndarray:
        """Read a buffer back to the host."""
        return self.memory.read_buffer(base_addr, num_words)

    def create_buffer(self, values: Sequence[int]) -> int:
        """Allocate a buffer sized for ``values`` and initialize it."""
        if not isinstance(values, np.ndarray):
            # Materialize generators and ranges once; ndarrays skip the list.
            values = np.asarray(list(values), dtype=np.int64)
        base = self.allocate_buffer(values.size)
        self.write_buffer(base, values)
        return base

    def reset(self) -> None:
        """Return the simulator to its post-construction state.

        Global memory is zeroed and its allocator rewound, so later
        allocations see the exact addresses a fresh simulator would hand out;
        the pre-decoded program cache survives (decoding is launch-invariant).
        Cache and memory-controller state need no treatment here — every
        ``launch`` already resets both.  The multi-device runtime uses this to
        reuse one device pool across sweep cells with bit-identical outcomes.
        """
        self.memory.reset()

    # ------------------------------------------------------------------ #
    # Kernel launch
    # ------------------------------------------------------------------ #
    def launch(
        self,
        kernel: Kernel,
        ndrange: NDRange,
        args: Dict[str, ArgValue],
        verify: bool = False,
    ) -> LaunchResult:
        """Run ``kernel`` over ``ndrange`` with the given argument values.

        With ``verify=True`` the ISA-level static lint
        (:func:`repro.analysis.isalint.lint_kernel`) runs first and any
        error-severity finding rejects the launch with :class:`KernelError`.
        """
        if verify:
            from repro.analysis.isalint import verify_kernel_or_raise

            verify_kernel_or_raise(kernel)
        ordered_args = self._order_args(kernel, args)
        if len(kernel.program) > self.config.cram_words:
            raise KernelError(
                f"kernel {kernel.name!r} has {len(kernel.program)} instructions but the "
                f"CRAM holds only {self.config.cram_words}"
            )
        if kernel.local_words:
            _, slot_words = lram_slot_geometry(self.config, ndrange.workgroup_size)
            if kernel.local_words > slot_words:
                raise KernelError(
                    f"kernel {kernel.name!r} declares {kernel.local_words} local words but "
                    f"a workgroup of {ndrange.workgroup_size} work-items only gets a "
                    f"{slot_words}-word LRAM window"
                )
        self.rtm.write_descriptor(ndrange.global_size, ndrange.workgroup_size, ordered_args)
        self.cache.reset()
        self.memory_controller.reset()
        decoded = self._decoded_program(kernel)
        for cu in self.compute_units:
            cu.bind(kernel.program, self.rtm, decoded=decoded, local_words=kernel.local_words)

        dispatcher = WorkgroupDispatcher(self.config, ndrange)
        for cu, wavefronts in zip(self.compute_units, dispatcher.initial_assignment(len(self.compute_units)), strict=True):
            if wavefronts:
                cu.admit(wavefronts)

        last_completion = self._run(dispatcher)

        # End-of-kernel flush: drain the dirty lines through the memory
        # controller so the write-back traffic is accounted.  The drain is
        # posted (it happens behind the completed kernel), so it occupies AXI
        # port time but does not extend the cycle count.
        flushed = self.cache.flush()
        if flushed:
            self.memory_controller.write_back_burst(last_completion, flushed)

        stats = KernelRunStats(
            kernel_name=kernel.name,
            num_cus=self.config.num_cus,
            global_size=ndrange.global_size,
            workgroup_size=ndrange.workgroup_size,
            wavefront_size=self.config.wavefront_size,
            cycles=last_completion,
            workgroups_dispatched=dispatcher.dispatched_workgroups,
            cu_stats=[cu.stats for cu in self.compute_units],
            cache=self.cache.stats,
            traffic=self.memory_controller.stats,
        )
        return LaunchResult(kernel.name, stats)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _decoded_program(self, kernel: Kernel) -> DecodedProgram:
        """Pre-decode ``kernel`` once per simulator; later launches reuse it."""
        key = id(kernel.program)
        entry = self._decode_cache.get(key)
        if entry is not None and entry[0] is kernel.program:
            self.decode_cache_hits += 1
            return entry[1]
        decoded = predecode_program(kernel.program, self.timing)
        self._decode_cache[key] = (kernel.program, decoded)
        self.decode_cache_misses += 1
        return decoded

    def _order_args(self, kernel: Kernel, args: Dict[str, ArgValue]) -> List[int]:
        missing = [arg.name for arg in kernel.args if arg.name not in args]
        if missing:
            raise KernelError(f"kernel {kernel.name!r} is missing arguments: {missing}")
        unknown = [name for name in args if all(arg.name != name for arg in kernel.args)]
        if unknown:
            raise KernelError(f"kernel {kernel.name!r} got unexpected arguments: {unknown}")
        return [int(args[arg.name]) for arg in kernel.args]

    def _run(self, dispatcher: WorkgroupDispatcher) -> float:
        """Drive all CUs to completion, ordering only their shared events.

        The heap holds a ``(next_event_time, cu_index)`` entry per CU that
        has a ready resident and is not running.  A CU whose residents are
        all parked at a barrier drops out of the heap; if the heap drains
        while such a CU is still busy the launch has deadlocked.  A CU's
        last retirement always takes the next pending workgroup (an empty
        CU has every LRAM window free, and the dispatcher accepts only
        workgroups that fit one CU), so a drained heap with no busy CU means
        every workgroup has run.
        """
        compute_units = self.compute_units
        budget = MAX_EVENTS
        last_completion = 0.0
        heap: List[tuple] = [
            (cu.next_event_time(), index)
            for index, cu in enumerate(compute_units)
            if cu.busy
        ]
        heapq.heapify(heap)
        while True:
            if not heap:
                parked = [
                    f"CU {index} holds workgroup(s) {cu.parked_workgroups} at a barrier"
                    for index, cu in enumerate(compute_units)
                    if cu.busy
                ]
                if parked:
                    raise SimulationError(
                        "deadlock: all resident wavefronts are blocked; " + "; ".join(parked)
                    )
                break
            event_time, index = heapq.heappop(heap)
            if not budget:
                raise SimulationError("simulation exceeded the maximum step count")
            if heap:
                # Shared events at the heap top's time go to the lower index:
                # a higher index must stay strictly below that time, and for
                # floats ``t < top`` is ``t <= nextafter(top, -inf)``.
                top_time, top_index = heap[0]
                limit = top_time if index < top_index else math.nextafter(top_time, -_INFINITY)
            else:
                limit = _INFINITY
            cu = compute_units[index]
            before = cu.stats.issue_events
            retired = cu.step(event_time, limit, budget)
            issued = cu.stats.issue_events - before
            if not issued:
                raise SimulationError(f"CU {index} issued no event at cycle {event_time}")
            budget -= issued
            for wavefront in retired:
                if wavefront.completion_time > last_completion:
                    last_completion = wavefront.completion_time
                if not cu.has_free_lram_window():
                    continue  # local-memory occupancy limit: no window free yet
                refill = dispatcher.refill(cu.resident_wavefronts, wavefront.completion_time)
                if refill is not None:
                    cu.admit(refill)
            event_time = cu.next_event_time()
            if event_time != _INFINITY:
                heapq.heappush(heap, (event_time, index))
        return last_completion
