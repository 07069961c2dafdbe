"""Workgroup dispatcher.

The WG dispatcher of the FGPU assigns workgroups to compute units as they
free up capacity.  Workgroups share a program counter space and are split into
wavefronts on arrival at a CU; each wavefront takes the launch's ``NDRange``
and computes its work-item ids from it.  A CU can host up to
``max_wavefronts_per_cu`` wavefronts (512 work-items in the default
configuration), and as many whole workgroups as it has LRAM windows
(``lram_slot_geometry``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.arch.config import GGPUConfig
from repro.arch.kernel import NDRange
from repro.errors import SimulationError
from repro.simt.cu import lram_slot_geometry
from repro.simt.wavefront import Wavefront


class WorkgroupDispatcher:
    """Hands out workgroups to CUs and materializes their wavefronts."""

    def __init__(self, config: GGPUConfig, ndrange: NDRange) -> None:
        if ndrange.workgroup_size > config.work_items_per_cu:
            raise SimulationError(
                f"workgroup of {ndrange.workgroup_size} work-items does not fit the "
                f"{config.work_items_per_cu} work-items a CU can host"
            )
        if ndrange.workgroup_size % config.wavefront_size != 0:
            raise SimulationError(
                f"workgroup size {ndrange.workgroup_size} must be a multiple of the "
                f"wavefront size {config.wavefront_size}"
            )
        self.config = config
        self.ndrange = ndrange
        self._pending: Deque[int] = deque(range(ndrange.num_workgroups))
        self._next_wavefront_id = 0
        self.dispatched_workgroups = 0

    @property
    def wavefronts_per_workgroup(self) -> int:
        """Number of wavefronts one workgroup expands into."""
        return self.ndrange.workgroup_size // self.config.wavefront_size

    @property
    def pending_workgroups(self) -> int:
        """Workgroups not yet assigned to a CU."""
        return len(self._pending)

    def has_pending(self) -> bool:
        """Whether any workgroup is still waiting for a CU."""
        return bool(self._pending)

    def cu_capacity_workgroups(self) -> int:
        """How many whole workgroups fit in one CU at the same time.

        That is the number of LRAM windows, one per resident workgroup.
        """
        return lram_slot_geometry(self.config, self.ndrange.workgroup_size)[0]

    def dispatch(self, ready_time: float = 0.0) -> List[Wavefront]:
        """Pop the next workgroup and return its wavefronts, ready at ``ready_time``."""
        if not self._pending:
            raise SimulationError("no pending workgroup to dispatch")
        workgroup_id = self._pending.popleft()
        self.dispatched_workgroups += 1
        wavefronts = []
        for index in range(self.wavefronts_per_workgroup):
            wavefront = Wavefront(
                wavefront_id=self._next_wavefront_id,
                workgroup_id=workgroup_id,
                index_in_workgroup=index,
                wavefront_size=self.config.wavefront_size,
                num_registers=self.config.num_registers,
                ndrange=self.ndrange,
            )
            wavefront.ready_time = ready_time
            self._next_wavefront_id += 1
            wavefronts.append(wavefront)
        return wavefronts

    def initial_assignment(self, num_cus: int) -> List[List[Wavefront]]:
        """Fill every CU up to capacity with initial workgroups (round robin)."""
        assignment: List[List[Wavefront]] = [[] for _ in range(num_cus)]
        capacity = self.cu_capacity_workgroups()
        for _ in range(capacity):
            for cu_index in range(num_cus):
                if not self.has_pending():
                    return assignment
                assignment[cu_index].extend(self.dispatch())
        return assignment

    def refill(self, cu_resident_wavefronts: int, now: float) -> Optional[List[Wavefront]]:
        """Give a CU another workgroup if it has room, else ``None``."""
        if not self.has_pending():
            return None
        if cu_resident_wavefronts + self.wavefronts_per_workgroup > self.config.max_wavefronts_per_cu:
            return None
        return self.dispatch(ready_time=now)
