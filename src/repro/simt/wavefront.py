"""Wavefront state: program counter, execution mask, and divergence stack.

A wavefront groups ``wavefront_size`` work-items that execute in lockstep.
Full thread divergence is supported through an execution-mask stack driven by
the ``PUSHM``/``CMASK``/``INVM``/``POPM`` instructions: lanes whose condition
fails are masked off but keep their architectural state, and the wavefront
keeps issuing (and paying for) full PE-array slots, which is exactly why
divergent kernels lose efficiency on the real hardware.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.arch.kernel import NDRange
from repro.errors import SimulationError
from repro.simt.registers import Affine, RegisterValue, expand_ramp


class Wavefront:
    """Execution state of one wavefront of a workgroup.

    The work-item ids come from the launch's ``NDRange`` in OpenCL's
    row-major enumeration, dimension 0 fastest: the flat local id walks
    dimension 0 first within the workgroup, and the flat workgroup id walks
    the workgroup grid the same way.  A rank-1 launch is the one-dimension
    case.  Every lane is active at the start, because a valid launch has
    no lanes past its end: its global size is a multiple of its workgroup
    size, which the dispatcher requires to be a multiple of the wavefront
    size.
    """

    def __init__(
        self,
        wavefront_id: int,
        workgroup_id: int,
        index_in_workgroup: int,
        wavefront_size: int,
        num_registers: int,
        ndrange: NDRange,
    ) -> None:
        self.wavefront_id = wavefront_id
        self.workgroup_id = workgroup_id
        self.index_in_workgroup = index_in_workgroup
        self.wavefront_size = wavefront_size
        self.ndrange = ndrange

        self.pc = 0
        self.done = False
        # One entry per register (see repro.simt.registers); r0 stays 0.
        self.registers: List[RegisterValue] = [0] * num_registers
        self.active_mask = np.ones(wavefront_size, dtype=bool)
        self._mask_stack: List[np.ndarray] = []
        # The active-lane count is consulted on every issued instruction, so
        # it is a plain attribute that the mask-stack operations keep current
        # instead of a reduction over the lanes per issue.
        self.num_active = wavefront_size

        first_lid = index_in_workgroup * wavefront_size
        flat_lids = np.arange(first_lid, first_lid + wavefront_size, dtype=np.int64)
        flat_wgid = workgroup_id
        local_ids: List[RegisterValue] = []
        global_ids: List[RegisterValue] = []
        workgroup_ids: List[int] = []
        for size, groups in zip(ndrange.workgroup_shape, ndrange.groups_shape, strict=True):
            flat_lids, lid = np.divmod(flat_lids, size)
            flat_wgid, wgid = divmod(flat_wgid, groups)
            local_ids.append(lid)
            global_ids.append(wgid * size + lid)
            workgroup_ids.append(wgid)
        # Dimension 0 counts up by one across the wavefront exactly when the
        # wavefront stays inside one workgroup row (crossing a row wraps lid0
        # back, so its last lane no longer ends the ramp): always at rank 1.
        lid0, gid0 = local_ids[0], global_ids[0]
        if lid0[-1] - lid0[0] == wavefront_size - 1:
            local_ids[0] = Affine(int(lid0[0]), 1, wavefront_size, lid0)
            global_ids[0] = Affine(int(gid0[0]), 1, wavefront_size, gid0)
        self.local_id_dims = tuple(local_ids)
        self.global_id_dims = tuple(global_ids)
        self.workgroup_id_dims = tuple(workgroup_ids)

        # Scheduling state (owned by the compute unit's scheduler).
        self.ready_time = 0.0

        # Set when the wavefront retires.
        self.completion_time = 0.0

    # ------------------------------------------------------------------ #
    # Launch geometry
    # ------------------------------------------------------------------ #
    def check_dim(self, dim: int, mnemonic: str) -> None:
        """Reject a work-item-identification query outside the launch rank."""
        if not 0 <= dim < self.ndrange.rank:
            raise SimulationError(
                f"{mnemonic} queries dimension {dim} of a rank-{self.ndrange.rank} "
                f"launch (global shape {self.ndrange.global_shape})"
            )

    # ------------------------------------------------------------------ #
    # Mask stack
    # ------------------------------------------------------------------ #
    @property
    def mask_depth(self) -> int:
        """Current depth of the divergence stack."""
        return len(self._mask_stack)

    def push_mask(self) -> None:
        """Save the current execution mask (PUSHM)."""
        self._mask_stack.append(self.active_mask.copy())

    def constrain_mask(self, condition: RegisterValue) -> None:
        """AND the execution mask with a per-lane condition (CMASK).

        A wavefront-uniform condition (an int) keeps the mask or clears it.
        """
        if type(condition) is int:
            if not condition:
                self.active_mask = np.zeros_like(self.active_mask)
                self.num_active = 0
            return
        condition = np.asarray(expand_ramp(condition))
        if condition.shape != self.active_mask.shape:
            raise SimulationError("condition vector has the wrong number of lanes")
        self.active_mask &= condition != 0
        self.num_active = int(np.count_nonzero(self.active_mask))

    def invert_mask(self) -> None:
        """Switch to the complementary lanes of the enclosing region (INVM)."""
        if not self._mask_stack:
            raise SimulationError("INVM executed with an empty mask stack")
        self.active_mask = self._mask_stack[-1] & ~self.active_mask
        self.num_active = int(np.count_nonzero(self.active_mask))

    def pop_mask(self) -> None:
        """Restore the saved execution mask (POPM)."""
        if not self._mask_stack:
            raise SimulationError("POPM executed with an empty mask stack")
        self.active_mask = self._mask_stack.pop()
        self.num_active = int(np.count_nonzero(self.active_mask))

    # ------------------------------------------------------------------ #
    # Uniform values
    # ------------------------------------------------------------------ #
    def uniform_lane_value(self, values: RegisterValue) -> int:
        """Value of the first active lane, checking wavefront uniformity.

        Uniform branches (BEQ/BNE/BLT/BGE) require their operands to be equal
        across active lanes; the simulator verifies this and raises, which
        catches kernels that should have used the mask instructions instead.
        An int register value is uniform by construction and needs no lane
        reduction.
        """
        if not self.num_active:
            raise SimulationError("no active lane to read a uniform value from")
        if type(values) is int:
            return values
        active_values = np.asarray(expand_ramp(values))
        if self.num_active != active_values.size:
            active_values = active_values[self.active_mask]
        if (active_values != active_values[0]).any():
            raise SimulationError(
                f"wavefront {self.wavefront_id}: non-uniform value used in uniform control flow"
            )
        return int(active_values[0])

    def retire(self, time: float) -> None:
        """Mark the wavefront finished at the given time."""
        self.done = True
        self.completion_time = time
