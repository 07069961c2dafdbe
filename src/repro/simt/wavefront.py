"""Wavefront state: program counter, execution mask, and divergence stack.

A wavefront groups ``wavefront_size`` work-items that execute in lockstep.
Full thread divergence is supported through an execution-mask stack driven by
the ``PUSHM``/``CMASK``/``INVM``/``POPM`` instructions: lanes whose condition
fails are masked off but keep their architectural state, and the wavefront
keeps issuing (and paying for) full PE-array slots, which is exactly why
divergent kernels lose efficiency on the real hardware.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.simt.registers import Affine, RegisterValue, expand_ramp


class Wavefront:
    """Execution state of one wavefront of a workgroup."""

    def __init__(
        self,
        wavefront_id: int,
        workgroup_id: int,
        index_in_workgroup: int,
        wavefront_size: int,
        num_registers: int,
        workgroup_size: int,
        global_size: int,
        num_workgroups: int,
        global_shape: Optional[Tuple[int, ...]] = None,
        workgroup_shape: Optional[Tuple[int, ...]] = None,
        groups_shape: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.wavefront_id = wavefront_id
        self.workgroup_id = workgroup_id
        self.index_in_workgroup = index_in_workgroup
        self.wavefront_size = wavefront_size
        self.workgroup_size = workgroup_size
        self.global_size = global_size
        self.num_workgroups = num_workgroups

        self.pc = 0
        self.done = False
        # One entry per register (see repro.simt.registers); r0 stays 0.
        self.registers: List[RegisterValue] = [0] * num_registers
        self.active_mask = np.ones(wavefront_size, dtype=bool)
        self._mask_stack: List[np.ndarray] = []

        first_lid = index_in_workgroup * wavefront_size
        self.local_ids = np.arange(first_lid, first_lid + wavefront_size, dtype=np.int64)
        if global_shape is not None and len(global_shape) == 2:
            # Rank-2 launch: OpenCL row-major enumeration, dimension 0 fastest.
            # The flat local id walks dimension 0 first within the workgroup,
            # and the flat workgroup id walks the workgroup grid the same way.
            gs0, _gs1 = global_shape
            ws0, ws1 = workgroup_shape
            nwg0 = groups_shape[0]
            wg0 = workgroup_id % nwg0
            wg1 = workgroup_id // nwg0
            lid0 = self.local_ids % ws0
            lid1 = self.local_ids // ws0
            gid0 = wg0 * ws0 + lid0
            gid1 = wg1 * ws1 + lid1
            # Row-major flattened global index over the full grid.  Note this
            # differs from ``wgid * workgroup_size + lid``: a 2-D workgroup's
            # cells are not contiguous in the flattened grid.
            self.global_ids = gid1 * gs0 + gid0
            # Dimension 0 counts up by one across the wavefront exactly when
            # the wavefront stays inside one workgroup row (crossing a row
            # wraps lid0 back, so its last lane no longer ends the ramp).
            if lid0[-1] - lid0[0] == wavefront_size - 1:
                lid0 = Affine(int(lid0[0]), 1, wavefront_size, lid0)
                gid0 = Affine(int(gid0[0]), 1, wavefront_size, gid0)
            self.local_id_dims = (lid0, lid1)
            self.global_id_dims = (gid0, gid1)
            self.workgroup_id_dims = (wg0, wg1)
            self.global_shape = tuple(global_shape)
            self.workgroup_shape = tuple(workgroup_shape)
            self.groups_shape = tuple(groups_shape)
        else:
            self.global_ids = self.local_ids + workgroup_id * workgroup_size
            self.local_id_dims = (Affine(first_lid, 1, wavefront_size, self.local_ids),)
            self.global_id_dims = (
                Affine(int(self.global_ids[0]), 1, wavefront_size, self.global_ids),
            )
            self.workgroup_id_dims = (workgroup_id,)
            self.global_shape = (global_size,)
            self.workgroup_shape = (workgroup_size,)
            self.groups_shape = (num_workgroups,)
        # Lanes beyond the global size (possible only if the NDRange is not a
        # multiple of the wavefront size) start permanently inactive.
        self.active_mask &= self.global_ids < global_size
        # The active-lane count is consulted on every issued instruction, so
        # it is a plain attribute that the mask-stack operations keep current
        # instead of a reduction over the lanes per issue.
        self.num_active = int(np.count_nonzero(self.active_mask))

        # Scheduling state (owned by the compute unit's scheduler).
        self.ready_time = 0.0

        # Set when the wavefront retires.
        self.completion_time = 0.0

    # ------------------------------------------------------------------ #
    # Launch geometry
    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        """Rank of the launch geometry this wavefront belongs to."""
        return len(self.global_shape)

    def check_dim(self, dim: int, mnemonic: str) -> None:
        """Reject a work-item-identification query outside the launch rank."""
        if not 0 <= dim < len(self.global_shape):
            raise SimulationError(
                f"{mnemonic} queries dimension {dim} of a rank-{len(self.global_shape)} "
                f"launch (global shape {self.global_shape})"
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
