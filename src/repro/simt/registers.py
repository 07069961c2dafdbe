"""Per-wavefront register file.

Each work-item owns ``num_registers`` 32-bit general-purpose registers.  In
the hardware this is the banked SRAM register file inside each CU (one of the
macros GPUPlanner splits to raise the clock frequency).

Here a wavefront's register file is a list with one entry per register, and
each entry has one of two forms:

* a Python ``int`` when all ``wavefront_size`` lanes, active or not, hold that
  value -- loop counters, kernel parameters, workgroup ids and the pointers
  derived from them stay in this form (dynamic uniform-vector detection,
  Collange, Defour and Zhang, Euro-Par 2009 workshops);
* otherwise an int64 lane vector of unsigned 32-bit values.

Entries are rebound, never changed in place, so a lane vector may be shared
between registers (and with the wavefront's work-item id vectors) and a write
never copies a row.  Masked writes keep inactive lanes' values across
divergent control flow (:func:`merge_lanes`).  The form is a host-side
storage choice only: every lane of an ``int`` entry reads as that value.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from repro.errors import SimulationError

WORD_MASK = 0xFFFFFFFF

#: One register of a wavefront: an int shared by every lane, or a lane vector.
RegisterValue = Union[int, np.ndarray]


def lane_vector(value: RegisterValue, lanes: int) -> np.ndarray:
    """The lane vector of a register value (an int is broadcast)."""
    if type(value) is int:
        return np.full(lanes, value, dtype=np.int64)
    return value


def merge_lanes(mask: np.ndarray, values: RegisterValue, old: RegisterValue) -> RegisterValue:
    """``values`` on the lanes selected by ``mask``, ``old`` on the others.

    The result stays an int only when both are ints and equal; otherwise the
    lanes are merged into a vector.
    """
    if type(values) is int and type(old) is int and values == old:
        return old
    return np.where(mask, values, old)


class WavefrontRegisterFile:
    """Registers of all lanes of one wavefront.

    Register 0 is hard-wired to zero: writes to it are ignored, reads always
    return zero, matching the ISA definition.
    """

    def __init__(self, num_registers: int, wavefront_size: int) -> None:
        if num_registers < 1 or wavefront_size < 1:
            raise SimulationError("register file dimensions must be positive")
        self.num_registers = num_registers
        self.wavefront_size = wavefront_size
        self._values: List[RegisterValue] = [0] * num_registers

    def read(self, index: int) -> np.ndarray:
        """Read a register for all lanes (unsigned 32-bit values in int64)."""
        self._check(index)
        return lane_vector(self._values[index], self.wavefront_size).copy()

    def write(self, index: int, values: np.ndarray, mask: np.ndarray) -> None:
        """Write a register for the lanes selected by ``mask``."""
        self._check(index)
        if index == 0:
            return
        values = np.asarray(values, dtype=np.int64) & WORD_MASK
        if values.ndim == 0:
            values = int(values)
        self._values[index] = merge_lanes(mask, values, self._values[index])

    def write_all_lanes(self, index: int, values: np.ndarray) -> None:
        """Write a register unconditionally (used to seed work-item ids)."""
        self._check(index)
        if index == 0:
            return
        self._values[index] = np.asarray(values, dtype=np.int64) & WORD_MASK

    def set_row(self, index: int, values: RegisterValue) -> None:
        """Unconditional write of an already-masked int or lane vector.

        The fast-path twin of :meth:`write_all_lanes`: every value produced
        inside the issue loop (PE lane arithmetic, memory loads, constants,
        work-item ids) is already wrapped to 32 bits, so the per-write
        ``& WORD_MASK`` pass would re-mask masked data a quarter million
        times per kernel.  Callers owning unmasked data must use
        :meth:`write_all_lanes`.
        """
        self._check(index)
        if index == 0:
            return
        self._values[index] = values

    def merge_row(self, index: int, values: RegisterValue, mask: np.ndarray) -> None:
        """Masked write of an already-masked int or lane vector (see set_row)."""
        self._check(index)
        if index == 0:
            return
        self._values[index] = merge_lanes(mask, values, self._values[index])

    def snapshot(self) -> np.ndarray:
        """Copy of the whole register state, one lane row per register."""
        lanes = self.wavefront_size
        return np.array([lane_vector(value, lanes) for value in self._values])

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_registers:
            raise SimulationError(f"register index out of range: {index}")
