"""Per-wavefront register file.

Each work-item owns ``num_registers`` 32-bit general-purpose registers.  In
the hardware this is the banked SRAM register file inside each CU (one of the
macros GPUPlanner splits to raise the clock frequency).

Here a wavefront's register file is a list with one entry per register, and
each entry has one of three forms (dynamic uniform and affine vector
detection, Collange, Defour and Zhang, Euro-Par 2009 workshops):

* a Python ``int`` when all ``wavefront_size`` lanes, active or not, hold that
  value -- loop counters, kernel parameters, workgroup ids and the pointers
  derived from them stay in this form;
* an :class:`Affine` ramp when lane ``i`` holds ``(base + stride * i) mod
  2**32`` with a non-zero stride -- work-item ids of dimension 0 and the
  addresses computed from them (``base + (gid << 2)``) stay in this form,
  so address arithmetic is a few Python operations and the memory path
  can coalesce, load and store by arithmetic and slices;
* otherwise an int64 lane vector of unsigned 32-bit values.

Entries are rebound, never changed in place, so a lane vector may be shared
between registers (and with the wavefront's work-item id vectors, and with
the cached expansion of a ramp) and a write never copies a row.  Masked
writes keep inactive lanes' values across divergent control flow
(:func:`merge_lanes`), and merge into a lane vector.  The form is a
host-side storage choice only: every lane of an ``int`` or ``Affine`` entry
reads as the value its form defines, and every reader that needs lanes
expands it first (:func:`lane_vector`, :meth:`Affine.vector`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import SimulationError

WORD_MASK = 0xFFFFFFFF
_SIGN_BIT = 0x80000000


class Affine:
    """A lane ramp: lane ``i`` holds ``(base + stride * i) mod 2**32``.

    ``base`` is an unsigned 32-bit int and ``stride`` a non-zero signed
    32-bit int (:func:`ramp` folds a stride of 0 into an ``int``), over
    ``lanes`` lanes.  :meth:`vector` builds the lane vector on first use and
    caches it; ``vector`` may also hand in one already built.
    """

    __slots__ = ("base", "stride", "lanes", "_vector")

    def __init__(
        self, base: int, stride: int, lanes: int, vector: Optional[np.ndarray] = None
    ) -> None:
        self.base = base
        self.stride = stride
        self.lanes = lanes
        self._vector = vector

    @property
    def last(self) -> int:
        """The last lane's value before the 32-bit wrap (``base + stride * (lanes - 1)``).

        Every lane's value is in ``[0, 2**32)`` without wrapping exactly when
        this one is, because the lanes are monotonic.
        """
        return self.base + self.stride * (self.lanes - 1)

    def span(self) -> Optional[Tuple[int, int]]:
        """The lowest and the highest lane value, or ``None`` when the ramp
        wraps past 2**32 (in between, its lanes are monotonic)."""
        last = self.last
        if not 0 <= last <= WORD_MASK:
            return None
        return (self.base, last) if self.stride > 0 else (last, self.base)

    def vector(self) -> np.ndarray:
        """The int64 lane vector of unsigned 32-bit values (cached)."""
        if self._vector is None:
            base, stride = self.base, self.stride
            vector = np.arange(base, base + stride * self.lanes, stride, dtype=np.int64)
            if not 0 <= self.last <= WORD_MASK:
                vector &= WORD_MASK
            self._vector = vector
        return self._vector

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Affine(base={self.base:#x}, stride={self.stride}, lanes={self.lanes})"


#: One register of a wavefront: an int shared by every lane, a lane ramp, or
#: a lane vector.
RegisterValue = Union[int, Affine, np.ndarray]


def ramp(base: int, stride: int, lanes: int) -> Union[int, Affine]:
    """The register value whose lane ``i`` is ``(base + stride * i) mod 2**32``.

    ``base`` and ``stride`` may be any ints; a stride that is 0 modulo
    2**32 gives the ``int`` every lane holds.
    """
    stride = ((stride + _SIGN_BIT) & WORD_MASK) - _SIGN_BIT
    if stride == 0:
        return base & WORD_MASK
    return Affine(base & WORD_MASK, stride, lanes)


def expand_ramp(value: RegisterValue) -> Union[int, np.ndarray]:
    """The lane vector of an :class:`Affine`; an int or a vector unchanged."""
    if type(value) is Affine:
        return value.vector()
    return value


def lane_vector(value: RegisterValue, lanes: int) -> np.ndarray:
    """The lane vector of a register value (an int is broadcast)."""
    if type(value) is int:
        return np.full(lanes, value, dtype=np.int64)
    return expand_ramp(value)


def merge_lanes(mask: np.ndarray, values: RegisterValue, old: RegisterValue) -> RegisterValue:
    """``values`` on the lanes selected by ``mask``, ``old`` on the others.

    The result stays an int only when both are ints and equal; otherwise the
    lanes are merged into a vector (a ramp is expanded first).
    """
    if type(values) is int and type(old) is int and values == old:
        return old
    return np.where(mask, expand_ramp(values), expand_ramp(old))


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
        """Unconditional write of an already-masked int, ramp or lane vector.

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
        """Masked write of an already-masked register value (see set_row)."""
        self._check(index)
        if index == 0:
            return
        self._values[index] = merge_lanes(mask, values, self._values[index])

    def snapshot(self) -> np.ndarray:
        """Copy of the whole register state, one lane row per register (every
        int and ramp expanded)."""
        lanes = self.wavefront_size
        return np.array([lane_vector(value, lanes) for value in self._values])

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_registers:
            raise SimulationError(f"register index out of range: {index}")
