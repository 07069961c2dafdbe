"""Per-wavefront register file.

Each work-item owns ``num_registers`` 32-bit general-purpose registers.  In
the hardware this is the banked SRAM register file inside each CU (one of the
macros GPUPlanner splits to raise the clock frequency).

Here a wavefront's register file is a plain list with one entry per register
(``Wavefront.registers``; register 0 is hard-wired to zero, and the compute
unit drops every write to it), and each entry has one of three forms
(dynamic uniform and affine vector detection, Collange, Defour and Zhang,
Euro-Par 2009 workshops):

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
expands it first (:func:`lane_vector`, :meth:`Affine.vector`,
:func:`snapshot`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

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


def snapshot(values: List[RegisterValue], lanes: int) -> np.ndarray:
    """Copy of a wavefront's registers, one lane row per register (every int
    and ramp expanded)."""
    return np.array([lane_vector(value, lanes) for value in values])
