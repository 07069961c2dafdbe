"""Memory models of the G-GPU: global memory, runtime memory, and LRAM.

The FGPU memory hierarchy consists of a byte-addressable global memory reached
through the data cache and AXI data interfaces, a Runtime Memory (RTM) holding
kernel descriptors and arguments written by the host over the AXI control
interface, and per-CU local scratchpads (LRAM).  All of them store 32-bit
words; the simulator keeps data in numpy arrays for speed.

A wavefront access names one address per lane: a lane vector, or for global
memory an :class:`~repro.simt.registers.Affine` ramp, which an aligned,
in-range access that does not wrap past 2**32 serves as one strided slice.
LRAM takes a ``range`` of word indices the same way.  Whatever a ramp cannot
prove goes through the lane vector, so errors name the same first bad
address.
"""

from __future__ import annotations

import mmap
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.simt.registers import Affine, expand_ramp

WORD_BYTES = 4

#: Byte addresses of a global access (a lane ramp or vector), and word
#: indices of an LRAM access (a lane-ordered range or a vector).
Addresses = Union[Affine, np.ndarray]
WordIndices = Union[range, np.ndarray]


def _slice(words: range) -> slice:
    """The slice of a lane-ordered range of word indices.

    A descending range that ends at word 0 stops at -1, which a slice would
    read as the last word; ``None`` runs to the start instead.
    """
    stop = words.stop
    return slice(words.start, stop if stop >= 0 else None, words.step)


class GlobalMemory:
    """Word-addressable global memory backing store.

    Addresses handed to the load/store units are byte addresses (as produced
    by pointer arithmetic in kernels); they must be word aligned.
    """

    def __init__(self, size_bytes: int = 64 * 1024 * 1024) -> None:
        if size_bytes <= 0 or size_bytes % WORD_BYTES != 0:
            raise SimulationError(f"memory size must be a positive multiple of 4, got {size_bytes}")
        self.size_bytes = size_bytes
        # An anonymous mapping instead of np.zeros: the OS supplies it
        # zero-filled and unmaps it as soon as the array dies.  Through
        # malloc, freeing one large device array raises glibc's mmap
        # threshold, later devices come from the heap through a zero-filling
        # calloc, and their pages stay resident after they are freed.
        words = size_bytes // WORD_BYTES
        self._words = np.frombuffer(mmap.mmap(-1, words * 8), dtype=np.int64)  # int64 words
        # A ramp whose first and last lanes are below this bound is in range
        # and does not wrap past 2**32.
        self._ramp_limit = min(size_bytes, 1 << 32)
        self._next_alloc = WORD_BYTES  # keep address 0 unused to catch null pointers
        # One past the highest word index ever written: every word at or
        # above it is still zero, so ``reset`` clears only the prefix below.
        self._dirty_words = 0

    # ------------------------------------------------------------------ #
    # Host-side buffer management (the OpenCL-like API uses this)
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Return the memory to its post-construction state.

        Zeroes the written prefix of the backing store and rewinds the bump
        allocator, so a reused memory hands out the same addresses — and the
        same initial contents — as a freshly built one.  The multi-device
        runtime relies on this to recycle simulator instances between sweep
        cells.
        """
        self._words[: self._dirty_words] = 0
        self._dirty_words = 0
        self._next_alloc = WORD_BYTES

    def allocate(self, num_words: int, align_bytes: int = 64) -> int:
        """Reserve ``num_words`` 32-bit words and return the base byte address."""
        if num_words <= 0:
            raise SimulationError(f"allocation must be positive, got {num_words} words")
        base = self._next_alloc
        if base % align_bytes:
            base += align_bytes - (base % align_bytes)
        end = base + num_words * WORD_BYTES
        if end > self.size_bytes:
            raise SimulationError(
                f"out of global memory: requested {num_words} words at {base:#x}"
            )
        self._next_alloc = end
        return base

    def write_buffer(self, base_addr: int, values: Sequence[int]) -> None:
        """Copy host data into global memory starting at ``base_addr``."""
        data = np.asarray(values, dtype=np.int64) & 0xFFFFFFFF
        index = self._word_index(base_addr)
        end = index + data.size
        if end > self._words.size:
            raise SimulationError(f"write of {data.size} words at {base_addr:#x} overflows memory")
        self._words[index:end] = data
        if end > self._dirty_words:
            self._dirty_words = end

    def read_buffer(self, base_addr: int, num_words: int) -> np.ndarray:
        """Copy ``num_words`` words starting at ``base_addr`` back to the host."""
        index = self._word_index(base_addr)
        if index + num_words > self._words.size:
            raise SimulationError(f"read of {num_words} words at {base_addr:#x} overflows memory")
        return self._words[index : index + num_words].astype(np.uint32)

    def view_buffer(self, base_addr: int, num_words: int) -> np.ndarray:
        """A read-only int64 view of ``num_words`` words at ``base_addr``.

        Unlike :meth:`read_buffer` it copies nothing and shows later writes.
        Writes go through :meth:`write_buffer`, which keeps the written
        prefix that :meth:`reset` clears exact.
        """
        index = self._word_index(base_addr)
        if index + num_words > self._words.size:
            raise SimulationError(f"read of {num_words} words at {base_addr:#x} overflows memory")
        view = self._words[index : index + num_words]
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------ #
    # Device-side accesses (vectorized over wavefront lanes)
    # ------------------------------------------------------------------ #
    def load_words(self, byte_addresses: Addresses) -> np.ndarray:
        """Load one word per lane from the given byte addresses (a new vector)."""
        words = self._ramp_words(byte_addresses)
        if words is not None:
            return self._words[_slice(words)].copy()
        return self._words[self._word_indices(expand_ramp(byte_addresses))[0]]

    def load_word(self, byte_address: int) -> int:
        """Load the one word a wavefront-uniform address reads for every lane.

        Same alignment and range errors as :meth:`load_words`.
        """
        return int(self._words[self._word_index(byte_address)])

    def store_words(self, byte_addresses: Addresses, values) -> None:
        """Store one word per lane to the given byte addresses.

        ``values`` is a lane vector or one int that every lane stores.
        """
        words = self._ramp_words(byte_addresses)
        if words is not None:
            indices, top = _slice(words), max(words[0], words[-1])
        else:
            indices, top = self._word_indices(expand_ramp(byte_addresses))
        self._words[indices] = np.asarray(values, dtype=np.int64) & 0xFFFFFFFF
        if top >= self._dirty_words:
            self._dirty_words = top + 1

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _word_index(self, byte_addr: int) -> int:
        if byte_addr % WORD_BYTES:
            raise SimulationError(f"unaligned word access at byte address {byte_addr:#x}")
        if not 0 <= byte_addr < self.size_bytes:
            raise SimulationError(f"global memory access out of range: {byte_addr:#x}")
        return byte_addr // WORD_BYTES

    def _ramp_words(self, addresses: Addresses) -> Optional[range]:
        """The lane-ordered word indices of an aligned, in-range ramp that
        does not wrap past 2**32; ``None`` for a lane vector or any other
        ramp."""
        if type(addresses) is not Affine:
            return None
        base, stride = addresses.base, addresses.stride
        last = addresses.last
        limit = self._ramp_limit
        if (base | stride) & (WORD_BYTES - 1) or not (0 <= last < limit and base < limit):
            return None
        step = stride >> 2
        return range(base >> 2, (last >> 2) + (1 if step > 0 else -1), step)

    def _word_indices(self, byte_addresses: np.ndarray) -> Tuple[np.ndarray, int]:
        """Validate a vector of byte addresses; return their word indices and
        the highest one (-1 for an empty vector).

        The alignment and range checks run once per wavefront memory access,
        so they are phrased as scalar reductions (one pass each) instead of
        building and re-reducing intermediate boolean arrays per condition.
        """
        addresses = np.asarray(byte_addresses, dtype=np.int64)
        if addresses.size == 0:
            return addresses, -1
        # The bitwise OR of all addresses exposes both misalignment (a set
        # low bit) and negativity (the sign bit) in one reduction without an
        # intermediate boolean array; only the upper bound needs a second.
        combined = int(np.bitwise_or.reduce(addresses))
        if combined & (WORD_BYTES - 1):
            bad = addresses[addresses % WORD_BYTES != 0][0]
            raise SimulationError(f"unaligned word access at byte address {int(bad):#x}")
        top = int(addresses.max())
        if combined < 0 or top >= self.size_bytes:
            bad = addresses[(addresses < 0) | (addresses >= self.size_bytes)][0]
            raise SimulationError(f"global memory access out of range: {int(bad):#x}")
        return addresses >> 2, top >> 2


class RuntimeMemory:
    """Runtime memory (RTM) holding the kernel arguments.

    The host writes the kernel arguments here through the AXI control
    interface before starting the accelerator, and the ``LP`` instruction
    reads them.  Eight words stay reserved for the hardware's launch
    descriptor, which this model does not store: the work-item id
    instructions read the wavefront's geometry, its ``NDRange``.
    """

    def __init__(self, num_words: int = 512) -> None:
        if num_words <= 0:
            raise SimulationError("runtime memory must have a positive size")
        self.num_words = num_words
        self._args: Dict[int, int] = {}

    def write_args(self, args: Sequence[int]) -> None:
        """Store one launch's kernel arguments, in declaration order."""
        if len(args) > self.num_words - 8:
            raise SimulationError(
                f"too many kernel arguments ({len(args)}) for a {self.num_words}-word RTM"
            )
        self._args = {index: int(value) & 0xFFFFFFFF for index, value in enumerate(args)}

    def read_arg(self, index: int) -> int:
        """Read kernel argument ``index`` (the LP instruction)."""
        if index not in self._args:
            raise SimulationError(f"kernel argument {index} was never written to the RTM")
        return self._args[index]

    @property
    def num_args(self) -> int:
        return len(self._args)


class LocalMemory:
    """Per-CU local scratchpad (LRAM), word addressable."""

    def __init__(self, num_words: int = 2048) -> None:
        if num_words <= 0:
            raise SimulationError("local memory must have a positive size")
        self.num_words = num_words
        self._words = np.zeros(num_words, dtype=np.int64)

    def load_words(self, word_indices: WordIndices) -> np.ndarray:
        """Load one word per lane from the given word indices (a new vector)."""
        index = self._index(word_indices)
        if type(index) is slice:
            return self._words[index].copy()
        return self._words[index]

    def store_words(self, word_indices: WordIndices, values) -> None:
        """Store one word per lane to the given word indices.

        ``values`` is a lane vector or one int that every lane stores.
        """
        self._words[self._index(word_indices)] = np.asarray(values, dtype=np.int64) & 0xFFFFFFFF

    def _index(self, word_indices: WordIndices):
        """A slice for an in-bounds range, else the checked index vector."""
        if type(word_indices) is range:
            if word_indices:
                low, high = sorted((word_indices[0], word_indices[-1]))
                if low >= 0 and high < self.num_words:
                    return _slice(word_indices)
            word_indices = np.array(word_indices, dtype=np.int64)
        self._check(word_indices)
        return np.asarray(word_indices, dtype=np.int64)

    def _check(self, word_indices: np.ndarray) -> None:
        indices = np.asarray(word_indices, dtype=np.int64)
        if indices.size == 0:
            return
        if int(indices.min()) < 0 or int(indices.max()) >= self.num_words:
            bad = indices[(indices < 0) | (indices >= self.num_words)][0]
            raise SimulationError(f"local memory access out of range: index {int(bad)}")
