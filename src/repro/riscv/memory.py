"""Flat data memory of the RISC-V baseline.

The paper's RISC-V has 32 kB of tightly-coupled memory (single-cycle access,
no cache); the benchmarks that would not fit were the point where the authors
"increased inputs up until crashing RISC-V".  The model below is a flat,
word-addressable memory with an allocator mirroring the G-GPU's host API so
the evaluation harness can lay out the same buffers on both targets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SimulationError

WORD_BYTES = 4


class RvMemory:
    """Word-addressable data memory with a bump allocator."""

    def __init__(self, size_bytes: int = 32 * 1024) -> None:
        if size_bytes <= 0 or size_bytes % WORD_BYTES:
            raise SimulationError(f"memory size must be a positive multiple of 4, got {size_bytes}")
        self.size_bytes = size_bytes
        # A list of unsigned 32-bit values, which the ISS's translated regions
        # index directly.
        self._words = [0] * (size_bytes // WORD_BYTES)
        self._next_alloc = WORD_BYTES

    def allocate(self, num_words: int, align_bytes: int = 4) -> int:
        """Reserve ``num_words`` words; returns the base byte address."""
        if num_words <= 0:
            raise SimulationError("allocation must be positive")
        base = self._next_alloc
        if base % align_bytes:
            base += align_bytes - (base % align_bytes)
        end = base + num_words * WORD_BYTES
        if end > self.size_bytes:
            raise SimulationError(
                f"benchmark does not fit the {self.size_bytes}-byte RISC-V memory "
                f"(requested {num_words} words at {base:#x})"
            )
        self._next_alloc = end
        return base

    def write_buffer(self, base_addr: int, values: Sequence[int]) -> None:
        """Initialize a buffer from host data."""
        data = np.asarray(values, dtype=np.int64) & 0xFFFFFFFF
        index = self.word_index(base_addr)
        if index + data.size > len(self._words):
            raise SimulationError(f"write of {data.size} words at {base_addr:#x} overflows memory")
        self._words[index : index + data.size] = data.ravel().tolist()

    def read_buffer(self, base_addr: int, num_words: int) -> np.ndarray:
        """Read a buffer back as unsigned 32-bit words."""
        index = self.word_index(base_addr)
        if index + num_words > len(self._words):
            raise SimulationError(f"read of {num_words} words at {base_addr:#x} overflows memory")
        return np.array(self._words[index : index + num_words], dtype=np.uint32)

    def load_word(self, byte_addr: int) -> int:
        """Load one word (unsigned value)."""
        return self._words[self.word_index(byte_addr)]

    def store_word(self, byte_addr: int, value: int) -> None:
        """Store one word."""
        self._words[self.word_index(byte_addr)] = int(value) & 0xFFFFFFFF

    def word_index(self, byte_addr: int) -> int:
        """Word index of ``byte_addr``; raises on an unaligned or out-of-range address."""
        if byte_addr % WORD_BYTES:
            raise SimulationError(f"unaligned word access at {byte_addr:#x}")
        if not 0 <= byte_addr < self.size_bytes:
            raise SimulationError(f"data access out of range: {byte_addr:#x}")
        return byte_addr // WORD_BYTES
