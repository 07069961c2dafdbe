"""Central direct-mapped write-back data cache (performance model).

The FGPU data cache is a single cache shared by all CUs: direct mapped,
multi-port, write back, with data movers that parallelize traffic on the AXI
data interfaces.  Because it is the only agent in front of global memory there
is no coherence problem, so the simulator keeps the *data* in
:class:`~repro.simt.memory.GlobalMemory` and models the cache as tags only:
each access reports whether it hit and whether a dirty victim line must be
written back, and the :class:`~repro.simt.axi.GlobalMemoryController` turns
misses and write-backs into AXI traffic and latency.

The tag and dirty state is held in Python lists, and every probe is one
in-order loop over a list of line addresses
(:meth:`DataCache.access_sorted_lines`): a coalesced wavefront access touches
1 to ``wavefront_size`` lines, too few for numpy's per-call overhead to pay
off, and probing in order is exactly the sequential semantics even when two
lines of one access alias one direct-mapped set.

The cache serves at most ``CacheConfig.ports`` distinct lines per cycle: the
compute unit's timing model serializes wider accesses into one
``ports``-wide wave per cycle (see ``ComputeUnit._memory_timing``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.arch.config import CacheConfig
from repro.errors import SimulationError


@dataclass
class CacheStats:
    """Aggregate cache statistics for one kernel launch."""

    read_accesses: int = 0
    write_accesses: int = 0
    read_misses: int = 0
    write_misses: int = 0
    write_backs: int = 0

    @property
    def accesses(self) -> int:
        return self.read_accesses + self.write_accesses

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served without going to global memory."""
        if self.accesses == 0:
            return 1.0
        return 1.0 - self.misses / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return the element-wise sum of two stats objects."""
        return CacheStats(
            read_accesses=self.read_accesses + other.read_accesses,
            write_accesses=self.write_accesses + other.write_accesses,
            read_misses=self.read_misses + other.read_misses,
            write_misses=self.write_misses + other.write_misses,
            write_backs=self.write_backs + other.write_backs,
        )


@dataclass(frozen=True)
class LineAccess:
    """Outcome of accessing one cache line."""

    line_address: int
    hit: bool
    write_back: bool


_NO_TAG = -1  # sentinel for an invalid line (line addresses are >= 0)


class DataCache:
    """Tag-only model of the central direct-mapped write-back cache."""

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        self._num_lines = self.config.num_lines
        # A dirty bit is only ever set on a valid line, so a set bit alone
        # marks a victim that must be written back.
        self._tags: List[int] = [_NO_TAG] * self._num_lines
        self._dirty: List[bool] = [False] * self._num_lines
        self.stats = CacheStats()
        self.hit_latency_cycles = self.config.hit_latency_cycles
        self._line_bytes = self.config.line_bytes
        # CacheConfig keeps the line size and the line count powers of two,
        # so the address floor, divide and modulo are bitwise operations.
        self._line_floor_mask = ~(self._line_bytes - 1)
        self._line_shift = self._line_bytes.bit_length() - 1
        self._index_mask = self._num_lines - 1

    # ------------------------------------------------------------------ #
    # Address helpers
    # ------------------------------------------------------------------ #
    def line_address(self, byte_address: int) -> int:
        """Address of the cache line containing ``byte_address``."""
        return byte_address & self._line_floor_mask

    def coalesce_lines(self, byte_addresses: Sequence[int]) -> List[int]:
        """Distinct line addresses touched by a wavefront access, ascending.

        Wavefront address patterns are overwhelmingly monotonic (affine in
        the lane id), so the line addresses arrive already sorted and one
        pass drops the repeats; scattered patterns fall back to a sort.
        """
        lines = (np.asarray(byte_addresses, dtype=np.int64) & self._line_floor_mask).tolist()
        if not lines:
            return lines
        previous = lines[0]
        distinct = [previous]
        for line in lines:
            if line != previous:
                if line < previous:
                    return sorted(set(lines))
                distinct.append(line)
                previous = line
        return distinct

    # ------------------------------------------------------------------ #
    # Accesses
    # ------------------------------------------------------------------ #
    def access_line(self, line_address: int, is_write: bool) -> LineAccess:
        """Access one line, updating tags, dirty bits, and statistics."""
        if line_address < 0 or line_address % self._line_bytes:
            raise SimulationError(f"bad cache line address {line_address:#x}")
        hits, write_backs, _ = self.access_sorted_lines([line_address], is_write)
        if hits is None:
            return LineAccess(line_address, True, False)
        return LineAccess(line_address, False, write_backs[0])

    def access_sorted_lines(
        self, lines: List[int], is_write: bool
    ) -> Tuple[Optional[List[bool]], Optional[List[bool]], int]:
        """Probe one coalesced access whose lines are ascending and distinct.

        The lines are probed one after another, so two lines that alias one
        direct-mapped set evict each other in order.  Returns
        ``(hit_list, write_back_list, num_misses)`` with one outcome per
        line, as the port-contention walk needs them; an all-hit access
        builds no lists and returns ``(None, None, 0)``.  ``lines`` must
        come from :meth:`coalesce_lines` (ascending, distinct).
        """
        tags = self._tags
        dirty = self._dirty
        shift = self._line_shift
        index_mask = self._index_mask
        hit_list: Optional[List[bool]] = None
        wb_list: Optional[List[bool]] = None
        num_misses = write_backs = 0
        for position, line in enumerate(lines):
            index = (line >> shift) & index_mask
            if tags[index] == line:
                if is_write:
                    dirty[index] = True
                if hit_list is not None:
                    hit_list.append(True)
                    wb_list.append(False)
                continue
            if hit_list is None:
                hit_list = [True] * position
                wb_list = [False] * position
            write_back = dirty[index]
            hit_list.append(False)
            wb_list.append(write_back)
            num_misses += 1
            write_backs += write_back
            tags[index] = line
            dirty[index] = is_write
        stats = self.stats
        if is_write:
            stats.write_accesses += len(lines)
            stats.write_misses += num_misses
        else:
            stats.read_accesses += len(lines)
            stats.read_misses += num_misses
        stats.write_backs += write_backs
        return hit_list, wb_list, num_misses

    def access_wavefront(
        self, byte_addresses: Sequence[int], is_write: bool
    ) -> List[LineAccess]:
        """Access all lines touched by one wavefront memory instruction."""
        lines = self.coalesce_lines(byte_addresses)
        hits, write_backs, _ = self.access_sorted_lines(lines, is_write)
        if hits is None:
            return [LineAccess(line, True, False) for line in lines]
        return [LineAccess(*outcome) for outcome in zip(lines, hits, write_backs, strict=True)]

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def flush(self) -> int:
        """Write back all dirty lines (end of kernel); returns the number flushed.

        Only the tag state and the cache-level counter are updated here; the
        caller is responsible for pushing the flushed lines through the
        global memory controller so the drain occupies AXI port time (see
        ``GGPUSimulator.launch``).
        """
        flushed = sum(self._dirty)
        self._dirty = [False] * self._num_lines
        self.stats.write_backs += flushed
        return flushed

    def reset(self) -> None:
        """Invalidate the whole cache and clear statistics."""
        self._tags = [_NO_TAG] * self._num_lines
        self._dirty = [False] * self._num_lines
        self.stats = CacheStats()

    def resident_lines(self) -> Set[int]:
        """Set of line addresses currently cached (used by tests)."""
        return {tag for tag in self._tags if tag != _NO_TAG}
