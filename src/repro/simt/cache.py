"""Central direct-mapped write-back data cache (performance model).

The FGPU data cache is a single cache shared by all CUs: direct mapped,
multi-port, write back, with data movers that parallelize traffic on the AXI
data interfaces.  Because it is the only agent in front of global memory there
is no coherence problem, so the simulator keeps the *data* in
:class:`~repro.simt.memory.GlobalMemory` and models the cache as tags only:
each access reports whether it hit and whether a dirty victim line must be
written back, and the :class:`~repro.simt.axi.GlobalMemoryController` turns
misses and write-backs into AXI traffic and latency.

The tag and dirty state is held in numpy arrays so a whole coalesced
wavefront access (up to ``wavefront_size`` distinct lines for fully scattered
addresses) is probed in a handful of vector operations
(:meth:`DataCache.access_sorted_lines`); the scalar
:meth:`DataCache.access_line` is the probe of a wavefront-uniform load (one
line) and the replay path when one access maps two different lines onto the
same direct-mapped set.

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
        self._tags = np.full(self.config.num_lines, _NO_TAG, dtype=np.int64)
        self._dirty = np.zeros(self.config.num_lines, dtype=bool)
        self.stats = CacheStats()
        self.hit_latency_cycles = self.config.hit_latency_cycles
        self._line_bytes = self.config.line_bytes
        self._num_lines = self.config.num_lines
        # Any set of distinct line addresses spanning less than the cache
        # size maps to pairwise-distinct direct-mapped sets, so the aliasing
        # probe of access_sorted_lines reduces to one span comparison.
        self._span_bytes = self._line_bytes * self._num_lines
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
        return byte_address - (byte_address % self.config.line_bytes)

    def coalesce_lines(self, byte_addresses: Sequence[int]) -> np.ndarray:
        """Distinct line addresses touched by a wavefront access, ascending.

        Wavefront address patterns are overwhelmingly monotonic (affine in
        the lane id), so the line addresses arrive already sorted and the
        ``np.unique`` sort is wasted work: a non-decreasing run is deduped
        with one difference pass.  Scattered patterns fall back to the sort.
        """
        addresses = np.asarray(byte_addresses, dtype=np.int64)
        lines = addresses & self._line_floor_mask
        if addresses.size <= 1:
            return lines
        steps = lines[1:] - lines[:-1]
        smallest_step = int(steps.min())
        if smallest_step > 0:
            return lines  # strictly increasing: already distinct and sorted
        if smallest_step == 0:
            keep = np.empty(lines.size, dtype=bool)
            keep[0] = True
            np.not_equal(steps, 0, out=keep[1:])
            return lines[keep]
        return np.unique(lines)

    def coalesce(self, byte_addresses: Sequence[int]) -> List[int]:
        """Distinct cache lines touched by a wavefront access (coalescing)."""
        return [int(line) for line in self.coalesce_lines(byte_addresses)]

    def _index(self, line_address: int) -> int:
        return (line_address >> self._line_shift) & self._index_mask

    # ------------------------------------------------------------------ #
    # Accesses
    # ------------------------------------------------------------------ #
    def access_line(self, line_address: int, is_write: bool) -> LineAccess:
        """Access one line, updating tags, dirty bits, and statistics."""
        if line_address < 0 or line_address % self._line_bytes:
            raise SimulationError(f"bad cache line address {line_address:#x}")
        index = self._index(line_address)
        stats = self.stats
        if is_write:
            stats.write_accesses += 1
        else:
            stats.read_accesses += 1
        tag = int(self._tags[index])
        if tag == line_address:
            if is_write:
                self._dirty[index] = True
            return LineAccess(line_address, True, False)
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
        write_back = tag != _NO_TAG and bool(self._dirty[index])
        if write_back:
            stats.write_backs += 1
        self._tags[index] = line_address
        self._dirty[index] = is_write
        return LineAccess(line_address, False, write_back)

    def access_sorted_lines(
        self, lines: np.ndarray, is_write: bool
    ) -> Tuple[Optional[List[bool]], Optional[List[bool]], int]:
        """Probe one coalesced access whose lines are ascending and distinct.

        Equivalent to calling :meth:`access_line` on each line in order.
        The lines are probed in a handful of vector operations, because
        distinct lines can alias one direct-mapped set only when the access
        spans the whole cache; when two lines do alias, they are replayed
        one by one so the eviction order stays exact.  Returns
        ``(hit_list, write_back_list, num_misses)`` with the outcomes as
        plain Python lists -- which the port-contention walk needs anyway
        -- and skips building them entirely for the all-hit case, returning
        ``(None, None, 0)``.  ``lines`` must come from
        :meth:`coalesce_lines` (ascending, distinct).
        """
        count = lines.size
        if count == 0:
            return None, None, 0
        indices = (lines >> self._line_shift) & self._index_mask
        if count > 1 and int(lines[-1]) - int(lines[0]) >= self._span_bytes:
            if np.unique(indices).size != count:
                # Aliasing inside one access: replay sequentially so the
                # eviction order stays exact.
                hit_list: List[bool] = []
                wb_list: List[bool] = []
                num_misses = 0
                for line in lines.tolist():
                    outcome = self.access_line(line, is_write)
                    hit_list.append(outcome.hit)
                    wb_list.append(outcome.write_back)
                    if not outcome.hit:
                        num_misses += 1
                return hit_list, wb_list, num_misses
        tags = self._tags[indices]
        hits = tags == lines
        num_misses = count - int(hits.sum())
        stats = self.stats
        if is_write:
            stats.write_accesses += count
            stats.write_misses += num_misses
        else:
            stats.read_accesses += count
            stats.read_misses += num_misses
        if num_misses == 0:
            if is_write:
                self._dirty[indices] = True
            return None, None, 0
        misses = ~hits
        write_backs = misses & (tags != _NO_TAG) & self._dirty[indices]
        stats.write_backs += int(write_backs.sum())
        miss_indices = indices[misses]
        self._tags[miss_indices] = lines[misses]
        self._dirty[miss_indices] = False
        if is_write:
            self._dirty[indices] = True
        return hits.tolist(), write_backs.tolist(), num_misses

    def access_wavefront(
        self, byte_addresses: Sequence[int], is_write: bool
    ) -> List[LineAccess]:
        """Access all lines touched by one wavefront memory instruction."""
        lines = self.coalesce_lines(byte_addresses)
        hits, write_backs, _ = self.access_sorted_lines(lines, is_write)
        addresses = lines.tolist()
        if hits is None:
            return [LineAccess(line, True, False) for line in addresses]
        return [LineAccess(*outcome) for outcome in zip(addresses, hits, write_backs, strict=True)]

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
        dirty = (self._tags != _NO_TAG) & self._dirty
        flushed = int(dirty.sum())
        self._dirty[:] = False
        self.stats.write_backs += flushed
        return flushed

    def reset(self) -> None:
        """Invalidate the whole cache and clear statistics."""
        self._tags[:] = _NO_TAG
        self._dirty[:] = False
        self.stats = CacheStats()

    def resident_lines(self) -> Set[int]:
        """Set of line addresses currently cached (used by tests)."""
        return {int(tag) for tag in self._tags if tag != _NO_TAG}
