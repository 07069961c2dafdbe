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
in-order loop over the ascending line addresses of an access
(:meth:`DataCache.access_sorted_lines`): a coalesced wavefront access touches
1 to ``wavefront_size`` lines, too few for numpy's per-call overhead to pay
off, and probing in order is exactly the sequential semantics even when two
lines of one access alias one direct-mapped set.  The probe reports only the
misses, which is all the AXI port walk needs, and the last hit.  The lines of
an :class:`~repro.simt.registers.Affine` address ramp are plain arithmetic
(:meth:`DataCache.coalesce_lines`).

The cache serves at most ``CacheConfig.ports`` distinct lines per cycle: the
compute unit's timing model serializes wider accesses into one
``ports``-wide wave per cycle (see ``ComputeUnit._memory_timing``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.arch.config import CacheConfig
from repro.errors import SimulationError
from repro.simt.registers import Affine


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

    def coalesce_lines(
        self, byte_addresses: Union[Affine, Sequence[int]]
    ) -> Union[List[int], range]:
        """Distinct line addresses touched by a wavefront access, ascending.

        A ramp that does not wrap past 2**32 is answered by arithmetic, as a
        ``range`` when its lines are evenly spaced.  Other wavefront address
        patterns are overwhelmingly monotonic too, so the line addresses
        arrive already sorted and one pass drops the repeats; scattered
        patterns fall back to a sort.
        """
        if type(byte_addresses) is Affine:
            lines = self._ramp_lines(byte_addresses)
            if lines is not None:
                return lines
            byte_addresses = byte_addresses.vector()
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

    def _ramp_lines(self, addresses: Affine) -> Union[List[int], range, None]:
        """The ascending distinct lines of a ramp that does not wrap past
        2**32; ``None`` for one that does."""
        span = addresses.span()
        if span is None:
            return None
        low, high = span
        step = abs(addresses.stride)
        floor = self._line_floor_mask
        line_bytes = self._line_bytes
        if step < line_bytes:
            # Neighbouring lanes are less than a line apart: every line from
            # the lowest lane's to the highest lane's is touched.
            return range(low & floor, (high & floor) + line_bytes, line_bytes)
        # Every lane is on a line of its own, in address order.
        if step & (line_bytes - 1) == 0:
            return range(low & floor, (high & floor) + step, step)
        return [(low + step * lane) & floor for lane in range(addresses.lanes)]

    # ------------------------------------------------------------------ #
    # Accesses
    # ------------------------------------------------------------------ #
    def access_line(self, line_address: int, is_write: bool) -> LineAccess:
        """Access one line, updating tags, dirty bits, and statistics."""
        if line_address < 0 or line_address % self._line_bytes:
            raise SimulationError(f"bad cache line address {line_address:#x}")
        misses, _ = self.access_sorted_lines([line_address], is_write)
        if not misses:
            return LineAccess(line_address, True, False)
        return LineAccess(line_address, False, bool(misses[0] & 1))

    def access_sorted_lines(
        self, lines: Sequence[int], is_write: bool
    ) -> Tuple[List[int], int]:
        """Probe one coalesced access whose lines are ascending and distinct.

        The lines are probed one after another, so two lines that alias one
        direct-mapped set evict each other in order.  Returns ``(misses,
        last_hit)``: one int per missing line in position order,
        ``position << 1 | write_back`` (whether its victim was dirty), as
        the AXI port walk takes them, and the position of the last hit (-1
        if none).  ``lines`` must come from :meth:`coalesce_lines`
        (ascending, distinct).
        """
        tags = self._tags
        dirty = self._dirty
        shift = self._line_shift
        index_mask = self._index_mask
        misses: List[int] = []
        append = misses.append
        last_hit = -1
        write_backs = 0
        for position, line in enumerate(lines):
            index = (line >> shift) & index_mask
            if tags[index] == line:
                if is_write:
                    dirty[index] = True
                last_hit = position
                continue
            if dirty[index]:
                append(position << 1 | 1)
                write_backs += 1
            else:
                append(position << 1)
            tags[index] = line
            dirty[index] = is_write
        stats = self.stats
        if is_write:
            stats.write_accesses += len(lines)
            stats.write_misses += len(misses)
        else:
            stats.read_accesses += len(lines)
            stats.read_misses += len(misses)
        stats.write_backs += write_backs
        return misses, last_hit

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
