"""Central direct-mapped write-back data cache (performance model).

The FGPU data cache is a single cache shared by all CUs: direct mapped,
multi-port, write back, with data movers that parallelize traffic on the AXI
data interfaces.  Because it is the only agent in front of global memory there
is no coherence problem, so the simulator keeps the *data* in
:class:`~repro.simt.memory.GlobalMemory` and models the cache as tags only:
each access reports whether it hit and whether a dirty victim line must be
written back, and the :class:`~repro.simt.axi.GlobalMemoryController` turns
misses and write-backs into AXI traffic and latency.

The tag and dirty state is held in Python lists, one entry per set, and a
set's tag is its line's address bits above the set index.  A probe
(:meth:`DataCache.access_sorted_lines`) takes the ascending line addresses
of an access: a coalesced wavefront access touches 1 to ``wavefront_size``
lines, too few for numpy's per-call overhead to pay off, and probing in
order is exactly the sequential semantics even when two lines of one access
alias one direct-mapped set.  The lines of an
:class:`~repro.simt.registers.Affine` address ramp are plain arithmetic
(:meth:`DataCache.coalesce_lines`), and consecutive ones come as a
``range``.  Such a run sits in consecutive sets under one tag, unless it
wraps past the last set, so when all of it hits, all of it misses, or its
hits are one run at either end, it is served with slice counts and slice
assignments; every other access is probed line by line.  The probe reports
only the misses, which is all the AXI port walk needs, and the last hit.

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


_NO_TAG = -1  # sentinel for an invalid line (tags are >= 0)

#: The misses of one probe in position order: a list with one ``position <<
#: 1 | write_back`` int per missing line (whether its victim was dirty), or,
#: for a run served by slices, whose misses sit at consecutive positions,
#: ``(count, write_backs, last_position, victims)`` with each victim's dirty
#: bit in position order.
Misses = Union[List[int], Tuple[int, int, int, List[bool]]]


class DataCache:
    """Tag-only model of the central direct-mapped write-back cache."""

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        self._num_lines = self.config.num_lines
        # A set's tag is its line's address bits above the set index, so the
        # lines of a run of consecutive sets share one tag.  A dirty bit is
        # only ever set on a valid line, so a set bit alone marks a victim
        # that must be written back.
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
        self._tag_shift = self._line_shift + self._num_lines.bit_length() - 1

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
    ) -> Tuple[Misses, int]:
        """Probe one coalesced access whose lines are ascending and distinct.

        The lines are probed one after another, so two lines that alias one
        direct-mapped set evict each other in order.  Returns ``(misses,
        last_hit)``: the missing lines in position order, as the AXI port
        walk takes them (see :data:`Misses`), and the position of the last
        hit (-1 if none).  ``lines`` must come from :meth:`coalesce_lines`
        (ascending, distinct).  A ``range`` of consecutive lines may be
        served by slices (:meth:`_access_run`); every other access is probed
        line by line.
        """
        if type(lines) is range and lines.step == self._line_bytes:
            outcome = self._access_run(lines, is_write)
            if outcome is not None:
                return outcome
        tags = self._tags
        dirty = self._dirty
        shift = self._line_shift
        index_mask = self._index_mask
        tag_shift = self._tag_shift
        misses: List[int] = []
        append = misses.append
        last_hit = -1
        write_backs = 0
        for position, line in enumerate(lines):
            index = (line >> shift) & index_mask
            tag = line >> tag_shift
            if tags[index] == tag:
                if is_write:
                    dirty[index] = True
                last_hit = position
                continue
            if dirty[index]:
                append(position << 1 | 1)
                write_backs += 1
            else:
                append(position << 1)
            tags[index] = tag
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

    def _access_run(self, lines: range, is_write: bool) -> Optional[Tuple[Misses, int]]:
        """:meth:`access_sorted_lines` for consecutive lines, served by slices.

        Unless it wraps past the last set, the run sits in consecutive sets
        under one tag.  It is served when every line hits, every line
        misses, or the hits form one run at either end: the hits are a
        count of the tag in the run's slice, and the misses are one slice
        of victims to replace.  Any other run returns ``None`` and changes
        nothing.
        """
        count = len(lines)
        start = (lines.start >> self._line_shift) & self._index_mask
        stop = start + count
        if not count or stop > self._num_lines:
            return None
        tag = lines.start >> self._tag_shift
        tags = self._tags
        dirty = self._dirty
        hits = tags[start:stop].count(tag)
        if hits == count:
            miss_start = miss_stop = stop
            last_hit = count - 1
        elif not hits:
            miss_start, miss_stop, last_hit = start, stop, -1
        elif tags[start : start + hits].count(tag) == hits:
            miss_start, miss_stop, last_hit = start + hits, stop, hits - 1
        elif tags[stop - hits : stop].count(tag) == hits:
            miss_start, miss_stop, last_hit = start, stop - hits, count - 1
        else:
            return None
        missed = miss_stop - miss_start
        victims = dirty[miss_start:miss_stop]
        write_backs = victims.count(True)
        tags[miss_start:miss_stop] = [tag] * missed
        if is_write:
            dirty[start:stop] = [True] * count
        else:
            dirty[miss_start:miss_stop] = [False] * missed
        stats = self.stats
        if is_write:
            stats.write_accesses += count
            stats.write_misses += missed
        else:
            stats.read_accesses += count
            stats.read_misses += missed
        stats.write_backs += write_backs
        if not missed:
            return [], last_hit
        return (missed, write_backs, miss_stop - start - 1, victims), last_hit

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
        return {
            tag << self._tag_shift | index << self._line_shift
            for index, tag in enumerate(self._tags)
            if tag != _NO_TAG
        }
