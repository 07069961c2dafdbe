"""Global memory controller and AXI data-interface timing model.

FGPU integrates numerous data movers that parallelize global-memory traffic on
up to four AXI data interfaces.  The controller model below is what creates
the bandwidth wall the paper observes when scaling to 8 CUs: every cache miss
or write-back occupies one AXI data port for the duration of the line
transfer, so once the ports saturate, adding CUs stops helping (and extra
contention can even hurt, as in the xcorr results of Table III).

The ports are interchangeable: a transaction takes whichever port frees up
first, and nothing observable depends on which port that is, only on the
multiset of the ports' free times.  The free times are therefore kept as a
heap, and a transaction replaces its minimum (``heapq.heapreplace``).  Every
transfer lasts the same number of cycles, so a burst of misses that finds
every port busy past its last request is charged in closed form: the ports
take turns, and the last fill and each port's new free time are arithmetic
(:meth:`GlobalMemoryController.miss_burst`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List

from repro.arch.config import AxiConfig, CacheConfig
from repro.errors import SimulationError
from repro.simt.cache import Misses

#: Floats hold every integer below this exactly, so sums of such integers
#: that stay below it are exact too.
_EXACT_LIMIT = 2.0**53


@dataclass
class MemoryTrafficStats:
    """Aggregate AXI traffic for one kernel launch."""

    line_fills: int = 0
    write_backs: int = 0
    busy_cycles: float = 0.0

    @property
    def transactions(self) -> int:
        return self.line_fills + self.write_backs


class GlobalMemoryController:
    """Timing model of the global memory controller and its AXI data ports."""

    def __init__(self, axi: AxiConfig, cache: CacheConfig) -> None:
        self.axi = axi
        self.cache = cache
        self.reset()

    @property
    def line_transfer_cycles(self) -> int:
        """Cycles one AXI port needs to move one cache line."""
        beats = self.cache.line_bytes // (self.axi.data_width_bits // 8)
        return max(1, beats)

    def reset(self) -> None:
        """Clear port occupancy and statistics (new kernel launch)."""
        # A heap of the ports' free times (all zero is a valid heap).
        self._port_free: List[float] = [0.0] * self.axi.data_ports
        # The transfer width and the fill latency are consulted on every one
        # of the hundreds of thousands of misses of a sweep; resolve them
        # once instead of re-deriving them from the configs per transaction.
        # A float transfer keeps every port free time a float.
        self._transfer_cycles = float(self.line_transfer_cycles)
        self._fill_latency = self.axi.memory_latency_cycles + self._transfer_cycles
        self.stats = MemoryTrafficStats()

    def _claim_port(self, now: float, occupancy: int) -> float:
        """Reserve the earliest-free port starting no earlier than ``now``."""
        free = self._port_free
        earliest = free[0]
        start = now if now > earliest else earliest
        heapq.heapreplace(free, start + occupancy)
        self.stats.busy_cycles += occupancy
        return start

    def line_fill(self, now: float) -> float:
        """Issue a line fill at time ``now``; returns the completion time."""
        if now < 0:
            raise SimulationError(f"time must be non-negative, got {now}")
        start = self._claim_port(now, self._transfer_cycles)
        self.stats.line_fills += 1
        return start + self._fill_latency

    def write_back(self, now: float) -> float:
        """Issue a dirty-line write-back at time ``now``; returns completion time.

        Write-backs are posted: the requesting wavefront does not wait for
        them, but they consume port bandwidth and therefore delay later fills.
        """
        if now < 0:
            raise SimulationError(f"time must be non-negative, got {now}")
        transfer = self._transfer_cycles
        start = self._claim_port(now, transfer)
        self.stats.write_backs += 1
        return start + transfer

    def miss_burst(
        self,
        access_time: float,
        ports: int,
        misses: Misses,
        completion: float,
    ) -> float:
        """Claim port time for every missing line of one coalesced access.

        ``misses`` are the cache probe's missing lines in position order
        (:data:`repro.simt.cache.Misses`); line ``k`` of the access starts
        at ``access_time + k // ports`` (the cache serves ``ports`` lines per
        cycle).  Equivalent to calling :meth:`write_back` (for dirty victims)
        and :meth:`line_fill` per missing line.  Returns the latest fill
        completion, starting from ``completion``.

        A saturated burst is charged in closed form: when the earliest port
        frees no earlier than the last miss's wave start, every transfer
        starts as a port frees.  If the ports' free times also lie within
        one transfer, the ports take turns in the order they free: with
        ``f`` the sorted free times and ``P`` ports, transfer ``j`` starts at
        ``f[j % P] + (j // P) * transfer``, and its last one is the last
        fill.  A transfer is a whole number of beats, so with integer-valued
        free times below 2**53 the sums are the walk's, exactly.  Any other
        burst walks its misses one by one.
        """
        if type(misses) is tuple:
            fills, write_backs, last, victims = misses
        elif misses:
            fills, write_backs, last = len(misses), sum(miss & 1 for miss in misses), misses[-1] >> 1
        else:
            return completion
        free = self._port_free
        transfer = self._transfer_cycles
        transfers = fills + write_backs
        times = sorted(free)
        rounds, extra = divmod(transfers, len(times))
        if (
            times[0] >= access_time + last // ports
            and times[-1] - times[0] <= transfer
            and all(map(float.is_integer, times))
            and times[-1] + (rounds + 1) * transfer < _EXACT_LIMIT
        ):
            turns, turn = divmod(transfers - 1, len(times))
            fill_done = times[turn] + turns * transfer + self._fill_latency
            if fill_done > completion:
                completion = fill_done
            # Ascending, so still a heap.
            free[:] = [time + rounds * transfer for time in times[extra:]] + [
                time + (rounds + 1) * transfer for time in times[:extra]
            ]
        else:
            if type(misses) is tuple:
                first = last - fills + 1
                misses = [(first + offset) << 1 | victim for offset, victim in enumerate(victims)]
            replace = heapq.heapreplace
            fill_latency = self._fill_latency
            # (miss >> 1) // ports, the miss's wave, in one floor division.
            wave_span = 2 * ports
            for miss in misses:
                wave_start = access_time + miss // wave_span
                if miss & 1:
                    earliest = free[0]
                    start = wave_start if wave_start > earliest else earliest
                    replace(free, start + transfer)
                earliest = free[0]
                start = wave_start if wave_start > earliest else earliest
                replace(free, start + transfer)
                fill_done = start + fill_latency
                if fill_done > completion:
                    completion = fill_done
        stats = self.stats
        stats.line_fills += fills
        stats.write_backs += write_backs
        stats.busy_cycles += transfers * transfer
        return completion

    def write_back_burst(self, now: float, count: int) -> float:
        """Issue ``count`` posted write-backs starting at ``now``.

        Used by the end-of-kernel cache flush: the dirty lines drain through
        the AXI data ports after the last wavefront completes, so the traffic
        (and the port time it occupies) shows up in :class:`MemoryTrafficStats`
        without extending the kernel's cycle count.  Returns the completion
        time of the last write-back.
        """
        if count < 0:
            raise SimulationError(f"write-back burst count must be non-negative, got {count}")
        done = now
        for _ in range(count):
            done = self.write_back(now)
        return done

    def earliest_free(self) -> float:
        """Earliest time any port becomes free (used by tests and reports)."""
        return self._port_free[0]
