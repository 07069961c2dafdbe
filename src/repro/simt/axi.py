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
heap, and a transaction replaces its minimum (``heapq.heapreplace``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List

from repro.arch.config import AxiConfig, CacheConfig
from repro.errors import SimulationError


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
        # A heap of the ports' free times (all zero is a valid heap).
        self._port_free: List[float] = [0.0] * axi.data_ports
        # The transfer width and the fill latency are consulted on every one
        # of the hundreds of thousands of misses of a sweep; resolve them
        # once instead of re-deriving them from the configs per transaction.
        self._transfer_cycles = self.line_transfer_cycles
        self._fill_latency = self.axi.memory_latency_cycles + self._transfer_cycles
        self.stats = MemoryTrafficStats()

    @property
    def line_transfer_cycles(self) -> int:
        """Cycles one AXI port needs to move one cache line."""
        beats = self.cache.line_bytes // (self.axi.data_width_bits // 8)
        return max(1, beats)

    def reset(self) -> None:
        """Clear port occupancy and statistics (new kernel launch)."""
        self._port_free = [0.0] * self.axi.data_ports
        self._transfer_cycles = self.line_transfer_cycles
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
        misses: List[int],
        completion: float,
    ) -> float:
        """Claim port time for every missing line of one coalesced access.

        ``misses`` are the cache probe's missing lines in position order,
        each ``position << 1 | write_back``; line ``k`` of the access starts
        at ``access_time + k // ports`` (the cache serves ``ports`` lines per
        cycle).  Equivalent to calling :meth:`write_back` (for dirty victims)
        and :meth:`line_fill` per missing line, but in one call with the
        port state held in locals -- the per-miss call overhead dominated
        the memory path of scatter-heavy kernels.  Returns the latest fill
        completion, starting from ``completion``.
        """
        free = self._port_free
        replace = heapq.heapreplace
        transfer = self._transfer_cycles
        fill_latency = self._fill_latency
        write_backs = 0
        # (miss >> 1) // ports, the miss's wave, in one floor division.
        wave_span = 2 * ports
        for miss in misses:
            wave_start = access_time + miss // wave_span
            if miss & 1:
                earliest = free[0]
                start = wave_start if wave_start > earliest else earliest
                replace(free, start + transfer)
                write_backs += 1
            earliest = free[0]
            start = wave_start if wave_start > earliest else earliest
            replace(free, start + transfer)
            fill_done = start + fill_latency
            if fill_done > completion:
                completion = fill_done
        fills = len(misses)
        self.stats.line_fills += fills
        self.stats.write_backs += write_backs
        self.stats.busy_cycles += (fills + write_backs) * transfer
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
