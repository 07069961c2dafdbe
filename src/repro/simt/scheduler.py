"""Wavefront scheduler of a compute unit.

The WF scheduler picks, every issue opportunity, one resident wavefront whose
next instruction is ready and feeds it to the PE array.  The policy is
round-robin among ready wavefronts (the FGPU policy), which is what lets the
memory latency of one wavefront hide behind the arithmetic of the others.

The earliest-ready time — the compute unit's next event time, consulted by
the simulator's event heap on every scheduling decision — is cached and only
recomputed after a mutation (add/remove/ready-time update) instead of being
rebuilt with a ``min()`` scan over all residents on every call.  Code that
changes a resident's ``ready_time`` directly must call
:meth:`WavefrontScheduler.notify_ready_changed`; :meth:`select` also
invalidates the cache because callers conventionally reschedule the
wavefront they selected.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional

from repro.errors import SimulationError
from repro.simt.wavefront import Wavefront

_INFINITY = float("inf")


class WavefrontScheduler:
    """Round-robin scheduler over the wavefronts resident in one CU."""

    def __init__(self) -> None:
        self._order: Deque[Wavefront] = deque()
        self._earliest = _INFINITY
        self._earliest_valid = True
        self._active = 0
        self._active_valid = True

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, wavefront: Wavefront) -> bool:
        return wavefront in self._order

    @property
    def resident(self) -> List[Wavefront]:
        """Wavefronts currently resident, in scheduling order."""
        return list(self._order)

    def add(self, wavefront: Wavefront) -> None:
        """Register a newly dispatched wavefront."""
        if wavefront in self._order:
            raise SimulationError(
                f"wavefront {wavefront.wavefront_id} is already resident in this CU"
            )
        self._order.append(wavefront)
        self._earliest_valid = False
        self._active_valid = False

    def add_all(self, wavefronts: Iterable[Wavefront]) -> None:
        """Register several wavefronts at once."""
        for wavefront in wavefronts:
            self.add(wavefront)

    def remove(self, wavefront: Wavefront) -> None:
        """Retire a finished wavefront."""
        try:
            self._order.remove(wavefront)
        except ValueError as exc:
            raise SimulationError(
                f"wavefront {wavefront.wavefront_id} is not resident in this CU"
            ) from exc
        self._earliest_valid = False
        self._active_valid = False

    def notify_ready_changed(self) -> None:
        """Invalidate the cached earliest-ready time after external updates.

        The active count is deliberately left intact: ``Wavefront.done`` only
        changes through ``Wavefront.retire``, and every retirement is
        followed by :meth:`remove`, which invalidates the count.  Ready-time
        updates happen once per scheduling event, so recounting the residents
        there cost a full scan per issued instruction for nothing.
        """
        self._earliest_valid = False

    def active_count(self) -> int:
        """Number of unfinished resident wavefronts (cached like the min)."""
        if not self._active_valid:
            self._active = sum(1 for wavefront in self._order if not wavefront.done)
            self._active_valid = True
        return self._active

    def set_earliest(self, value: float) -> None:
        """Install an exactly-known earliest-ready time.

        The compute unit's issue loop already knows the minimum over the
        residents at the end of an ordinary scheduling event (it tracked the
        other residents' earliest ready time for macro-stepping and changed
        only the issuing wavefront), so it hands the value over instead of
        triggering a rescan per event.
        """
        self._earliest = value
        self._earliest_valid = True

    def earliest_ready(self) -> float:
        """Ready time of the wavefront that becomes schedulable first."""
        if not self._earliest_valid:
            earliest = _INFINITY
            for wavefront in self._order:
                if not wavefront.done and wavefront.ready_time < earliest:
                    earliest = wavefront.ready_time
            self._earliest = earliest
            self._earliest_valid = True
        return self._earliest

    def earliest_ready_excluding(self, excluded: Wavefront) -> float:
        """Earliest ready time among the *other* unfinished residents.

        Used by the compute unit's macro-stepping fast path: the selected
        wavefront may keep issuing back-to-back only while it stays strictly
        ahead of every other resident.
        """
        earliest = _INFINITY
        for wavefront in self._order:
            if (
                wavefront is not excluded
                and not wavefront.done
                and wavefront.ready_time < earliest
            ):
                earliest = wavefront.ready_time
        return earliest

    def select(self, now: float) -> Optional[Wavefront]:
        """Pick the next wavefront with ``ready_time <= now`` (round robin).

        The selected wavefront is rotated to the back of the order so ready
        wavefronts share the issue bandwidth fairly.
        """
        order = self._order
        for position, wavefront in enumerate(order):
            if not wavefront.done and wavefront.ready_time <= now:
                # One rotation with the same end state as rotating each
                # probed wavefront to the back individually.
                order.rotate(-(position + 1))
                # The caller is about to issue for (and therefore delay) the
                # selected wavefront, so the cached minimum goes stale.
                self._earliest_valid = False
                return wavefront
        return None
