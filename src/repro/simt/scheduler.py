"""Wavefront scheduler of a compute unit.

The WF scheduler picks, every issue opportunity, one resident wavefront whose
next instruction is ready and feeds it to the PE array.  The policy is
round-robin among ready wavefronts (the FGPU policy), which is what lets the
memory latency of one wavefront hide behind the arithmetic of the others.
The rule lives in :meth:`WavefrontScheduler.pick`, which also returns the
other residents' earliest ready time from the same pass (the compute unit's
macro-stepping bound); :meth:`select` is the pick alone.

The earliest-ready time (the compute unit's next event time) is cached and
only recomputed after a mutation.  Code that changes a resident's
``ready_time`` directly must call :meth:`notify_ready_changed` or install
the exact value with :meth:`set_earliest`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Optional, Tuple

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

        The active count stays valid: ``Wavefront.done`` only changes through
        ``Wavefront.retire``, and every retirement is followed by
        :meth:`remove`, which invalidates the count.
        """
        self._earliest_valid = False

    def active_count(self) -> int:
        """Number of unfinished resident wavefronts (cached like the min)."""
        if not self._active_valid:
            self._active = sum(1 for wavefront in self._order if not wavefront.done)
            self._active_valid = True
        return self._active

    def set_earliest(self, value: float) -> None:
        """Install an exactly-known earliest-ready time (saves a rescan)."""
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

        :meth:`pick` returns the same value for the wavefront it picks.
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

    def pick(self, now: float) -> Tuple[Optional[Wavefront], float]:
        """Take the next wavefront with ``ready_time <= now`` (round robin).

        One pass finds the first unfinished resident, in round-robin order,
        that is ready at ``now`` (``None`` if there is none) and the earliest
        ready time among the *other* unfinished residents.  The picked
        wavefront is rotated to the back of the order, so ready wavefronts
        share the issue bandwidth fairly.
        """
        order = self._order
        picked = None
        position = 0
        others = _INFINITY
        for index, wavefront in enumerate(order):
            # ``done`` is read only where it could change the outcome.
            ready = wavefront.ready_time
            if ready <= now and picked is None:
                if wavefront.done:
                    continue
                picked = wavefront
                position = index
            elif ready < others and not wavefront.done:
                others = ready
        if picked is not None:
            order.rotate(-(position + 1))
            # The caller is about to issue for (and therefore delay) the
            # picked wavefront, so the cached minimum goes stale.
            self._earliest_valid = False
        return picked, others

    def select(self, now: float) -> Optional[Wavefront]:
        """:meth:`pick` without the other residents' earliest ready time."""
        return self.pick(now)[0]
