"""Wavefront scheduler of a compute unit.

The WF scheduler picks, every issue opportunity, one resident wavefront whose
next instruction is ready and feeds it to the PE array.  The policy is
round-robin among ready wavefronts (the FGPU policy), which is what lets the
memory latency of one wavefront hide behind the arithmetic of the others.

Round robin is a cyclic key per resident and a pointer just after the last
pick's key.  Among the residents ready at ``now``, the pick is the one whose
key comes first from the pointer.  An admission renumbers the keys from the
pointer and gives the newcomers the last ones, so they queue behind every
resident.  :meth:`WavefrontScheduler.pick` applies that rule and also returns
the other residents' earliest ready time (the compute unit's macro-stepping
bound); :meth:`select` is the pick alone.

The residents are kept in :attr:`WavefrontScheduler.residents`, a list
sorted by ready time in which only the head may be stale: it is the last
pick, whose ready time the compute unit raises after issuing for it.  So
the earliest ready time is the smaller of the first two entries, and when
the head is the only resident ready at ``now`` it is the pick, with no scan
at all.  ``ComputeUnit.step`` makes that common pick inline and re-seats a
wavefront that yields; ties go through :meth:`pick`.  Only that pick's
ready time may change without notice, and only until the residents are
re-sorted (:meth:`notify_ready_changed`, an admission): every other change
must be followed by :meth:`notify_ready_changed`, which re-sorts.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simt.wavefront import Wavefront

_INFINITY = float("inf")
_READY_TIME = attrgetter("ready_time")


class WavefrontScheduler:
    """Round-robin scheduler over the wavefronts resident in one CU."""

    def __init__(self) -> None:
        #: Residents by ready time; only the head may be stale (see above).
        self.residents: List[Wavefront] = []
        #: The wavefront picked last, whose key the pointer follows.
        self.last_pick: Optional[Wavefront] = None
        self._keys: Dict[Wavefront, int] = {}
        self._cycle = 1  # every key is below it; distances are modulo it
        self._pointer = 0  # the pointer while ``last_pick`` is None

    def __len__(self) -> int:
        return len(self.residents)

    def add(self, wavefront: Wavefront) -> None:
        """Register a newly dispatched wavefront."""
        self.add_all((wavefront,))

    def add_all(self, wavefronts: Iterable[Wavefront]) -> None:
        """Register newly dispatched wavefronts, last in round-robin order."""
        pointer = self._pointer_key()
        cycle = self._cycle
        # Each resident's key becomes its distance from the pointer, which
        # keeps the order and moves the pointer to 0; the newcomers' keys
        # come after every one of those.
        keys = {resident: (key - pointer) % cycle for resident, key in self._keys.items()}
        added = []
        for wavefront in wavefronts:
            if wavefront in keys:
                raise SimulationError(
                    f"wavefront {wavefront.wavefront_id} is already resident in this CU"
                )
            keys[wavefront] = cycle
            cycle += 1
            added.append(wavefront)
        self._keys = keys
        self._cycle = cycle
        self._pointer = 0
        self.last_pick = None
        self.residents.extend(added)
        self.residents.sort(key=_READY_TIME)

    def remove(self, wavefront: Wavefront) -> None:
        """Retire a finished wavefront."""
        keys = self._keys
        if wavefront not in keys:
            raise SimulationError(f"wavefront {wavefront.wavefront_id} is not resident in this CU")
        if wavefront is self.last_pick:
            self._pointer = keys[wavefront] + 1
            self.last_pick = None
        del keys[wavefront]
        self.residents.remove(wavefront)

    def notify_ready_changed(self) -> None:
        """Re-sort after ready times other than the last pick's changed."""
        self.residents.sort(key=_READY_TIME)

    def active_count(self) -> int:
        """Number of unfinished resident wavefronts."""
        return sum(1 for wavefront in self.residents if not wavefront.done)

    def earliest_ready(self) -> float:
        """Ready time of the wavefront that becomes schedulable first.

        Behind a possibly stale head the residents are sorted, so the
        earliest of the first two unfinished entries is the earliest of all.
        """
        earliest = _INFINITY
        seen = 0
        for wavefront in self.residents:
            if not wavefront.done:
                if wavefront.ready_time < earliest:
                    earliest = wavefront.ready_time
                seen += 1
                if seen == 2:
                    break
        return earliest

    def earliest_ready_excluding(self, excluded: Wavefront) -> float:
        """Earliest ready time among the *other* unfinished residents.

        :meth:`pick` returns the same value for the wavefront it picks.
        """
        earliest = _INFINITY
        for wavefront in self.residents:
            if (
                wavefront is not excluded
                and not wavefront.done
                and wavefront.ready_time < earliest
            ):
                earliest = wavefront.ready_time
        return earliest

    def pick(self, now: float) -> Tuple[Optional[Wavefront], float]:
        """Take the next wavefront with ``ready_time <= now`` (round robin).

        Returns the unfinished resident that is ready at ``now`` and whose key
        comes first from the pointer (``None`` if none is ready), and the
        earliest ready time among the *other* unfinished residents.  The pick
        moves the pointer past its key and becomes the head of
        :attr:`residents`, so ready wavefronts share the issue bandwidth
        fairly.
        """
        residents = self.residents
        if len(residents) > 1 and residents[0].ready_time > residents[1].ready_time:
            residents.sort(key=_READY_TIME)  # seats the stale head
        keys = self._keys
        pointer = self._pointer_key()
        cycle = self._cycle
        picked = None
        nearest = cycle
        for wavefront in residents:
            if wavefront.ready_time > now:
                break
            if not wavefront.done:
                distance = (keys[wavefront] - pointer) % cycle
                if distance < nearest:
                    picked, nearest = wavefront, distance
        others = _INFINITY
        for wavefront in residents:
            if wavefront is not picked and not wavefront.done:
                others = wavefront.ready_time
                break
        if picked is not None:
            residents.remove(picked)
            residents.insert(0, picked)
            self.last_pick = picked
        return picked, others

    def select(self, now: float) -> Optional[Wavefront]:
        """:meth:`pick` without the other residents' earliest ready time."""
        return self.pick(now)[0]

    def _pointer_key(self) -> int:
        """The round-robin pointer: the key just after the last pick's."""
        if self.last_pick is not None:
            return self._keys[self.last_pick] + 1
        return self._pointer
