"""Wavefront scheduler and workgroup dispatcher."""

from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arch.config import GGPUConfig
from repro.arch.kernel import NDRange
from repro.errors import SimulationError
from repro.simt.dispatcher import WorkgroupDispatcher
from repro.simt.scheduler import WavefrontScheduler
from repro.simt.wavefront import Wavefront


def _wavefront(index: int, ready: float = 0.0) -> Wavefront:
    wavefront = Wavefront(index, 0, 0, 64, 32, NDRange(64, 64))
    wavefront.ready_time = ready
    return wavefront


def test_round_robin_selection():
    scheduler = WavefrontScheduler()
    first, second = _wavefront(0), _wavefront(1)
    scheduler.add_all([first, second])
    picks = [scheduler.select(0.0).wavefront_id for _ in range(4)]
    assert picks == [0, 1, 0, 1]


def test_select_skips_unready_and_done_wavefronts():
    scheduler = WavefrontScheduler()
    ready = _wavefront(0, ready=5.0)
    busy = _wavefront(1, ready=50.0)
    finished = _wavefront(2)
    finished.done = True
    scheduler.add_all([ready, busy, finished])
    assert scheduler.select(10.0) is ready
    assert scheduler.select(1.0) is None
    assert scheduler.earliest_ready() == 5.0


def test_duplicate_add_and_missing_remove_raise():
    scheduler = WavefrontScheduler()
    wavefront = _wavefront(0)
    scheduler.add(wavefront)
    with pytest.raises(SimulationError):
        scheduler.add(wavefront)
    scheduler.remove(wavefront)
    with pytest.raises(SimulationError):
        scheduler.remove(wavefront)
    assert scheduler.earliest_ready() == float("inf")


def test_dispatcher_expands_workgroups_into_wavefronts():
    config = GGPUConfig(num_cus=2)
    dispatcher = WorkgroupDispatcher(config, NDRange(1024, 256))
    assert dispatcher.wavefronts_per_workgroup == 4
    assert dispatcher.pending_workgroups == 4
    wavefronts = dispatcher.dispatch()
    assert len(wavefronts) == 4
    assert {wf.workgroup_id for wf in wavefronts} == {0}
    assert [wf.index_in_workgroup for wf in wavefronts] == [0, 1, 2, 3]


def test_initial_assignment_round_robins_over_cus():
    config = GGPUConfig(num_cus=2)
    dispatcher = WorkgroupDispatcher(config, NDRange(1024, 256))
    assignment = dispatcher.initial_assignment(2)
    assert len(assignment) == 2
    # Each CU can hold 2 workgroups of 4 wavefronts (8 resident wavefronts).
    assert all(len(wavefronts) == 8 for wavefronts in assignment)
    assert not dispatcher.has_pending()


def test_refill_respects_capacity():
    config = GGPUConfig(num_cus=1)
    dispatcher = WorkgroupDispatcher(config, NDRange(2048, 256))
    dispatcher.initial_assignment(1)
    assert dispatcher.refill(8, now=10.0) is None  # CU already full
    refill = dispatcher.refill(4, now=10.0)
    assert refill is not None and all(wf.ready_time == 10.0 for wf in refill)


def test_earliest_ready_cache_tracks_mutations():
    scheduler = WavefrontScheduler()
    first, second = _wavefront(0, ready=4.0), _wavefront(1, ready=9.0)
    scheduler.add_all([first, second])
    assert scheduler.earliest_ready() == 4.0
    assert scheduler.active_count() == 2
    first.ready_time = 20.0
    scheduler.notify_ready_changed()
    assert scheduler.earliest_ready() == 9.0
    assert scheduler.earliest_ready_excluding(second) == 20.0
    scheduler.remove(second)
    assert scheduler.earliest_ready() == 20.0
    assert scheduler.active_count() == 1


def test_select_invalidates_cached_earliest():
    """The caller raises the last pick's ready time without telling the
    scheduler, which leaves a stale head in front of the sorted residents."""
    scheduler = WavefrontScheduler()
    alone = _wavefront(0, ready=2.0)
    scheduler.add(alone)
    assert scheduler.earliest_ready() == 2.0
    picked = scheduler.select(5.0)
    assert picked is alone
    # The conventional caller pattern: reschedule the selected wavefront.
    picked.ready_time = 30.0
    assert scheduler.earliest_ready() == 30.0

    scheduler = WavefrontScheduler()
    first, second, third = _wavefront(0, ready=2.0), _wavefront(1, ready=7.0), _wavefront(2, ready=9.0)
    scheduler.add_all([first, second, third])
    assert scheduler.pick(5.0) == (first, 7.0)
    first.ready_time = 30.0
    assert scheduler.earliest_ready() == 7.0
    assert scheduler.pick(8.0) == (second, 9.0)
    second.ready_time = 8.0  # still the earliest
    assert scheduler.earliest_ready() == 8.0
    second.ready_time = 40.0
    assert scheduler.earliest_ready() == 9.0
    assert scheduler.pick(50.0) == (third, 30.0)
    third.ready_time = 45.0
    assert scheduler.earliest_ready() == 30.0
    assert scheduler.pick(50.0) == (first, 40.0)  # round robin among all three


class _DequeScheduler:
    """The scheduler as a deque scanned on every pick, as before the sorted
    residents: the first ready resident in deque order is the pick, which is
    then rotated to the back, and admissions append at the back."""

    def __init__(self) -> None:
        self.order = deque()

    def add_all(self, wavefronts) -> None:
        self.order.extend(wavefronts)

    def remove(self, wavefront) -> None:
        self.order.remove(wavefront)

    def earliest_ready(self) -> float:
        return min(
            (wavefront.ready_time for wavefront in self.order if not wavefront.done),
            default=float("inf"),
        )

    def pick(self, now: float):
        picked, position, others = None, 0, float("inf")
        for index, wavefront in enumerate(self.order):
            if wavefront.done:
                continue
            if picked is None and wavefront.ready_time <= now:
                picked, position = wavefront, index
            else:
                others = min(others, wavefront.ready_time)
        if picked is not None:
            self.order.rotate(-(position + 1))
        return picked, others


# Ready times are small integers, so residents tie often.
READY = st.integers(0, 6).map(float)
SCHEDULER_OPERATIONS = st.lists(
    st.one_of(
        # Admit a batch with these ready times.
        st.tuples(st.just("admit"), st.lists(READY, min_size=1, max_size=4)),
        # Pick this long after the earliest ready time (negative: none is
        # ready), the way ComputeUnit.step does when the head is alone.
        st.tuples(st.just("pick"), st.sampled_from((0.0, 0.0, 0.0, 1.0, 3.0, -1.0)), st.booleans()),
        # Raise the ready time of the wavefront picked last, without notice,
        # as the compute unit does when it issues for it: only until the
        # next barrier, admission or retirement.
        st.tuples(st.just("issue"), st.integers(0, 5).map(float)),
        # A barrier: park these residents at inf, or release them at a time,
        # then notify.
        st.tuples(
            st.just("barrier"),
            st.lists(st.integers(0, 7), min_size=1, max_size=4),
            st.one_of(READY, st.just(float("inf"))),
        ),
        # Retire a resident: mark it done (picks skip it), then remove it.
        st.tuples(st.just("retire"), st.integers(0, 7), st.booleans()),
    ),
    min_size=1,
    max_size=40,
)


@given(operations=SCHEDULER_OPERATIONS)
@example(operations=[("admit", [0.0, 0.0, 0.0]), ("pick", 0.0, False), ("admit", [0.0]), ("pick", 0.0, False)])
# Round robin picks a resident behind the earliest one, which then issues.
@example(operations=[("admit", [1.0, 0.0, 1.0]), ("pick", 1.0, False), ("issue", 1.0)])
# A barrier re-sorts the residents after a pick, which then issues no more.
@example(
    operations=[
        ("admit", [0.0]),
        ("admit", [0.0] * 4),
        ("pick", 0.0, False),
        ("barrier", [0, 4], 1.0),
        ("issue", 1.0),
        ("pick", 0.0, False),
    ]
)
# The last pick retires: round robin goes on after its key.
@example(
    operations=[
        ("admit", [0.0] * 4),
        ("pick", 0.0, False),
        ("pick", 0.0, False),
        ("retire", 3, True),
        ("pick", 0.0, False),
    ]
)
@example(
    operations=[
        ("admit", [0.0, 1.0]),
        ("pick", 0.0, True),
        ("issue", 5.0),
        ("barrier", [1], float("inf")),
        ("pick", 0.0, True),
        ("barrier", [0, 1], 3.0),
        ("pick", 0.0, False),
        ("retire", 0, True),
        ("pick", 0.0, True),
    ]
)
@settings(max_examples=300, deadline=None)
def test_sorted_residents_match_the_deque_scan(operations):
    """The sorted residents with cyclic keys pick what the deque scan picks.

    After every operation the picks, the other residents' earliest ready
    time and ``earliest_ready`` agree, the residents behind the head stay
    sorted, and whenever the head is the only resident ready at ``now`` it
    is the scan's pick (the compute unit's inline pick, taken here the way
    ``ComputeUnit.step`` takes it when ``inline`` is drawn).
    """
    scheduler, reference = WavefrontScheduler(), _DequeScheduler()
    created = 0
    issuing = None  # the pick whose ready time may change without notice
    for kind, *arguments in operations:
        residents = list(reference.order)
        if kind != "pick" and kind != "issue":
            issuing = None
        if kind == "admit":
            batch = [_wavefront(created + offset, ready) for offset, ready in enumerate(arguments[0])]
            created += len(batch)
            scheduler.add_all(batch)
            reference.add_all(batch)
        elif kind == "pick":
            offset, inline = arguments
            now = reference.earliest_ready() + offset
            expected = reference.pick(now)
            head = scheduler.residents[0] if scheduler.residents else None
            second = (
                scheduler.residents[1].ready_time if len(scheduler.residents) > 1 else float("inf")
            )
            alone = (
                head is not None
                and head.ready_time <= now < second
                and not any(wavefront.done for wavefront in residents)
            )
            if alone:
                assert expected == (head, second)
            if alone and inline:
                scheduler.last_pick = head
            else:
                assert scheduler.pick(now) == expected
            issuing = expected[0]
        elif kind == "issue":
            if issuing is not None:
                issuing.ready_time += arguments[0]
        elif kind == "barrier":
            indices, release = arguments
            if residents:
                for index in indices:
                    residents[index % len(residents)].ready_time = release
                scheduler.notify_ready_changed()
        elif residents:
            index, remove = arguments
            wavefront = residents[index % len(residents)]
            wavefront.retire(wavefront.ready_time)
            if remove:
                scheduler.remove(wavefront)
                reference.remove(wavefront)
        assert scheduler.earliest_ready() == reference.earliest_ready()
        assert len(scheduler) == len(reference.order)
        behind = [wavefront.ready_time for wavefront in scheduler.residents[1:]]
        assert behind == sorted(behind)


def test_dispatcher_rejects_oversized_workgroups():
    config = GGPUConfig(num_cus=1)
    with pytest.raises(SimulationError):
        WorkgroupDispatcher(config, NDRange(2048, 1024))
    with pytest.raises(SimulationError):
        WorkgroupDispatcher(config, NDRange(96, 96))
    empty = WorkgroupDispatcher(config, NDRange(64, 64))
    empty.dispatch()
    with pytest.raises(SimulationError):
        empty.dispatch()
