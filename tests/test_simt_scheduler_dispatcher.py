"""Wavefront scheduler and workgroup dispatcher."""

import pytest

from repro.arch.config import GGPUConfig
from repro.arch.kernel import NDRange
from repro.errors import SimulationError
from repro.simt.dispatcher import WorkgroupDispatcher
from repro.simt.scheduler import WavefrontScheduler
from repro.simt.wavefront import Wavefront


def _wavefront(index: int, ready: float = 0.0) -> Wavefront:
    wavefront = Wavefront(index, 0, 0, 64, 32, 64, 64, 1)
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
    scheduler = WavefrontScheduler()
    wavefront = _wavefront(0, ready=2.0)
    scheduler.add(wavefront)
    assert scheduler.earliest_ready() == 2.0
    picked = scheduler.select(5.0)
    assert picked is wavefront
    # The conventional caller pattern: reschedule the selected wavefront.
    picked.ready_time = 30.0
    assert scheduler.earliest_ready() == 30.0


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
