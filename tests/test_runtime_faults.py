"""Tests for deterministic fault injection and recovery (PR 7).

The contract under test, from the module docstrings of
``repro.runtime.faults`` and ``repro.runtime.multidevice``:

* **No plan ⇒ bit-identical.**  A queue with ``faults=None`` and a queue with
  an *empty* ``FaultPlan`` produce byte-for-byte the same schedules, cycle
  statistics, and results.
* **Any plan with a survivor ⇒ bit-exact results.**  Seeded fault plans —
  transient launch drops, permanent device failures, transfer stalls,
  detected transfer corruption — may reshape the schedule and stretch the
  makespan, but every kernel result read back equals the fault-free run
  exactly.  A hypothesis fuzz drives that over randomized
  :meth:`FaultPlan.random` draws.
* **Exhausted budgets fail fast and structured.**  A command out of retries
  (or with every device dead) raises :class:`DeviceFailureError` with the
  failed event-graph slice; dependents cascade with the root chained as
  ``__cause__``; waiting on a failed event raises immediately.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arch.config import GGPUConfig
from repro.arch.kernel import NDRange
from repro.errors import ConfigurationError, DeviceFailureError
from repro.kernels import get_kernel_spec
from repro.runtime.faults import (
    DEVICE_FAIL,
    DEVICE_TRANSIENT,
    FAULT_KINDS,
    TRANSFER_CORRUPT,
    TRANSFER_STALL,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.runtime.multidevice import MultiDeviceQueue, OutOfOrderQueue

MEM = 8 * 1024 * 1024
N = 128


def _queue(num_devices=2, faults=None, cls=OutOfOrderQueue, lpt=False):
    kwargs = {
        "config": GGPUConfig(num_cus=1),
        "num_devices": num_devices,
        "memory_bytes": MEM,
        "faults": faults,
    }
    if cls is OutOfOrderQueue:
        kwargs["lpt"] = lpt
    return cls(**kwargs)


def _enqueue_copy(queue, src, dst, wait_for=(), label=None, device=None):
    kernel = get_kernel_spec("copy").build()
    return queue.enqueue(
        kernel,
        NDRange(N, 64),
        {"src": src, "dst": dst, "n": N},
        label=label,
        wait_for=wait_for,
        writes=("dst",),
        device=device,
    )


def _run_chain(queue):
    """A three-launch dependency chain; returns (queue, final host values)."""
    src = queue.create_buffer(np.arange(N))
    mid = queue.allocate_buffer(N)
    out = queue.allocate_buffer(N)
    _enqueue_copy(queue, src, mid, label="first")
    _enqueue_copy(queue, mid, out, label="second")
    _enqueue_copy(queue, out, src, label="third")
    queue.flush()
    return queue.enqueue_read(out)


def _snapshot(queue):
    """Everything the no-fault bit-identical pin compares."""
    return {
        "events": [
            (e.label, e.device, e.start_cycle, e.end_cycle, e.compute_cycles,
             e.transfer_cycles, e.readback_cycles)
            for e in queue.events
        ],
        "makespan": queue.stats.makespan,
        "total_cycles": queue.stats.total_cycles,
        "transfer_cycles": queue.stats.transfer_cycles,
        "critical_path": queue.stats.critical_path_cycles,
    }


# --------------------------------------------------------------------------- #
# FaultSpec / FaultPlan validation and determinism
# --------------------------------------------------------------------------- #
def test_fault_spec_needs_exactly_one_trigger():
    with pytest.raises(ConfigurationError):
        FaultSpec(kind=DEVICE_TRANSIENT, device=0)
    with pytest.raises(ConfigurationError):
        FaultSpec(kind=DEVICE_TRANSIENT, device=0, at_command=0, at_cycle=10.0)


def test_fault_spec_rejects_unknown_kind_and_bad_values():
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="gamma-ray", device=0, at_command=0)
    with pytest.raises(ConfigurationError):
        FaultSpec(kind=DEVICE_FAIL, device=-1, at_command=0)
    with pytest.raises(ConfigurationError):
        FaultSpec(kind=DEVICE_FAIL, device=0, at_command=-1)


def test_fault_plan_rejects_bad_budget():
    with pytest.raises(ConfigurationError):
        FaultPlan(max_retries=-1)
    with pytest.raises(ConfigurationError):
        FaultPlan(backoff_cycles=-1.0)


def test_retry_delay_is_exponential():
    plan = FaultPlan(backoff_cycles=100.0)
    assert plan.retry_delay(1) == 100.0
    assert plan.retry_delay(2) == 200.0
    assert plan.retry_delay(3) == 400.0
    assert plan.retry_delay(0) == 0.0


def test_random_plan_is_reproducible_and_keeps_a_survivor():
    for seed in range(25):
        a = FaultPlan.random(seed, num_devices=3)
        b = FaultPlan.random(seed, num_devices=3)
        assert a == b
        assert len(a.permanent_devices) < 3  # at least one survivor
    assert FaultPlan.random(1, num_devices=3) != FaultPlan.random(2, num_devices=3)


def test_injector_rejects_out_of_range_device():
    plan = FaultPlan(specs=(FaultSpec(kind=DEVICE_FAIL, device=5, at_command=0),))
    with pytest.raises(ConfigurationError):
        FaultInjector(plan, num_devices=2)


def test_each_spec_fires_at_most_once():
    plan = FaultPlan(specs=(FaultSpec(kind=DEVICE_TRANSIENT, device=0, at_command=0),))
    injector = FaultInjector(plan, num_devices=1)
    assert injector.launch_fault(0, 0.0, "a") is not None
    assert injector.launch_fault(0, 0.0, "b") is None  # consumed
    assert len(injector.fired) == 1


def test_at_cycle_trigger_fires_on_first_late_attempt():
    plan = FaultPlan(specs=(FaultSpec(kind=DEVICE_TRANSIENT, device=0, at_cycle=100.0),))
    injector = FaultInjector(plan, num_devices=1)
    assert injector.launch_fault(0, 50.0, "early") is None
    assert injector.launch_fault(0, 150.0, "late") is not None


# --------------------------------------------------------------------------- #
# No fault plan ⇒ bit-identical to PR 5 behaviour
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("lpt", [False, True])
def test_empty_plan_is_bit_identical_to_no_plan(lpt):
    baseline = _queue(lpt=lpt)
    values_base = _run_chain(baseline)
    empty = _queue(faults=FaultPlan(), lpt=lpt)
    values_empty = _run_chain(empty)
    assert np.array_equal(values_base, values_empty)
    assert _snapshot(baseline) == _snapshot(empty)
    # Fault accounting stays untouched on the no-fault path.
    for stats in (baseline.stats, empty.stats):
        assert stats.launch_faults == 0
        assert stats.launch_retries == 0
        assert stats.transfer_faults == 0
        assert stats.transfer_retries == 0
        assert stats.commands_failed == 0
        assert stats.devices_lost == 0
        assert stats.fault_cycles == 0.0
        assert stats.degraded_fraction == 0.0


def test_unfired_plan_is_bit_identical_to_no_plan():
    # A plan whose trigger never matches must not perturb the schedule.
    plan = FaultPlan(
        specs=(FaultSpec(kind=DEVICE_TRANSIENT, device=0, at_command=999),)
    )
    baseline = _queue()
    faulted = _queue(faults=plan)
    assert np.array_equal(_run_chain(baseline), _run_chain(faulted))
    assert _snapshot(baseline) == _snapshot(faulted)


def test_in_order_queue_accepts_fault_plan():
    plan = FaultPlan(specs=(FaultSpec(kind=DEVICE_TRANSIENT, device=0, at_command=0),))
    baseline = _queue(cls=MultiDeviceQueue)
    faulted = _queue(cls=MultiDeviceQueue, faults=plan)
    assert np.array_equal(_run_chain(baseline), _run_chain(faulted))
    assert faulted.stats.launch_faults == 1
    assert faulted.stats.launch_retries == 1


# --------------------------------------------------------------------------- #
# Recovery: results stay bit-exact, schedules may degrade
# --------------------------------------------------------------------------- #
def test_transient_fault_retries_and_recovers():
    plan = FaultPlan(specs=(FaultSpec(kind=DEVICE_TRANSIENT, device=0, at_command=0),))
    baseline = _queue()
    faulted = _queue(faults=plan)
    assert np.array_equal(_run_chain(baseline), _run_chain(faulted))
    assert faulted.stats.launch_faults == 1
    assert faulted.stats.launch_retries == 1
    assert faulted.stats.commands_failed == 0
    assert faulted.stats.fault_cycles > 0.0
    retried = [e for e in faulted.events if e.attempts > 1]
    assert len(retried) == 1


def test_permanent_failure_retires_device_and_migrates_work():
    plan = FaultPlan(specs=(FaultSpec(kind=DEVICE_FAIL, device=0, at_command=0),))
    baseline = _queue()
    faulted = _queue(faults=plan)
    assert np.array_equal(_run_chain(baseline), _run_chain(faulted))
    assert faulted.stats.devices_lost == 1
    assert faulted.alive_devices == [1]
    assert faulted.fault_injector.is_dead(0)
    # Every launch after the failure lands on the survivor.
    assert all(e.device == 1 for e in faulted.schedule)


def test_permanent_failure_evacuates_sole_copy_buffers():
    # Produce a dirty buffer on device 0, then kill device 0 on the *next*
    # launch attempt: the only valid copy must be salvaged host-ward before
    # the device disappears, and the dependent launch must still see it.
    plan = FaultPlan(specs=(FaultSpec(kind=DEVICE_FAIL, device=0, at_command=1),))
    queue = _queue(faults=plan)
    src = queue.create_buffer(np.arange(N))
    mid = queue.allocate_buffer(N)
    out = queue.allocate_buffer(N)
    _enqueue_copy(queue, src, mid, label="produce", device=0)
    queue.flush()
    assert not mid.host_valid and mid.valid_on == {0}
    _enqueue_copy(queue, mid, out, label="consume", device=0)
    queue.flush()
    assert queue.stats.devices_lost == 1
    assert queue.stats.evacuated_buffers >= 1
    assert np.array_equal(queue.enqueue_read(out), np.arange(N, dtype=np.uint32))


def test_transfer_stall_charges_extra_cycles():
    stall = 7_500.0
    plan = FaultPlan(
        specs=(
            FaultSpec(
                kind=TRANSFER_STALL, device=0, at_command=0, stall_cycles=stall
            ),
        )
    )
    baseline = _queue()
    faulted = _queue(faults=plan)
    assert np.array_equal(_run_chain(baseline), _run_chain(faulted))
    assert faulted.stats.transfer_faults == 1
    assert faulted.stats.fault_cycles == stall
    assert (
        faulted.stats.transfer_cycles == baseline.stats.transfer_cycles + stall
    )


def test_transfer_corruption_resends_the_copy():
    plan = FaultPlan(
        specs=(FaultSpec(kind=TRANSFER_CORRUPT, device=0, at_command=0),)
    )
    baseline = _queue()
    faulted = _queue(faults=plan)
    assert np.array_equal(_run_chain(baseline), _run_chain(faulted))
    assert faulted.stats.transfer_faults == 1
    assert faulted.stats.transfer_retries == 1
    # The re-send doubles exactly one copy's charge.
    assert faulted.stats.transfer_cycles > baseline.stats.transfer_cycles


def test_dead_device_hint_degrades_to_scheduler_placement():
    plan = FaultPlan(specs=(FaultSpec(kind=DEVICE_FAIL, device=0, at_command=0),))
    queue = _queue(faults=plan)
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    _enqueue_copy(queue, src, dst, label="kill", device=0)
    queue.flush()
    assert queue.fault_injector.is_dead(0)
    # A later launch hinted at the dead device runs on the survivor instead.
    out = queue.allocate_buffer(N)
    event = _enqueue_copy(queue, dst, out, label="hinted", device=0)
    queue.flush()
    assert event.device == 1
    assert np.array_equal(queue.enqueue_read(out), np.arange(N, dtype=np.uint32))


# --------------------------------------------------------------------------- #
# Failure paths: structured errors, cascades, Event.wait
# --------------------------------------------------------------------------- #
def _exhausting_plan(num_devices=2, max_retries=1):
    """Enough transients on every device to out-spend the retry budget."""
    specs = tuple(
        FaultSpec(kind=DEVICE_TRANSIENT, device=device, at_command=index)
        for device in range(num_devices)
        for index in range(max_retries + 2)
    )
    return FaultPlan(specs=specs, max_retries=max_retries, backoff_cycles=10.0)


def test_exhausted_retries_raise_structured_error():
    queue = _queue(faults=_exhausting_plan())
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    event = _enqueue_copy(queue, src, dst, label="doomed")
    with pytest.raises(DeviceFailureError) as excinfo:
        queue.flush()
    error = excinfo.value
    assert error.event_label == "doomed"
    assert error.attempts == 2  # max_retries=1 ⇒ two attempts
    assert "doomed" in error.graph_slice
    assert event.failed and event.error is error
    assert queue.failures == [error]
    assert queue.stats.commands_failed == 1


def test_dependents_of_a_failed_command_cascade():
    queue = _queue(faults=_exhausting_plan())
    src = queue.create_buffer(np.arange(N))
    mid = queue.allocate_buffer(N)
    out = queue.allocate_buffer(N)
    root_event = _enqueue_copy(queue, src, mid, label="root")
    dep_event = _enqueue_copy(queue, mid, out, label="dep")
    with pytest.raises(DeviceFailureError):
        queue.flush()
    assert root_event.failed and dep_event.failed
    # The dependent's error chains the root failure and never invoked the
    # simulator (the cascade is fail-fast, not a second retry storm).  Its
    # event_label names the *dependency* it failed on, pointing at the root.
    assert dep_event.error.__cause__ is root_event.error
    assert dep_event.error.event_label == "root"
    # The root's graph slice grew to cover the casualty.
    assert root_event.error.graph_slice == ("root", "dep")
    assert queue.stats.commands_failed == 2
    assert len(queue.failures) == 1  # one *root* failure


def test_wait_on_failed_event_raises_immediately():
    queue = _queue(faults=_exhausting_plan())
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    event = _enqueue_copy(queue, src, dst, label="doomed")
    with pytest.raises(DeviceFailureError):
        queue.flush()
    # The event already failed: wait() must re-raise without hanging and
    # without flushing anything new.
    with pytest.raises(DeviceFailureError) as excinfo:
        event.wait()
    assert excinfo.value is event.error


def test_wait_drives_the_queue_and_raises_for_pending_failures():
    queue = _queue(faults=_exhausting_plan())
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    event = _enqueue_copy(queue, src, dst, label="doomed")
    assert not event.settled
    with pytest.raises(DeviceFailureError):
        event.wait()  # flushes internally, then surfaces the failure
    assert event.failed


def test_wait_completes_successful_events():
    queue = _queue()
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    event = _enqueue_copy(queue, src, dst)
    event.wait()
    assert event.done and not event.failed


def test_read_of_failed_buffer_fails_fast_with_cause():
    queue = _queue(faults=_exhausting_plan())
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    event = _enqueue_copy(queue, src, dst, label="doomed")
    with pytest.raises(DeviceFailureError):
        queue.flush()
    with pytest.raises(DeviceFailureError) as excinfo:
        queue.enqueue_read(dst)
    assert excinfo.value.__cause__ is event.error


def test_rewriting_a_failed_buffer_recovers_it():
    # Writes are data-independent of failed producers: re-establishing the
    # contents from the host is the documented recovery path.
    queue = _queue(faults=_exhausting_plan())
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    _enqueue_copy(queue, src, dst, label="doomed")
    with pytest.raises(DeviceFailureError):
        queue.flush()
    queue.enqueue_write(dst, np.full(N, 7))
    assert np.array_equal(queue.enqueue_read(dst), np.full(N, 7, dtype=np.uint32))


def test_every_device_dead_fails_remaining_commands():
    plan = FaultPlan(
        specs=(
            FaultSpec(kind=DEVICE_FAIL, device=0, at_command=0),
            FaultSpec(kind=DEVICE_FAIL, device=1, at_command=0),
        ),
        max_retries=3,
    )
    queue = _queue(faults=plan)
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    _enqueue_copy(queue, src, dst, label="first")
    with pytest.raises(DeviceFailureError):
        queue.flush()
    assert queue.alive_devices == []
    # Anything enqueued afterwards fails too — with the structured error,
    # not a hang or an index crash.
    out = queue.allocate_buffer(N)
    event = _enqueue_copy(queue, src, out, label="late")
    with pytest.raises(DeviceFailureError):
        queue.flush()
    assert event.failed
    assert "every device" in str(event.error)


def test_flush_completes_independent_work_despite_a_failure():
    # Only device 0 exhausts its budget *for the hinted command*; an
    # independent launch in the same flush still runs and verifies.
    specs = tuple(
        FaultSpec(kind=DEVICE_TRANSIENT, device=0, at_command=index)
        for index in range(3)
    )
    plan = FaultPlan(specs=specs, max_retries=1, backoff_cycles=10.0)
    queue = _queue(faults=plan)
    src = queue.create_buffer(np.arange(N))
    doomed_dst = queue.allocate_buffer(N)
    ok_dst = queue.allocate_buffer(N)
    doomed = _enqueue_copy(queue, src, doomed_dst, label="doomed", device=0)
    ok = _enqueue_copy(queue, src, ok_dst, label="ok", device=1)
    with pytest.raises(DeviceFailureError):
        queue.flush()
    assert doomed.failed
    assert ok.done and not ok.failed
    assert np.array_equal(queue.enqueue_read(ok_dst), np.arange(N, dtype=np.uint32))


# --------------------------------------------------------------------------- #
# Fuzz: randomized seeded plans keep results bit-exact
# --------------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_devices=st.integers(min_value=1, max_value=4),
    num_faults=st.integers(min_value=0, max_value=6),
    max_retries=st.integers(min_value=2, max_value=4),
    lpt=st.booleans(),
)
# A retried command walks into the next command index's fault: three
# transients on device 0 once exhausted a budget of two retries.
@example(seed=362, num_devices=1, num_faults=4, max_retries=2, lpt=False)
def test_fuzz_random_plans_recover_bit_exactly(
    seed, num_devices, num_faults, max_retries, lpt
):
    plan = FaultPlan.random(
        seed,
        num_devices=num_devices,
        num_faults=num_faults,
        max_retries=max_retries,
        allow_permanent=num_devices > 1,
    )
    baseline = _queue(num_devices=num_devices, lpt=lpt)
    values_base = _run_chain(baseline)
    faulted = _queue(num_devices=num_devices, faults=plan, lpt=lpt)
    values_faulted = _run_chain(faulted)
    # Bit-exact results; the schedule may only have degraded.
    assert np.array_equal(values_base, values_faulted)
    assert faulted.stats.makespan >= baseline.stats.makespan
    assert faulted.stats.commands_failed == 0
    # Kernel compute is identical: faults never reach the simulators.
    assert faulted.stats.total_cycles == baseline.stats.total_cycles
    # Determinism: the same plan replays to the identical schedule.
    replay = _queue(num_devices=num_devices, faults=plan, lpt=lpt)
    _run_chain(replay)
    assert _snapshot(replay) == _snapshot(faulted)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fuzz_fault_kinds_cover_the_registry(seed):
    plan = FaultPlan.random(seed, num_devices=4, num_faults=8)
    for spec in plan.specs:
        assert spec.kind in FAULT_KINDS
        assert 0 <= spec.device < 4


# --------------------------------------------------------------------------- #
# PR 8 bugfix batch: accounting reconciliation, prefetch degrade, zero-safety
# --------------------------------------------------------------------------- #
def test_transfer_accounting_reconciles_with_a_fired_plan():
    """Regression: evacuation read-backs were charged to the device stats but
    to no event, so ``sum(events) == sum(device_transfer_cycles)`` broke the
    moment a ``device-fail`` salvaged a sole-copy buffer.  They now land on
    the casualty command's event (``readback_cycles``), and stall / corrupt
    charges stay on the transfer's own event."""
    plan = FaultPlan(
        specs=(
            FaultSpec(kind=TRANSFER_STALL, device=0, at_command=0, stall_cycles=500.0),
            FaultSpec(kind=TRANSFER_CORRUPT, device=1, at_command=1),
            FaultSpec(kind=DEVICE_FAIL, device=0, at_command=1),
        )
    )
    queue = _queue(num_devices=8, faults=plan)
    src = queue.create_buffer(np.arange(N))
    mid = queue.allocate_buffer(N)
    out = queue.allocate_buffer(N)
    # Dirty sole copy on device 0, then kill device 0 on the next dispatch:
    # the salvage read-back must be charged to the killing command's event.
    _enqueue_copy(queue, src, mid, label="produce", device=0)
    queue.flush()
    assert not mid.host_valid and mid.valid_on == {0}
    _enqueue_copy(queue, mid, out, label="consume", device=0)
    queue.flush()
    queue.enqueue_read(out)
    assert queue.stats.devices_lost == 1
    assert queue.stats.transfer_faults >= 1
    per_event = sum(e.transfer_cycles + e.readback_cycles for e in queue.events)
    per_device = sum(queue.stats.device_transfer_cycles.values())
    assert per_event == pytest.approx(per_device)
    assert per_event == pytest.approx(queue.stats.transfer_cycles)
    # The casualty event carries the evacuation read-back explicitly.
    consume = next(e for e in queue.events if e.label == "consume")
    assert consume.readback_cycles > 0.0
    assert np.array_equal(queue.enqueue_read(out), np.arange(N, dtype=np.uint32))


def test_dead_device_prefetch_write_degrades_like_a_launch_hint():
    """Regression: a launch hinted at a retired device degrades to scheduler
    placement, but an ``enqueue_write`` prefetch hinted at the same corpse
    re-polluted its residency (or targeted it outright).  Both hints now
    degrade through the same liveness check."""
    plan = FaultPlan(specs=(FaultSpec(kind=DEVICE_FAIL, device=0, at_command=0),))
    queue = _queue(num_devices=8, faults=plan)
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    _enqueue_copy(queue, src, dst, label="kill", device=0)
    queue.flush()
    assert queue.fault_injector.is_dead(0)
    # Prefetch hinted at the corpse: the write must degrade to a host-only
    # update instead of erroring or marking the dead device resident.
    payload = np.arange(N) + 42
    queue.enqueue_write(src, payload, device=0)
    queue.flush()
    assert 0 not in src.valid_on
    out = queue.allocate_buffer(N)
    _enqueue_copy(queue, src, out, label="consume")
    queue.flush()
    assert np.array_equal(
        queue.enqueue_read(out).astype(np.int64), payload
    )


def test_queue_stats_are_zero_safe_at_scale():
    """Regression: empty flushes with faults armed and devices that retire
    before executing anything must never divide by zero."""
    plan = FaultPlan(specs=(FaultSpec(kind=DEVICE_FAIL, device=3, at_command=0),))
    # Empty flush, faults armed: makespan 0 ⇒ every utilization is 0.0.
    idle = _queue(num_devices=8, faults=plan)
    idle.flush()
    assert idle.stats.makespan == 0.0
    assert idle.stats.utilization == 0.0
    assert idle.stats.degraded_fraction == 0.0
    assert all(value == 0.0 for value in idle.stats.device_utilization().values())
    # Device 3 dies on its first dispatch: it retires having executed
    # nothing, and its utilization reads 0.0 rather than raising.
    queue = _queue(num_devices=8, faults=plan)
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    _enqueue_copy(queue, src, dst, label="first", device=3)
    queue.flush()
    assert queue.stats.devices_lost == 1
    utilization = queue.stats.device_utilization()
    assert utilization[3] == 0.0
    assert 0.0 <= queue.stats.degraded_fraction <= 1.0
    assert np.array_equal(queue.enqueue_read(dst), np.arange(N, dtype=np.uint32))


def test_injector_surviving_filters_an_arbitrary_subset():
    plan = FaultPlan(specs=(FaultSpec(kind=DEVICE_FAIL, device=1, at_command=0),))
    injector = FaultInjector(plan, num_devices=4)
    assert injector.surviving(range(4)) == [0, 1, 2, 3]
    injector.mark_dead(1)
    assert injector.is_dead(1)
    assert injector.surviving(range(4)) == [0, 2, 3]
    assert injector.surviving([1]) == []
    assert injector.surviving([3, 2]) == [3, 2]
