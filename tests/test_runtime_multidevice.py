"""Tests for the multi-device runtime (``repro.runtime.multidevice``).

Engine-level invariants: transfer charging, buffer residency (dirty tracking,
skip accounting), deterministic device assignment, pool reuse via
``GGPUSimulator.reset`` being bit-identical to fresh construction, and the
``QueueStats`` multi-device reporting (utilization, makespan, critical path)
including its zero-launch guards.  The DAG-shaped bit-exactness pins against
in-order execution live in ``tests/test_runtime_queue.py``.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.arch.config import GGPUConfig, Topology, TransferConfig
from repro.arch.kernel import NDRange
from repro.errors import KernelError
from repro.kernels import get_kernel_spec
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.multidevice import LaunchMemo, MultiDeviceQueue, OutOfOrderQueue
from repro.runtime.queue import QueueStats
from repro.simt.gpu import GGPUSimulator

MEM = 8 * 1024 * 1024
N = 128


def _queue(cls=MultiDeviceQueue, num_devices=1, transfer=None, num_cus=1):
    return cls(
        config=GGPUConfig(num_cus=num_cus),
        num_devices=num_devices,
        memory_bytes=MEM,
        transfer=transfer,
    )


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


# --------------------------------------------------------------------------- #
# Transfer model
# --------------------------------------------------------------------------- #
def test_transfer_cycles_formula():
    model = TransferConfig(latency_cycles=100, bytes_per_cycle=8.0)
    assert model.cycles(0) == 0.0
    assert model.cycles(1) == 101.0
    assert model.cycles(8) == 101.0
    assert model.cycles(9) == 102.0
    assert model.cycles(64 * 4) == 100.0 + 32.0


def test_launch_charges_one_write_per_stale_buffer():
    transfer = TransferConfig(latency_cycles=100, bytes_per_cycle=4.0)
    queue = _queue(transfer=transfer)
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)  # zero-filled: already valid on device 0
    event = _enqueue_copy(queue, src, dst)
    queue.flush()
    per_buffer = transfer.cycles(N * 4)
    assert event.transfer_cycles == per_buffer  # only src moved
    assert queue.stats.transfers_to_device == 1
    assert queue.stats.bytes_to_device == N * 4
    assert queue.stats.transfers_skipped == 1  # dst was already resident
    assert event.start_cycle == per_buffer
    assert event.end_cycle == event.start_cycle + event.compute_cycles
    assert queue.stats.makespan == event.end_cycle


def test_residency_skips_retransfer_of_clean_buffers():
    queue = _queue()
    src = queue.create_buffer(np.arange(N))
    dst_a = queue.allocate_buffer(N)
    dst_b = queue.allocate_buffer(N)
    _enqueue_copy(queue, src, dst_a)
    queue.flush()
    to_device_before = queue.stats.transfers_to_device
    # src is now resident and clean on device 0: the second launch reusing it
    # must not pay the host→device copy again.
    _enqueue_copy(queue, src, dst_b)
    queue.flush()
    assert queue.stats.transfers_to_device == to_device_before
    assert queue.stats.transfers_skipped >= 2


def test_dirty_buffer_migrates_through_the_host():
    transfer = TransferConfig(latency_cycles=50, bytes_per_cycle=4.0)
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1), num_devices=2, memory_bytes=MEM, transfer=transfer
    )
    payload = np.arange(N) + 7
    src = queue.create_buffer(payload)
    mid = queue.allocate_buffer(N)
    dst = queue.allocate_buffer(N)
    first = _enqueue_copy(queue, src, mid, label="produce")
    queue.flush()
    producer = first.device
    # Force the consumer onto the other device: make it busy-free but strip
    # the producer's advantage by pre-loading the consumer's input there.
    consumer_event = _enqueue_copy(queue, mid, dst, wait_for=(first,), label="consume")
    queue.flush()
    if consumer_event.device != producer:
        # mid was dirty on the producer: it must have been read back and
        # re-written, charged on both timelines.
        assert queue.stats.transfers_from_device >= 1
        assert queue.stats.bytes_from_device >= N * 4
    # Whatever the placement, the data is right.
    assert np.array_equal(queue.enqueue_read(dst).astype(np.int64), payload)


def test_enqueue_read_charges_only_dirty_buffers():
    queue = _queue()
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    _enqueue_copy(queue, src, dst)
    queue.flush()
    from_device_before = queue.stats.transfers_from_device
    queue.enqueue_read(dst)  # dirty on device 0: charged
    assert queue.stats.transfers_from_device == from_device_before + 1
    queue.enqueue_read(dst)  # host image now valid: skipped
    assert queue.stats.transfers_from_device == from_device_before + 1
    queue.enqueue_read(src)  # never written by a kernel: skipped
    assert queue.stats.transfers_from_device == from_device_before + 1


# --------------------------------------------------------------------------- #
# Determinism and pool reuse
# --------------------------------------------------------------------------- #
def _schedule_digest(queue):
    return [
        (e.label, e.device, e.start_cycle, e.end_cycle, e.transfer_cycles, e.compute_cycles)
        for e in queue.schedule
    ]


def _run_independent_batch(queue):
    for index, name in enumerate(("saxpy", "dot", "copy", "transpose")):
        spec = get_kernel_spec(name)
        workload = spec.workload(N, 11)
        args = dict(workload.scalars)
        for buffer_name, contents in workload.buffers.items():
            args[buffer_name] = queue.create_buffer(
                np.asarray(contents, dtype=np.int64) & 0xFFFFFFFF
            )
        queue.enqueue(spec.build(), workload.ndrange, args, label=f"{name}#{index}")
    queue.finish()
    return queue


def test_schedule_is_deterministic_across_runs():
    first = _run_independent_batch(
        OutOfOrderQueue(config=GGPUConfig(num_cus=1), num_devices=3, memory_bytes=MEM)
    )
    second = _run_independent_batch(
        OutOfOrderQueue(config=GGPUConfig(num_cus=1), num_devices=3, memory_bytes=MEM)
    )
    assert _schedule_digest(first) == _schedule_digest(second)
    assert first.stats == second.stats


def test_reused_pool_matches_fresh_devices_bit_exactly():
    pool = [GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=MEM) for _ in range(2)]
    # Dirty the pool with a first run, then reuse it: the reset must bring
    # every simulator back to a fresh simulator's exact state.
    _run_independent_batch(OutOfOrderQueue(devices=pool))
    reused = _run_independent_batch(OutOfOrderQueue(devices=pool))
    fresh = _run_independent_batch(
        OutOfOrderQueue(config=GGPUConfig(num_cus=1), num_devices=2, memory_bytes=MEM)
    )
    assert _schedule_digest(reused) == _schedule_digest(fresh)
    assert reused.stats == fresh.stats


def test_independent_launches_spread_across_devices():
    queue = _run_independent_batch(
        OutOfOrderQueue(config=GGPUConfig(num_cus=1), num_devices=4, memory_bytes=MEM)
    )
    assert {event.device for event in queue.schedule} == {0, 1, 2, 3}
    assert queue.stats.makespan >= queue.stats.critical_path_cycles
    assert queue.stats.makespan < queue.stats.total_cycles + queue.stats.transfer_cycles


# --------------------------------------------------------------------------- #
# Queue lifetime: settled events let go of their queue
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scheduler", ["fifo", "stealing"])
def test_a_finished_queue_is_freed_without_the_cyclic_gc(scheduler):
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        queue = OutOfOrderQueue(
            config=GGPUConfig(num_cus=1), num_devices=2, memory_bytes=MEM, scheduler=scheduler
        )
        src = queue.create_buffer(np.arange(N))
        dst = queue.allocate_buffer(N)
        event = _enqueue_copy(queue, src, dst)
        queue.finish()
        assert np.array_equal(queue.enqueue_read(dst), np.arange(N, dtype=np.uint32))
        alive = weakref.ref(queue)
        del queue
        # The caller keeps the event and the buffers, never the queue.
        assert alive() is None
        assert event.done
    finally:
        if gc_was_enabled:
            gc.enable()


def test_an_unsettled_event_keeps_its_queue_until_it_runs():
    queue = _queue(cls=OutOfOrderQueue, num_devices=2)
    src = queue.create_buffer(np.arange(N))
    event = _enqueue_copy(queue, src, queue.allocate_buffer(N))
    alive = weakref.ref(queue)
    del queue
    gc.collect()
    assert alive() is not None
    event.wait()
    assert event.done and event.result.cycles > 0
    assert alive() is None


# --------------------------------------------------------------------------- #
# Validation and stats guards
# --------------------------------------------------------------------------- #
def test_queue_rejects_foreign_buffers_events_and_bad_writes():
    queue = _queue(cls=OutOfOrderQueue)
    other = _queue(cls=OutOfOrderQueue)
    kernel = get_kernel_spec("copy").build()
    foreign = other.create_buffer(np.arange(N))
    mine = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    with pytest.raises(KernelError):
        queue.enqueue(kernel, NDRange(N, 64), {"src": foreign, "dst": dst, "n": N})
    with pytest.raises(KernelError):
        queue.enqueue(kernel, NDRange(N, 64), {"src": 64, "dst": dst, "n": N})
    with pytest.raises(KernelError):
        queue.enqueue(
            kernel, NDRange(N, 64), {"src": mine, "dst": dst, "n": N}, writes=("n",)
        )
    foreign_event = _enqueue_copy(other, foreign, other.allocate_buffer(N))
    with pytest.raises(KernelError):
        _enqueue_copy(queue, mine, dst, wait_for=(foreign_event,))


def test_constructor_validation():
    with pytest.raises(KernelError):
        MultiDeviceQueue(num_devices=0)
    with pytest.raises(KernelError):
        MultiDeviceQueue(devices=[])
    with pytest.raises(KernelError):
        MultiDeviceQueue(config=GGPUConfig(), devices=[GGPUSimulator(memory_bytes=MEM)])
    # A mixed-config pool would make cycle counts depend on device assignment.
    with pytest.raises(KernelError):
        MultiDeviceQueue(
            devices=[
                GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=MEM),
                GGPUSimulator(GGPUConfig(num_cus=4), memory_bytes=MEM),
            ]
        )


def test_enqueue_write_size_mismatch():
    queue = _queue()
    buffer = queue.allocate_buffer(N)
    with pytest.raises(KernelError):
        queue.enqueue_write(buffer, np.arange(N + 1))


def test_zero_launch_stats_never_divide_by_zero():
    stats = QueueStats()
    assert stats.average_cycles_per_launch == 0.0
    assert stats.transfer_fraction == 0.0
    assert stats.utilization == 0.0
    assert stats.device_utilization() == {}

    queue = _queue(cls=OutOfOrderQueue, num_devices=2)
    assert queue.finish() == []
    assert queue.flush() == []
    assert queue.stats.makespan == 0.0
    assert queue.stats.utilization == 0.0
    assert queue.stats.device_utilization() == {0: 0.0, 1: 0.0}
    assert queue.stats.average_cycles_per_launch == 0.0


def test_in_order_queue_serializes_even_with_many_devices():
    queue = _queue(num_devices=3)
    src = queue.create_buffer(np.arange(N))
    destinations = [queue.allocate_buffer(N) for _ in range(3)]
    events = [_enqueue_copy(queue, src, dst) for dst in destinations]
    queue.flush()
    # In-order: each launch starts at or after the previous one's end.
    for earlier, later in zip(events, events[1:], strict=False):
        assert later.start_cycle >= earlier.end_cycle


# --------------------------------------------------------------------------- #
# Full-signature validation at enqueue time
# --------------------------------------------------------------------------- #
def test_enqueue_validates_the_full_kernel_signature():
    """Regression: an omitted argument used to slip through enqueue and blow
    up later inside ``GGPUSimulator.launch`` with a confusing error."""
    queue = _queue(cls=OutOfOrderQueue)
    kernel = get_kernel_spec("copy").build()
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    with pytest.raises(KernelError, match="missing argument"):
        queue.enqueue(kernel, NDRange(N, 64), {"src": src, "n": N})  # no dst
    with pytest.raises(KernelError, match="missing argument"):
        queue.enqueue(kernel, NDRange(N, 64), {"src": src, "dst": dst})  # no n
    with pytest.raises(KernelError, match="no argument"):
        queue.enqueue(
            kernel, NDRange(N, 64), {"src": src, "dst": dst, "n": N, "bogus": 1}
        )
    with pytest.raises(KernelError, match="scalar"):
        queue.enqueue(kernel, NDRange(N, 64), {"src": src, "dst": dst, "n": src})
    # Nothing was enqueued by the rejected calls: only the buffer-creation
    # write command is pending.
    assert queue.pending == 1 and queue.stats.launches == 0
    event = queue.enqueue(kernel, NDRange(N, 64), {"src": src, "dst": dst, "n": N})
    queue.flush()
    assert event.done


# --------------------------------------------------------------------------- #
# First-class transfer commands
# --------------------------------------------------------------------------- #
def test_create_buffer_no_longer_drains_pending_launches():
    """Regression: buffer creation used to flush the whole queue, serializing
    DAG construction in an out-of-order queue."""
    queue = _queue(cls=OutOfOrderQueue, num_devices=2)
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    _enqueue_copy(queue, src, dst)
    pending_before = queue.pending
    another = queue.create_buffer(np.arange(N) + 5)
    # The launch is still pending (plus the new write command); nothing ran.
    assert queue.pending == pending_before + 1
    assert queue.schedule == []
    assert queue.stats.launches == 0
    queue.flush()
    assert np.array_equal(queue.enqueue_read(dst).astype(np.int64), np.arange(N))
    assert np.array_equal(queue.enqueue_read(another).astype(np.int64), np.arange(N) + 5)


def test_enqueue_write_returns_a_waitable_event():
    queue = _queue(cls=OutOfOrderQueue, num_devices=2)
    buffer = queue.allocate_buffer(N)
    write = queue.enqueue_write(buffer, np.arange(N))
    assert write.kind == "write" and not write.done
    dst = queue.allocate_buffer(N)
    event = _enqueue_copy(queue, buffer, dst, wait_for=(write,))
    queue.flush()
    assert write.done and event.done
    assert event.start_cycle >= write.end_cycle
    assert np.array_equal(queue.enqueue_read(dst).astype(np.int64), np.arange(N))


def test_pending_launches_read_the_contents_they_were_enqueued_against():
    """An enqueue_write between two launches is ordered by hazard edges, not
    by a queue drain: the earlier launch still sees the old contents."""
    queue = _queue(cls=OutOfOrderQueue)
    src = queue.create_buffer(np.arange(N))
    first_dst = queue.allocate_buffer(N)
    second_dst = queue.allocate_buffer(N)
    _enqueue_copy(queue, src, first_dst, label="old-contents")
    queue.enqueue_write(src, np.arange(N) + 1000)
    _enqueue_copy(queue, src, second_dst, label="new-contents")
    assert queue.stats.launches == 0  # nothing drained early
    queue.flush()
    assert np.array_equal(queue.enqueue_read(first_dst).astype(np.int64), np.arange(N))
    assert np.array_equal(
        queue.enqueue_read(second_dst).astype(np.int64), np.arange(N) + 1000
    )


def test_transfer_accounting_reconciles_events_with_device_stats():
    """Regression: read-backs charged to the source device's DMA engine were
    invisible in the per-event totals.  ``Event.readback_cycles`` closes the
    gap: summed with ``transfer_cycles`` over *all* events (launches, writes,
    reads) it equals the per-device stats totals exactly."""
    transfer = TransferConfig(latency_cycles=50, bytes_per_cycle=4.0)
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1), num_devices=2, memory_bytes=MEM, transfer=transfer
    )
    src = queue.create_buffer(np.arange(N))
    mid = queue.allocate_buffer(N)
    dst = queue.allocate_buffer(N)
    produce = _enqueue_copy(queue, src, mid, label="produce")
    _enqueue_copy(queue, mid, dst, wait_for=(produce,), label="consume")
    queue.flush()
    queue.enqueue_read(dst)  # dirty: charges a read-back on a read event
    queue.enqueue_read(dst)  # host image valid: free
    per_event = sum(e.transfer_cycles + e.readback_cycles for e in queue.events)
    per_device = sum(queue.stats.device_transfer_cycles.values())
    assert per_event == pytest.approx(per_device)
    assert per_event == pytest.approx(queue.stats.transfer_cycles)
    # The launch-side readbacks (if any) sit on launch events, the
    # enqueue_read ones on read events.
    read_events = [e for e in queue.events if e.kind == "read"]
    assert len(read_events) == 2
    assert read_events[0].readback_cycles == transfer.cycles(N * 4)
    assert read_events[1].readback_cycles == 0.0


# --------------------------------------------------------------------------- #
# Peer-to-peer transfers
# --------------------------------------------------------------------------- #
def test_p2p_moves_dirty_buffers_without_the_host_bounce():
    fabric = Topology.flat(2, 10, 32.0)
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=2,
        memory_bytes=MEM,
        transfer=TransferConfig(latency_cycles=50, bytes_per_cycle=4.0),
        topology=fabric,
    )
    payload = np.arange(N) + 7
    src = queue.create_buffer(payload)
    mid = queue.allocate_buffer(N)
    dst = queue.allocate_buffer(N)
    # Force the hand-off: producer on device 0, consumer on device 1.
    produce = _enqueue_copy(queue, src, mid, label="produce", device=0)
    consume = _enqueue_copy(queue, mid, dst, wait_for=(produce,), label="consume", device=1)
    queue.flush()
    assert produce.device == 0 and consume.device == 1
    # The dirty intermediate moved directly device->device: one P2P copy,
    # zero read-backs, and the host image stayed stale until the final read.
    assert queue.stats.transfers_p2p == 1
    assert queue.stats.bytes_p2p == N * 4
    assert queue.stats.transfers_from_device == 0
    assert consume.transfer_cycles >= fabric.p2p_cycles(0, 1, N * 4)
    assert not mid.host_valid and mid.valid_on == {0, 1}
    assert np.array_equal(queue.enqueue_read(dst).astype(np.int64), payload)
    # Reading dst (dirty on device 1) charges exactly one read-back.
    assert queue.stats.transfers_from_device == 1


@pytest.mark.parametrize("stall", [None, 77.0])
def test_a_p2p_hop_holds_both_dma_engines_and_is_charged_to_the_destination(stall):
    fabric = Topology.flat(2, 10, 32.0)
    host = TransferConfig(latency_cycles=50, bytes_per_cycle=4.0)
    specs = () if stall is None else (
        FaultSpec(kind="transfer-stall", device=1, at_command=0, stall_cycles=stall),
    )
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=2,
        memory_bytes=MEM,
        transfer=host,
        topology=fabric,
        faults=FaultPlan(specs=specs),
    )
    src = queue.create_buffer(np.arange(N))
    mid = queue.allocate_buffer(N)
    dst = queue.allocate_buffer(N)
    produce = _enqueue_copy(queue, src, mid, label="produce", device=0)
    _enqueue_copy(queue, mid, dst, wait_for=(produce,), label="consume", device=1)
    queue.flush()
    hop = fabric.p2p_cycles(0, 1, N * 4) + (stall or 0.0)
    # Device 0 pays its input write; the hop, stall included, is charged to
    # the destination and holds both DMA engines from the producer's end.
    assert queue.stats.device_transfer_cycles == {0: host.cycles(N * 4), 1: hop}
    assert queue._dma_available == [produce.end_cycle + hop] * 2
    fired = [(record.device, record.label) for record in queue.fault_injector.fired]
    assert fired == ([] if stall is None else [(1, f"p2p:{mid.handle}")])
    # A read-back extends the makespan past the last launch.
    queue.enqueue_read(dst)
    assert queue.stats.makespan == queue.schedule[-1].end_cycle + host.cycles(N * 4)


def test_p2p_is_cheaper_than_the_host_bounce_on_the_same_dag():
    host = TransferConfig(latency_cycles=200, bytes_per_cycle=4.0)
    makespans = {}
    for name, topology in (("host", None), ("p2p", Topology.flat(2, 20, 32.0))):
        queue = OutOfOrderQueue(
            config=GGPUConfig(num_cus=1),
            num_devices=2,
            memory_bytes=MEM,
            transfer=host,
            topology=topology,
        )
        src = queue.create_buffer(np.arange(N))
        mid = queue.allocate_buffer(N)
        dst = queue.allocate_buffer(N)
        produce = _enqueue_copy(queue, src, mid, label="produce")
        _enqueue_copy(queue, mid, dst, wait_for=(produce,), label="consume", device=1)
        queue.flush()
        makespans[name] = queue.stats.makespan
        assert np.array_equal(queue.enqueue_read(dst).astype(np.int64), np.arange(N))
    assert makespans["p2p"] < makespans["host"]


# --------------------------------------------------------------------------- #
# Prefetch and scheduling hints
# --------------------------------------------------------------------------- #
def test_prefetch_write_charges_at_write_time_and_consumer_skips():
    queue = _queue(cls=OutOfOrderQueue, num_devices=2)
    payload = np.arange(N) + 3
    buffer = queue.create_buffer(payload, device=1)
    dst = queue.allocate_buffer(N)
    launch = _enqueue_copy(queue, buffer, dst, label="consume", device=1)
    queue.flush()
    write = next(e for e in queue.events if e.kind == "write")
    assert write.device == 1
    assert write.transfer_cycles == queue.transfer.cycles(N * 4)
    assert write.end_cycle == write.start_cycle + write.transfer_cycles
    # The consumer found the buffer resident: no lazy copy for it...
    assert launch.transfer_cycles == 0.0
    # ...and it could not start before the prefetch landed.
    assert launch.start_cycle >= write.end_cycle
    assert np.array_equal(queue.enqueue_read(dst).astype(np.int64), payload)


def test_device_affinity_hint_forces_placement():
    queue = _queue(cls=OutOfOrderQueue, num_devices=3)
    src = queue.create_buffer(np.arange(N))
    events = []
    for device in (2, 0, 1):
        dst = queue.allocate_buffer(N)
        events.append(_enqueue_copy(queue, src, dst, label=f"on{device}", device=device))
    queue.flush()
    assert [event.device for event in events] == [2, 0, 1]
    with pytest.raises(KernelError):
        _enqueue_copy(queue, src, queue.allocate_buffer(N), device=3)
    with pytest.raises(KernelError):
        queue.create_buffer(np.arange(N), device=-1)


def test_lpt_flush_order_runs_long_launches_first():
    big_n = 4 * N
    results = {}
    for lpt in (False, True):
        queue = OutOfOrderQueue(
            config=GGPUConfig(num_cus=1),
            num_devices=1,
            memory_bytes=MEM,
            scheduler="lpt" if lpt else "fifo",
        )
        kernel = get_kernel_spec("copy").build()
        small_src = queue.create_buffer(np.arange(N))
        small_dst = queue.allocate_buffer(N)
        big_src = queue.create_buffer(np.arange(big_n))
        big_dst = queue.allocate_buffer(big_n)
        queue.enqueue(
            kernel,
            NDRange(N, 64),
            {"src": small_src, "dst": small_dst, "n": N},
            label="small",
            writes=("dst",),
        )
        queue.enqueue(
            kernel,
            NDRange(big_n, 64),
            {"src": big_src, "dst": big_dst, "n": big_n},
            label="big",
            writes=("dst",),
        )
        queue.finish()
        results[lpt] = [event.label for event in queue.schedule]
        assert np.array_equal(
            queue.enqueue_read(big_dst).astype(np.int64), np.arange(big_n)
        )
        assert np.array_equal(
            queue.enqueue_read(small_dst).astype(np.int64), np.arange(N)
        )
    assert results[False] == ["small", "big"]  # enqueue order
    assert results[True] == ["big", "small"]  # longest projected time first


def test_lpt_respects_event_dependencies():
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1), num_devices=2, memory_bytes=MEM, scheduler="lpt"
    )
    kernel = get_kernel_spec("copy").build()
    big_n = 4 * N
    src = queue.create_buffer(np.arange(N))
    mid = queue.allocate_buffer(N)
    dst = queue.allocate_buffer(N)
    big_src = queue.create_buffer(np.arange(big_n))
    big_dst = queue.allocate_buffer(big_n)
    first = _enqueue_copy(queue, src, mid, label="first")
    second = _enqueue_copy(queue, mid, dst, wait_for=(first,), label="second")
    queue.enqueue(
        kernel,
        NDRange(big_n, 64),
        {"src": big_src, "dst": big_dst, "n": big_n},
        label="big",
        writes=("dst",),
    )
    queue.finish()
    order = [event.label for event in queue.schedule]
    assert order.index("first") < order.index("second")
    assert order[0] == "big"  # the big independent launch jumped the queue
    assert second.start_cycle >= first.end_cycle
    assert np.array_equal(queue.enqueue_read(dst).astype(np.int64), np.arange(N))


# --------------------------------------------------------------------------- #
# Topology-aware scheduling (PR 8)
# --------------------------------------------------------------------------- #
def _shuffle_dag(queue, lanes=6):
    """A small two-stage shuffle; returns (outputs, expecteds) per lane."""
    saxpy = get_kernel_spec("saxpy").build()
    ndrange = NDRange(N, 64)
    mask = 0xFFFFFFFF
    stage1, hosts = [], []
    outs = []
    for lane in range(lanes):
        x_host = (np.arange(N, dtype=np.int64) + 17 * lane) & mask
        y_host = ((np.arange(N, dtype=np.int64) * 3 + lane) % 251) & mask
        x = queue.create_buffer(x_host)
        y = queue.create_buffer(y_host)
        out = queue.allocate_buffer(N)
        stage1.append(
            queue.enqueue(
                saxpy,
                ndrange,
                {"x": x, "y": y, "out": out, "alpha": 3, "n": N},
                label=f"s1[{lane}]",
                writes=("out",),
            )
        )
        outs.append(out)
        hosts.append((3 * x_host + y_host) & mask)
    checks = []
    for lane in range(lanes):
        peer = (lane + 1) % lanes
        out = queue.allocate_buffer(N)
        queue.enqueue(
            saxpy,
            ndrange,
            {"x": outs[lane], "y": outs[peer], "out": out, "alpha": 5, "n": N},
            label=f"s2[{lane}]",
            wait_for=(stage1[lane], stage1[peer]),
            writes=("out",),
        )
        checks.append((out, (5 * hosts[lane] + hosts[peer]) & mask))
    return checks


@pytest.mark.parametrize("scheduler", ["fifo", "lpt", "heft", "stealing"])
@pytest.mark.parametrize("topology_name", ["flat", "two-switch", "ring"])
def test_every_scheduler_topology_cell_is_bit_exact(topology_name, scheduler):
    """The standing invariant: topology and scheduler reshape the schedule
    only — kernel results and per-launch simulated cycles are bit-identical
    to the default-fabric FIFO run in every cell."""
    reference = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1), num_devices=4, memory_bytes=MEM
    )
    ref_checks = _shuffle_dag(reference)
    reference.finish()
    ref_cycles = {e.label: e.compute_cycles for e in reference.schedule}

    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=4,
        memory_bytes=MEM,
        topology=Topology.preset(topology_name, 4),
        scheduler=scheduler,
    )
    checks = _shuffle_dag(queue)
    queue.finish()
    for (out, expected), (ref_out, _) in zip(checks, ref_checks, strict=True):
        assert np.array_equal(queue.enqueue_read(out).astype(np.int64), expected)
        assert np.array_equal(
            reference.enqueue_read(ref_out).astype(np.int64), expected
        )
    assert {e.label: e.compute_cycles for e in queue.schedule} == ref_cycles


def test_topology_must_match_the_device_count():
    with pytest.raises(KernelError):
        OutOfOrderQueue(
            config=GGPUConfig(num_cus=1),
            num_devices=4,
            memory_bytes=MEM,
            topology=Topology.flat(2),
        )


def test_topology_host_override_prices_the_host_bridge():
    # With a topology attached the host bridge is still the queue's
    # TransferConfig: GGPUConfig.transfer, or transfer= when given.
    host = TransferConfig(latency_cycles=40, bytes_per_cycle=4.0)
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1, transfer=host),
        num_devices=2,
        memory_bytes=MEM,
        topology=Topology.flat(2),
    )
    assert queue.transfer == host
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    event = _enqueue_copy(queue, src, dst)
    queue.flush()
    assert event.transfer_cycles == host.cycles(N * 4)
    # An explicit transfer= wins over the config's host model.
    explicit = TransferConfig(latency_cycles=7, bytes_per_cycle=16.0)
    other = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1, transfer=host),
        num_devices=2,
        memory_bytes=MEM,
        transfer=explicit,
        topology=Topology.flat(2),
    )
    assert other.transfer == explicit


def test_topology_routes_p2p_over_the_cheapest_link():
    """With a topology attached, a dirty hand-off goes P2P over the per-pair
    link — and the nearest valid source wins on a non-uniform fabric."""
    topo = Topology.ring(4)
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=4,
        memory_bytes=MEM,
        topology=topo,
    )
    payload = np.arange(N) + 7
    src = queue.create_buffer(payload)
    mid = queue.allocate_buffer(N)
    dst = queue.allocate_buffer(N)
    produce = _enqueue_copy(queue, src, mid, label="produce", device=1)
    consume = _enqueue_copy(queue, mid, dst, wait_for=(produce,), label="consume", device=2)
    queue.finish()
    assert queue.stats.transfers_p2p == 1
    # One ring hop (1 -> 2) for N words.
    assert consume.transfer_cycles == topo.p2p_cycles(1, 2, N * 4)
    assert np.array_equal(queue.enqueue_read(dst), (payload & 0xFFFFFFFF).astype(np.uint32))


def test_prefetch_depth_retargets_input_writes():
    """With prefetch_depth > 0, an unhinted write whose consumer is pinned
    within the window turns into a prefetch onto the consumer's device."""
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=2,
        memory_bytes=MEM,
        transfer=TransferConfig(latency_cycles=50, bytes_per_cycle=4.0),
        topology=Topology.flat(2, 10, 32.0),
        prefetch_depth=4,
    )
    src = queue.create_buffer(np.arange(N))
    dst = queue.allocate_buffer(N)
    write = queue.enqueue_write(src, np.arange(N) + 5)  # no device hint
    _enqueue_copy(queue, src, dst, wait_for=(write,), label="consume", device=1)
    queue.flush()
    # The write was retargeted: the consumer found its input resident.
    assert 1 in src.valid_on
    assert np.array_equal(
        queue.enqueue_read(dst).astype(np.int64), np.arange(N) + 5
    )
    with pytest.raises(KernelError):
        OutOfOrderQueue(
            config=GGPUConfig(num_cus=1),
            num_devices=2,
            memory_bytes=MEM,
            prefetch_depth=-1,
        )


# --------------------------------------------------------------------------- #
# Launch memo: queues sharing one LaunchMemo simulate each launch once
# --------------------------------------------------------------------------- #
MASK = 0xFFFFFFFF


def _memo_queue(memo, num_cus=1):
    return OutOfOrderQueue(
        config=GGPUConfig(num_cus=num_cus), num_devices=1, memory_bytes=MEM, memo=memo
    )


def _enqueue_saxpy(queue, x, y, out, alpha, ndrange=None, wait_for=()):
    # spec.build() makes a new Kernel object per call, as the sweeps do.
    return queue.enqueue(
        get_kernel_spec("saxpy").build(),
        ndrange or NDRange(N, 64),
        {"x": x, "y": y, "out": out, "alpha": alpha, "n": N},
        wait_for=wait_for,
        writes=("out",),
    )


def test_memo_hit_skips_the_simulator_and_replays_the_outputs(simulated_launches):
    memo = LaunchMemo()
    values = np.arange(N) * 7 + 11
    first = _memo_queue(memo)
    src = first.create_buffer(values)
    mid = first.allocate_buffer(N)
    _enqueue_copy(first, src, mid)
    first.finish()
    assert simulated_launches == ["copy"]

    second = _memo_queue(memo)
    src = second.create_buffer(values)
    mid = second.allocate_buffer(N)
    out = second.allocate_buffer(N)
    produce = _enqueue_copy(second, src, mid)
    _enqueue_saxpy(second, mid, mid, out, alpha=2, wait_for=(produce,))
    second.finish()
    # The copy is a hit; the dependent saxpy is new, so it is simulated and
    # reads the copy's memoized output from the device.
    assert simulated_launches == ["copy", "saxpy"]
    assert second.schedule[0].result is first.schedule[0].result
    assert second.schedule[0].compute_cycles == first.schedule[0].compute_cycles
    assert np.array_equal(second.enqueue_read(mid).astype(np.int64), values)
    assert np.array_equal(second.enqueue_read(out).astype(np.int64), (3 * values) & MASK)


@pytest.mark.parametrize(
    "change", ["none", "input word", "output word", "scalar", "ndrange", "num_cus"]
)
def test_memo_hits_only_identical_launches(simulated_launches, change):
    memo = LaunchMemo()
    values = np.arange(N) * 3 + 1
    first = _memo_queue(memo)
    x = first.create_buffer(values)
    out = first.allocate_buffer(N)
    _enqueue_saxpy(first, x, x, out, alpha=3)
    first.finish()

    first_values = values
    if change == "input word":
        values = values.copy()
        values[5] += 1
    alpha = 4 if change == "scalar" else 3
    ndrange = NDRange(N, 128) if change == "ndrange" else None
    second = _memo_queue(memo, num_cus=2 if change == "num_cus" else 1)
    x = second.create_buffer(values)
    if change == "output word":
        # The last buffer argument's bytes count too, even though the launch
        # overwrites all of them.
        out = second.create_buffer(np.arange(N) == 7)
    else:
        out = second.allocate_buffer(N)
    _enqueue_saxpy(second, x, x, out, alpha=alpha, ndrange=ndrange)
    second.finish()
    # A kernel rebuilt by spec.build() still hits; any change misses.
    assert len(simulated_launches) == (1 if change == "none" else 2)
    expected = ((alpha + 1) * values) & MASK
    assert np.array_equal(second.enqueue_read(out).astype(np.int64), expected)

    if change == "input word":
        # Both contents now sit under one key, and each still replays its
        # own outputs: the second entry did not replace the first.
        for contents in (first_values, values):
            third = _memo_queue(memo)
            x = third.create_buffer(contents)
            out = third.allocate_buffer(N)
            _enqueue_saxpy(third, x, x, out, alpha=3)
            third.finish()
            assert np.array_equal(third.enqueue_read(out).astype(np.int64), (4 * contents) & MASK)
        assert len(simulated_launches) == 2


def test_memo_hit_then_reset_leaves_a_recycled_device_as_fresh(simulated_launches):
    """A hit writes back through ``write_buffer``, so ``reset`` clears it."""
    memo = LaunchMemo()
    pool = [GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=MEM)]
    values = np.arange(N) * 5 + 2
    for _ in range(2):
        queue = OutOfOrderQueue(devices=pool, memo=memo)
        src = queue.create_buffer(values)
        # Zero-filled and never written before the launch: on the hit, the
        # replayed image is the only write to it.
        dst = queue.allocate_buffer(N)
        _enqueue_copy(queue, src, dst)
        queue.finish()
        assert np.array_equal(queue.enqueue_read(dst).astype(np.int64), values)
    assert simulated_launches == ["copy"]
    pool[0].reset()
    for buffer in (src, dst):
        assert not pool[0].read_buffer(buffer.address, buffer.num_words).any()
