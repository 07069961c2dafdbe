"""Tests for launch reuse on one simulator and the multi-device queues.

The load-bearing invariant for reuse: a launch on a long-lived
:class:`GGPUSimulator` is bit-identical — results *and* cycle statistics —
to the same launch on a freshly built one, because reuse only amortizes
host-side setup (simulator construction, program pre-decode), never
simulated state.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arch.config import CacheConfig, GGPUConfig, Topology, TransferConfig
from repro.arch.kernel import NDRange
from repro.errors import KernelError
from repro.kernels import get_kernel_spec, run_workload
from repro.kernels.library import check_output
from repro.runtime.faults import DEVICE_TRANSIENT, FaultPlan, FaultSpec
from repro.runtime.multidevice import Event, LaunchMemo, MultiDeviceQueue, OutOfOrderQueue
from repro.runtime.queue import QueueStats
from repro.simt.gpu import GGPUSimulator

SEED = 5
SIZE = 128


def _fresh_run(name: str, num_cus: int = 1, size: int = SIZE):
    spec = get_kernel_spec(name)
    simulator = GGPUSimulator(GGPUConfig(num_cus=num_cus), memory_bytes=8 * 1024 * 1024)
    return run_workload(simulator, spec.build(), spec.workload(size, SEED), check=False)


@pytest.mark.parametrize("name", ["copy", "saxpy", "dot", "inclusive_scan"])
def test_queued_launches_match_fresh_simulators_bit_exactly(name):
    """N launches on one reused simulator == N independent runs (results and cycles)."""
    fresh_result, fresh_outputs = _fresh_run(name)

    simulator = GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=8 * 1024 * 1024)
    spec = get_kernel_spec(name)
    kernel = spec.build()
    for _ in range(3):
        result, outputs = run_workload(simulator, kernel, spec.workload(SIZE, SEED), check=False)
        assert result.cycles == fresh_result.cycles
        assert result.stats.instructions_issued == fresh_result.stats.instructions_issued
        assert result.stats.cache.accesses == fresh_result.stats.cache.accesses
        assert result.stats.cache.misses == fresh_result.stats.cache.misses
        for buffer, values in fresh_outputs.items():
            assert np.array_equal(outputs[buffer], values)


@pytest.mark.parametrize("line_bytes", [64, 128, 256])
def test_earlier_allocations_do_not_move_a_launchs_cycles(line_bytes):
    """A launch after a 16-word buffer == the same launch on a fresh simulator.

    Buffers start on a cache line at every line size, so the earlier buffer
    shifts the launch's buffers by whole lines and the cold cache sees the
    same pattern of hits and misses.
    """
    config = GGPUConfig(num_cus=1, cache=CacheConfig(line_bytes=line_bytes))
    for name in ("copy", "saxpy", "xcorr"):
        spec = get_kernel_spec(name)
        outcomes = []
        for earlier_words in (0, 16):
            simulator = GGPUSimulator(config, memory_bytes=8 * 1024 * 1024)
            if earlier_words:
                simulator.allocate_buffer(earlier_words)
            result, _ = run_workload(simulator, spec.build(), spec.workload(256, SEED))
            outcomes.append((result.cycles, result.stats.cache))
        assert outcomes[1] == outcomes[0], name


def test_queue_reuses_the_predecoded_program():
    simulator = GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=8 * 1024 * 1024)
    spec = get_kernel_spec("saxpy")
    kernel = spec.build()
    launches = 6
    for _ in range(launches):
        run_workload(simulator, kernel, spec.workload(SIZE, SEED))
    assert simulator.decode_cache_misses == 1
    assert simulator.decode_cache_hits == launches - 1
    # A different kernel object decodes once more, then hits again.
    other = spec.build()
    run_workload(simulator, other, spec.workload(SIZE, SEED))
    run_workload(simulator, other, spec.workload(SIZE, SEED))
    assert simulator.decode_cache_misses == 2
    assert simulator.decode_cache_hits == launches


def test_batch_cycles_match_independent_measurements():
    """A batch of launches drained once through one queue == per-kernel
    measurements on fresh simulators: each launch's cycles, and its outputs."""
    queue = MultiDeviceQueue(config=GGPUConfig(num_cus=2), memory_bytes=8 * 1024 * 1024)
    checks = []
    kernels = ("copy", "reduce_sum")
    for name in kernels:
        spec = get_kernel_spec(name)
        workload = spec.workload(256, SEED)
        args = dict(workload.scalars)
        buffers = {}
        for buffer_name, contents in workload.buffers.items():
            buffers[buffer_name] = queue.create_buffer(
                np.asarray(contents, dtype=np.int64) & 0xFFFFFFFF
            )
            args[buffer_name] = buffers[buffer_name]
        queue.enqueue(spec.build(), workload.ndrange, args, label=name)
        for buffer_name, expected in workload.expected.items():
            checks.append((name, buffer_name, buffers[buffer_name], expected))
    results = queue.finish()
    assert len(results) == len(kernels)
    for name, result in zip(kernels, results, strict=True):
        fresh, _ = _fresh_run(name, num_cus=2, size=256)
        assert result.cycles == fresh.cycles
    for name, buffer_name, buffer, expected in checks:
        check_output(f"queued kernel {name!r}", buffer_name, queue.enqueue_read(buffer), expected)


def test_zero_launch_queue_stats_have_no_division_by_zero():
    """Regression: every derived QueueStats metric is defined at zero launches."""
    stats = QueueStats()
    assert stats.average_cycles_per_launch == 0.0
    assert stats.transfer_fraction == 0.0
    assert stats.utilization == 0.0
    assert stats.device_utilization() == {}
    assert stats.makespan == 0.0
    assert stats.critical_path_cycles == 0.0


# --------------------------------------------------------------------------- #
# Out-of-order event dependencies, pinned against in-order execution
# --------------------------------------------------------------------------- #
# Size of the DAG tests: big enough that kernel compute dominates the (fast)
# modeled interconnect, so overlapping B and C across devices pays off.
DAG_SIZE = 512


def _build_diamond(queue):
    """A -> (B, C) -> D over saxpy/copy; returns (events, output buffer, expected)."""
    copy_kernel = get_kernel_spec("copy").build()
    saxpy = get_kernel_spec("saxpy").build()
    x_host = np.arange(DAG_SIZE, dtype=np.int64) + 3
    y_host = (np.arange(DAG_SIZE, dtype=np.int64) * 5) % 97

    x = queue.create_buffer(x_host)
    y = queue.create_buffer(y_host)
    a = queue.allocate_buffer(DAG_SIZE)
    b = queue.allocate_buffer(DAG_SIZE)
    c = queue.allocate_buffer(DAG_SIZE)
    d = queue.allocate_buffer(DAG_SIZE)
    ndr = NDRange(DAG_SIZE, 64)

    ev_a = queue.enqueue(
        copy_kernel, ndr, {"src": x, "dst": a, "n": DAG_SIZE}, label="A", writes=("dst",)
    )
    ev_b = queue.enqueue(
        saxpy,
        ndr,
        {"x": a, "y": y, "out": b, "alpha": 2, "n": DAG_SIZE},
        label="B",
        wait_for=(ev_a,),
        writes=("out",),
    )
    ev_c = queue.enqueue(
        saxpy,
        ndr,
        {"x": a, "y": y, "out": c, "alpha": 3, "n": DAG_SIZE},
        label="C",
        wait_for=(ev_a,),
        writes=("out",),
    )
    ev_d = queue.enqueue(
        saxpy,
        ndr,
        {"x": b, "y": c, "out": d, "alpha": 1, "n": DAG_SIZE},
        label="D",
        wait_for=(ev_b, ev_c),
        writes=("out",),
    )
    stage_b = (2 * x_host + y_host) & 0xFFFFFFFF
    stage_c = (3 * x_host + y_host) & 0xFFFFFFFF
    expected = (stage_b + stage_c) & 0xFFFFFFFF
    return (ev_a, ev_b, ev_c, ev_d), d, expected


def test_diamond_dag_matches_in_order_single_device_bit_exactly():
    """Out-of-order diamond over 2 devices == in-order on 1 device: results
    and per-launch simulated cycles, bit for bit."""
    # A fast interconnect, so migrating A's output to the second device is
    # cheaper than queueing behind B on the first (the default DMA-ish model
    # would correctly pin the whole diamond to one device at this tiny size).
    fast_link = TransferConfig(latency_cycles=10, bytes_per_cycle=64.0)
    in_order = MultiDeviceQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=1,
        memory_bytes=8 * 1024 * 1024,
        transfer=fast_link,
    )
    _, d_ref, expected = _build_diamond(in_order)
    in_order.finish()
    reference = in_order.enqueue_read(d_ref).astype(np.int64)
    assert np.array_equal(reference, expected)

    ooo = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=2,
        memory_bytes=8 * 1024 * 1024,
        transfer=fast_link,
    )
    events, d_out, _ = _build_diamond(ooo)
    ooo.finish()
    assert np.array_equal(ooo.enqueue_read(d_out).astype(np.int64), expected)

    # Per-launch simulated cycle counts are identical: same kernels, same
    # data, same buffer addresses (allocated in lock-step on every device).
    in_order_cycles = [event.compute_cycles for event in in_order.schedule]
    ooo_cycles = [event.compute_cycles for event in ooo.schedule]
    assert in_order_cycles == ooo_cycles

    # B and C are independent given A: with two devices they overlap...
    ev_a, ev_b, ev_c, ev_d = events
    assert {ev_b.device, ev_c.device} == {0, 1}
    assert ev_c.start_cycle < ev_b.end_cycle or ev_b.start_cycle < ev_c.end_cycle
    # ...while the event edges still hold.
    assert ev_b.start_cycle >= ev_a.end_cycle
    assert ev_c.start_cycle >= ev_a.end_cycle
    assert ev_d.start_cycle >= max(ev_b.end_cycle, ev_c.end_cycle)
    # The DAG's makespan beats the serialized in-order schedule.
    assert ooo.stats.makespan < in_order.stats.makespan


def _build_chains(queue, num_chains=2, depth=3):
    """Independent copy chains; returns (per-chain events, outputs, expecteds)."""
    copy_kernel = get_kernel_spec("copy").build()
    ndr = NDRange(SIZE, 64)
    chains, outputs, expecteds = [], [], []
    for chain in range(num_chains):
        payload = np.arange(SIZE, dtype=np.int64) + 1000 * chain
        stages = [queue.create_buffer(payload)]
        events = []
        previous = None
        for step in range(depth):
            stages.append(queue.allocate_buffer(SIZE))
            previous = queue.enqueue(
                copy_kernel,
                ndr,
                {"src": stages[-2], "dst": stages[-1], "n": SIZE},
                label=f"chain{chain}.{step}",
                wait_for=() if previous is None else (previous,),
                writes=("dst",),
            )
            events.append(previous)
        chains.append(events)
        outputs.append(stages[-1])
        expecteds.append(payload)
    return chains, outputs, expecteds


def test_independent_chains_overlap_and_match_in_order_bit_exactly():
    in_order = MultiDeviceQueue(
        config=GGPUConfig(num_cus=1), num_devices=1, memory_bytes=8 * 1024 * 1024
    )
    _, ref_outputs, expecteds = _build_chains(in_order)
    in_order.finish()
    for output, expected in zip(ref_outputs, expecteds, strict=True):
        assert np.array_equal(in_order.enqueue_read(output).astype(np.int64), expected)

    ooo = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1), num_devices=2, memory_bytes=8 * 1024 * 1024
    )
    chains, outputs, expecteds = _build_chains(ooo)
    ooo.finish()
    for output, expected in zip(outputs, expecteds, strict=True):
        assert np.array_equal(ooo.enqueue_read(output).astype(np.int64), expected)

    # Same per-launch cycles as the serialized reference, in enqueue order.
    assert [e.compute_cycles for e in ooo.schedule] == [
        e.compute_cycles for e in in_order.schedule
    ]
    # Each chain stays on one device (residency pulls dependents to their
    # producer), and the two chains run on different devices.
    chain_devices = [{event.device for event in chain} for chain in chains]
    assert all(len(devices) == 1 for devices in chain_devices)
    assert chain_devices[0] != chain_devices[1]
    # Within a chain the event order holds.
    for chain in chains:
        for earlier, later in zip(chain, chain[1:], strict=False):
            assert later.start_cycle >= earlier.end_cycle
    assert ooo.stats.makespan < in_order.stats.makespan


# --------------------------------------------------------------------------- #
# Topology-aware flush orders (PR 8)
# --------------------------------------------------------------------------- #
def _build_trap_dag(queue, depth=3, chain_size=128, fat_size=512):
    """A deep chain next to one fat independent launch — the LPT trap.

    LPT drains the fat launch first (largest projected time); HEFT ranks the
    chain head highest (its upward rank sums the whole chain) and dispatches
    it first.  Returns (labels of the chain, fat label, outputs, expecteds).
    """
    copy_kernel = get_kernel_spec("copy").build()
    chain_payload = np.arange(chain_size, dtype=np.int64)
    stages = [queue.create_buffer(chain_payload)]
    previous = None
    for step in range(depth):
        stages.append(queue.allocate_buffer(chain_size))
        previous = queue.enqueue(
            copy_kernel,
            NDRange(chain_size, 64),
            {"src": stages[-2], "dst": stages[-1], "n": chain_size},
            label=f"chain.{step}",
            wait_for=() if previous is None else (previous,),
            writes=("dst",),
        )
    fat_payload = np.arange(fat_size, dtype=np.int64) * 3
    fat_src = queue.create_buffer(fat_payload)
    fat_dst = queue.allocate_buffer(fat_size)
    queue.enqueue(
        copy_kernel,
        NDRange(fat_size, 64),
        {"src": fat_src, "dst": fat_dst, "n": fat_size},
        label="fat",
        writes=("dst",),
    )
    outputs = {"chain": stages[-1], "fat": fat_dst}
    expecteds = {"chain": chain_payload, "fat": fat_payload}
    return outputs, expecteds


def _run_trap_dag(scheduler, steal_seed=0):
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=2,
        memory_bytes=8 * 1024 * 1024,
        scheduler=scheduler,
        steal_seed=steal_seed,
    )
    outputs, expecteds = _build_trap_dag(queue)
    queue.finish()
    for name, output in outputs.items():
        assert np.array_equal(
            queue.enqueue_read(output).astype(np.int64), expecteds[name]
        )
    return queue


def test_heft_ranks_the_critical_chain_ahead_of_fat_independent_work():
    lpt = _run_trap_dag("lpt")
    heft = _run_trap_dag("heft")
    # LPT picks the fat launch first (largest size); HEFT dispatches the
    # chain head first — its upward rank carries the whole chain behind it.
    assert lpt.schedule[0].label == "fat"
    assert heft.schedule[0].label == "chain.0"
    # The chain's rank order survives into the schedule: hops in order.
    chain_positions = {
        event.label: index
        for index, event in enumerate(heft.schedule)
        if event.label.startswith("chain.")
    }
    assert chain_positions["chain.0"] < chain_positions["chain.1"] < chain_positions["chain.2"]
    # Same launches, same per-launch cycles — the scheduler only reorders.
    assert sorted(e.compute_cycles for e in lpt.schedule) == sorted(
        e.compute_cycles for e in heft.schedule
    )


def test_stealing_is_deterministic_for_a_fixed_seed():
    first = _run_trap_dag("stealing", steal_seed=7)
    second = _run_trap_dag("stealing", steal_seed=7)
    assert [
        (e.label, e.device, e.start_cycle, e.end_cycle) for e in first.schedule
    ] == [(e.label, e.device, e.start_cycle, e.end_cycle) for e in second.schedule]
    # And bit-exact versus every other flush order.
    fifo = _run_trap_dag("fifo")
    assert sorted(e.compute_cycles for e in first.schedule) == sorted(
        e.compute_cycles for e in fifo.schedule
    )


def test_scheduler_name_validation_and_lpt_compat():
    with pytest.raises(KernelError):
        OutOfOrderQueue(
            config=GGPUConfig(num_cus=1),
            num_devices=2,
            memory_bytes=8 * 1024 * 1024,
            scheduler="random",
        )
    # LPT has one spelling, the scheduler name; the default is enqueue order.
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=2,
        memory_bytes=8 * 1024 * 1024,
        scheduler="lpt",
    )
    assert queue.scheduler == "lpt"
    assert OutOfOrderQueue(config=GGPUConfig(num_cus=1)).scheduler == "fifo"


# --------------------------------------------------------------------------- #
# The one-pass flush drain against the rescanning loop it replaced
# --------------------------------------------------------------------------- #
def _rescanning_ready_order(queue, pending, pick, on_transfer=None, successors=None):
    """Reference drain: rescan every remaining command for each placement.

    The quadratic loop that ordered LPT, HEFT and stealing flushes before the
    one-pass drain, kept as the drain's oracle.  ``successors`` (the drain's
    own edge lists) is ignored.
    """
    remaining = list(pending)
    placed = set()
    order = []
    while remaining:
        ready = [
            command
            for command in remaining
            if all(wait.settled or wait.sequence in placed for wait in command.waits)
        ]
        assert ready, "event graph deadlock"
        transfers = [command for command in ready if command.kind != "launch"]
        if transfers:
            choice = min(transfers, key=lambda command: command.event.sequence)
            if on_transfer is not None:
                on_transfer(choice)
        else:
            choice = pick(ready)
        remaining.remove(choice)
        placed.add(choice.event.sequence)
        order.append(choice)
    return order


ORACLE_BUFFERS = 4
ORACLE_WORDS = 128
EVENT_FIELDS = tuple(f.name for f in fields(Event) if f.compare and f.name != "result")


@st.composite
def _command_dags(draw):
    """A queue shape and a random DAG of writes interleaved with copies.

    Copies come in two sizes only, so the stealing scheduler meets exact
    ties; ``wait_for`` edges point at any earlier command, so placing one
    command can release a later one before an earlier one.
    """
    num_devices = draw(st.integers(2, 4))
    shape = (
        num_devices,
        draw(st.sampled_from((None, "ring", "two-switch"))),
        draw(st.sampled_from((0, 2))),  # prefetch depth
        draw(st.integers(0, 3)),  # steal seed
    )
    hints = st.sampled_from((None, None, None) + tuple(range(num_devices)))
    steps = []
    for index in range(draw(st.integers(2, 10))):
        if draw(st.integers(0, 3)) == 0:
            steps.append(("write", draw(st.integers(0, ORACLE_BUFFERS - 1)), draw(hints)))
            continue
        src, dst = draw(st.permutations(range(ORACLE_BUFFERS)))[:2]
        waits = draw(st.sets(st.integers(0, index - 1), max_size=3)) if index else set()
        size = draw(st.sampled_from((64, 128)))
        steps.append(("copy", src, dst, size, tuple(sorted(waits)), draw(hints)))
    return shape, tuple(steps)


def _run_dag(dag, scheduler, memo, faults=None):
    """Run one drawn DAG; returns every observable of the schedule."""
    (num_devices, topology, prefetch_depth, steal_seed), steps = dag
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=num_devices,
        memory_bytes=1024 * 1024,
        scheduler=scheduler,
        topology=None if topology is None else Topology.preset(topology, num_devices),
        prefetch_depth=prefetch_depth,
        steal_seed=steal_seed,
        memo=memo,
        faults=faults,
    )
    copy_kernel = get_kernel_spec("copy").build()
    words = np.arange(ORACLE_WORDS)
    buffers = [queue.create_buffer(words + 1000 * index) for index in range(ORACLE_BUFFERS)]
    events = []
    for step in steps:
        if step[0] == "write":
            _, target, hint = step
            values = words * (len(events) + 2)
            events.append(queue.enqueue_write(buffers[target], values, device=hint))
            continue
        _, src, dst, size, waits, hint = step
        events.append(
            queue.enqueue(
                copy_kernel,
                NDRange(size, 64),
                {"src": buffers[src], "dst": buffers[dst], "n": size},
                wait_for=tuple(events[index] for index in waits),
                writes=("dst",),
                device=hint,
            )
        )
    queue.finish()
    contents = [queue.enqueue_read(buffer).tolist() for buffer in buffers]
    fired = queue.fault_injector.fired if queue.fault_injector is not None else []
    return (
        [event.sequence for event in queue.schedule],
        [tuple(getattr(event, name) for name in EVENT_FIELDS) for event in queue.events],
        asdict(queue.stats),
        contents,
        [(record.device, record.attempt_index, record.cycle, record.label) for record in fired],
    )


@settings(max_examples=30, deadline=None)
@given(dag=_command_dags())
# Placing a write releases a launch ahead of one already ready, so the
# ready launches leave sequence order unless inserted in it; stealing's
# seeded tie-break then claims another launch.
@example(
    dag=(
        (2, None, 0, 0),
        (
            ("write", 0, None),
            ("copy", 0, 2, 64, (), None),
            ("write", 0, None),
            ("write", 0, None),
            ("copy", 3, 1, 64, (), None),
        ),
    )
)
# Placing the first write to buffer 0 releases the second one ahead of the
# already-ready write to buffer 1; all three prefetch to device 0, so their
# DMA order shows in the event cycles.
@example(
    dag=(
        (2, None, 0, 0),
        (("copy", 0, 1, 64, (), None), ("write", 0, 0), ("write", 0, 0), ("write", 1, 0)),
    )
)
def test_flush_drain_matches_the_rescanning_reference(dag):
    """LPT, HEFT and stealing give the same schedule under either drain."""
    memo = LaunchMemo()
    for scheduler in ("lpt", "heft", "stealing"):
        drained = _run_dag(dag, scheduler, memo)
        with mock.patch.object(MultiDeviceQueue, "_ready_order", _rescanning_ready_order):
            rescanned = _run_dag(dag, scheduler, memo)
        assert drained == rescanned, scheduler


# --------------------------------------------------------------------------- #
# Cached stealing prices and the one-pass placement probe against the
# per-claim, per-device pricing they replaced
# --------------------------------------------------------------------------- #
def _uncached_stealing_order(self, pending):
    """Reference stealing order: every claim rescores every ready launch."""
    alive = set(self.alive_devices)
    thieves = sorted(alive) if alive else list(range(len(self.devices)))
    clock = {device: self._compute_available[device] for device in thieves}
    finish = {}
    location = {}

    def spot(buffer):
        state = location.get(buffer.handle)
        if state is None:
            state = (buffer.host_valid, frozenset(buffer.valid_on & alive))
            location[buffer.handle] = state
        return state

    def claim_cost(command, thief):
        cost = 0.0
        for buffer in command.inputs:
            host_valid, owners = spot(buffer)
            if thief in owners:
                continue
            if not host_valid and owners:
                cost += min(
                    self._p2p_link_cycles(source, thief, buffer.num_bytes) for source in owners
                )
            else:
                cost += self._host_cycles(buffer.num_bytes)
        return cost

    def settle(command, device):
        if command.kind == "write":
            owners = frozenset() if device is None else frozenset({device})
            location[command.buffer.handle] = (True, owners)
            return
        if command.kind == "read":
            host_valid, owners = spot(command.buffer)
            location[command.buffer.handle] = (True, owners)
            return
        for buffer in command.inputs:
            host_valid, owners = spot(buffer)
            if device is not None:
                location[buffer.handle] = (host_valid, owners | {device})
        for buffer in command.outputs:
            owners = frozenset() if device is None else frozenset({device})
            location[buffer.handle] = (False, owners)

    def ready_at(command):
        return max((finish.get(w.sequence, 0.0) for w in command.waits), default=0.0)

    def pick(ready):
        thief = min(thieves, key=lambda device: (clock[device], device))
        scored = []
        for command in ready:
            target = command.device if command.device in alive else thief
            start = max(clock[target], ready_at(command)) + claim_cost(command, target)
            scored.append((start, -command.ndrange.global_size, target, command))
        best = min((start, size) for start, size, _, _ in scored)
        ties = [entry for entry in scored if (entry[0], entry[1]) == best]
        if len(ties) == 1:
            start, _, target, choice = ties[0]
        else:
            start, _, target, choice = ties[self._steal_rng.randrange(len(ties))]
        clock[target] = start + self._compute_estimate(choice)
        finish[choice.event.sequence] = clock[target]
        settle(choice, target)
        return choice

    return self._ready_order(
        pending, pick, on_transfer=lambda command: settle(command, command.device)
    )


def _projected_start(self, command, device, ready):
    """Reference probe: the earliest compute start on one device."""
    arrival = ready
    dma = self._dma_available[device]
    for buffer in command.inputs:
        if device in buffer.valid_on:
            arrival = max(arrival, buffer.ready_cycle, buffer.device_ready.get(device, 0.0))
            continue
        if not buffer.host_valid:
            if self._p2p_direct:
                source = min(
                    buffer.valid_on,
                    key=lambda source: (
                        self._p2p_link_cycles(source, device, buffer.num_bytes),
                        source,
                    ),
                )
                dma = max(
                    dma, self._dma_available[source], buffer.ready_cycle
                ) + self._p2p_link_cycles(source, device, buffer.num_bytes)
                arrival = max(arrival, dma)
                continue
            source = min(buffer.valid_on)
            host_ready = max(
                self._dma_available[source], buffer.ready_cycle
            ) + self._host_cycles(buffer.num_bytes)
        else:
            host_ready = buffer.ready_cycle
        dma = max(dma, host_ready) + self._host_cycles(buffer.num_bytes)
        arrival = max(arrival, dma)
    return max(self._compute_available[device], arrival)


def _per_device_projected_starts(self, command, devices, ready):
    return [_projected_start(self, command, device, ready) for device in devices]


@settings(max_examples=30, deadline=None)
@given(dag=_command_dags(), fault_cycle=st.sampled_from((None, 0.0, 1500.0)))
# Two copies read buffer 1 and are priced for different thieves; a price
# cached per launch instead of per (launch, claiming device) reorders them.
@example(
    dag=(
        (2, None, 0, 0),
        (
            ("write", 0, None),
            ("write", 0, None),
            ("write", 0, None),
            ("copy", 1, 0, 64, (), None),
            ("copy", 1, 0, 64, (), None),
            ("write", 0, None),
            ("copy", 1, 2, 64, (), None),
            ("write", 0, None),
            ("write", 0, None),
            ("copy", 2, 3, 64, (), None),
        ),
    ),
    fault_cycle=None,
)
# Claiming copy 5 adds a device to the owners of buffer 0, which copy 6
# also reads; a price kept across that change reorders 6 and 4.
@example(
    dag=(
        (2, None, 0, 0),
        (("copy", 2, 3, 64, (), 0), ("copy", 0, 2, 64, (), None), ("copy", 0, 1, 64, (), 0)),
    ),
    fault_cycle=None,
)
# The second copy's P2P hop cannot start before the first copy finished;
# the fault's trigger cycle is the probe's projected start.
@example(
    dag=(
        (2, "ring", 0, 0),
        (("copy", 0, 1, 64, (), 1), ("write", 0, None), ("copy", 0, 1, 64, (), None)),
    ),
    fault_cycle=0.0,
)
def test_cached_prices_and_one_pass_probe_match_the_per_device_reference(dag, fault_cycle):
    """Stealing's cached claim prices and the one-pass placement probe give
    the same schedule as rescoring every claim and probing each device
    alone; the probe also prices the ``at_cycle`` fault trigger."""
    faults = None
    if fault_cycle is not None:
        spec = FaultSpec(kind=DEVICE_TRANSIENT, device=0, at_cycle=fault_cycle)
        faults = FaultPlan(specs=(spec,))
    memo = LaunchMemo()
    for scheduler in ("lpt", "heft", "stealing"):
        cached = _run_dag(dag, scheduler, memo, faults)
        with (
            mock.patch.object(MultiDeviceQueue, "_stealing_order", _uncached_stealing_order),
            mock.patch.object(MultiDeviceQueue, "_projected_starts", _per_device_projected_starts),
        ):
            reference = _run_dag(dag, scheduler, memo, faults)
        assert cached == reference, scheduler
