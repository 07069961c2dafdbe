"""Benchmark: overhead of the fault-tolerance machinery (PR 7).

Two acceptance measurements for the fault-tolerant runtime:

* **Fault-path overhead** — the 16-kernel multi-device batch scheduled with
  no fault plan, with an *armed but empty* plan (the injector is consulted
  on every launch and transfer but never fires), and with a representative
  mixed fault arm.  The armed-empty run must produce the bit-identical
  schedule, and its wall-time overhead stays within an acceptance bound:
  resilience is free until a fault actually fires.
* **Journal overhead** — a scale-reduced Table III sweep without a journal,
  with a cold journal (every cell recorded as it completes), and resumed
  from a warm journal (every cell served, nothing simulated).  The warm
  resume must be dramatically faster than computing, which is the point of
  crash-safe sweeps.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional

import numpy as np
import pytest

from repro.arch.config import GGPUConfig
from repro.eval.benchmarks import BenchmarkSizes, run_table3
from repro.kernels import all_kernel_names, get_kernel_spec
from repro.runtime.checkpoint import SweepJournal
from repro.runtime.faults import (
    DEVICE_FAIL,
    DEVICE_TRANSIENT,
    TRANSFER_STALL,
    FaultPlan,
    FaultSpec,
)
from repro.runtime.multidevice import OutOfOrderQueue

# As with the other schedule-layer benches, REPRO_BENCH_SCALE is deliberately
# not applied: the overheads should be comparable between runs.
SCALE = 0.125
NUM_DEVICES = 2
MEMORY_BYTES = 64 * 1024 * 1024
# The armed-but-idle injector adds two dictionary probes per launch/transfer
# to a pure-python cycle-accurate simulation; anything past this bound means
# the no-fault path grew real work.
MAX_ARMED_IDLE_OVERHEAD = 0.25


def _run_suite_batch(faults: Optional[FaultPlan]) -> Dict[str, object]:
    """Schedule the whole kernel suite once; return wall time and schedule."""
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=NUM_DEVICES,
        memory_bytes=MEMORY_BYTES,
        faults=faults,
    )
    start = time.perf_counter()
    for name in all_kernel_names():
        spec = get_kernel_spec(name)
        sizes = BenchmarkSizes.paper(name).scaled(SCALE)
        workload = spec.workload(sizes.gpu_size, 2022)
        args: Dict[str, object] = dict(workload.scalars)
        for buffer_name, contents in workload.buffers.items():
            args[buffer_name] = queue.create_buffer(
                np.asarray(contents, dtype=np.int64) & 0xFFFFFFFF
            )
        queue.enqueue(spec.build(), workload.ndrange, args, label=name)
    queue.flush()
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "makespan": queue.stats.makespan,
        "schedule": [
            (event.label, event.device, event.start_cycle, event.end_cycle)
            for event in queue.schedule
        ],
        "devices_lost": queue.stats.devices_lost,
    }


@pytest.mark.benchmark(group="faults")
def test_fault_injection_overhead(benchmark):
    baseline = _run_suite_batch(faults=None)
    armed = benchmark.pedantic(
        lambda: _run_suite_batch(faults=FaultPlan()), rounds=1, iterations=1
    )
    mixed_plan = FaultPlan(
        specs=(
            FaultSpec(kind=TRANSFER_STALL, device=0, at_command=0),
            FaultSpec(kind=DEVICE_TRANSIENT, device=1, at_command=1),
            FaultSpec(kind=DEVICE_FAIL, device=0, at_command=4),
        )
    )
    faulted = _run_suite_batch(faults=mixed_plan)

    overhead = armed["wall"] / baseline["wall"] - 1.0

    # An armed-but-idle injector must not perturb the schedule at all...
    assert armed["schedule"] == baseline["schedule"]
    assert armed["makespan"] == baseline["makespan"]
    # ...and must stay within the wall-clock acceptance bound.
    assert overhead <= MAX_ARMED_IDLE_OVERHEAD, overhead
    # The faulted arm recovered (degraded, never corrupted or stuck).
    assert faulted["devices_lost"] == 1
    assert faulted["makespan"] >= baseline["makespan"]


@pytest.mark.benchmark(group="faults")
def test_checkpoint_journal_overhead(benchmark, tmp_path):
    kwargs = {"cu_counts": (1,), "scale": SCALE, "check": False}
    path = tmp_path / "journal.json"

    start = time.perf_counter()
    bare = run_table3(**kwargs)
    bare_wall = time.perf_counter() - start

    cold = run_table3(journal=path, **kwargs)

    meta = json.loads(path.read_text(encoding="utf-8"))["meta"]
    journal = SweepJournal(path, meta=meta)
    start = time.perf_counter()
    warm = benchmark.pedantic(
        lambda: run_table3(journal=journal, **kwargs), rounds=1, iterations=1
    )
    warm_wall = time.perf_counter() - start

    total_cells = len(all_kernel_names()) * 2

    # The warm resume simulated nothing: every cell came from the journal.
    assert journal.hits == total_cells
    assert journal.misses == 0
    assert warm_wall < bare_wall
    # Journaled and bare sweeps agree bit-exactly, cold and warm alike.
    for kernel in all_kernel_names():
        assert cold.rows[kernel].riscv == bare.rows[kernel].riscv
        assert warm.rows[kernel].riscv == bare.rows[kernel].riscv
        assert cold.rows[kernel].gpu[1] == bare.rows[kernel].gpu[1]
        assert warm.rows[kernel].gpu[1] == bare.rows[kernel].gpu[1]
