"""Benchmark: batched command queue vs. independent simulator runs.

Acceptance measurement for the queue runtime: enqueueing N repeated launches
through one :class:`repro.runtime.queue.CommandQueue` must be measurably
faster than N independent ``GGPUSimulator`` runs — the queue amortizes
simulator construction and program pre-decode — while producing identical
results and cycle statistics.
"""

from __future__ import annotations

import time

import pytest

from repro.arch.config import GGPUConfig
from repro.kernels import get_kernel_spec, run_workload
from repro.runtime.queue import CommandQueue
from repro.simt.gpu import GGPUSimulator

# Many cheap launches: the regime the queue exists for.  At this size the
# per-launch host overhead (simulator construction, kernel build, pre-decode)
# is comparable to the simulated work, so sharing it is clearly visible.
KERNEL = "copy"
SIZE = 64
LAUNCHES = 64
SEED = 2022


@pytest.mark.benchmark(group="queue")
def test_queue_amortizes_setup_over_repeated_launches(benchmark):
    spec = get_kernel_spec(KERNEL)
    kernel = spec.build()
    workloads = [spec.workload(SIZE, SEED) for _ in range(LAUNCHES)]

    def independent_runs():
        outcomes = []
        for workload in workloads:
            simulator = GGPUSimulator(GGPUConfig(num_cus=2))
            result, outputs = run_workload(simulator, spec.build(), workload)
            outcomes.append((result, outputs))
        return outcomes

    def queued_runs():
        queue = CommandQueue(config=GGPUConfig(num_cus=2))
        outcomes = []
        for workload in workloads:
            result, outputs = run_workload(queue.simulator, kernel, workload)
            queue.stats.record(result)
            outcomes.append((result, outputs))
        return outcomes

    # Warm both paths once (imports, numpy buffers), then time.
    independent_runs()
    queued_runs()

    start = time.perf_counter()
    independent = independent_runs()
    independent_wall = time.perf_counter() - start

    start = time.perf_counter()
    queued = benchmark.pedantic(queued_runs, rounds=1, iterations=1)
    queued_wall = time.perf_counter() - start

    # Identical results and cycle stats, launch by launch.
    for (ind_result, ind_outputs), (q_result, q_outputs) in zip(independent, queued, strict=True):
        assert q_result.cycles == ind_result.cycles
        assert q_result.stats.instructions_issued == ind_result.stats.instructions_issued
        for name, values in ind_outputs.items():
            assert (q_outputs[name] == values).all()

    speedup = independent_wall / queued_wall
    print(
        f"\n{LAUNCHES} launches of {KERNEL}@{SIZE}: independent {independent_wall:.3f}s, "
        f"queued {queued_wall:.3f}s, speedup {speedup:.2f}x"
    )
    # The queue must be measurably faster than rebuilding the simulator per
    # launch (shared pre-decode and G-GPU state).
    assert speedup > 1.1
