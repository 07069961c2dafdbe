"""Benchmark: one reused simulator vs. independent simulator runs.

Running N repeated launches on one reused :class:`GGPUSimulator` must be
measurably faster than N independent ``GGPUSimulator`` runs — reuse
amortizes simulator construction and program pre-decode — while producing
identical results and cycle statistics.
"""

from __future__ import annotations

import time

import pytest

from repro.arch.config import GGPUConfig
from repro.kernels import get_kernel_spec, run_workload
from repro.simt.gpu import GGPUSimulator

# Many cheap launches: the regime reuse exists for.  At this size the
# per-launch host overhead (simulator construction, kernel build, pre-decode)
# is comparable to the simulated work, so sharing it is clearly visible.
KERNEL = "copy"
SIZE = 64
LAUNCHES = 64
SEED = 2022


@pytest.mark.benchmark(group="reuse")
def test_reused_simulator_amortizes_setup_over_repeated_launches(benchmark):
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

    def reused_runs():
        simulator = GGPUSimulator(GGPUConfig(num_cus=2))
        return [run_workload(simulator, kernel, workload) for workload in workloads]

    # Warm both paths once (imports, numpy buffers), then time.
    independent_runs()
    reused_runs()

    start = time.perf_counter()
    independent = independent_runs()
    independent_wall = time.perf_counter() - start

    start = time.perf_counter()
    reused = benchmark.pedantic(reused_runs, rounds=1, iterations=1)
    reused_wall = time.perf_counter() - start

    # Identical results and cycle stats, launch by launch.
    for (ind_result, ind_outputs), (r_result, r_outputs) in zip(independent, reused, strict=True):
        assert r_result.cycles == ind_result.cycles
        assert r_result.stats.instructions_issued == ind_result.stats.instructions_issued
        for name, values in ind_outputs.items():
            assert (r_outputs[name] == values).all()

    speedup = independent_wall / reused_wall
    print(
        f"\n{LAUNCHES} launches of {KERNEL}@{SIZE}: independent {independent_wall:.3f}s, "
        f"reused {reused_wall:.3f}s, speedup {speedup:.2f}x"
    )
    # One reused simulator must be measurably faster than rebuilding the
    # simulator per launch (shared pre-decode and G-GPU state).
    assert speedup > 1.1
