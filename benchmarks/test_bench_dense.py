"""Benchmark: rank-2 dense workloads (PR 10).

Measures the three dense 2-D kernels — the ``__local``-tiled GEMM
(``matmul2d``), the 3x3 stencil (``conv2d``), and the in-LRAM bitonic
sorting network (``bitonic_sort``) — at 1/2/4/8 CUs, then times the full
16-kernel Table III sweep (the 13 flat kernels plus the dense trio)
through the production ``run_table3`` path.

The headline is CU scaling: the dense kernels are the first workloads in
the suite whose 2-D workgroups tile a genuinely two-dimensional iteration
space, so they are also the first to stress the dispatcher's 2-D
workgroup distribution at 8 CUs.
"""

from __future__ import annotations

import pytest

from repro.eval.benchmarks import BenchmarkSizes, measure_gpu_kernel, run_table3
from repro.kernels import DENSE_KERNEL_NAMES, all_kernel_names

# Quarter scale, the configuration of the Table III sweep everywhere else;
# REPRO_BENCH_SCALE is deliberately not applied so the CU-scaling bound
# below always sees the same inputs.
SWEEP_SCALE = 0.25
SEED = 2022
CU_COUNTS = (1, 2, 4, 8)


@pytest.mark.benchmark(group="dense")
def test_dense_rank2_workloads(benchmark):
    # CU scaling of each dense kernel.  check=True inside measure_gpu_kernel
    # verifies results against the numpy reference.
    cu_scaling: dict = {}
    for name in DENSE_KERNEL_NAMES:
        size = BenchmarkSizes.paper(name).scaled(SWEEP_SCALE).gpu_size
        kcycles = {
            num_cus: measure_gpu_kernel(name, num_cus, size, SEED, True).kcycles
            for num_cus in CU_COUNTS
        }
        cu_scaling[name] = round(kcycles[1] / kcycles[8], 3)
    print(f"\nk-cycles at 1 CU over 8 CUs: {cu_scaling}")

    # The full 16-kernel sweep through the production run_table3 path.
    table = benchmark.pedantic(
        lambda: run_table3(scale=SWEEP_SCALE, seed=SEED),
        rounds=1,
        iterations=1,
    )
    assert table.kernels == all_kernel_names()
    assert len(table.kernels) == 16

    # Acceptance: the tiled GEMM's 2-D workgroup grid must actually spread
    # across compute units — at least 2x from 1 to 8 CUs (measured ~5x; a
    # loose bound so CI-runner noise in the simulated workload mix never
    # flakes, since cycle counts are deterministic the only variance is an
    # intentional engine change, which the goldens catch first).
    assert cu_scaling["matmul2d"] >= 2.0, cu_scaling
