"""Benchmark: rank-2 dense workloads (PR 10).

Measures the three dense 2-D kernels — the ``__local``-tiled GEMM
(``matmul2d``), the 3x3 stencil (``conv2d``), and the in-LRAM bitonic
sorting network (``bitonic_sort``) — at 1/2/4/8 CUs, then times the full
16-kernel Table III sweep (the 13 flat kernels plus the dense trio)
through the production ``run_table3`` path.  The honest
numbers land in ``BENCH_PR10.json`` in the repository root for the
trajectory table (``tests/tools/bench_trajectory.py``).

The headline is CU scaling: the dense kernels are the first workloads in
the suite whose 2-D workgroups tile a genuinely two-dimensional iteration
space, so they are also the first to stress the dispatcher's 2-D
workgroup distribution at 8 CUs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.eval.benchmarks import BenchmarkSizes, measure_gpu_kernel, run_table3
from repro.kernels import DENSE_KERNEL_NAMES, all_kernel_names
from repro.runtime.checkpoint import atomic_write_json
from repro.runtime.parallel import default_jobs

_ROOT = Path(__file__).resolve().parent.parent
BENCH_PR10_PATH = _ROOT / "BENCH_PR10.json"

# Quarter scale matches the recorded-trajectory configuration of every
# earlier BENCH_PR*.json; REPRO_BENCH_SCALE is deliberately not applied so
# the recorded walls stay comparable across harness configurations.
SWEEP_SCALE = 0.25
SEED = 2022
CU_COUNTS = (1, 2, 4, 8)


def _record(section: str, payload: dict) -> None:
    data = {}
    if BENCH_PR10_PATH.exists():
        try:
            data = json.loads(BENCH_PR10_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    data[section] = {
        "meta": {"bench_scale": SWEEP_SCALE, "repro_jobs": default_jobs()},
        **payload,
    }
    atomic_write_json(BENCH_PR10_PATH, data)


@pytest.mark.benchmark(group="dense")
def test_dense_rank2_workloads(benchmark):
    # Per-kernel cells at every CU count.  check=True inside
    # measure_gpu_kernel verifies results against the numpy reference.
    cells: dict = {}
    cu_scaling: dict = {}
    for name in DENSE_KERNEL_NAMES:
        size = BenchmarkSizes.paper(name).scaled(SWEEP_SCALE).gpu_size
        per_cu: dict = {}
        for num_cus in CU_COUNTS:
            start = time.perf_counter()
            measurement = measure_gpu_kernel(name, num_cus, size, SEED, True)
            wall = time.perf_counter() - start
            per_cu[f"{num_cus}cu"] = {
                "kcycles": measurement.kcycles,
                "wall_seconds": round(wall, 4),
            }
        cells[name] = {"gpu_size": size, "per_cu": per_cu}
        cu_scaling[name] = round(
            per_cu["1cu"]["kcycles"] / per_cu["8cu"]["kcycles"], 3
        )

    # The full 16-kernel sweep through the production run_table3 path —
    # the first sweep wall recorded with the dense trio in the batch.
    start = time.perf_counter()
    table = benchmark.pedantic(
        lambda: run_table3(scale=SWEEP_SCALE, seed=SEED),
        rounds=1,
        iterations=1,
    )
    sweep_wall = time.perf_counter() - start
    assert table.kernels == all_kernel_names()
    assert len(table.kernels) == 16

    _record(
        "dense_rank2",
        {
            "kernels": list(DENSE_KERNEL_NAMES),
            "cu_scaling_1_to_8": cu_scaling,
            "sweep_wall_seconds": round(sweep_wall, 3),
            "sweep_kernels": len(table.kernels),
            "per_kernel": cells,
        },
    )

    # Acceptance: the tiled GEMM's 2-D workgroup grid must actually spread
    # across compute units — at least 2x from 1 to 8 CUs (measured ~5x; a
    # loose bound so CI-runner noise in the simulated workload mix never
    # flakes, since cycle counts are deterministic the only variance is an
    # intentional engine change, which the goldens catch first).
    assert cu_scaling["matmul2d"] >= 2.0, cu_scaling
