"""Regenerate Table III: benchmark input sizes and cycle counts.

The measurement itself is shared with the Fig. 5 / Fig. 6 benchmarks through
the ``table3_measurements`` session fixture; set ``REPRO_BENCH_SCALE=1.0`` to
run the paper's exact input sizes (a few minutes of simulation).
"""

from __future__ import annotations

import pytest

from repro.eval.paper_data import PAPER_TABLE3
from repro.eval.reports import table3_report
from repro.kernels import EXTENDED_KERNEL_NAMES


@pytest.mark.benchmark(group="table3")
def test_table3_benchmark_cycle_counts(benchmark, table3_measurements):
    table = benchmark.pedantic(lambda: table3_measurements, rounds=1, iterations=1)

    print("\n=== Reproduced Table III (k-cycles) ===")
    print(table3_report(table).text())
    print("\n=== Paper Table III (k-cycles) ===")
    for kernel, (riscv_size, gpu_size, riscv_kc, gpu_kc) in PAPER_TABLE3.items():
        print(f"{kernel:14s} sizes {riscv_size}/{gpu_size}  riscv {riscv_kc}  gpu {gpu_kc}")

    # The sweep covers the paper's seven kernels plus the extended suite.
    assert set(table.rows) >= set(PAPER_TABLE3)
    assert set(table.rows) >= set(EXTENDED_KERNEL_NAMES)
    for kernel, row in table.rows.items():
        # Every kernel ran on all four CU counts and produced correct results
        # (correctness is checked inside the measurement helpers).
        assert set(row.gpu) == {1, 2, 4, 8}
        assert row.riscv.cycles > 0
        # Adding CUs never makes the parallel-friendly kernels slower.
        if kernel in ("mat_mul", "copy", "vec_mul", "fir"):
            assert row.gpu_kcycles(8) <= row.gpu_kcycles(1)
    # The paper's most visible Table III feature: the divergent/serial kernels
    # (div_int, parallel_sel, xcorr) need far more G-GPU cycles per element
    # than the parallel ones.
    per_element_mat_mul = table.row("mat_mul").gpu[1].cycles / table.row("mat_mul").gpu_size
    per_element_sel = table.row("parallel_sel").gpu[1].cycles / table.row("parallel_sel").gpu_size
    assert per_element_sel > 5 * per_element_mat_mul
