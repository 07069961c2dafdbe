"""Extension benchmark: energy and energy-efficiency over the RISC-V.

The paper's motivation is energy efficiency, but its evaluation stops at
performance (Fig. 5) and performance per area (Fig. 6).  This bench adds the
missing series by combining the Table-III cycle measurements (shared fixture)
with the synthesized power of every version: energy per benchmark run and the
energy-efficiency gain of the G-GPU over the RISC-V at equal work.
"""

from __future__ import annotations

import pytest

from repro.eval.energy import build_energy_comparison
from repro.eval.reports import energy_report
from repro.eval.figures import format_speedup_chart


@pytest.mark.benchmark(group="extension")
def test_energy_efficiency_over_riscv(benchmark, tech, table3_measurements):
    comparison = benchmark.pedantic(
        build_energy_comparison,
        args=(table3_measurements, tech),
        kwargs={"frequency_mhz": 667.0},
        rounds=1,
        iterations=1,
    )

    print("\n=== Energy per benchmark run and gain over the RISC-V ===")
    print(energy_report(comparison).text())
    print("\n=== Energy-efficiency gain (bar series) ===")
    print(format_speedup_chart(comparison.gain_series(), width=30))

    gains = comparison.gain_series()
    # The parallel kernels are genuinely more energy efficient than the CPU
    # even after paying for the much larger accelerator...
    assert gains.value("mat_mul", 1) > 1.0
    # ...while the divergent/serial kernels gain far less (and can lose).
    assert gains.value("div_int", 1) < gains.value("mat_mul", 1)
    assert gains.value("parallel_sel", 1) < gains.value("mat_mul", 1)
    # More CUs burn more power, so the efficiency gain grows slower than the
    # speed-up (and can regress for the contention-limited kernels).
    assert comparison.ggpu_power_w[8] > 4.0 * comparison.ggpu_power_w[1]
    assert comparison.best() == pytest.approx(gains.best(), rel=1e-9)
