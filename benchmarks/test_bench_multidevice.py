"""Benchmark: multi-device makespan scaling for an independent-launch batch.

Acceptance measurement for the multi-device runtime: scheduling the
16-kernel suite (one independent launch per kernel, host↔device transfers
charged) across 4 G-GPU devices must improve the batch makespan by at least
1.5x over a single device, with bit-identical kernel results and per-launch
cycle counts at every device count (the sweep itself asserts both).
"""

from __future__ import annotations

import pytest

from repro.eval.multidevice import run_multidevice_table
from repro.eval.reports import multidevice_report

DEVICE_COUNTS = (1, 2, 4)
# The makespan ratio is a property of the simulated schedule, not of host
# wall time, so a moderate scale keeps the bench quick without changing the
# conclusion; REPRO_BENCH_SCALE is deliberately not applied here because the
# speedups should be comparable between runs.
SCALE = 0.25
MIN_SPEEDUP_AT_4 = 1.5


@pytest.mark.benchmark(group="multidevice")
def test_multidevice_makespan_scaling(benchmark):
    table = benchmark.pedantic(
        lambda: run_multidevice_table(device_counts=DEVICE_COUNTS, scale=SCALE),
        rounds=1,
        iterations=1,
    )

    print("\n" + multidevice_report(table).text())
    speedups = {count: table.speedup(count) for count in table.device_counts}

    # Makespan must shrink monotonically with more devices...
    makespans = [table.cell(count).makespan for count in sorted(table.device_counts)]
    assert all(later <= earlier for earlier, later in zip(makespans, makespans[1:], strict=False))
    # ...and the 4-device batch must beat 1 device by the acceptance margin.
    assert speedups[4] >= MIN_SPEEDUP_AT_4, speedups
    # The schedule can never beat the critical path or perfect scaling.
    for count in table.device_counts:
        cell = table.cell(count)
        assert cell.makespan >= cell.critical_path_cycles - 1e-6
        assert speedups[count] <= count + 1e-6
