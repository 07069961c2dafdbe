"""Benchmark: topology-aware schedulers on the layered-DAG ablation.

Acceptance measurement for the PR 8 topology-aware scheduling runtime: on
the layered inference-style DAG (a deep backbone chain next to wide
independent heads — the classic LPT trap), the HEFT and work-stealing flush
orders must beat LPT by at least 1.15x makespan at 8, 16, and 64 devices,
with bit-identical kernel results and per-launch cycle counts in every
(DAG, topology, scheduler, device count) cell (the sweep itself asserts
both).  The multi-stage shuffle DAG runs alongside as the
topology-sensitivity story: its cross-lane traffic crosses progressively
farther links on the two-switch and ring fabrics.
"""

from __future__ import annotations

import pytest

from repro.eval.multidevice import run_topology_table
from repro.eval.reports import topology_report

DEVICE_COUNTS = (8, 16, 64)
# Acceptance: HEFT or stealing must beat LPT by >= 1.15x at 8+ devices on
# the layered DAG.  As with the earlier multi-device benches,
# REPRO_BENCH_SCALE is deliberately not applied: the ratio is a property of
# the simulated schedule and should be comparable between runs.
MIN_SPEEDUP_VS_LPT = 1.15


@pytest.mark.benchmark(group="multidevice")
def test_topology_scheduler_ablation(benchmark):
    table = benchmark.pedantic(
        lambda: run_topology_table(device_counts=DEVICE_COUNTS),
        rounds=1,
        iterations=1,
    )

    print("\n" + topology_report(table).text())

    # Acceptance: HEFT and stealing beat LPT by the margin at every device
    # count on the layered DAG, on every topology.
    for topo in table.topologies:
        for scheduler in ("heft", "stealing"):
            for count in table.device_counts:
                speedup = table.speedup_vs_lpt("layered", topo, scheduler, count)
                assert speedup >= MIN_SPEEDUP_VS_LPT, (topo, scheduler, count, speedup)
    # The shuffle DAG pays real P2P traffic in every multi-device cell.
    for topo in table.topologies:
        assert table.cell("shuffle", topo, "lpt", 8).transfers_p2p > 0, topo
