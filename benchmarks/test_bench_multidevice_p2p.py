"""Benchmark: P2P + prefetch transfer modes on the two-stage shuffle DAG.

Acceptance measurement for the PR 5 transfer-command runtime: running the
two-stage saxpy DAG (8 lanes, cross-lane shuffle) across 4 G-GPU devices
with peer-to-peer transfers, ``enqueue_write`` prefetch, and device-affinity
hints must improve the makespan by at least 10% over the PR 4 host-hop path
at the same device count, with bit-identical kernel results and per-launch
cycle counts in every (mode, device count) cell (the sweep itself asserts
both).  The LPT flush order is measured on the mixed-size 16-kernel
independent batch, where it tightens the 4-device makespan.
"""

from __future__ import annotations

import pytest

from repro.eval.multidevice import run_multidevice_table, run_pipeline_table
from repro.eval.reports import pipeline_report

DEVICE_COUNTS = (1, 2, 4)
LANES = 8
SIZE = 512
# Acceptance: P2P + prefetch must beat the host-hop path by >= 10% at 4
# devices.  As with the PR 4 bench, REPRO_BENCH_SCALE is deliberately not
# applied: the ratio is a property of the simulated schedule and should be
# comparable between runs.
MIN_IMPROVEMENT_AT_4 = 1.10
BATCH_SCALE = 0.25


@pytest.mark.benchmark(group="multidevice")
def test_pipeline_transfer_modes(benchmark):
    table = benchmark.pedantic(
        lambda: run_pipeline_table(device_counts=DEVICE_COUNTS, lanes=LANES, size=SIZE),
        rounds=1,
        iterations=1,
    )

    print("\n" + pipeline_report(table).text())

    # The P2P modes can never lose to the host bounce at any device count...
    for mode in ("p2p", "p2p-prefetch"):
        for count in table.device_counts:
            assert table.improvement(mode, count) >= 1.0 - 1e-9, (mode, count)
    # ...and with every knob on, 4 devices must beat the host-hop path by
    # the acceptance margin.
    improvement = table.improvement("p2p-prefetch", 4)
    assert improvement >= MIN_IMPROVEMENT_AT_4, improvement
    # Direct transfers replace the read-back bounce entirely in this DAG.
    assert table.cell("p2p", 4).transfers_from_device == 0
    assert table.cell("p2p", 4).transfers_p2p > 0


@pytest.mark.benchmark(group="multidevice")
def test_lpt_batch_scheduling(benchmark):
    tables = benchmark.pedantic(
        lambda: (
            run_multidevice_table(device_counts=DEVICE_COUNTS, scale=BATCH_SCALE),
            run_multidevice_table(
                device_counts=DEVICE_COUNTS, scale=BATCH_SCALE, lpt=True
            ),
        ),
        rounds=1,
        iterations=1,
    )
    enqueue_order, lpt_order = tables

    ratios = {
        count: enqueue_order.cell(count).makespan / lpt_order.cell(count).makespan
        for count in enqueue_order.device_counts
    }

    # LPT must tighten the mixed-size batch at the 4-device design point (the
    # ROADMAP's "better 4+-device utilization" target)...
    assert ratios[4] > 1.0, ratios
    # ...and per-launch compute cycles are unchanged by the flush order.
    reference = {
        label: compute
        for label, _, _, _, _, compute in enqueue_order.cell(1).schedule
    }
    for count in lpt_order.device_counts:
        for label, _, _, _, _, compute in lpt_order.cell(count).schedule:
            assert reference[label] == compute, label
