#!/usr/bin/env python
"""Canonical digest of the multi-device event-graph schedules, for CI diffing.

Runs the multi-device makespan sweep
(:func:`repro.eval.multidevice.run_multidevice_table`), the two-stage-DAG
transfer-mode sweep (:func:`repro.eval.multidevice.run_pipeline_table` —
host-hop vs P2P vs P2P+prefetch, the latter with affinity hints and the LPT
flush order), and the topology × scheduler ablation
(:func:`repro.eval.multidevice.run_topology_table` — {flat, two-switch,
ring} × {LPT, HEFT, stealing} at 8 and 16 devices) and writes a canonical
JSON digest of everything the scheduler decided: per cell, the full
event-graph schedule (label, device, start, end, transfer and compute
cycles), the makespan, the critical path, the per-device utilization, and
the transfer counters.

The CI determinism job runs this twice in one checkout and once more with a
different ``REPRO_JOBS``, then diffs the three files byte for byte: every
schedule and its cycle statistics must be identical across repeated runs and
across the serial (shared device pool, recycled via ``GGPUSimulator.reset``)
and fanned-out (fresh pool per worker process) sweep paths — for the default
transfer model, for every P2P/prefetch/LPT mode, and for every topology ×
scheduler cell (including the seeded work-stealing tie-breaks).  The serial
path shares one ``LaunchMemo`` per sweep and simulates each distinct launch
once, while the fanned-out path simulates every launch, so the
``REPRO_JOBS=1`` vs ``4`` diff compares the memoized sweep against full
re-simulation.

    PYTHONPATH=src python tests/tools/determinism_check.py --output run_a.json
    PYTHONPATH=src REPRO_JOBS=4 python tests/tools/determinism_check.py --output run_b.json
    diff run_a.json run_b.json

The job also checks the output against the sha256 committed in
``tests/tools/determinism_digest.sha256``, so a change to any schedule or
cycle statistic fails between commits too.  After an *intended* change,
regenerate the pin from the repository root and commit it with the change::

    PYTHONPATH=src python tests/tools/determinism_check.py --output digests/run_a.json
    sha256sum digests/run_a.json > tests/tools/determinism_digest.sha256
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval.multidevice import (  # noqa: E402
    run_multidevice_table,
    run_pipeline_table,
    run_topology_table,
)
from repro.runtime.checkpoint import atomic_write_text  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=0.125, help="input-size scale factor (default 0.125)"
    )
    parser.add_argument(
        "--device-counts",
        default="1,2,4",
        help="comma-separated device counts to sweep (default 1,2,4)",
    )
    parser.add_argument(
        "--topology-device-counts",
        default="8,16",
        help="comma-separated device counts for the topology ablation (default 8,16)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the canonical JSON digest here (default: stdout only)",
    )
    args = parser.parse_args()
    counts = tuple(int(field) for field in args.device_counts.split(","))
    topology_counts = tuple(
        int(field) for field in args.topology_device_counts.split(",")
    )

    table = run_multidevice_table(device_counts=counts, scale=args.scale)
    pipeline = run_pipeline_table(device_counts=counts, lanes=8, size=256)
    topology = run_topology_table(
        device_counts=topology_counts,
        width=8,
        depth=4,
        size=128,
        lanes=8,
        stages=2,
    )
    digest = {
        "scale": args.scale,
        "kernels": table.kernels,
        "cells": {
            str(count): {
                "schedule": [list(entry) for entry in table.cell(count).schedule],
                "makespan": table.cell(count).makespan,
                "critical_path_cycles": table.cell(count).critical_path_cycles,
                "compute_cycles": table.cell(count).compute_cycles,
                "transfer_cycles": table.cell(count).transfer_cycles,
                "utilization": {
                    str(device): value
                    for device, value in sorted(table.cell(count).utilization.items())
                },
                "transfers_skipped": table.cell(count).transfers_skipped,
            }
            for count in table.device_counts
        },
        "pipeline": {
            f"{mode}@{count}": {
                "schedule": [list(entry) for entry in pipeline.cell(mode, count).schedule],
                "makespan": pipeline.cell(mode, count).makespan,
                "transfer_cycles": pipeline.cell(mode, count).transfer_cycles,
                "transfers_p2p": pipeline.cell(mode, count).transfers_p2p,
                "transfers_from_device": pipeline.cell(mode, count).transfers_from_device,
            }
            for mode in pipeline.modes
            for count in pipeline.device_counts
        },
        "topology": {
            f"{dag}/{topo}/{scheduler}@{count}": {
                "schedule": [
                    list(entry)
                    for entry in topology.cell(dag, topo, scheduler, count).schedule
                ],
                "makespan": topology.cell(dag, topo, scheduler, count).makespan,
                "transfer_cycles": topology.cell(
                    dag, topo, scheduler, count
                ).transfer_cycles,
                "transfers_p2p": topology.cell(
                    dag, topo, scheduler, count
                ).transfers_p2p,
            }
            for dag in topology.dags
            for topo in topology.topologies
            for scheduler in topology.schedulers
            for count in topology.device_counts
        },
    }
    text = json.dumps(digest, indent=2, sort_keys=True) + "\n"
    if args.output is not None:
        atomic_write_text(args.output, text)
        print(f"digest written to {args.output} ({len(text)} bytes)")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
