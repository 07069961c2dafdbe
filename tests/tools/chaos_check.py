#!/usr/bin/env python
"""Chaos matrix for the fault-tolerant multi-device runtime, for CI.

Runs the full registered kernel suite as one multi-device batch, fault-free,
and then re-runs the identical batch under a matrix of fault arms: one
handcrafted arm per fault kind (transient launch drop, permanent device
failure, transfer stall, detected transfer corruption) plus a band of seeded
:meth:`repro.runtime.faults.FaultPlan.random` draws.  Every arm must satisfy
the PR 7 recovery invariant:

* every kernel's outputs verify bit-exactly against its numpy reference —
  faults live purely in the schedule layer and can never corrupt results;
* no command is permanently failed (each arm leaves at least one survivor
  and a solvent retry budget);
* the makespan only ever degrades (``>=`` the fault-free run), and the
  kernel compute cycles are identical — the simulators never saw the fault;
* the fault-free arm reports strictly zero fault/retry/evacuation counters
  (nothing leaks from the fault machinery into the default path).

    PYTHONPATH=src python tests/tools/chaos_check.py
    PYTHONPATH=src python tests/tools/chaos_check.py --seeds 12 --devices 3
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.arch.config import GGPUConfig, Topology  # noqa: E402
from repro.errors import KernelError  # noqa: E402
from repro.eval.benchmarks import BenchmarkSizes  # noqa: E402
from repro.kernels import all_kernel_names, get_kernel_spec  # noqa: E402
from repro.runtime.faults import (  # noqa: E402
    DEVICE_FAIL,
    DEVICE_TRANSIENT,
    TRANSFER_CORRUPT,
    TRANSFER_STALL,
    FaultPlan,
    FaultSpec,
)
from repro.runtime.multidevice import OutOfOrderQueue  # noqa: E402

MEMORY_BYTES = 64 * 1024 * 1024


def run_batch(
    num_devices: int,
    scale: float,
    seed: int,
    faults: Optional[FaultPlan],
    topology_name: Optional[str] = None,
    scheduler: str = "fifo",
) -> Dict[str, object]:
    """Run the whole kernel suite once; verify outputs; return the metrics."""
    topology = (
        Topology.preset(topology_name, num_devices)
        if topology_name is not None
        else None
    )
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=num_devices,
        memory_bytes=MEMORY_BYTES,
        faults=faults,
        topology=topology,
        scheduler=scheduler,
    )
    checks = []
    for name in all_kernel_names():
        spec = get_kernel_spec(name)
        sizes = BenchmarkSizes.paper(name).scaled(scale)
        workload = spec.workload(sizes.gpu_size, seed)
        args: Dict[str, object] = dict(workload.scalars)
        buffers = {}
        for buffer_name, contents in workload.buffers.items():
            buffers[buffer_name] = queue.create_buffer(
                np.asarray(contents, dtype=np.int64) & 0xFFFFFFFF
            )
            args[buffer_name] = buffers[buffer_name]
        queue.enqueue(spec.build(), workload.ndrange, args, label=name)
        for buffer_name, expected in workload.expected.items():
            checks.append((name, buffer_name, buffers[buffer_name], expected))
    queue.flush()
    for kernel_name, buffer_name, buffer, expected in checks:
        observed = queue.enqueue_read(buffer).astype(np.int64)
        expected_u32 = np.asarray(expected, dtype=np.int64) & 0xFFFFFFFF
        if not np.array_equal(observed, expected_u32):
            raise KernelError(
                f"chaos arm corrupted {kernel_name!r} output {buffer_name!r}"
            )
    stats = queue.stats
    return {
        "makespan": stats.makespan,
        "total_cycles": stats.total_cycles,
        "commands_failed": stats.commands_failed,
        "devices_lost": stats.devices_lost,
        "launch_faults": stats.launch_faults,
        "transfer_faults": stats.transfer_faults,
        "total_retries": stats.total_retries,
        "evacuated_buffers": stats.evacuated_buffers,
        "fault_cycles": stats.fault_cycles,
        "degraded_fraction": stats.degraded_fraction,
        "alive": len(queue.alive_devices),
    }


def handcrafted_arms() -> Dict[str, FaultPlan]:
    """One deterministic arm per fault kind, plus a burst arm mixing all."""
    return {
        "transient": FaultPlan(
            specs=(FaultSpec(kind=DEVICE_TRANSIENT, device=0, at_command=1),)
        ),
        "device-fail": FaultPlan(
            specs=(FaultSpec(kind=DEVICE_FAIL, device=0, at_command=2),)
        ),
        "transfer-stall": FaultPlan(
            specs=(FaultSpec(kind=TRANSFER_STALL, device=0, at_command=0),)
        ),
        "transfer-corrupt": FaultPlan(
            specs=(FaultSpec(kind=TRANSFER_CORRUPT, device=1, at_command=3),)
        ),
        "burst": FaultPlan(
            specs=(
                FaultSpec(kind=TRANSFER_STALL, device=0, at_command=0),
                FaultSpec(kind=DEVICE_TRANSIENT, device=1, at_command=1),
                FaultSpec(kind=DEVICE_TRANSIENT, device=1, at_command=2),
                FaultSpec(kind=DEVICE_FAIL, device=0, at_command=4),
                FaultSpec(kind=TRANSFER_CORRUPT, device=1, at_command=5),
            )
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=0.125, help="input-size scale factor (default 0.125)"
    )
    parser.add_argument(
        "--devices", type=int, default=2, help="device count for every arm (default 2)"
    )
    parser.add_argument(
        "--seeds", type=int, default=8, help="number of random fault-plan arms (default 8)"
    )
    parser.add_argument("--seed", type=int, default=2022, help="workload seed")
    parser.add_argument(
        "--topology",
        default=None,
        choices=("flat", "two-switch", "ring"),
        help="add two topology-enabled fault arms (the HEFT and the stealing "
        "scheduler on the named preset) that must also recover bit-exactly",
    )
    args = parser.parse_args()

    start = time.perf_counter()
    baseline = run_batch(args.devices, args.scale, args.seed, faults=None)
    for counter in (
        "commands_failed",
        "devices_lost",
        "launch_faults",
        "transfer_faults",
        "total_retries",
        "evacuated_buffers",
        "fault_cycles",
        "degraded_fraction",
    ):
        if baseline[counter]:
            raise SystemExit(
                f"fault machinery leaked into the fault-free arm: {counter}="
                f"{baseline[counter]}"
            )
    print(
        f"baseline ok: {len(all_kernel_names())} kernels on {args.devices} devices, "
        f"makespan {baseline['makespan']:.0f} cycles"
    )

    arms = handcrafted_arms()
    for index in range(args.seeds):
        arms[f"random-{index}"] = FaultPlan.random(index, num_devices=args.devices)

    for label, plan in arms.items():
        arm = run_batch(args.devices, args.scale, args.seed, faults=plan)
        if arm["commands_failed"]:
            raise SystemExit(f"arm {label!r} permanently failed commands")
        if arm["makespan"] < baseline["makespan"]:
            raise SystemExit(
                f"arm {label!r} makespan {arm['makespan']:.0f} < fault-free "
                f"{baseline['makespan']:.0f}"
            )
        if arm["total_cycles"] != baseline["total_cycles"]:
            raise SystemExit(
                f"arm {label!r} changed kernel compute cycles "
                f"({arm['total_cycles']} vs {baseline['total_cycles']}): a fault "
                "reached the simulation layer"
            )
        replay = run_batch(args.devices, args.scale, args.seed, faults=plan)
        if replay != arm:
            raise SystemExit(f"arm {label!r} is not deterministic across replays")
        print(
            f"arm {label:>16}: ok  makespan {arm['makespan']:>9.0f}  "
            f"retries {arm['total_retries']}  lost {arm['devices_lost']}  "
            f"degraded {arm['degraded_fraction']:.3f}"
        )

    extra_arms = 0
    # Each topology arm compares against its *own* fault-free baseline: a
    # different scheduler legitimately changes the makespan, so the
    # degradation invariant only holds within the same topology cell.
    topology_schedulers = ("heft", "stealing") if args.topology is not None else ()
    for scheduler in topology_schedulers:
        arm_name = f"topology-{args.topology}-{scheduler}"
        topo_kwargs = {"topology_name": args.topology, "scheduler": scheduler}
        topo_base = run_batch(
            args.devices, args.scale, args.seed, faults=None, **topo_kwargs
        )
        if topo_base["total_cycles"] != baseline["total_cycles"]:
            raise SystemExit(
                f"{arm_name} changed kernel compute cycles: "
                "the fabric reached the simulation layer"
            )
        plan = handcrafted_arms()["burst"]
        arm = run_batch(
            args.devices, args.scale, args.seed, faults=plan, **topo_kwargs
        )
        if arm["commands_failed"]:
            raise SystemExit(f"arm {arm_name!r} permanently failed commands")
        if arm["makespan"] < topo_base["makespan"]:
            raise SystemExit(
                f"arm {arm_name!r} makespan {arm['makespan']:.0f} < its fault-free "
                f"baseline {topo_base['makespan']:.0f}"
            )
        if arm["total_cycles"] != baseline["total_cycles"]:
            raise SystemExit(
                f"arm {arm_name!r} changed kernel compute cycles: a fault reached "
                "the simulation layer"
            )
        replay = run_batch(
            args.devices, args.scale, args.seed, faults=plan, **topo_kwargs
        )
        if replay != arm:
            raise SystemExit(f"arm {arm_name!r} is not deterministic across replays")
        extra_arms += 1
        print(
            f"arm {arm_name}+burst: ok  makespan "
            f"{arm['makespan']:>9.0f}  retries {arm['total_retries']}  "
            f"lost {arm['devices_lost']}"
        )

    elapsed = time.perf_counter() - start
    print(
        f"chaos check ok: {len(arms) + extra_arms} fault arms x "
        f"{len(all_kernel_names())} kernels, all outputs bit-exact, in {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
