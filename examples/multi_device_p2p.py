"""Peer-to-peer transfers + prefetch: shave the host bounce off a DAG.

This walks the PR-5 transfer runtime end to end on a two-stage shuffle DAG
(stage 2 of lane ``l`` consumes the stage-1 outputs of lanes ``l`` *and*
``l+1``, so every schedule over 2+ devices must move dirty buffers between
devices):

1. **host-hop** — the PR-4 path: with no topology attached, a cross-device
   hand-off is a device→host read-back plus a host→device write, two
   :meth:`~repro.arch.config.TransferConfig.cycles` hops.
2. **p2p** — ``topology=Topology.flat(4, 150, 32.0)`` gives every device
   pair a direct link; the same hand-off is now one cheaper hop that leaves
   the host image stale.
3. **p2p+prefetch** — additionally pins each lane to a device
   (``enqueue(..., device=...)``), prefetches its inputs there at
   ``enqueue_write`` time (``create_buffer(..., device=...)``), and drains
   the queue longest-projected-time first
   (``OutOfOrderQueue(scheduler="lpt")``).

Results are bit-identical in every mode — the transfer model moves data and
placement, never the simulated kernels — but the makespan is not.

Run with:  PYTHONPATH=src python examples/multi_device_p2p.py
"""

import numpy as np

from repro.arch.config import GGPUConfig, Topology
from repro.arch.kernel import NDRange
from repro.kernels import get_kernel_spec
from repro.runtime import OutOfOrderQueue

N = 512  # elements per lane
LANES = 8
DEVICES = 4
ALPHA, BETA = 3, 5
MASK = 0xFFFFFFFF


def build_shuffle_dag(queue, hints=None):
    """Enqueue the two-stage shuffle DAG; returns (output, expected) pairs."""
    saxpy = get_kernel_spec("saxpy").build()
    ndrange = NDRange(N, 64)
    stage1_events, stage1_outs, stage1_values = [], [], []
    for lane in range(LANES):
        device = hints.get(lane) if hints else None
        x_host = (np.arange(N, dtype=np.int64) + 17 * lane) & MASK
        y_host = ((np.arange(N, dtype=np.int64) * 3 + lane) % 251) & MASK
        x = queue.create_buffer(x_host, device=device)  # prefetched when hinted
        y = queue.create_buffer(y_host, device=device)
        out = queue.allocate_buffer(N)
        stage1_events.append(
            queue.enqueue(
                saxpy,
                ndrange,
                {"x": x, "y": y, "out": out, "alpha": ALPHA, "n": N},
                label=f"stage1[{lane}]",
                writes=("out",),
                device=device,
            )
        )
        stage1_outs.append(out)
        stage1_values.append((ALPHA * x_host + y_host) & MASK)
    checks = []
    for lane in range(LANES):
        peer = (lane + 1) % LANES
        device = hints.get(lane) if hints else None
        out = queue.allocate_buffer(N)
        queue.enqueue(
            saxpy,
            ndrange,
            {
                "x": stage1_outs[lane],
                "y": stage1_outs[peer],
                "out": out,
                "alpha": BETA,
                "n": N,
            },
            label=f"stage2[{lane}]",
            wait_for=(stage1_events[lane], stage1_events[peer]),
            writes=("out",),
            device=device,
        )
        checks.append((out, (BETA * stage1_values[lane] + stage1_values[peer]) & MASK))
    return checks


def run_mode(name, topology=None, scheduler="fifo", hints=None):
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=2),  # host link: TransferConfig(600, 8.0)
        num_devices=DEVICES,
        topology=topology,
        scheduler=scheduler,
    )
    checks = build_shuffle_dag(queue, hints)
    queue.finish()
    makespan = queue.stats.makespan  # before the verification read-backs
    for out, expected in checks:
        observed = queue.enqueue_read(out).astype(np.int64)
        assert np.array_equal(observed, expected), name
    stats = queue.stats
    print(
        f"{name:<13} makespan {makespan:>8.0f} cycles | transfer "
        f"{stats.transfer_cycles:>7.0f} | p2p copies {stats.transfers_p2p:>2} | "
        f"read-backs {stats.transfers_from_device:>2} | "
        f"host→device writes {stats.transfers_to_device:>2}"
    )
    return makespan


def main() -> None:
    fabric = Topology.flat(DEVICES, 150, 32.0)  # on-package links next to the host's
    hints = {lane: lane % DEVICES for lane in range(LANES)}

    print(f"Two-stage shuffle DAG: {LANES} lanes x {N} words on {DEVICES} devices\n")
    host = run_mode("host-hop")
    p2p = run_mode("p2p", fabric)
    prefetch = run_mode("p2p+prefetch", fabric, scheduler="lpt", hints=hints)

    print(
        f"\nP2P shaves the host bounce: {host / p2p:.2f}x; with prefetch + "
        f"affinity + LPT: {host / prefetch:.2f}x."
    )
    assert p2p <= host and prefetch <= host


if __name__ == "__main__":
    main()
