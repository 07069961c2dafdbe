"""``copy`` micro-benchmark: dst[i] = src[i].

A pure streaming kernel with one load and one store per work-item, fully
coalesced; its speed-up over the RISC-V is bounded by the AXI bandwidth of the
global memory controller rather than by compute, so it scales sub-linearly
beyond a few CUs (Table III: 73k/36k/24k/22k cycles for 1/2/4/8 CUs).
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.kernels.library import (
    GpuWorkload,
    KernelSpec,
    pick_workgroup_size,
    register_kernel,
)

NAME = "copy"


def build() -> Kernel:
    """Build the G-GPU copy kernel."""
    builder = KernelBuilder(
        NAME,
        args=(KernelArg("src"), KernelArg("dst"), KernelArg("n", "scalar")),
    )
    gid = builder.alloc("gid")
    src = builder.alloc("src")
    dst = builder.alloc("dst")
    addr = builder.alloc("addr")
    value = builder.alloc("value")

    builder.global_id(gid)
    builder.load_arg(src, "src")
    builder.load_arg(dst, "dst")
    builder.address_of_element(addr, src, gid)
    builder.emit(Opcode.LW, rd=value, rs=addr, imm=0)
    builder.address_of_element(addr, dst, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """Random 32-bit payload of ``size`` words."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 2**31, size=size, dtype=np.int64)
    return GpuWorkload(
        buffers={"src": src, "dst": np.zeros(size, dtype=np.int64)},
        scalars={"n": size},
        expected={"dst": src},
        ndrange=NDRange(size, pick_workgroup_size(size)),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="streaming buffer copy (bandwidth bound)",
        build=build,
        workload=workload,
        paper_gpu_size=32768,
        paper_riscv_size=512,
    )
)
