"""``parallel_sel`` micro-benchmark: parallel selection sort (rank sort).

Each work-item computes the rank of its element by scanning the entire input
array and then scatters the element to its sorted position.  The per-item work
is O(N), every work-item reads the whole array, and the final store is a
scatter, so the kernel is dominated by global-memory traffic and shows almost
no benefit from additional CUs (Table III: 5979k/3157k/1656k/1660k cycles).
The input is a permutation so ranks are unique.
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

NAME = "parallel_sel"


def build() -> Kernel:
    """Build the G-GPU rank-sort kernel."""
    builder = KernelBuilder(
        NAME,
        args=(KernelArg("a"), KernelArg("out"), KernelArg("n", "scalar")),
    )
    gid = builder.alloc("gid")
    a_ptr = builder.alloc("a_ptr")
    out_ptr = builder.alloc("out_ptr")
    n = builder.alloc("n")
    my_value = builder.alloc("my_value")
    rank = builder.alloc("rank")
    j = builder.alloc("j")
    addr = builder.alloc("addr")
    other = builder.alloc("other")

    builder.global_id(gid)
    builder.load_arg(a_ptr, "a")
    builder.load_arg(out_ptr, "out")
    builder.load_arg(n, "n")
    builder.address_of_element(addr, a_ptr, gid)
    builder.emit(Opcode.LW, rd=my_value, rs=addr, imm=0)
    builder.emit(Opcode.LI, rd=rank, imm=0)
    builder.emit(Opcode.LI, rd=j, imm=0)
    with builder.uniform_loop(j, n):
        builder.emit(Opcode.SLLI, rd=addr, rs=j, imm=2)
        builder.emit(Opcode.ADD, rd=addr, rs=addr, rt=a_ptr)
        builder.emit(Opcode.LW, rd=other, rs=addr, imm=0)
        builder.emit(Opcode.SLT, rd=other, rs=other, rt=my_value)
        builder.emit(Opcode.ADD, rd=rank, rs=rank, rt=other)
    builder.address_of_element(addr, out_ptr, rank)
    builder.emit(Opcode.SW, rs=addr, rt=my_value, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """A random permutation of ``0..size-1`` (unique values, unique ranks)."""
    rng = np.random.default_rng(seed)
    a = rng.permutation(size).astype(np.int64)
    expected = np.sort(a)
    return GpuWorkload(
        buffers={"a": a, "out": np.zeros(size, dtype=np.int64)},
        scalars={"n": size},
        expected={"out": expected},
        ndrange=NDRange(size, pick_workgroup_size(size)),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="parallel selection (rank) sort: O(N) work per item, scatter store",
        build=build,
        workload=workload,
        paper_gpu_size=2048,
        paper_riscv_size=128,
    )
)
