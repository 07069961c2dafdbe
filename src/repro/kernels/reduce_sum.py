"""``reduce_sum`` micro-benchmark: per-workgroup sum reduction.

Each workgroup stages its chunk of the input in its LRAM window and
tree-reduces it with barrier rounds (shared with :mod:`repro.kernels.dot`);
lane 0 writes ``partial[workgroup_id]``.  Compared to ``dot`` it drops the
multiply and the second input stream, isolating the cost of the
local-memory/barrier machinery itself.
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.errors import KernelError
from repro.kernels.dot import MAX_WORKGROUP, emit_lane0_store, emit_tree_reduce
from repro.kernels.library import (
    GpuWorkload,
    KernelSpec,
    pick_pow2_workgroup_size,
    register_kernel,
)

NAME = "reduce_sum"


def build() -> Kernel:
    """Build the G-GPU sum-reduction kernel (per-workgroup partials)."""
    builder = KernelBuilder(
        NAME,
        args=(KernelArg("a"), KernelArg("partial"), KernelArg("n", "scalar")),
    )
    builder.declare_local("tmp", MAX_WORKGROUP)
    gid = builder.alloc("gid")
    lid = builder.alloc("lid")
    wgid = builder.alloc("wgid")
    wgsize = builder.alloc("wgsize")
    a_ptr = builder.alloc("a_ptr")
    part_ptr = builder.alloc("part_ptr")
    addr = builder.alloc("addr")
    value = builder.alloc("value")

    builder.global_id(gid)
    builder.emit(Opcode.LID, rd=lid)
    builder.emit(Opcode.WGID, rd=wgid)
    builder.emit(Opcode.WGSIZE, rd=wgsize)
    builder.load_arg(a_ptr, "a")
    builder.load_arg(part_ptr, "partial")
    builder.address_of_element(addr, a_ptr, gid)
    builder.emit(Opcode.LW, rd=value, rs=addr, imm=0)
    builder.emit(Opcode.SLLI, rd=addr, rs=lid, imm=2)
    builder.emit(Opcode.LSW, rs=addr, rt=value, imm=0)
    builder.emit(Opcode.BARRIER)
    emit_tree_reduce(builder, lid, wgsize)
    emit_lane0_store(builder, lid, wgid, part_ptr)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """Input of ``size`` elements; one partial sum per workgroup."""
    if size % 64 != 0:
        raise KernelError(f"reduce_sum size must be a multiple of 64, got {size}")
    workgroup = pick_pow2_workgroup_size(size)
    num_workgroups = size // workgroup
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 20, size=size, dtype=np.int64)
    expected = a.reshape(num_workgroups, workgroup).sum(axis=1) & 0xFFFFFFFF
    return GpuWorkload(
        buffers={"a": a, "partial": np.zeros(num_workgroups, dtype=np.int64)},
        scalars={"n": size},
        expected={"partial": expected},
        ndrange=NDRange(size, workgroup),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="per-workgroup sum reduction (LRAM tree, barriers)",
        build=build,
        workload=workload,
        paper_gpu_size=32768,
        paper_riscv_size=1024,
    )
)
