"""``dot`` micro-benchmark: per-workgroup dot-product partials.

Each workgroup loads its chunk of ``a`` and ``b``, multiplies element-wise
into the workgroup's LRAM window, and tree-reduces the products with
``log2(workgroup_size)`` barrier rounds; lane 0 writes the partial sum to
``partial[workgroup_id]``.  This is the canonical local-memory cooperative
pattern (CUDA's classic reduction kernel) and the first suite kernel whose
inner loop is dominated by LRAM traffic and barriers rather than by the
global-memory system.  Integer addition is associative mod 2^32, so the tree
order produces bit-exactly the same partials as the scalar RISC-V loop.
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.errors import KernelError
from repro.kernels.library import (
    GpuWorkload,
    KernelSpec,
    pick_pow2_workgroup_size,
    register_kernel,
)

NAME = "dot"
MAX_WORKGROUP = 256


def emit_tree_reduce(builder: KernelBuilder, lid: int, wgsize: int) -> None:
    """Tree-reduce the workgroup's LRAM values in place (result in word 0).

    ``lram[lid] += lram[lid + stride]`` for stride = wgsize/2 .. 1, with a
    barrier after every round; lanes above the stride are masked off.
    """
    stride = builder.alloc("stride")
    cond = builder.alloc("cond")
    my_addr = builder.alloc("my_addr")
    other_addr = builder.alloc("other_addr")
    mine = builder.alloc("mine")
    other = builder.alloc("other")

    builder.emit(Opcode.SRLI, rd=stride, rs=wgsize, imm=1)
    top = builder.asm.unique_label("reduce")
    done = builder.asm.unique_label("reduce_done")
    builder.label(top)
    builder.emit(Opcode.BEQ, rs=stride, rt=0, label=done)
    builder.emit(Opcode.SLT, rd=cond, rs=lid, rt=stride)
    with builder.lane_if(cond):
        builder.emit(Opcode.ADD, rd=other_addr, rs=lid, rt=stride)
        builder.emit(Opcode.SLLI, rd=other_addr, rs=other_addr, imm=2)
        builder.emit(Opcode.LLW, rd=other, rs=other_addr, imm=0)
        builder.emit(Opcode.SLLI, rd=my_addr, rs=lid, imm=2)
        builder.emit(Opcode.LLW, rd=mine, rs=my_addr, imm=0)
        builder.emit(Opcode.ADD, rd=mine, rs=mine, rt=other)
        builder.emit(Opcode.LSW, rs=my_addr, rt=mine, imm=0)
    builder.emit(Opcode.BARRIER)
    builder.emit(Opcode.SRLI, rd=stride, rs=stride, imm=1)
    builder.emit(Opcode.JMP, label=top)
    builder.label(done)


def emit_lane0_store(builder: KernelBuilder, lid: int, wgid: int, dst_ptr: int) -> None:
    """Store the reduced LRAM word 0 to ``dst_ptr[workgroup_id]`` from lane 0."""
    cond = builder.alloc("lane0")
    result = builder.alloc("result")
    dst = builder.alloc("dst")
    builder.emit(Opcode.SLTU, rd=cond, rs=0, rt=lid)
    builder.emit(Opcode.XORI, rd=cond, rs=cond, imm=1)
    with builder.lane_if(cond):
        builder.emit(Opcode.LLW, rd=result, rs=0, imm=0)
        builder.emit(Opcode.SLLI, rd=dst, rs=wgid, imm=2)
        builder.emit(Opcode.ADD, rd=dst, rs=dst, rt=dst_ptr)
        builder.emit(Opcode.SW, rs=dst, rt=result, imm=0)


def build() -> Kernel:
    """Build the G-GPU dot-product kernel (per-workgroup partials)."""
    builder = KernelBuilder(
        NAME,
        args=(
            KernelArg("a"),
            KernelArg("b"),
            KernelArg("partial"),
            KernelArg("n", "scalar"),
        ),
    )
    builder.declare_local("tmp", MAX_WORKGROUP)
    gid = builder.alloc("gid")
    lid = builder.alloc("lid")
    wgid = builder.alloc("wgid")
    wgsize = builder.alloc("wgsize")
    a_ptr = builder.alloc("a_ptr")
    b_ptr = builder.alloc("b_ptr")
    part_ptr = builder.alloc("part_ptr")
    offset = builder.alloc("offset")
    addr = builder.alloc("addr")
    va = builder.alloc("va")
    vb = builder.alloc("vb")

    builder.global_id(gid)
    builder.emit(Opcode.LID, rd=lid)
    builder.emit(Opcode.WGID, rd=wgid)
    builder.emit(Opcode.WGSIZE, rd=wgsize)
    builder.load_arg(a_ptr, "a")
    builder.load_arg(b_ptr, "b")
    builder.load_arg(part_ptr, "partial")
    builder.emit(Opcode.SLLI, rd=offset, rs=gid, imm=2)
    builder.emit(Opcode.ADD, rd=addr, rs=a_ptr, rt=offset)
    builder.emit(Opcode.LW, rd=va, rs=addr, imm=0)
    builder.emit(Opcode.ADD, rd=addr, rs=b_ptr, rt=offset)
    builder.emit(Opcode.LW, rd=vb, rs=addr, imm=0)
    builder.emit(Opcode.MUL, rd=va, rs=va, rt=vb)
    builder.emit(Opcode.SLLI, rd=addr, rs=lid, imm=2)
    builder.emit(Opcode.LSW, rs=addr, rt=va, imm=0)
    builder.emit(Opcode.BARRIER)
    emit_tree_reduce(builder, lid, wgsize)
    emit_lane0_store(builder, lid, wgid, part_ptr)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """Vectors of ``size`` elements; one partial per workgroup."""
    if size % 64 != 0:
        raise KernelError(f"dot size must be a multiple of 64, got {size}")
    workgroup = pick_pow2_workgroup_size(size)
    num_workgroups = size // workgroup
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=size, dtype=np.int64)
    b = rng.integers(0, 256, size=size, dtype=np.int64)
    expected = (a * b).reshape(num_workgroups, workgroup).sum(axis=1) & 0xFFFFFFFF
    return GpuWorkload(
        buffers={
            "a": a,
            "b": b,
            "partial": np.zeros(num_workgroups, dtype=np.int64),
        },
        scalars={"n": size},
        expected={"partial": expected},
        ndrange=NDRange(size, workgroup),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="per-workgroup dot product (LRAM tree reduction)",
        build=build,
        workload=workload,
        paper_gpu_size=16384,
        paper_riscv_size=512,
    )
)
