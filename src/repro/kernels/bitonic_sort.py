"""``bitonic_sort`` dense benchmark: in-LRAM bitonic network per workgroup.

Each 64-lane workgroup loads its 64-element chunk of ``a`` into LRAM and runs
the classic bitonic sorting network: for ``k = 2, 4, .., 64`` and
``j = k/2 .. 1`` the lane below each ``lid ^ j`` pair compare-swaps both LRAM
slots, ascending when ``lid & k == 0``, with a barrier after every round.
After ``log2(64) * (log2(64)+1) / 2 = 21`` rounds the chunk is sorted
ascending and every lane stores its slot to ``out``.  Keys are drawn below
``2^31`` so signed and unsigned comparison agree, which keeps the network
bit-exact against the scalar RISC-V exchange sort (sorted output is unique).
This is the suite's only data-dependent-swap kernel: every round is a masked
``lane_if`` whose active set depends on the input, driving the divergence
stack and LRAM cross-lane traffic harder than the tree reductions.
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.errors import KernelError
from repro.kernels.library import GpuWorkload, KernelSpec, register_kernel

NAME = "bitonic_sort"
CHUNK = 64  # one wavefront-sized workgroup sorts one chunk


def build() -> Kernel:
    """Build the per-workgroup bitonic sorting network."""
    builder = KernelBuilder(
        NAME,
        args=(KernelArg("a"), KernelArg("out"), KernelArg("n", "scalar")),
    )
    builder.declare_local("tmp", CHUNK)
    gid = builder.alloc("gid")
    lid = builder.alloc("lid")
    wgsize = builder.alloc("wgsize")
    a_ptr = builder.alloc("a_ptr")
    out_ptr = builder.alloc("out_ptr")
    k = builder.alloc("k")
    j = builder.alloc("j")
    partner = builder.alloc("partner")
    my_addr = builder.alloc("my_addr")
    p_addr = builder.alloc("p_addr")
    va = builder.alloc("va")
    vb = builder.alloc("vb")
    descending = builder.alloc("descending")
    swap = builder.alloc("swap")
    addr = builder.alloc("addr")

    builder.global_id(gid)
    builder.local_id(lid)
    builder.emit(Opcode.WGSIZE, rd=wgsize)
    builder.load_arg(a_ptr, "a")
    builder.load_arg(out_ptr, "out")

    # tmp[lid] = a[gid]
    builder.address_of_element(addr, a_ptr, gid)
    builder.emit(Opcode.LW, rd=va, rs=addr, imm=0)
    builder.emit(Opcode.SLLI, rd=my_addr, rs=lid, imm=2)
    builder.emit(Opcode.LSW, rs=my_addr, rt=va, imm=0)
    builder.emit(Opcode.BARRIER)

    k_loop = builder.asm.unique_label("k_loop")
    k_done = builder.asm.unique_label("k_done")
    j_loop = builder.asm.unique_label("j_loop")
    j_done = builder.asm.unique_label("j_done")

    builder.emit(Opcode.LI, rd=k, imm=2)
    builder.label(k_loop)
    builder.emit(Opcode.BLT, rs=wgsize, rt=k, label=k_done)  # while k <= wgsize
    builder.emit(Opcode.SRLI, rd=j, rs=k, imm=1)
    builder.label(j_loop)
    builder.emit(Opcode.BEQ, rs=j, rt=0, label=j_done)  # while j >= 1
    builder.emit(Opcode.XOR, rd=partner, rs=lid, rt=j)
    builder.emit(Opcode.SLLI, rd=p_addr, rs=partner, imm=2)
    builder.emit(Opcode.LLW, rd=va, rs=my_addr, imm=0)
    builder.emit(Opcode.LLW, rd=vb, rs=p_addr, imm=0)
    # descending = (lid & k) != 0; swap when the pair is out of order for its
    # direction.  Swapping equal keys is a value-level no-op, so XOR-ing the
    # two flags is exact.
    builder.emit(Opcode.AND, rd=descending, rs=lid, rt=k)
    builder.emit(Opcode.SLTU, rd=descending, rs=0, rt=descending)
    builder.emit(Opcode.SLTU, rd=swap, rs=vb, rt=va)
    builder.emit(Opcode.XOR, rd=swap, rs=swap, rt=descending)
    # Only the lower lane of each pair applies the swap (writes both slots).
    builder.emit(Opcode.SLTU, rd=partner, rs=lid, rt=partner)
    builder.emit(Opcode.AND, rd=swap, rs=swap, rt=partner)
    with builder.lane_if(swap):
        builder.emit(Opcode.LSW, rs=my_addr, rt=vb, imm=0)
        builder.emit(Opcode.LSW, rs=p_addr, rt=va, imm=0)
    builder.emit(Opcode.BARRIER)
    builder.emit(Opcode.SRLI, rd=j, rs=j, imm=1)
    builder.emit(Opcode.JMP, label=j_loop)
    builder.label(j_done)
    builder.emit(Opcode.SLLI, rd=k, rs=k, imm=1)
    builder.emit(Opcode.JMP, label=k_loop)
    builder.label(k_done)

    # out[gid] = tmp[lid]
    builder.emit(Opcode.LLW, rd=va, rs=my_addr, imm=0)
    builder.address_of_element(addr, out_ptr, gid)
    builder.emit(Opcode.SW, rs=addr, rt=va, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """``size`` keys below 2^31, sorted ascending per 64-element chunk."""
    if size % CHUNK != 0:
        raise KernelError(f"bitonic_sort size must be a multiple of {CHUNK}, got {size}")
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 31, size=size, dtype=np.int64)
    expected = np.sort(a.reshape(-1, CHUNK), axis=1).reshape(-1)
    return GpuWorkload(
        buffers={"a": a, "out": np.zeros(size, dtype=np.int64)},
        scalars={"n": size},
        expected={"out": expected},
        ndrange=NDRange(size, CHUNK),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="per-workgroup bitonic sorting network in LRAM",
        build=build,
        workload=workload,
        paper_gpu_size=2048,
        paper_riscv_size=128,
    )
)
