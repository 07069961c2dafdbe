"""``inclusive_scan`` micro-benchmark: per-workgroup inclusive prefix sum.

Hillis-Steele scan in the workgroup's LRAM window:
``out[gid] = a[wg_start] + ... + a[gid]``.  Every round each lane reads its
own slot plus the slot ``stride`` below (masked off for the first ``stride``
lanes), with read/write barriers separating the phases; ``log2(wgsize)``
rounds complete the scan.  The kernel stresses repeated divergence inside a
uniform loop and back-to-back barrier pairs — a scheduling pattern none of
the paper's seven kernels exhibits.
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.errors import KernelError
from repro.kernels.dot import MAX_WORKGROUP
from repro.kernels.library import (
    GpuWorkload,
    KernelSpec,
    pick_pow2_workgroup_size,
    register_kernel,
)

NAME = "inclusive_scan"


def build() -> Kernel:
    """Build the G-GPU Hillis-Steele scan kernel."""
    builder = KernelBuilder(
        NAME,
        args=(KernelArg("a"), KernelArg("out"), KernelArg("n", "scalar")),
    )
    builder.declare_local("tmp", MAX_WORKGROUP)
    gid = builder.alloc("gid")
    lid = builder.alloc("lid")
    wgsize = builder.alloc("wgsize")
    a_ptr = builder.alloc("a_ptr")
    out_ptr = builder.alloc("out_ptr")
    addr = builder.alloc("addr")
    lid_bytes = builder.alloc("lid_bytes")
    value = builder.alloc("value")
    stride = builder.alloc("stride")
    cond = builder.alloc("cond")
    below = builder.alloc("below")
    augend = builder.alloc("augend")

    builder.global_id(gid)
    builder.emit(Opcode.LID, rd=lid)
    builder.emit(Opcode.WGSIZE, rd=wgsize)
    builder.load_arg(a_ptr, "a")
    builder.load_arg(out_ptr, "out")
    builder.address_of_element(addr, a_ptr, gid)
    builder.emit(Opcode.LW, rd=value, rs=addr, imm=0)
    builder.emit(Opcode.SLLI, rd=lid_bytes, rs=lid, imm=2)
    builder.emit(Opcode.LSW, rs=lid_bytes, rt=value, imm=0)
    builder.emit(Opcode.BARRIER)
    # for (stride = 1; stride < wgsize; stride <<= 1):
    #   value = lram[lid] (+ lram[lid - stride] when lid >= stride)
    #   barrier; lram[lid] = value; barrier
    builder.emit(Opcode.LI, rd=stride, imm=1)
    top = builder.asm.unique_label("scan")
    done = builder.asm.unique_label("scan_done")
    builder.label(top)
    builder.emit(Opcode.BGE, rs=stride, rt=wgsize, label=done)
    builder.emit(Opcode.LLW, rd=value, rs=lid_bytes, imm=0)
    builder.emit(Opcode.SLT, rd=cond, rs=lid, rt=stride)
    builder.emit(Opcode.XORI, rd=cond, rs=cond, imm=1)
    with builder.lane_if(cond):
        builder.emit(Opcode.SUB, rd=below, rs=lid, rt=stride)
        builder.emit(Opcode.SLLI, rd=below, rs=below, imm=2)
        builder.emit(Opcode.LLW, rd=augend, rs=below, imm=0)
        builder.emit(Opcode.ADD, rd=value, rs=value, rt=augend)
    builder.emit(Opcode.BARRIER)  # all reads of this round complete
    builder.emit(Opcode.LSW, rs=lid_bytes, rt=value, imm=0)
    builder.emit(Opcode.BARRIER)  # all writes of this round complete
    builder.emit(Opcode.SLLI, rd=stride, rs=stride, imm=1)
    builder.emit(Opcode.JMP, label=top)
    builder.label(done)
    builder.address_of_element(addr, out_ptr, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """Input of ``size`` elements; the scan restarts at workgroup boundaries."""
    if size % 64 != 0:
        raise KernelError(f"inclusive_scan size must be a multiple of 64, got {size}")
    workgroup = pick_pow2_workgroup_size(size)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 16, size=size, dtype=np.int64)
    expected = a.reshape(-1, workgroup).cumsum(axis=1).reshape(-1) & 0xFFFFFFFF
    return GpuWorkload(
        buffers={"a": a, "out": np.zeros(size, dtype=np.int64)},
        scalars={"n": size},
        expected={"out": expected},
        ndrange=NDRange(size, workgroup),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="per-workgroup inclusive prefix sum (Hillis-Steele)",
        build=build,
        workload=workload,
        paper_gpu_size=8192,
        paper_riscv_size=512,
    )
)
