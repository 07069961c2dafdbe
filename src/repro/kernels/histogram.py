"""``histogram`` micro-benchmark: 256-bin output-driven histogram.

The G-GPU has no atomics, so the kernel uses the output-driven (bin-per-
work-item) formulation: the NDRange covers the 256 bins and every work-item
scans the whole sample buffer, counting the samples whose top byte equals its
bin.  The count update is branchless (the 0/1 comparison result is added
directly), a hand-tuning the OpenCL source deliberately does not apply, and
the per-iteration sample load is wavefront-uniform — all 64 lanes hit the
same word, the best case for the coalescer.  The scalar RISC-V version is the
classic one-pass ``hist[bin]++`` loop, an algorithmically different route to
the identical counts.
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.kernels.library import GpuWorkload, KernelSpec, register_kernel

NAME = "histogram"
NUM_BINS = 256
BIN_SHIFT = 24  # bin = top byte of the 32-bit sample


def build() -> Kernel:
    """Build the G-GPU histogram kernel (one bin per work-item)."""
    builder = KernelBuilder(
        NAME,
        args=(KernelArg("a"), KernelArg("hist"), KernelArg("n", "scalar")),
    )
    gid = builder.alloc("gid")
    a_ptr = builder.alloc("a_ptr")
    hist_ptr = builder.alloc("hist_ptr")
    n = builder.alloc("n")
    count = builder.alloc("count")
    j = builder.alloc("j")
    sample_addr = builder.alloc("sample_addr")
    sample = builder.alloc("sample")
    match = builder.alloc("match")
    addr = builder.alloc("addr")

    builder.global_id(gid)
    builder.load_arg(a_ptr, "a")
    builder.load_arg(hist_ptr, "hist")
    builder.load_arg(n, "n")
    builder.emit(Opcode.LI, rd=count, imm=0)
    builder.emit(Opcode.LI, rd=j, imm=0)
    builder.emit(Opcode.ADD, rd=sample_addr, rs=a_ptr, rt=0)
    with builder.uniform_loop(j, n):
        builder.emit(Opcode.LW, rd=sample, rs=sample_addr, imm=0)
        builder.emit(Opcode.SRLI, rd=sample, rs=sample, imm=BIN_SHIFT)
        # Branchless count += (bin == gid): the comparison result is 0/1.
        builder.emit(Opcode.SUB, rd=match, rs=sample, rt=gid)
        builder.emit(Opcode.SLTU, rd=match, rs=0, rt=match)
        builder.emit(Opcode.XORI, rd=match, rs=match, imm=1)
        builder.emit(Opcode.ADD, rd=count, rs=count, rt=match)
        builder.emit(Opcode.ADDI, rd=sample_addr, rs=sample_addr, imm=4)
    builder.address_of_element(addr, hist_ptr, gid)
    builder.emit(Opcode.SW, rs=addr, rt=count, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """``size`` samples into 256 bins; the NDRange always covers the bins."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 32, size=size, dtype=np.int64)
    bins = (a >> BIN_SHIFT).astype(np.int64)
    expected = np.bincount(bins, minlength=NUM_BINS).astype(np.int64)
    return GpuWorkload(
        buffers={"a": a, "hist": np.zeros(NUM_BINS, dtype=np.int64)},
        scalars={"n": size},
        expected={"hist": expected},
        ndrange=NDRange(NUM_BINS, 64),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="256-bin output-driven histogram (uniform loads)",
        build=build,
        workload=workload,
        paper_gpu_size=4096,
        paper_riscv_size=512,
    )
)
