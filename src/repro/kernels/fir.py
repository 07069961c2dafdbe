"""``fir`` micro-benchmark: 16-tap finite impulse response filter.

``y[i] = sum_{t=0}^{15} coeff[t] * x[i + t]``.  Each work-item performs a
short dot product over a sliding window; neighbouring work-items share most of
their input samples, so the cache captures the reuse and the kernel scales
well (Table III: 694k/358k/185k/169k cycles), though not as well as mat_mul
because each output needs 16 loads from the signal buffer.
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

NAME = "fir"
NUM_TAPS = 16


def build() -> Kernel:
    """Build the G-GPU FIR kernel (16 taps)."""
    builder = KernelBuilder(
        NAME,
        args=(KernelArg("x"), KernelArg("coeff"), KernelArg("y"), KernelArg("n", "scalar")),
    )
    gid = builder.alloc("gid")
    x_ptr = builder.alloc("x_ptr")
    coeff_ptr = builder.alloc("coeff_ptr")
    y_ptr = builder.alloc("y_ptr")
    acc = builder.alloc("acc")
    tap = builder.alloc("tap")
    tap_end = builder.alloc("tap_end")
    addr = builder.alloc("addr")
    sample = builder.alloc("sample")
    weight = builder.alloc("weight")

    builder.global_id(gid)
    builder.load_arg(x_ptr, "x")
    builder.load_arg(coeff_ptr, "coeff")
    builder.load_arg(y_ptr, "y")
    # Walk &x[gid + tap] and &coeff[tap] with pointer increments.
    builder.emit(Opcode.SLLI, rd=addr, rs=gid, imm=2)
    builder.emit(Opcode.ADD, rd=x_ptr, rs=x_ptr, rt=addr)
    builder.emit(Opcode.LI, rd=acc, imm=0)
    builder.emit(Opcode.LI, rd=tap, imm=0)
    builder.emit(Opcode.LI, rd=tap_end, imm=NUM_TAPS)
    with builder.uniform_loop(tap, tap_end):
        builder.emit(Opcode.LW, rd=sample, rs=x_ptr, imm=0)
        builder.emit(Opcode.LW, rd=weight, rs=coeff_ptr, imm=0)
        builder.emit(Opcode.MUL, rd=sample, rs=sample, rt=weight)
        builder.emit(Opcode.ADD, rd=acc, rs=acc, rt=sample)
        builder.emit(Opcode.ADDI, rd=x_ptr, rs=x_ptr, imm=4)
        builder.emit(Opcode.ADDI, rd=coeff_ptr, rs=coeff_ptr, imm=4)
    builder.address_of_element(addr, y_ptr, gid)
    builder.emit(Opcode.SW, rs=addr, rt=acc, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """Signal of ``size + 16`` samples and 16 coefficients."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 1024, size=size + NUM_TAPS, dtype=np.int64)
    coeff = rng.integers(0, 64, size=NUM_TAPS, dtype=np.int64)
    indices = np.arange(size)[:, None] + np.arange(NUM_TAPS)[None, :]
    expected = (x[indices] * coeff[None, :]).sum(axis=1) & 0xFFFFFFFF
    return GpuWorkload(
        buffers={"x": x, "coeff": coeff, "y": np.zeros(size, dtype=np.int64)},
        scalars={"n": size},
        expected={"y": expected},
        ndrange=NDRange(size, pick_workgroup_size(size)),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="16-tap FIR filter (moderate reuse)",
        build=build,
        workload=workload,
        paper_gpu_size=4096,
        paper_riscv_size=128,
    )
)
