"""``div_int`` micro-benchmark: element-wise integer division.

The FGPU has no hardware divider, so ``a[i] / b[i]`` compiles to a 32-step
restoring-division loop (~500 issued instructions per work-item), while the
RISC-V baseline executes a single hardware ``div``.  On top of the long
software sequence, the per-lane "subtract or keep" decision inside the loop is
divergent, so both sides of the predicated region are issued every iteration.
This combination is why div_int shows the smallest speed-up of the suite (as
low as ~1.2x for 1 CU in the paper, and the G-GPU cycle count in Table III is
*higher* than the RISC-V one despite the 8x larger input).
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

NAME = "div_int"
DIVISION_STEPS = 32
MAX_DIVIDEND = 2**31
MAX_DIVISOR = 2**16


def build() -> Kernel:
    """Build the G-GPU integer-division kernel (restoring division loop)."""
    builder = KernelBuilder(
        NAME,
        args=(KernelArg("a"), KernelArg("b"), KernelArg("q"), KernelArg("n", "scalar")),
    )
    gid = builder.alloc("gid")
    a_ptr = builder.alloc("a_ptr")
    b_ptr = builder.alloc("b_ptr")
    q_ptr = builder.alloc("q_ptr")
    addr = builder.alloc("addr")
    dividend = builder.alloc("dividend")
    divisor = builder.alloc("divisor")
    remainder = builder.alloc("remainder")
    quotient = builder.alloc("quotient")
    step = builder.alloc("step")
    step_end = builder.alloc("step_end")
    bit = builder.alloc("bit")
    fits = builder.alloc("fits")

    builder.global_id(gid)
    builder.load_arg(a_ptr, "a")
    builder.load_arg(b_ptr, "b")
    builder.load_arg(q_ptr, "q")
    builder.address_of_element(addr, a_ptr, gid)
    builder.emit(Opcode.LW, rd=dividend, rs=addr, imm=0)
    builder.address_of_element(addr, b_ptr, gid)
    builder.emit(Opcode.LW, rd=divisor, rs=addr, imm=0)
    builder.emit(Opcode.LI, rd=remainder, imm=0)
    builder.emit(Opcode.LI, rd=quotient, imm=0)
    builder.emit(Opcode.LI, rd=step, imm=0)
    builder.emit(Opcode.LI, rd=step_end, imm=DIVISION_STEPS)
    with builder.uniform_loop(step, step_end):
        # Shift the next dividend bit into the partial remainder.
        builder.emit(Opcode.SRLI, rd=bit, rs=dividend, imm=31)
        builder.emit(Opcode.SLLI, rd=dividend, rs=dividend, imm=1)
        builder.emit(Opcode.SLLI, rd=remainder, rs=remainder, imm=1)
        builder.emit(Opcode.OR, rd=remainder, rs=remainder, rt=bit)
        builder.emit(Opcode.SLLI, rd=quotient, rs=quotient, imm=1)
        # Per-lane decision: subtract the divisor if it fits (divergent).
        builder.emit(Opcode.SLTU, rd=fits, rs=remainder, rt=divisor)
        builder.emit(Opcode.XORI, rd=fits, rs=fits, imm=1)
        with builder.lane_if(fits):
            builder.emit(Opcode.SUB, rd=remainder, rs=remainder, rt=divisor)
            builder.emit(Opcode.ORI, rd=quotient, rs=quotient, imm=1)
    builder.address_of_element(addr, q_ptr, gid)
    builder.emit(Opcode.SW, rs=addr, rt=quotient, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """Random 31-bit dividends and 16-bit divisors (never zero)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, MAX_DIVIDEND, size=size, dtype=np.int64)
    b = rng.integers(1, MAX_DIVISOR, size=size, dtype=np.int64)
    expected = a // b
    return GpuWorkload(
        buffers={"a": a, "b": b, "q": np.zeros(size, dtype=np.int64)},
        scalars={"n": size},
        expected={"q": expected},
        ndrange=NDRange(size, pick_workgroup_size(size)),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="element-wise integer division (32-step restoring division, predicated)",
        build=build,
        workload=workload,
        paper_gpu_size=4096,
        paper_riscv_size=512,
    )
)
