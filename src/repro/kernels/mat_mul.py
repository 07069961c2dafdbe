"""``mat_mul`` micro-benchmark: blocked matrix multiply.

Each work-item computes one element of ``C = A x B`` where ``A`` is
``(size/64) x 64``, ``B`` is ``64 x 64`` and ``C`` has ``size`` elements (the
paper's single "input size" number is the number of output elements).  The
64-long dot product per work-item gives the kernel high arithmetic intensity
and excellent data reuse through the shared cache, which is why it shows the
largest speed-up over the RISC-V (up to ~223x with 8 CUs in Fig. 5).
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.errors import KernelError
from repro.kernels.library import (
    GpuWorkload,
    KernelSpec,
    pick_workgroup_size,
    register_kernel,
)

NAME = "mat_mul"
INNER_DIM = 64


def build() -> Kernel:
    """Build the G-GPU matrix-multiply kernel (inner dimension fixed at 64)."""
    builder = KernelBuilder(
        NAME,
        args=(KernelArg("a"), KernelArg("b"), KernelArg("c"), KernelArg("n", "scalar")),
    )
    gid = builder.alloc("gid")
    a_ptr = builder.alloc("a_ptr")
    b_ptr = builder.alloc("b_ptr")
    c_ptr = builder.alloc("c_ptr")
    row_off = builder.alloc("row_off")
    col = builder.alloc("col")
    acc = builder.alloc("acc")
    k = builder.alloc("k")
    k_end = builder.alloc("k_end")
    addr = builder.alloc("addr")
    value_a = builder.alloc("value_a")
    value_b = builder.alloc("value_b")

    builder.global_id(gid)
    builder.load_arg(a_ptr, "a")
    builder.load_arg(b_ptr, "b")
    builder.load_arg(c_ptr, "c")
    # row = gid / 64, col = gid % 64; the loop walks A's row with a stride of 4
    # bytes and B's column with a stride of 256 bytes (pointer arithmetic, the
    # way the FGPU compiler strength-reduces the address computations).
    builder.emit(Opcode.SRLI, rd=row_off, rs=gid, imm=6)
    builder.emit(Opcode.SLLI, rd=row_off, rs=row_off, imm=8)
    builder.emit(Opcode.ADD, rd=row_off, rs=row_off, rt=a_ptr)  # &A[row][0]
    builder.emit(Opcode.ANDI, rd=col, rs=gid, imm=INNER_DIM - 1)
    builder.emit(Opcode.SLLI, rd=col, rs=col, imm=2)
    builder.emit(Opcode.ADD, rd=col, rs=col, rt=b_ptr)  # &B[0][col]
    builder.emit(Opcode.LI, rd=acc, imm=0)
    builder.emit(Opcode.LI, rd=k, imm=0)
    builder.emit(Opcode.LI, rd=k_end, imm=INNER_DIM)
    with builder.uniform_loop(k, k_end):
        builder.emit(Opcode.LW, rd=value_a, rs=row_off, imm=0)
        builder.emit(Opcode.LW, rd=value_b, rs=col, imm=0)
        builder.emit(Opcode.MUL, rd=value_a, rs=value_a, rt=value_b)
        builder.emit(Opcode.ADD, rd=acc, rs=acc, rt=value_a)
        builder.emit(Opcode.ADDI, rd=row_off, rs=row_off, imm=4)
        builder.emit(Opcode.ADDI, rd=col, rs=col, imm=4 * INNER_DIM)
    builder.address_of_element(addr, c_ptr, gid)
    builder.emit(Opcode.SW, rs=addr, rt=acc, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """Matrices sized so ``C`` has ``size`` elements (must be a multiple of 64)."""
    if size % INNER_DIM != 0:
        raise KernelError(f"mat_mul size must be a multiple of {INNER_DIM}, got {size}")
    rows = size // INNER_DIM
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=(rows, INNER_DIM), dtype=np.int64)
    b = rng.integers(0, 256, size=(INNER_DIM, INNER_DIM), dtype=np.int64)
    c = (a @ b) & 0xFFFFFFFF
    return GpuWorkload(
        buffers={
            "a": a.reshape(-1),
            "b": b.reshape(-1),
            "c": np.zeros(size, dtype=np.int64),
        },
        scalars={"n": size},
        expected={"c": c.reshape(-1)},
        ndrange=NDRange(size, pick_workgroup_size(size)),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="blocked matrix multiply (compute bound, high reuse)",
        build=build,
        workload=workload,
        paper_gpu_size=2048,
        paper_riscv_size=128,
    )
)
