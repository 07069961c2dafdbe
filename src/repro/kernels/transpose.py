"""``transpose`` micro-benchmark: 64-column matrix transpose.

``out[col * rows + row] = a[row * 64 + col]``: reads are perfectly coalesced
(64 consecutive words per wavefront) while writes scatter with a stride of
``rows`` words, so every wavefront store touches 64 distinct cache lines once
``rows >= 16``.  That makes transpose the suite's worst case for the cache's
line-port serialization and the AXI write-back path — the mirror image of
``copy``, which is the best case.
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

NAME = "transpose"
NUM_COLS = 64


def build() -> Kernel:
    """Build the G-GPU transpose kernel (row-major in, column-major out)."""
    builder = KernelBuilder(
        NAME,
        args=(
            KernelArg("a"),
            KernelArg("out"),
            KernelArg("rows", "scalar"),
            KernelArg("n", "scalar"),
        ),
    )
    gid = builder.alloc("gid")
    a_ptr = builder.alloc("a_ptr")
    out_ptr = builder.alloc("out_ptr")
    rows = builder.alloc("rows")
    row = builder.alloc("row")
    col = builder.alloc("col")
    addr = builder.alloc("addr")
    value = builder.alloc("value")

    builder.global_id(gid)
    builder.load_arg(a_ptr, "a")
    builder.load_arg(out_ptr, "out")
    builder.load_arg(rows, "rows")
    builder.emit(Opcode.SRLI, rd=row, rs=gid, imm=6)
    builder.emit(Opcode.ANDI, rd=col, rs=gid, imm=NUM_COLS - 1)
    builder.address_of_element(addr, a_ptr, gid)
    builder.emit(Opcode.LW, rd=value, rs=addr, imm=0)
    builder.emit(Opcode.MUL, rd=col, rs=col, rt=rows)
    builder.emit(Opcode.ADD, rd=col, rs=col, rt=row)
    builder.address_of_element(addr, out_ptr, col)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """A ``(size/64) x 64`` matrix transposed into a ``64 x (size/64)`` one."""
    if size % NUM_COLS != 0:
        raise KernelError(f"transpose size must be a multiple of {NUM_COLS}, got {size}")
    rows = size // NUM_COLS
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 31, size=size, dtype=np.int64)
    expected = a.reshape(rows, NUM_COLS).T.reshape(-1)
    return GpuWorkload(
        buffers={"a": a, "out": np.zeros(size, dtype=np.int64)},
        scalars={"rows": rows, "n": size},
        expected={"out": expected},
        ndrange=NDRange(size, pick_workgroup_size(size)),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="64-column matrix transpose (strided scatter stores)",
        build=build,
        workload=workload,
        paper_gpu_size=16384,
        paper_riscv_size=512,
    )
)
