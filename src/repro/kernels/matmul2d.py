"""``matmul2d`` dense benchmark: __local-tiled GEMM on a rank-2 NDRange.

``C = A x B`` with ``A`` sized ``(size/16) x 16``, ``B`` fixed at ``16 x 16``
and one work-item per output element, launched on a 2-D NDRange
``((16, size/16), (8, 8))``.  Unlike the paper's flat ``mat_mul``, this is the
canonical tiled GEMM: each ``8 x 8`` workgroup stages an ``A`` tile and a
``B`` tile through LRAM, synchronizes with a barrier, and runs the inner
product out of local memory — so the kernel exercises 2-D work-item indexing,
per-dimension ``GID``/``LID`` queries, cooperative __local staging, and
barriers all at once.  Integer multiply-add is associative mod 2^32 in the
``k`` order used here, so the tiled schedule is bit-exact against the scalar
RISC-V triple loop and the plain (untiled) compiled CL form.
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.errors import KernelError
from repro.kernels.library import GpuWorkload, KernelSpec, register_kernel

NAME = "matmul2d"
NUM_COLS = 16  # N: columns of B and C
INNER_DIM = 16  # K: columns of A, rows of B
TILE = 8  # TS: tile edge; workgroups are (TILE, TILE) = 64 lanes


def build() -> Kernel:
    """Build the tiled rank-2 GEMM kernel (B fixed at 16x16, 8x8 tiles)."""
    builder = KernelBuilder(
        NAME,
        args=(KernelArg("a"), KernelArg("b"), KernelArg("c"), KernelArg("m", "scalar")),
    )
    a_tile = builder.declare_local("a_tile", TILE * TILE)
    b_tile = builder.declare_local("b_tile", TILE * TILE)

    gid0 = builder.alloc("gid0")  # global column
    gid1 = builder.alloc("gid1")  # global row
    lid0 = builder.alloc("lid0")
    lid1 = builder.alloc("lid1")
    a_ptr = builder.alloc("a_ptr")
    b_ptr = builder.alloc("b_ptr")
    c_ptr = builder.alloc("c_ptr")
    my_slot = builder.alloc("my_slot")  # LRAM byte offset of (lid1, lid0)
    a_src = builder.alloc("a_src")  # &A[gid1][t*TILE + lid0]
    b_src = builder.alloc("b_src")  # &B[t*TILE + lid1][gid0]
    a_rd = builder.alloc("a_rd")  # LRAM cursor over a_tile[lid1][.]
    b_rd = builder.alloc("b_rd")  # LRAM cursor over b_tile[.][lid0]
    acc = builder.alloc("acc")
    t = builder.alloc("t")
    t_end = builder.alloc("t_end")
    k = builder.alloc("k")
    k_end = builder.alloc("k_end")
    va = builder.alloc("va")
    vb = builder.alloc("vb")
    addr = builder.alloc("addr")

    builder.global_id(gid0, 0)
    builder.global_id(gid1, 1)
    builder.local_id(lid0, 0)
    builder.local_id(lid1, 1)
    builder.load_arg(a_ptr, "a")
    builder.load_arg(b_ptr, "b")
    builder.load_arg(c_ptr, "c")

    # my_slot = (lid1 * TILE + lid0) * 4: this lane's slot in either tile.
    builder.emit(Opcode.SLLI, rd=my_slot, rs=lid1, imm=3)
    builder.emit(Opcode.ADD, rd=my_slot, rs=my_slot, rt=lid0)
    builder.emit(Opcode.SLLI, rd=my_slot, rs=my_slot, imm=2)
    # a_src = &A[gid1][lid0], advanced by TILE columns per tile step.
    builder.emit(Opcode.SLLI, rd=a_src, rs=gid1, imm=4)
    builder.emit(Opcode.ADD, rd=a_src, rs=a_src, rt=lid0)
    builder.emit(Opcode.SLLI, rd=a_src, rs=a_src, imm=2)
    builder.emit(Opcode.ADD, rd=a_src, rs=a_src, rt=a_ptr)
    # b_src = &B[lid1][gid0], advanced by TILE rows per tile step.
    builder.emit(Opcode.SLLI, rd=b_src, rs=lid1, imm=4)
    builder.emit(Opcode.ADD, rd=b_src, rs=b_src, rt=gid0)
    builder.emit(Opcode.SLLI, rd=b_src, rs=b_src, imm=2)
    builder.emit(Opcode.ADD, rd=b_src, rs=b_src, rt=b_ptr)

    builder.emit(Opcode.LI, rd=acc, imm=0)
    builder.emit(Opcode.LI, rd=t, imm=0)
    builder.emit(Opcode.LI, rd=t_end, imm=INNER_DIM // TILE)
    builder.emit(Opcode.LI, rd=k_end, imm=TILE)
    with builder.uniform_loop(t, t_end):
        # Stage one A tile and one B tile through LRAM.
        builder.emit(Opcode.LW, rd=va, rs=a_src, imm=0)
        builder.emit(Opcode.ADDI, rd=addr, rs=my_slot, imm=a_tile)
        builder.emit(Opcode.LSW, rs=addr, rt=va, imm=0)
        builder.emit(Opcode.LW, rd=vb, rs=b_src, imm=0)
        builder.emit(Opcode.ADDI, rd=addr, rs=my_slot, imm=b_tile)
        builder.emit(Opcode.LSW, rs=addr, rt=vb, imm=0)
        builder.emit(Opcode.BARRIER)
        # acc += a_tile[lid1][k] * b_tile[k][lid0] for k in 0..TILE-1.
        builder.emit(Opcode.SLLI, rd=a_rd, rs=lid1, imm=5)
        builder.emit(Opcode.ADDI, rd=a_rd, rs=a_rd, imm=a_tile)
        builder.emit(Opcode.SLLI, rd=b_rd, rs=lid0, imm=2)
        builder.emit(Opcode.ADDI, rd=b_rd, rs=b_rd, imm=b_tile)
        builder.emit(Opcode.LI, rd=k, imm=0)
        with builder.uniform_loop(k, k_end):
            builder.emit(Opcode.LLW, rd=va, rs=a_rd, imm=0)
            builder.emit(Opcode.LLW, rd=vb, rs=b_rd, imm=0)
            builder.emit(Opcode.MUL, rd=va, rs=va, rt=vb)
            builder.emit(Opcode.ADD, rd=acc, rs=acc, rt=va)
            builder.emit(Opcode.ADDI, rd=a_rd, rs=a_rd, imm=4)
            builder.emit(Opcode.ADDI, rd=b_rd, rs=b_rd, imm=4 * TILE)
        # The next tile load overwrites LRAM: wait for every lane's reads.
        builder.emit(Opcode.BARRIER)
        builder.emit(Opcode.ADDI, rd=a_src, rs=a_src, imm=4 * TILE)
        builder.emit(Opcode.ADDI, rd=b_src, rs=b_src, imm=4 * TILE * NUM_COLS)

    # C[gid1][gid0] = acc.
    builder.emit(Opcode.SLLI, rd=addr, rs=gid1, imm=4)
    builder.emit(Opcode.ADD, rd=addr, rs=addr, rt=gid0)
    builder.address_of_element(addr, c_ptr, addr)
    builder.emit(Opcode.SW, rs=addr, rt=acc, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """Matrices sized so ``C`` has ``size`` elements (must be a multiple of 128)."""
    if size % (NUM_COLS * TILE) != 0:
        raise KernelError(
            f"matmul2d size must be a multiple of {NUM_COLS * TILE}, got {size}"
        )
    rows = size // NUM_COLS
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=(rows, INNER_DIM), dtype=np.int64)
    b = rng.integers(0, 256, size=(INNER_DIM, NUM_COLS), dtype=np.int64)
    c = (a @ b) & 0xFFFFFFFF
    return GpuWorkload(
        buffers={
            "a": a.reshape(-1),
            "b": b.reshape(-1),
            "c": np.zeros(size, dtype=np.int64),
        },
        scalars={"m": rows},
        expected={"c": c.reshape(-1)},
        ndrange=NDRange((NUM_COLS, rows), (TILE, TILE)),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="__local-tiled GEMM on a 2-D NDRange (8x8 workgroups)",
        build=build,
        workload=workload,
        paper_gpu_size=2048,
        paper_riscv_size=128,
        size_granularity=128,
    )
)
