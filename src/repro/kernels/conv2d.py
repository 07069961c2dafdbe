"""``conv2d`` dense benchmark: 3x3 convolution on a rank-2 NDRange.

``out[y][x] = sum(src[y+ky][x+kx] * krn[ky][kx])`` over a 3x3 stencil, on an
image 16 pixels wide and ``size/16`` pixels tall.  The input carries a
one-pixel halo (``(h+2) x 18``), so every work-item reads nine neighbours
without edge branches.  The launch is a 2-D NDRange ``((16, h), (16, 4))``:
dimension 0 walks a row (coalesced loads), dimension 1 walks rows, and each
``16 x 4`` workgroup covers a 64-pixel image strip — one wavefront.  The
stencil is fully unrolled: the nine taps become literal load offsets, the
idiomatic strength reduction for a fixed-size kernel.
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.errors import KernelError
from repro.kernels.library import GpuWorkload, KernelSpec, register_kernel

NAME = "conv2d"
WIDTH = 16  # image width; input rows are WIDTH + 2 words with the halo
KSIZE = 3
WG_SHAPE = (16, 4)  # one wavefront per workgroup, covering a 16x4 strip


def build() -> Kernel:
    """Build the unrolled 3x3 stencil kernel over the haloed input."""
    builder = KernelBuilder(
        NAME,
        args=(
            KernelArg("src"),
            KernelArg("krn"),
            KernelArg("out"),
            KernelArg("h", "scalar"),
        ),
    )
    x = builder.alloc("x")
    y = builder.alloc("y")
    src_ptr = builder.alloc("src_ptr")
    krn_ptr = builder.alloc("krn_ptr")
    out_ptr = builder.alloc("out_ptr")
    base = builder.alloc("base")
    acc = builder.alloc("acc")
    va = builder.alloc("va")
    vk = builder.alloc("vk")
    addr = builder.alloc("addr")

    builder.global_id(x, 0)
    builder.global_id(y, 1)
    builder.load_arg(src_ptr, "src")
    builder.load_arg(krn_ptr, "krn")
    builder.load_arg(out_ptr, "out")

    # base = &src[y][x]: the top-left tap of this work-item's stencil.
    stride = WIDTH + 2
    builder.emit(Opcode.LI, rd=base, imm=stride)
    builder.emit(Opcode.MUL, rd=base, rs=base, rt=y)
    builder.emit(Opcode.ADD, rd=base, rs=base, rt=x)
    builder.emit(Opcode.SLLI, rd=base, rs=base, imm=2)
    builder.emit(Opcode.ADD, rd=base, rs=base, rt=src_ptr)
    builder.emit(Opcode.LI, rd=acc, imm=0)
    for ky in range(KSIZE):
        for kx in range(KSIZE):
            builder.emit(Opcode.LW, rd=va, rs=base, imm=4 * (ky * stride + kx))
            builder.emit(Opcode.LW, rd=vk, rs=krn_ptr, imm=4 * (ky * KSIZE + kx))
            builder.emit(Opcode.MUL, rd=va, rs=va, rt=vk)
            builder.emit(Opcode.ADD, rd=acc, rs=acc, rt=va)

    # out[y][x] = acc.
    builder.emit(Opcode.SLLI, rd=addr, rs=y, imm=4)
    builder.emit(Opcode.ADD, rd=addr, rs=addr, rt=x)
    builder.address_of_element(addr, out_ptr, addr)
    builder.emit(Opcode.SW, rs=addr, rt=acc, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """A 16-wide image with ``size`` pixels (must be a multiple of 64)."""
    if size % (WIDTH * WG_SHAPE[1]) != 0:
        raise KernelError(
            f"conv2d size must be a multiple of {WIDTH * WG_SHAPE[1]}, got {size}"
        )
    height = size // WIDTH
    stride = WIDTH + 2
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 256, size=(height + 2, stride), dtype=np.int64)
    krn = rng.integers(0, 16, size=(KSIZE, KSIZE), dtype=np.int64)
    out = np.zeros((height, WIDTH), dtype=np.int64)
    for ky in range(KSIZE):
        for kx in range(KSIZE):
            out += src[ky : ky + height, kx : kx + WIDTH] * krn[ky, kx]
    return GpuWorkload(
        buffers={
            "src": src.reshape(-1),
            "krn": krn.reshape(-1),
            "out": np.zeros(size, dtype=np.int64),
        },
        scalars={"h": height},
        expected={"out": out.reshape(-1) & 0xFFFFFFFF},
        ndrange=NDRange((WIDTH, height), WG_SHAPE),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="unrolled 3x3 stencil on a 2-D NDRange (16x4 workgroups)",
        build=build,
        workload=workload,
        paper_gpu_size=2048,
        paper_riscv_size=128,
    )
)
