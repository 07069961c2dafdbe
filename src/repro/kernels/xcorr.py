"""``xcorr`` micro-benchmark: strided (decimated) cross-correlation.

Each work-item correlates the 256-sample reference window against its own
stride-16 segment of the signal: ``out[i] = sum_t x[t] * y[16*i + t]``.
Within a wavefront the 64 lanes therefore read 64 *different* cache lines on
every iteration of the inner loop, so the kernel is dominated by global-memory
traffic rather than by the PE array.  That is what puts xcorr in the paper's
"low parallelism benefit" group: single-digit speed-up over the RISC-V, and a
cycle count that stops improving (or gets worse) when going from 4 to 8 CUs
because the extra CUs only add contention on the AXI data ports
(Table III: 5343k/2802k/1467k/2079k cycles).
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

NAME = "xcorr"
WINDOW = 256
STRIDE = 16


def build() -> Kernel:
    """Build the G-GPU strided cross-correlation kernel."""
    builder = KernelBuilder(
        NAME,
        args=(KernelArg("x"), KernelArg("y"), KernelArg("out"), KernelArg("n", "scalar")),
    )
    gid = builder.alloc("gid")
    x_ptr = builder.alloc("x_ptr")
    y_ptr = builder.alloc("y_ptr")
    out_ptr = builder.alloc("out_ptr")
    acc = builder.alloc("acc")
    t = builder.alloc("t")
    t_end = builder.alloc("t_end")
    addr = builder.alloc("addr")
    ref = builder.alloc("ref")
    sig = builder.alloc("sig")

    builder.global_id(gid)
    builder.load_arg(x_ptr, "x")
    builder.load_arg(y_ptr, "y")
    builder.load_arg(out_ptr, "out")
    # Walk &x[t] and &y[STRIDE * gid + t] with pointer increments.
    builder.emit(Opcode.SLLI, rd=addr, rs=gid, imm=6)  # STRIDE * 4 bytes = 64
    builder.emit(Opcode.ADD, rd=y_ptr, rs=y_ptr, rt=addr)
    builder.emit(Opcode.LI, rd=acc, imm=0)
    builder.emit(Opcode.LI, rd=t, imm=0)
    builder.emit(Opcode.LI, rd=t_end, imm=WINDOW)
    with builder.uniform_loop(t, t_end):
        builder.emit(Opcode.LW, rd=ref, rs=x_ptr, imm=0)
        builder.emit(Opcode.LW, rd=sig, rs=y_ptr, imm=0)
        builder.emit(Opcode.MUL, rd=ref, rs=ref, rt=sig)
        builder.emit(Opcode.ADD, rd=acc, rs=acc, rt=ref)
        builder.emit(Opcode.ADDI, rd=x_ptr, rs=x_ptr, imm=4)
        builder.emit(Opcode.ADDI, rd=y_ptr, rs=y_ptr, imm=4)
    builder.address_of_element(addr, out_ptr, gid)
    builder.emit(Opcode.SW, rs=addr, rt=acc, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """Reference window of 256 samples; signal of ``16 * size + 256`` samples."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 256, size=WINDOW, dtype=np.int64)
    y = rng.integers(0, 256, size=size * STRIDE + WINDOW, dtype=np.int64)
    indices = STRIDE * np.arange(size)[:, None] + np.arange(WINDOW)[None, :]
    expected = (x[None, :] * y[indices]).sum(axis=1) & 0xFFFFFFFF
    return GpuWorkload(
        buffers={"x": x, "y": y, "out": np.zeros(size, dtype=np.int64)},
        scalars={"n": size},
        expected={"out": expected},
        ndrange=NDRange(size, pick_workgroup_size(size)),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="strided cross correlation (memory bound, contention limited)",
        build=build,
        workload=workload,
        paper_gpu_size=4096,
        paper_riscv_size=256,
    )
)
