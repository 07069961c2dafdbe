"""``saxpy`` micro-benchmark: ``out = alpha * x + y`` (integer SAXPY).

The classic streaming BLAS-1 kernel: two loads, one multiply-add, one store
per work-item.  Arithmetic intensity sits between ``copy`` and ``fir``, so it
fills the gap in the suite's memory-bound spectrum and is the canonical
smoke-test workload for many cheap launches on one reused simulator.
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

NAME = "saxpy"


def build() -> Kernel:
    """Build the G-GPU SAXPY kernel."""
    builder = KernelBuilder(
        NAME,
        args=(
            KernelArg("x"),
            KernelArg("y"),
            KernelArg("out"),
            KernelArg("alpha", "scalar"),
            KernelArg("n", "scalar"),
        ),
    )
    gid = builder.alloc("gid")
    x_ptr = builder.alloc("x_ptr")
    y_ptr = builder.alloc("y_ptr")
    out_ptr = builder.alloc("out_ptr")
    alpha = builder.alloc("alpha")
    offset = builder.alloc("offset")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    augend = builder.alloc("augend")

    builder.global_id(gid)
    builder.load_arg(x_ptr, "x")
    builder.load_arg(y_ptr, "y")
    builder.load_arg(out_ptr, "out")
    builder.load_arg(alpha, "alpha")
    # One shared byte offset walks all three buffers.
    builder.emit(Opcode.SLLI, rd=offset, rs=gid, imm=2)
    builder.emit(Opcode.ADD, rd=addr, rs=x_ptr, rt=offset)
    builder.emit(Opcode.LW, rd=value, rs=addr, imm=0)
    builder.emit(Opcode.MUL, rd=value, rs=value, rt=alpha)
    builder.emit(Opcode.ADD, rd=addr, rs=y_ptr, rt=offset)
    builder.emit(Opcode.LW, rd=augend, rs=addr, imm=0)
    builder.emit(Opcode.ADD, rd=value, rs=value, rt=augend)
    builder.emit(Opcode.ADD, rd=addr, rs=out_ptr, rt=offset)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """Vectors of ``size`` elements; alpha is derived from the seed."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 1 << 16, size=size, dtype=np.int64)
    y = rng.integers(0, 1 << 16, size=size, dtype=np.int64)
    alpha = int(rng.integers(1, 32))
    expected = (alpha * x + y) & 0xFFFFFFFF
    return GpuWorkload(
        buffers={"x": x, "y": y, "out": np.zeros(size, dtype=np.int64)},
        scalars={"alpha": alpha, "n": size},
        expected={"out": expected},
        ndrange=NDRange(size, pick_workgroup_size(size)),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="integer SAXPY (streaming multiply-add)",
        build=build,
        workload=workload,
        paper_gpu_size=32768,
        paper_riscv_size=1024,
    )
)
