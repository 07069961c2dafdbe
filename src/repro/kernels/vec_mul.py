"""``vec_mul`` micro-benchmark: out[i] = a[i] * b[i].

An element-wise multiply: two loads, one multiply, one store per work-item.
Like ``copy`` it is bandwidth bound, which is why the paper measures strongly
sub-linear scaling beyond 4 CUs (100k/49k/31k/26k cycles in Table III).
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

NAME = "vec_mul"


def build() -> Kernel:
    """Build the G-GPU element-wise vector multiply kernel."""
    builder = KernelBuilder(
        NAME,
        args=(KernelArg("a"), KernelArg("b"), KernelArg("out"), KernelArg("n", "scalar")),
    )
    gid = builder.alloc("gid")
    a_ptr = builder.alloc("a_ptr")
    b_ptr = builder.alloc("b_ptr")
    out_ptr = builder.alloc("out_ptr")
    addr = builder.alloc("addr")
    value_a = builder.alloc("value_a")
    value_b = builder.alloc("value_b")

    builder.global_id(gid)
    builder.load_arg(a_ptr, "a")
    builder.load_arg(b_ptr, "b")
    builder.load_arg(out_ptr, "out")
    builder.address_of_element(addr, a_ptr, gid)
    builder.emit(Opcode.LW, rd=value_a, rs=addr, imm=0)
    builder.address_of_element(addr, b_ptr, gid)
    builder.emit(Opcode.LW, rd=value_b, rs=addr, imm=0)
    builder.emit(Opcode.MUL, rd=value_a, rs=value_a, rt=value_b)
    builder.address_of_element(addr, out_ptr, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value_a, imm=0)
    builder.ret()
    return builder.build()


def workload(size: int, seed: int = 2022) -> GpuWorkload:
    """Two random operand vectors of ``size`` elements."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2**15, size=size, dtype=np.int64)
    b = rng.integers(0, 2**15, size=size, dtype=np.int64)
    expected = (a * b) & 0xFFFFFFFF
    return GpuWorkload(
        buffers={"a": a, "b": b, "out": np.zeros(size, dtype=np.int64)},
        scalars={"n": size},
        expected={"out": expected},
        ndrange=NDRange(size, pick_workgroup_size(size)),
    )


SPEC = register_kernel(
    KernelSpec(
        name=NAME,
        description="element-wise vector multiply (bandwidth bound)",
        build=build,
        workload=workload,
        paper_gpu_size=65536,
        paper_riscv_size=1024,
    )
)
